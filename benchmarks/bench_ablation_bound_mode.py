"""Ablation -- the paper's lifted Theorem 4 bound vs the engine's per-level bound.

The lifted bound (artificial entity rebuilt from surviving base cells) prunes
harder but is not an upper bound: it misses associations that exist only at
coarse levels, so no engine searches with it and its row comes from the
reference walk.  The per-level bound, the one every engine uses, is
admissible but looser.  This ablation reports both PE and recall against the
exhaustive oracle.
"""

from repro.experiments import figures


def test_ablation_bound_mode(record_figure):
    result = record_figure(figures.ablation_bound_mode)
    rows = {row["bound_mode"]: row for row in result.rows}
    assert rows["per_level"]["mean_recall"] >= 0.999
    assert rows["lift"]["mean_recall"] >= 0.8
    assert rows["lift"]["pe"] >= rows["per_level"]["pe"] - 1e-9
