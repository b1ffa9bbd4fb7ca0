"""Analysis utilities: the analytic pruning-effectiveness model, measured PE,
and the data-distribution statistics behind Figures 7.1 and 7.2.

* :mod:`~repro.analysis.pruning_model` -- the closed-form pruning
  effectiveness estimate of Section 6.3 (Equations 6.12–6.15).
* :mod:`~repro.analysis.pe` -- measured pruning effectiveness averaged over a
  sample of query entities (Definition 5 and the "fraction pruned"
  orientation used by Figures 7.3 and 7.7).
* :mod:`~repro.analysis.distribution` -- AjPI counts and durations per level
  (Figure 7.1) and the association-degree histogram (Figure 7.2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.distribution": [
            "adm_histogram",
            "ajpi_duration_histogram",
            "ajpi_entity_counts",
        ],
        "repro.analysis.pe": ["PESummary", "measure_pruning_effectiveness"],
        "repro.analysis.pruning_model": ["PruningModel", "PruningModelParams"],
    },
)
