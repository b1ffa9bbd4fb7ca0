"""Baseline approaches the paper compares against.

* :class:`~repro.baselines.brute_force.BruteForceTopK` -- the exhaustive scan
  mentioned at the start of Chapter 4; also the ground truth every
  correctness test compares the MinSigTree searcher against.
* :func:`~repro.baselines.reference.reference_search` -- the
  pointer-walking Algorithm 2 traversal, the bit-for-bit oracle of the
  columnar kernel (tests only; no serving path imports it).
* :mod:`~repro.baselines.fpm` -- a small frequent-pattern-mining substrate
  (Apriori-style itemset counting and a co-occurrence based ST-cell
  clustering), needed by
* :class:`~repro.baselines.cluster_bitmap.ClusterBitmapIndex` -- the
  Section 7.2 baseline: cluster ST-cells by co-occurrence, represent each
  entity as a bit vector over clusters, group entities by bit vector, and
  search groups in decreasing upper-bound order.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.brute_force": ["BruteForceTopK"],
        "repro.baselines.cluster_bitmap": ["ClusterBitmapIndex"],
        "repro.baselines.fpm": ["FrequentPatternMiner", "cluster_cells_by_cooccurrence"],
        "repro.baselines.reference": ["reference_search"],
    },
)
