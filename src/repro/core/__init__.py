"""The paper's primary contribution: signatures, the MinSigTree, and top-k search.

Modules
-------
``hashing``
    The hierarchical MinHash family -- ``n_h`` hash functions over base
    ST-cells, extended to coarser cells through the parent constraint
    ``h(t, parent(l)) = min over children h(t, child)`` (Section 4.2.1).
``signatures``
    Per-entity, per-level signature computation (the ``sig_a`` lists).
``minsigtree``
    The MinSigTree index: construction (Algorithm 1), incremental updates,
    and size accounting.
``pruning``
    Pruned sets and partial pruned sets derived from node signatures
    (Theorems 2 and 3, Section 5.1).
``query``
    Best-first top-k search with early termination (Theorem 4, Algorithm 2).
``engine``
    :class:`~repro.core.engine.TraceQueryEngine`, the high-level facade that
    wires a dataset, a measure, the hash family, the index and the searcher
    together.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.engine": ["EngineConfig", "TraceQueryEngine"],
        "repro.core.hashing": ["HierarchicalHashFamily"],
        "repro.core.join": ["JoinResult", "association_graph", "mutual_top_k_pairs", "top_k_join"],
        "repro.core.minsigtree": ["MinSigTree", "MinSigTreeNode"],
        "repro.core.query": ["QueryStats", "TopKResult", "TopKSearcher"],
        "repro.core.signatures": ["SignatureComputer"],
    },
)
