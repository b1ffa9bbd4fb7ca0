"""Top-k queries over digital traces.

A faithful, laptop-scale reproduction of "Top-k Queries over Digital Traces"
(SIGMOD 2019): the MinSigTree index, hierarchical MinHash signatures, generic
association degree measures, a hierarchical individual-mobility model for
synthetic data, baselines, and the full evaluation harness.

Quickstart::

    from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine

    hierarchy = SpatialHierarchy.regular([2, 3, 4])   # 3-level sp-index
    dataset = TraceDataset(hierarchy, horizon=24)
    dataset.add_record("alice", "u3_0_0_0", time=9, duration=2)
    dataset.add_record("bob", "u3_0_0_0", time=9, duration=2)
    engine = TraceQueryEngine(dataset, num_hashes=64).build()
    print(engine.top_k("alice", k=1).entities)
"""

from repro._lazy import lazy_exports

__version__ = "0.1.0"

# Resolved on first access: ``import repro`` imports no subsystem (nor numpy).
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.engine": ["EngineConfig", "ExpiryReport", "TraceQueryEngine"],
        "repro.core.hashing": ["HierarchicalHashFamily"],
        "repro.core.join": ["association_graph", "mutual_top_k_pairs", "top_k_join"],
        "repro.core.minsigtree": ["MinSigTree"],
        "repro.core.query": ["BatchTopKResult", "TopKResult", "TopKSearcher"],
        "repro.core.signatures": ["SignatureComputer"],
        "repro.service.cache": ["QueryResultCache"],
        "repro.service.sharded": ["ShardedEngine"],
        "repro.measures.adm": ["ExampleDiceADM", "HierarchicalADM"],
        "repro.measures.base": ["AssociationMeasure"],
        "repro.measures.setsim": ["DiceADM", "FScoreADM", "JaccardADM", "OverlapADM"],
        "repro.streaming.ingestor": ["EventIngestor", "StreamingConfig"],
        "repro.streaming.replay": ["replay_events"],
        "repro.streaming.window": ["SlidingWindow"],
        "repro.traces.dataset": ["TraceDataset"],
        "repro.traces.events": ["CellSequence", "PresenceInstance", "STCell"],
        "repro.traces.spatial": ["SpatialHierarchy"],
    },
)
__all__ = sorted([*__all__, "__version__"])
