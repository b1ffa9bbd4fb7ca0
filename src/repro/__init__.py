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

from repro.core.engine import EngineConfig, ExpiryReport, TraceQueryEngine
from repro.core.hashing import HierarchicalHashFamily
from repro.core.join import association_graph, mutual_top_k_pairs, top_k_join
from repro.core.minsigtree import MinSigTree
from repro.core.query import BatchTopKResult, TopKResult, TopKSearcher
from repro.core.signatures import SignatureComputer
from repro.service import (
    HashPartitioner,
    QueryResultCache,
    RoundRobinPartitioner,
    ShardedEngine,
)
from repro.measures import (
    AssociationMeasure,
    DiceADM,
    ExampleDiceADM,
    FScoreADM,
    HierarchicalADM,
    JaccardADM,
    OverlapADM,
)
from repro.streaming import (
    EventIngestor,
    SlidingWindow,
    StreamingConfig,
    replay_events,
)
from repro.traces import (
    CellSequence,
    PresenceInstance,
    STCell,
    SpatialHierarchy,
    TraceDataset,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationMeasure",
    "BatchTopKResult",
    "CellSequence",
    "DiceADM",
    "EngineConfig",
    "EventIngestor",
    "ExampleDiceADM",
    "ExpiryReport",
    "FScoreADM",
    "HierarchicalADM",
    "HashPartitioner",
    "HierarchicalHashFamily",
    "JaccardADM",
    "MinSigTree",
    "OverlapADM",
    "PresenceInstance",
    "QueryResultCache",
    "RoundRobinPartitioner",
    "STCell",
    "ShardedEngine",
    "SignatureComputer",
    "SlidingWindow",
    "SpatialHierarchy",
    "StreamingConfig",
    "TopKResult",
    "TopKSearcher",
    "TraceDataset",
    "TraceQueryEngine",
    "__version__",
    "association_graph",
    "mutual_top_k_pairs",
    "replay_events",
    "top_k_join",
]
