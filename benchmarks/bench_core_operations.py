"""Micro-benchmarks of the core operations (not tied to a specific figure).

These measure the building blocks whose costs the paper's Section 4.3 / 6.4
analysis is about: signature computation, MinSigTree construction, a single
top-k query, batched top-k throughput, a single incremental update, and the
brute-force scan they are all compared against.
"""

import pytest

from repro.baselines import BruteForceTopK
from repro.core.engine import TraceQueryEngine
from repro.core.minsigtree import MinSigTree
from repro.core.signatures import SignatureComputer
from repro.experiments.workloads import sample_queries, syn_workload
from repro.traces.events import PresenceInstance

from conftest import benchmark_scale


@pytest.fixture(scope="module")
def dataset():
    return syn_workload(benchmark_scale())


@pytest.fixture(scope="module")
def engine(dataset):
    scale = benchmark_scale()
    return TraceQueryEngine(dataset, num_hashes=scale.default_hashes, seed=1).build()


def test_signature_computation(benchmark, dataset, engine):
    computer = SignatureComputer(engine.hash_family)
    entity = dataset.entities[0]
    sequence = dataset.cell_sequence(entity)
    benchmark(computer.signature_matrix, sequence)


def test_minsigtree_build(benchmark, dataset, engine):
    computer = SignatureComputer(engine.hash_family)
    signatures = computer.signatures_for_dataset(dataset)
    benchmark.pedantic(
        MinSigTree.build,
        args=(signatures,),
        kwargs=dict(num_levels=dataset.num_levels, num_hashes=engine.config.num_hashes),
        rounds=3,
        iterations=1,
    )


def test_top_k_query(benchmark, dataset, engine):
    query = dataset.entities[len(dataset.entities) // 2]
    benchmark(engine.top_k, query, 10)


def test_batch_query_throughput(benchmark, dataset, engine):
    """Batched top-k over the shared executor (serial fan-out)."""
    queries = sample_queries(dataset, benchmark_scale().num_queries)
    benchmark.pedantic(engine.top_k_batch, args=(queries, 10), rounds=3, iterations=1)


def test_batch_query_throughput_workers(benchmark, dataset, engine):
    """Batched top-k with thread fan-out (results identical to serial)."""
    queries = sample_queries(dataset, benchmark_scale().num_queries)
    benchmark.pedantic(
        lambda: engine.top_k_batch(queries, 10, workers=4), rounds=3, iterations=1
    )


def test_brute_force_query(benchmark, dataset, engine):
    oracle = BruteForceTopK(dataset, engine.measure)
    query = dataset.entities[len(dataset.entities) // 2]
    benchmark(oracle.search, query, 10)


def test_incremental_update(benchmark, dataset, engine):
    base_unit = dataset.hierarchy.base_units[0]
    counter = iter(range(10_000_000))

    def update_once():
        entity = f"bench-new-{next(counter)}"
        engine.add_records([PresenceInstance(entity, base_unit, 0, 1)])

    benchmark.pedantic(update_once, rounds=20, iterations=1)
