"""One experiment generator per figure of the paper's Chapter 7.

Every function returns an :class:`~repro.experiments.harness.ExperimentResult`
whose rows are the data series of the corresponding figure; the benchmarks in
``benchmarks/`` call these functions and print the tables, and EXPERIMENTS.md
records the observed shapes next to the paper's.

All generators accept a ``scale`` ("tiny" / "small" / "medium" or a
:class:`~repro.experiments.harness.Scale`); the default follows the
``REPRO_SCALE`` environment variable and falls back to "small".
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.distribution import adm_histogram, ajpi_duration_histogram, ajpi_entity_counts
from repro.analysis.pe import measure_pruning_effectiveness
from repro.analysis.pruning_model import PruningModel, PruningModelParams
from repro.baselines.brute_force import BruteForceTopK
from repro.baselines.cluster_bitmap import ClusterBitmapIndex
from repro.baselines.reference import reference_search
from repro.core.engine import TraceQueryEngine
from repro.core.query import TopKSearcher
from repro.experiments.harness import ExperimentResult, Scale, resolve_scale
from repro.experiments.workloads import sample_queries, syn_workload, wifi_workload
from repro.measures.adm import HierarchicalADM
from repro.mobility.im_model import IMModelParams
from repro.traces.dataset import TraceDataset
from repro.traces.events import CellSequence, PresenceInstance

__all__ = [
    "figure_7_1",
    "figure_7_2",
    "figure_7_3",
    "figure_7_4",
    "figure_7_5",
    "figure_7_6",
    "figure_7_7",
    "figure_7_8",
    "figure_7_9",
    "ablation_bound_mode",
    "ablation_grouping",
    "ablation_pruned_sets",
]

ScaleLike = Union[str, Scale, None]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _datasets(scale: Scale) -> Dict[str, TraceDataset]:
    """The two evaluation datasets, keyed by the paper's names."""
    return {"SYN": syn_workload(scale), "REAL(wifi)": wifi_workload(scale)}


def _build_engine(
    dataset: TraceDataset,
    num_hashes: int,
    measure: Optional[HierarchicalADM] = None,
    **config: object,
) -> TraceQueryEngine:
    engine = TraceQueryEngine(dataset, measure=measure, num_hashes=num_hashes, seed=1, **config)
    return engine.build()


def _copy_dataset(dataset: TraceDataset) -> TraceDataset:
    """A deep-enough copy for mutation experiments (shares the hierarchy)."""
    clone = TraceDataset(dataset.hierarchy, horizon=dataset.horizon)
    for entity in dataset.entities:
        clone.extend(dataset.trace(entity))
    return clone


def _estimate_kth_degree(
    dataset: TraceDataset,
    measure: HierarchicalADM,
    queries: Sequence[str],
    k: int,
) -> float:
    """Mean k-th best association degree over the queries (the ``d_e`` of 6.3)."""
    oracle = BruteForceTopK(dataset, measure)
    values: List[float] = []
    for entity in queries:
        result = oracle.search(entity, k)
        if result.scores:
            values.append(result.scores[min(k, len(result.scores)) - 1])
    return statistics.mean(values) if values else 0.0


# ----------------------------------------------------------------------
# Figure 7.1 -- data distribution
# ----------------------------------------------------------------------
def figure_7_1(
    scale: ScaleLike = None,
    duration_buckets: Sequence[int] = (0, 25, 50, 75),
) -> ExperimentResult:
    """AjPI entity counts per level and AjPI duration histograms (Figure 7.1).

    For each dataset and sp-index level, the mean number of entities forming
    at least one AjPI with a query entity (series ``ajpi_counts``) and the
    mean number of entities falling in each total-duration bucket (series
    ``ajpi_duration``).
    """
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.1 data distribution",
        metadata={"scale": resolved.name, "duration_buckets": tuple(duration_buckets)},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        queries = sample_queries(dataset, min(resolved.num_queries, 8))
        count_acc: Dict[int, List[int]] = {}
        duration_acc: Dict[Tuple[int, int], List[int]] = {}
        for query in queries:
            counts = ajpi_entity_counts(dataset, query)
            for level, count in counts.items():
                count_acc.setdefault(level, []).append(count)
            histogram = ajpi_duration_histogram(dataset, query, bucket_edges=duration_buckets)
            for level, buckets in histogram.items():
                for bucket_index, value in enumerate(buckets):
                    duration_acc.setdefault((level, bucket_index), []).append(value)
        for level in sorted(count_acc):
            result.add_row(
                series="ajpi_counts",
                dataset=dataset_name,
                level=level,
                entities=statistics.mean(count_acc[level]),
            )
        for (level, bucket_index), values in sorted(duration_acc.items()):
            result.add_row(
                series="ajpi_duration",
                dataset=dataset_name,
                level=level,
                duration_from=duration_buckets[bucket_index],
                entities=statistics.mean(values),
            )
    return result


# ----------------------------------------------------------------------
# Figure 7.2 -- association degree distribution
# ----------------------------------------------------------------------
def figure_7_2(
    scale: ScaleLike = None,
    parameter_pairs: Sequence[Tuple[float, float]] = ((2, 2), (2, 5), (5, 2), (5, 5)),
    bucket_width: float = 0.1,
) -> ExperimentResult:
    """Association degree histograms under different ADM parameters (Figure 7.2)."""
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.2 association degree distribution",
        metadata={"scale": resolved.name, "bucket_width": bucket_width},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        queries = sample_queries(dataset, min(resolved.num_queries, 8))
        for u, v in parameter_pairs:
            measure = HierarchicalADM(num_levels=dataset.num_levels, u=u, v=v)
            accumulator: Dict[int, List[int]] = {}
            edges: List[float] = []
            for query in queries:
                edges, counts = adm_histogram(dataset, query, measure, bucket_width=bucket_width)
                for bucket_index, count in enumerate(counts):
                    accumulator.setdefault(bucket_index, []).append(count)
            for bucket_index in sorted(accumulator):
                result.add_row(
                    dataset=dataset_name,
                    u=u,
                    v=v,
                    degree_from=edges[bucket_index],
                    entities=statistics.mean(accumulator[bucket_index]),
                )
    return result


# ----------------------------------------------------------------------
# Figure 7.3 -- PE vs number of hash functions (measured vs predicted)
# ----------------------------------------------------------------------
def figure_7_3(scale: ScaleLike = None, k: int = 10) -> ExperimentResult:
    """Measured and model-predicted pruning effectiveness vs ``n_h`` (Figure 7.3)."""
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.3 PE vs number of hash functions",
        metadata={"scale": resolved.name, "k": k},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        queries = sample_queries(dataset, resolved.num_queries)
        measure = HierarchicalADM(num_levels=dataset.num_levels)
        kth_degree = _estimate_kth_degree(dataset, measure, queries[:5], k)
        average_cells = max(1, int(round(dataset.average_cells_per_entity())))
        cells_distribution = tuple(
            len(dataset.cell_sequence(entity).base_cells) for entity in dataset.entities
        )
        # d_e -> n_c: for an entity matching the query on x of its C cells at
        # every level, the Equation 7.1 degree is approximately (x / C) ** v,
        # so the minimal shared-cell count is n_c ≈ C * d_e ** (1 / v).
        min_shared = max(1, int(round(average_cells * kth_degree ** (1.0 / measure.v))))
        for num_hashes in resolved.hash_sweep:
            engine = _build_engine(dataset, num_hashes, measure=measure)
            summary = measure_pruning_effectiveness(
                engine.top_k, queries, k=k, sample_size=resolved.num_queries
            )
            model = PruningModel(
                PruningModelParams(
                    universe_size=dataset.num_st_cells,
                    cells_per_entity=average_cells,
                    num_hashes=num_hashes,
                    min_shared_cells=min_shared,
                    cells_distribution=cells_distribution,
                )
            )
            result.add_row(
                dataset=dataset_name,
                num_hashes=num_hashes,
                measured_pe=summary.mean_pruning_effectiveness,
                predicted_pe=model.expected_pruning_effectiveness(),
                checked_fraction=summary.mean_checked_fraction,
            )
    return result


# ----------------------------------------------------------------------
# Figure 7.4 -- PE vs data characteristics
# ----------------------------------------------------------------------
_DEFAULT_SWEEPS: Dict[str, Tuple[float, ...]] = {
    "alpha": (0.3, 0.6, 1.0, 1.5, 2.0),
    "beta": (0.2, 0.4, 0.6, 0.8, 1.0),
    "rho": (0.2, 0.4, 0.6, 0.8, 1.0),
    "gamma": (0.1, 0.3, 0.5, 0.7, 0.9),
    "zeta": (0.4, 0.8, 1.2, 1.6, 2.0),
    "a": (1.0, 1.5, 2.0),
    "b": (1.0, 1.5, 2.0),
    "m": (3, 4, 5),
}


def figure_7_4(
    scale: ScaleLike = None,
    parameters: Optional[Iterable[str]] = None,
    sweeps: Optional[Dict[str, Tuple[float, ...]]] = None,
) -> ExperimentResult:
    """PE vs mobility-model and sp-index parameters on SYN data (Figure 7.4).

    One sub-figure per parameter (α, β, ρ, γ, ζ, a, b, m); every data point
    regenerates the SYN dataset with that single parameter changed and
    measures the checked fraction for Top-1/10/50 queries.
    """
    resolved = resolve_scale(scale)
    chosen = dict(_DEFAULT_SWEEPS if sweeps is None else sweeps)
    if parameters is not None:
        chosen = {name: chosen[name] for name in parameters}
    result = ExperimentResult(
        name="figure-7.4 PE vs data characteristics",
        metadata={"scale": resolved.name, "parameters": tuple(chosen)},
    )
    for parameter, values in chosen.items():
        for value in values:
            dataset = _syn_variant(resolved, parameter, value)
            engine = _build_engine(dataset, resolved.default_hashes)
            queries = sample_queries(dataset, resolved.num_queries)
            for k in resolved.k_values:
                summary = measure_pruning_effectiveness(engine.top_k, queries, k=k)
                result.add_row(
                    parameter=parameter,
                    value=value,
                    k=k,
                    checked_fraction=summary.mean_checked_fraction,
                    pe=summary.mean_pruning_effectiveness,
                )
    return result


def _syn_variant(scale: Scale, parameter: str, value: float) -> TraceDataset:
    """The SYN dataset with one hierarchical-IM parameter overridden."""
    im_fields = {"alpha", "beta", "gamma", "zeta", "rho"}
    if parameter in im_fields:
        params = IMModelParams(**{parameter: value})
        return syn_workload(scale, im_params=params)
    if parameter == "a":
        return syn_workload(scale, width_exponent=float(value))
    if parameter == "b":
        return syn_workload(scale, density_exponent=float(value))
    if parameter == "m":
        return syn_workload(scale, num_levels=int(value))
    raise ValueError(f"unknown figure-7.4 parameter {parameter!r}")


# ----------------------------------------------------------------------
# Figure 7.5 -- PE vs ADM parameters
# ----------------------------------------------------------------------
def figure_7_5(
    scale: ScaleLike = None,
    u_values: Sequence[float] = (2, 3, 4, 5),
    v_values: Sequence[float] = (2, 3, 4, 5),
    k: int = 10,
) -> ExperimentResult:
    """PE vs the ADM exponents ``u`` and ``v`` (Figure 7.5).

    The MinSigTree does not depend on the measure, so the index is built once
    per dataset and only the searcher's measure changes.
    """
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.5 PE vs ADM parameters",
        metadata={"scale": resolved.name, "k": k},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        engine = _build_engine(dataset, resolved.default_hashes)
        queries = sample_queries(dataset, resolved.num_queries)
        for u in u_values:
            for v in v_values:
                measure = HierarchicalADM(num_levels=dataset.num_levels, u=u, v=v)
                searcher = TopKSearcher(engine.tree, dataset, measure, engine.hash_family)
                summary = measure_pruning_effectiveness(searcher.search, queries, k=k)
                result.add_row(
                    dataset=dataset_name,
                    u=u,
                    v=v,
                    checked_fraction=summary.mean_checked_fraction,
                    pe=summary.mean_pruning_effectiveness,
                )
    return result


# ----------------------------------------------------------------------
# Figure 7.6 -- search time vs memory size
# ----------------------------------------------------------------------
# Simulated cost of one page access, in milliseconds: a read that misses the
# LRU (a few ms -- the spinning-disk-backed volume regime the paper's
# experiment explores) against one served from memory.
PAGE_MISS_MS = 4.0
PAGE_HIT_MS = 0.01
PAGE_BYTES = 4096


def _lru_misses(page_trace: Sequence[int], capacity: int) -> int:
    """Misses of ``page_trace`` replayed through a cold ``capacity``-page LRU."""
    resident: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    for page in page_trace:
        if page in resident:
            resident.move_to_end(page)
            continue
        misses += 1
        resident[page] = None
        if len(resident) > capacity:
            resident.popitem(last=False)
    return misses


def figure_7_6(
    scale: ScaleLike = None,
    memory_fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> ExperimentResult:
    """Simulated search time vs the fraction of the index held in memory (Figure 7.6).

    The layout is the one that serves: the compiled membership CSR
    (``ColumnarTree.member_indices``, entities in MinSigTree leaf order --
    the bytes a worker maps from a generation's ``columnar.npz``), cut into
    4 KiB pages from the start of the array.  Per ``(dataset, k)`` every
    query runs once through the oracle
    (:func:`~repro.baselines.reference.reference_search`, Algorithm 2's
    fetch-on-visit), whose ``sequence_fetcher`` hook records the pages of
    each scored entity's row; that one page trace is then replayed through
    a cold LRU at every memory fraction.  The serving kernel itself reads
    all ``metadata["pages"]`` pages per query -- docs/PERFORMANCE.md, "What
    one query reads".

    ``metadata["page_traces"]`` holds, per ``(dataset, k)``, the number of
    recorded fetches, the oracle's summed ``entities_scored`` and the
    distinct pages in the trace.
    """
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.6 search time vs memory size",
        metadata={"scale": resolved.name, "pages": {}, "page_traces": []},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        engine = _build_engine(dataset, resolved.default_hashes)
        compiled = engine.searcher.compiled_tree()
        members = compiled.member_indices
        # Byte offset of every entity's row: row ``slot`` is
        # ``row_bytes[slot]:row_bytes[slot + 1]``.
        row_bytes = (compiled.member_indptr[:: compiled.num_levels] * members.itemsize).tolist()
        slot_of = {entity: slot for slot, entity in enumerate(compiled.entity_order)}
        num_pages = -(-members.nbytes // PAGE_BYTES)
        result.metadata["pages"][dataset_name] = num_pages
        queries = sample_queries(dataset, min(resolved.num_queries, 10))
        page_traces: Dict[int, List[int]] = {}
        for k in resolved.k_values:
            fetched: List[str] = []
            page_trace = page_traces[k] = []

            def record(entity: str) -> CellSequence:
                fetched.append(entity)
                slot = slot_of[entity]
                page_trace.extend(
                    range(row_bytes[slot] // PAGE_BYTES, -(-row_bytes[slot + 1] // PAGE_BYTES))
                )
                return dataset.cell_sequence(entity)

            scored = sum(
                reference_search(
                    engine.searcher, query, k, sequence_fetcher=record
                ).stats.entities_scored
                for query in queries
            )
            result.metadata["page_traces"].append(
                {
                    "dataset": dataset_name,
                    "k": k,
                    "fetches": len(fetched),
                    "entities_scored": scored,
                    "distinct_pages": len(set(page_trace)),
                }
            )
        for fraction in memory_fractions:
            capacity = int(round(num_pages * fraction))
            for k, page_trace in page_traces.items():
                misses = _lru_misses(page_trace, capacity)
                hits = len(page_trace) - misses
                result.add_row(
                    dataset=dataset_name,
                    memory_fraction=fraction,
                    k=k,
                    simulated_ms=(misses * PAGE_MISS_MS + hits * PAGE_HIT_MS) / len(queries),
                    page_misses=misses,
                    page_hits=hits,
                )
    return result


# ----------------------------------------------------------------------
# Figure 7.7 -- PE vs result size, against the baseline
# ----------------------------------------------------------------------
def figure_7_7(
    scale: ScaleLike = None,
    k_values: Sequence[int] = (1, 10, 20, 30, 50, 70, 90),
) -> ExperimentResult:
    """PE vs result size ``k`` for two ``n_h`` settings and the bitmap baseline."""
    resolved = resolve_scale(scale)
    small_hashes = resolved.hash_sweep[len(resolved.hash_sweep) // 2]
    large_hashes = resolved.hash_sweep[-1]
    result = ExperimentResult(
        name="figure-7.7 PE vs result size",
        metadata={
            "scale": resolved.name,
            "small_hashes": small_hashes,
            "large_hashes": large_hashes,
        },
    )
    for dataset_name, dataset in _datasets(resolved).items():
        queries = sample_queries(dataset, resolved.num_queries)
        measure = HierarchicalADM(num_levels=dataset.num_levels)
        methods = {
            f"minsigtree-{small_hashes}": _build_engine(dataset, small_hashes, measure=measure).top_k,
            f"minsigtree-{large_hashes}": _build_engine(dataset, large_hashes, measure=measure).top_k,
            "cluster-bitmap": ClusterBitmapIndex(dataset, measure).build().search,
        }
        population = dataset.num_entities
        for method_name, search in methods.items():
            for k in k_values:
                if k >= population:
                    continue
                summary = measure_pruning_effectiveness(search, queries, k=k)
                result.add_row(
                    dataset=dataset_name,
                    method=method_name,
                    k=k,
                    pe=summary.mean_pruning_effectiveness,
                    checked_fraction=summary.mean_checked_fraction,
                )
    return result


# ----------------------------------------------------------------------
# Figure 7.8 -- indexing cost
# ----------------------------------------------------------------------
def figure_7_8(scale: ScaleLike = None) -> ExperimentResult:
    """Index construction time and index size vs ``n_h`` (Figure 7.8)."""
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.8 indexing cost",
        metadata={"scale": resolved.name},
    )
    for dataset_name, dataset in _datasets(resolved).items():
        # Materialise cell sequences and run one throwaway build up front:
        # the sweep should charge hashing and tree construction, not one-time
        # trace expansion or allocator warm-up (which would otherwise land
        # entirely on the first, smallest-n_h build).
        for entity in dataset.entities:
            dataset.cell_sequence(entity)
        _build_engine(dataset, resolved.hash_sweep[0])
        for num_hashes in resolved.hash_sweep:
            engine = _build_engine(dataset, num_hashes)
            result.add_row(
                dataset=dataset_name,
                num_hashes=num_hashes,
                indexing_seconds=engine.last_build_seconds,
                index_bytes=engine.index_size_bytes(),
                tree_nodes=engine.tree.num_nodes,
            )
    return result


# ----------------------------------------------------------------------
# Figure 7.9 -- update cost
# ----------------------------------------------------------------------
def figure_7_9(
    scale: ScaleLike = None,
    existing_fractions: Sequence[float] = (1.0, 0.7, 0.4),
    batch_fraction: float = 0.1,
) -> ExperimentResult:
    """Incremental update time vs ``n_h`` and the share of existing entities."""
    resolved = resolve_scale(scale)
    result = ExperimentResult(
        name="figure-7.9 update cost",
        metadata={"scale": resolved.name, "batch_fraction": batch_fraction},
    )
    base_dataset = syn_workload(resolved)
    batch_size = max(10, int(base_dataset.num_entities * batch_fraction))
    for num_hashes in resolved.hash_sweep:
        for existing_fraction in existing_fractions:
            dataset = _copy_dataset(base_dataset)
            engine = _build_engine(dataset, num_hashes)
            updates = _update_batch(dataset, batch_size, existing_fraction)
            started = time.perf_counter()
            engine.add_records(updates)
            elapsed = time.perf_counter() - started
            result.add_row(
                dataset="SYN",
                num_hashes=num_hashes,
                existing_fraction=existing_fraction,
                batch_size=batch_size,
                update_seconds=elapsed,
            )
    return result


def _update_batch(
    dataset: TraceDataset, batch_size: int, existing_fraction: float
) -> List[PresenceInstance]:
    """New presence records for a mix of existing and brand-new entities."""
    base_units = dataset.hierarchy.base_units
    horizon = max(dataset.horizon, 2)
    existing_count = int(round(batch_size * existing_fraction))
    entities = list(dataset.entities[:existing_count])
    entities += [f"new-entity-{index}" for index in range(batch_size - existing_count)]
    records: List[PresenceInstance] = []
    for index, entity in enumerate(entities):
        unit = base_units[(index * 7) % len(base_units)]
        start = (index * 13) % (horizon - 1)
        records.append(PresenceInstance(entity=entity, unit=unit, start=start, end=start + 1))
    return records


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def ablation_pruned_sets(scale: ScaleLike = None, k: int = 10) -> ExperimentResult:
    """Partial pruned sets (routing value only) vs full group-level signatures."""
    resolved = resolve_scale(scale)
    dataset = syn_workload(resolved)
    queries = sample_queries(dataset, resolved.num_queries)
    result = ExperimentResult(
        name="ablation: partial vs full pruned sets",
        metadata={"scale": resolved.name, "k": k},
    )
    engine = _build_engine(
        dataset, resolved.default_hashes, store_full_signatures=True
    )
    for mode, use_full in (("partial", False), ("full", True)):
        searcher = TopKSearcher(
            engine.tree, dataset, engine.measure, engine.hash_family,
            use_full_signatures=use_full,
        )
        summary = measure_pruning_effectiveness(searcher.search, queries, k=k)
        result.add_row(
            mode=mode,
            pe=summary.mean_pruning_effectiveness,
            checked_fraction=summary.mean_checked_fraction,
            index_bytes_full=engine.index_size_bytes(),
        )
    return result


def ablation_grouping(scale: ScaleLike = None, k: int = 10) -> ExperimentResult:
    """The paper's arg-max routing vs random routing of entities to children."""
    from repro.core.minsigtree import MinSigTree
    from repro.core.signatures import SignatureComputer

    resolved = resolve_scale(scale)
    dataset = syn_workload(resolved)
    queries = sample_queries(dataset, resolved.num_queries)
    result = ExperimentResult(
        name="ablation: arg-max vs random routing",
        metadata={"scale": resolved.name, "k": k},
    )
    engine = _build_engine(dataset, resolved.default_hashes)
    computer = SignatureComputer(engine.hash_family)
    signatures = computer.signatures_for_dataset(dataset)
    for strategy in ("argmax", "random"):
        tree = MinSigTree.build(
            signatures,
            num_levels=dataset.num_levels,
            num_hashes=resolved.default_hashes,
            routing_strategy=strategy,
        )
        searcher = TopKSearcher(tree, dataset, engine.measure, engine.hash_family)
        summary = measure_pruning_effectiveness(searcher.search, queries, k=k)
        result.add_row(
            routing=strategy,
            pe=summary.mean_pruning_effectiveness,
            checked_fraction=summary.mean_checked_fraction,
            tree_nodes=tree.num_nodes,
        )
    return result


def ablation_bound_mode(scale: ScaleLike = None, k: int = 10) -> ExperimentResult:
    """The paper's lifted Theorem 4 bound vs the per-level bound every engine uses.

    ``per_level`` runs through ``engine.top_k``; ``lift`` is not an upper
    bound, so no engine prunes with it, and its row comes from
    :func:`~repro.baselines.reference.reference_search` over the same index
    (the same items and counters the kernel produced under ``lift``).
    """
    resolved = resolve_scale(scale)
    dataset = syn_workload(resolved)
    queries = sample_queries(dataset, min(resolved.num_queries, 10))
    result = ExperimentResult(
        name="ablation: bound mode (lift vs per-level)",
        metadata={"scale": resolved.name, "k": k},
    )
    measure = HierarchicalADM(num_levels=dataset.num_levels)
    oracle = BruteForceTopK(dataset, measure)
    truth = {query: set(oracle.search(query, k).entities) for query in queries}
    engine = _build_engine(dataset, resolved.default_hashes, measure=measure)
    lift_search = functools.partial(reference_search, engine.searcher, bound_mode="lift")
    for mode, search in (("lift", lift_search), ("per_level", engine.top_k)):
        summary = measure_pruning_effectiveness(search, queries, k=k)
        recalls = []
        for query in queries:
            found = set(search(query, k).entities)
            expected = truth[query]
            recalls.append(len(found & expected) / len(expected) if expected else 1.0)
        result.add_row(
            bound_mode=mode,
            pe=summary.mean_pruning_effectiveness,
            checked_fraction=summary.mean_checked_fraction,
            mean_recall=statistics.mean(recalls),
        )
    return result
