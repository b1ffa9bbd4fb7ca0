"""Replay scenarios against backends and score them.

The runner's contract is simple but strict: for every scenario, every
backend must return **exactly** the brute-force oracle's top-k -- same
entities, same order, same scores (to float tolerance) -- on every query.
Accuracy below 1.0 is a correctness bug somewhere in the index, streaming,
serving, or serialisation stack, never acceptable noise: every engine
searches with an admissible bound (see :mod:`repro.scenarios.corpus`).

Ground truth is computed *without* replaying the engine machinery, so it
cannot inherit an engine bug.  For a windowed churn scenario the final
retained records are exactly::

    {r in initial + churn : r.end > max(event.end) - window}

because the stream watermark equals the largest submitted event end, flush
drops late events with ``end <= watermark - window`` before they are
indexed, and the sliding window monotonically expires indexed records by
the same predicate -- so the final state is independent of micro-batch
boundaries.  The oracle builds that final dataset directly and scans it
with :class:`~repro.baselines.brute_force.BruteForceTopK` under the
``tie_break="entity"`` total order (the searcher's documented tie-break).

Latency is recorded client-side into the same
:class:`~repro.server.metrics.LatencyHistogram` buckets the serving tier
exports (:data:`repro.obs.trace.LATENCY_BUCKETS`), with percentiles
interpolated by :func:`repro.obs.histogram_percentile` -- so scenario
reports and ``/metrics`` scrapes speak the same latency language.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.brute_force import BruteForceTopK
from repro.experiments.workloads import sample_queries
from repro.measures.adm import HierarchicalADM
from repro.obs import histogram_percentile
from repro.scenarios.backends import DEFAULT_BACKENDS, make_backend
from repro.scenarios.corpus import iter_scenarios
from repro.scenarios.generators import build_churn_events, build_dataset
from repro.scenarios.report import REPORT_VERSION
from repro.scenarios.spec import ScenarioSpec
from repro.server.metrics import LatencyHistogram
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance

__all__ = ["GroundTruth", "run_scenario", "run_scenarios"]

#: Relative tolerance for score agreement.  Scores cross one JSON
#: round-trip on the HTTP backends (exact for finite floats) and are
#: otherwise produced by the same arithmetic, so this is generous.
SCORE_RTOL = 1e-9

#: Cap on per-backend mismatch examples embedded in a report.
MAX_MISMATCH_EXAMPLES = 5

Progress = Optional[Callable[[str], None]]


class GroundTruth:
    """The oracle's view of one scenario at one run mode.

    Attributes
    ----------
    events:
        The churn stream (shared verbatim by every backend).
    queries:
        The sampled query entities (drawn from the *final* dataset, so
        every query exists on every backend after replay).
    expected:
        Per-query exact top-k ``(entity, score)`` lists from the
        brute-force scan of the final dataset.
    initial_entities / final_entities:
        Dataset population before churn and after churn + window expiry.
    """

    def __init__(self, spec: ScenarioSpec, smoke: bool) -> None:
        dataset = build_dataset(spec.dataset.generator, spec.dataset.resolve(smoke))
        self.initial_entities = dataset.num_entities
        # Events are derived from the pristine initial dataset (generators
        # sample entities/units from it), *before* the oracle mutates it.
        self.events: List[PresenceInstance] = build_churn_events(
            spec.churn.generator, dataset, spec.churn.resolve(smoke)
        )
        self._final = self._final_dataset(dataset, spec)
        self.final_entities = self._final.num_entities
        count = spec.queries.resolve_count(smoke)
        self.queries: List[str] = sample_queries(
            self._final, count, seed=spec.queries.seed
        )
        measure = HierarchicalADM(
            num_levels=self._final.num_levels, u=spec.engine.u, v=spec.engine.v
        )
        oracle = BruteForceTopK(self._final, measure, tie_break="entity")
        self.expected: Dict[str, List[Tuple[str, float]]] = {
            entity: list(oracle.search(entity, k=spec.queries.k).items)
            for entity in self.queries
        }

    def _final_dataset(self, dataset: TraceDataset, spec: ScenarioSpec) -> TraceDataset:
        """Apply the batching-independent final-state rule in place."""
        for event in self.events:
            dataset.add_record(
                event.entity, event.unit, event.start, duration=event.end - event.start
            )
        if self.events and spec.churn.window is not None:
            watermark = max(event.end for event in self.events)
            cutoff = watermark - spec.churn.window
            if cutoff >= 1:
                dataset.expire_before(cutoff)
        return dataset


def _chunks(
    events: Sequence[PresenceInstance], size: int
) -> List[Sequence[PresenceInstance]]:
    return [events[index : index + size] for index in range(0, len(events), size)]


def _items_match(
    got: Sequence[Tuple[str, float]], expected: Sequence[Tuple[str, float]]
) -> bool:
    """Exact ranked agreement: same entities in order, scores to tolerance."""
    if len(got) != len(expected):
        return False
    for (got_entity, got_score), (want_entity, want_score) in zip(got, expected):
        if got_entity != want_entity:
            return False
        if not math.isclose(got_score, want_score, rel_tol=SCORE_RTOL, abs_tol=1e-12):
            return False
    return True


def _latency_section(histogram: LatencyHistogram) -> Dict[str, object]:
    """The report's latency block, in milliseconds (serving-tier buckets)."""
    counts = histogram.bucket_counts

    def percentile(quantile: float) -> Optional[float]:
        seconds = histogram_percentile(counts, quantile)
        if seconds is None or seconds == float("inf"):
            return None
        return round(seconds * 1000.0, 3)

    return {
        "count": histogram.count,
        "mean_ms": round(histogram.mean_seconds * 1000.0, 3) if histogram.count else None,
        "max_ms": round(histogram.max_seconds * 1000.0, 3) if histogram.count else None,
        "p50_ms": percentile(0.50),
        "p95_ms": percentile(0.95),
        "p99_ms": percentile(0.99),
    }


def _run_backend(
    spec: ScenarioSpec,
    backend_name: str,
    truth: GroundTruth,
    smoke: bool,
) -> Dict[str, object]:
    """Replay one scenario on one backend and score it against the oracle."""
    dataset = build_dataset(spec.dataset.generator, spec.dataset.resolve(smoke))
    backend = make_backend(backend_name)
    histogram = LatencyHistogram()
    mismatches: List[Dict[str, object]] = []
    exact = 0
    try:
        backend.start(dataset, spec.engine, spec.churn)
        for chunk in _chunks(truth.events, spec.churn.batch_size):
            backend.ingest(chunk)
        for entity in truth.queries:
            started = time.perf_counter()
            got = backend.query(entity, spec.queries.k)
            histogram.observe(time.perf_counter() - started)
            expected = truth.expected[entity]
            if _items_match(got, expected):
                exact += 1
            elif len(mismatches) < MAX_MISMATCH_EXAMPLES:
                mismatches.append(
                    {
                        "query": entity,
                        "expected": [[e, s] for e, s in expected],
                        "got": [[e, s] for e, s in got],
                    }
                )
        stats = backend.stats()
    finally:
        backend.close()

    total = len(truth.queries)
    return {
        "backend": backend_name,
        "accuracy": {
            "queries": total,
            "exact": exact,
            "exact_fraction": (exact / total) if total else 1.0,
            "mismatches": mismatches,
        },
        "latency": _latency_section(histogram),
        "stats": stats,
        "passed": exact == total,
    }


def run_scenario(
    spec: ScenarioSpec,
    backends: Sequence[str],
    smoke: bool = False,
    progress: Progress = None,
) -> Dict[str, object]:
    """Run one scenario on every requested backend; returns its report entry."""
    emit = progress or (lambda message: None)
    emit(f"scenario {spec.name}: computing ground truth")
    truth = GroundTruth(spec, smoke)
    emit(
        f"scenario {spec.name}: {truth.final_entities} entities, "
        f"{len(truth.events)} churn events, {len(truth.queries)} queries"
    )
    backend_entries: List[Dict[str, object]] = []
    for backend_name in backends:
        emit(f"scenario {spec.name}: replaying on {backend_name}")
        entry = _run_backend(spec, backend_name, truth, smoke)
        accuracy = entry["accuracy"]
        emit(
            f"scenario {spec.name}: {backend_name} "
            f"{accuracy['exact']}/{accuracy['queries']} exact"
        )
        backend_entries.append(entry)
    return {
        "name": spec.name,
        "title": spec.title,
        "tags": list(spec.tags),
        "hostile": spec.hostile,
        "spec": spec.to_dict(),
        "dataset": {
            "initial_entities": truth.initial_entities,
            "final_entities": truth.final_entities,
            "churn_events": len(truth.events),
        },
        "queries": {"count": len(truth.queries), "k": spec.queries.k},
        "backends": backend_entries,
        "passed": all(entry["passed"] for entry in backend_entries),
    }


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    smoke: bool = False,
    progress: Progress = None,
) -> Dict[str, object]:
    """Run a scenario selection and assemble the full report document.

    ``names=None`` runs the whole bundled corpus; ``backends=None`` uses
    :data:`~repro.scenarios.backends.DEFAULT_BACKENDS`.  The returned
    document validates against
    :func:`repro.scenarios.report.validate_report`.
    """
    specs = iter_scenarios(names)
    backend_names = list(backends) if backends else list(DEFAULT_BACKENDS)
    scenario_entries = [
        run_scenario(spec, backend_names, smoke=smoke, progress=progress)
        for spec in specs
    ]
    total_queries = 0
    total_exact = 0
    for entry in scenario_entries:
        for backend_entry in entry["backends"]:
            total_queries += backend_entry["accuracy"]["queries"]
            total_exact += backend_entry["accuracy"]["exact"]
    return {
        "version": REPORT_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": smoke,
        "backends": backend_names,
        "scenarios": scenario_entries,
        "summary": {
            "scenarios": len(scenario_entries),
            "scenarios_passed": sum(1 for entry in scenario_entries if entry["passed"]),
            "queries": total_queries,
            "exact": total_exact,
            "all_passed": all(entry["passed"] for entry in scenario_entries),
        },
    }
