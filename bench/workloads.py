"""The four benchmark workloads (see ``bench/README.md`` for why these four).

Each workload drives only the program's public surface -- the library API
for ``engine-scan``, the ``repro serve`` CLI and its HTTP endpoints for the
others -- checks every answer, and returns named metrics.  A run is either
*untraced* (the end-to-end ledger; set-up is repeated and its median
reported) or *traced* (an untraced half and a traced half of the timed
phase plus the layer probes of :mod:`layers`; the per-layer ledger).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import TraceQueryEngine
from repro.baselines.brute_force import BruteForceTopK
from repro.core.query import TopKResult
from repro.obs.exposition import parse_exposition
from repro.obs.trace import Tracer
from repro.server import protocol
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.streaming.wal import scan_wal
from repro.traces.events import PresenceInstance

from bench import inputs, layers
from bench.daemon import BenchError, Client, Daemon, peak_rss_mb, post, topk_body
from bench.stats import percentile, tail_percentile
from bench.trace import TraceLog

WORKLOADS = ("engine-scan", "serve-hot", "serve-workers", "ingest-mixed")
#: Share of ``engine-scan``'s timed phase spent on single queries; the rest
#: runs ``top_k_batch`` in batches of ``BATCH_QUERIES``.
SINGLE_SHARE = 0.75
BATCH_QUERIES = 16


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Phase:
    """Client-side samples of one timed phase."""

    latencies: List[float]  # seconds, correct replies only
    attempted: int
    failed: int
    wall: float
    cpu: float  # generator CPU seconds over the phase
    extra: Dict[str, float] = field(default_factory=dict)
    acked: int = 0  # event batches acknowledged (ingest-mixed)

    def metrics(self) -> Dict[str, float]:
        return {
            "query_p50_ms": percentile(self.latencies, 50) * 1e3,
            "query_qps": len(self.latencies) / self.wall,
            **in_ms({"query_p95_ms": tail_percentile(self.latencies, 95)}),
            **self.extra,
        }


def in_ms(seconds: Dict[str, Optional[float]]) -> Dict[str, float]:
    """Milliseconds of the entries that were measured (not ``None``)."""
    return {name: value * 1e3 for name, value in seconds.items() if value is not None}


class Context:
    """Inputs and scratch space shared by the workloads of one seed."""

    def __init__(
        self,
        seed: int,
        scale: inputs.Scale,
        workdir: Path,
        seconds: float,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.seconds = seconds
        started = time.perf_counter()
        self.dataset = inputs.generate_dataset(seed, scale)
        self.datagen_s = time.perf_counter() - started
        self._counter = itertools.count()
        self._split = None
        self._base_snapshot: Optional[Path] = None
        self.base_build_s = 0.0  # cold build time of the base snapshot's engine

    def rng(self, purpose: str) -> random.Random:
        """The generator for one purpose, derived from ``--seed`` alone."""
        return random.Random(f"{self.seed}/{purpose}")

    def scratch(self, name: str) -> Path:
        """A fresh directory under the per-run temp directory."""
        path = self.workdir / f"{name}{next(self._counter)}"
        path.mkdir(parents=True)
        return path

    def split(self):
        """``(base dataset, stream)``: the held-out event stream, cached."""
        if self._split is None:
            self._split = inputs.split_stream(self.dataset, self.scale.held_out)
        return self._split

    def base_snapshot(self) -> Path:
        """Snapshot of the index without the held-out stream, built once."""
        if self._base_snapshot is None:
            self._base_snapshot = self.scratch("S0")
            engine = build_engine(self.split()[0])
            self.base_build_s = engine.last_build_seconds
            engine.save(self._base_snapshot)
        return self._base_snapshot

    def expected_body(self, results: Sequence[TopKResult], batch: bool = False) -> bytes:
        """The bytes the daemon must answer: single form, or batch form."""
        entities = [result.query_entity for result in results]
        request = protocol.TopKRequest(entities=entities, k=inputs.K, batch=batch)
        return protocol.dumps(protocol.topk_payload(request, results))


def build_engine(dataset) -> TraceQueryEngine:
    """The engine as users get it, at the benchmark's signature width."""
    return TraceQueryEngine(dataset, num_hashes=inputs.NUM_HASHES).build()


def recall_at_k(engine: TraceQueryEngine, results: Sequence[TopKResult]) -> float:
    """Share of the brute-force top-k that ``results`` returned."""
    oracle = BruteForceTopK(engine.dataset, engine.measure, tie_break="entity")
    wanted = found = 0
    for result in results:
        truth = set(oracle.search(result.query_entity, inputs.K).entities)
        wanted += len(truth)
        found += len(truth & set(result.entities))
    return found / wanted if wanted else 1.0


def work_counts(results: Sequence[TopKResult]) -> Dict[str, float]:
    """Exact per-query index work, averaged over ``results``."""
    count = len(results)
    return {
        "core.nodes_visited": sum(r.stats.nodes_visited for r in results) / count,
        "core.bound_computations": sum(r.stats.bound_computations for r in results) / count,
        "core.entities_scored": sum(r.stats.entities_scored for r in results) / count,
        "core.checked_fraction": sum(r.stats.checked_fraction for r in results) / count,
    }


def restart_own_peak_rss() -> None:
    """Reset this process's peak-RSS counter to its current RSS (Linux).

    ``engine-scan`` reports the bench process's own peak; without the reset
    a run after other workloads or seeds (``--all``, ``--repeats``) would
    report theirs.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


# ----------------------------------------------------------------------
# engine-scan
# ----------------------------------------------------------------------
def engine_scan(ctx: Context, traced: bool, log: Optional[TraceLog]) -> Outcome:
    """Library, in-process, one thread: ``top_k`` then ``top_k_batch``."""
    outcome = Outcome()
    restart_own_peak_rss()
    sample = inputs.stratified_rounds(ctx.dataset, ctx.dataset.entities, ctx.rng("queries"))
    first = next(sample)
    setups = []
    for _ in range(1 if traced else ctx.scale.setups):
        dataset = inputs.cold_copy(ctx.dataset)
        started = time.perf_counter()
        engine = build_engine(dataset)
        first_result = engine.top_k(first, k=inputs.K)
        setups.append(time.perf_counter() - started)
    for entity in ctx.dataset.entities[:16]:
        engine.top_k(entity, k=inputs.K)  # warm-up: kernel compile, hot caches

    share = 0.5 if traced else 1.0
    answers: Dict[str, TopKResult] = {first: first_result}

    def single_phase(seconds: float, tracer: Optional[Tracer]) -> Phase:
        latencies = []
        cpu = time.process_time()
        phase_start = time.perf_counter()
        deadline = phase_start + seconds
        while time.perf_counter() < deadline:
            entity = next(sample)
            if tracer is None:
                started = time.perf_counter()
                result = engine.top_k(entity, k=inputs.K)
                latencies.append(time.perf_counter() - started)
            else:
                request = log.new_request()
                with log.span("engine.top_k", request) as span:
                    started = time.perf_counter()
                    active = tracer.start_trace("request.topk")
                    result = engine.top_k(entity, k=inputs.K, trace=active.context())
                    record = tracer.finish(active)
                    latencies.append(time.perf_counter() - started)
                log.adopt_program_trace(record, active.root.start, request, span.span_id)
            answers.setdefault(entity, result)
        wall = time.perf_counter() - phase_start
        return Phase(latencies, len(latencies), 0, wall, time.process_time() - cpu)

    single = single_phase(ctx.seconds * SINGLE_SHARE * share, None)

    batch_queries = 0
    batch_start = time.perf_counter()
    deadline = batch_start + ctx.seconds * (1.0 - SINGLE_SHARE) * share
    answered = list(answers)
    for offset in itertools.cycle(range(0, len(answered), BATCH_QUERIES)):
        if time.perf_counter() >= deadline:
            break
        entities = answered[offset : offset + BATCH_QUERIES]
        for result in engine.top_k_batch(entities, k=inputs.K, workers=0).results:
            if result.items != answers[result.query_entity].items:
                outcome.problems.append(
                    f"top_k_batch and top_k disagree on {result.query_entity}"
                )
        batch_queries += len(entities)
    batch_wall = time.perf_counter() - batch_start

    checked = [answers[entity] for entity in answered[: inputs.RECALL_SAMPLE]]
    outcome.metrics.update(single.metrics())
    outcome.metrics["batch_qps"] = batch_queries / batch_wall
    outcome.metrics["recall_at_k"] = recall_at_k(engine, checked)
    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.attempted = single.attempted + batch_queries
    outcome.failed = len(outcome.problems)
    outcome.facts.update(query_samples=len(single.latencies), batch_queries=batch_queries)

    if traced:
        tracer = Tracer(sample_rate=1.0, seed=ctx.seed)
        traced_phase = single_phase(ctx.seconds * SINGLE_SHARE * share, tracer)
        stages = log.mean_self_ms()
        outcome.metrics.update(
            {
                "core.batch_per_query_ms": batch_wall / batch_queries * 1e3,
                "core.bounds_ms": stages["kernel.bounds"],
                "core.traverse_ms": stages["kernel.traverse"],
                "core.scores_ms": stages["kernel.scores"],
                "core.merge_ms": stages["kernel.merge"],
                "obs.trace.overhead_ratio": percentile(traced_phase.latencies, 50)
                / percentile(single.latencies, 50),
                "bench.client_cpu_share": single.cpu / single.wall,
                **work_counts(list(answers.values())),
            }
        )
        outcome.metrics.update(layers.probe(ctx, engine, log, engine.last_build_seconds))
    outcome.metrics["peak_rss_mb"] = peak_rss_mb(os.getpid())
    return outcome


# ----------------------------------------------------------------------
# The daemon workloads
# ----------------------------------------------------------------------
Request = Tuple[str, bytes, Callable[[int, bytes], bool]]
#: ``(GET /v1/stats, parsed GET /metrics)`` read around a traced phase.
Reading = Tuple[dict, dict]


def topk_requests(entities: Sequence[str], expected: Dict[str, bytes]) -> Iterator[Request]:
    """Endless single-form top-k requests over ``entities``, answers checked."""
    for entity in itertools.cycle(entities):
        want = expected[entity]
        yield "/v1/topk", topk_body(entity, inputs.K), (
            lambda status, reply, want=want: status == 200 and reply == want
        )


def span_seconds(attempts: Sequence[Tuple[float, float, bool]]) -> float:
    """First start to last end of a client's attempts."""
    return max(end for _, end, _ in attempts) - min(start for start, _, _ in attempts)


def run_clients(readers: Sequence[Client], writer: Optional[Client] = None) -> Phase:
    """Start the clients together, wait for them, pool the readers' samples.

    A ``writer`` (``ingest-mixed``) adds the ingest metrics.
    """
    clients = [*readers, *([writer] if writer else [])]
    cpu = time.process_time()
    for client in clients:
        client.start()
    reads = [attempt for client in readers for attempt in client.finish()]
    acks = writer.finish() if writer else []
    cpu = time.process_time() - cpu
    latencies = [end - start for start, end, ok in reads if ok]
    ack_latencies = [end - start for start, end, ok in acks if ok]
    if not latencies or (writer and not ack_latencies):
        raise BenchError(
            f"the timed phase completed {len(latencies)} of {len(reads)} reads "
            f"and {len(ack_latencies)} of {len(acks)} writes"
        )
    attempted = len(reads) + len(acks)
    failed = attempted - len(latencies) - len(ack_latencies)
    phase = Phase(latencies, attempted, failed, span_seconds(reads), cpu)
    if writer:
        phase.extra = {
            "ingest_events_per_s": len(ack_latencies) * inputs.EVENT_BATCH / span_seconds(acks),
            **in_ms(
                {
                    "ingest_ack_p50_ms": percentile(ack_latencies, 50),
                    "ingest_ack_p90_ms": tail_percentile(ack_latencies, 90),
                }
            ),
        }
        phase.acked = len(ack_latencies)
    return phase


def post_once(daemon: Daemon, body: bytes) -> Tuple[int, bytes]:
    """One ``POST /v1/topk`` on a connection of its own."""
    connection = daemon.connect()
    try:
        return post(connection, "/v1/topk", body)
    finally:
        connection.close()


def read_ledger(daemon: Daemon) -> Reading:
    """The daemon's own counters and stage histograms, right now."""
    return daemon.stats(), parse_exposition(daemon.get("/metrics").decode("utf-8"))


@dataclass
class Session:
    """One daemon lifetime: spawn, first answer, warm-up, timed phase."""

    phase: Phase
    setups: List[float]
    peak_rss_mb: float
    before: Optional[Reading] = None
    after: Optional[Reading] = None


def daemon_session(
    ctx: Context,
    outcome: Outcome,
    flags: Sequence[str],
    first: Tuple[str, bytes],
    warm_up: Sequence[str],
    timed: Callable[[Daemon, float], Phase],
    seconds: float,
    repeats: int,
    traced: bool,
    verify: Optional[Callable[[Daemon, Phase], None]] = None,
) -> Session:
    """Run one measured daemon session (after ``repeats - 1`` set-up-only ones).

    Set-up is timed from the subprocess spawn to the first correct top-k
    answer.  ``verify`` runs against the live daemon after the timed phase.
    """
    if traced:
        flags = [*flags, "--trace-sample", "1.0"]
    setups = []
    entity, want = first
    for attempt in range(repeats):
        with Daemon(ctx.scratch("d"), flags) as daemon:
            status, reply = post_once(daemon, topk_body(entity, inputs.K))
            setups.append(time.perf_counter() - daemon.spawned_at)
            if status != 200 or reply != want:
                outcome.problems.append(f"first answer of a daemon was wrong ({status})")
            if attempt + 1 < repeats:
                continue
            # Warm-up is one batch-form request: it fills the result cache
            # and reaches every worker without a round trip per entity.
            post_once(daemon, topk_body(list(warm_up), inputs.K))
            before = read_ledger(daemon) if traced else None
            phase = timed(daemon, seconds)
            after = read_ledger(daemon) if traced else None
            # Read before ``verify``: its traffic is the harness's, not the workload's.
            peak_rss_mb = daemon.peak_rss_mb()
            if verify is not None:
                verify(daemon, phase)
            session = Session(phase, setups, peak_rss_mb, before, after)
    return session


def stage_means(before: dict, after: dict) -> Dict[str, Tuple[float, int]]:
    """``{stage: (mean seconds, count)}`` between two ``GET /metrics`` reads.

    Covers ``repro_stage_latency_seconds`` (keyed by stage name) and the
    request histograms (keyed ``http:/v1/topk``, ``http:/v1/events``).
    """

    def totals(families: dict) -> Dict[Tuple[str, str], float]:
        found = {}
        for family, label, prefix in (
            ("repro_stage_latency_seconds", "stage", ""),
            ("repro_request_latency_seconds", "endpoint", "http:"),
        ):
            for name, labels, value in families.get(family, {}).get("samples", ()):
                for suffix in ("_sum", "_count"):
                    if name.endswith(suffix):
                        found[(prefix + labels[label], suffix)] = value
        return found

    first, last = totals(before), totals(after)
    means = {}
    for (stage, suffix), value in last.items():
        count = value - first.get((stage, "_count"), 0.0)
        if suffix == "_count" and count > 0:
            total = last[(stage, "_sum")] - first.get((stage, "_sum"), 0.0)
            means[stage] = (total / count, int(count))
    return means


def daemon_layer_metrics(
    traced: Session, untraced: Phase, log: TraceLog, workers: int
) -> Dict[str, float]:
    """The daemon's stage ledger over a traced session's timed phase.

    Stage names are the program's own and are read as before/after deltas
    of ``GET /metrics`` and ``GET /v1/stats``, so this ledger and production
    metrics agree.  Which stages a request crosses follows from the daemon's
    flags -- with ``workers`` the worker tier and the kernel, without them
    the result cache (``serve-hot``, all hits) -- and a stage on that path
    the daemon no longer reports raises instead of reading as 0.
    """
    (stats_before, metrics_before), (stats_after, metrics_after) = traced.before, traced.after
    stages = stage_means(metrics_before, metrics_after)
    phase = traced.phase

    def mean(stage: str) -> float:
        if stage not in stages:
            raise BenchError(f"the daemon's /metrics recorded no {stage!r} stage in the timed phase")
        return stages[stage][0]

    def delta(section: str, key: str) -> float:
        return stats_after[section][key] - stats_before[section][key]

    chain = [
        ("http./v1/topk", mean("http:/v1/topk"), ()),
        ("request.topk", mean("request.topk"), ()),
        ("coalesce.wait", mean("coalesce.wait"), ()),
    ]
    handler_ms = mean("http:/v1/topk") * 1e3
    metrics = {
        "server.http.handler_ms": handler_ms,
        "server.http.wire_ms": statistics.fmean(phase.latencies) * 1e3 - handler_ms,
        "server.coalescer.wait_ms": (mean("coalesce.wait") - mean("coalesce.dispatch")) * 1e3,
        "server.coalescer.dispatch_ms": mean("coalesce.dispatch") * 1e3,
        "server.coalescer.mean_batch": delta("coalescer", "dispatched")
        / delta("coalescer", "batches"),
        "server.coalescer.rejected": delta("coalescer", "rejected"),
        "obs.trace.overhead_ratio": percentile(phase.latencies, 50)
        / percentile(untraced.latencies, 50),
        "bench.client_cpu_share": untraced.cpu / untraced.wall,
    }
    if workers:
        # kernel.scores runs inside kernel.traverse (see TraceLog.adopt_program_trace).
        kernel = {
            "bounds": mean("kernel.bounds"),
            "traverse": mean("kernel.traverse") - mean("kernel.scores"),
            "scores": mean("kernel.scores"),
            "merge": mean("kernel.merge"),
        }
        topk_mean, topk_count = mean("worker.topk"), stages["worker.topk"][1]
        chain += [
            ("coalesce.dispatch", mean("coalesce.dispatch"), ()),
            ("worker.request", mean("worker.request"), ()),
            (
                "worker.topk",
                topk_mean,
                [("worker.adopt", mean("worker.adopt"))]
                + [(f"kernel.{stage}", seconds) for stage, seconds in kernel.items()],
            ),
        ]
        metrics.update({f"core.{stage}_ms": seconds * 1e3 for stage, seconds in kernel.items()})
        metrics.update(
            {
                "server.workers.request_ms": mean("worker.request") * 1e3,
                "server.workers.topk_ms": topk_mean * 1e3,
                "server.workers.adopt_ms": mean("worker.adopt") * 1e3,
                "server.workers.busy_share": topk_mean * topk_count / (phase.wall * workers),
                "server.workers.retries": delta("workers", "retries"),
            }
        )
    else:
        chain.append(
            ("coalesce.dispatch", mean("coalesce.dispatch"), [("cache.lookup", mean("cache.lookup"))])
        )
        cache_before, cache_after = stats_before["engine"]["cache"], stats_after["engine"]["cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        metrics["service.cache.hit_rate"] = hits / (
            hits + cache_after["misses"] - cache_before["misses"]
        )
        metrics["service.cache.evictions"] = cache_after["evictions"] - cache_before["evictions"]
    if phase.acked:
        metrics["streaming.ingestor.events_dropped_late"] = delta("ingest", "events_dropped_late")
    log.add_mean_request(chain)
    return metrics


def finish_outcome(
    outcome: Outcome, session: Session, engine: TraceQueryEngine, checked: Sequence[TopKResult]
) -> None:
    """Fill the end-to-end metrics every daemon workload reports."""
    phase = session.phase
    outcome.metrics.update(phase.metrics())
    outcome.metrics["setup_s"] = statistics.median(session.setups)
    outcome.metrics["peak_rss_mb"] = session.peak_rss_mb
    outcome.metrics["recall_at_k"] = recall_at_k(engine, checked)
    outcome.attempted, outcome.failed = phase.attempted, phase.failed
    outcome.facts["query_samples"] = len(phase.latencies)


def serve_queries(
    ctx: Context,
    traced: bool,
    log: Optional[TraceLog],
    arguments: Sequence[str],
    workers: int,
    pool_size: int,
    plan: Callable[[List[str]], Tuple[Sequence[str], List[Sequence[str]]]],
) -> Outcome:
    """Shared body of ``serve-hot`` and ``serve-workers``.

    ``plan(pool)`` returns the warm-up entities and one entity sequence per
    client connection.
    """
    outcome = Outcome()
    engine = build_engine(inputs.cold_copy(ctx.dataset))
    snapshot = ctx.scratch("S")
    engine.save(snapshot)
    pool = inputs.distinct_sample(
        ctx.dataset, ctx.dataset.entities, pool_size, ctx.rng("queries")
    )
    started = time.perf_counter()
    results = engine.top_k_batch(pool, k=inputs.K, workers=0).results
    oracle_wall = time.perf_counter() - started
    expected = {result.query_entity: ctx.expected_body([result]) for result in results}
    warm_up, sequences = plan(pool)
    flags = ["--snapshot", str(snapshot.resolve()), *arguments]

    def timed(daemon: Daemon, seconds: float) -> Phase:
        deadline = time.perf_counter() + seconds
        return run_clients(
            [Client(daemon, topk_requests(sequence, expected), deadline) for sequence in sequences]
        )

    def session(seconds: float, repeats: int, trace: bool) -> Session:
        return daemon_session(
            ctx, outcome, flags, (pool[0], expected[pool[0]]), warm_up, timed, seconds, repeats, trace
        )

    share = 0.5 if traced else 1.0
    untraced = session(ctx.seconds * share, 1 if traced else ctx.scale.setups, False)
    finish_outcome(outcome, untraced, engine, results[: inputs.RECALL_SAMPLE])
    outcome.facts["clients"] = f"{len(sequences)} keep-alive connections, closed loop, no think time"
    if traced:
        outcome.metrics.update(
            daemon_layer_metrics(
                session(ctx.seconds * share, 1, True), untraced.phase, log, workers
            )
        )
        outcome.metrics.update(work_counts(results))
        outcome.metrics["core.batch_per_query_ms"] = oracle_wall / len(pool) * 1e3
        outcome.metrics.update(layers.probe(ctx, engine, log, engine.last_build_seconds))
    return outcome


def serve_hot(ctx: Context, traced: bool, log: Optional[TraceLog]) -> Outcome:
    """``repro serve --cache 1024``: Zipf(1.1) draws from a 64-entity hot set."""

    def plan(hot: List[str]):
        rng = ctx.rng("zipf")
        # Warm-up queries the whole hot set once: the cache is full before
        # the clock starts, so the timed phase measures hits.
        return hot, [inputs.zipf_draws(hot, 8192, rng) for _ in range(inputs.CLIENTS)]

    return serve_queries(ctx, traced, log, ["--cache", "1024"], 0, inputs.HOT_SET, plan)


def serve_workers(ctx: Context, traced: bool, log: Optional[TraceLog]) -> Outcome:
    """``repro serve --workers 2 --cache 0``: distinct entities, no sharing."""

    def plan(pool: List[str]):
        # Warm-up reaches both workers, so each has adopted the generation
        # and loaded its kernel before the clock starts.
        return pool[-8:], [pool[index :: inputs.CLIENTS] for index in range(inputs.CLIENTS)]

    # The generation store is named (relative to the daemon's cwd): the
    # default is a directory under /tmp, outside the checkout.
    arguments = ["--workers", str(inputs.CLIENTS), "--cache", "0", "--store", "store"]
    return serve_queries(ctx, traced, log, arguments, inputs.CLIENTS, ctx.scale.pool, plan)


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------
def ingest_mixed(ctx: Context, traced: bool, log: Optional[TraceLog]) -> Outcome:
    """One writer posting flushed 64-event batches back to back beside one reader."""
    outcome = Outcome()
    base, stream = ctx.split()
    batches = inputs.event_batches(stream)[: -inputs.PROBE_BATCHES]
    snapshot = ctx.base_snapshot()
    readers = inputs.distinct_sample(base, base.entities, ctx.scale.pool, ctx.rng("queries"))
    # Relative to the daemon's cwd, so every session gets its own log and store.
    flags = ["--snapshot", str(snapshot.resolve()), "--workers", "1", "--wal", "wal",
             "--store", "store", "--batch-size", str(inputs.EVENT_BATCH)]

    def acked(status: int, reply: bytes) -> bool:
        if status != 200:
            return False
        document = json.loads(reply)
        return (
            document["accepted"] == inputs.EVENT_BATCH
            and document["flushed_events"] == inputs.EVENT_BATCH
            and document["dropped_late"] == 0
        )

    def event_requests() -> Iterator[Request]:
        for batch in batches:
            yield "/v1/events", json.dumps({"events": batch, "flush": True}).encode("utf-8"), acked

    def reader_requests() -> Iterator[Request]:
        for entity in itertools.cycle(readers):
            prefix = b'{"query":' + json.dumps(entity).encode("utf-8") + b',"results":['
            yield "/v1/topk", topk_body(entity, inputs.K), (
                lambda status, reply, prefix=prefix: status == 200 and reply.startswith(prefix)
            )

    def timed(daemon: Daemon, seconds: float) -> Phase:
        done = threading.Event()
        deadline = time.perf_counter() + seconds
        writer = Client(daemon, event_requests(), deadline, on_done=done.set)
        return run_clients([Client(daemon, reader_requests(), deadline, stop=done)], writer)

    # The index the daemon starts from: the first answer, ``recall_at_k`` and
    # the work counts are scored on it, so they repeat exactly for a seed
    # however many batches a run gets acknowledged.
    start = TraceQueryEngine.load(snapshot)
    checked = readers[: inputs.RECALL_SAMPLE]
    start_results = start.top_k_batch(checked, k=inputs.K, workers=0).results

    def answers(body: bytes) -> list:
        return [
            {key: value for key, value in result.items() if key != "stats"}
            for result in json.loads(body)["results"]
        ]

    def verify(daemon: Daemon, phase: Phase) -> None:
        # The oracle: an in-process engine over the same snapshot that
        # ingests exactly the acked events.  It flushes them once where the
        # daemon flushed per batch, so the trees differ in shape and the
        # replies in their work counters (``stats``); everything else --
        # entities, scores, order -- must be identical.
        oracle = TraceQueryEngine.load(snapshot)
        events = [PresenceInstance(**event) for batch in batches[: phase.acked] for event in batch]
        EventIngestor(oracle, StreamingConfig(max_batch_events=len(events))).ingest_batch(events)
        final = oracle.top_k_batch(checked, k=inputs.K, workers=0).results
        status, reply = post_once(daemon, topk_body(checked, inputs.K))
        if status != 200 or answers(reply) != answers(ctx.expected_body(final, batch=True)):
            outcome.problems.append(
                f"after the last ack the daemon's answers ({status}) differ from an "
                "in-process engine that ingested the same events"
            )
        report = scan_wal(daemon.workdir / "wal")
        if report.corrupt or (report.total_records, report.total_events) != (
            phase.acked, len(events)
        ):
            outcome.problems.append(
                f"the WAL holds {report.total_records} records / {report.total_events} "
                f"events; {phase.acked} batches / {len(events)} events were acked"
            )

    def session(seconds: float, repeats: int, trace: bool) -> Session:
        # The traced session repeats a phase the untraced one already verified.
        return daemon_session(
            ctx, outcome, flags, (readers[0], ctx.expected_body(start_results[:1])), readers[-8:],
            timed, seconds, repeats, trace, None if trace else verify,
        )

    share = 0.5 if traced else 1.0
    untraced = session(ctx.seconds * share, 1 if traced else ctx.scale.setups, False)
    finish_outcome(outcome, untraced, start, start_results)
    outcome.facts.update(
        ack_samples=untraced.phase.acked,
        clients="1 writer + 1 reader keep-alive connection, closed loop, back to back",
    )
    if traced:
        outcome.metrics.update(
            daemon_layer_metrics(session(ctx.seconds * share, 1, True), untraced.phase, log, 1)
        )
        outcome.metrics.update(work_counts(start_results))
        outcome.metrics.update(layers.probe(ctx, start, log, ctx.base_build_s))
    return outcome


RUNNERS: Dict[str, Callable[[Context, bool, Optional[TraceLog]], Outcome]] = {
    "engine-scan": engine_scan,
    "serve-hot": serve_hot,
    "serve-workers": serve_workers,
    "ingest-mixed": ingest_mixed,
}
