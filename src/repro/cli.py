"""Command-line interface: generate data, build/serve indexes, run queries.

The CLI covers the end-to-end workflow a practitioner needs without writing
Python::

    # Generate a synthetic city and its sp-index
    python -m repro generate syn --entities 500 --output traces.csv \
        --hierarchy hierarchy.json

    # Summarise a trace file
    python -m repro stats --traces traces.csv --hierarchy hierarchy.json

    # Build a durable snapshot index (optionally sharded)
    python -m repro index build --traces traces.csv --hierarchy hierarchy.json \
        --output snapshot/ --num-hashes 256
    python -m repro index info --snapshot snapshot/

    # Who is most associated with syn-17?  (ad-hoc build from the CSV)
    python -m repro query --traces traces.csv --hierarchy hierarchy.json \
        --entity syn-17 --k 10 --num-hashes 256

    # Same query served from the snapshot -- no re-signing on start-up
    python -m repro query --snapshot snapshot/ --entity syn-17 --k 10

    # Sharded serving: partition entities over 4 shard indexes
    python -m repro query --traces traces.csv --hierarchy hierarchy.json \
        --entity syn-17 --shards 4

    # Batch mode: many queries over one index, optionally fanned out over
    # worker threads, with an aggregate throughput/pruning report
    python -m repro query --traces traces.csv --hierarchy hierarchy.json \
        --batch syn-17 syn-4 syn-23 --workers 4 --k 10

    # Replay the trace file as a live event stream: micro-batched ingestion,
    # a sliding window, and interleaved top-k queries served throughout
    python -m repro stream --traces traces.csv --hierarchy hierarchy.json \
        --batch-size 64 --window 48 --query-every 200 --queries syn-17 syn-4

    # Serve the snapshot over HTTP: coalesced top-k queries, streamed event
    # ingest, health and stats endpoints (see docs/SERVING.md)
    python -m repro serve --snapshot snapshot/ --port 8080

    # Observability (see docs/OBSERVABILITY.md): trace every request into
    # the slow-query log, watch live QPS/latency, print slow traces
    python -m repro serve --snapshot snapshot/ --trace-sample 1.0
    python -m repro stats --watch 5 --url http://127.0.0.1:8080
    python -m repro trace --url http://127.0.0.1:8080 --limit 3

    # Regenerate one of the paper's figures
    python -m repro figures --only 7.3 --scale tiny

Every subcommand is also importable (``repro.cli.main``) so tests drive it
in-process.  Exit codes: 0 on success, 2 on usage or data errors (unknown
entities, malformed/empty inputs, invalid option combinations); see
``docs/CLI.md`` for the full contract.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import TraceQueryEngine
from repro.measures.adm import HierarchicalADM
from repro.service.sharded import SHARDED_SNAPSHOT_FORMAT, ShardedEngine, load_snapshot

__all__ = ["main", "build_parser"]

_DEFAULT_NUM_HASHES = 256
_DEFAULT_SEED = 0
_DEFAULT_U = 2.0
_DEFAULT_V = 2.0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k queries over digital traces: data generation, indexing, querying.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic trace dataset and its sp-index"
    )
    generate.add_argument("kind", choices=["syn", "wifi"], help="generator to use")
    generate.add_argument("--entities", type=int, default=300, help="number of entities/devices")
    generate.add_argument("--horizon", type=int, default=168, help="horizon in base temporal units")
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument("--output", required=True, help="CSV file to write the traces to")
    generate.add_argument("--hierarchy", required=True, help="JSON file to write the sp-index to")

    stats = subparsers.add_parser(
        "stats", help="summarise a trace dataset, or watch a live serving daemon"
    )
    _add_dataset_arguments(stats, required=False)
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECS",
        help="poll a serving daemon's /v1/stats every SECS seconds and print "
        "one line per interval (QPS, p50/p95 latency, cache hit rate, ingest "
        "lag) instead of summarising a trace file",
    )
    stats.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="server base URL for --watch (default http://127.0.0.1:8080)",
    )
    stats.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop --watch after this many intervals (0 = until interrupted)",
    )

    query = subparsers.add_parser("query", help="run top-k queries against a trace dataset")
    _add_dataset_arguments(query, required=False)
    query.add_argument(
        "--snapshot",
        help="snapshot directory to serve from (mutually exclusive with --traces/--hierarchy)",
    )
    query.add_argument("--entity", help="query entity identifier (single-query mode)")
    query.add_argument(
        "--batch",
        nargs="+",
        metavar="ENTITY",
        help="query entity identifiers (batch mode; mutually exclusive with --entity)",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker threads for batch fan-out (0 = serial)",
    )
    query.add_argument("--k", type=int, default=10, help="number of results")
    query.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve through a sharded engine with this many entity partitions (0 = single engine)",
    )
    _add_index_arguments(query, defaults=False)
    query.add_argument(
        "--approximation",
        type=float,
        default=0.0,
        help="additive slack for approximate top-k (0 = exact)",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="print the query's span tree (kernel stage timings and pruning "
        "counters) after the results; --entity mode only",
    )

    index = subparsers.add_parser("index", help="build and inspect durable snapshot indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build", help="build an index from a trace file and snapshot it to disk"
    )
    _add_dataset_arguments(index_build)
    index_build.add_argument("--output", required=True, help="snapshot directory to write")
    index_build.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="base temporal units the hash range must cover (default: derived "
        "from the traces; over-provision it when the snapshot will serve "
        "streamed events later than its history)",
    )
    index_build.add_argument(
        "--shards",
        type=int,
        default=0,
        help="build a sharded index with this many entity partitions (0 = single engine)",
    )
    _add_index_arguments(index_build, defaults=True)

    index_info = index_sub.add_parser("info", help="summarise a snapshot directory")
    index_info.add_argument("--snapshot", required=True, help="snapshot directory to inspect")

    stream = subparsers.add_parser(
        "stream",
        help="replay an event log through the streaming ingestor with interleaved queries",
    )
    _add_dataset_arguments(stream)
    stream.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="base temporal units covered (default: derived from the event log)",
    )
    stream.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="target ingest rate in events/second (0 = as fast as possible)",
    )
    stream.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="micro-batch size: events buffered per flush through the bulk pipeline",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=0,
        help="sliding-window length in base temporal units (0 = keep everything)",
    )
    stream.add_argument(
        "--compact-every",
        type=int,
        default=0,
        help="auto-compact after this many index-changing retractions (0 = never)",
    )
    stream.add_argument(
        "--queries",
        nargs="+",
        metavar="ENTITY",
        default=None,
        help="entities to query in rotation during the replay "
        "(default: the first three entities of the log)",
    )
    stream.add_argument(
        "--query-every",
        type=int,
        default=0,
        help="serve one top-k query every N ingested events (0 = no queries)",
    )
    stream.add_argument("--k", type=int, default=10, help="result size of interleaved queries")
    stream.add_argument(
        "--shards",
        type=int,
        default=0,
        help="stream into a sharded engine with this many entity partitions (0 = single engine)",
    )
    _add_index_arguments(stream, defaults=True)

    serve = subparsers.add_parser(
        "serve",
        help="serve top-k queries and event ingest over HTTP (see docs/SERVING.md)",
    )
    _add_dataset_arguments(serve, required=False)
    serve.add_argument(
        "--snapshot",
        help="snapshot directory to serve from (mutually exclusive with --traces/--hierarchy)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to bind (default 8080; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve through a sharded engine with this many entity partitions (0 = single engine)",
    )
    serve.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="base temporal units the hash range must cover "
        "(default: derived from the traces; fixed by the snapshot with --snapshot)",
    )
    serve.add_argument(
        "--cache",
        type=int,
        default=None,
        help="query-result cache size in entries (default: the engine config's value)",
    )
    serve.add_argument(
        "--coalesce-window",
        type=float,
        default=2.0,
        help="milliseconds the coalescer waits for concurrent top-k requests "
        "to share one batch (0 = dispatch immediately; default 2)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-control bound on queued top-k requests (beyond it: HTTP 429)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="largest coalesced query batch dispatched at once",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="ingest micro-batch size: events buffered per flush through the bulk pipeline",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=0,
        help="sliding-window length in base temporal units for streamed events (0 = keep everything)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=0,
        help="auto-compact after this many index-changing retractions (0 = never)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve top-k queries from this many read-only worker processes over "
        "shared memory-mapped snapshot generations (0 = single-process daemon; "
        "see docs/SERVING.md)",
    )
    serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="R",
        help="serve through the distributed tier: R shard-server replica "
        "processes per shard group, with hedged failover and degraded-answer "
        "marking (requires --shards; see docs/DISTRIBUTED.md)",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="write-ahead log directory: every flushed micro-batch is durably "
        "logged before it mutates the index, and on start-up the log suffix "
        "after the recovered state is replayed (see docs/DURABILITY.md)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent generation store directory; needs --workers or "
        "--cluster (default: a private temporary directory discarded on exit); "
        "with --workers, on restart the daemon recovers from the newest "
        "published generation, then replays the --wal suffix",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability in [0, 1] that a /v1/topk request is traced end to "
        "end (0 disables tracing; traces feed GET /v1/debug/slow and "
        "`repro trace`; see docs/OBSERVABILITY.md)",
    )
    _add_index_arguments(serve, defaults=False)

    cluster = subparsers.add_parser(
        "cluster",
        help="distributed serving utilities: shard servers and the chaos "
        "battery (see docs/DISTRIBUTED.md)",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_shard = cluster_sub.add_parser(
        "shard",
        help="run one shard-server replica over a shard's generation store "
        "(normally spawned by `repro serve --cluster`)",
    )
    cluster_shard.add_argument(
        "--store", required=True, help="shard generation-store directory"
    )
    cluster_shard.add_argument(
        "--shard", default="shard-000", help="shard name (for status/metrics)"
    )
    cluster_shard.add_argument("--host", default="127.0.0.1")
    cluster_shard.add_argument(
        "--port", type=int, default=0, help="TCP port to bind (0 = ephemeral)"
    )
    cluster_shard.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here (atomic) so parents can discover it",
    )
    cluster_shard.add_argument(
        "--startup-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for the first published generation",
    )

    cluster_chaos = cluster_sub.add_parser(
        "chaos",
        help="run the chaos battery: interleaved queries and ingest across "
        "kill/restart cycles, gated on exactness against a single-engine "
        "oracle (exit 0 = every gate held)",
    )
    cluster_chaos.add_argument(
        "--smoke", action="store_true", help="CI-sized workload (same fault schedule)"
    )
    cluster_chaos.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    cluster_chaos.add_argument("--seed", type=int, default=7, help="workload seed")
    cluster_chaos.add_argument(
        "--shards", type=int, default=2, help="shard groups (default 2)"
    )
    cluster_chaos.add_argument(
        "--replication", type=int, default=2, help="replicas per group (default 2)"
    )

    wal = subparsers.add_parser(
        "wal",
        help="inspect or replay a serving write-ahead log (see docs/DURABILITY.md)",
    )
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)

    wal_inspect = wal_sub.add_parser(
        "inspect",
        help="scan the log's segments and report integrity and the replayable prefix",
    )
    wal_inspect.add_argument("directory", help="WAL directory to scan")
    wal_inspect.add_argument(
        "--json", action="store_true", help="print the full scan report as JSON"
    )

    wal_replay = wal_sub.add_parser(
        "replay",
        help="replay a WAL onto a snapshot and write the recovered snapshot",
    )
    wal_replay.add_argument("directory", help="WAL directory to replay")
    wal_replay.add_argument(
        "--snapshot",
        required=True,
        help="snapshot directory to recover from (replay starts after its recorded wal_seq)",
    )
    wal_replay.add_argument("--output", required=True, help="directory for the recovered snapshot")
    wal_replay.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="ingest micro-batch size the crashed daemon ran with (default 256)",
    )
    wal_replay.add_argument(
        "--window",
        type=int,
        default=0,
        help="sliding-window length the crashed daemon ran with (0 = none)",
    )
    wal_replay.add_argument(
        "--compact-every",
        type=int,
        default=0,
        help="auto-compaction threshold the crashed daemon ran with (0 = never)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="fetch and print a serving daemon's slow-query traces "
        "(GET /v1/debug/slow; requires `repro serve --trace-sample`)",
    )
    trace.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="server base URL (default http://127.0.0.1:8080)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=0,
        help="print at most this many traces (0 = all retained)",
    )
    trace.add_argument(
        "--errored",
        action="store_true",
        help="print the most recent errored traces instead of the slowest",
    )

    figures = subparsers.add_parser("figures", help="regenerate the paper's evaluation figures")
    figures.add_argument("--scale", choices=["tiny", "small", "medium"], default="tiny")
    figures.add_argument("--only", nargs="*", default=None, help="figure ids (default: all)")
    figures.add_argument("--max-rows", type=int, default=30)

    scenario = subparsers.add_parser(
        "scenario",
        help="run the end-to-end scenario corpus against real backends and "
        "score exact top-k agreement with the brute-force oracle",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser("list", help="list the bundled scenarios")
    scenario_list.add_argument(
        "--json", action="store_true", help="print full specs as JSON"
    )
    scenario_list.add_argument(
        "--tag", default=None, help="only scenarios carrying this tag"
    )

    scenario_run = scenario_sub.add_parser(
        "run", help="replay scenarios against backends and emit a scored report"
    )
    scenario_run.add_argument(
        "names", nargs="*", help="scenario names (see `repro scenario list`)"
    )
    scenario_run.add_argument(
        "--all", action="store_true", help="run the whole bundled corpus"
    )
    scenario_run.add_argument(
        "--smoke",
        action="store_true",
        help="smaller datasets and fewer queries (the CI configuration)",
    )
    scenario_run.add_argument(
        "--backends",
        nargs="+",
        default=None,
        metavar="BACKEND",
        help="deployment shapes to replay against (default: in_process "
        "sharded http_workers)",
    )
    scenario_run.add_argument(
        "--output", default=None, help="write the JSON report to this file"
    )
    scenario_run.add_argument(
        "--html", default=None, help="also render the report as HTML to this file"
    )
    scenario_run.add_argument(
        "--quiet", action="store_true", help="suppress per-step progress lines"
    )

    scenario_report = scenario_sub.add_parser(
        "report", help="validate a saved report and summarise or re-render it"
    )
    scenario_report.add_argument(
        "--input", required=True, help="JSON report produced by `scenario run`"
    )
    scenario_report.add_argument(
        "--html", default=None, help="render the report as HTML to this file"
    )

    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--traces", required=required, help="CSV trace file (entity,unit,start,end)"
    )
    parser.add_argument(
        "--hierarchy", required=required, help="sp-index JSON (unit -> parent)"
    )


def _add_index_arguments(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """Index-shaping options.

    ``defaults=False`` leaves them at ``None`` so the query command can tell
    "explicitly passed" from "defaulted" -- with ``--snapshot`` these options
    are fixed by the snapshot and passing them is an error.
    """
    parser.add_argument(
        "--num-hashes",
        type=int,
        default=_DEFAULT_NUM_HASHES if defaults else None,
        help=f"hash functions for the index (default {_DEFAULT_NUM_HASHES})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=_DEFAULT_SEED if defaults else None,
        help=f"hash family seed (default {_DEFAULT_SEED})",
    )
    parser.add_argument(
        "--u",
        type=float,
        default=_DEFAULT_U if defaults else None,
        help=f"ADM level exponent (default {_DEFAULT_U})",
    )
    parser.add_argument(
        "--v",
        type=float,
        default=_DEFAULT_V if defaults else None,
        help=f"ADM duration exponent (default {_DEFAULT_V})",
    )


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _command_generate(args: argparse.Namespace) -> int:
    from repro.mobility.hierarchical import generate_synthetic_dataset
    from repro.mobility.wifi import generate_wifi_dataset
    from repro.traces.io import write_hierarchy_json, write_traces_csv

    if args.kind == "syn":
        dataset, _config = generate_synthetic_dataset(
            num_entities=args.entities, horizon=args.horizon, seed=args.seed
        )
    else:
        dataset, _config = generate_wifi_dataset(
            num_devices=args.entities, horizon=args.horizon, seed=args.seed
        )
    records = write_traces_csv(dataset, args.output)
    write_hierarchy_json(dataset.hierarchy, args.hierarchy)
    print(
        f"wrote {records} presence records for {dataset.num_entities} entities to {args.output}"
    )
    print(f"wrote sp-index ({dataset.hierarchy.describe()}) to {args.hierarchy}")
    return 0


class _DatasetError(Exception):
    """A dataset/hierarchy input could not be loaded (missing or malformed)."""


def _shard_options_error(args: argparse.Namespace) -> Optional[str]:
    """The shared ``--shards`` validation, or ``None``."""
    if args.shards < 0:
        return f"--shards must be >= 0, got {args.shards}"
    return None


def _make_engine(
    dataset,
    measure: HierarchicalADM,
    num_hashes: int,
    seed: int,
    shards: int,
) -> Union[TraceQueryEngine, ShardedEngine]:
    """The (unbuilt) engine every build-from-traces subcommand constructs."""
    if shards:
        return ShardedEngine(
            dataset,
            measure=measure,
            num_shards=shards,
            num_hashes=num_hashes,
            seed=seed,
        )
    return TraceQueryEngine(dataset, measure=measure, num_hashes=num_hashes, seed=seed)


def _load_dataset(args: argparse.Namespace, horizon: Optional[int] = None):
    """Load the ``--traces``/``--hierarchy`` pair, or raise :class:`_DatasetError`.

    Wrapping the loader errors keeps every subcommand on the exit-code
    contract: bad input files exit 2 with a one-line message instead of a
    traceback.  ``horizon`` over-provisions the dataset's hash range
    (serve's ``--horizon``).
    """
    from repro.traces.io import load_hierarchy_json, load_traces_csv

    try:
        hierarchy = load_hierarchy_json(args.hierarchy)
    except (OSError, ValueError) as exc:
        raise _DatasetError(f"cannot load sp-index {args.hierarchy}: {exc}") from exc
    try:
        return load_traces_csv(args.traces, hierarchy, horizon=horizon)
    except (OSError, ValueError, KeyError) as exc:
        raise _DatasetError(f"cannot load traces {args.traces}: {exc}") from exc


def _command_stats(args: argparse.Namespace) -> int:
    if args.watch is not None:
        if args.traces or args.hierarchy:
            return _error("--watch polls a live server; --traces/--hierarchy do not apply")
        if args.watch <= 0:
            return _error(f"--watch must be > 0 seconds, got {args.watch}")
        if args.iterations < 0:
            return _error(f"--iterations must be >= 0, got {args.iterations}")
        return _watch_stats(args)
    if not (args.traces and args.hierarchy):
        return _error("pass --traces and --hierarchy, or --watch SECS to poll a server")
    try:
        dataset = _load_dataset(args)
    except _DatasetError as exc:
        return _error(str(exc))
    print(dataset.describe())
    print(f"average base ST-cells per entity: {dataset.average_cells_per_entity():.1f}")
    print(f"ST-cell universe size: {dataset.num_st_cells}")
    return 0


def _fetch_json(url: str, timeout: float = 10.0) -> Dict[str, object]:
    """GET ``url`` and decode the JSON body, or raise :class:`_CommandError`."""
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (URLError, OSError, ValueError) as exc:
        raise _CommandError(f"cannot fetch {url}: {exc}") from exc


def _topk_bucket_counts(payload: Dict[str, object]) -> List[int]:
    """The ``/v1/topk`` latency bucket counts of one ``/v1/stats`` payload."""
    from repro.obs import snapshot_bucket_counts

    endpoints = payload.get("endpoints")
    entry = endpoints.get("/v1/topk") if isinstance(endpoints, dict) else None
    return snapshot_bucket_counts(entry.get("latency", {}) if isinstance(entry, dict) else {})


def _topk_requests(payload: Dict[str, object]) -> int:
    endpoints = payload.get("endpoints")
    entry = endpoints.get("/v1/topk") if isinstance(endpoints, dict) else None
    return int(entry.get("requests", 0)) if isinstance(entry, dict) else 0


def _cache_counters(payload: Dict[str, object]) -> Optional[Dict[str, int]]:
    engine = payload.get("engine")
    cache = engine.get("cache") if isinstance(engine, dict) else None
    if not isinstance(cache, dict):
        return None
    return {"hits": int(cache.get("hits", 0)), "misses": int(cache.get("misses", 0))}


def _format_latency(seconds: Optional[float]) -> str:
    from repro.obs.trace import LATENCY_BUCKETS

    if seconds is None:
        return "-"
    if seconds == float("inf"):
        return f">{LATENCY_BUCKETS[-1] * 1000.0:g}ms"
    return f"{seconds * 1000.0:.1f}ms"


def _stats_interval_line(
    previous: Dict[str, object], current: Dict[str, object], interval: float
) -> str:
    """One ``--watch`` output line from two consecutive stats snapshots.

    Rates and percentiles come from the *deltas* between the snapshots, so
    each line describes that interval's traffic rather than the lifetime
    aggregate; ingest lag is a point-in-time gauge of the current snapshot.
    """
    import time

    from repro.obs import histogram_percentile

    queries = _topk_requests(current) - _topk_requests(previous)
    qps = queries / interval if interval > 0 else 0.0
    deltas = [
        now - before
        for now, before in zip(_topk_bucket_counts(current), _topk_bucket_counts(previous))
    ]
    p50 = _format_latency(histogram_percentile(deltas, 0.5))
    p95 = _format_latency(histogram_percentile(deltas, 0.95))
    cache_now, cache_before = _cache_counters(current), _cache_counters(previous)
    if cache_now is None or cache_before is None:
        cache_text = "-"
    else:
        hits = cache_now["hits"] - cache_before["hits"]
        lookups = hits + cache_now["misses"] - cache_before["misses"]
        cache_text = f"{hits / lookups:.0%}" if lookups > 0 else "-"
    ingest = current.get("ingest")
    ingest = ingest if isinstance(ingest, dict) else {}
    backlog = int(ingest.get("events_buffered", 0))
    flush_age = ingest.get("seconds_since_last_flush")
    flush_text = f"{flush_age:.1f}s" if isinstance(flush_age, (int, float)) else "-"
    return (
        f"{time.strftime('%H:%M:%S')}  qps {qps:7.1f}  p50 {p50:>8}  p95 {p95:>8}  "
        f"cache {cache_text:>4}  backlog {backlog:>6}  flush-age {flush_text:>7}"
    )


def _watch_stats(args: argparse.Namespace) -> int:
    """The ``repro stats --watch`` loop: one line per polling interval."""
    import time

    url = args.url.rstrip("/") + "/v1/stats"
    try:
        previous = _fetch_json(url)
    except _CommandError as exc:
        return _error(str(exc))
    print(
        f"watching {url} every {args.watch:g}s "
        "(qps and percentiles are per-interval; ctrl-c to stop)",
        flush=True,
    )
    completed = 0
    try:
        while not args.iterations or completed < args.iterations:
            time.sleep(args.watch)
            try:
                current = _fetch_json(url)
            except _CommandError as exc:
                return _error(str(exc))
            print(_stats_interval_line(previous, current, args.watch), flush=True)
            previous = current
            completed += 1
    except KeyboardInterrupt:
        pass
    return 0


def _explicit_index_options(args: argparse.Namespace) -> List[str]:
    """Index-shaping options the user passed explicitly (query/serve only)."""
    candidates = (
        ("--num-hashes", args.num_hashes),
        ("--seed", args.seed),
        ("--u", args.u),
        ("--v", args.v),
    )
    return [name for name, value in candidates if value is not None]


class _CommandError(Exception):
    """An exit-2 condition; the message is the one-line stderr output."""


def _resolve_engine(
    args: argparse.Namespace, horizon: Optional[int] = None
) -> Union[TraceQueryEngine, ShardedEngine]:
    """The `--snapshot` xor `--traces/--hierarchy` engine shared by
    ``query`` and ``serve``: validate the option combination, then load the
    snapshot or build from the trace file.

    Raises :class:`_CommandError` for every exit-2 condition, so both
    subcommands keep identical validation rules and error strings.
    ``horizon`` (serve's ``--horizon``) over-provisions the hash range of a
    traces-mode build; it is rejected with ``--snapshot``.
    """
    from repro.storage.snapshot import SnapshotError

    if args.snapshot and (args.traces or args.hierarchy):
        raise _CommandError("pass either --snapshot or --traces/--hierarchy, not both")
    if not args.snapshot and not (args.traces and args.hierarchy):
        raise _CommandError("pass --snapshot, or both --traces and --hierarchy")
    shard_error = _shard_options_error(args)
    if shard_error:
        raise _CommandError(shard_error)

    if args.snapshot:
        explicit = _explicit_index_options(args)
        if explicit:
            raise _CommandError(
                f"{', '.join(explicit)} cannot be combined with --snapshot; "
                "those options are fixed when the snapshot is built"
            )
        if args.shards:
            raise _CommandError(
                "--shards cannot be combined with --snapshot; sharded snapshots "
                "embed their shard count (see `repro index build --shards`)"
            )
        if horizon is not None:
            raise _CommandError(
                "--horizon cannot be combined with --snapshot; the snapshot fixes it"
            )
        try:
            return load_snapshot(args.snapshot)
        except SnapshotError as exc:
            raise _CommandError(str(exc)) from exc

    if horizon is not None and horizon < 1:
        raise _CommandError(f"--horizon must be >= 1, got {horizon}")
    try:
        dataset = _load_dataset(args, horizon=horizon)
    except _DatasetError as exc:
        raise _CommandError(str(exc)) from exc
    num_hashes = args.num_hashes if args.num_hashes is not None else _DEFAULT_NUM_HASHES
    seed = args.seed if args.seed is not None else _DEFAULT_SEED
    u = args.u if args.u is not None else _DEFAULT_U
    v = args.v if args.v is not None else _DEFAULT_V
    measure = HierarchicalADM(num_levels=dataset.num_levels, u=u, v=v)
    return _make_engine(dataset, measure, num_hashes, seed, args.shards).build()


def _command_query(args: argparse.Namespace) -> int:
    if bool(args.entity) == bool(args.batch):
        return _error("pass exactly one of --entity or --batch")
    if args.workers < 0:
        return _error(f"--workers must be >= 0, got {args.workers}")
    if args.k < 1:
        return _error(f"--k must be >= 1, got {args.k}")
    if not 0.0 <= args.approximation < math.inf:
        return _error(f"--approximation must be finite and >= 0, got {args.approximation}")
    if args.workers and not args.batch:
        return _error("--workers only applies to --batch queries")
    if args.trace and args.batch:
        return _error("--trace only applies to --entity queries")

    try:
        engine = _resolve_engine(args)
    except _CommandError as exc:
        return _error(str(exc))
    if engine.dataset.num_entities == 0:
        if args.snapshot:
            return _error(
                f"snapshot {args.snapshot} holds an empty index; nothing to query"
            )
        return _error(
            f"dataset {args.traces} contains no trace records; nothing to query"
        )

    queries = args.batch if args.batch else [args.entity]
    unknown = [entity for entity in queries if entity not in engine.dataset]
    if unknown:
        for entity in unknown:
            print(f"error: unknown entity {entity!r}", file=sys.stderr)
        return 2

    if args.batch:
        batch = engine.top_k_batch(
            queries, k=args.k, workers=args.workers, approximation=args.approximation
        )
        for result in batch:
            _print_result(result, args.k)
        print(
            f"batch: {batch.num_queries} queries in {batch.wall_seconds:.3f}s "
            f"({batch.queries_per_second:.1f} q/s, workers={batch.workers}), "
            f"scored {batch.total_entities_scored} entities, "
            f"mean pruning effectiveness {batch.mean_pruning_effectiveness:.3f}"
        )
        return 0

    if args.trace:
        from repro.obs.trace import Tracer, format_trace

        tracer = Tracer(sample_rate=1.0)
        trace = tracer.start_trace("query", process="cli")
        result = engine.top_k(
            args.entity, k=args.k, approximation=args.approximation, trace=trace.context()
        )
        record = tracer.finish(trace)
        _print_result(result, args.k)
        print()
        print(format_trace(record))
        return 0

    result = engine.top_k(args.entity, k=args.k, approximation=args.approximation)
    _print_result(result, args.k)
    return 0


def _print_result(result, k: int) -> None:
    print(f"top-{k} associates of {result.query_entity}:")
    for rank, (entity, degree) in enumerate(result, start=1):
        print(f"{rank:>3}. {entity:<30} {degree:.4f}")
    stats = result.stats
    print(
        f"scored {stats.entities_scored}/{stats.population} entities "
        f"(pruning effectiveness {stats.pruning_effectiveness:.3f}, "
        f"early termination: {stats.terminated_early})"
    )


def _command_index(args: argparse.Namespace) -> int:
    if args.index_command == "build":
        return _command_index_build(args)
    return _command_index_info(args)


def _command_index_build(args: argparse.Namespace) -> int:
    from repro.storage.snapshot import SnapshotError

    shard_error = _shard_options_error(args)
    if shard_error:
        return _error(shard_error)
    if args.horizon is not None and args.horizon < 1:
        return _error(f"--horizon must be >= 1, got {args.horizon}")
    try:
        dataset = _load_dataset(args, horizon=args.horizon)
    except _DatasetError as exc:
        return _error(str(exc))
    measure = HierarchicalADM(num_levels=dataset.num_levels, u=args.u, v=args.v)
    engine = _make_engine(dataset, measure, args.num_hashes, args.seed, args.shards).build()
    try:
        path = engine.save(args.output)
    except SnapshotError as exc:
        return _error(str(exc))
    kind = f"{args.shards}-shard" if args.shards else "single-engine"
    print(
        f"built {kind} index over {dataset.num_entities} entities "
        f"in {engine.last_build_seconds:.2f}s"
    )
    print(f"wrote snapshot to {path}")
    return 0


def _command_index_info(args: argparse.Namespace) -> int:
    from repro.storage.snapshot import SnapshotError, snapshot_info

    try:
        info = snapshot_info(args.snapshot)
        print(f"snapshot: {info['path']}")
        print(f"format: {info['format']} v{info['format_version']}")
        print(f"size on disk: {info['size_bytes']} bytes")
        if info["format"] == SHARDED_SNAPSHOT_FORMAT:
            print(f"shards: {info['num_shards']}")
            print(f"config fingerprint: {info['fingerprint']}")
            return 0
        config = info["config"]
        dataset = info["dataset"]
        measure = info["measure"]
        print(
            f"dataset: {dataset['num_entities']} entities, "
            f"{dataset['num_presences']} presences, {dataset['num_levels']} levels"
        )
        print(
            f"index: num_hashes={config['num_hashes']}, seed={config['seed']}, "
            f"nodes={info['tree']['num_nodes']}"
        )
        print(f"measure: {measure['name']} {measure['params']}")
        print(f"fingerprint: {info['fingerprint']}")
    except SnapshotError as exc:
        return _error(str(exc))
    except (KeyError, TypeError) as exc:
        # read_manifest only validates format and version; a format-valid
        # manifest can still be missing sections this summary prints.
        return _error(f"snapshot manifest in {args.snapshot} is incomplete: {exc}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from repro.streaming import read_event_log, replay_events
    from repro.traces.dataset import TraceDataset
    from repro.traces.io import load_hierarchy_json

    if args.rate < 0:
        return _error(f"--rate must be >= 0, got {args.rate}")
    if args.batch_size < 1:
        return _error(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.window < 0:
        return _error(f"--window must be >= 0, got {args.window}")
    if args.compact_every < 0:
        return _error(f"--compact-every must be >= 0, got {args.compact_every}")
    if args.query_every < 0:
        return _error(f"--query-every must be >= 0, got {args.query_every}")
    if args.k < 1:
        return _error(f"--k must be >= 1, got {args.k}")
    shard_error = _shard_options_error(args)
    if shard_error:
        return _error(shard_error)
    if args.queries and not args.query_every:
        return _error("--queries only applies together with --query-every")

    try:
        hierarchy = load_hierarchy_json(args.hierarchy)
    except (OSError, ValueError) as exc:
        return _error(f"cannot load sp-index {args.hierarchy}: {exc}")
    try:
        events = read_event_log(args.traces)
    except (OSError, ValueError) as exc:
        return _error(f"cannot load event log {args.traces}: {exc}")
    if not events:
        return _error(f"event log {args.traces} contains no events; nothing to stream")

    # The hash range must cover the whole stream up front: the engine starts
    # empty, so the horizon cannot be derived from its (empty) dataset.
    horizon = args.horizon if args.horizon is not None else max(e.end for e in events)
    if horizon < 1:
        return _error(f"--horizon must be >= 1, got {horizon}")
    dataset = TraceDataset(hierarchy, horizon=horizon)
    measure = HierarchicalADM(num_levels=dataset.num_levels, u=args.u, v=args.v)
    engine = _make_engine(dataset, measure, args.num_hashes, args.seed, args.shards).build()

    query_entities: List[str] = []
    if args.query_every:
        if args.queries:
            query_entities = list(args.queries)
            log_entities = {event.entity for event in events}
            unknown = [entity for entity in query_entities if entity not in log_entities]
            if unknown:
                for entity in unknown:
                    print(f"error: entity {entity!r} never appears in the event log", file=sys.stderr)
                return 2
        else:
            seen: Dict[str, None] = {}
            for event in events:
                seen.setdefault(event.entity, None)
                if len(seen) == 3:
                    break
            query_entities = list(seen)

    kind = f"{args.shards}-shard" if args.shards else "single-engine"
    window_text = str(args.window) if args.window else "unbounded"
    print(
        f"streaming {len(events)} events into a {kind} index "
        f"(batch={args.batch_size}, window={window_text}, horizon={horizon})"
    )

    def on_query(index: int, result) -> None:
        ranked = ", ".join(entity for entity, _ in result.items) or "(no associates)"
        print(f"  [event {index}] top-{args.k} of {result.query_entity}: {ranked}")

    try:
        report = replay_events(
            engine,
            events,
            rate=args.rate,
            query_entities=query_entities,
            query_every=args.query_every,
            k=args.k,
            on_query=on_query,
            max_batch_events=args.batch_size,
            window=args.window or None,
            compact_after=args.compact_every,
        )
    except (KeyError, ValueError) as exc:
        # read_event_log skips hierarchy validation (an event log is just
        # records), so a unit unknown to -- or not a base unit of -- the
        # sp-index surfaces here, at ingestion time.
        message = exc.args[0] if exc.args else exc
        return _error(f"invalid event in {args.traces}: {message}")
    print(
        f"replayed {report.events} events in {report.wall_seconds:.2f}s "
        f"({report.events_per_second:.0f} ev/s) across "
        f"{report.ingest.batches_flushed} micro-batches "
        f"(mean {report.ingest.mean_batch_size:.1f} events, "
        f"{report.ingest.entities_reindexed} entity re-signings)"
    )
    if args.window:
        print(
            f"window: {report.window.expired_records} records expired over "
            f"{report.window.expiries} expiries "
            f"({report.window.entities_removed} entities removed, "
            f"{report.window.entities_resigned} re-signed, "
            f"{report.window.entities_unchanged} untouched), "
            f"{report.window.compactions} compactions"
        )
    if args.query_every:
        print(
            f"queries: {report.queries_answered} answered, "
            f"{report.queries_skipped} skipped (entity not yet ingested)"
        )
    scope = "within the window" if args.window else "ingested"
    print(f"final index: {engine.dataset.num_entities} entities {scope}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if not (0 <= args.port <= 65535):
        return _error(f"--port must be in [0, 65535], got {args.port}")
    if args.coalesce_window < 0:
        return _error(f"--coalesce-window must be >= 0, got {args.coalesce_window}")
    if args.max_pending < 1:
        return _error(f"--max-pending must be >= 1, got {args.max_pending}")
    if args.max_batch < 1:
        return _error(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.batch_size < 1:
        return _error(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.window < 0:
        return _error(f"--window must be >= 0, got {args.window}")
    if args.compact_every < 0:
        return _error(f"--compact-every must be >= 0, got {args.compact_every}")
    if args.cache is not None and args.cache < 0:
        return _error(f"--cache must be >= 0, got {args.cache}")
    if args.workers < 0:
        return _error(f"--workers must be >= 0, got {args.workers}")
    if args.cluster < 0:
        return _error(f"--cluster must be >= 0, got {args.cluster}")
    if args.cluster and not args.shards:
        return _error("--cluster needs --shards (one replica group per shard)")
    if args.cluster and args.workers:
        return _error("--cluster and --workers are mutually exclusive tiers")
    if not (0.0 <= args.trace_sample <= 1.0):
        return _error(f"--trace-sample must be within [0, 1], got {args.trace_sample}")
    if args.store and not (args.workers or args.cluster):
        return _error(
            "--store needs --workers or --cluster: a single-process daemon "
            "publishes no generations"
        )

    try:
        engine = _resolve_engine(args, horizon=args.horizon)
    except _CommandError as exc:
        return _error(str(exc))
    if args.cache is not None:
        engine.configure_query_cache(args.cache)

    return _run_server(engine, args)


def _run_server(engine, args: argparse.Namespace) -> int:
    """Bind, announce, and run the daemon until SIGINT/SIGTERM."""
    import signal
    import threading

    from repro.server.app import TraceServer, build_http_server
    from repro.server.recovery import recover_serving_state
    from repro.streaming.ingestor import StreamingConfig

    streaming = StreamingConfig(
        max_batch_events=args.batch_size,
        window=args.window or None,
        compact_after=args.compact_every,
    )
    workers, cluster, store_root = args.workers, args.cluster, args.store

    # Durability: a --workers store with published generations supersedes
    # the engine resolved from --snapshot/--traces; --wal replays what the
    # crashed process had already acknowledged (docs/DURABILITY.md).
    engine, wal, stream_state, notes = recover_serving_state(
        engine,
        streaming,
        wal_dir=args.wal,
        store_root=store_root if workers else None,
        snapshot=args.snapshot,
    )
    for note in notes:
        print(note, flush=True)

    # A tier is a read backend plus a publisher (docs/SERVING.md); the
    # default is the engine itself and nothing to publish.
    try:
        tier = {}
        if cluster:
            from repro.cluster.frontend import cluster_tier

            tier = cluster_tier(engine, replication=cluster, store_root=store_root)
        elif workers:
            from repro.server.frontend import worker_tier

            tier = worker_tier(engine, workers=workers, store_root=store_root)
        server = TraceServer(
            engine,
            streaming=streaming,
            coalesce_window=args.coalesce_window / 1000.0,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
            trace_sample=args.trace_sample,
            wal=wal,
            stream_state=stream_state,
            **tier,
        )
    except (OSError, RuntimeError, ValueError) as exc:
        if cluster:
            return _error(f"cannot start the cluster tier: {exc}")
        return _error(f"cannot start {workers} query workers: {exc}")
    try:
        httpd = build_http_server(server, host=args.host, port=args.port)
    except OSError as exc:
        server.close()
        return _error(f"cannot bind {args.host}:{args.port}: {exc}")

    host, port = httpd.server_address[:2]
    stats = engine.runtime_stats()
    kind = (
        f"{stats['num_shards']}-shard" if stats["kind"] == "sharded" else "single-engine"
    )
    print(
        f"serving {kind} index of {stats['entities']} entities "
        f"on http://{host}:{port} (POST /v1/topk, POST /v1/events, "
        "GET /v1/healthz, GET /v1/stats, GET /metrics, GET /v1/debug/slow)",
        flush=True,
    )
    if args.trace_sample:
        print(
            f"tracing: sampling {args.trace_sample:.0%} of /v1/topk requests "
            "(slow-query log on GET /v1/debug/slow; `repro trace` prints it)",
            flush=True,
        )
    if workers or cluster:
        fleet = ", ".join(
            f"{name} (pid {replica.pid})"
            for name, replica in server.backend.managed.items()
        )
        tier = "distributed tier" if cluster else "multi-process tier"
        print(
            f"read processes ({tier}): {len(server.backend.groups)} replica group(s) x "
            f"{workers or cluster} over {server.publisher.root}: {fleet}",
            flush=True,
        )

    def request_shutdown(signum, frame) -> None:
        # serve_forever() must keep running while shutdown() waits for it,
        # so the stop request goes through a helper thread.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous_handlers = {
        signal.SIGINT: signal.signal(signal.SIGINT, request_shutdown),
        signal.SIGTERM: signal.signal(signal.SIGTERM, request_shutdown),
    }
    try:
        httpd.serve_forever()
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        httpd.server_close()
        server.close()
    ingest = server.ingestor.stats
    coalescer = server.coalescer.stats
    print(
        f"shut down cleanly: {coalescer.submitted} queries "
        f"({coalescer.batches} coalesced batches), "
        f"{ingest.events_submitted} events ingested "
        f"({ingest.events_flushed} flushed, {ingest.events_buffered} buffered)"
    )
    return 0


def _command_wal(args: argparse.Namespace) -> int:
    if args.wal_command == "inspect":
        return _command_wal_inspect(args)
    return _command_wal_replay(args)


def _command_wal_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.streaming.wal import scan_wal

    directory = Path(args.directory)
    if not directory.is_dir():
        return _error(f"{directory} is not a directory")
    # Scan without opening the log for append: inspect must never modify it
    # (repairing a torn tail is the restarting daemon's job).
    report = scan_wal(directory)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 1 if report.corrupt else 0
    print(f"write-ahead log {directory}")
    print(
        f"  replayable: {report.total_records} records, {report.total_events} events, "
        f"last seq {report.last_seq}"
    )
    for segment in report.segments:
        status = "ok" if segment.error is None else segment.error
        print(
            f"  {segment.path.name}: {segment.records} records, "
            f"{segment.valid_bytes}/{segment.total_bytes} bytes valid ({status})"
        )
    if report.corrupt:
        print("  log has an unreplayable suffix; a restarted daemon resumes after "
              f"seq {report.last_seq}")
        return 1
    return 0


def _command_wal_replay(args: argparse.Namespace) -> int:
    from repro.server.recovery import replay_wal_into_engine
    from repro.storage.snapshot import SnapshotError, read_manifest
    from repro.streaming.ingestor import StreamingConfig
    from repro.streaming.wal import WriteAheadLog

    if args.batch_size < 1:
        return _error(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.window < 0:
        return _error(f"--window must be >= 0, got {args.window}")
    if args.compact_every < 0:
        return _error(f"--compact-every must be >= 0, got {args.compact_every}")
    try:
        manifest = read_manifest(args.snapshot)
        engine = load_snapshot(args.snapshot)
    except SnapshotError as exc:
        return _error(str(exc))
    meta = manifest.get("extra") or {}
    wal = WriteAheadLog(args.directory)
    streaming = StreamingConfig(
        max_batch_events=args.batch_size,
        window=args.window or None,
        compact_after=args.compact_every,
    )
    summary, stream_state = replay_wal_into_engine(engine, wal, streaming, meta)
    engine.save(
        args.output,
        extra_meta={"wal_seq": wal.last_seq, "stream": stream_state},
    )
    print(
        f"replayed {summary.records} WAL records ({summary.events} events) "
        f"starting after seq {int(meta.get('wal_seq', 0))}; recovered snapshot "
        f"written to {args.output}"
    )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import format_trace

    if args.limit < 0:
        return _error(f"--limit must be >= 0, got {args.limit}")
    url = args.url.rstrip("/") + "/v1/debug/slow"
    try:
        payload = _fetch_json(url)
    except _CommandError as exc:
        return _error(str(exc))
    records = payload.get("errored" if args.errored else "slowest")
    records = records if isinstance(records, list) else []
    if args.limit:
        records = records[: args.limit]
    if not records:
        kind = "errored" if args.errored else "slow-query"
        sample_rate = payload.get("sample_rate")
        hint = (
            ""
            if sample_rate
            else " (tracing is disabled; start the server with --trace-sample)"
        )
        print(f"no {kind} traces retained{hint}")
        return 0
    for index, record in enumerate(records):
        if index:
            print()
        print(format_trace(record))
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures as figure_module

    available = {
        "7.1": figure_module.figure_7_1,
        "7.2": figure_module.figure_7_2,
        "7.3": figure_module.figure_7_3,
        "7.4": figure_module.figure_7_4,
        "7.5": figure_module.figure_7_5,
        "7.6": figure_module.figure_7_6,
        "7.7": figure_module.figure_7_7,
        "7.8": figure_module.figure_7_8,
        "7.9": figure_module.figure_7_9,
    }
    selected = args.only or list(available)
    unknown = [name for name in selected if name not in available]
    if unknown:
        return _error(f"unknown figure ids {unknown}")
    for name in selected:
        result = available[name](scale=args.scale)
        print(result.to_table(max_rows=args.max_rows))
        print()
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        return _command_scenario_list(args)
    if args.scenario_command == "run":
        return _command_scenario_run(args)
    return _command_scenario_report(args)


def _command_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import iter_scenarios

    specs = iter_scenarios()
    if args.tag:
        specs = [spec for spec in specs if args.tag in spec.tags]
        if not specs:
            return _error(f"no scenario carries tag {args.tag!r}")
    if args.json:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.name:<{width}}  [{tags}]  {spec.title}")
    return 0


def _command_scenario_run(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        BACKENDS,
        render_html,
        run_scenarios,
        scenario_names,
        validate_report,
    )

    if args.all and args.names:
        return _error("pass scenario names or --all, not both")
    if not args.all and not args.names:
        return _error("pass scenario names or --all (see `repro scenario list`)")
    names = None if args.all else args.names
    if names:
        unknown = [name for name in names if name not in scenario_names()]
        if unknown:
            return _error(
                f"unknown scenarios {unknown}; known: {scenario_names()}"
            )
    if args.backends:
        unknown = [name for name in args.backends if name not in BACKENDS]
        if unknown:
            return _error(f"unknown backends {unknown}; known: {sorted(BACKENDS)}")

    progress = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    report = run_scenarios(
        names=names, backends=args.backends, smoke=args.smoke, progress=progress
    )
    problems = validate_report(report)
    if problems:  # pragma: no cover - a runner/report contract bug
        return _error("malformed report: " + "; ".join(problems))
    document = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
    else:
        print(document)
    if args.html:
        Path(args.html).write_text(render_html(report), encoding="utf-8")

    summary = report["summary"]
    verdict = "PASS" if summary["all_passed"] else "FAIL"
    print(
        f"{verdict}: {summary['scenarios_passed']}/{summary['scenarios']} scenarios, "
        f"{summary['exact']}/{summary['queries']} exact top-k answers",
        file=sys.stderr,
    )
    return 0 if summary["all_passed"] else 1


def _command_scenario_report(args: argparse.Namespace) -> int:
    from repro.scenarios import render_html, validate_report

    path = Path(args.input)
    if not path.exists():
        return _error(f"report file not found: {path}")
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return _error(f"not valid JSON: {exc}")
    problems = validate_report(report)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return _error(f"report failed validation with {len(problems)} problem(s)")
    if args.html:
        Path(args.html).write_text(render_html(report), encoding="utf-8")
    summary = report["summary"]
    verdict = "PASS" if summary["all_passed"] else "FAIL"
    print(
        f"{verdict}: {summary['scenarios_passed']}/{summary['scenarios']} scenarios, "
        f"{summary['exact']}/{summary['queries']} exact top-k answers "
        f"({'smoke' if report['smoke'] else 'full'} mode, "
        f"backends: {', '.join(report['backends'])})"
    )
    for entry in report["scenarios"]:
        status = "ok " if entry["passed"] else "FAIL"
        backends = ", ".join(
            f"{backend['backend']} {backend['accuracy']['exact']}"
            f"/{backend['accuracy']['queries']}"
            for backend in entry["backends"]
        )
        print(f"  [{status}] {entry['name']}: {backends}")
    return 0 if summary["all_passed"] else 1


def _command_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "shard":
        from repro.server.workers import QueryWorker

        worker = QueryWorker(
            args.store,
            (args.host, args.port),
            name=args.shard,
            startup_timeout=args.startup_timeout,
        )
        return worker.run(port_file=args.port_file)
    # chaos battery
    if args.shards < 1:
        return _error(f"--shards must be >= 1, got {args.shards}")
    if args.replication < 1:
        return _error(f"--replication must be >= 1, got {args.replication}")
    from repro.cluster.battery import run_battery

    report = run_battery(
        smoke=args.smoke,
        seed=args.seed,
        shards=args.shards,
        replication=args.replication,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    verdict = "PASS" if report["passed"] else "FAIL"
    checks = report["checks"]
    print(
        f"{verdict}: {checks['exact_items']} exact answers, "
        f"{checks['byte_identical']} byte-identical payloads, "
        f"{checks['degraded_marked']} degraded-marking gates, "
        f"{len(report['failures'])} failures across "
        f"{len(report['rounds'])} rounds "
        f"({report['shards']} shards x {report['replication']} replicas)",
        file=sys.stderr,
    )
    for failure in report["failures"]:
        print(f"  gate failed: {failure}", file=sys.stderr)
    return 0 if report["passed"] else 1


_COMMANDS = {
    "generate": _command_generate,
    "stats": _command_stats,
    "query": _command_query,
    "index": _command_index,
    "stream": _command_stream,
    "serve": _command_serve,
    "cluster": _command_cluster,
    "wal": _command_wal,
    "trace": _command_trace,
    "figures": _command_figures,
    "scenario": _command_scenario,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
