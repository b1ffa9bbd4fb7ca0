"""The repo benchmark: one command that runs the workloads and prints the ledger.

    python3 bench/run.py --all --seed 1             # end-to-end ledger, 4 workloads
    python3 bench/run.py --all --seed 1 --traced    # per-layer ledger (the traced run)
    python3 bench/run.py --all --repeats 5 --out A.json   # a set of runs for compare.py
    python3 bench/run.py --all --smoke              # self-test scale, seconds not minutes
    python3 bench/run.py --workload serve-hot --seed 3 --seconds 10 --trace 0

The last form is the one ``BENCHMARK.json`` names: it ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
(``--trace 1``).  See ``bench/README.md`` for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __name__ == "__main__":
    # Replace the script directory on the path: the benchmark's modules are
    # imported as ``bench.*`` (so ``bench/trace.py`` cannot shadow the
    # standard library's ``trace``), the program from this checkout's ``src``.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

try:
    import numpy

    from bench import inputs
    from bench.daemon import BenchError
    from bench.stats import supported_percentile
    from bench.trace import TraceLog
    from bench.workloads import RUNNERS, WORKLOADS, Context, Outcome
except ImportError as exc:  # the program is not in this checkout
    sys.exit(f"bench/run.py: cannot import the program under test: {exc}")

RESULTS = BENCH / "results"
#: Timed-phase length of a ``--smoke`` run.
SMOKE_SECONDS = 1.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def provenance(args: argparse.Namespace, scale: inputs.Scale) -> Dict[str, object]:
    """Where and how these numbers were taken."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip()
    except OSError:  # no git on this host
        revision = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "load_average_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision or "not a git checkout",
        "seed": args.seed,
        "dataset": {
            "name": scale.name,
            "entities": scale.entities,
            "held_out_events": scale.held_out,
            "num_hashes": inputs.NUM_HASHES,
            "k": inputs.K,
        },
        "timed_phase_seconds": args.seconds,
        "setup_repeats": scale.setups,
        "query_pool": scale.pool,
        "hot_set": inputs.HOT_SET,
        "event_batch": inputs.EVENT_BATCH,
        "clients": f"{inputs.CLIENTS} keep-alive connections, closed loop, no think time "
        "(1 back-to-back writer + 1 reader on ingest-mixed)",
        "wal_flush_policy": "fsync on every append (the `repro serve --wal` default)",
    }


def print_outcome(
    workload: str, seed: int, traced: bool, outcome: Outcome, units: Dict[str, str]
) -> None:
    """The human-readable ledger of one run: every metric by name, with its unit."""
    kind = "per-layer (traced)" if traced else "end-to-end"
    print(f"== {workload}  seed={seed}  {kind}")
    for name in sorted(outcome.metrics):
        print(f"  {name:42s} {outcome.metrics[name]:14.4f} {units.get(name, '')}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"  {'error_rate':42s} {error_rate:14.4f} failed/attempted "
        f"({outcome.failed}/{outcome.attempted})"
    )
    for key, value in outcome.facts.items():
        print(f"  # {key}: {value}")
    for problem in outcome.problems:
        print(f"  ! {problem}")
    sys.stdout.flush()


def run_one(ctx: Context, workload: str, traced: bool, spec: dict) -> Outcome:
    """One workload, one pass; writes the trace file of a traced pass."""
    log = TraceLog() if traced else None
    outcome = RUNNERS[workload](ctx, traced, log)
    samples = outcome.facts.get("query_samples", 0)
    outcome.facts["highest_supported_percentile"] = f"p{supported_percentile(samples)}"
    if log is not None:
        log.write(RESULTS / f"{workload}.trace.jsonl")
        # The traced pass owns the per-layer ledger alone: end-to-end
        # metrics always come from an untraced run.
        layer_names = {entry["name"] for entry in spec["per_layer"]}
        outcome.metrics = {n: v for n, v in outcome.metrics.items() if n in layer_names}
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    print_outcome(workload, ctx.seed, traced, outcome, units)
    return outcome


def driver_line(spec: dict, traced: bool, outcome: Outcome, correct: bool) -> str:
    """The one-line JSON result ``BENCHMARK.json``'s command must end with.

    The contract wants every listed name from every workload.  Each
    workload raises when a layer it runs through stops reporting, so a
    per-layer name that is absent here is one this workload never measures;
    it reads 0 in the line (and is left out of every other output).
    """
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        name = entry["name"]
        if not traced and name not in outcome.metrics:
            raise BenchError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": outcome.metrics.get(name, 0.0), "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="length of the timed phase",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer ledger) instead of the end-to-end one",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="runs per workload, seeds SEED, SEED+1, ..."
    )
    parser.add_argument(
        "--smoke", action="store_true", help="self-test scale: ~300 entities, short phases"
    )
    parser.add_argument(
        "--out", type=Path, help="result document (default bench/results/run-SEED.json)"
    )
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("pass exactly one of --workload NAME and --all")
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")

    scale = inputs.SMOKE if args.smoke else inputs.FULL
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    selected = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace)

    # SIGTERM unwinds like Ctrl-C, so daemons are stopped and scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    document = {"provenance": provenance(args, scale), "runs": []}
    correct = True
    outcome = None
    try:
        for seed in range(args.seed, args.seed + args.repeats):
            ctx = Context(seed, scale, workdir / f"s{seed}", args.seconds)
            print(
                f"# dataset {scale.name} seed={seed}: {ctx.dataset.num_entities} entities, "
                f"{ctx.dataset.num_presences} presences, generated in {ctx.datagen_s:.2f}s"
            )
            for workload in selected:
                outcome = run_one(ctx, workload, traced, spec)
                correct = correct and not outcome.problems and not outcome.failed
                document["runs"].append(
                    {
                        "workload": workload,
                        "seed": seed,
                        "traced": traced,
                        "presences": ctx.dataset.num_presences,
                        "metrics": outcome.metrics,
                        "attempted": outcome.attempted,
                        "failed": outcome.failed,
                        "problems": outcome.problems,
                        "facts": outcome.facts,
                    }
                )
            shutil.rmtree(ctx.workdir, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document["provenance"]["load_average_after"] = os.getloadavg()
    out = args.out or RESULTS / f"run-{args.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"# result document: {out}")
    print("# every check passed" if correct else "# CHECK FAILED (see the ! lines above)")
    if args.workload and args.repeats == 1:
        print(driver_line(spec, traced, outcome, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.exit(f"bench/run.py: {exc}")
