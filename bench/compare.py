"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate; both are
result documents of ``bench/run.py --all --repeats N --out ...`` taken with
identical benchmark code and settings.  For every metric x workload the tool
prints each side's median and quartiles, and for the end-to-end metrics it
applies the regression bound of ``BENCHMARK.json`` (the only place bounds
live) and says

* ``worse``        -- B's median is worse than A's by more than the bound;
* ``unresolved``   -- a side's run-to-run spread (interquartile range over
  median) is wider than the bound, so the medians cannot settle it;
* ``within-bound`` -- otherwise;
* ``missing``      -- A measured it and B did not.

``error_rate`` (failed / attempted) may not increase at all.  ``recall_at_k``
repeats exactly for a seed, so when both sides ran the same seeds it is
compared seed by seed and any decrease is ``worse``.  Per-layer metrics have
no bound and get no verdict.  Exits non-zero on ``worse`` or ``missing``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: Metrics that repeat exactly for a seed: compared seed by seed.
EXACT = ("recall_at_k",)
Key = Tuple[str, bool, str]  # (workload, traced, metric)
Runs = Dict[int, float]  # seed -> value


def load_runs(path: str) -> Dict[Key, Runs]:
    """``{(workload, traced, metric): {seed: value}}`` of one result document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[Key, Runs] = {}
    for run in document["runs"]:
        metrics = dict(run["metrics"])
        if not run["traced"]:
            metrics["error_rate"] = run["failed"] / run["attempted"] if run["attempted"] else 1.0
        for name, value in metrics.items():
            values.setdefault((run["workload"], run["traced"], name), {})[run["seed"]] = value
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    a: List[float], b: List[float], better: str, bound: Optional[float]
) -> Tuple[float, str]:
    """``(B's relative worsening, verdict)`` for one metric x workload."""
    base, new = quartiles(a)[1], quartiles(b)[1]
    worsening = (new - base) if better == "lower" else (base - new)
    relative = worsening / abs(base) if base else (1.0 if worsening > 0 else 0.0)
    if bound is None:
        return relative, "-"
    if max(spread(a), spread(b)) > bound > 0:
        return relative, "unresolved"
    return relative, "worse" if relative > bound else "within-bound"


def exact_verdict(a: Runs, b: Runs, better: str) -> Optional[str]:
    """Seed-by-seed verdict of a metric that repeats exactly, if seeds are shared."""
    shared = sorted(set(a) & set(b))
    if not shared:
        return None
    sign = 1.0 if better == "lower" else -1.0
    return "worse" if any(sign * (b[seed] - a[seed]) > 0 for seed in shared) else "within-bound"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rules: Dict[str, Tuple[str, Optional[float]]] = {"error_rate": ("lower", 0.0)}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        rules[entry["name"]] = (entry["better"], entry.get("bound"))
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    failures = 0
    print(
        f"{'workload':14s} {'metric':36s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'B worse by':>10s} {'bound':>6s}  verdict"
    )
    for key in sorted(a_runs):
        workload, traced, name = key
        if name not in rules:  # a document of another benchmark version
            continue
        better, bound = rules[name]
        a_values = list(a_runs[key].values())
        side_a = "{1:.4g} [{0:.4g}, {2:.4g}] n={3}".format(*quartiles(a_values), len(a_values))
        if key not in b_runs:
            failures += 1
            print(f"{workload:14s} {name:36s} {side_a:>34s} {'':>34s} {'':>10s} {'':>6s}  missing")
            continue
        b_values = list(b_runs[key].values())
        side_b = "{1:.4g} [{0:.4g}, {2:.4g}] n={3}".format(*quartiles(b_values), len(b_values))
        relative, word = verdict(a_values, b_values, better, bound)
        if name in EXACT:
            word = exact_verdict(a_runs[key], b_runs[key], better) or word
        failures += word == "worse"
        print(
            f"{workload:14s} {name:36s} {side_a:>34s} {side_b:>34s} "
            f"{relative:+10.1%} {'' if bound is None else format(bound, '.0%'):>6s}  {word}"
        )
    print(f"{failures} metric x workload rows are worse or missing" if failures else "no row is worse")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
