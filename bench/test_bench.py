"""Self-tests of the benchmark harness (not part of tier-1; run explicitly).

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

``pytest.ini`` keeps ``testpaths = tests``, so the default run never
collects this file: it spawns daemons and takes about two minutes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import TraceQueryEngine

from bench import compare, run
from bench.daemon import BenchError
from bench.stats import percentile, samples_beyond, supported_percentile, tail_percentile
from bench.trace import TraceLog, covered
from bench.workloads import Context

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in spec["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])


# ----------------------------------------------------------------------
# A smoke run emits every name
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Result documents of one untraced and one traced smoke run of the matrix."""
    documents = []
    for trace in ("0", "1"):
        out = tmp_path_factory.mktemp("bench") / f"smoke{trace}.json"
        subprocess.run(
            [*RUN, "--all", "--smoke", "--trace", trace, "--out", str(out)],
            check=True, timeout=600,
        )
        documents.append(json.loads(out.read_text("utf-8")))
    return documents


def test_smoke_run_emits_every_name(spec, smoke_runs):
    workloads = {entry["name"] for entry in spec["workloads"]}
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    untraced = {run["workload"]: run for run in smoke_runs[0]["runs"]}
    traced = {run["workload"]: run for run in smoke_runs[1]["runs"]}
    assert set(untraced) == workloads == set(traced)
    for document in smoke_runs:
        for run in document["runs"]:
            assert not run["problems"] and run["failed"] == 0 and run["attempted"] >= 1
    # Every workload reports every end-to-end metric, none of them 0 ...
    for workload, run in untraced.items():
        for name in end_to_end:
            assert run["metrics"].get(name), (workload, name)
        assert set(run["metrics"]) <= end_to_end | per_layer
    # ... the traced pass reports per-layer names only, and every per-layer
    # name is measured by at least one workload, none but the tail
    # percentiles a smoke phase is too short for.
    for run in traced.values():
        assert set(run["metrics"]) <= per_layer
    measured = set().union(*(run["metrics"] for run in traced.values()))
    assert per_layer - measured <= {"query_p95_ms", "ingest_ack_p90_ms"}
    for field in ("nproc", "cpu_model", "python", "numpy", "git_revision", "seed", "dataset",
                  "load_average_before", "load_average_after", "clients", "wal_flush_policy"):
        assert field in smoke_runs[0]["provenance"], field


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(spec, trace):
    done = subprocess.run(
        [*RUN, "--workload", "serve-hot", "--smoke", "--seed", "4", "--seconds", "1",
         "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def run_fails(argv) -> bool:
    """Whether an in-process ``run.py`` run exits non-zero."""
    try:
        return run.main(argv) != 0
    except BenchError:  # every reply wrong: nothing could be measured
        return True


@pytest.mark.parametrize("workload", ["serve-hot", "ingest-mixed"])
def test_wrong_daemon_answer_fails_the_run(workload, monkeypatch, tmp_path):
    expected_body = Context.expected_body

    def other_entity(self, results, batch=False):
        return expected_body(self, results, batch).replace(b'"query":"', b'"query":"x', 1)

    monkeypatch.setattr(Context, "expected_body", other_entity)
    assert run_fails(["--workload", workload, "--smoke", "--out", str(tmp_path / "out.json")])


def test_wrong_engine_answer_fails_the_run(monkeypatch, tmp_path):
    top_k_batch = TraceQueryEngine.top_k_batch

    def one_short(self, entities, **arguments):
        batch = top_k_batch(self, entities, **arguments)
        batch.results[0].items.pop()
        return batch

    monkeypatch.setattr(TraceQueryEngine, "top_k_batch", one_short)
    assert run_fails(["--workload", "engine-scan", "--smoke", "--out", str(tmp_path / "out.json")])


def test_no_process_survives(smoke_runs):
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    assert "repro.server.workers" not in listing and "repro serve" not in listing


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50 and percentile(values, 95) == 95
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond():
    assert samples_beyond(200, 95) == 10 and samples_beyond(199, 95) == 9
    assert supported_percentile(5) == 50
    assert supported_percentile(40) == 75
    assert supported_percentile(100) == 90
    assert supported_percentile(199) == 90
    assert supported_percentile(200) == 95
    assert supported_percentile(1000) == 99
    assert tail_percentile(list(range(199)), 95) is None
    assert tail_percentile(list(range(1, 201)), 95) == 190


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4)], 0, 10) == 3
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    log = TraceLog()
    request = log.new_request()
    root = log.add("root", 0.0, 10.0, request)
    child = log.add("child", 1.0, 5.0, request, root)
    log.add("grandchild", 2.0, 3.0, request, child)
    log.add("child", 4.0, 7.0, request, root)  # overlaps its sibling: counted once
    assert log.self_times()[root] == pytest.approx(4.0)
    assert log.self_times()[child] == pytest.approx(3.0)
    assert log.mean_self_ms()["child"] == pytest.approx(3000.0)


def test_program_spans_nest_by_containment():
    record = {
        "spans": [
            {
                "children": [
                    {"name": "kernel.traverse", "start_offset_seconds": 1.0,
                     "duration_seconds": 4.0, "children": []},
                    {"name": "kernel.scores", "start_offset_seconds": 2.0,
                     "duration_seconds": 1.5, "children": []},
                ]
            }
        ]
    }
    log = TraceLog()
    request = log.new_request()
    root = log.add("engine.top_k", 100.0, 106.0, request)
    log.adopt_program_trace(record, 100.0, request, root)
    means = log.mean_self_ms()
    assert means["kernel.traverse"] == pytest.approx(2500.0)
    assert means["kernel.scores"] == pytest.approx(1500.0)
    assert means["engine.top_k"] == pytest.approx(2000.0)


def test_mean_request_chain_gives_stage_self_times():
    log = TraceLog()
    log.add_mean_request(
        [("http", 0.010, ()), ("wait", 0.008, [("lookup", 0.001)]), ("dispatch", 0.005, ())]
    )
    means = log.mean_self_ms()
    assert means["http"] == pytest.approx(2.0)
    assert means["wait"] == pytest.approx(2.0)
    assert means["dispatch"] == pytest.approx(5.0)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[1] == "within-bound"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)[1] == "worse"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "higher", 0.10)[1] == "worse"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "lower", 0.10)[1] == "within-bound"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)[1] == "unresolved"
    assert compare.verdict([0.0], [0.01], "lower", 0.0)[1] == "worse"
    assert compare.verdict(steady, noisy, "lower", None)[1] == "-"


def test_compare_exact_metrics_seed_by_seed():
    a = {1: 0.95, 2: 0.99}
    assert compare.exact_verdict(a, {1: 0.95, 2: 0.99}, "higher") == "within-bound"
    assert compare.exact_verdict(a, {1: 0.95, 2: 0.9875}, "higher") == "worse"
    assert compare.exact_verdict(a, {3: 0.5}, "higher") is None


def test_compare_flags_a_row_the_candidate_stopped_emitting(tmp_path, capsys):
    def document(metrics):
        run = {"workload": "serve-hot", "seed": 1, "traced": False, "attempted": 9, "failed": 0}
        return json.dumps({"runs": [{**run, "metrics": metrics}]})

    (tmp_path / "a.json").write_text(document({"query_p50_ms": 40.0, "query_qps": 50.0}))
    (tmp_path / "b.json").write_text(document({"query_p50_ms": 40.0}))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "missing" in capsys.readouterr().out
