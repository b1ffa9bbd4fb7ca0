"""The scenario harness: corpus integrity, oracle rule, runner, CLI, reports.

Tier-1 covers the contracts that do not need a live HTTP server: corpus
shape, spec resolution, generator determinism, the oracle's
batching-independent final-state rule (fuzzed against a real ingestor),
the report validator, and a real runner pass over the in-process and
sharded backends.  The HTTP backends -- real sockets, worker processes --
run under the ``scenario`` marker (a dedicated CI job) so the default
``pytest -q`` stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    BACKENDS,
    DEFAULT_BACKENDS,
    SCENARIOS,
    ChurnProfile,
    DatasetProfile,
    GroundTruth,
    QueryWorkload,
    REPORT_VERSION,
    ScenarioSpec,
    build_churn_events,
    build_dataset,
    get_scenario,
    iter_scenarios,
    make_backend,
    render_html,
    run_scenarios,
    scenario_names,
    validate_report,
)
from repro.scenarios.spec import EngineProfile
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.core.engine import TraceQueryEngine


class TestCorpus:
    def test_corpus_size_and_hostile_floor(self):
        specs = iter_scenarios()
        assert len(specs) >= 6
        assert sum(1 for spec in specs if spec.hostile) >= 2
        # Both churn generators are exercised by at least one bundled spec.
        churners = {spec.churn.generator for spec in specs}
        assert {"bursty_late", "rolling"} <= churners

    def test_specs_serialize_to_json(self):
        for spec in iter_scenarios():
            document = json.dumps(spec.to_dict())
            assert spec.name in document

    def test_lookup_errors(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("no-such-scenario")
        assert scenario_names() == list(SCENARIOS)

    def test_referenced_generators_exist(self):
        from repro.scenarios.generators import CHURN_GENERATORS, DATASET_GENERATORS

        for spec in iter_scenarios():
            assert spec.dataset.generator in DATASET_GENERATORS, spec.name
            assert spec.churn.generator in CHURN_GENERATORS, spec.name


class TestSpecResolution:
    def test_smoke_overlay(self):
        profile = DatasetProfile(
            generator="syn", params={"seed": 1, "num_entities": 400},
            smoke_params={"num_entities": 40},
        )
        assert profile.resolve(smoke=False) == {"seed": 1, "num_entities": 400}
        assert profile.resolve(smoke=True) == {"seed": 1, "num_entities": 40}

    def test_query_count_resolution(self):
        workload = QueryWorkload(count=12, smoke_count=3)
        assert workload.resolve_count(False) == 12
        assert workload.resolve_count(True) == 3
        assert QueryWorkload(count=12).resolve_count(True) == 12

    def test_churn_profile_resolution(self):
        churn = ChurnProfile(
            generator="rolling", params={"steps": 30}, smoke_params={"steps": 5},
            window=24,
        )
        assert churn.resolve(False)["steps"] == 30
        assert churn.resolve(True)["steps"] == 5


class TestGenerators:
    def test_unknown_names_error(self):
        with pytest.raises(ValueError, match="unknown dataset generator"):
            build_dataset("nope", {})
        dataset = build_dataset("clone_families", {"num_families": 2, "num_background": 2})
        with pytest.raises(ValueError, match="unknown churn generator"):
            build_churn_events("nope", dataset, {})

    def test_dataset_generators_are_deterministic(self):
        params = {"num_entities": 30, "seed": 5}
        first = build_dataset("heavy_tail", params)
        second = build_dataset("heavy_tail", params)
        assert list(first.entities) == list(second.entities)
        for entity in first.entities:
            assert first.trace(entity) == second.trace(entity)

    def test_churn_generators_are_deterministic(self):
        dataset = build_dataset("syn", {"num_entities": 40, "seed": 3})
        params = {"bursts": 2, "events_per_burst": 30, "seed": 8}
        first = build_churn_events("bursty_late", dataset, params)
        fresh = build_dataset("syn", {"num_entities": 40, "seed": 3})
        second = build_churn_events("bursty_late", fresh, params)
        assert first == second
        assert len(first) == 60

    def test_bursty_stream_contains_late_arrivals(self):
        dataset = build_dataset("syn", {"num_entities": 40, "seed": 3})
        events = build_churn_events(
            "bursty_late", dataset,
            {"bursts": 3, "events_per_burst": 40, "late_lag": 30, "seed": 1},
        )
        # Submission order is not timestamp order: at least one event ends
        # earlier than a predecessor (that is what "late arrival" means).
        assert any(
            later.end < earlier.end
            for earlier, later in zip(events, events[1:])
        )

    def test_clone_families_produce_identical_traces(self):
        dataset = build_dataset(
            "clone_families",
            {"num_families": 3, "family_size": 3, "distinguish_probability": 0.0,
             "num_background": 0, "seed": 2},
        )
        for family in range(3):
            prototype = dataset.trace(f"cf-{family}-0")
            for member in range(1, 3):
                clone = dataset.trace(f"cf-{family}-{member}")
                assert [(p.unit, p.start, p.end) for p in clone] == [
                    (p.unit, p.start, p.end) for p in prototype
                ]


class TestOracleFinalStateRule:
    """The ground truth's final-state rule matches a real ingestor replay.

    The oracle computes the post-churn dataset *without* the streaming
    machinery (records with ``end > watermark - window`` survive).  Fuzz
    that claim against an actual :class:`EventIngestor` under random batch
    sizes: the surviving traces must be identical no matter how the stream
    is chopped into micro-batches.
    """

    @pytest.mark.parametrize("fuzz_seed", [7, 19])
    def test_rule_matches_real_ingestor_replay(self, fuzz_seed, seeded_rng):
        rng = seeded_rng(fuzz_seed)
        spec = get_scenario("bursty-late")
        truth = GroundTruth(spec, smoke=True)
        assert truth.events, "the fuzz needs a churn stream"

        dataset = build_dataset(spec.dataset.generator, spec.dataset.resolve(True))
        engine = TraceQueryEngine(dataset, num_hashes=8, seed=0).build()
        ingestor = EventIngestor(
            engine,
            config=StreamingConfig(
                max_batch_events=rng.randrange(1, 50),
                window=spec.churn.window,
                compact_after=spec.churn.compact_after,
            ),
        )
        remaining = list(truth.events)
        while remaining:
            take = rng.randrange(1, 40)
            chunk, remaining = remaining[:take], remaining[take:]
            ingestor.extend(chunk)
            if rng.random() < 0.5:
                ingestor.flush()
        ingestor.close()

        oracle_final = truth._final
        assert sorted(dataset.entities) == sorted(oracle_final.entities)
        for entity in dataset.entities:
            assert sorted(dataset.trace(entity)) == sorted(
                oracle_final.trace(entity)
            ), f"trace mismatch for {entity!r}"


class TestRunnerInProcess:
    """A real runner pass over the engine-level backends (no sockets)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_scenarios(
            names=["clone-families", "churn-compaction"],
            backends=["in_process", "sharded"],
            smoke=True,
        )

    def test_exact_agreement_everywhere(self, report):
        assert report["summary"]["all_passed"] is True
        assert report["summary"]["exact"] == report["summary"]["queries"]
        for entry in report["scenarios"]:
            for backend_entry in entry["backends"]:
                assert backend_entry["accuracy"]["exact_fraction"] == 1.0
                assert backend_entry["accuracy"]["mismatches"] == []

    def test_latency_sections_are_populated(self, report):
        for entry in report["scenarios"]:
            for backend_entry in entry["backends"]:
                latency = backend_entry["latency"]
                assert latency["count"] == entry["queries"]["count"]
                assert latency["p50_ms"] is not None
                assert latency["mean_ms"] is not None

    def test_report_validates_and_survives_json(self, report):
        assert validate_report(report) == []
        round_tripped = json.loads(json.dumps(report))
        assert validate_report(round_tripped) == []

    def test_html_rendering(self, report):
        page = render_html(report)
        assert "clone-families" in page
        assert "PASS" in page
        assert "<table>" in page

    def test_validator_rejects_mutations(self, report):
        broken = json.loads(json.dumps(report))
        broken["version"] = REPORT_VERSION + 1
        assert any("version" in problem for problem in validate_report(broken))

        broken = json.loads(json.dumps(report))
        del broken["summary"]["all_passed"]
        assert validate_report(broken)

        broken = json.loads(json.dumps(report))
        entry = broken["scenarios"][0]["backends"][0]
        entry["accuracy"]["exact"] = entry["accuracy"]["queries"] + 1
        assert any("out of range" in problem for problem in validate_report(broken))

        broken = json.loads(json.dumps(report))
        broken["summary"]["all_passed"] = False
        assert any("disagrees" in problem for problem in validate_report(broken))


class TestBackendsRegistry:
    def test_registry_shape(self):
        assert set(DEFAULT_BACKENDS) <= set(BACKENDS)
        assert {"in_process", "sharded", "http", "http_workers"} <= set(BACKENDS)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("nope")

    def test_http_workers_factory_is_distinct(self):
        backend = make_backend("http_workers")
        assert backend.name == "http_workers"
        assert backend.workers == 2
        backend.close()  # never started: must be a clean no-op


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output

    def test_list_json_and_tag_filter(self, capsys):
        assert main(["scenario", "list", "--json", "--tag", "hostile"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert specs and all("hostile" in spec["tags"] for spec in specs)

    def test_list_unknown_tag_errors(self, capsys):
        assert main(["scenario", "list", "--tag", "no-such-tag"]) == 2
        assert "no scenario carries tag" in capsys.readouterr().err

    def test_run_rejects_bad_selections(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert main(["scenario", "run", "--all", "im-mobility"]) == 2
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert main(["scenario", "run", "--all", "--backends", "nope"]) == 2

    def test_report_rejects_missing_and_invalid_files(self, tmp_path, capsys):
        assert main(["scenario", "report", "--input", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "report", "--input", str(bad)]) == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"version": REPORT_VERSION}))
        assert main(["scenario", "report", "--input", str(invalid)]) == 2

    def test_run_and_report_round_trip(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        html = tmp_path / "report.html"
        code = main(
            [
                "scenario", "run", "clone-families", "--smoke", "--quiet",
                "--backends", "in_process",
                "--output", str(output), "--html", str(html),
            ]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert validate_report(report) == []
        assert report["summary"]["all_passed"] is True
        assert "clone-families" in html.read_text()

        assert main(["scenario", "report", "--input", str(output)]) == 0
        summary_line = capsys.readouterr().out
        assert "PASS" in summary_line and "clone-families" in summary_line


@pytest.mark.scenario
class TestHttpBackendsEndToEnd:
    """The live-socket backends, exercised by the dedicated CI job."""

    def test_http_and_workers_agree_with_oracle(self):
        report = run_scenarios(
            names=["wifi-crime", "bursty-late"],
            backends=["http", "http_workers"],
            smoke=True,
        )
        assert validate_report(report) == []
        assert report["summary"]["all_passed"] is True
        for entry in report["scenarios"]:
            for backend_entry in entry["backends"]:
                assert backend_entry["accuracy"]["exact_fraction"] == 1.0


@pytest.mark.slow
class TestFullScaleCorpus:
    """The un-smoked corpus on the engine backends (minutes, not seconds)."""

    def test_full_corpus_in_process(self):
        report = run_scenarios(backends=["in_process"], smoke=False)
        assert report["summary"]["all_passed"] is True
