"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.traces.io import load_hierarchy_json, load_traces_csv


@pytest.fixture
def generated_files(tmp_path):
    traces = tmp_path / "traces.csv"
    hierarchy = tmp_path / "hierarchy.json"
    code = main(
        [
            "generate",
            "syn",
            "--entities",
            "40",
            "--horizon",
            "48",
            "--seed",
            "3",
            "--output",
            str(traces),
            "--hierarchy",
            str(hierarchy),
        ]
    )
    assert code == 0
    return traces, hierarchy


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "wifi", "--output", "o.csv", "--hierarchy", "h.json"]
        )
        assert args.kind == "wifi"
        assert args.entities == 300

    def test_query_defaults(self):
        args = build_parser().parse_args(
            ["query", "--traces", "t.csv", "--hierarchy", "h.json", "--entity", "x"]
        )
        assert args.k == 10
        assert args.shards == 0
        # Index-shaping options default to None so the command can tell an
        # explicit flag from a default when --snapshot fixes the index.
        assert args.bound_mode is None
        assert args.num_hashes is None

    def test_index_build_arguments(self):
        args = build_parser().parse_args(
            [
                "index",
                "build",
                "--traces",
                "t.csv",
                "--hierarchy",
                "h.json",
                "--output",
                "snap",
            ]
        )
        assert args.index_command == "build"
        assert args.num_hashes == 256
        assert args.bound_mode == "lift"
        assert args.shards == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--traces", "t.csv", "--hierarchy", "h.json", "--entity", "e"],
            ["index", "build", "--traces", "t.csv", "--hierarchy", "h.json", "--output", "s"],
            ["stream", "--traces", "t.csv", "--hierarchy", "h.json"],
            ["serve", "--snapshot", "s"],
        ],
        ids=["query", "index-build", "stream", "serve"],
    )
    def test_sharding_subcommands_take_no_placement_flag(self, argv, capsys):
        """Shard placement is fixed, so no subcommand offers ``--partitioner``."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "--shards" in usage
        assert "--partitioner" not in usage
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--shards", "2", "--partitioner", "hash"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partitioner hash" in capsys.readouterr().err


class TestGenerate:
    def test_files_written_and_loadable(self, generated_files):
        traces, hierarchy_path = generated_files
        hierarchy = load_hierarchy_json(hierarchy_path)
        dataset = load_traces_csv(traces, hierarchy)
        assert dataset.num_entities == 40
        assert dataset.num_levels == 4

    def test_wifi_generation(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "wifi",
                "--entities",
                "25",
                "--output",
                str(tmp_path / "wifi.csv"),
                "--hierarchy",
                str(tmp_path / "wifi.json"),
            ]
        )
        assert code == 0
        assert "25 entities" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(["stats", "--traces", str(traces), "--hierarchy", str(hierarchy)])
        assert code == 0
        output = capsys.readouterr().out
        assert "entities=40" in output
        assert "ST-cell universe" in output


class TestQuery:
    def test_query_runs_and_prints_results(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "syn-0",
                "--k",
                "3",
                "--num-hashes",
                "32",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "top-3 associates of syn-0" in output
        assert "pruning effectiveness" in output

    def test_unknown_entity_fails_gracefully(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "nobody",
            ]
        )
        assert code == 2
        assert "unknown entity" in capsys.readouterr().err

    def test_batch_query_prints_aggregate_report(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--batch",
                "syn-0",
                "syn-1",
                "syn-2",
                "--workers",
                "2",
                "--k",
                "3",
                "--num-hashes",
                "32",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "top-3 associates of syn-0" in output
        assert "top-3 associates of syn-2" in output
        assert "batch: 3 queries" in output
        assert "workers=2" in output

    def test_batch_and_entity_are_mutually_exclusive(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "syn-0",
                "--batch",
                "syn-1",
            ]
        )
        assert code == 2
        assert "exactly one of --entity or --batch" in capsys.readouterr().err

    def test_neither_entity_nor_batch_fails(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(["query", "--traces", str(traces), "--hierarchy", str(hierarchy)])
        assert code == 2
        assert "exactly one of --entity or --batch" in capsys.readouterr().err

    def test_negative_workers_fails_gracefully(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--batch",
                "syn-0",
                "--workers",
                "-1",
            ]
        )
        assert code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_workers_without_batch_rejected(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "syn-0",
                "--workers",
                "4",
            ]
        )
        assert code == 2
        assert "--workers only applies to --batch" in capsys.readouterr().err

    def test_batch_unknown_entity_fails_gracefully(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--batch",
                "syn-0",
                "nobody",
            ]
        )
        assert code == 2
        assert "unknown entity 'nobody'" in capsys.readouterr().err

    def test_empty_dataset_exits_2_with_message(self, generated_files, tmp_path, capsys):
        """Regression: a trace file with no records must not raise."""
        _traces, hierarchy = generated_files
        empty = tmp_path / "empty.csv"
        empty.write_text("entity,unit,start,end\n")
        code = main(
            [
                "query",
                "--traces",
                str(empty),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "anyone",
            ]
        )
        assert code == 2
        assert "contains no trace records" in capsys.readouterr().err

    def test_headerless_trace_file_exits_2(self, generated_files, tmp_path, capsys):
        """Regression: a zero-byte/garbage CSV exits 2 instead of tracebacking."""
        _traces, hierarchy = generated_files
        blank = tmp_path / "blank.csv"
        blank.write_text("")
        code = main(
            ["query", "--traces", str(blank), "--hierarchy", str(hierarchy), "--entity", "x"]
        )
        assert code == 2
        assert "cannot load traces" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, generated_files, capsys):
        _traces, hierarchy = generated_files
        code = main(
            ["query", "--traces", "no-such.csv", "--hierarchy", str(hierarchy), "--entity", "x"]
        )
        assert code == 2
        assert "cannot load traces" in capsys.readouterr().err

    def test_missing_hierarchy_exits_2(self, generated_files, capsys):
        traces, _hierarchy = generated_files
        code = main(
            ["query", "--traces", str(traces), "--hierarchy", "no-such.json", "--entity", "x"]
        )
        assert code == 2
        assert "cannot load sp-index" in capsys.readouterr().err

    def test_approximate_query(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "syn-1",
                "--k",
                "2",
                "--num-hashes",
                "16",
                "--approximation",
                "0.2",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "--k must be >= 1, got 0"),
            (["--approximation", "-1"], "--approximation must be finite and >= 0, got -1.0"),
            (["--approximation", "inf"], "--approximation must be finite and >= 0, got inf"),
            (["--approximation", "nan"], "--approximation must be finite and >= 0, got nan"),
        ],
        ids=["k-zero", "approximation-negative", "approximation-inf", "approximation-nan"],
    )
    def test_invalid_result_flags_exit_2(self, generated_files, capsys, flags, message):
        traces, hierarchy = generated_files
        base = ["query", "--traces", str(traces), "--hierarchy", str(hierarchy)]
        assert main(base + ["--entity", "syn-0"] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestQueryModes:
    def test_sharded_query_matches_single_engine(self, generated_files, capsys):
        traces, hierarchy = generated_files
        base = [
            "query",
            "--traces",
            str(traces),
            "--hierarchy",
            str(hierarchy),
            "--entity",
            "syn-0",
            "--k",
            "3",
            "--num-hashes",
            "32",
        ]
        assert main(base) == 0
        single_output = capsys.readouterr().out
        assert main(base + ["--shards", "2"]) == 0
        sharded_output = capsys.readouterr().out
        # Ranked results (the lines before the stats line) must be identical.
        assert single_output.splitlines()[:4] == sharded_output.splitlines()[:4]

    def test_snapshot_and_traces_are_mutually_exclusive(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--snapshot",
                "somewhere",
                "--entity",
                "syn-0",
            ]
        )
        assert code == 2
        assert "either --snapshot or --traces" in capsys.readouterr().err

    def test_missing_inputs_rejected(self, capsys):
        code = main(["query", "--entity", "syn-0"])
        assert code == 2
        assert "pass --snapshot" in capsys.readouterr().err

    def test_nonexistent_snapshot_fails_gracefully(self, tmp_path, capsys):
        code = main(["query", "--snapshot", str(tmp_path / "missing"), "--entity", "x"])
        assert code == 2
        assert "not a snapshot directory" in capsys.readouterr().err


class TestIndex:
    @pytest.fixture
    def snapshot_dir(self, generated_files, tmp_path, capsys):
        traces, hierarchy = generated_files
        snapshot = tmp_path / "snap"
        code = main(
            [
                "index",
                "build",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--output",
                str(snapshot),
                "--num-hashes",
                "32",
            ]
        )
        assert code == 0
        capsys.readouterr()
        return snapshot

    def test_build_and_info(self, snapshot_dir, capsys):
        code = main(["index", "info", "--snapshot", str(snapshot_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "repro-engine-snapshot" in output
        assert "num_hashes=32" in output
        assert "fingerprint" in output

    def test_query_from_snapshot_matches_adhoc_build(self, generated_files, snapshot_dir, capsys):
        traces, hierarchy = generated_files
        code = main(["query", "--snapshot", str(snapshot_dir), "--entity", "syn-0", "--k", "3"])
        assert code == 0
        snapshot_output = capsys.readouterr().out
        code = main(
            [
                "query",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--entity",
                "syn-0",
                "--k",
                "3",
                "--num-hashes",
                "32",
            ]
        )
        assert code == 0
        adhoc_output = capsys.readouterr().out
        assert snapshot_output == adhoc_output

    def test_snapshot_unknown_entity_fails_gracefully(self, snapshot_dir, capsys):
        code = main(["query", "--snapshot", str(snapshot_dir), "--entity", "nobody"])
        assert code == 2
        assert "unknown entity 'nobody'" in capsys.readouterr().err

    def test_corrupt_snapshot_fails_gracefully(self, snapshot_dir, capsys):
        (snapshot_dir / "manifest.json").write_text("{truncated")
        code = main(["query", "--snapshot", str(snapshot_dir), "--entity", "syn-0"])
        assert code == 2
        assert "unreadable snapshot manifest" in capsys.readouterr().err

    def test_snapshot_rejects_index_options(self, snapshot_dir, capsys):
        code = main(
            [
                "query",
                "--snapshot",
                str(snapshot_dir),
                "--entity",
                "syn-0",
                "--num-hashes",
                "64",
            ]
        )
        assert code == 2
        assert "cannot be combined with --snapshot" in capsys.readouterr().err

    def test_sharded_build_and_batch_query(self, generated_files, tmp_path, capsys):
        traces, hierarchy = generated_files
        snapshot = tmp_path / "sharded-snap"
        code = main(
            [
                "index",
                "build",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--output",
                str(snapshot),
                "--num-hashes",
                "32",
                "--shards",
                "3",
            ]
        )
        assert code == 0
        assert "3-shard" in capsys.readouterr().out
        code = main(["index", "info", "--snapshot", str(snapshot)])
        assert code == 0
        assert "shards: 3" in capsys.readouterr().out
        code = main(
            [
                "query",
                "--snapshot",
                str(snapshot),
                "--batch",
                "syn-0",
                "syn-1",
                "--k",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "top-3 associates of syn-0" in output
        assert "batch: 2 queries" in output

    def test_info_and_query_on_older_sharded_manifest(self, generated_files, tmp_path, capsys):
        """Older builds wrote a ``partitioner`` block; it is ignored on read."""
        traces, hierarchy = generated_files
        snapshot = tmp_path / "sharded-snap"
        build = ["index", "build", "--traces", str(traces), "--hierarchy", str(hierarchy)]
        code = main([*build, "--output", str(snapshot), "--num-hashes", "32", "--shards", "2"])
        assert code == 0
        capsys.readouterr()
        query = ["query", "--snapshot", str(snapshot), "--entity", "syn-0", "--k", "3"]
        assert main(query) == 0
        expected = capsys.readouterr().out
        manifest_path = snapshot / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "partitioner" not in manifest
        manifest["partitioner"] = {"kind": "round_robin", "next_shard": 1}
        manifest_path.write_text(json.dumps(manifest))
        assert main(["index", "info", "--snapshot", str(snapshot)]) == 0
        output = capsys.readouterr().out
        assert "shards: 2" in output
        assert "partitioner" not in output
        assert main(query) == 0
        assert capsys.readouterr().out == expected


class TestStream:
    def test_stream_replays_and_reports(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "stream",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--batch-size",
                "32",
                "--window",
                "24",
                "--query-every",
                "200",
                "--k",
                "3",
                "--num-hashes",
                "16",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "streaming" in output and "single-engine index" in output
        assert "micro-batches" in output
        assert "window:" in output
        assert "queries:" in output
        assert "final index:" in output

    def test_stream_sharded_with_explicit_queries(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "stream",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--shards",
                "2",
                "--batch-size",
                "64",
                "--queries",
                "syn-0",
                "--query-every",
                "150",
                "--k",
                "2",
                "--num-hashes",
                "16",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "2-shard index" in output
        assert "top-2 of syn-0" in output

    def test_stream_empty_log_exits_2(self, generated_files, tmp_path, capsys):
        _traces, hierarchy = generated_files
        empty = tmp_path / "empty.csv"
        empty.write_text("entity,unit,start,end\n")
        code = main(
            ["stream", "--traces", str(empty), "--hierarchy", str(hierarchy)]
        )
        assert code == 2
        assert "contains no events" in capsys.readouterr().err

    def test_stream_unknown_query_entity_exits_2(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "stream",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--queries",
                "nobody",
                "--query-every",
                "100",
            ]
        )
        assert code == 2
        assert "never appears in the event log" in capsys.readouterr().err

    def test_stream_queries_require_query_every(self, generated_files, capsys):
        traces, hierarchy = generated_files
        code = main(
            [
                "stream",
                "--traces",
                str(traces),
                "--hierarchy",
                str(hierarchy),
                "--queries",
                "syn-0",
            ]
        )
        assert code == 2
        assert "--queries only applies together with --query-every" in capsys.readouterr().err

    def test_stream_mismatched_hierarchy_exits_2(self, generated_files, tmp_path, capsys):
        """Regression: log units unknown to the sp-index exit 2, no traceback."""
        from repro import SpatialHierarchy
        from repro.traces.io import write_hierarchy_json

        traces, _hierarchy = generated_files
        other = tmp_path / "other-hierarchy.json"
        # A valid sp-index whose unit names share nothing with the syn log.
        write_hierarchy_json(SpatialHierarchy.regular([2, 2], prefix="zz"), other)
        code = main(["stream", "--traces", str(traces), "--hierarchy", str(other)])
        assert code == 2
        assert "invalid event in" in capsys.readouterr().err

    def test_stream_rejects_negative_options(self, generated_files, capsys):
        traces, hierarchy = generated_files
        base = ["stream", "--traces", str(traces), "--hierarchy", str(hierarchy)]
        assert main(base + ["--rate", "-1"]) == 2
        assert main(base + ["--window", "-1"]) == 2
        assert main(base + ["--batch-size", "0"]) == 2
        capsys.readouterr()

    def test_stream_rejects_k_below_one_before_ingesting(self, generated_files, capsys):
        traces, hierarchy = generated_files
        base = ["stream", "--traces", str(traces), "--hierarchy", str(hierarchy)]
        assert main(base + ["--query-every", "50", "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --k must be >= 1, got 0\n")


class TestFigures:
    def test_single_figure(self, capsys):
        code = main(["figures", "--only", "7.8", "--scale", "tiny"])
        assert code == 0
        assert "figure-7.8" in capsys.readouterr().out

    def test_unknown_figure_rejected(self, capsys):
        code = main(["figures", "--only", "9.9"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err
