"""The write-ahead log and crash recovery, pinned end to end.

Three layers of guarantee, weakest to strongest:

* **Framing** -- records round-trip through segments, segments roll at the
  size limit, and a reopened log resumes the sequence where it left off.
* **Damage containment** -- a torn tail (garbage, truncated header or
  payload) is repaired at open time; a flipped checksum or missing magic
  stops both :meth:`WriteAheadLog.records` and :func:`scan_wal` cleanly at
  the last valid record, never mid-record and never with an exception.
* **Recovery equivalence** -- a process restarted from snapshot + WAL
  replay is *byte-identical* to one that never crashed: same stream state,
  same top-k answers, same compiled columnar arrays.  This is the theorem
  ``docs/DURABILITY.md`` describes: flushes are deterministic given their
  buffer and watermark, and the WAL records exactly those.
"""

import json
import os

import pytest

from repro import (
    EventIngestor,
    PresenceInstance,
    SpatialHierarchy,
    TraceDataset,
    TraceQueryEngine,
)
from repro.cli import main as cli_main
from repro.core.columnar import ColumnarTree
from repro.server.generation import GenerationStore
from repro.server.recovery import recover_serving_state, replay_wal_into_engine
from repro.storage.snapshot import load_engine_snapshot, read_manifest
from repro.streaming import (
    StreamingConfig,
    WriteAheadLog,
    replay_into,
    scan_wal,
)
from repro.streaming.wal import MAGIC

HORIZON = 120
KNOBS = dict(num_hashes=32, seed=7)


@pytest.fixture(scope="module")
def hierarchy():
    return SpatialHierarchy.regular([2, 3, 2], prefix="f")


def make_stream(hierarchy, rng, count, num_entities=14, span=100):
    events = []
    for _ in range(count):
        start = rng.randrange(0, span)
        events.append(
            PresenceInstance(
                entity=f"s{rng.randrange(num_entities)}",
                unit=rng.choice(hierarchy.base_units),
                start=start,
                end=start + rng.randrange(1, 5),
            )
        )
    events.sort(key=lambda p: (p.start, p.end, p.entity, p.unit))
    return events


def fresh_engine(hierarchy):
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    return TraceQueryEngine(dataset, **KNOBS).build()


def batches_of(events, size):
    return [events[i : i + size] for i in range(0, len(events), size)]


def canonical_topk(engine, k=5):
    """Canonical bytes of every entity's top-k answer."""
    payload = {
        entity: engine.top_k(entity, k=k).items
        for entity in sorted(engine.dataset.entities)
    }
    return json.dumps(payload, sort_keys=True)


def assert_engines_byte_identical(left, right):
    """Stream-visible state AND compiled kernel arrays must match exactly."""
    assert sorted(left.dataset.entities) == sorted(right.dataset.entities)
    assert canonical_topk(left) == canonical_topk(right)
    left_arrays = ColumnarTree.compile(left._tree, left.dataset).export_arrays()
    right_arrays = ColumnarTree.compile(right._tree, right.dataset).export_arrays()
    assert sorted(left_arrays) == sorted(right_arrays)
    for name, array in left_arrays.items():
        assert array.dtype == right_arrays[name].dtype, name
        assert array.tobytes() == right_arrays[name].tobytes(), name


# ---------------------------------------------------------------------------
# Framing: append / iterate / roll / reopen
# ---------------------------------------------------------------------------
class TestFraming:
    def test_append_iterate_round_trip(self, tmp_path, hierarchy, seeded_rng):
        rng = seeded_rng(1)
        events = make_stream(hierarchy, rng, count=30)
        with WriteAheadLog(tmp_path) as wal:
            for index, batch in enumerate(batches_of(events, 6), start=1):
                seq = wal.append(batch, watermark=10 * index)
                assert seq == index
            assert wal.last_seq == 5
        records = list(WriteAheadLog(tmp_path).records())
        assert [record.seq for record in records] == [1, 2, 3, 4, 5]
        assert [record.watermark for record in records] == [10, 20, 30, 40, 50]
        replayed = [event for record in records for event in record.events]
        assert list(replayed) == events

    def test_records_suffix_from_start_seq(self, tmp_path, hierarchy, seeded_rng):
        events = make_stream(hierarchy, seeded_rng(2), count=20)
        with WriteAheadLog(tmp_path) as wal:
            for batch in batches_of(events, 4):
                wal.append(batch, watermark=batch[-1].end)
        assert [r.seq for r in WriteAheadLog(tmp_path).records(start_seq=4)] == [4, 5]

    def test_segments_roll_at_size_limit(self, tmp_path, hierarchy, seeded_rng):
        events = make_stream(hierarchy, seeded_rng(3), count=40)
        with WriteAheadLog(tmp_path, segment_max_bytes=256) as wal:
            for batch in batches_of(events, 4):
                wal.append(batch, watermark=batch[-1].end)
        segments = sorted(p.name for p in tmp_path.iterdir())
        assert len(segments) > 1, "256-byte segments must roll"
        for name in segments:
            assert (tmp_path / name).read_bytes().startswith(MAGIC)
        # Segment files are named by their first sequence number.
        report = scan_wal(tmp_path)
        assert not report.corrupt
        assert report.total_records == 10
        for info in report.segments:
            assert info.path.name == f"wal-{info.first_seq:08d}.log"

    def test_reopen_resumes_sequence(self, tmp_path, hierarchy, seeded_rng):
        events = make_stream(hierarchy, seeded_rng(4), count=24)
        first, second = batches_of(events, 12)
        with WriteAheadLog(tmp_path) as wal:
            wal.append(first, watermark=50)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 1
            assert wal.append(second, watermark=90) == 2
        records = list(WriteAheadLog(tmp_path).records())
        assert [record.seq for record in records] == [1, 2]
        assert [event for r in records for event in r.events] == first + second


# ---------------------------------------------------------------------------
# Damage containment: torn tails, flipped bits, lost magic
# ---------------------------------------------------------------------------
def build_log(tmp_path, hierarchy, rng, count=30, batch=6, **wal_kwargs):
    events = make_stream(hierarchy, rng, count=count)
    with WriteAheadLog(tmp_path, **wal_kwargs) as wal:
        for chunk in batches_of(events, batch):
            wal.append(chunk, watermark=chunk[-1].end)
    return events


def only_segment(tmp_path):
    segments = sorted(tmp_path.glob("wal-*.log"))
    assert len(segments) == 1
    return segments[0]


class TestDamageContainment:
    def test_garbage_tail_repaired_on_open(self, tmp_path, hierarchy, seeded_rng):
        build_log(tmp_path, hierarchy, seeded_rng(10))
        segment = only_segment(tmp_path)
        clean_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\x7fgarbage-from-a-torn-write")
        before = scan_wal(tmp_path)
        assert before.corrupt and before.segments[-1].truncated
        assert before.last_seq == 5  # the valid prefix survives the tear

        with WriteAheadLog(tmp_path) as wal:  # open-time repair
            assert wal.last_seq == 5
            assert segment.stat().st_size == clean_size
            wal.append(
                [PresenceInstance("late", hierarchy.base_units[0], 200, 204)],
                watermark=204,
            )
        after = scan_wal(tmp_path)
        assert not after.corrupt
        assert after.last_seq == 6

    @pytest.mark.parametrize("kind", ["header", "payload"])
    def test_truncated_tail_stops_at_last_valid_record(
        self, tmp_path, hierarchy, kind, seeded_rng
    ):
        build_log(tmp_path, hierarchy, seeded_rng(11))
        segment = only_segment(tmp_path)
        report = scan_wal(tmp_path)
        last_record_bytes = (
            report.segments[0].valid_bytes
            - report.segments[0].valid_bytes // report.segments[0].records
        )
        # Cut mid-header (3 bytes past the previous record) or mid-payload
        # (well inside the final record's JSON body).
        data = segment.read_bytes()
        cut = last_record_bytes + (3 if kind == "header" else 12)
        segment.write_bytes(data[:cut])

        records = list(WriteAheadLog(tmp_path).records())
        assert [record.seq for record in records] == [1, 2, 3, 4]
        repaired = scan_wal(tmp_path)  # the open above repaired the tear
        assert not repaired.corrupt
        assert repaired.last_seq == 4
        with WriteAheadLog(tmp_path) as wal:
            unit = hierarchy.base_units[0]
            assert wal.append([PresenceInstance("x", unit, 1, 2)], watermark=2) == 5

    def test_checksum_flip_stops_replay_cleanly(self, tmp_path, hierarchy, seeded_rng):
        events = build_log(tmp_path, hierarchy, seeded_rng(12))
        assert len(events) == 30
        segment = only_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        # Flip one byte inside the *third* record's payload: replay must
        # keep records 1-2 and surrender everything from the flip on.
        per_record = (len(data) - len(MAGIC)) // 5
        flip_at = len(MAGIC) + 2 * per_record + per_record // 2
        data[flip_at] ^= 0xFF
        segment.write_bytes(bytes(data))

        report = scan_wal(tmp_path)
        assert report.corrupt
        assert report.segments[0].error == "checksum mismatch"
        assert report.last_seq == 2
        assert [r.seq for r in WriteAheadLog(tmp_path).records()] == [1, 2]

    def test_defective_segment_blocks_later_segments(
        self, tmp_path, hierarchy, seeded_rng
    ):
        build_log(
            tmp_path, hierarchy, seeded_rng(13), count=40, batch=4, segment_max_bytes=256
        )
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) >= 3
        # Corrupt the second segment's first record payload.
        data = bytearray(segments[1].read_bytes())
        data[len(MAGIC) + 12] ^= 0xFF
        segments[1].write_bytes(bytes(data))

        report = scan_wal(tmp_path)
        assert report.corrupt
        assert report.segments[1].error == "checksum mismatch"
        assert all(info.error == "unreachable" for info in report.segments[2:])
        replayable = [r.seq for r in WriteAheadLog(tmp_path).records()]
        assert replayable == list(range(1, report.last_seq + 1))
        assert report.last_seq == report.segments[0].records

    def test_magic_lost_removes_segment(self, tmp_path, hierarchy, seeded_rng):
        build_log(tmp_path, hierarchy, seeded_rng(14))
        segment = only_segment(tmp_path)
        segment.write_bytes(MAGIC[:4])  # even the magic was torn
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 0
            assert not segment.exists()
            unit = hierarchy.base_units[0]
            assert wal.append([PresenceInstance("x", unit, 1, 2)], watermark=2) == 1


# ---------------------------------------------------------------------------
# Recovery equivalence: restart == never crashed
# ---------------------------------------------------------------------------
STREAMING = dict(max_batch_events=7, window=60, compact_after=5)


class TestRecoveryEquivalence:
    def test_full_replay_equals_never_crashed_oracle(
        self, tmp_path, hierarchy, seeded_rng
    ):
        events = make_stream(hierarchy, seeded_rng(20), count=120)
        live = fresh_engine(hierarchy)
        wal = WriteAheadLog(tmp_path / "wal")
        ingestor = EventIngestor(live, wal=wal, **STREAMING)
        ingestor.extend(events)
        ingestor.flush()
        wal.close()

        restarted = fresh_engine(hierarchy)
        summary, stream_state = replay_wal_into_engine(
            restarted,
            WriteAheadLog(tmp_path / "wal"),
            streaming=StreamingConfig(**STREAMING),
        )
        assert summary.last_seq == wal.last_seq
        assert summary.records == wal.last_seq
        assert stream_state == ingestor.stream_state()
        assert_engines_byte_identical(restarted, live)

    def test_snapshot_plus_wal_suffix_equals_oracle(
        self, tmp_path, hierarchy, seeded_rng
    ):
        """The real recovery path: restore a mid-stream snapshot, then
        replay only the WAL records *after* its stamped ``wal_seq``."""
        events = make_stream(hierarchy, seeded_rng(21), count=120)
        live = fresh_engine(hierarchy)
        wal = WriteAheadLog(tmp_path / "wal")
        ingestor = EventIngestor(live, wal=wal, **STREAMING)

        ingestor.extend(events[:60])
        ingestor.flush()
        snapshot = tmp_path / "snap"
        live.save(
            snapshot,
            extra_meta={"wal_seq": wal.last_seq, "stream": ingestor.stream_state()},
        )
        ingestor.extend(events[60:])
        ingestor.flush()
        wal.close()

        meta = read_manifest(snapshot)["extra"]
        assert meta["wal_seq"] > 0
        restarted = load_engine_snapshot(snapshot)
        summary, stream_state = replay_wal_into_engine(
            restarted,
            WriteAheadLog(tmp_path / "wal"),
            streaming=StreamingConfig(**STREAMING),
            meta=meta,
        )
        assert summary.records < wal.last_seq  # only the suffix replayed
        assert summary.last_seq == wal.last_seq
        assert stream_state == ingestor.stream_state()
        assert_engines_byte_identical(restarted, live)

    @pytest.mark.parametrize("store", ["absent", "empty", "older-build"])
    def test_a_store_that_gives_no_engine_resumes_at_the_snapshot_stamp(
        self, tmp_path, hierarchy, seeded_rng, store
    ):
        """Regression: with an empty or unloadable ``--store``, recovery
        ignored the ``--snapshot`` manifest's ``wal_seq`` and replayed the
        log from its first record, applying the snapshot's records twice.
        Such a store now counts as no store, with one note saying why."""
        events = make_stream(hierarchy, seeded_rng(24), count=120)
        live = fresh_engine(hierarchy)
        wal = WriteAheadLog(tmp_path / "wal")
        ingestor = EventIngestor(live, wal=wal, **STREAMING)
        ingestor.extend(events[:60])
        ingestor.flush()
        snapshot = tmp_path / "snap"
        meta = {"wal_seq": wal.last_seq, "stream": ingestor.stream_state()}
        live.save(snapshot, extra_meta=meta)
        ingestor.extend(events[60:])
        ingestor.flush()
        wal.close()

        store_root = None if store == "absent" else tmp_path / "store"
        if store == "older-build":
            # A generation an older build published: format 2 on disk.
            GenerationStore(store_root).publish(load_engine_snapshot(snapshot), meta)
            manifest_path = store_root / "gen-000001" / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["format_version"] = 2
            manifest_path.write_text(json.dumps(manifest))
        elif store == "empty":
            store_root.mkdir()

        engine, recovered_wal, stream_state, notes = recover_serving_state(
            load_engine_snapshot(snapshot),
            StreamingConfig(**STREAMING),
            wal_dir=tmp_path / "wal",
            store_root=store_root,
            snapshot=snapshot,
        )
        recovered_wal.close()
        assert stream_state == ingestor.stream_state()
        assert_engines_byte_identical(engine, live)
        assert engine.dataset.num_presences == live.dataset.num_presences
        store_notes = [note for note in notes if "WAL" not in note]
        if store == "absent":
            assert store_notes == []
        elif store == "empty":
            assert store_notes == [f"{store_root} holds no generation yet"]
        else:
            assert len(store_notes) == 1
            assert "re-create the snapshot with `repro index build`" in store_notes[0]

    def test_replay_after_torn_tail_recovers_acknowledged_prefix(
        self, tmp_path, hierarchy, seeded_rng
    ):
        """Crash mid-append: the torn final record is lost, every record
        before it replays, and the engine equals an oracle fed exactly the
        acknowledged batches."""
        events = make_stream(hierarchy, seeded_rng(22), count=84)
        live = fresh_engine(hierarchy)
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir)
        ingestor = EventIngestor(live, wal=wal, **STREAMING)
        ingestor.extend(events)
        ingestor.flush()
        wal.close()
        acknowledged = list(WriteAheadLog(wal_dir).records())

        # Tear the final record in half, as a crash mid-write would.
        segment = sorted(wal_dir.glob("wal-*.log"))[-1]
        report = scan_wal(wal_dir)
        info = report.segments[-1]
        keep = info.valid_bytes - (info.valid_bytes - len(MAGIC)) // info.records // 2
        segment.write_bytes(segment.read_bytes()[:keep])

        restarted = fresh_engine(hierarchy)
        summary, _ = replay_wal_into_engine(
            restarted,
            WriteAheadLog(wal_dir),
            streaming=StreamingConfig(**STREAMING),
        )
        assert summary.last_seq == len(acknowledged) - 1

        oracle = fresh_engine(hierarchy)
        oracle_ingestor = EventIngestor(oracle, **STREAMING)
        for record in acknowledged[:-1]:
            oracle_ingestor.ingest_batch(record.events, watermark=record.watermark)
        assert_engines_byte_identical(restarted, oracle)

    def test_replay_into_suspends_the_ingestors_own_wal(
        self, tmp_path, hierarchy, seeded_rng
    ):
        events = make_stream(hierarchy, seeded_rng(23), count=40)
        source = WriteAheadLog(tmp_path / "source")
        ingestor = EventIngestor(fresh_engine(hierarchy), wal=source, **STREAMING)
        ingestor.extend(events)
        ingestor.flush()
        source.close()

        own = WriteAheadLog(tmp_path / "own")
        target = EventIngestor(fresh_engine(hierarchy), wal=own, **STREAMING)
        replay_into(target, WriteAheadLog(tmp_path / "source"))
        assert own.last_seq == 0  # replay never re-appends durable records
        assert target.wal is own  # and the WAL is restored afterwards
        target.submit(PresenceInstance("x", hierarchy.base_units[0], 300, 302))
        target.flush()
        assert own.last_seq == 1  # live appends resume once replay is done


# ---------------------------------------------------------------------------
# CLI: repro wal inspect / repro wal replay
# ---------------------------------------------------------------------------
class TestCli:
    def test_inspect_reports_clean_log(self, tmp_path, hierarchy, seeded_rng, capsys):
        build_log(tmp_path, hierarchy, seeded_rng(30))
        assert cli_main(["wal", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "5 records" in out and "(ok)" in out

    def test_inspect_json_flags_corruption(self, tmp_path, hierarchy, seeded_rng, capsys):
        build_log(tmp_path, hierarchy, seeded_rng(31))
        segment = only_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[len(MAGIC) + 10] ^= 0xFF
        segment.write_bytes(bytes(data))
        assert cli_main(["wal", "inspect", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] is True
        assert payload["last_seq"] == 0
        assert payload["segments"][0]["error"] == "checksum mismatch"

    def test_replay_writes_a_loadable_recovered_snapshot(
        self, tmp_path, hierarchy, seeded_rng, capsys
    ):
        events = make_stream(hierarchy, seeded_rng(32), count=80)
        live = fresh_engine(hierarchy)
        wal = WriteAheadLog(tmp_path / "wal")
        ingestor = EventIngestor(live, wal=wal, **STREAMING)
        ingestor.extend(events[:40])
        ingestor.flush()
        snapshot = tmp_path / "snap"
        live.save(
            snapshot,
            extra_meta={"wal_seq": wal.last_seq, "stream": ingestor.stream_state()},
        )
        ingestor.extend(events[40:])
        ingestor.flush()
        wal.close()

        recovered_path = tmp_path / "recovered"
        code = cli_main(
            [
                "wal",
                "replay",
                str(tmp_path / "wal"),
                "--snapshot",
                str(snapshot),
                "--output",
                str(recovered_path),
                "--batch-size",
                str(STREAMING["max_batch_events"]),
                "--window",
                str(STREAMING["window"]),
                "--compact-every",
                str(STREAMING["compact_after"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered snapshot written" in out

        # The written snapshot round-trips through save/load once more, which
        # re-canonicalises tree shape -- so compare the query-visible state
        # (entities and every top-k answer), not raw kernel bytes.
        recovered = load_engine_snapshot(recovered_path)
        assert sorted(recovered.dataset.entities) == sorted(live.dataset.entities)
        assert canonical_topk(recovered) == canonical_topk(live)
        # The recovered snapshot is itself restartable: it stamps the WAL
        # position it already covers.
        extra = read_manifest(recovered_path)["extra"]
        assert extra["wal_seq"] == wal.last_seq
        assert extra["stream"] == ingestor.stream_state()
