"""The filesystem JSON store behind the service layer.

Satellite coverage demanded by the service PR: round-trips for every
record family, corrupt-file recovery, and concurrent-writer atomicity
mirroring the runner's atomic-checkpoint tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import stat

import pytest

from repro.service.storage import FileStorage


@pytest.fixture()
def storage(tmp_path):
    return FileStorage(tmp_path / "store")


class TestLayout:
    def test_layout_created(self, storage):
        for sub in ("jobs", "claims", "artifacts", "baselines",
                    "heartbeats", "streams", "wake"):
            assert (storage.root / sub).is_dir()


class TestRoundTrips:
    def test_job_record(self, storage):
        payload = {"job_id": "j1", "state": "queued", "priority": 3}
        storage.save_job("j1", payload)
        assert storage.load_job("j1") == payload
        assert storage.list_job_ids() == ["j1"]

    def test_artifact(self, storage):
        payload = {"experiment_id": "T1", "metrics": {"x": 1.5}}
        storage.save_artifact("j1", payload)
        assert storage.load_artifact("j1") == payload
        assert storage.list_artifact_ids() == ["j1"]

    def test_baseline(self, storage):
        storage.save_baseline("bench", {"ns": 12.0})
        assert storage.load_baseline("bench") == {"ns": 12.0}
        assert storage.list_baseline_names() == ["bench"]

    def test_heartbeats(self, storage):
        storage.beat("w001", {"at": 1.0, "pid": 42, "job": None})
        storage.beat("w002", {"at": 2.0, "pid": 43, "job": "j1"})
        beats = storage.heartbeats()
        assert set(beats) == {"w001", "w002"}
        assert beats["w002"]["job"] == "j1"

    def test_missing_records_load_as_none(self, storage):
        assert storage.load_job("ghost") is None
        assert storage.load_artifact("ghost") is None
        assert storage.load_baseline("ghost") is None

    def test_overwrite_replaces(self, storage):
        storage.save_job("j1", {"state": "queued"})
        storage.save_job("j1", {"state": "running"})
        assert storage.load_job("j1") == {"state": "running"}
        assert storage.list_job_ids() == ["j1"]


class TestUnsafeNames:
    @pytest.mark.parametrize("name", ["", "../escape", "a/b", "a\\b",
                                      ".hidden"])
    def test_rejected(self, storage, name):
        with pytest.raises(ValueError):
            storage.save_job(name, {})
        with pytest.raises(ValueError):
            storage.load_baseline(name)


class TestCorruptionRecovery:
    def test_truncated_json_is_quarantined(self, storage):
        storage.save_job("j1", {"state": "queued"})
        path = storage.root / "jobs" / "j1.json"
        path.write_text('{"state": "que')  # crash mid-copy
        assert storage.load_job("j1") is None
        assert not path.exists()
        assert (storage.root / "jobs" / "j1.json.corrupt").exists()

    def test_non_object_payload_is_quarantined(self, storage):
        (storage.root / "jobs" / "j2.json").write_text("[1, 2, 3]")
        assert storage.load_job("j2") is None
        assert (storage.root / "jobs" / "j2.json.corrupt").exists()

    def test_scans_survive_a_corrupt_record(self, storage):
        storage.save_job("good", {"state": "queued"})
        (storage.root / "jobs" / "bad.json").write_bytes(b"\xff\xfe garbage")
        assert storage.load_job("bad") is None
        assert storage.load_job("good") == {"state": "queued"}


class TestClaims:
    def test_single_owner(self, storage):
        assert storage.try_claim("j1", "w001")
        assert not storage.try_claim("j1", "w002")
        assert storage.claim_owner("j1") == "w001"

    def test_release_reopens(self, storage):
        storage.try_claim("j1", "w001")
        storage.release_claim("j1")
        assert storage.claim_owner("j1") is None
        assert storage.try_claim("j1", "w002")

    def test_release_of_unclaimed_is_noop(self, storage):
        storage.release_claim("never-claimed")


def _claim_proc(root, owner, queue):
    storage = FileStorage(root)
    queue.put((owner, storage.try_claim("contested", owner)))


def _writer_proc(root, index, rounds):
    storage = FileStorage(root)
    for i in range(rounds):
        storage.save_job("shared", {"writer": index, "round": i,
                                    "pad": "x" * 512})


class TestConcurrency:
    def test_exactly_one_process_wins_a_claim(self, storage):
        ctx = multiprocessing.get_context()
        results = ctx.Queue()
        procs = [ctx.Process(target=_claim_proc,
                             args=(str(storage.root), f"w{i:03d}", results))
                 for i in range(8)]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=30) for _ in procs]
        for proc in procs:
            proc.join()
        winners = [owner for owner, won in outcomes if won]
        assert len(winners) == 1
        assert storage.claim_owner("contested") == winners[0]

    def test_concurrent_writers_never_interleave(self, storage):
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=_writer_proc,
                             args=(str(storage.root), i, 25))
                 for i in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        # Whatever write won, the record is one writer's intact
        # document — never a torn mix — and no temp litter remains.
        record = storage.load_job("shared")
        assert record is not None
        assert record["writer"] in range(4)
        assert record["pad"] == "x" * 512
        leftovers = [p for p in (storage.root / "jobs").iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []


class TestStreams:
    def test_append_and_read(self, storage):
        storage.append_stream("j1", ['{"a": 1}', '{"b": 2}'])
        lines, offset = storage.read_stream("j1")
        assert lines == ['{"a": 1}', '{"b": 2}']
        more, offset2 = storage.read_stream("j1", offset)
        assert more == [] and offset2 == offset

    def test_incremental_offsets(self, storage):
        storage.append_stream("j1", ["one"])
        lines, offset = storage.read_stream("j1")
        storage.append_stream("j1", ["two", "three"])
        lines, offset = storage.read_stream("j1", offset)
        assert lines == ["two", "three"]

    def test_partial_trailing_line_is_withheld(self, storage):
        path = storage.root / "streams" / "j1.jsonl"
        path.write_text("complete\npart")
        lines, offset = storage.read_stream("j1")
        assert lines == ["complete"]
        with open(path, "a") as handle:
            handle.write("ial\n")
        lines, _ = storage.read_stream("j1", offset)
        assert lines == ["partial"]

    def test_reset_below_offset_restarts(self, storage):
        storage.append_stream("j1", ["old-attempt-line-1",
                                     "old-attempt-line-2"])
        _, offset = storage.read_stream("j1")
        storage.reset_stream("j1")
        storage.append_stream("j1", ["fresh"])
        lines, new_offset = storage.read_stream("j1", offset)
        assert lines == ["fresh"]
        assert new_offset == len("fresh\n")

    def test_missing_stream_reads_empty(self, storage):
        assert storage.read_stream("ghost") == ([], 0)

    def test_empty_append_is_noop(self, storage):
        storage.append_stream("j1", [])
        assert storage.read_stream("j1") == ([], 0)


class TestWakeChannel:
    def test_wake_is_delivered_and_drained(self, storage):
        channel = storage.wake_channel("w001")
        try:
            assert not channel.wait(0.0)
            storage.wake_workers()
            storage.wake_workers()
            assert channel.wait(5.0)
            # Both pending wakes were drained by the first wait.
            assert not channel.wait(0.0)
        finally:
            channel.close()

    def test_close_removes_the_fifo(self, storage):
        channel = storage.wake_channel("w001")
        path = storage.root / "wake" / "w001.fifo"
        assert path.exists()
        channel.close()
        assert not path.exists()

    def test_non_fifo_squatter_is_replaced(self, storage):
        path = storage.root / "wake" / "w001.fifo"
        path.write_text("not a fifo")
        channel = storage.wake_channel("w001")
        try:
            assert stat.S_ISFIFO(os.stat(path).st_mode)
            storage.wake_workers()
            assert channel.wait(5.0)
        finally:
            channel.close()

    def test_unsafe_worker_id_rejected(self, storage):
        with pytest.raises(ValueError):
            storage.wake_channel("../escape")
