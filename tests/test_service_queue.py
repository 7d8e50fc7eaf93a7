"""Job queue state machine over the filesystem backend.

Covers the full lifecycle (queued -> running -> terminal), priority
ordering, the two separate failure budgets (execution retries vs
worker-death requeues), cancellation in both phases, stale-heartbeat
requeue and — the acceptance criterion of the service PR — restart
recovery: a queue rebuilt over the same storage directory resumes
interrupted work with no lost or duplicated artifacts.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.service.queue import (JOB_STATES, MAX_REQUEUES, TERMINAL_STATES,
                                 Job, JobQueue)
from repro.service.storage import FileStorage


@pytest.fixture()
def storage(tmp_path):
    return FileStorage(tmp_path / "store")


@pytest.fixture()
def queue(storage):
    return JobQueue(storage)


class TestLifecycle:
    def test_submit_persists_a_queued_record(self, queue):
        job = queue.submit(params={"key": "T1", "fast": True}, priority=2)
        assert job.state == "queued"
        loaded = queue.get(job.job_id)
        assert loaded is not None
        assert loaded.params == {"key": "T1", "fast": True}
        assert loaded.priority == 2
        assert not loaded.terminal

    def test_claim_marks_running_and_counts_attempt(self, queue):
        job = queue.submit(params={"key": "T1"})
        claimed = queue.claim_next("w001")
        assert claimed is not None and claimed.job_id == job.job_id
        assert claimed.state == "running"
        assert claimed.worker == "w001"
        assert claimed.attempts == 1
        assert queue.claim_next("w002") is None  # nothing else queued

    def test_complete_stores_artifact_before_terminal_state(self, queue,
                                                            storage):
        job = queue.submit(params={"key": "T1"})
        claimed = queue.claim_next("w001")
        done = queue.complete(claimed, {"experiment_id": "T1"})
        assert done.state == "done"
        assert storage.load_artifact(job.job_id) == {"experiment_id": "T1"}
        assert storage.claim_owner(job.job_id) is None

    def test_structured_failure_is_terminal_not_retried(self, queue):
        queue.submit(params={"key": "BOOM"}, max_retries=5)
        claimed = queue.claim_next("w001")
        settled = queue.complete(claimed, {"experiment_id": "BOOM"},
                                 failed_result=True)
        assert settled.state == "failed"
        assert settled.attempts == 1  # deterministic failure: no retry
        assert queue.claim_next("w001") is None

    def test_state_vocabulary(self):
        assert JOB_STATES == ("queued", "running", "done", "failed",
                              "cancelled")
        assert TERMINAL_STATES == {"done", "failed", "cancelled"}


class TestPriorities:
    def test_higher_priority_claims_first(self, queue):
        low = queue.submit(params={"key": "A"}, priority=0)
        high = queue.submit(params={"key": "B"}, priority=5)
        assert queue.claim_next("w001").job_id == high.job_id
        assert queue.claim_next("w001").job_id == low.job_id

    def test_ties_break_on_submission_order(self, queue):
        first = queue.submit(params={"key": "A"})
        second = queue.submit(params={"key": "B"})
        assert queue.claim_next("w001").job_id == first.job_id
        assert queue.claim_next("w001").job_id == second.job_id


class TestRetries:
    def test_fail_requeues_with_backoff_gate(self, queue):
        queue.submit(params={"key": "T1"}, max_retries=2, retry_backoff=30.0)
        claimed = queue.claim_next("w001")
        failed = queue.fail(claimed, "child crashed")
        assert failed.state == "queued"
        assert failed.error == "child crashed"
        assert failed.not_before > time.time() + 10
        # The backoff gate hides it from claimants until it matures.
        assert queue.claim_next("w002") is None

    def test_matured_retry_is_claimable(self, queue):
        queue.submit(params={"key": "T1"}, max_retries=2, retry_backoff=0.0)
        queue.fail(queue.claim_next("w001"), "crash")
        retried = queue.claim_next("w002")
        assert retried is not None
        assert retried.attempts == 2

    def test_budget_exhaustion_is_terminal(self, queue):
        queue.submit(params={"key": "T1"}, max_retries=1, retry_backoff=0.0)
        queue.fail(queue.claim_next("w001"), "crash 1")
        final = queue.fail(queue.claim_next("w001"), "crash 2")
        assert final.state == "failed"
        assert "crash 2" in final.error
        assert queue.claim_next("w001") is None


class TestCancel:
    def test_queued_job_cancels_immediately(self, queue):
        job = queue.submit(params={"key": "T1"})
        cancelled = queue.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        assert queue.claim_next("w001") is None

    def test_running_job_gets_cooperative_flag(self, queue):
        job = queue.submit(params={"key": "T1"})
        queue.claim_next("w001")
        flagged = queue.cancel(job.job_id)
        assert flagged.state == "running"
        assert flagged.cancel_requested
        settled = queue.finish_cancel(flagged)
        assert settled.state == "cancelled"

    def test_terminal_job_is_left_alone(self, queue):
        job = queue.submit(params={"key": "T1"})
        queue.complete(queue.claim_next("w001"), {"experiment_id": "T1"})
        assert queue.cancel(job.job_id).state == "done"

    def test_cancel_of_unknown_job(self, queue):
        assert queue.cancel("ghost") is None


class TestStaleRequeue:
    def test_dead_workers_job_is_requeued(self, queue, storage):
        job = queue.submit(params={"key": "T1"})
        queue.claim_next("w001")
        storage.beat("w001", {"at": time.time() - 60, "pid": 1, "job": None})
        requeued = queue.requeue_stale(heartbeat_timeout=2.0)
        assert [j.job_id for j in requeued] == [job.job_id]
        assert requeued[0].state == "queued"
        assert requeued[0].requeues == 1
        assert requeued[0].attempts == 1  # worker death burns no retry

    def test_live_workers_job_is_untouched(self, queue, storage):
        queue.submit(params={"key": "T1"})
        queue.claim_next("w001")
        storage.beat("w001", {"at": time.time(), "pid": 1, "job": None})
        assert queue.requeue_stale(heartbeat_timeout=2.0) == []

    def test_requeue_cap_declares_failure(self, queue, storage):
        job = queue.submit(params={"key": "T1"})
        for _ in range(MAX_REQUEUES):
            queue.claim_next("w001")
            storage.beat("w001", {"at": 0.0, "pid": 1, "job": None})
            assert queue.requeue_stale(2.0)[0].state == "queued"
        queue.claim_next("w001")
        storage.beat("w001", {"at": 0.0, "pid": 1, "job": None})
        final = queue.requeue_stale(2.0)[0]
        assert final.state == "failed"
        assert "requeues" in final.error
        assert queue.get(job.job_id).state == "failed"


class TestRestartRecovery:
    """Kill the service, rebuild over the same directory, lose nothing."""

    def test_running_jobs_resume_after_restart(self, storage):
        before = JobQueue(storage)
        interrupted = before.submit(params={"key": "T1"})
        before.claim_next("w001")
        waiting = before.submit(params={"key": "F2"})
        # Simulated crash: a brand-new queue over the same storage.
        after = JobQueue(FileStorage(storage.root))
        recovered = after.recover()
        assert [j.job_id for j in recovered] == [interrupted.job_id]
        states = {j.job_id: j.state for j in after.jobs()}
        assert states == {interrupted.job_id: "queued",
                          waiting.job_id: "queued"}
        # Both claimable again — the stale claim was released.
        assert after.claim_next("w001") is not None
        assert after.claim_next("w002") is not None

    def test_done_jobs_keep_their_artifacts(self, storage):
        before = JobQueue(storage)
        job = before.submit(params={"key": "T1"})
        before.complete(before.claim_next("w001"), {"experiment_id": "T1"})
        after = JobQueue(FileStorage(storage.root))
        assert after.recover() == []
        assert after.get(job.job_id).state == "done"
        assert storage.load_artifact(job.job_id) == {"experiment_id": "T1"}
        # No duplicated work: nothing is claimable.
        assert after.claim_next("w001") is None

    def test_cancel_requested_job_settles_on_recovery(self, storage):
        before = JobQueue(storage)
        job = before.submit(params={"key": "T1"})
        before.claim_next("w001")
        before.cancel(job.job_id)
        after = JobQueue(FileStorage(storage.root))
        recovered = after.recover()
        assert recovered[0].state == "cancelled"


class TestJobSerialization:
    def test_round_trip(self):
        job = Job(job_id="j1", params={"key": "T1"}, priority=3,
                  timeout=12.5, max_retries=2)
        assert Job.from_dict(job.to_dict()) == job

    def test_unknown_fields_are_dropped(self):
        payload = Job(job_id="j1").to_dict()
        payload["from_the_future"] = True
        assert Job.from_dict(payload).job_id == "j1"

    def test_stream_logs_lifecycle(self, queue, storage):
        import json
        job = queue.submit(params={"key": "T1"})
        queue.claim_next("w001")
        queue.complete(queue.get(job.job_id), {"experiment_id": "T1"})
        lines, _ = storage.read_stream(job.job_id)
        states = [json.loads(line)["state"] for line in lines]
        # Stream resets on claim: exactly one attempt is visible.
        assert states == ["running", "done"]


class TestSettledRecords:
    """Terminal records are read once per queue; live ones every time."""

    def test_cached_terminal_record_equals_disk(self, queue, storage):
        job = queue.submit(params={"key": "T1"})
        queue.complete(queue.claim_next("w001"), {"experiment_id": "T1"})
        first = queue.get(job.job_id)
        assert first.to_dict() == storage.load_job(job.job_id)
        # A caller mutating its copy does not touch the cached record.
        first.params["key"] = "mutated"
        first.state = "queued"
        again = queue.get(job.job_id)
        assert again.to_dict() == storage.load_job(job.job_id)

    def test_scans_skip_settled_records_on_disk(self, queue, storage,
                                                monkeypatch):
        for _ in range(3):
            queue.submit(params={"key": "T1"})
            queue.complete(queue.claim_next("w001"), {})
        live = queue.submit(params={"key": "F2"})
        queue.counts()  # reads every record once
        loads = []
        real_load = storage.load_job

        def counting_load(job_id):
            loads.append(job_id)
            return real_load(job_id)

        monkeypatch.setattr(storage, "load_job", counting_load)
        assert queue.counts()["done"] == 3
        assert loads == [live.job_id]

    def test_running_record_is_reread(self, queue, storage):
        job = queue.submit(params={"key": "T1"})
        queue.claim_next("w001")
        assert not queue.get(job.job_id).cancel_requested
        # Another process (the API) asks for cancellation.
        JobQueue(FileStorage(storage.root)).cancel(job.job_id)
        assert queue.get(job.job_id).cancel_requested


class TestWakeHints:
    def test_submit_survives_dead_and_full_fifos(self, queue, storage):
        wake = storage.root / "wake"
        os.mkfifo(wake / "dead.fifo")  # no reader: ENXIO
        os.mkfifo(wake / "full.fifo")
        reader = os.open(wake / "full.fifo", os.O_RDONLY | os.O_NONBLOCK)
        writer = os.open(wake / "full.fifo", os.O_WRONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(BlockingIOError):
                while True:
                    os.write(writer, b"\0" * 4096)
            start = time.monotonic()
            for _ in range(5):
                queue.submit(params={"key": "T1"})
            assert time.monotonic() - start < 2.0
        finally:
            os.close(writer)
            os.close(reader)
        assert queue.counts()["queued"] == 5
