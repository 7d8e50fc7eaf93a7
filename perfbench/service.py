"""service-jobs: one client driving ``pels serve`` with one worker.

The jobs are analytic experiments (F2, F5, T1 in ``fast`` mode), whose
own work is small, so the service layer (HTTP API, persistent queue,
worker claim loop, per-job execution child, artifact storage) does most
of the work.  The seed shuffles the order of the mix, one block of the
three keys at a time, so every run submits the same proportions.

Two phases use the queue differently:

* a closed loop, one job at a time, where each job wakes an idle worker
  (latency is timed by the client from submit to seeing ``done``);
* a burst of jobs submitted in one request, where the worker claims
  back to back from a deep queue (throughput is jobs per second between
  the submit and the last ``finished_at``).
"""

from __future__ import annotations

import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.experiments.export import result_to_dict
from repro.experiments.runner import run_all
from repro.service.client import ServiceClient
from repro.service.worker import canonical_artifact_bytes

from .common import Outcome, cpu_seconds, median, peak_rss_mb, percentile

MIX: Tuple[str, ...] = ("F2", "F5", "T1")
#: Server starts timed for ``setup_s``; the last one serves the run.
SETUP_SPAWNS = 5
#: Share of the run's seconds given to the closed loop.
CLOSED_SHARE = 0.5
#: Burst size per second of the burst phase, in jobs (the burst runs at
#: about this rate on two cores).
BURST_JOBS_PER_S = 10
#: Client poll period while waiting for a job.
POLL_S = 0.01
START_TIMEOUT_S = 30.0
TERMINAL = ("done", "failed", "cancelled")

ROOT = Path(__file__).resolve().parents[1]


def job_keys(seed: int) -> Iterator[str]:
    """Endless seeded order of the mix, one shuffled block at a time."""
    rng = random.Random(seed)
    while True:
        block = list(MIX)
        rng.shuffle(block)
        yield from block


class Server:
    """A ``pels serve`` child process with one worker on a free port."""

    def __init__(self, storage: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--workers", "1", "--port", "0", "--storage", str(storage)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=str(ROOT))
        try:
            self.client = ServiceClient(port=self._read_port())
            self._wait_for_worker()
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn to an API that answers with a polling worker.
        self.startup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        # "-- pels service on http://127.0.0.1:PORT (1 worker(s), ..."
        marker = "http://"
        if marker not in line:
            raise RuntimeError(f"pels serve did not start: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _wait_for_worker(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            workers = self.client.health()["workers"]
            if workers and all(w["beat_age"] is not None
                               for w in workers.values()):
                return
            time.sleep(POLL_S)
        raise RuntimeError("pels serve worker never polled the queue")

    def stop(self) -> None:
        """Interrupt the service (it stops its worker) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _wait(client: ServiceClient, job_id: str) -> dict:
    while True:
        record = client.job(job_id)
        if record["state"] in TERMINAL:
            return record
        time.sleep(POLL_S)


def _closed_loop(client: ServiceClient, keys: Iterator[str],
                 seconds: float) -> List[Dict]:
    """Whole blocks of the mix, one job at a time, until time is spent."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        for _ in MIX:
            key = next(keys)
            started = time.perf_counter()
            job = client.submit([{"key": key, "fast": True}])[0]
            submit_s = time.perf_counter() - started
            record = _wait(client, job["job_id"])
            seen_at = time.time()
            samples.append({"key": key, "record": record,
                            "latency_s": time.perf_counter() - started,
                            "submit_s": submit_s, "seen_at": seen_at})
    return samples


def _burst(client: ServiceClient, keys: Iterator[str],
           n_jobs: int) -> Tuple[List[dict], float]:
    """Submit ``n_jobs`` at once; returns their records and jobs/s."""
    batch = [next(keys) for _ in range(n_jobs)]
    submitted_at = time.time()
    jobs = client.submit([{"key": key, "fast": True} for key in batch])
    # One worker claims in submission order, so the last job ends last.
    _wait(client, jobs[-1]["job_id"])
    records = [_wait(client, job["job_id"]) for job in jobs]
    span = max(r["finished_at"] for r in records) - submitted_at
    return records, n_jobs / span


def _direct_artifact(key: str) -> dict:
    """The artifact of ``key`` run by the experiment runner in-process."""
    return result_to_dict(run_all(fast=True, only=key)[0])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    work = ROOT / ".perfbench-work" / f"service-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    server = None
    try:
        startups = []
        for index in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
            server = Server(work / f"storage-{index}")
            startups.append(server.startup_s)
        client = server.client
        keys = job_keys(seed)

        own0 = cpu_seconds()
        closed = _closed_loop(client, keys, seconds * CLOSED_SHARE)
        n_burst = len(MIX) * max(1, round(
            seconds * (1 - CLOSED_SHARE) * BURST_JOBS_PER_S / len(MIX)))
        burst, jobs_per_s = _burst(client, keys, n_burst)
        own_cpu = cpu_seconds() - own0

        first_done = {}
        for sample in closed:
            record = sample["record"]
            if record["state"] == "done":
                first_done.setdefault(sample["key"], record["job_id"])
        artifacts = {key: client.artifact(job_id)
                     for key, job_id in first_done.items()}
        server.stop()
        server = None
        children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    records = [s["record"] for s in closed] + burst
    for record in records:
        out.check(record["state"] == "done",
                  f"service: job {record['job_id']} "
                  f"({record['params'].get('key')}) ended "
                  f"{record['state']}: {record.get('error')}")
    for key in MIX:
        same = key in artifacts and (
            canonical_artifact_bytes(artifacts[key])
            == canonical_artifact_bytes(_direct_artifact(key)))
        out.check(same, f"service: {key} artifact differs from a direct "
                        f"run of the experiment")

    latencies_ms = [s["latency_s"] * 1e3 for s in closed]
    print(f"service: {len(closed)} closed-loop jobs, burst of "
          f"{len(burst)}", file=sys.stderr)
    if not trace:
        out.metrics = {
            "setup_s": median(startups),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": jobs_per_s,
            "cpu_us_per_op": (own_cpu + children_cpu) / len(records) * 1e6,
            "latency_p50_ms": median(latencies_ms),
        }
        return out
    done = [s for s in closed if s["record"]["state"] == "done"]
    out.metrics = {
        # The traced run is the plain run; its spans are client timers
        # and the job records' own timestamps.
        "trace.overhead": 1.0,
        "service.submit_ms": median(s["submit_s"] * 1e3 for s in closed),
        "service.queue_wait_ms": median(
            (s["record"]["started_at"] - s["record"]["submitted_at"]) * 1e3
            for s in done),
        "service.run_ms": median(
            (s["record"]["finished_at"] - s["record"]["started_at"]) * 1e3
            for s in done),
        "service.observe_ms": median(
            (s["seen_at"] - s["record"]["finished_at"]) * 1e3
            for s in done),
        "service.job_latency_p90_ms": percentile(latencies_ms, 0.90),
        "service.attempts": sum(r["attempts"] for r in records),
        "service.requeues": sum(r["requeues"] for r in records),
        "service.failed": sum(1 for r in records if r["state"] != "done"),
        "service.children_cpu_s": children_cpu,
    }
    return out
