"""Persistence for the service layer.

Everything the service remembers — job records, result artifacts,
benchmark baselines, worker heartbeats, live job streams — lives in a
:class:`FileStorage` directory of JSON documents.

Every record is written with :func:`write_atomic` (the runner's
``--out-dir`` checkpoints use it too): a uniquely named temp file is
``rename``d into place, so a crash mid-write never leaves a truncated
document behind and concurrent writers never interleave.  Claims use
``open(..., "x")`` (O_CREAT|O_EXCL), the one filesystem primitive that
is atomic across processes, so N workers scanning the same queue
directory agree on exactly one owner per job.  A corrupt record — a
partially copied backup, a flipped bit — is quarantined to
``<name>.corrupt`` and treated as absent rather than poisoning every
subsequent scan.

Idle workers are woken through per-worker FIFOs (:class:`WakeChannel`,
:meth:`FileStorage.wake_workers`).  A wake is only a hint that the
queue changed: the job records stay the source of truth, and a worker
that misses one finds the job on its next fallback re-scan.
"""

from __future__ import annotations

import json
import os
import select
import stat
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["FileStorage", "WakeChannel", "write_atomic"]


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file.

    The text goes to a uniquely named temp file (pid + monotonic ns)
    that is then renamed into place: concurrent writers to the same
    path must not truncate each other's temp files, which a fixed
    ".tmp" suffix would allow.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{time.monotonic_ns()}.tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _safe_name(name: str) -> str:
    """Reject names that would escape the storage directory."""
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise ValueError(f"unsafe storage name: {name!r}")
    return name


class FileStorage:
    """Filesystem JSON store: one document per file, atomic writes.

    Layout under ``root``::

        jobs/<job_id>.json          job records (state machine inside)
        claims/<job_id>.claim       O_EXCL ownership markers
        artifacts/<job_id>.json     exported results (schema-versioned)
        baselines/<name>.json       benchmark baselines
        heartbeats/<worker>.json    worker liveness
        streams/<job_id>.jsonl      append-only live job streams
        wake/<worker>.fifo          idle workers' wake-up FIFOs
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        for sub in ("jobs", "claims", "artifacts", "baselines",
                    "heartbeats", "streams", "wake"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- primitives --------------------------------------------------------

    def _load_json(self, path: Path) -> Optional[dict]:
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._quarantine(path)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable record aside so scans stop tripping on it."""
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - lost a rename race
            pass

    @staticmethod
    def _ids(directory: Path, suffix: str) -> List[str]:
        return sorted(p.name[:-len(suffix)] for p in directory.iterdir()
                      if p.name.endswith(suffix))

    # -- job records -------------------------------------------------------

    def save_job(self, job_id: str, payload: dict) -> None:
        path = self.root / "jobs" / f"{_safe_name(job_id)}.json"
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))

    def load_job(self, job_id: str) -> Optional[dict]:
        return self._load_json(self.root / "jobs"
                               / f"{_safe_name(job_id)}.json")

    def list_job_ids(self) -> List[str]:
        return self._ids(self.root / "jobs", ".json")

    # -- claims ------------------------------------------------------------

    def _claim_path(self, job_id: str) -> Path:
        return self.root / "claims" / f"{_safe_name(job_id)}.claim"

    def try_claim(self, job_id: str, owner: str) -> bool:
        """Atomically take ownership; False if someone else holds it."""
        try:
            with open(self._claim_path(job_id), "x") as handle:
                handle.write(json.dumps({"owner": owner,
                                         "at": time.time()}))
        except FileExistsError:
            return False
        return True

    def release_claim(self, job_id: str) -> None:
        try:
            self._claim_path(job_id).unlink()
        except FileNotFoundError:
            pass

    def claim_owner(self, job_id: str) -> Optional[str]:
        payload = self._load_json(self._claim_path(job_id))
        return payload.get("owner") if payload else None

    # -- artifacts ---------------------------------------------------------

    def save_artifact(self, job_id: str, payload: dict) -> None:
        path = self.root / "artifacts" / f"{_safe_name(job_id)}.json"
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))

    def load_artifact(self, job_id: str) -> Optional[dict]:
        return self._load_json(self.root / "artifacts"
                               / f"{_safe_name(job_id)}.json")

    def list_artifact_ids(self) -> List[str]:
        return self._ids(self.root / "artifacts", ".json")

    # -- baselines ---------------------------------------------------------

    def save_baseline(self, name: str, payload: dict) -> None:
        path = self.root / "baselines" / f"{_safe_name(name)}.json"
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))

    def load_baseline(self, name: str) -> Optional[dict]:
        return self._load_json(self.root / "baselines"
                               / f"{_safe_name(name)}.json")

    def list_baseline_names(self) -> List[str]:
        return self._ids(self.root / "baselines", ".json")

    # -- heartbeats --------------------------------------------------------

    def beat(self, worker_id: str, payload: dict) -> None:
        path = self.root / "heartbeats" / f"{_safe_name(worker_id)}.json"
        write_atomic(path, json.dumps(payload, sort_keys=True))

    def heartbeats(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for worker_id in self._ids(self.root / "heartbeats", ".json"):
            payload = self._load_json(self.root / "heartbeats"
                                      / f"{worker_id}.json")
            if payload is not None:
                out[worker_id] = payload
        return out

    # -- streams -----------------------------------------------------------

    def _stream_path(self, job_id: str) -> Path:
        return self.root / "streams" / f"{_safe_name(job_id)}.jsonl"

    def append_stream(self, job_id: str, lines: List[str]) -> None:
        """Append whole lines; a single write so tails never see halves.

        POSIX O_APPEND writes of this size are atomic enough for the
        one-writer-per-attempt discipline the queue enforces (the
        stream is reset when a job is claimed, and only the claiming
        worker's child appends during an attempt).
        """
        if not lines:
            return
        with open(self._stream_path(job_id), "a") as handle:
            handle.write("".join(line + "\n" for line in lines))

    def reset_stream(self, job_id: str) -> None:
        write_atomic(self._stream_path(job_id), "")

    def read_stream(self, job_id: str,
                    offset: int = 0) -> Tuple[List[str], int]:
        """Complete lines after byte ``offset`` and the new offset.

        A trailing partial line (writer mid-append) is left for the
        next read.  If the stream was reset below ``offset`` the read
        restarts from the beginning, so tailing clients survive a job
        being requeued to a fresh attempt.
        """
        path = self._stream_path(job_id)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return [], 0
        if size < offset:
            offset = 0
        if size == offset:
            return [], offset
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read(size - offset)
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset
        complete = blob[:end + 1]
        lines = complete.decode("utf-8", "replace").splitlines()
        return lines, offset + end + 1

    # -- wake hints --------------------------------------------------------

    def wake_channel(self, worker_id: str) -> "WakeChannel":
        return WakeChannel(self.root / "wake"
                           / f"{_safe_name(worker_id)}.fifo")

    def wake_workers(self) -> None:
        """Write one byte to every worker's FIFO; never blocks or raises.

        Called after a record becomes claimable.  A FIFO with no reader
        (``ENXIO``: its worker is dead) or a full one (``EAGAIN``: a
        wake is already pending) is skipped.
        """
        directory = self.root / "wake"
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(".fifo"):
                continue
            try:
                fd = os.open(directory / name, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:
                continue
            try:
                os.write(fd, b"\0")
            except OSError:
                pass
            finally:
                os.close(fd)


class WakeChannel:
    """A worker's end of its wake FIFO.

    The FIFO is opened read-write: the channel is then its own writer,
    so ``select`` never reports a hang-up after a submitter closes, and
    submitters' non-blocking opens always find a reader while the
    worker lives.  A FIFO rather than a Unix socket, so deep storage
    paths do not hit the 108-byte ``sun_path`` limit.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            os.mkfifo(path)
        except FileExistsError:
            # Left by an earlier worker of the same id; reuse it unless
            # something other than a FIFO squats on the name.
            if not stat.S_ISFIFO(os.stat(path).st_mode):
                path.unlink()
                os.mkfifo(path)
        self._fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for a wake; True if woken.

        Every pending wake is drained, so one re-scan answers them all.
        """
        ready, _, _ = select.select([self._fd], [], [], timeout)
        if not ready:
            return False
        try:
            while os.read(self._fd, 4096):
                pass
        except BlockingIOError:
            pass
        return True

    def close(self) -> None:
        os.close(self._fd)
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
