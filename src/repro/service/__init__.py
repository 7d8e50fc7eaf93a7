"""Service layer: a long-running control plane over the experiment fleet.

``pels serve`` wraps the one-shot experiment runner and the live stack
in an operable service: jobs are submitted over HTTP, queued in
persistent storage, executed by a pool of worker processes (heartbeats,
stale-job requeue, crash isolation), their ``obs`` metric snapshots
streamed to subscribed clients while they run, and their artifacts kept
in the storage directory for later fetching and baseline comparison.

Modules:

* :mod:`repro.service.storage` — ``FileStorage``, the filesystem JSON
  store (atomic writes, O_EXCL claims).
* :mod:`repro.service.queue` — persistent job queue and state machine
  (``queued -> running -> done/failed/cancelled``).
* :mod:`repro.service.worker` — worker processes pulling from the
  shared queue; jobs execute in disposable child processes.
* :mod:`repro.service.stream` — minimal RFC 6455 WebSocket framing and
  the live job-stream tail.
* :mod:`repro.service.api` — asyncio HTTP API + service orchestrator.
* :mod:`repro.service.client` — thin blocking client used by
  ``pels submit``/``status``/``artifacts`` and the tests.
"""

from .queue import (JOB_STATES, TERMINAL_STATES, Job, JobQueue)
from .storage import FileStorage

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue",
           "FileStorage"]
