"""Shared pieces of the benchmark: the metric catalogue, the outcome of
one run, order statistics, resource usage, host calibration and the
attribution of cProfile self time to the layers of ``src/repro``.

Everything here measures from outside the program: it calls public
APIs, reads public attributes and wraps calls in timers or stdlib
``cProfile``.  Nothing inside ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: End-to-end metrics every workload reports with ``--trace 0``.  Each
#: workload defines its own unit of work ("op") and of waiting; see
#: README.md for the per-workload meaning.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "throughput_per_s": "1/s",
    "cpu_us_per_op": "us",
    "latency_p50_ms": "ms",
}

#: (module path under src/repro, layer) — first match wins, so the
#: specific files come before the package-wide catch-alls.
_LAYER_OF_PATH: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/packet.py", "sim.packet"),
    ("sim/stats.py", "sim.stats"),
    ("sim/traffic.py", "sim.traffic"),
    ("sim/", "sim.forwarding"),
    ("core/pels_queue.py", "core.queue"),
    ("core/feedback.py", "core.control"),
    ("core/gamma.py", "core.control"),
    ("cc/", "core.control"),
    ("control/", "core.control"),
    ("core/", "core.endpoints"),
    ("video/", "core.endpoints"),
    ("fluid/", "fluid"),
)

#: Layers that cProfile self time is attributed to (``other`` takes
#: the interpreter, stdlib and every repro module not listed above).
SELF_TIME_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in _LAYER_OF_PATH)) + ("other",)

_COLORS = ("green", "yellow", "red")

#: Per-layer metrics every workload reports with ``--trace 1``.  A
#: layer a workload never runs (or, for the self-time rows, never
#: profiles) reads 0 there.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "trace.self_total_s": "s",
    "trace.overhead": "ratio",
    "sim.events": "count",
    "sim.delivered_pkts": "count",
    "sim.events_per_pkt": "ratio",
    **{f"sim.bottleneck_drops.{c}": "count" for c in _COLORS},
    "fluid.controller_s": "s",
    "fluid.filter_s": "s",
    "fluid.router_s": "s",
    "fluid.sampling_s": "s",
    "fluid.segments": "count",
    "fluid.flows_per_segment": "ratio",
    "fluid.epochs": "count",
    "live.driver_cpu_s": "s",
    "live.shard_cpu_s": "s",
    "live.registration_s": "s",
    **{f"live.{kind}.{c}": "count"
       for kind in ("arrivals", "forwarded", "drops") for c in _COLORS},
    "live.fwd_ratio": "ratio",
    "live.shed_pkts": "count",
    "live.rejected": "count",
    **{f"live.delay_p99_ms.{c}": "ms" for c in _COLORS},
    "live.goodput_ratio": "ratio",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.observe_ms": "ms",
    "service.job_latency_p90_ms": "ms",
    "service.attempts": "count",
    "service.requeues": "count",
    "service.failed": "count",
    "service.children_cpu_s": "s",
}


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``attempted`` counts operations plus output checks; ``failed``
    counts the operations and checks that went wrong, each with a line
    in ``failures``.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation or output check; record ``what`` when it
        fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def ok_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); NaN on no samples."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    return statistics.median(values) if values else float("nan")


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU of this process (or its reaped children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MiB.

    ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibration_loop_s(rounds: int = 5, n: int = 300_000) -> float:
    """Best-of-``rounds`` wall time of a fixed pure-Python loop.

    Recorded beside every run so figures from different hosts can be
    compared as ratios; never folded into a gated metric.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def _repro_dir() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """Layer of a profiled code object from its source path; None for
    code outside ``src/repro`` (builtins, the stdlib, numpy)."""
    root = _repro_dir()
    if not filename.startswith(root):
        return None
    module = filename[len(root):].replace(os.sep, "/")
    for prefix, layer in _LAYER_OF_PATH:
        if module.startswith(prefix):
            return layer
    return "other"


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Split every function's cProfile self time over the layers.

    A function in ``src/repro`` counts for its own layer.  Time in
    builtins and the stdlib (``heapq.heappush``, ``list.append``, numpy)
    counts for the layer that called it, split by the per-caller self
    time cProfile keeps, so the interpreter work a layer triggers is
    charged to that layer.  What has no repro caller is ``other``.  The
    values therefore sum to the total self time of the profile.
    """
    totals = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for (filename, _line, _name), row in stats.stats.items():
        self_time, callers = row[2], row[4]
        layer = layer_of(filename)
        if layer is not None:
            totals[layer] += self_time
            continue
        charged = 0.0
        for (caller_file, _cl, _cn), edge in callers.items():
            share = edge[2]
            totals[layer_of(caller_file) or "other"] += share
            charged += share
        totals["other"] += self_time - charged
    return totals


def total_self_time(stats: pstats.Stats) -> float:
    return sum(row[2] for row in stats.stats.values())


# -- in-process workloads (packet, fluid) --------------------------------------

#: Share of a traced run spent on the plain pass; the traced pass then
#: repeats the same inputs under cProfile, which runs up to ~3.5x slower.
_PLAIN_SHARE = 0.22


@dataclass
class Sample:
    """One operation of an in-process workload: build, then run."""

    setup_s: float
    wall_s: float
    cpu_s: float
    #: Units of work done (the workload's throughput unit).
    work: float


def drive(inputs: Iterable, seconds: float, trace: bool,
          solve: Callable[..., Sample]
          ) -> Tuple[List[Sample], List[Sample], Optional[pstats.Stats]]:
    """Run ``solve(input, profiler)`` over ``inputs`` for ``seconds``.

    Untraced, inputs run back to back until the time is spent (at least
    one).  Traced, a plain pass takes a share of the time and a second
    pass repeats exactly those inputs under one ``cProfile.Profile``
    that ``solve`` enables around the part it times, so the wall ratio
    of the two passes is the tracing overhead.  Returns the plain
    samples, the traced samples and the profile (None untraced).
    """
    taken: List = []
    plain: List[Sample] = []
    budget = seconds * (_PLAIN_SHARE if trace else 1.0)
    deadline = time.perf_counter() + budget
    for item in inputs:
        taken.append(item)
        plain.append(solve(item, None))
        if time.perf_counter() >= deadline:
            break
    if not trace:
        return plain, [], None
    profiler = cProfile.Profile()
    traced = [solve(item, profiler) for item in taken]
    return plain, traced, pstats.Stats(profiler)


def end_to_end(samples: Sequence[Sample]) -> Dict[str, float]:
    """End-to-end metrics of an in-process run; latency is the wall time
    of one op."""
    return {
        "setup_s": median(s.setup_s for s in samples),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": median(s.work / s.wall_s for s in samples),
        "cpu_us_per_op": median(s.cpu_s / s.work * 1e6 for s in samples),
        "latency_p50_ms": median(s.wall_s * 1e3 for s in samples),
    }


def profile_metrics(plain: Sequence[Sample], traced: Sequence[Sample],
                    stats: pstats.Stats) -> Dict[str, float]:
    """Per-op self time by layer and the overhead of the traced pass."""
    ops = len(traced)
    by_layer = self_time_by_layer(stats)
    metrics = {f"{layer}.self_s": seconds / ops
               for layer, seconds in by_layer.items()}
    metrics["trace.self_total_s"] = total_self_time(stats) / ops
    metrics["trace.overhead"] = (sum(s.wall_s for s in traced)
                                 / sum(s.wall_s for s in plain))
    return metrics
