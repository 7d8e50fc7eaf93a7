"""live-gateway: the L2 stack, one load generator against one router shard.

One run is one :func:`~repro.live.loadgen.run_load` of 200 paced MKC
flows for the run's seconds: gateway admission, the grouped-pacing
server, the shard child process and the client's feedback labels, all
over loopback UDP on the wall clock.  The offered load keeps the
single-core load generator well below saturation even when a shared
host runs slow.  At 400 flows it neared its knee in slow spells, and
the green delay p50 of 20 s runs ranged from 2.9 to 5.1 ms across
seeds; at 300 flows two of ten runs still read 15% high.  No profiler
runs here: a deterministic profiler would saturate the load
generator's core and change the wall-clock dynamics, so the per-layer
figures are the CPU split and the shard's counters.
"""

from __future__ import annotations

import resource
import sys
import time

from repro.live.loadgen import LoadConfig, run_load
from repro.live.shard import RouterShard, ShardConfig

from .common import Outcome, cpu_seconds, median, peak_rss_mb

FLOWS = 200
#: Shard spawns timed for ``setup_s`` (each started, then stopped).
SETUP_SPAWNS = 9
#: Delivered goodput below this share of the Lemma 6 oracle fails the
#: run; the stack delivers about 0.97 at this load.
GOODPUT_FLOOR = 0.9

_COLORS = ("green", "yellow", "red")


def _spawn_seconds(config: LoadConfig) -> float:
    """Wall time for one shard process to come up and report ready."""
    shard = RouterShard(ShardConfig(
        shard_id=1, host=config.host,
        bottleneck_bps=config.shard_capacity_bps()
        / config.queue.pels_share(),
        queue=config.queue, feedback_interval=config.feedback_interval,
        feedback_window=config.feedback_window,
        service_tick=config.service_tick, recv_batch=config.recv_batch))
    started = time.perf_counter()
    shard.start()
    spawned = time.perf_counter() - started
    shard.stop()
    return spawned


def run(seed: int, seconds: float, trace: bool,
        flows: int = FLOWS) -> Outcome:
    out = Outcome()
    config = LoadConfig(flows=flows, shards=1, duration=seconds, seed=seed)
    spawns = [_spawn_seconds(config) for _ in range(SETUP_SPAWNS)]

    driver0 = cpu_seconds()
    shards0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    result = run_load(config)
    driver_cpu = cpu_seconds() - driver0
    shard_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - shards0

    def total(kind: str, color: int) -> int:
        return sum(getattr(shard, kind)[color] for shard in result.per_shard)

    # Each flow registration is one op; every flow must be admitted.
    rejected = flows - result.admitted
    out.attempted += flows
    if rejected:
        out.failed += rejected
        out.failures.append(f"live: {rejected} of {flows} flows not "
                            f"admitted {result.rejected}")
    out.check(result.green_drops == 0,
              f"live: {result.green_drops} green packets dropped")
    out.check(result.shed_packets[0] == 0,
              f"live: {result.shed_packets[0]} green packets shed")
    out.check(result.goodput_vs_oracle >= GOODPUT_FLOOR,
              f"live: goodput {result.goodput_vs_oracle:.3f} of the "
              f"Lemma 6 oracle, below {GOODPUT_FLOOR}")

    forwarded = sum(total("forwarded", c) for c in range(3))
    arrivals = sum(total("arrivals", c) for c in range(3))
    green = result.delays["green"]
    print(f"live: {int(green['count'])} green delay samples over "
          f"{result.window_seconds:.1f} s, {forwarded} packets forwarded",
          file=sys.stderr)
    if not trace:
        out.metrics = {
            "setup_s": median(spawns) + result.registration_seconds,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": forwarded / result.elapsed,
            "cpu_us_per_op": (driver_cpu + shard_cpu) / forwarded * 1e6,
            "latency_p50_ms": green["p50_ms"],
        }
        return out
    out.metrics = {
        # The traced run is the plain run plus counter reads.
        "trace.overhead": 1.0,
        "live.driver_cpu_s": driver_cpu,
        "live.shard_cpu_s": shard_cpu,
        "live.registration_s": result.registration_seconds,
        "live.fwd_ratio": forwarded / arrivals,
        "live.shed_pkts": sum(result.shed_packets),
        "live.rejected": rejected,
        "live.goodput_ratio": result.goodput_vs_oracle,
    }
    for index, color in enumerate(_COLORS):
        for kind in ("arrivals", "forwarded", "drops"):
            out.metrics[f"live.{kind}.{color}"] = total(kind, index)
        out.metrics[f"live.delay_p99_ms.{color}"] = \
            result.delays[color]["p99_ms"]
    return out
