"""fluid-fabric: batched fluid solves of collapsed fabrics, ``backend="auto"``.

Each op is one round of :class:`~repro.fluid.engine.FluidEngine` solves:
a fat tree and a chain grid from ``fat_tree_scenario`` and
``chain_grid_scenario``, then the 10^6-flow fat tree.  These have few
delay classes and wide segments, so the engine's auto-selected numpy
kernel does the work.  The seed draws the fabric sizes, delay tiers,
start waves and their spacing.  The throughput unit is a segment-epoch:
one collapsed segment advanced by one feedback interval.
"""

from __future__ import annotations

import random
import time
from typing import Iterator, Tuple

from repro.analysis.oracles import check_network_equilibrium
from repro.fluid.engine import FluidEngine
from repro.fluid.scenario import FluidScenario, chain_grid_scenario, \
    fat_tree_scenario
from repro.obs.profile import disable_profiling, enable_profiling, \
    profile_snapshot, reset_profile

from .common import Outcome, Sample, drive, end_to_end, median, \
    profile_metrics

_SECTIONS = ("controller", "filter", "router", "sampling")


def fabrics(seed: int) -> Iterator[Tuple[FluidScenario, ...]]:
    """Seeded rounds of collapsed fabrics: a fat tree, a chain grid and
    the 10^6-flow fat tree.  One round is one op, so every op carries
    the same mix of kernel shapes."""
    rng = random.Random(seed)
    while True:
        edges = rng.choice((8, 16, 32))
        yield (
            fat_tree_scenario(
                edge_routers=edges, agg_routers=edges // 2,
                core_routers=edges // 8,
                flows_per_edge=rng.choice((64, 256, 1024)),
                delay_tiers=rng.randint(2, 5),
                start_waves=rng.randint(1, 3),
                tier_delay_s=rng.uniform(0.010, 0.030),
                wave_interval_s=rng.uniform(1.0, 2.0)),
            chain_grid_scenario(
                chains=rng.randint(4, 8),
                hops_per_chain=rng.choice((3, 5)),
                flows_per_chain=rng.choice((64, 256)),
                delay_tiers=rng.randint(2, 4),
                tier_delay_s=rng.uniform(0.010, 0.040)),
            fat_tree_scenario(
                edge_routers=64, agg_routers=16, core_routers=4,
                flows_per_edge=15_625,
                delay_tiers=rng.randint(2, 4),
                start_waves=rng.randint(1, 3),
                tier_delay_s=rng.uniform(0.010, 0.030),
                wave_interval_s=rng.uniform(1.0, 2.0)))


def check(scenario: FluidScenario, result, out: Outcome) -> None:
    """The closed-form network equilibrium of every path."""
    verdict = check_network_equilibrium(scenario, result)
    out.check(verdict.ok, f"fluid {scenario.n_flows} flows: {verdict}")


class _Run:
    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.segments = []
        self.flows_per_segment = []
        self.epochs = []

    def solve(self, scenarios: Tuple[FluidScenario, ...],
              profiler) -> Sample:
        setup = wall = cpu = work = 0.0
        for scenario in scenarios:
            started = time.perf_counter()
            engine = FluidEngine(scenario, backend="auto")
            setup += time.perf_counter() - started
            cpu0 = time.process_time()
            started = time.perf_counter()
            if profiler is not None:
                enable_profiling()
                profiler.enable()
            try:
                result = engine.run()
            finally:
                if profiler is not None:
                    profiler.disable()
                    disable_profiling()
            wall += time.perf_counter() - started
            cpu += time.process_time() - cpu0
            work += engine.n_segments * result.n_epochs
            if profiler is not None:
                self.segments.append(engine.n_segments)
                self.flows_per_segment.append(scenario.n_flows
                                              / engine.n_segments)
                self.epochs.append(result.n_epochs)
            self.out.attempted += 1
            check(scenario, result, self.out)
        return Sample(setup_s=setup, wall_s=wall, cpu_s=cpu, work=work)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    state = _Run(out)
    reset_profile()
    plain, traced, stats = drive(fabrics(seed), seconds, trace, state.solve)
    if not trace:
        out.metrics = end_to_end(plain)
        return out
    out.metrics = profile_metrics(plain, traced, stats)
    # The engine's own section timers run in the traced pass only.
    ops = len(traced)
    sections = profile_snapshot()
    for name in _SECTIONS:
        seconds_in = sections.get(f"FluidEngine.{name}", [0, 0.0])[1]
        out.metrics[f"fluid.{name}_s"] = seconds_in / ops
    out.metrics.update({
        "fluid.segments": median(state.segments),
        "fluid.flows_per_segment": median(state.flows_per_segment),
        "fluid.epochs": median(state.epochs),
    })
    reset_profile()
    return out
