"""packet-barbell: PELS packet simulations on the Fig. 6 bar-bell.

Each op builds and runs one :class:`~repro.core.session.PelsSimulation`
with 16 MKC flows.  The seed draws every op's per-flow start times and
simulator seed; cross traffic alternates between backlogged CBR and
long-range-dependent Pareto bursts, so both queue regimes are in every
run.  ``PelsScenario.seed`` alone would not vary the default CBR run.
"""

from __future__ import annotations

import random
import time
from typing import Iterator

from repro.analysis.oracles import check_lemma6_rates
from repro.core.session import PelsScenario, PelsSimulation

from .common import Outcome, Sample, drive, end_to_end, median, \
    profile_metrics

N_FLOWS = 16
#: Simulated seconds per op; the Lemma 6 check reads the last half.
SIM_SECONDS = 30.0
TAIL_FROM = 15.0
#: Flows start uniformly in [0, START_SPREAD) seconds.
START_SPREAD = 3.0


def scenarios(seed: int, n_flows: int = N_FLOWS) -> Iterator[PelsScenario]:
    rng = random.Random(seed)
    index = 0
    while True:
        yield PelsScenario(
            n_flows=n_flows, duration=SIM_SECONDS,
            seed=rng.randrange(1, 1 << 31),
            cross_traffic=("cbr", "lrd")[index % 2],
            start_times=[rng.uniform(0.0, START_SPREAD)
                         for _ in range(n_flows)])
        index += 1


def check(sim: PelsSimulation, out: Outcome) -> None:
    """Per-flow tail rates against the Lemma 6 oracle (its tolerance)."""
    s = sim.scenario
    rates = [source.rate_series.mean(TAIL_FROM, s.duration)
             for source in sim.sources]
    verdict = check_lemma6_rates(rates, s.pels_capacity_bps(), s.n_flows,
                                 s.alpha_bps, s.beta)
    out.check(verdict.ok, f"packet seed {s.seed}: {verdict}")


class _Run:
    """One workload run: solves ops and keeps the traced-pass counters."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.events = []
        self.delivered = []
        self.drops = {"green": [], "yellow": [], "red": []}

    def solve(self, scenario: PelsScenario, profiler) -> Sample:
        started = time.perf_counter()
        sim = PelsSimulation(scenario)
        setup = time.perf_counter() - started
        cpu0 = time.process_time()
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        sim.run()
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        queue = sim.bottleneck_queue
        delivered = queue.stats.departures
        if profiler is not None:
            self.events.append(sim.sim.events_dispatched)
            self.delivered.append(delivered)
            for color, leaf in (("green", queue.green_queue),
                                ("yellow", queue.yellow_queue),
                                ("red", queue.red_queue)):
                self.drops[color].append(leaf.stats.drops)
        self.out.attempted += 1
        check(sim, self.out)
        return Sample(setup_s=setup, wall_s=wall, cpu_s=cpu, work=delivered)


def run(seed: int, seconds: float, trace: bool,
        n_flows: int = N_FLOWS) -> Outcome:
    out = Outcome()
    state = _Run(out)
    plain, traced, stats = drive(scenarios(seed, n_flows), seconds, trace,
                                 state.solve)
    if not trace:
        out.metrics = end_to_end(plain)
        return out
    out.metrics = profile_metrics(plain, traced, stats)
    events = median(state.events)
    delivered = median(state.delivered)
    out.metrics.update({
        "sim.events": events,
        "sim.delivered_pkts": delivered,
        "sim.events_per_pkt": events / delivered,
        **{f"sim.bottleneck_drops.{color}": median(values)
           for color, values in state.drops.items()},
    })
    return out
