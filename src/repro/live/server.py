"""The live PELS sender: FGS packetization + closed-loop control.

One datagram endpoint hosts every flow of the session.  Per flow, the
frame clock runs: at each frame boundary the frame is planned with the
standard marking policy (green base, yellow/red FGS split at the
current gamma — the exact :func:`repro.video.fgs.plan_frame` the
simulator uses) sized by the congestion controller's current rate,
then paced out with a credit loop that re-reads the controller rate
continuously, so rate changes take effect within a few packet times,
mirroring ``PelsSource``'s adaptive pacing.  If the rate drops
mid-frame the unsent tail is truncated at the frame deadline — FGS
truncation semantics.

Two pacing modes share that frame logic:

* **per-flow tasks** (default, the PR-5 behavior): one asyncio task per
  flow sleeps its own pace tick — simple, and fine for a handful of
  flows;
* **tenant-grouped pacing** (``grouped_pacing=True``, the gateway
  mode): one task per tenant wakes every ``pace_tick`` and advances
  only the member flows that are *due*, so a thousand admitted flows
  cost a handful of timers per tick instead of a thousand — the
  timer-wake amortization that makes the sharded gateway's flow counts
  affordable.  A flow is due at the earlier of its frame deadline and
  the instant its byte credit, accruing at the current controller
  rate, covers the next planned packet; between those instants a wake
  skips it.  An accepted ACK first settles the flow's credit at the
  old rate up to now, then makes the flow due immediately, so a rate
  change applies at the very next wake.

ACKs from the client arrive on the same endpoint (the reverse path
bypasses the router).  The ACK path unpacks and validates the header
in one pass (:func:`~repro.live.wire.unpack_header`); anything that is
not a valid ACK — a malformed header, a label loss outside [0, 1], a
non-finite timestamp — is counted in :attr:`LiveServer.malformed` and
never reaches a controller.  The per-flow
:class:`~repro.core.feedback.FeedbackTracker` admits each router epoch
once, and a fresh loss sample drives the registered rate controller
(Eq. 8 for MKC) and the Eq. 4 gamma controller — the same controller
*objects* the simulator drives, exercised here against
``time.monotonic`` (see :mod:`repro.core.clock`).

An optional CBR task keeps the Internet FIFO backlogged (best-effort
color, its own flow id) so WRR grants the PELS aggregate exactly its
configured share, as in the simulator's default scenario.  Its wake
phase is jittered by a seeded RNG so the cross traffic cannot
phase-lock with the router's service tick; passing the same ``seed``
reproduces the jitter schedule.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..cc.base import RateController, make_controller
from ..core.clock import Clock
from ..core.colors import PelsMarkingPolicy
from ..core.feedback import FeedbackTracker
from ..core.gamma import GammaController
from ..obs.trace import current_tracer
from ..sim.packet import Color, FeedbackLabel
from ..sim.stats import TimeSeries
from ..video.fgs import FgsConfig, PacketPlan
from .wire import (PTYPE_ACK, LivePacket, WireFormatError, encode_packet,
                   unpack_header)

__all__ = ["LiveFlow", "LiveServer", "CROSS_TRAFFIC_FLOW_ID"]

#: Flow id of the best-effort CBR cross traffic (kept far away from the
#: PELS flow ids, which count from 0).
CROSS_TRAFFIC_FLOW_ID = 10_000

#: Golden-ratio frame-clock phasing, as in PelsScenario.frame_phase_of:
#: decorrelates the flows' plan instants while staying deterministic.
_GOLDEN = 0.6180339887


class LiveFlow:
    """Sender-side state of one live PELS flow."""

    def __init__(self, flow_id: int, controller: RateController,
                 gamma_controller: GammaController,
                 fgs: FgsConfig, tenant: str = "") -> None:
        self.flow_id = flow_id
        self.tenant = tenant
        self.controller = controller
        self.gamma_controller = gamma_controller
        self.fgs = fgs
        self.marking_policy = PelsMarkingPolicy(fgs)
        self.tracker = FeedbackTracker()
        self.rate_series = TimeSeries(f"rate-flow{flow_id}")
        self.gamma_series = TimeSeries(f"gamma-flow{flow_id}")
        self.loss_series = TimeSeries(f"loss-flow{flow_id}")
        #: Where this flow's data goes (its shard's router endpoint);
        #: ``None`` falls back to the server-wide ``dst_addr``.
        self.dst_addr: Optional[Tuple[str, int]] = None
        #: Cleared by ``LiveServer.retire_flow``: a retired flow stops
        #: emitting (mid-run teardown) but keeps its state for reports.
        self.active = True
        #: Clock time of the last *accepted* loss sample (None until
        #: the first); drives the blind-mode starvation watchdog.
        self.last_feedback: Optional[float] = None
        #: How many times the watchdog applied a blind decay.
        self.blind_intervals = 0
        self.next_seq = 0
        self.frame_id = -1
        self.packets_sent = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        self.acks_received = 0
        #: frame_id -> (green, yellow, red) counts actually emitted.
        self.frame_log: Dict[int, Tuple[int, int, int]] = {}
        #: The flow's grouped-pacer state (None in per-flow mode).
        self.pace: Optional["_PaceState"] = None

    @property
    def rate_bps(self) -> float:
        return self.controller.rate_bps

    @property
    def gamma(self) -> float:
        return self.gamma_controller.gamma


class _PaceState:
    """Frame-clock state of one flow inside a grouped pacer task.

    ``due`` is the earliest clock time at which advancing the flow can
    do anything: its next frame deadline, or the instant its credit
    covers the next planned packet at the current rate.
    """

    __slots__ = ("flow", "deadline", "plan", "pos", "counts", "credit",
                 "last", "started", "due")

    def __init__(self, flow: LiveFlow, start_at: float) -> None:
        self.flow = flow
        self.deadline = start_at  # first frame begins at the phase offset
        self.plan: Optional[List[PacketPlan]] = None
        self.pos = 0
        self.counts = [0, 0, 0]
        self.credit = 0.0
        self.last = start_at
        self.started = False
        self.due = start_at


class LiveServer:
    """All sending flows of a live session behind one UDP endpoint.

    :meth:`datagram_received` is the handler of the server's
    :class:`~repro.live.endpoint.DatagramEndpoint`; data leaves through
    :attr:`transport` (anything with ``sendto(data, addr)``).

    Parameters mirror the simulator's ``PelsScenario`` controller /
    gamma blocks; ``controller_kwargs`` is passed verbatim to
    :func:`repro.cc.base.make_controller`.

    ``flow_ids`` overrides the default ``range(n_flows)`` identities —
    the gateway allocates global flow ids, so a load generator builds
    its server around the admitted set.  ``flow_tenants`` names each
    flow's tenant; with ``grouped_pacing=True`` flows of one tenant
    share a single pacer task (see module docstring).

    ``feedback_timeout`` (seconds, 0 = off) arms the blind-mode
    watchdog from PR 3 on the live path: a flow whose feedback has
    been silent that long — its shard died, a blackhole swallowed its
    data — has its controller rate multiplied by ``blind_backoff``
    once per timeout interval at frame boundaries, riding out the gap
    conservatively until the first label from a replacement shard
    resynchronizes it (the tracker adopts a fresh ``router_id``'s
    epoch clock immediately).
    """

    def __init__(self, clock: Clock, n_flows: int,
                 controller_name: str = "mkc",
                 controller_kwargs: Optional[dict] = None,
                 gamma_kwargs: Optional[dict] = None,
                 fgs: Optional[FgsConfig] = None,
                 cbr_rate_bps: float = 0.0,
                 pace_tick: float = 0.005,
                 flow_ids: Optional[Sequence[int]] = None,
                 flow_tenants: Optional[Dict[int, str]] = None,
                 grouped_pacing: bool = False,
                 seed: Optional[int] = None,
                 feedback_timeout: float = 0.0,
                 blind_backoff: float = 0.85) -> None:
        if flow_ids is None:
            flow_ids = range(n_flows)
        else:
            n_flows = len(flow_ids)
        if n_flows < 1:
            raise ValueError("need at least one live flow")
        if pace_tick <= 0:
            raise ValueError("pace tick must be positive")
        if feedback_timeout < 0:
            raise ValueError("feedback timeout cannot be negative")
        if not 0 < blind_backoff <= 1:
            raise ValueError("blind backoff must be in (0, 1]")
        self.clock = clock
        self.fgs = fgs or FgsConfig(frame_packets=256)
        #: Pacer credit cap: a long stall bursts at most this many bytes.
        self._credit_cap = 8.0 * self.fgs.packet_size
        self.pace_tick = pace_tick
        self.cbr_rate_bps = cbr_rate_bps
        self.grouped_pacing = grouped_pacing
        self.feedback_timeout = feedback_timeout
        self.blind_backoff = blind_backoff
        self._rng = random.Random(seed)
        tenants = flow_tenants or {}
        self.flows: Dict[int, LiveFlow] = {}
        for flow_id in flow_ids:
            self.flows[flow_id] = LiveFlow(
                flow_id,
                make_controller(controller_name, **(controller_kwargs or {})),
                GammaController(**(gamma_kwargs or {})),
                self.fgs, tenant=tenants.get(flow_id, ""))
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self.cross_packets_sent = 0
        #: Datagrams rejected on the ACK path (not a valid ACK).
        self.malformed = 0
        self._trace = current_tracer()
        self._tasks: List[asyncio.Task] = []
        self._running = False

    # -- feedback path ----------------------------------------------------

    def datagram_received(self, data: bytes, addr) -> None:
        """Feedback path: ACKs echoing the freshest router label.

        Hot at gateway scale (one ACK per delivered data packet), so
        the header is unpacked and validated once, without building a
        :class:`~repro.live.wire.LivePacket`.
        """
        try:
            (_, _, ptype, flow_id, _, _, _, _, router_id, epoch,
             loss_value, _) = unpack_header(data)
        except WireFormatError:
            self.malformed += 1
            return
        if ptype != PTYPE_ACK:
            self.malformed += 1
            return
        flow = self.flows.get(flow_id)
        if flow is None:
            return
        flow.acks_received += 1
        if router_id == 0:
            return  # no router has stamped this packet's path yet
        loss = flow.tracker.accept(FeedbackLabel(router_id, epoch,
                                                 loss_value))
        if loss is None:
            return
        now = self.clock.now
        state = flow.pace
        if state is not None and state.started:
            # Settle the credit earned at the old rate, then let the
            # next wake re-plan the flow's due time at the new one.
            state.credit = min(self._credit_cap, state.credit +
                               (now - state.last) *
                               flow.controller.rate_bps / 8)
            state.last = now
            state.due = now
        flow.last_feedback = now
        flow.controller.on_feedback(loss, now)
        flow.gamma_controller.update(loss)
        flow.loss_series.record(now, loss)
        flow.rate_series.record(now, flow.controller.rate_bps)
        flow.gamma_series.record(now, flow.gamma_controller.gamma)
        if self._trace is not None:
            self._trace.rate(now, flow.flow_id, loss,
                             flow.controller.rate_bps)
            self._trace.gamma_step(now, flow.flow_id,
                                   flow.gamma_controller.gamma)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch the pacing tasks (plus cross traffic)."""
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        if self.grouped_pacing:
            groups: Dict[str, List[LiveFlow]] = {}
            for flow in self.flows.values():
                groups.setdefault(flow.tenant, []).append(flow)
            self._tasks = [asyncio.ensure_future(self._stream_group(members))
                           for members in groups.values()]
        else:
            self._tasks = [asyncio.ensure_future(self._stream(flow))
                           for flow in self.flows.values()]
        if self.cbr_rate_bps > 0:
            self._tasks.append(asyncio.ensure_future(self._cross_traffic()))

    async def stop(self) -> None:
        self._running = False
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    # -- transmit path (per-flow tasks) ------------------------------------

    async def _stream(self, flow: LiveFlow) -> None:
        """The frame clock of one flow: plan, then pace adaptively."""
        interval = flow.fgs.frame_interval
        await asyncio.sleep((flow.flow_id * _GOLDEN) % 1.0 * interval)
        while self._running and flow.active:
            frame_start = self.clock.now
            deadline = frame_start + interval
            self._maybe_blind(flow, frame_start)
            rate = flow.controller.rate_bps
            gamma = flow.gamma_controller.gamma
            flow.frame_id += 1
            flow.frames_sent += 1
            flow.rate_series.record(frame_start, rate)
            flow.gamma_series.record(frame_start, gamma)
            plan = flow.marking_policy.plan(rate, gamma)
            counts = [0, 0, 0]
            await self._pace(flow, plan, deadline, counts)
            flow.frame_log[flow.frame_id] = (counts[0], counts[1], counts[2])
            remaining = deadline - self.clock.now
            if remaining > 0:
                await asyncio.sleep(remaining)

    async def _pace(self, flow: LiveFlow, plan: List[PacketPlan],
                    deadline: float, counts: List[int]) -> None:
        """Credit-paced emission at the *instantaneous* controller rate.

        Each wake-up converts elapsed wall time into byte credit at the
        rate the controller holds right now, so a mid-frame rate change
        (a fresh ACK) alters the pacing within one tick.  Credit is
        capped at a handful of packets: a long scheduler stall produces
        a small burst, never an unbounded one.
        """
        pos = 0
        credit = float(self.fgs.packet_size)  # first packet goes now
        cap = self._credit_cap
        last = self.clock.now
        while pos < len(plan) and self._running:
            now = self.clock.now
            if now >= deadline:
                return  # FGS truncation: the red-most tail is unsent
            credit = min(cap,
                         credit + (now - last) *
                         flow.controller.rate_bps / 8)
            last = now
            while pos < len(plan) and credit >= plan[pos].size:
                self._emit(flow, plan[pos], counts)
                credit -= plan[pos].size
                pos += 1
            if pos < len(plan):
                await asyncio.sleep(min(self.pace_tick,
                                        max(0.0, deadline - now)))

    # -- transmit path (grouped pacing) ------------------------------------

    async def _stream_group(self, members: List[LiveFlow]) -> None:
        """One pacer task advancing the due flows of a tenant per wake.

        Per wake: each flow whose ``due`` time has come converts the
        elapsed wall time into byte credit at its instantaneous
        controller rate; frames begin at each flow's own (golden-ratio
        phased) deadline and truncate at the next one — the same
        semantics as the per-flow task, minus ``len(members) - 1``
        timers per tick and minus the wakes that could not emit.
        """
        interval = self.fgs.frame_interval
        now = self.clock.now
        states = []
        for flow in members:
            flow.pace = _PaceState(
                flow, now + (flow.flow_id * _GOLDEN) % 1.0 * interval)
            states.append(flow.pace)
        wake = self._wake_group
        sleep = asyncio.sleep
        tick = self.pace_tick
        clock = self.clock
        while self._running:
            await sleep(tick)
            wake(states, clock.now, interval)

    def _wake_group(self, states: List[_PaceState], now: float,
                    interval: float) -> None:
        """One grouped-pacer wake: advance every due, active flow."""
        advance = self._advance_flow
        for state in states:
            if now >= state.due and state.flow.active:
                advance(state, now, interval)

    def _maybe_blind(self, flow: LiveFlow, now: float) -> None:
        """Frame-boundary feedback-starvation check (watchdog off when
        ``feedback_timeout`` is 0).  Applies at most one decay per
        timeout interval by advancing the starvation reference."""
        timeout = self.feedback_timeout
        if timeout <= 0:
            return
        if flow.last_feedback is None:
            # No feedback yet at all: start the starvation clock at the
            # first frame rather than decaying a flow that just joined.
            flow.last_feedback = now
            return
        if now - flow.last_feedback >= timeout:
            flow.controller.blind_decay(self.blind_backoff, now)
            flow.blind_intervals += 1
            flow.last_feedback = now
            if self._trace is not None:
                self._trace.rate(now, flow.flow_id, -1.0,
                                 flow.controller.rate_bps)

    def _begin_frame(self, state: _PaceState, now: float,
                     interval: float) -> None:
        flow = state.flow
        if state.started:
            flow.frame_log[flow.frame_id] = tuple(state.counts)
        state.started = True
        self._maybe_blind(flow, now)
        rate = flow.controller.rate_bps
        gamma = flow.gamma_controller.gamma
        flow.frame_id += 1
        flow.frames_sent += 1
        flow.rate_series.record(now, rate)
        flow.gamma_series.record(now, gamma)
        state.plan = flow.marking_policy.plan(rate, gamma)
        state.pos = 0
        state.counts = [0, 0, 0]
        # Keep the frame cadence anchored to the phase offset; after a
        # long stall, re-anchor at now instead of bursting catch-up
        # frames back to back.
        state.deadline += interval
        if state.deadline <= now:
            state.deadline = now + interval
        state.credit = float(self.fgs.packet_size)  # first packet now
        state.last = now

    def _advance_flow(self, state: _PaceState, now: float,
                      interval: float) -> None:
        """Emit what the flow's credit covers; set its next due time."""
        if not state.started:
            if now < state.deadline:
                state.due = state.deadline
                return  # still inside the initial phase offset
            self._begin_frame(state, now, interval)
        elif now >= state.deadline:
            # Frame boundary passed: truncate the unsent tail (FGS
            # semantics) and plan the next frame.
            self._begin_frame(state, now, interval)
        flow = state.flow
        plan = state.plan
        rate = flow.controller.rate_bps
        credit = min(self._credit_cap,
                     state.credit + (now - state.last) * rate / 8)
        state.last = now
        pos = state.pos
        counts = state.counts
        emit = self._emit
        n_planned = len(plan)
        while pos < n_planned and credit >= plan[pos].size:
            emit(flow, plan[pos], counts)
            credit -= plan[pos].size
            pos += 1
        state.pos = pos
        state.credit = credit
        due = state.deadline
        if pos < n_planned and rate > 0:
            due = min(due, now + (plan[pos].size - credit) * 8 / rate)
        state.due = due

    def _emit(self, flow: LiveFlow, plan: PacketPlan,
              counts: List[int]) -> None:
        packet = LivePacket(flow_id=flow.flow_id, seq=flow.next_seq,
                            color=plan.color, frame_id=flow.frame_id,
                            index_in_frame=plan.index_in_frame,
                            sent_at=self.clock.now, size=plan.size)
        flow.next_seq += 1
        flow.packets_sent += 1
        flow.bytes_sent += plan.size
        if plan.color is Color.GREEN:
            counts[0] += 1
        elif plan.color is Color.YELLOW:
            counts[1] += 1
        else:
            counts[2] += 1
        dst = flow.dst_addr or self.dst_addr
        if self.transport is not None and dst is not None:
            self.transport.sendto(encode_packet(packet), dst)

    async def _cross_traffic(self) -> None:
        """Best-effort CBR keeping the Internet FIFO backlogged.

        The wake phase is jittered (seeded RNG) so the CBR emission
        cannot phase-lock with the router's service tick; the byte
        budget stays exactly ``cbr_rate_bps``.
        """
        size = self.fgs.packet_size
        seq = 0
        credit = 0.0
        last = self.clock.now
        uniform = self._rng.uniform
        while self._running:
            await asyncio.sleep(self.pace_tick * uniform(0.5, 1.5))
            now = self.clock.now
            credit = min(8.0 * size,
                         credit + (now - last) * self.cbr_rate_bps / 8)
            last = now
            while credit >= size:
                credit -= size
                packet = LivePacket(flow_id=CROSS_TRAFFIC_FLOW_ID, seq=seq,
                                    color=Color.BEST_EFFORT,
                                    sent_at=now, size=size)
                seq += 1
                self.cross_packets_sent += 1
                if self.transport is not None and self.dst_addr is not None:
                    self.transport.sendto(encode_packet(packet),
                                          self.dst_addr)

    # -- introspection -----------------------------------------------------

    def retire_flow(self, flow_id: int) -> None:
        """Stop a flow's emission mid-run (gateway teardown path).

        The flow object and its series stay queryable, so reports over
        a retired flow are partial, not missing.
        """
        flow = self.flows.get(flow_id)
        if flow is not None:
            flow.active = False

    def retarget_flow(self, flow_id: int,
                      addr: Tuple[str, int]) -> bool:
        """Re-aim a flow's datagrams at a new address (failover path).

        Takes effect on the next emitted packet; in-flight datagrams to
        the old address are simply lost, which is the semantics of the
        shard they were heading to being dead.
        """
        flow = self.flows.get(flow_id)
        if flow is None:
            return False
        flow.dst_addr = tuple(addr)
        return True

    def enhancement_sent_per_frame(self, flow_id: int) -> Dict[int, int]:
        """frame_id -> FGS (yellow + red) packets actually emitted."""
        return {frame: counts[1] + counts[2]
                for frame, counts in self.flows[flow_id].frame_log.items()}
