"""The userspace software router: Fig. 4's output port over real UDP.

One datagram endpoint plays the bottleneck router: datagrams arriving
from the server are classified into the tri-color PELS queues (green,
yellow, red — served strict-priority) or the Internet FIFO, and a
service task drains the composite under deficit weighted round-robin,
paced by a token bucket filled at the bottleneck link rate.  Every
``T`` wall-seconds an epoch task closes the Eq. 11 measurement interval
through the clock-free :class:`~repro.core.feedback.FeedbackComputer`
(the same object the simulator's ``RouterFeedback`` drives from the
event heap) and the fresh ``(router_id, z, p)`` label is stamped into
every PELS datagram on the forwarding path with the max-loss override
rule.

Two deliberate wall-clock defenses:

* the epoch task passes the *measured* interval length to
  ``FeedbackComputer.close`` so asyncio timer jitter cannot read as an
  arrival-rate change;
* the service task is credit-based — each wake-up converts elapsed time
  into byte tokens and drains whatever they cover — so sleep overshoot
  shifts service in bursts but never loses capacity.

The per-datagram paths are written for throughput (a shard process must
sustain >=10k pkts/s; ``benchmarks/test_bench_live.py`` gates it):

* classification peeks the raw color byte and indexes flat lists — no
  ``Color`` enum construction, no dict hashing, no header decode;
* ingest gates each datagram with one ``startswith`` against the
  valid data-packet prefix (magic, version, type); anything else —
  stray bytes, ACKs, a foreign magic, an unknown color — is counted in
  :attr:`LiveRouter.malformed` and never reaches the Eq. 11 byte count
  or a queue;
* the forwarding path peeks the flow id with a cached 4-byte ``Struct``
  for the route lookup and re-stamps the label with ``pack_into`` —
  the 48-byte header is never fully unpacked inside the router;
* the router's socket is a :class:`~repro.live.endpoint.DatagramEndpoint`
  with :meth:`LiveRouter._ingest` as its handler, so one readiness
  wake-up of the event loop drains a whole batch of datagrams instead
  of paying the loop overhead per packet;
* the service loop's queue handles and counters are pre-bound locals —
  ``_drain`` is a straight-line byte-credit loop.

Overload defense — **layered load shedding**: under supervisor command
(:meth:`set_shed_level`) the router discards enhancement-layer traffic
in-line at ingest, cheapest layer first — level 1 sheds red (the FGS
probing band), level 2 sheds red *and* yellow — while green base-layer
packets (and the Internet FIFO) are never shed at any level.  Shedding
happens *after* the Eq. 11 arrival accounting, so the virtual loss
keeps reporting the true offered load and the senders' control loops
keep backing off while the shard recovers; shed traffic is counted
separately from buffer-overflow drops (``shed_packets`` /
``shed_bytes`` per color) so base-layer-protection assertions stay
exact.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..core.feedback import FeedbackComputer
from ..core.pels_queue import PelsQueueConfig
from ..obs.metrics import current_registry
from ..obs.trace import current_tracer
from ..sim.packet import Color
from ..sim.stats import TimeSeries
from .wire import DATA_PREFIX, HEADER_SIZE, peek_flow_id, stamp_label

__all__ = ["LiveRouter"]

#: Queue service order inside the PELS aggregate (strict priority).
_PELS_COLORS = (Color.GREEN, Color.YELLOW, Color.RED)

#: Raw color byte of best-effort traffic (= int(Color.BEST_EFFORT)).
_BE = 3

#: Byte offset of the color mark in the wire header (see wire.py).
_COLOR_OFFSET = 20


class LiveRouter:
    """Tri-color strict-priority + FIFO under WRR, on a wall clock.

    Parameters
    ----------
    clock:
        The session :class:`~repro.core.clock.Clock` (shared with the
        server and client so one-way delays are measurable).
    bottleneck_bps:
        Raw link rate of the output port; WRR splits it between the
        PELS aggregate and the Internet FIFO per ``config``.
    config:
        Buffer sizes and WRR weights — the same
        :class:`~repro.core.pels_queue.PelsQueueConfig` the simulator
        uses, so live and simulated bottlenecks are parameterized
        identically.
    interval:
        ``T``, the Eq. 11 feedback computation period (wall seconds).
    router_id:
        Label identity; must be >= 1 (0 marks "never stamped").
    service_tick:
        Target sleep of the token-bucket service loop.  Each wake
        drains every packet the accumulated credit covers, so the tick
        bounds burstiness, not throughput.

    Forwarding destinations: :attr:`flow_routes` maps a flow id to the
    receiver address the gateway registered for it; datagrams whose
    flow id has no route (cross traffic, the single-session stack) fall
    back to :attr:`dst_addr`.  Forwarded datagrams leave through
    :attr:`transport` — anything with ``sendto(data, addr)``, in
    practice the router's own
    :class:`~repro.live.endpoint.DatagramEndpoint`.
    """

    def __init__(self, clock: Clock, bottleneck_bps: float,
                 config: Optional[PelsQueueConfig] = None,
                 interval: float = 0.030, router_id: int = 1,
                 window_intervals: int = 5,
                 service_tick: float = 0.002) -> None:
        if bottleneck_bps <= 0:
            raise ValueError("bottleneck rate must be positive")
        if router_id < 1:
            raise ValueError("router ids start at 1 (0 = unstamped)")
        if service_tick <= 0:
            raise ValueError("service tick must be positive")
        self.clock = clock
        self.bottleneck_bps = bottleneck_bps
        self.config = config or PelsQueueConfig()
        self.interval = interval
        self.service_tick = service_tick
        self.feedback = FeedbackComputer(
            bottleneck_bps * self.config.pels_share(), interval=interval,
            router_id=router_id, window_intervals=window_intervals)
        self._pels_bytes = 0

        cfg = self.config
        #: Per-color drop-tail queues of raw datagrams (as bytearrays,
        #: so labels can be stamped in place at service time), indexed
        #: by the raw color byte — ``Color`` is an IntEnum, so enum
        #: subscripts keep working for callers while the hot path uses
        #: plain ints.
        self._queues: List[Deque[bytearray]] = [deque(), deque(),
                                                deque(), deque()]
        self._green, self._yellow, self._red, self._internet = self._queues
        self._limits = [cfg.green_buffer, cfg.yellow_buffer,
                        cfg.red_buffer, cfg.internet_buffer]
        self.arrivals = [0, 0, 0, 0]
        self.drops = [0, 0, 0, 0]
        self.forwarded = [0, 0, 0, 0]
        #: Datagrams rejected at ingest (not a valid data packet).
        self.malformed = 0
        #: Layered shedding state: 0 = off, 1 = shed red, 2 = shed
        #: red + yellow.  Green and best-effort are never shed.
        self.shed_level = 0
        self._shed = [False, False, False, False]
        self.shed_packets = [0, 0, 0, 0]
        self.shed_bytes = [0, 0, 0, 0]
        # Deficit WRR between the PELS aggregate and the Internet FIFO,
        # mirroring WeightedRoundRobinScheduler: each aggregate earns
        # quantum * weight per round and spends it in bytes.
        total = cfg.pels_weight + cfg.internet_weight
        self._quanta = (cfg.quantum_bytes * cfg.pels_weight / total,
                        cfg.quantum_bytes * cfg.internet_weight / total)
        self._deficit = [0.0, 0.0]
        self._wrr_turn = 0

        #: Per-flow forwarding destinations (gateway-installed routes).
        self.flow_routes: Dict[int, Tuple[str, int]] = {}
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self.loss_series = TimeSeries("virtual-loss")
        self.rate_series = TimeSeries("pels-arrival-rate")
        self._trace = current_tracer()
        registry = current_registry()
        self._forwarded_counter = registry.counter("live_router_forwarded") \
            if registry is not None else None
        self._tasks: List[asyncio.Task] = []
        self._running = False

    # -- ingest (hot path) -------------------------------------------------

    def _ingest(self, data: bytes, addr=None) -> None:
        """Classify + enqueue; malformed datagrams are counted, dropped.

        The endpoint handler (``addr`` is unused).  Gates on the data
        prefix and peeks the raw color byte instead of decoding the
        header; all bookkeeping is flat-list indexing on it.
        """
        if len(data) < HEADER_SIZE or not data.startswith(DATA_PREFIX):
            self.malformed += 1
            return
        color = data[_COLOR_OFFSET]
        if color > _BE:
            self.malformed += 1
            return
        self.arrivals[color] += 1
        if color != _BE:
            # Eq. 11 counts PELS arrivals at the port, before any drop,
            # exactly as RouterFeedback.observe counts in the simulator.
            self._pels_bytes += len(data)
        if self._shed[color]:
            # Overload shedding: discard at ingest, after the offered-
            # load accounting above (senders keep seeing honest virtual
            # loss) but before the queue ever holds the bytes.
            self.shed_packets[color] += 1
            self.shed_bytes[color] += len(data)
            if self._trace is not None:
                self._trace.drop("live-router", "shed", color, -1)
            return
        queue = self._queues[color]
        if len(queue) >= self._limits[color]:
            self.drops[color] += 1
            if self._trace is not None:
                self._trace.drop("live-router", "overflow", color, -1)
            return
        queue.append(bytearray(data))
        if self._trace is not None:
            self._trace.enqueue("live-router", color, -1, True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the service and epoch tasks (call once, inside a loop)."""
        if self._running:
            raise RuntimeError("router already started")
        self._running = True
        self._tasks = [asyncio.ensure_future(self._serve()),
                       asyncio.ensure_future(self._epochs())]

    async def stop(self) -> None:
        self._running = False
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    # -- service path ------------------------------------------------------

    def _dequeue_pels(self) -> Optional[bytearray]:
        for color in (0, 1, 2):
            queue = self._queues[color]
            if queue:
                self.forwarded[color] += 1
                if self._trace is not None:
                    self._trace.dequeue("live-router", color, -1)
                return queue.popleft()
        return None

    def _dequeue_internet(self) -> Optional[bytearray]:
        queue = self._internet
        if queue:
            self.forwarded[_BE] += 1
            return queue.popleft()
        return None

    def _next_datagram(self) -> Optional[bytearray]:
        """One deficit-WRR service decision across the two aggregates."""
        green, yellow, red = self._green, self._yellow, self._red
        for _ in range(2):
            turn = self._wrr_turn
            if turn == 0:
                dequeue = self._dequeue_pels
                queue_empty = not (green or yellow or red)
            else:
                dequeue = self._dequeue_internet
                queue_empty = not self._internet
            if queue_empty:
                # Empty aggregates forfeit their deficit (standard DRR),
                # so an idle Internet queue cannot bank credit.
                self._deficit[turn] = 0.0
                self._wrr_turn = 1 - turn
                continue
            head_size = len(self._head(turn))
            if self._deficit[turn] < head_size:
                self._deficit[turn] += self._quanta[turn]
                if self._deficit[turn] < head_size:
                    self._wrr_turn = 1 - turn
                    continue
            datagram = dequeue()
            assert datagram is not None
            self._deficit[turn] -= len(datagram)
            return datagram
        return None

    def _head(self, turn: int) -> bytearray:
        if turn == 1:
            return self._internet[0]
        for queue in (self._green, self._yellow, self._red):
            if queue:
                return queue[0]
        raise AssertionError("head() on empty aggregate")

    def _drain(self, credit: float) -> float:
        """Forward every datagram ``credit`` bytes cover; return the rest.

        Synchronous so the service loop stays a straight token-credit
        computation per wake (and so WRR/put-back behavior is unit-
        testable under a :class:`~repro.core.clock.ManualClock` without
        sockets or sleeps).  A datagram dequeued under WRR that the
        link has no credit for yet is put back at the head of its
        queue with its deficit refunded — it was not serviced.
        """
        next_datagram = self._next_datagram
        forward = self._forward
        while True:
            pending = next_datagram()
            if pending is None:
                return credit
            size = len(pending)
            if credit < size:
                color = pending[_COLOR_OFFSET]
                self._queues[color].appendleft(pending)
                self.forwarded[color] -= 1
                self._deficit[0 if color != _BE else 1] += size
                return credit
            credit -= size
            forward(pending)

    async def _serve(self) -> None:
        """Token-bucket pacing at the bottleneck link rate."""
        bytes_per_second = self.bottleneck_bps / 8
        # Credit cap: a few ticks' worth, so an idle link can absorb a
        # burst without ever exceeding the configured average rate.
        burst_bytes = max(4 * bytes_per_second * self.service_tick,
                          2 * self.config.quantum_bytes)
        tick = self.service_tick
        sleep = asyncio.sleep
        drain = self._drain
        clock = self.clock
        credit = 0.0
        last = clock.now
        while self._running:
            await sleep(tick)
            now = clock.now
            credit = min(credit + (now - last) * bytes_per_second,
                         burst_bytes)
            last = now
            credit = drain(credit)

    def _forward(self, datagram: bytearray) -> None:
        if datagram[_COLOR_OFFSET] != _BE:
            stamp_label(datagram, self.feedback.label)
        if self._forwarded_counter is not None:
            self._forwarded_counter.inc()
        routes = self.flow_routes
        dst = routes.get(peek_flow_id(datagram), self.dst_addr) if routes \
            else self.dst_addr
        if dst is not None and self.transport is not None:
            self.transport.sendto(datagram, dst)

    # -- Eq. 11 epochs -----------------------------------------------------

    async def _epochs(self) -> None:
        last = self.clock.now
        while self._running:
            await asyncio.sleep(self.interval)
            now = self.clock.now
            elapsed = now - last
            last = now
            label = self.feedback.close(self._pels_bytes, elapsed=elapsed)
            self._pels_bytes = 0
            self.loss_series.record(now, label.loss)
            self.rate_series.record(now, self.feedback.rate_bps)
            if self._trace is not None:
                self._trace.epoch(now, label.router_id, label.epoch,
                                  self.feedback.rate_bps, label.loss)

    # -- overload shedding -------------------------------------------------

    def set_shed_level(self, level: int) -> None:
        """Set layered shedding: 0 = off, 1 = red, 2 = red + yellow.

        Green base-layer packets and the Internet FIFO are never shed
        at any level — the whole point of the layered codec is that the
        enhancement bands are the cheap thing to lose.
        """
        if not 0 <= level <= 2:
            raise ValueError("shed level must be 0, 1 or 2")
        self.shed_level = level
        self._shed[int(Color.RED)] = level >= 1
        self._shed[int(Color.YELLOW)] = level >= 2

    # -- introspection -----------------------------------------------------

    def queue_depth(self, color: Color) -> int:
        return len(self._queues[color])

    def queue_depths(self) -> List[int]:
        """Current occupancy of all four queues, indexed by raw color."""
        return [len(queue) for queue in self._queues]

    def mean_virtual_loss(self, t_start: float = 0.0) -> float:
        return self.loss_series.mean(t_start, float("inf"))

    def total_forwarded(self) -> int:
        return sum(self.forwarded)
