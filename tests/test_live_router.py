"""Deterministic LiveRouter internals under a ManualClock.

The live loopback suite (``--live``) exercises the router end to end
against real sockets and wall time; these tests pin the service-path
*logic* — WRR alternation, credit-shortfall put-back, overflow drop
accounting, the batched ingest fast path — with hand-built datagrams
and no sleeps, so they run in tier 1.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.pels_queue import PelsQueueConfig
from repro.live.endpoint import DatagramEndpoint
from repro.live.router import LiveRouter
from repro.live.wire import (HEADER, HEADER_SIZE, MAGIC, VERSION,
                             LivePacket, decode_packet, encode_packet,
                             peek_color, peek_flow_id, peek_is_valid,
                             peek_label, peek_ptype)
from repro.sim.packet import Color


def datagram(color: Color, flow_id: int = 0, seq: int = 0,
             size: int = 200) -> bytes:
    return encode_packet(LivePacket(flow_id=flow_id, seq=seq, color=color,
                                    sent_at=0.0, size=size))


class FakeTransport:
    """Captures (payload, destination) pairs the router forwards."""

    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data: bytes, addr) -> None:
        self.sent.append((bytes(data), addr))


def make_router(**overrides) -> LiveRouter:
    defaults = dict(
        clock=ManualClock(),
        bottleneck_bps=1_000_000.0,
        config=PelsQueueConfig(pels_weight=0.5, internet_weight=0.5,
                               green_buffer=4, yellow_buffer=4,
                               red_buffer=4, internet_buffer=4,
                               quantum_bytes=1000),
    )
    defaults.update(overrides)
    router = LiveRouter(**defaults)
    router.transport = FakeTransport()
    router.dst_addr = ("127.0.0.1", 9)
    return router


class TestIngest:
    def test_classifies_by_color_into_separate_queues(self):
        router = make_router()
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color))
        assert router.arrivals == [1, 1, 1, 1]
        for color in Color:
            assert router.queue_depth(color) == 1

    def test_truncated_and_garbage_color_datagrams_are_ignored(self):
        router = make_router()
        router._ingest(b"\x00" * (HEADER_SIZE - 1))
        bad = bytearray(datagram(Color.GREEN))
        bad[20] = 200  # color byte beyond BEST_EFFORT
        router._ingest(bytes(bad))
        assert router.arrivals == [0, 0, 0, 0]
        assert sum(len(q) for q in router._queues) == 0
        assert router.malformed == 2

    def test_foreign_magic_with_a_green_color_byte_is_rejected(self):
        # Stray bytes that happen to carry a valid color at offset 20
        # must not count as a green arrival nor feed Eq. 11.
        junk = bytearray(b"\xff" * HEADER_SIZE)
        junk[20] = 0
        router = make_router()
        router._ingest(bytes(junk))
        assert router.arrivals == [0, 0, 0, 0]
        assert router._pels_bytes == 0
        assert router.queue_depths() == [0, 0, 0, 0]
        assert router.malformed == 1

    def test_acks_are_not_forwarding_traffic(self):
        router = make_router()
        router._ingest(encode_packet(LivePacket(flow_id=1, seq=0,
                                                color=Color.GREEN,
                                                is_ack=True)))
        assert router.arrivals == [0, 0, 0, 0]
        assert router.malformed == 1

    @given(data=st.one_of(
        st.binary(max_size=2 * HEADER_SIZE),
        st.builds(lambda prefix, fields, pad: HEADER.pack(*prefix, *fields)
                  + pad,
                  st.tuples(st.one_of(st.just(MAGIC), st.integers(0, 65535)),
                            st.one_of(st.just(VERSION), st.integers(0, 255)),
                            st.integers(0, 3)),
                  st.tuples(st.integers(0, 2**32 - 1),
                            st.integers(0, 2**32 - 1),
                            st.integers(-2**31, 2**31 - 1),
                            st.integers(-2**31, 2**31 - 1),
                            st.one_of(st.integers(0, 4),
                                      st.integers(0, 255)),
                            st.integers(0, 2**32 - 1),
                            st.integers(0, 2**32 - 1),
                            st.floats(), st.floats()),
                  st.binary(max_size=64))))
    @settings(max_examples=400, deadline=None)
    def test_hostile_datagrams_are_counted_never_ingested(self, data):
        router = make_router()
        valid = peek_is_valid(data) and peek_ptype(data) == 0 \
            and peek_color(data) <= 3
        router._ingest(data)
        assert router.malformed == (0 if valid else 1)
        assert sum(router.arrivals) == (1 if valid else 0)
        assert router._pels_bytes == \
            (len(data) if valid and peek_color(data) < 3 else 0)

    def test_overflow_drops_are_counted_per_color(self):
        router = make_router()
        for seq in range(6):  # green_buffer is 4
            router._ingest(datagram(Color.GREEN, seq=seq))
        assert router.arrivals[Color.GREEN] == 6
        assert router.queue_depth(Color.GREEN) == 4
        assert router.drops[Color.GREEN] == 2
        assert router.drops[Color.YELLOW] == 0

    def test_pels_bytes_counted_before_drop_but_not_best_effort(self):
        # Eq. 11 counts arrivals at the port, including overflowed ones.
        router = make_router()
        for seq in range(5):
            router._ingest(datagram(Color.GREEN, seq=seq, size=200))
        router._ingest(datagram(Color.BEST_EFFORT, size=999))
        assert router._pels_bytes == 5 * 200


class TestServicePath:
    def test_strict_priority_inside_pels(self):
        router = make_router()
        for color in (Color.RED, Color.YELLOW, Color.GREEN):
            router._ingest(datagram(color))
        router._drain(10_000.0)
        colors = [peek_color(d) for d, _ in router.transport.sent]
        assert colors == [int(Color.GREEN), int(Color.YELLOW),
                          int(Color.RED)]
        assert router.forwarded == [1, 1, 1, 0]

    def test_wrr_alternates_between_pels_and_internet(self):
        router = make_router()
        for seq in range(3):
            router._ingest(datagram(Color.GREEN, seq=seq))
            router._ingest(datagram(Color.BEST_EFFORT, seq=seq))
        router._drain(10_000.0)
        colors = [peek_color(d) for d, _ in router.transport.sent]
        # Equal weights, equal sizes: neither aggregate may lag the
        # other by more than one quantum's worth of packets.
        assert sorted(colors) == [0, 0, 0, 3, 3, 3]
        for i in range(1, len(colors)):
            window = colors[: i + 1]
            assert abs(window.count(0) - window.count(3)) <= 5

    def test_credit_shortfall_puts_datagram_back_at_head(self):
        router = make_router()
        router._ingest(datagram(Color.GREEN, seq=0, size=400))
        router._ingest(datagram(Color.GREEN, seq=1, size=400))
        leftover = router._drain(500.0)  # covers one datagram, not two
        assert len(router.transport.sent) == 1
        assert leftover == pytest.approx(100.0)
        # The un-serviced datagram is back at the head, its forwarded
        # count restored and its WRR deficit refunded.
        assert router.queue_depth(Color.GREEN) == 1
        assert router.forwarded[Color.GREEN] == 1
        head = router._queues[Color.GREEN][0]
        assert peek_color(head) == int(Color.GREEN)

    def test_put_back_preserves_fifo_order(self):
        router = make_router()
        for seq in range(3):
            router._ingest(datagram(Color.GREEN, seq=seq, size=400))
        router._drain(450.0)
        router._drain(10_000.0)
        seqs = [decode_packet(d).seq for d, _ in router.transport.sent]
        assert seqs == [0, 1, 2]

    def test_empty_aggregate_forfeits_deficit(self):
        # Standard DRR: an idle Internet FIFO must not bank credit and
        # later burst past the PELS aggregate.
        router = make_router()
        router._ingest(datagram(Color.GREEN))
        router._drain(10_000.0)
        assert router._deficit[1] == 0.0

    def test_label_stamped_on_pels_not_best_effort(self):
        router = make_router()
        router.feedback.close(100_000, elapsed=0.030)  # nonzero loss
        router._ingest(datagram(Color.GREEN))
        router._ingest(datagram(Color.BEST_EFFORT))
        router._drain(10_000.0)
        by_color = {peek_color(d): d for d, _ in router.transport.sent}
        green_router_id, _, green_loss = peek_label(by_color[0])
        be_router_id, _, _ = peek_label(by_color[3])
        assert green_router_id == 1 and green_loss > 0
        assert be_router_id == 0

    def test_flow_routes_override_default_destination(self):
        router = make_router()
        router.flow_routes[7] = ("10.0.0.7", 1234)
        router._ingest(datagram(Color.GREEN, flow_id=7))
        router._ingest(datagram(Color.GREEN, flow_id=8))
        router._drain(10_000.0)
        destinations = {peek_flow_id(d): addr
                        for d, addr in router.transport.sent}
        assert destinations[7] == ("10.0.0.7", 1234)
        assert destinations[8] == ("127.0.0.1", 9)

    def test_serve_credit_accrues_with_manual_clock(self):
        # 1 mb/s for 0.01 s = 1250 bytes of credit.
        clock = ManualClock()
        router = make_router(clock=clock)
        for seq in range(4):
            router._ingest(datagram(Color.GREEN, seq=seq, size=400))
        clock.advance(0.01)
        credit = router._drain(0.01 * router.bottleneck_bps / 8)
        assert len(router.transport.sent) == 3  # 1250 // 400
        assert credit == pytest.approx(1250.0 - 1200.0)


class TestRawSocketBatching:
    """The shared batched endpoint, with the router ingest as handler."""

    def test_on_readable_drains_up_to_recv_batch(self):
        router = make_router()
        loop = asyncio.new_event_loop()
        endpoint = DatagramEndpoint(router._ingest, recv_batch=8, loop=loop)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for seq in range(12):
                sender.sendto(datagram(Color.GREEN, seq=seq),
                              endpoint.sockname)
            time.sleep(0.05)  # let loopback deliver all twelve
            endpoint._on_readable()
            assert router.arrivals[Color.GREEN] == 8  # one batch
            endpoint._on_readable()
            assert router.arrivals[Color.GREEN] == 12  # drained dry
            endpoint._on_readable()  # empty socket: a no-op wake
            assert router.arrivals[Color.GREEN] == 12
            # Overflowed past green_buffer=4: drop accounting intact.
            assert router.drops[Color.GREEN] == 8
        finally:
            sender.close()
            endpoint.close()
            loop.close()

    def test_constructor_rejects_bad_recv_batch(self):
        with pytest.raises(ValueError):
            DatagramEndpoint(lambda data, addr: None, recv_batch=0)

    def test_sendto_forwards_and_close_is_idempotent(self):
        loop = asyncio.new_event_loop()
        received = []
        endpoint = DatagramEndpoint(lambda data, addr: received.append(data),
                                    loop=loop)
        try:
            endpoint.sendto(bytearray(b"ping"), endpoint.sockname)
            time.sleep(0.05)
            endpoint._on_readable()
            assert received == [b"ping"]
        finally:
            endpoint.close()
            endpoint.close()
            loop.close()


class TestLayeredShedding:
    def test_level_one_sheds_red_only(self):
        router = make_router()
        router.set_shed_level(1)
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color))
        assert router.shed_packets == [0, 0, 1, 0]
        assert router.queue_depth(Color.RED) == 0
        assert router.queue_depth(Color.GREEN) == 1
        assert router.queue_depth(Color.YELLOW) == 1
        assert router.queue_depth(Color.BEST_EFFORT) == 1

    def test_level_two_sheds_red_and_yellow_never_green(self):
        router = make_router()
        router.set_shed_level(2)
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color, size=300))
        assert router.shed_packets == [0, 1, 1, 0]
        assert router.shed_bytes[Color.YELLOW] == \
            router.shed_bytes[Color.RED] > 0
        assert router.queue_depth(Color.GREEN) == 1
        assert router.queue_depth(Color.BEST_EFFORT) == 1

    def test_shed_packets_still_count_as_offered_load(self):
        # Eq. 11's virtual loss is computed over *offered* load — a
        # shed packet must still appear in arrivals and _pels_bytes so
        # upstream senders see the loss signal and back off.
        router = make_router()
        router.set_shed_level(1)
        for seq in range(3):
            router._ingest(datagram(Color.RED, seq=seq, size=200))
        assert router.arrivals[Color.RED] == 3
        assert router._pels_bytes == 3 * 200
        assert router.drops[Color.RED] == 0  # shed, not overflow

    def test_level_zero_restores_forwarding(self):
        router = make_router()
        router.set_shed_level(2)
        router._ingest(datagram(Color.RED, seq=0))
        router.set_shed_level(0)
        router._ingest(datagram(Color.RED, seq=1))
        assert router.queue_depth(Color.RED) == 1
        assert router.shed_packets[Color.RED] == 1

    def test_shed_level_validation_and_depth_introspection(self):
        router = make_router()
        for level in (-1, 3):
            with pytest.raises(ValueError):
                router.set_shed_level(level)
        router._ingest(datagram(Color.GREEN))
        router._ingest(datagram(Color.YELLOW))
        assert router.queue_depths() == [1, 1, 0, 0]


class TestWirePeeks:
    def test_peeks_agree_with_full_decode(self):
        data = encode_packet(LivePacket(flow_id=321, seq=5,
                                        color=Color.YELLOW, router_id=9,
                                        epoch=4, loss=0.25, sent_at=1.5,
                                        size=300))
        assert peek_flow_id(data) == 321
        assert peek_color(data) == int(Color.YELLOW)
        assert peek_ptype(data) == 0
        assert peek_label(data) == (9, 4, 0.25)
        assert peek_is_valid(data)

    def test_peek_is_valid_rejects_garbage(self):
        assert not peek_is_valid(b"short")
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=0)))
        data[0] ^= 0xFF  # corrupt the magic
        assert not peek_is_valid(bytes(data))
