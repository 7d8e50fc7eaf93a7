"""The live wire format and clock substrate (tier-1: no sockets).

Everything here is deterministic: encode/decode round trips, datagram
validation, the hostile-input behavior of the client's data path and
the server's ACK path, the in-place label re-stamping rule, the clock
protocol and the measured-elapsed branch of the Eq. 11 feedback
computer.  The
socket-touching smoke tests live in ``test_live_loopback.py`` behind
the ``live`` marker.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import Clock, ManualClock, WallClock
from repro.core.feedback import FeedbackComputer, FeedbackTracker
from repro.live.client import LiveClient
from repro.live.server import LiveServer
from repro.live.wire import (HEADER, HEADER_SIZE, LABEL_OFFSET, MAGIC,
                             VERSION, LivePacket, WireFormatError,
                             decode_packet, encode_packet, peek_color,
                             peek_label, stamp_label)
from repro.sim.packet import Color, FeedbackLabel

u32 = st.integers(0, 2**32 - 1)
frame_field = st.one_of(st.none(), st.integers(0, 2**31 - 1))
finite = st.floats(allow_nan=False, allow_infinity=False)

packets = st.builds(
    LivePacket,
    flow_id=u32,
    seq=u32,
    color=st.sampled_from(list(Color)),
    is_ack=st.booleans(),
    frame_id=frame_field,
    index_in_frame=frame_field,
    router_id=u32,
    epoch=u32,
    loss=st.floats(0.0, 1.0),
    sent_at=finite,
    size=st.integers(HEADER_SIZE, 1500),
)


class TestRoundTrip:
    @given(packet=packets)
    @settings(max_examples=200)
    def test_encode_decode_is_identity(self, packet):
        """Every header field — and the declared size — survives."""
        data = encode_packet(packet)
        assert len(data) == packet.size
        assert decode_packet(data) == packet

    @given(packet=packets)
    @settings(max_examples=50)
    def test_peek_matches_decode(self, packet):
        """The router's no-decode fast paths agree with a full decode."""
        data = encode_packet(packet)
        assert peek_color(data) == int(packet.color)
        assert peek_label(data) == (packet.router_id, packet.epoch,
                                    packet.loss)

    def test_label_property_none_until_stamped(self):
        packet = LivePacket(flow_id=1, seq=0)
        assert packet.label is None
        packet.with_label(FeedbackLabel(3, 7, 0.25))
        assert packet.label == FeedbackLabel(3, 7, 0.25)

    def test_payload_is_zero_padding(self):
        data = encode_packet(LivePacket(flow_id=1, seq=2, size=500))
        assert data[HEADER_SIZE:] == b"\x00" * (500 - HEADER_SIZE)


class TestValidation:
    @given(cut=st.integers(0, HEADER_SIZE - 1))
    @settings(max_examples=30)
    def test_truncated_datagram_rejected(self, cut):
        data = encode_packet(LivePacket(flow_id=1, seq=2))
        with pytest.raises(WireFormatError, match="truncated"):
            decode_packet(data[:cut])

    def test_bad_magic_rejected(self):
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=2)))
        data[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_packet(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=2)))
        data[2] = VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_packet(bytes(data))

    def test_bad_ptype_rejected(self):
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=2)))
        data[3] = 9
        with pytest.raises(WireFormatError, match="packet type"):
            decode_packet(bytes(data))

    def test_bad_color_rejected(self):
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=2)))
        data[20] = 200
        with pytest.raises(WireFormatError, match="color"):
            decode_packet(bytes(data))

    def test_undersized_declaration_rejected(self):
        with pytest.raises(WireFormatError, match="below header size"):
            encode_packet(LivePacket(flow_id=1, seq=2,
                                     size=HEADER_SIZE - 1))

    def test_random_noise_rejected(self):
        with pytest.raises(WireFormatError):
            decode_packet(b"\xde\xad" * HEADER_SIZE)


class TestImpossibleLabelsAndTimestamps:
    """Eq. 11 yields p in [0, 1): anything else is a typed reject."""

    @pytest.mark.parametrize("loss", [-5.0, 7.0, math.nan, math.inf,
                                      -math.inf, -1e-12, 1.0 + 1e-12])
    def test_label_loss_outside_unit_interval_rejected(self, loss):
        data = encode_packet(LivePacket(flow_id=1, seq=2, router_id=1,
                                        epoch=1, loss=loss))
        with pytest.raises(WireFormatError, match="loss"):
            decode_packet(data)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 1.0])
    def test_label_loss_bounds_are_inclusive(self, loss):
        data = encode_packet(LivePacket(flow_id=1, seq=2, router_id=1,
                                        epoch=1, loss=loss))
        assert decode_packet(data).loss == loss

    @pytest.mark.parametrize("sent_at", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, sent_at):
        data = encode_packet(LivePacket(flow_id=1, seq=2, sent_at=sent_at))
        with pytest.raises(WireFormatError, match="timestamp"):
            decode_packet(data)


class FakeTransport:
    """Captures (payload, destination) pairs an endpoint sends."""

    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, addr) -> None:
        self.sent.append((bytes(data), addr))


def make_client(clock=None) -> LiveClient:
    client = LiveClient(clock or ManualClock(10.0), green_packets=2)
    client.transport = FakeTransport()
    client.server_addr = ("127.0.0.1", 9)
    return client


def make_server() -> LiveServer:
    return LiveServer(ManualClock(10.0), 2, controller_kwargs={
        "initial_rate_bps": 50_000.0})


def is_valid(data: bytes, want_ack: bool) -> bool:
    """The reference verdict: a full decode of the expected type."""
    try:
        return decode_packet(data).is_ack == want_ack
    except WireFormatError:
        return False


u8 = st.integers(0, 255)
u16 = st.integers(0, 2**16 - 1)
i32 = st.integers(-2**31, 2**31 - 1)
any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -5.0, 7.0, 0.0, 0.5]))
#: A valid value, then an arbitrary one, for each ``HEADER`` field.
_FIELDS = [
    (st.just(MAGIC), u16), (st.just(VERSION), u8),
    (st.sampled_from([0, 1]), u8),
    (st.sampled_from([0, 1]), u32), (u32, u32),
    (st.integers(-1, 100), i32), (st.integers(-1, 100), i32),
    (st.sampled_from([0, 1, 2, 3]), u8),
    (st.one_of(st.just(1), u32), u32), (u32, u32),
    (st.floats(0.0, 1.0), any_float), (finite, any_float),
]


@st.composite
def hostile_headers(draw):
    """A valid header with up to three fields overwritten by arbitrary
    values (NaN and +-inf included), plus arbitrary padding."""
    fields = [draw(valid) for valid, _ in _FIELDS]
    for index in draw(st.sets(st.integers(0, len(_FIELDS) - 1),
                              max_size=3)):
        fields[index] = draw(_FIELDS[index][1])
    return HEADER.pack(*fields) + draw(st.binary(max_size=64))


hostile = st.one_of(st.binary(max_size=2 * HEADER_SIZE), hostile_headers())


class TestHostileInput:
    """Arbitrary bytes at the client's data path and the server's ACK
    path: no exception, every reject counted, nothing impossible reaches
    a controller or a delay probe."""

    @given(data=hostile)
    @settings(max_examples=400, deadline=None)
    def test_client_counts_rejects_and_records_finite_delays(self, data):
        client = make_client()
        valid = is_valid(data, want_ack=False)
        client.datagram_received(data, ("127.0.0.1", 1))
        assert client.malformed == (0 if valid else 1)
        if not valid:
            assert client.flows == {} and client.transport.sent == []
            return
        for receiver in client.flows.values():
            for probe in receiver.delay_probes.values():
                assert all(math.isfinite(v) for _, v in probe.series)
                assert math.isfinite(probe._sum)
        # Every accepted non-cross packet is echoed exactly once.
        assert len(client.transport.sent) == \
            (0 if client.cross_packets_received else 1)

    @given(data=hostile)
    @settings(max_examples=400, deadline=None)
    def test_server_rejects_never_move_a_controller(self, data):
        server = make_server()
        before = {fid: f.controller.rate_bps
                  for fid, f in server.flows.items()}
        valid = is_valid(data, want_ack=True)
        server.datagram_received(data, ("127.0.0.1", 1))
        assert server.malformed == (0 if valid else 1)
        for flow_id, flow in server.flows.items():
            rate = flow.controller.rate_bps
            assert math.isfinite(rate)
            if not valid:
                assert rate == before[flow_id]
                assert flow.acks_received == 0
                assert len(flow.loss_series) == 0

    def test_out_of_range_ack_leaves_the_rate_alone(self):
        for loss in (-5.0, math.nan, math.inf, 7.0):
            server = make_server()
            ack = HEADER.pack(MAGIC, VERSION, 1, 0, 1, -1, -1, 0, 3, 1,
                              loss, 0.0)
            server.datagram_received(ack, ("127.0.0.1", 1))
            assert server.flows[0].controller.rate_bps == 50_000.0
            assert server.malformed == 1

    def test_nan_timestamp_never_reaches_a_delay_probe(self):
        client = make_client()
        data = HEADER.pack(MAGIC, VERSION, 0, 4, 1, 0, 0, 0, 0, 0, 0.0,
                           math.nan) + bytes(100)
        client.datagram_received(data, ("127.0.0.1", 1))
        assert client.malformed == 1
        assert 4 not in client.flows

    def test_acks_at_the_client_and_data_at_the_server_are_rejects(self):
        client, server = make_client(), make_server()
        data = encode_packet(LivePacket(flow_id=0, seq=1, sent_at=1.0))
        ack = encode_packet(LivePacket(flow_id=0, seq=1, is_ack=True,
                                       sent_at=1.0))
        client.datagram_received(ack, ("127.0.0.1", 1))
        server.datagram_received(data, ("127.0.0.1", 1))
        assert client.malformed == 1 and server.malformed == 1


class TestClientAck:
    @given(flow_id=u32, seq=u32,
           color=st.sampled_from([Color.GREEN, Color.YELLOW, Color.RED]),
           frame_id=frame_field, index=frame_field, router_id=u32,
           epoch=u32, loss=st.floats(0.0, 1.0), sent_at=finite,
           size=st.integers(HEADER_SIZE, 600))
    @settings(max_examples=150, deadline=None)
    def test_ack_bytes_match_the_reference_encoder(
            self, flow_id, seq, color, frame_id, index, router_id, epoch,
            loss, sent_at, size):
        """The one-``HEADER.pack`` ACK is byte-identical to encoding a
        :class:`LivePacket` ACK of the same fields."""
        client = make_client()
        client.datagram_received(encode_packet(LivePacket(
            flow_id=flow_id, seq=seq, color=color, frame_id=frame_id,
            index_in_frame=index, router_id=router_id, epoch=epoch,
            loss=loss, sent_at=sent_at, size=size)), ("127.0.0.1", 1))
        assert client.transport.sent == [(encode_packet(LivePacket(
            flow_id=flow_id, seq=seq, color=color, is_ack=True,
            router_id=router_id, epoch=epoch, loss=loss,
            sent_at=client.clock.now)), ("127.0.0.1", 9))]
        receiver = client.flows[flow_id]
        assert receiver.bytes_received == size
        assert receiver.delay_probes[color].count == 1


class TestStampLabel:
    """The Section 5.2 max-loss override, applied in place."""

    def _wire(self, router_id=0, epoch=0, loss=0.0):
        return bytearray(encode_packet(LivePacket(
            flow_id=1, seq=2, color=Color.GREEN,
            router_id=router_id, epoch=epoch, loss=loss)))

    def test_stamps_unlabelled_packet(self):
        data = self._wire()
        stamp_label(data, FeedbackLabel(4, 9, 0.0))
        assert peek_label(data) == (4, 9, 0.0)

    def test_larger_loss_overrides(self):
        data = self._wire(router_id=1, epoch=5, loss=0.02)
        stamp_label(data, FeedbackLabel(2, 3, 0.08))
        assert peek_label(data) == (2, 3, 0.08)

    def test_smaller_or_equal_loss_does_not_override(self):
        for loss in (0.01, 0.02):
            data = self._wire(router_id=1, epoch=5, loss=0.02)
            stamp_label(data, FeedbackLabel(2, 3, loss))
            assert peek_label(data) == (1, 5, 0.02), \
                "most congested router must keep the label"

    @given(existing=st.floats(0.0, 1.0), incoming=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_override_rule_is_strict_max(self, existing, incoming):
        data = self._wire(router_id=1, epoch=5, loss=existing)
        stamp_label(data, FeedbackLabel(2, 3, incoming))
        expected = (2, 3, incoming) if incoming > existing \
            else (1, 5, existing)
        assert peek_label(data) == expected

    def test_stamp_only_touches_label_bytes(self):
        packet = LivePacket(flow_id=7, seq=42, color=Color.YELLOW,
                            frame_id=3, index_in_frame=11, sent_at=1.5,
                            size=500)
        data = bytearray(encode_packet(packet))
        stamp_label(data, FeedbackLabel(4, 9, 0.5))
        decoded = decode_packet(bytes(data))
        packet.with_label(FeedbackLabel(4, 9, 0.5))
        assert decoded == packet
        assert LABEL_OFFSET + 16 <= HEADER_SIZE


class TestLabelStaleness:
    """Decoded labels obey the source-side freshness filter."""

    def _echoed(self, epoch, loss):
        """A label as it arrives at the server: wire round-tripped."""
        data = encode_packet(LivePacket(flow_id=1, seq=epoch,
                                        router_id=1, epoch=epoch,
                                        loss=loss))
        return decode_packet(data).label

    def test_replayed_epoch_rejected(self):
        tracker = FeedbackTracker()
        assert tracker.accept(self._echoed(1, 0.1)) == 0.1
        assert tracker.accept(self._echoed(1, 0.1)) is None
        assert tracker.accept(self._echoed(2, 0.2)) == 0.2
        assert tracker.rejected == 1 and tracker.stale_discarded == 0

    def test_reordered_older_epoch_counted_stale(self):
        tracker = FeedbackTracker()
        tracker.accept(self._echoed(5, 0.1))
        assert tracker.accept(self._echoed(3, 0.4)) is None
        assert tracker.stale_discarded == 1

    def test_unstamped_packet_yields_no_feedback(self):
        packet = decode_packet(encode_packet(LivePacket(flow_id=1, seq=0)))
        assert FeedbackTracker().accept(packet.label) is None


class TestClocks:
    def test_simulator_and_wall_clock_satisfy_protocol(self):
        from repro.sim.engine import Simulator
        assert isinstance(Simulator(seed=1), Clock)
        assert isinstance(WallClock(), Clock)
        assert isinstance(ManualClock(), Clock)

    def test_wall_clock_starts_near_zero_and_is_monotonic(self):
        clock = WallClock()
        first = clock.now
        assert 0.0 <= first < 1.0
        assert clock.now >= first

    def test_manual_clock_advances_only_on_command(self):
        clock = ManualClock(start=2.0)
        assert clock.now == 2.0
        assert clock.advance(0.5) == 2.5
        assert clock.now == 2.5
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestFeedbackComputerElapsed:
    """The measured-interval branch the live router relies on."""

    def test_nominal_and_measured_agree_when_punctual(self):
        nominal = FeedbackComputer(2e6, interval=0.030)
        measured = FeedbackComputer(2e6, interval=0.030)
        for _ in range(5):
            a = nominal.close(9000)
            b = measured.close(9000, elapsed=0.030)
            assert a.loss == pytest.approx(b.loss)
        assert nominal.rate_bps == pytest.approx(measured.rate_bps)

    def test_timer_overshoot_does_not_inflate_rate(self):
        """The same bytes over a longer measured span = a lower R, so
        an asyncio sleep overshoot cannot masquerade as congestion."""
        punctual = FeedbackComputer(2e6, interval=0.030)
        jittery = FeedbackComputer(2e6, interval=0.030)
        for _ in range(5):
            punctual.close(9000, elapsed=0.030)
            jittery.close(9000, elapsed=0.060)
        assert jittery.rate_bps == pytest.approx(punctual.rate_bps / 2)
        assert jittery.loss < punctual.loss

    def test_all_nominal_reproduces_sim_arithmetic(self):
        """elapsed=None must keep the historical ``len(window) * T``
        product bit for bit (the byte-identity guarantee)."""
        computer = FeedbackComputer(2e6, interval=0.030,
                                    window_intervals=5)
        for k in range(7):
            computer.close(10_000 + k)
        window = [10_002, 10_003, 10_004, 10_005, 10_006]
        expected = sum(window) * 8 / (len(window) * 0.030)
        assert computer.rate_bps == expected  # exact, not approx

    def test_epoch_advances_and_loss_clamped_nonnegative(self):
        computer = FeedbackComputer(2e6, interval=0.030)
        label = computer.close(0, elapsed=0.030)
        assert label.epoch == 1 and label.loss == 0.0
        label = computer.close(60_000, elapsed=0.030)
        assert label.epoch == 2 and label.loss > 0.0
        assert math.isfinite(label.loss)
