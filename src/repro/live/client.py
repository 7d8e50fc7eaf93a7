"""The live PELS receiver: delay probes, frame accounting, label echo.

For every data packet the client measures the one-way delay per color
(the sender's monotonic timestamp is directly comparable on loopback,
where both endpoints share a clock — see :mod:`repro.core.clock`),
accumulates :class:`~repro.video.decoder.FrameReception` state for the
offline PSNR reconstruction of Section 6.5, and echoes the packet's
feedback label straight back to the server in an ACK.  The ACK path
deliberately bypasses the router — the uncongested-reverse-path model
of DESIGN.md §5 — and per-packet echo plus the server-side epoch
freshness filter reproduce the simulator's feedback loop exactly: any
surviving ACK of an epoch delivers the identical label.

The per-datagram path is one pass: :func:`~repro.live.wire.unpack_header`
unpacks and validates the header once (the same checks as
:func:`~repro.live.wire.decode_packet`), and the ACK is one
``HEADER.pack`` of the received fields — no :class:`LivePacket` round
trip.  Every rejected datagram — malformed, or an ACK arriving at the
receiver — is counted in :attr:`LiveClient.malformed`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..obs.trace import current_tracer
from ..sim.packet import Color, FeedbackLabel
from ..sim.stats import DelayProbe
from ..video.decoder import FrameReception
from .wire import (HEADER, MAGIC, PTYPE_ACK, PTYPE_DATA, VERSION,
                   WireFormatError, unpack_header)

__all__ = ["FlowReceiver", "LiveClient"]


class FlowReceiver:
    """Receiver-side state of one live PELS flow."""

    def __init__(self, flow_id: int, green_packets: int,
                 delay_series_stride: int = 1) -> None:
        self.flow_id = flow_id
        self.green_packets = green_packets
        self.packets_received = 0
        self.bytes_received = 0
        self.frames: Dict[int, FrameReception] = {}
        #: The freshest label seen, by (router switch | larger epoch) —
        #: exposed for tests; the echo itself is per packet.
        self.last_label: Optional[FeedbackLabel] = None
        self.delay_probes: Dict[Color, DelayProbe] = {
            color: DelayProbe(color.name.lower(),
                              series_stride=delay_series_stride)
            for color in (Color.GREEN, Color.YELLOW, Color.RED)
        }
        self._probe_by_color = [self.delay_probes[Color.GREEN],
                                self.delay_probes[Color.YELLOW],
                                self.delay_probes[Color.RED],
                                None]

    def mean_delay(self, color: Color) -> float:
        return self.delay_probes[color].mean

    def frame_receptions(self, n_frames: int, green_sent: int,
                         enhancement_sent_per_frame:
                         Optional[Dict[int, int]] = None
                         ) -> List[FrameReception]:
        """Ordered receptions for frames ``0..n_frames-1``.

        Same contract as ``PelsSink.frame_receptions``: the sender
        knows what it emitted per frame, so the caller passes those
        counts and utility (useful/sent) is well-defined.
        """
        out: List[FrameReception] = []
        for frame_id in range(n_frames):
            reception = self.frames.get(frame_id,
                                        FrameReception(frame_id=frame_id))
            reception.green_sent = green_sent
            if enhancement_sent_per_frame is not None:
                reception.enhancement_sent = enhancement_sent_per_frame.get(
                    frame_id, 0)
            else:
                reception.enhancement_sent = max(
                    reception.enhancement_received, default=-1) + 1
            out.append(reception)
        return out


#: Raw color bytes (see wire.py).
_GREEN = int(Color.GREEN)
_BE = int(Color.BEST_EFFORT)


class LiveClient:
    """Receiving endpoint for every flow of a live session.

    :meth:`datagram_received` is the handler of the client's
    :class:`~repro.live.endpoint.DatagramEndpoint`; ACKs leave through
    :attr:`transport` (anything with ``sendto(data, addr)``).
    """

    def __init__(self, clock: Clock, green_packets: int = 21,
                 delay_series_stride: int = 1) -> None:
        self.clock = clock
        self.green_packets = green_packets
        self.delay_series_stride = delay_series_stride
        self.flows: Dict[int, FlowReceiver] = {}
        #: Where ACKs go (the server's endpoint, set by the session).
        self.server_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self.cross_packets_received = 0
        self.malformed = 0
        self._trace = current_tracer()

    def flow(self, flow_id: int) -> FlowReceiver:
        receiver = self.flows.get(flow_id)
        if receiver is None:
            receiver = FlowReceiver(flow_id, self.green_packets,
                                    self.delay_series_stride)
            self.flows[flow_id] = receiver
        return receiver

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            (_, _, ptype, flow_id, seq, frame_id, index, color, router_id,
             epoch, loss, sent_at) = unpack_header(data)
        except WireFormatError:
            self.malformed += 1
            return
        if ptype != PTYPE_DATA:
            self.malformed += 1
            return
        if color == _BE:
            self.cross_packets_received += 1
            return
        now = self.clock.now
        receiver = self.flows.get(flow_id)
        if receiver is None:
            receiver = self.flow(flow_id)
        receiver.packets_received += 1
        receiver.bytes_received += len(data)
        receiver._probe_by_color[color].record(now, now - sent_at)
        if frame_id >= 0 and index >= 0:
            reception = receiver.frames.get(frame_id)
            if reception is None:
                reception = FrameReception(frame_id=frame_id)
                receiver.frames[frame_id] = reception
            if color == _GREEN:
                reception.green_received += 1
            else:
                # Green occupies indices [0, green_packets); enhancement
                # indices are relative to the first FGS packet.
                reception.enhancement_received.add(
                    index - receiver.green_packets)
        if router_id:
            previous = receiver.last_label
            if previous is None or router_id != previous.router_id \
                    or epoch > previous.epoch:
                receiver.last_label = FeedbackLabel(router_id, epoch, loss)
        # Echo the label to the server, router bypassed.
        if self.transport is not None and self.server_addr is not None:
            self.transport.sendto(
                HEADER.pack(MAGIC, VERSION, PTYPE_ACK, flow_id, seq, -1, -1,
                            color, router_id, epoch, loss, now),
                self.server_addr)
