"""Live job streaming: minimal RFC 6455 WebSocket over asyncio.

While a job executes, its worker child appends JSONL events to the
job's stream file — lifecycle transitions from the queue, per-epoch
``obs`` metric snapshots, and at completion the exact ``--metrics-out``
line(s) of the finished artifact.  This module serves that stream to
subscribed clients: the API accepts a ``GET /jobs/<id>/stream`` upgrade
and :func:`stream_job` tails the file, pushing each line as one text
frame until the job settles and the file is drained.

The WebSocket subset implemented here is deliberately small but real —
RFC 6455 handshake (Sec-WebSocket-Accept), server frames unmasked,
client frames unmasked *rejected* per spec, close/ping handled — and
is stdlib-only, matching the repo's no-dependency rule.  Clients that
cannot speak WebSocket get the same lines from the plain-HTTP
long-poll fallback in :mod:`repro.service.api`.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import struct
from typing import List, Optional, Tuple

from .queue import JobQueue
from .storage import FileStorage

__all__ = ["accept_key", "encode_frame", "FrameParser", "stream_job",
           "OP_TEXT", "OP_CLOSE", "OP_PING", "OP_PONG"]

#: Fixed GUID every WebSocket handshake concatenates (RFC 6455 §1.3).
_HANDSHAKE_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


def accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1(
        (client_key.strip() + _HANDSHAKE_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def encode_frame(payload: bytes, opcode: int = OP_TEXT,
                 mask: Optional[bytes] = None) -> bytes:
    """One complete frame (FIN set).  Servers send unmasked
    (``mask=None``); the test/client helper masks with a 4-byte key as
    the spec requires of clients."""
    header = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask is not None else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask is not None:
        if len(mask) != 4:
            raise ValueError("mask key must be 4 bytes")
        header += mask
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


class FrameParser:
    """Incremental frame decoder for one direction of a connection.

    Feed raw bytes, collect ``(opcode, payload)`` tuples.  When
    ``require_mask`` is set (the server side), an unmasked frame raises
    ``ValueError`` — RFC 6455 §5.1 demands the connection be failed.
    Fragmented messages (FIN clear) are reassembled; control frames may
    interleave.
    """

    def __init__(self, require_mask: bool = False) -> None:
        self.require_mask = require_mask
        self._buffer = bytearray()
        self._fragments: List[bytes] = []
        self._fragment_opcode: Optional[int] = None

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self._buffer += data
        frames: List[Tuple[int, bytes]] = []
        while True:
            parsed = self._parse_one()
            if parsed is None:
                return frames
            fin, opcode, payload = parsed
            if opcode in (OP_CLOSE, OP_PING, OP_PONG):
                frames.append((opcode, payload))
                continue
            if opcode == 0x0:  # continuation
                if self._fragment_opcode is None:
                    raise ValueError("continuation frame with no start")
                self._fragments.append(payload)
                if fin:
                    frames.append((self._fragment_opcode,
                                   b"".join(self._fragments)))
                    self._fragments, self._fragment_opcode = [], None
                continue
            if not fin:
                self._fragment_opcode = opcode
                self._fragments = [payload]
                continue
            frames.append((opcode, payload))

    def _parse_one(self) -> Optional[Tuple[bool, int, bytes]]:
        buf = self._buffer
        if len(buf) < 2:
            return None
        fin = bool(buf[0] & 0x80)
        opcode = buf[0] & 0x0F
        masked = bool(buf[1] & 0x80)
        if self.require_mask and not masked:
            raise ValueError("client frames must be masked (RFC 6455)")
        length = buf[1] & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < 4:
                return None
            (length,) = struct.unpack_from("!H", buf, 2)
            offset = 4
        elif length == 127:
            if len(buf) < 10:
                return None
            (length,) = struct.unpack_from("!Q", buf, 2)
            offset = 10
        mask = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            mask = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        if masked:
            payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        del self._buffer[:offset + length]
        return fin, opcode, payload


async def stream_job(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     storage: FileStorage, queue: JobQueue,
                     job_id: str, *, offset: int = 0,
                     poll: float = 0.15) -> None:
    """Tail a job's stream over an upgraded WebSocket connection.

    Sends every complete stream line as one text frame, polling the
    file and the job record; once the job is terminal and the file is
    drained, a final ``{"type": "end", ...}`` frame and a close frame
    finish the conversation.  A client close (or EOF, or a protocol
    violation) tears the stream down immediately.  The handshake is
    the API layer's job — this coroutine starts with the socket
    already upgraded.
    """
    import json

    parser = FrameParser(require_mask=True)
    closed = False

    async def _drain_client() -> None:
        nonlocal closed
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
                for opcode, payload in parser.feed(data):
                    if opcode == OP_CLOSE:
                        return
                    if opcode == OP_PING:
                        writer.write(encode_frame(payload, OP_PONG))
                        await writer.drain()
        except (ValueError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            closed = True

    watcher = asyncio.ensure_future(_drain_client())
    try:
        while not closed:
            lines, offset = storage.read_stream(job_id, offset)
            for line in lines:
                writer.write(encode_frame(line.encode()))
            if lines:
                await writer.drain()
            job = queue.get(job_id)
            if job is None or job.terminal:
                # One final drain: the terminal state line may have
                # landed between the read above and the record check.
                lines, offset = storage.read_stream(job_id, offset)
                for line in lines:
                    writer.write(encode_frame(line.encode()))
                end = json.dumps({"type": "end",
                                  "state": job.state if job else "unknown"})
                writer.write(encode_frame(end.encode()))
                writer.write(encode_frame(struct.pack("!H", 1000),
                                          OP_CLOSE))
                await writer.drain()
                break
            await asyncio.sleep(poll)
    except (ConnectionError, BrokenPipeError):
        pass
    finally:
        watcher.cancel()
        try:
            await watcher
        except (asyncio.CancelledError, Exception):
            pass
