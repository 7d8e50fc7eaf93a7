"""One batched UDP endpoint for every live socket.

The server, the client and every router (the loopback session's and
each shard's) talk UDP through :class:`DatagramEndpoint`: a
non-blocking socket with enlarged buffers whose event-loop readiness
callback drains up to ``recv_batch`` datagrams per wake into a plain
``handler(data, addr)``.  The asyncio datagram transport pays one loop
iteration and one ``recvfrom`` per datagram; at thousands of packets
per second that per-packet overhead, not the protocol logic, is the
dominant cost on both sides of the gateway.

Sends go straight to the socket.  A full send buffer (or any other
send-side ``OSError``) drops the datagram: on a UDP path that is wire
loss, and the PELS control loops already treat it as such.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Optional, Tuple

__all__ = ["DatagramEndpoint", "SOCKET_BUFFER_BYTES"]

#: Receive/send buffer request for every live socket: enough to ride
#: out multi-millisecond scheduler stalls at 10k pkts/s x ~250-byte
#: datagrams.  The OS cap applies; default sizes still work.
SOCKET_BUFFER_BYTES = 1 << 21

#: Largest datagram read (the UDP payload limit).
_MAX_DATAGRAM = 65536


class DatagramEndpoint:
    """A bound UDP socket served by batched reads on an event loop.

    Parameters
    ----------
    handler:
        Called as ``handler(data, addr)`` for every datagram read.
    host, port:
        Local address to bind (port 0 picks a free one; see
        :attr:`sockname`).
    recv_batch:
        Datagrams read per readiness wake before yielding to the loop.
    loop:
        Event loop to register on (default: the running loop).
    """

    def __init__(self, handler: Callable[[bytes, Tuple[str, int]], None],
                 host: str = "127.0.0.1", port: int = 0,
                 recv_batch: int = 64,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        if recv_batch < 1:
            raise ValueError("recv batch must be at least one datagram")
        self.handler = handler
        self.recv_batch = recv_batch
        self._loop = loop or asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                try:
                    sock.setsockopt(socket.SOL_SOCKET, opt,
                                    SOCKET_BUFFER_BYTES)
                except OSError:
                    pass
            sock.bind((host, port))
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        self._sock: Optional[socket.socket] = sock
        self.sockname: Tuple[str, int] = sock.getsockname()[:2]
        self._loop.add_reader(sock.fileno(), self._on_readable)

    def _on_readable(self) -> None:
        """One readiness wake: hand up to ``recv_batch`` datagrams over."""
        recv = self._sock.recvfrom
        handler = self.handler
        for _ in range(self.recv_batch):
            try:
                data, addr = recv(_MAX_DATAGRAM)
            except OSError:  # drained (BlockingIOError) or socket error
                return
            handler(data, addr)

    def sendto(self, data, addr: Tuple[str, int]) -> None:
        """Send one datagram now; a full buffer drops it (wire loss)."""
        try:
            self._sock.sendto(data, addr)
        except OSError:
            pass

    def close(self) -> None:
        """Unregister and close the socket (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        self._loop.remove_reader(sock.fileno())
        sock.close()
