"""Transports: how encoded frames travel between live nodes.

A :class:`Transport` moves opaque frame bodies (produced by
:mod:`repro.runtime.wire`) towards the host responsible for the recipient
node.  Three implementations:

* :class:`MemoryTransport` — in-process delivery through the asyncio loop's
  callback queue.  Frames still pass through the full encode/decode cycle,
  so the memory path exercises exactly the bytes the socket paths put on a
  wire; a shared :class:`MemoryHub` routes between several hosts in one
  process.
* :class:`UdpTransport` — one datagram socket per host; each datagram is one
  frame body (the datagram boundary replaces the length prefix).
* :class:`TcpTransport` — one listening socket per host and cached outbound
  connections; frames are length-prefixed on the stream and reassembled with
  :class:`~repro.runtime.wire.FrameDecoder`.

Socket transports route by a *directory* mapping node ids to ``(host,
port)`` addresses.  Ids registered without an address resolve to the
transport's own bound address at start time, which is how a single-process
cluster gets a working directory before the OS assigns an ephemeral port.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Set, Tuple

from .wire import FrameDecoder, WireError, frame

__all__ = [
    "Receiver",
    "Transport",
    "MemoryHub",
    "MemoryTransport",
    "UdpTransport",
    "TcpTransport",
]

#: Callback invoked with every frame body arriving for this host's nodes.
Receiver = Callable[[bytes], None]

Address = Tuple[str, int]


class Transport:
    """Base class: frame delivery and its counters."""

    name = "abstract"

    def __init__(self) -> None:
        self._receiver: Optional[Receiver] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.send_failures = 0

    # --------------------------------------------------------------- wiring

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the callback receiving every inbound frame body."""
        self._receiver = receiver

    def register_node(self, node_id: str) -> None:
        """Declare that ``node_id`` is hosted behind this transport."""

    def _dispatch(self, data: bytes) -> None:
        self.frames_received += 1
        if self._receiver is not None:
            self._receiver(data)

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bring the transport up (bind sockets, start serving)."""

    async def stop(self) -> None:
        """Tear the transport down and release its resources."""

    def send(self, recipient: str, data: bytes) -> bool:
        """Route one frame body towards ``recipient``; False if unroutable."""
        raise NotImplementedError


# ----------------------------------------------------------------- in-memory


class MemoryHub:
    """Routes frames between the :class:`MemoryTransport` of several hosts."""

    def __init__(self) -> None:
        self._routes: Dict[str, MemoryTransport] = {}

    def attach(self, node_id: str, transport: "MemoryTransport") -> None:
        self._routes[node_id] = transport

    def detach(self, transport: "MemoryTransport") -> None:
        self._routes = {
            node_id: entry for node_id, entry in self._routes.items() if entry is not transport
        }

    def route(self, node_id: str) -> Optional["MemoryTransport"]:
        return self._routes.get(node_id)


class MemoryTransport(Transport):
    """In-process transport: frames hop through the event-loop queue.

    Delivery is asynchronous (``loop.call_soon``) rather than a direct
    function call, so a gossip round's sends complete before any receiver
    runs — the same decoupling a kernel socket buffer provides.
    """

    name = "memory"

    def __init__(self, hub: Optional[MemoryHub] = None) -> None:
        super().__init__()
        self._hub = hub if hub is not None else MemoryHub()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = False

    def register_node(self, node_id: str) -> None:
        self._hub.attach(node_id, self)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = False

    async def stop(self) -> None:
        self._stopped = True
        self._hub.detach(self)

    def send(self, recipient: str, data: bytes) -> bool:
        if self._stopped or self._loop is None:
            return False
        target = self._hub.route(recipient)
        if target is None or target._loop is None:
            self.send_failures += 1
            return False
        self.frames_sent += 1
        self.bytes_sent += len(data)
        target._loop.call_soon(target._dispatch, data)
        return True


# ----------------------------------------------------------------- UDP / TCP


class _DirectoryTransport(Transport):
    """Shared directory handling for the socket transports."""

    def __init__(
        self,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        directory: Optional[Dict[str, Address]] = None,
    ) -> None:
        super().__init__()
        self._bind_host = bind_host
        self._bind_port = bind_port
        self._directory: Dict[str, Optional[Address]] = dict(directory or {})
        self._local_address: Optional[Address] = None

    def register_node(self, node_id: str, address: Optional[Address] = None) -> None:
        """Add a node to the directory; ``None`` means "this host"."""
        self._directory[node_id] = address

    def _resolve(self, node_id: str) -> Optional[Address]:
        if node_id not in self._directory:
            return None
        address = self._directory[node_id]
        return address if address is not None else self._local_address


#: Largest payload a UDP datagram can carry (IPv4 limit); frames above this
#: would be rejected by the kernel with EMSGSIZE, which asyncio swallows.
UDP_MAX_DATAGRAM = 65507


class UdpTransport(_DirectoryTransport):
    """Datagram transport: one frame body per datagram.

    Frames larger than :data:`UDP_MAX_DATAGRAM` are counted as send
    failures instead of being handed to the kernel (which would reject
    them invisibly); keep ``gossip_size`` × event size under the limit.
    """

    name = "udp"

    def __init__(
        self,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        directory: Optional[Dict[str, Address]] = None,
    ) -> None:
        super().__init__(bind_host, bind_port, directory)
        self._endpoint: Optional[asyncio.DatagramTransport] = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        outer = self

        class _Protocol(asyncio.DatagramProtocol):
            def datagram_received(self, data: bytes, addr: Address) -> None:
                outer._dispatch(data)

            def error_received(self, exc: Exception) -> None:
                outer.send_failures += 1

        endpoint, _ = await loop.create_datagram_endpoint(
            _Protocol, local_addr=(self._bind_host, self._bind_port)
        )
        self._endpoint = endpoint
        self._local_address = endpoint.get_extra_info("sockname")[:2]

    async def stop(self) -> None:
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    def send(self, recipient: str, data: bytes) -> bool:
        if self._endpoint is None:
            return False
        address = self._resolve(recipient)
        if address is None or len(data) > UDP_MAX_DATAGRAM:
            self.send_failures += 1
            return False
        self.frames_sent += 1
        self.bytes_sent += len(data)
        self._endpoint.sendto(data, address)
        return True


class TcpTransport(_DirectoryTransport):
    """Stream transport: length-prefixed frames over cached connections."""

    name = "tcp"

    def __init__(
        self,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        directory: Optional[Dict[str, Address]] = None,
    ) -> None:
        super().__init__(bind_host, bind_port, directory)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[Address, asyncio.StreamWriter] = {}
        self._queues: Dict[Address, asyncio.Queue] = {}
        self._tasks: Set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, host=self._bind_host, port=self._bind_port
        )
        self._local_address = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    break
                for body in decoder.feed(chunk):
                    self._dispatch(body)
        # A length prefix above MAX_FRAME_SIZE leaves the stream unframeable:
        # that one peer's connection is closed, the server keeps serving.
        except (ConnectionError, WireError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    def send(self, recipient: str, data: bytes) -> bool:
        if self._server is None:
            return False
        address = self._resolve(recipient)
        if address is None:
            self.send_failures += 1
            return False
        queue = self._queues.get(address)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[address] = queue
            task = asyncio.get_running_loop().create_task(self._drain(address, queue))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self.frames_sent += 1
        self.bytes_sent += len(data)
        queue.put_nowait(frame(data))
        return True

    async def _drain(self, address: Address, queue: asyncio.Queue) -> None:
        """Per-peer sender: connect lazily, then forward queued frames."""
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while True:
                payload = await queue.get()
                if writer is None:
                    _, writer = await asyncio.open_connection(*address)
                    self._writers[address] = writer
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            if writer is not None:
                writer.close()
            self._writers.pop(address, None)
            dead = self._queues.pop(address, None)
            # Frames queued behind the failed connection are lost; count
            # them so reliability analysis can see the transport's share.
            if dead is not None:
                self.send_failures += dead.qsize()
