"""Length-prefixed JSON wire codec for the live runtime.

Every message that crosses a transport is one *frame*: a 4-byte big-endian
length prefix followed by a UTF-8 JSON object holding the
:class:`~repro.sim.network.Message` envelope (sender, recipient, kind, size,
sent_at; ``trace`` on traced frames only) and a ``payload``.
:data:`WIRE_PAYLOADS` names the payload class of each kind that carries one,
and :func:`repro.jsonio.wire_codec` derives that class's codec from its
annotations; payloads of other kinds pass through as plain JSON.

The memory transport runs every frame through this codec too: what the
socket transports put on the wire is byte-for-byte what the in-process
transport exercises, which is what makes memory-transport tests meaningful
for the UDP/TCP paths.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

from ..brokers import broker as _broker
from ..damulticast import dam as _dam
from ..dht import dks as _dks
from ..dht import scribe as _scribe
from ..gossip.push import GossipMessage
from ..gossip.pushpull import DigestMessage, PullRequest
from ..jsonio import fit, wire_codec
from ..membership.cyclon import ShufflePayload
from ..membership.lpbcast import MembershipDigest
from ..pubsub.events import Event
from ..pubsub.filters import Filter
from ..sim.network import Message
from ..tracing.context import TraceContext

__all__ = [
    "WIRE_VERSION",
    "WIRE_PAYLOADS",
    "MAX_FRAME_SIZE",
    "PUBLISH_KIND",
    "SUBSCRIBE_KIND",
    "UNSUBSCRIBE_KIND",
    "WireError",
    "encode_message",
    "decode_message",
    "frame",
    "FrameDecoder",
]

#: Bumped whenever the frame layout or a payload encoding changes (2: payload
#: keys are the payload classes' field names, nested records are lists).
WIRE_VERSION = 2

#: Upper bound on a single frame; protects receivers from hostile prefixes.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: Control frame kinds understood by :class:`~repro.runtime.host.NodeHost`.
PUBLISH_KIND = "runtime.publish"
SUBSCRIBE_KIND = "runtime.subscribe"
UNSUBSCRIBE_KIND = "runtime.unsubscribe"

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """Raised when a frame cannot be encoded or decoded."""


#: ``kind -> payload class``; kinds absent here carry plain JSON.
WIRE_PAYLOADS: Dict[str, type] = {
    "gossip.push": GossipMessage,
    "gossip.pull-reply": GossipMessage,
    "gossip.digest": DigestMessage,
    "gossip.pull-request": PullRequest,
    # Lazy probabilistic broadcast reuses the push/digest/pull payload
    # shapes under its own kinds (see repro.gossip.lazy).
    "gossip.lazy-push": GossipMessage,
    "gossip.lazy-reply": GossipMessage,
    "gossip.lazy-digest": DigestMessage,
    "gossip.lazy-request": PullRequest,
    # Bridge relays carry a plain gossip payload across domain boundaries
    # (see repro.topology.bridge) under their own kind.
    "topology.bridge": GossipMessage,
    "membership.cyclon.request": ShufflePayload,
    "membership.cyclon.reply": ShufflePayload,
    "membership.lpbcast.digest": MembershipDigest,
    PUBLISH_KIND: Event,
    SUBSCRIBE_KIND: Filter,
    UNSUBSCRIBE_KIND: Filter,
}

# Baseline protocol payloads (brokers, Scribe/SplitStream trees, DKS groups,
# data-aware multicast) are declared next to the protocol code that owns
# them; merging their tables here is what lets ``serve --scenario`` run the
# non-gossip baselines on real transports.
for _module in (_broker, _scribe, _dks, _dam):
    WIRE_PAYLOADS.update(_module.WIRE_PAYLOADS)

_CODECS = {kind: wire_codec(payload_class) for kind, payload_class in WIRE_PAYLOADS.items()}
_TRACE_CODEC = wire_codec(Tuple[TraceContext, ...])


# ------------------------------------------------------------------ envelope


def encode_message(message: Message) -> bytes:
    """Encode a message envelope plus payload as one JSON frame body."""
    payload: Any = message.payload
    codec = _CODECS.get(message.kind)
    if codec is not None:
        if payload is None:
            raise WireError(f"message kind {message.kind!r} requires a payload")
        payload = codec[0](payload)
    envelope = {
        "v": WIRE_VERSION,
        "sender": message.sender,
        "recipient": message.recipient,
        "kind": message.kind,
        "size": message.size,
        "sent_at": message.sent_at,
        "payload": payload,
    }
    # The trace key is only present on traced frames, so untraced frames
    # carry no tracing bytes; decoders ignore unknown envelope keys.
    if message.trace:
        envelope["trace"] = _TRACE_CODEC[0](message.trace)
    try:
        return json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireError(
            f"payload of kind {message.kind!r} is not JSON-serializable: {error}"
        ) from None


def decode_message(data: bytes) -> Message:
    """Decode one JSON frame body back into a message."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        raise WireError(f"malformed frame: {error}") from None
    if not isinstance(envelope, dict):
        raise WireError("frame must decode to a JSON object")
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r} (expected {WIRE_VERSION})")
    # Malformed envelopes and mis-shaped payloads must surface as WireError:
    # receivers treat WireError as "count and drop the frame", anything else
    # would tear down the connection serving an otherwise healthy peer.
    try:
        sender, recipient, kind = envelope["sender"], envelope["recipient"], envelope["kind"]
        if not type(sender) is type(recipient) is type(kind) is str:
            raise TypeError(f"sender/recipient/kind must be strings: {sender!r} {recipient!r} {kind!r}")
        payload = envelope.get("payload")
        codec = _CODECS.get(kind)
        if codec is not None:
            payload = codec[1](payload)
        trace = envelope.get("trace")
        return Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size=fit(int, envelope.get("size", 1), "envelope field 'size'", TypeError),
            sent_at=fit(float, envelope.get("sent_at", 0.0), "envelope field 'sent_at'", TypeError),
            trace=_TRACE_CODEC[1](trace) if trace else None,
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as error:
        raise WireError(f"malformed envelope or payload: {error!r}") from None


# ------------------------------------------------------------------- framing


def frame(body: bytes) -> bytes:
    """Prefix a frame body with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_SIZE:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME_SIZE")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental splitter for length-prefixed frames on a byte stream.

    Feed arbitrary chunks (as delivered by a TCP socket); complete frame
    bodies come out in order.  State between calls is just the undecoded
    tail, so one decoder per connection is all a server needs.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb a chunk and return every frame completed by it."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_SIZE:
                raise WireError(f"incoming frame of {length} bytes exceeds MAX_FRAME_SIZE")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[_LENGTH.size : end]))
            del self._buffer[:end]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)
