"""Length-prefixed JSON wire codec for the live runtime.

Every message that crosses a transport is one *frame*: a 4-byte big-endian
length prefix followed by a UTF-8 JSON object holding the
:class:`~repro.sim.network.Message` envelope (sender, recipient, kind, size,
sent_at; ``trace`` on traced frames only) and a ``payload``.  Each kind that
carries a payload class is coded by the codec :func:`repro.jsonio.wire_codec`
derives from that class's annotations; payloads of other kinds pass through
as plain JSON.  The gossip and membership kinds are declared here;
the structured baselines declare theirs next to their protocol code, in a
``WIRE_PAYLOADS`` table that :data:`PAYLOAD_MODULES` names by kind prefix and
that is imported the first time a kind with that prefix is seen, so a gossip
process never loads a baseline.

A round of push gossip hands one payload object to every recipient, so the
encoder keeps the last payload it coded (by identity, holding a reference so
the identity cannot be reused) with its JSON and only builds each
recipient's envelope around it.  The bytes are those of one ``json.dumps``
of the whole envelope.

The memory transport runs every frame through this codec too: what the
socket transports put on the wire is byte-for-byte what the in-process
transport exercises, which is what makes memory-transport tests meaningful
for the UDP/TCP paths.
"""

from __future__ import annotations

import json
import struct
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..gossip.push import GossipMessage
from ..gossip.pushpull import DigestMessage, PullRequest
from ..jsonio import fit, wire_codec
from ..membership.cyclon import ShufflePayload
from ..membership.lpbcast import MembershipDigest
from ..sim.network import Message
from ..tracing.context import TraceContext

__all__ = [
    "WIRE_VERSION",
    "PAYLOAD_MODULES",
    "MAX_FRAME_SIZE",
    "WireError",
    "encode_message",
    "decode_message",
    "frame",
    "FrameDecoder",
]

#: Bumped whenever the frame layout or a payload encoding changes (2: payload
#: keys are the payload classes' field names, nested records are lists; 3: a
#: membership descriptor is an ``[id, age]`` pair).
WIRE_VERSION = 3

#: Upper bound on a single frame; protects receivers from hostile prefixes.
MAX_FRAME_SIZE = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """Raised when a frame cannot be encoded or decoded."""


#: ``kind prefix -> module`` (relative to this package, the rule of the
#: packages' ``_EXPORTS`` tables) whose ``WIRE_PAYLOADS`` declares the payload
#: classes of the structured baselines' kinds (brokers, Scribe/SplitStream
#: trees, DKS groups, data-aware multicast); merging them is what lets
#: ``serve --scenario`` run the non-gossip baselines on real transports.
#: Kinds of any other unknown prefix carry plain JSON.
PAYLOAD_MODULES = {
    "broker.": "..brokers.broker",
    "scribe.": "..dht.scribe",
    "dks.": "..dht.dks",
    "dam.": "..damulticast.dam",
}

#: ``kind -> payload class`` of the kinds resolved so far (a baseline's merged on first use).
_PAYLOADS: Dict[str, type] = {
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
}

_CODECS = {kind: wire_codec(payload_class) for kind, payload_class in _PAYLOADS.items()}
_TRACE_CODEC = wire_codec(Tuple[TraceContext, ...])
_UNLOADED = dict(PAYLOAD_MODULES)


def _load(prefix: str) -> None:
    """Merge the payload table of ``prefix``'s module (once)."""
    table = import_module(_UNLOADED[prefix], __package__).WIRE_PAYLOADS
    _PAYLOADS.update(table)
    _CODECS.update({kind: wire_codec(payload_class) for kind, payload_class in table.items()})
    del _UNLOADED[prefix]


def _codec(kind: str) -> Optional[Tuple[Callable, Callable]]:
    """``(encode, decode)`` of ``kind``'s payload class, or ``None`` for plain JSON."""
    codec = _CODECS.get(kind)
    if codec is None:
        prefix = kind[: kind.find(".") + 1]
        if prefix in _UNLOADED:
            _load(prefix)
            codec = _CODECS.get(kind)
    return codec


# ------------------------------------------------------------------ envelope

_dumps = json.JSONEncoder(separators=(",", ":")).encode

#: ``(payload, codec, JSON bytes)`` of the last codec-kind payload encoded.
#: Holding the payload keeps its ``id`` from being reused by another object.
_last_payload: Tuple[Any, Any, bytes] = (None, None, b"")


def encode_message(message: Message) -> bytes:
    """Encode a message envelope plus payload as one JSON frame body.

    The body is byte-for-byte ``json.dumps(envelope, separators=(",", ":"))``
    of the envelope dict with the payload in its wire form.  A payload of a
    kind with a codec is a frozen record, so the JSON of the payload encoded
    last is reused when the same object (under the same codec) comes again,
    as it does for every recipient of one gossip round; plain-JSON payloads
    may be mutable and are encoded on every call.
    """
    global _last_payload
    kind = message.kind
    payload = message.payload
    codec = _codec(kind)
    if codec is not None and payload is None:
        raise WireError(f"message kind {kind!r} requires a payload")
    try:
        last, last_codec, payload_json = _last_payload
        if codec is None:
            payload_json = _dumps(payload).encode()
        elif last is not payload or last_codec is not codec:
            payload_json = _dumps(codec[0](payload)).encode()
        head = _dumps(
            {
                "v": WIRE_VERSION,
                "sender": message.sender,
                "recipient": message.recipient,
                "kind": kind,
                "size": message.size,
                "sent_at": message.sent_at,
            }
        )
        # The trace key is only present on traced frames, so untraced frames
        # carry no tracing bytes; decoders ignore unknown envelope keys.
        trace = b""
        if message.trace:
            trace = b',"trace":' + _dumps(_TRACE_CODEC[0](message.trace)).encode()
    except (AttributeError, TypeError, ValueError) as error:
        raise WireError(f"message of kind {kind!r} cannot be encoded: {error}") from None
    if codec is not None:
        _last_payload = (payload, codec, payload_json)
    return b"".join((head[:-1].encode(), b',"payload":', payload_json, trace, b"}"))


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
        codec = _codec(kind)
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
