"""Tests for the runtime wire codec and framing."""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import logging
import typing
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.push import GossipMessage
from repro.gossip.pushpull import DigestMessage, PullRequest
from repro.jsonio import wire_codec
from repro.membership.cyclon import ShufflePayload
from repro.membership.lpbcast import MembershipDigest
from repro.pubsub import events as events_module
from repro.pubsub.events import Event
from repro.pubsub.filters import (
    AttributeCondition,
    ContentFilter,
    Filter,
    TopicFilter,
)
from repro.runtime import wire
from repro.runtime.transport import TcpTransport
from repro.runtime.wire import (
    MAX_FRAME_SIZE,
    WIRE_VERSION,
    FrameDecoder,
    WireError,
    decode_message,
    encode_message,
    frame,
)
from repro.sim.network import Message
from repro.tracing.context import TraceContext
from tests.conftest import settle


#: Every kind with a payload class: the codec's own table and each baseline module's.
PAYLOADS = {
    **wire._PAYLOADS,
    **{
        kind: payload_class
        for module in wire.PAYLOAD_MODULES.values()
        for kind, payload_class in import_module(module, wire.__package__).WIRE_PAYLOADS.items()
    },
}
KINDS = sorted(PAYLOADS)


def reference_encode(message: Message) -> bytes:
    """The encoder the frames are pinned to: one ``json.dumps`` of the whole envelope."""
    payload = message.payload
    if message.kind in PAYLOADS:
        payload = wire_codec(PAYLOADS[message.kind])[0](payload)
    envelope = {
        "v": WIRE_VERSION,
        "sender": message.sender,
        "recipient": message.recipient,
        "kind": message.kind,
        "size": message.size,
        "sent_at": message.sent_at,
        "payload": payload,
    }
    if message.trace:
        envelope["trace"] = wire_codec(typing.Tuple[TraceContext, ...])[0](message.trace)
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def roundtrip(message: Message) -> Message:
    return decode_message(encode_message(message))


def make_event(index: int = 0) -> Event:
    return Event(
        event_id=f"pub#{index}",
        publisher="pub",
        attributes={"topic": "news", "level": index},
        published_at=1.5,
        size=2,
    )


def unfold(value):
    """Everything a payload holds, for comparison: ``Event.__eq__`` looks at the id only."""
    if isinstance(value, Event):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return type(value), [unfold(getattr(value, field.name)) for field in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [unfold(entry) for entry in value]
    return value


def assert_round_trips(message: Message) -> None:
    decoded = roundtrip(message)
    assert (decoded.sender, decoded.recipient, decoded.kind) == (
        message.sender,
        message.recipient,
        message.kind,
    )
    assert (decoded.size, decoded.sent_at, decoded.trace) == (
        message.size,
        message.sent_at,
        message.trace,
    )
    assert type(decoded.payload) is type(message.payload)
    assert unfold(decoded.payload) == unfold(message.payload)


# --------------------------------------------------------------- generators

TEXT = st.text(max_size=6)
SCALARS = {
    str: TEXT,
    int: st.integers(-(2**40), 2**40),
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
}
ATTRIBUTE_VALUES = st.one_of(st.integers(-(2**40), 2**40), TEXT, st.booleans(), st.floats(allow_nan=False))
EVENTS = st.builds(
    Event,
    event_id=TEXT,
    publisher=TEXT,
    attributes=st.dictionaries(TEXT, ATTRIBUTE_VALUES, max_size=3),
    published_at=st.floats(allow_nan=False),
    size=st.integers(1, 100),
)
CONDITIONS = st.builds(
    AttributeCondition, TEXT, st.sampled_from(["==", "!=", "<", ">=", "prefix"]), ATTRIBUTE_VALUES
)
FILTERS = st.one_of(
    st.builds(TopicFilter, TEXT),
    st.builds(ContentFilter, st.lists(CONDITIONS, max_size=3).map(tuple), TEXT),
)
TRACES = st.none() | st.lists(
    st.builds(TraceContext, TEXT, SCALARS[int], SCALARS[int]), min_size=1, max_size=3
).map(tuple)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=10,
)


def values(annotation):
    """Values of ``annotation``, read off the same type hints the codec is derived from."""
    if annotation is Event:
        return EVENTS
    if annotation is Filter:
        return FILTERS
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        return st.builds(
            annotation,
            **{field.name: values(hints[field.name]) for field in dataclasses.fields(annotation)},
        )
    origin = typing.get_origin(annotation)
    if origin is tuple and annotation.__args__[-1] is Ellipsis:
        return st.lists(values(annotation.__args__[0]), max_size=4).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values, annotation.__args__))
    if origin is typing.Union:  # Optional[X]
        return st.none() | values(annotation.__args__[0])
    return SCALARS[annotation]


def messages(kind: str):
    return st.builds(
        Message,
        sender=TEXT,
        recipient=TEXT,
        kind=st.just(kind),
        payload=values(PAYLOADS[kind]),
        size=SCALARS[int],
        sent_at=SCALARS[float],
        trace=TRACES,
    )


class TestPayloadCodecs:
    def test_the_table_holds_every_protocol_kind(self):
        assert {
            "gossip.push",
            "gossip.lazy-digest",
            "membership.cyclon.reply",
            "broker.sync",
            "scribe.multicast",
            "dks.group-send",
            "dam.handoff",
            "broker.subscribe",
        } <= set(KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_every_kind_round_trips(self, kind, data):
        assert_round_trips(data.draw(messages(kind)))

    DIGEST = MembershipDigest(descriptors=(("n1", 3), ("n2", 0)))
    CONTENT_FILTER = ContentFilter(
        conditions=(
            AttributeCondition("category", "==", "metals"),
            AttributeCondition("level", ">=", 6),
        ),
        name="metals-high",
    )

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("gossip.push", GossipMessage((make_event(0), make_event(1)), 0.75, DIGEST)),
            ("gossip.pull-reply", GossipMessage(events=(make_event(),))),
            ("gossip.digest", DigestMessage(event_ids=("e1", "e2"), sender_benefit_rate=1.25)),
            ("gossip.pull-request", PullRequest(event_ids=("e2",))),
            ("membership.cyclon.request", ShufflePayload((("n3", 1), ("n4", 7)))),
            ("membership.cyclon.reply", ShufflePayload((("n3", 1),))),
            ("membership.lpbcast.digest", MembershipDigest((("n5", 2),))),
            ("broker.publish", make_event(9)),
            ("broker.subscribe", PAYLOADS["broker.subscribe"]("n6", TopicFilter("news"), True)),
            ("broker.unsubscribe", PAYLOADS["broker.unsubscribe"]("n6", CONTENT_FILTER, False)),
        ],
    )
    def test_known_payloads_round_trip(self, kind, payload):
        assert_round_trips(Message("a", "b", kind, payload=payload, size=4, sent_at=2.5))

    def test_layout_keys_are_field_names_and_nested_records_are_lists(self):
        payload = GossipMessage(events=(), membership_digest=self.DIGEST)
        body = json.loads(encode_message(Message("a", "b", "gossip.push", payload=payload)))
        # sender_benefit_rate is at its default, so it costs no bytes; a
        # descriptor is an [id, age] pair.
        assert body["payload"] == {
            "events": [],
            "membership_digest": [[["n1", 3], ["n2", 0]]],
        }

    def test_plain_payload_passthrough(self):
        decoded = roundtrip(Message("a", "b", "custom.kind", payload={"x": [1, 2]}))
        assert decoded.payload == {"x": [1, 2]}
        decoded = roundtrip(Message("a", "b", "custom.none"))
        assert decoded.payload is None

    VALID = Message("a", "b", "gossip.push", payload=GossipMessage((make_event(3),)), sent_at=1.0)

    @pytest.mark.parametrize("payload", [None, 5, {"events": []}, (make_event(),), "text"])
    def test_codec_kind_requires_payload(self, payload):
        # A payload of the wrong shape is a WireError, never an AttributeError
        # escaping from the codec, and leaves nothing behind in the encoder.
        encode_message(self.VALID)
        with pytest.raises(WireError):
            encode_message(Message("a", "b", "gossip.push", payload=payload))
        with pytest.raises(WireError):
            encode_message(Message("a", "b", "broker.publish", payload=payload))
        assert encode_message(self.VALID) == reference_encode(self.VALID)

    @pytest.mark.parametrize("payload", [object(), {"x": object()}, float, {1j: 2}])
    def test_non_serializable_payload_raises(self, payload):
        with pytest.raises(WireError):
            encode_message(Message("a", "b", "custom.kind", payload=payload))
        assert encode_message(self.VALID) == reference_encode(self.VALID)

    def test_a_failed_encode_leaves_nothing_in_the_cache(self):
        encode_message(self.VALID)
        cached = wire._last_payload
        payload = GossipMessage((make_event(4),))
        with pytest.raises(WireError):
            encode_message(Message(object(), "b", "gossip.push", payload=payload))
        assert wire._last_payload is cached
        message = Message("a", "b", "gossip.push", payload=payload)
        assert encode_message(message) == reference_encode(message)


class TestByteIdentity:
    """Every frame is the reference encoder's bytes, however payloads are reused."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_one_payload_to_many_recipients(self, kind, data):
        payloads = data.draw(st.lists(values(PAYLOADS[kind]), min_size=1, max_size=3))
        plain = st.builds(
            Message,
            sender=TEXT,
            recipient=TEXT,
            kind=st.sampled_from(["custom.kind", "broker", "scribe", "nodot"]),
            payload=JSON,
            size=SCALARS[int],
            sent_at=SCALARS[float],
            trace=TRACES,
        )
        # Runs of one payload object to several recipients, as a gossip
        # round sends them, interleaved with other payloads and plain JSON.
        sent = []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                sent.append(data.draw(plain))
                continue
            payload = data.draw(st.sampled_from(payloads))
            for recipient in data.draw(st.lists(TEXT, min_size=1, max_size=4)):
                sent.append(
                    Message(
                        "sender",
                        recipient,
                        kind,
                        payload,
                        size=data.draw(SCALARS[int]),
                        sent_at=data.draw(SCALARS[float]),
                        trace=data.draw(TRACES),
                    )
                )
        for message in sent:
            assert encode_message(message) == reference_encode(message)

    def test_a_payload_sent_under_another_codec_is_coded_again(self):
        payload = GossipMessage((make_event(5),))
        encode_message(Message("a", "b", "gossip.push", payload=payload))
        with pytest.raises(WireError):  # a GossipMessage is not a DigestMessage
            encode_message(Message("a", "b", "gossip.digest", payload=payload))
        bridged = Message("a", "c", "topology.bridge", payload=payload)
        assert encode_message(bridged) == reference_encode(bridged)


class TestEventIntern:
    """``Event.from_dict`` shares one object per id while the content matches."""

    RAW = st.fixed_dictionaries(
        {
            "event_id": st.sampled_from(["intern#0", "intern#1"]),
            "publisher": st.sampled_from(["p", "q"]),
        },
        optional={
            "attributes": st.dictionaries(st.sampled_from(["topic", "level"]), ATTRIBUTE_VALUES, max_size=2),
            "published_at": st.sampled_from([0.0, 1.5, 1, True, "2.5", None]),
            "size": st.sampled_from([1, 2, 2.0, 2.5, "3"]),
        },
    )

    @staticmethod
    def reference(raw) -> Event:
        """``Event.from_dict`` without the table: every field converted and checked."""
        if type(raw["event_id"]) is not str or type(raw["publisher"]) is not str:
            raise TypeError("ids must be strings")
        return Event(
            raw["event_id"],
            raw["publisher"],
            dict(raw.get("attributes", {})),
            float(raw.get("published_at", 0.0)),
            int(raw.get("size", 1)),
        )

    @settings(max_examples=200, deadline=None)
    @given(raws=st.lists(RAW, min_size=1, max_size=8))
    def test_a_decoded_event_equals_a_fresh_one(self, raws):
        held = []
        for raw in raws:
            live = events_module._LIVE_EVENTS.get(raw["event_id"])
            try:
                expected = self.reference(raw)
            except (TypeError, ValueError):
                with pytest.raises((TypeError, ValueError)):
                    Event.from_dict(raw)
                continue
            decoded = Event.from_dict(raw)
            assert decoded.to_dict() == expected.to_dict()
            matches = live is not None and (
                live.publisher,
                live.published_at,
                live.size,
                live.attributes,
            ) == (raw["publisher"], raw.get("published_at", 0.0), raw.get("size", 1), raw.get("attributes", {}))
            assert (decoded is live) is matches
            held.append(decoded)

    def test_two_frames_carrying_one_event_decode_to_one_object(self):
        shared = make_event(70)
        first = roundtrip(Message("a", "b", "gossip.push", payload=GossipMessage((shared, make_event(71)))))
        second = roundtrip(Message("c", "d", "gossip.push", payload=GossipMessage((make_event(72), shared))))
        assert first.payload.events[0] is second.payload.events[1]
        assert first.payload.events[0] is not shared  # decoding never hands out the sender's object

    def test_one_id_with_other_content_decodes_to_its_own_object(self):
        original = make_event(80)
        changed = dataclasses.replace(original, attributes={"topic": "sport"})
        first = roundtrip(Message("a", "b", "broker.publish", payload=original)).payload
        second = roundtrip(Message("a", "b", "broker.publish", payload=changed)).payload
        assert first is not second
        assert first.to_dict() == original.to_dict()
        assert second.to_dict() == changed.to_dict()

    def test_the_table_forgets_events_nobody_holds(self):
        ids = [f"forgotten#{index}" for index in range(50)]
        held = [Event.from_dict({"event_id": event_id, "publisher": "p"}) for event_id in ids]
        assert set(ids) <= set(events_module._LIVE_EVENTS)
        del held
        gc.collect()
        assert not set(ids) & set(events_module._LIVE_EVENTS)


# ----------------------------------------------------------------- totality

def mutate(data, value):
    """``value`` with one part of it — perhaps all of it — replaced by any JSON value."""
    if isinstance(value, (list, dict)) and value and data.draw(st.booleans()):
        copy = list(value) if isinstance(value, list) else dict(value)
        key = data.draw(st.sampled_from(range(len(copy)) if isinstance(copy, list) else sorted(copy)))
        copy[key] = mutate(data, copy[key])
        return copy
    return data.draw(JSON)


def assert_declared_strings(value) -> None:
    """Every field declared ``str``, ``Tuple[str, ...]`` or a tuple of
    ``(str, int)`` descriptors holds strings where it declares them, recursively."""
    if dataclasses.is_dataclass(value):
        hints = typing.get_type_hints(type(value))
        for field in dataclasses.fields(value):
            entry = getattr(value, field.name)
            if hints[field.name] is str:
                assert type(entry) is str, (field.name, entry)
            elif hints[field.name] == typing.Tuple[str, ...]:
                assert all(type(item) is str for item in entry), (field.name, entry)
            elif hints[field.name] == typing.Tuple[typing.Tuple[str, int], ...]:
                assert all(type(node_id) is str for node_id, _ in entry), (field.name, entry)
            assert_declared_strings(entry)
    elif isinstance(value, tuple):
        for entry in value:
            assert_declared_strings(entry)


class TestEnvelope:
    def test_wire_version_mismatch_rejected(self):
        body = encode_message(Message("a", "b", "custom.kind", payload=1))
        tampered = body.replace(
            f'"v":{WIRE_VERSION}'.encode(), f'"v":{WIRE_VERSION + 1}'.encode()
        )
        with pytest.raises(WireError):
            decode_message(tampered)

    def test_malformed_frame_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(WireError):
            decode_message(b'"a bare string"')
        with pytest.raises(WireError):
            decode_message(b"[" * 100_000)

    def test_missing_fields_and_misshaped_payloads_raise_wire_error(self):
        # A hostile or buggy peer must never escalate past WireError: the
        # receiving network counts WireError as a dropped frame, anything
        # else would tear down the serving connection.
        def envelope(**overrides):
            body = {"v": WIRE_VERSION, "sender": "a", "recipient": "b", "kind": "custom.kind"}
            body.update(overrides)
            return json.dumps(body).encode("utf-8")

        cases = [
            json.dumps({"v": WIRE_VERSION, "payload": None}).encode(),  # no kind/sender
            envelope(kind="gossip.push", payload=None),  # codec kind, null payload
            envelope(kind="gossip.push", payload={"sender_benefit_rate": 1.0}),  # missing events
            envelope(kind="gossip.push", payload={"events": [], "benefit": 1.0}),  # unknown key
            envelope(  # descriptor with missing fields
                kind="membership.cyclon.request", payload={"descriptors": [["only-id"]]}
            ),
            envelope(  # a filter of no known kind
                kind="broker.subscribe",
                payload={"client_id": "c", "subscription_filter": {"kind": "no-such-filter"}, "add": True},
            ),
            envelope(size="not-a-number"),
            envelope(sender=5, recipient=[1]),
            envelope(kind="gossip.pull-request", payload={"event_ids": [1, {"a": 2}]}),
            envelope(kind="broker.publish", payload={"event_id": 7, "publisher": "p"}),
        ]
        for body in cases:
            with pytest.raises(WireError):
                decode_message(body)

    @pytest.mark.parametrize("kind", KINDS + ["custom.kind"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_json_decodes_to_declared_types_or_wire_error(self, kind, data):
        payload = data.draw(values(PAYLOADS[kind])) if kind in PAYLOADS else None
        valid = json.loads(encode_message(Message("a", "b", kind, payload=payload)))
        body = json.dumps(mutate(data, valid)).encode("utf-8")
        try:
            message = decode_message(body)
        except WireError:
            return
        assert_declared_strings(message)


class TestFraming:
    def test_frame_prefixes_length(self):
        body = b"hello"
        framed = frame(body)
        assert framed == b"\x00\x00\x00\x05hello"

    def test_decoder_reassembles_chunked_stream(self):
        bodies = [b"a", b"bb" * 100, b"", b"ccc"]
        stream = b"".join(frame(body) for body in bodies)
        decoder = FrameDecoder()
        received = []
        # Feed one byte at a time: worst-case fragmentation.
        for offset in range(len(stream)):
            received.extend(decoder.feed(stream[offset : offset + 1]))
        assert received == bodies
        # Nothing is left over: the next frame decodes on its own.
        assert decoder.feed(frame(b"z")) == [b"z"]

    def test_decoder_handles_multiple_frames_per_chunk(self):
        bodies = [b"one", b"two", b"three"]
        decoder = FrameDecoder()
        assert decoder.feed(b"".join(frame(body) for body in bodies)) == bodies

    def test_oversize_frame_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed((MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
        with pytest.raises(WireError):
            frame(b"x" * (MAX_FRAME_SIZE + 1))

    def test_tcp_server_closes_an_oversize_prefix_and_keeps_serving(self, caplog):
        async def scenario():
            received = []
            transport = TcpTransport()
            transport.set_receiver(received.append)
            await transport.start()
            address = transport._local_address
            hostile_reader, hostile = await asyncio.open_connection(*address)
            hostile.write((MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
            await hostile.drain()
            closed = await asyncio.wait_for(hostile_reader.read(), timeout=5.0)
            _, peer = await asyncio.open_connection(*address)
            peer.write(frame(b"hello"))
            await peer.drain()
            await settle(lambda: received)
            for writer in (hostile, peer):
                writer.close()
            await transport.stop()
            return closed, received

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            closed, received = asyncio.run(scenario())
        assert closed == b""  # the server hung up on the hostile peer
        assert received == [b"hello"]
        assert not [record for record in caplog.records if record.name == "asyncio"]
