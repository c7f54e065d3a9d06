"""Tests for the causal dissemination tracing layer.

Covers the determinism contract (byte-identical trace JSONL across serial
reruns at a pinned seed, deterministic head sampling), observability-only
guarantees (cache keys and physics untouched), infection-tree correctness on
the ``smoke-lazy`` acceptance scenario (root is the publisher, every
delivered node chains back to the root, pull recoveries attributed), the
wire-codec trace extension (untraced frames byte-identical), and a
sim-vs-live span-sequence parity check on the same stack.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.experiments import run_experiment
from repro.experiments.cache import config_hash
from repro.experiments.scenarios import get_scenario
from repro.pubsub.events import Event
from repro.runtime import MemoryTransport, NodeHost, decode_message, encode_message
from repro.jsonio import JsonlSink, MemorySink, read_jsonl
from repro.sim.network import Message
from repro.tracing import (
    DELIVER,
    DROP,
    DUPLICATE,
    PUBLISH,
    PULL_RECOVER,
    RECEIVE,
    SPAN_KINDS,
    TRACE_SCHEMA,
    SpanRecord,
    TraceContext,
    TraceSampler,
    Tracer,
    analyze_spans,
    render_trace,
)
from tests.conftest import settle


def read_spans_jsonl(path):
    return read_jsonl(path, TRACE_SCHEMA, SpanRecord.from_dict)

#: Documented tolerance of the sim-vs-live trace parity check: both engines
#: run the same lazy-push node classes with the same seed, so the *kinds* of
#: spans agree, but live timing is wall-clock — round interleavings differ,
#: so per-kind span counts drift.  The structural invariants (publish roots,
#: deliveries chaining to their root) must hold exactly in both worlds; only
#: the volume ratio is toleranced, and generously, because a live run that
#: produced no receive/deliver spans at all would still fail it.
PARITY_SPAN_RATIO_TOLERANCE = 0.5


def traced_smoke_lazy(
    sample_rate: float = 1.0, sink=None, keep_system: bool = False, system: str = "lazy-push"
):
    """One pinned-seed smoke-lazy run with tracing; returns (result, tracer)."""
    config = get_scenario("smoke-lazy").config.with_overrides(system=system)
    tracer = Tracer(sink if sink is not None else MemorySink(), sample_rate=sample_rate)
    result = run_experiment(config, keep_system=keep_system, tracer=tracer)
    return result, tracer


class TestSampler:
    def test_deterministic_and_rate_monotone(self):
        sampler = TraceSampler(0.3, salt="s")
        ids = [f"node-{i:03d}#{j}" for i in range(20) for j in range(5)]
        first = [sampler.sampled(i) for i in ids]
        second = [TraceSampler(0.3, salt="s").sampled(i) for i in ids]
        assert first == second
        # Head decisions are per-id hash thresholds, so raising the rate
        # only ever adds ids, never removes them.
        kept_low = {i for i in ids if TraceSampler(0.2).sampled(i)}
        kept_high = {i for i in ids if TraceSampler(0.6).sampled(i)}
        assert kept_low <= kept_high
        assert 0 < len(kept_high) < len(ids)

    def test_edge_rates(self):
        assert not TraceSampler(0.0).sampled("anything")
        assert TraceSampler(1.0).sampled("anything")
        with pytest.raises(ValueError):
            TraceSampler(1.5)
        with pytest.raises(ValueError):
            TraceSampler(-0.1)


class TestSpanRecords:
    def test_round_trip_and_schema(self):
        record = SpanRecord(
            ts=1.5, kind=RECEIVE, trace_id="e#1", span_id=7, node="n1",
            parent_id=3, hops=2, details={"peer": "n0"},
        )
        payload = record.to_dict()
        assert payload["schema"] == "trace-span/v1"
        assert SpanRecord.from_dict(payload) == record
        # Roots omit parent_id entirely (canonical bytes stay minimal).
        assert "parent_id" not in SpanRecord(
            ts=0.0, kind=PUBLISH, trace_id="e", span_id=0, node="n"
        ).to_dict()

    def test_jsonl_sink_and_reader(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink, sample_rate=1.0)
        root = tracer.emit(PUBLISH, "e#1", "n0")
        tracer.emit(RECEIVE, "e#1", "n1", parent_id=root, hops=1, peer="n0")
        tracer.close()
        spans = read_spans_jsonl(path)
        assert [span.kind for span in spans] == [PUBLISH, RECEIVE]
        assert spans[1].parent_id == spans[0].span_id

    def test_reader_rejects_foreign_lines(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema":"other/v1"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_spans_jsonl(path)


class TestWireTraceExtension:
    MESSAGE = dict(sender="a", recipient="b", kind="status", payload={"x": 1})

    def test_untraced_frames_byte_identical(self):
        plain = Message(**self.MESSAGE)
        assert encode_message(plain) == encode_message(Message(**self.MESSAGE))
        assert b"trace" not in encode_message(plain)

    def test_traced_round_trip(self):
        contexts = (TraceContext("e#1", 4, 2), TraceContext("e#2", 9, 1))
        body = encode_message(Message(**self.MESSAGE, trace=contexts))
        decoded = decode_message(body)
        assert decoded.trace == contexts
        # An untraced frame decodes to trace=None, not an empty tuple.
        assert decode_message(encode_message(Message(**self.MESSAGE))).trace is None


class TestObservabilityOnly:
    """Tracing must not move physics, cache identity, or RNG draws."""

    def test_cache_key_and_results_unchanged(self):
        config = get_scenario("smoke-lazy").config
        untraced_hash = config_hash(config)
        untraced = run_experiment(config)
        traced, tracer = traced_smoke_lazy(sample_rate=1.0)
        assert tracer.spans_emitted > 0
        # Tracing lives outside the config, so the cache key cannot move...
        assert config_hash(traced.config) == untraced_hash
        # ...and the measured physics are identical, artifact-for-artifact.
        assert traced.to_dict() == untraced.to_dict()

    def test_rate_zero_emits_nothing_and_changes_nothing(self):
        untraced = run_experiment(get_scenario("smoke-lazy").config)
        traced, tracer = traced_smoke_lazy(sample_rate=0.0)
        assert tracer.spans_emitted == 0
        assert traced.to_dict() == untraced.to_dict()


class TestTraceDeterminism:
    def test_byte_identical_jsonl_across_serial_reruns(self, tmp_path):
        streams = []
        for index in range(2):
            path = str(tmp_path / f"run{index}.jsonl")
            _, tracer = traced_smoke_lazy(sink=JsonlSink(path))
            tracer.close()
            with open(path, "rb") as handle:
                streams.append(handle.read())
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty: the scenario really traced spans

    def test_partial_sampling_is_a_subset(self):
        _, full = traced_smoke_lazy(sample_rate=1.0)
        _, partial = traced_smoke_lazy(sample_rate=0.5)
        full_ids = {span.trace_id for span in full.sink.records()}
        partial_ids = {span.trace_id for span in partial.sink.records()}
        assert partial_ids < full_ids
        assert partial_ids  # the pinned seed samples at least one event


class TestInfectionTree:
    """Acceptance: correct trees for a pinned-seed smoke-lazy run.

    Both digest-and-pull variants run it: their adverts, pull replies and
    recoveries are traced by the same exchange primitives.
    """

    @pytest.fixture(scope="class", params=["lazy-push", "pushpull-gossip"])
    def analysis(self, request):
        result, tracer = traced_smoke_lazy(keep_system=True, system=request.param)
        return result, analyze_spans(tracer.sink.records())

    def test_every_published_event_is_traced(self, analysis):
        result, trace = analysis
        assert set(trace.events) == {e.event_id for e in result.published_events}

    def test_roots_are_publishers(self, analysis):
        result, trace = analysis
        publishers = {e.event_id: e.publisher for e in result.published_events}
        for event in trace.events.values():
            assert event.root is not None
            assert event.root.kind == PUBLISH
            assert event.root.node == publishers[event.trace_id]
            assert event.root.parent_id is None

    def test_every_delivery_chains_back_to_the_root(self, analysis):
        _, trace = analysis
        total = 0
        for event in trace.events.values():
            assert event.unreachable_deliveries() == []
            total += event.kind_count(DELIVER)
        assert total > 0

    def test_deliveries_match_the_delivery_log(self, analysis):
        result, trace = analysis
        log = result.system.delivery_log
        for event in trace.events.values():
            logged = {
                record.node_id for record in log.ordered_records()
                if record.event_id == event.trace_id
            }
            assert {span.node for span in event.spans if span.kind == DELIVER} == logged

    def test_pull_recoveries_present_and_attributed(self, analysis):
        _, trace = analysis
        recoveries = [
            span
            for event in trace.events.values()
            for span in event.spans
            if span.kind == PULL_RECOVER
        ]
        # smoke-lazy loses 15% of frames; the pinned seed recovers via pull.
        assert recoveries
        for span in recoveries:
            assert span.parent_id is not None
            assert span.details.get("peer")
        totals = trace.totals()
        assert totals["pull_recoveries"] == len(recoveries)
        assert totals["drops"] > 0

    def test_totals_are_internally_consistent(self, analysis):
        _, trace = analysis
        totals = trace.totals()
        assert totals["deliveries"] == (
            totals["deliveries_via_eager"] + totals["deliveries_via_pull"]
        )
        assert totals["redundancy_ratio"] == pytest.approx(
            totals["duplicate_receives"] / totals["deliveries"]
        )
        assert 1 <= totals["hops_p50"] <= totals["hops_max"]
        for span in (span for e in trace.events.values() for span in e.spans):
            assert span.kind in SPAN_KINDS

    def test_rendering(self, analysis):
        _, trace = analysis
        first = next(iter(trace.events))
        text = render_trace(trace, event=first)
        assert f"trace {first}" in text
        assert "trace aggregates" in text
        with pytest.raises(ValueError, match="no event"):
            render_trace(trace, event="nope#0")


class TestSimLiveParity:
    def test_live_spans_share_the_sim_structure(self):
        sim_result, sim_tracer = traced_smoke_lazy()
        sim_kinds = {span.kind for span in sim_tracer.sink.records()}
        sim_totals = analyze_spans(sim_tracer.sink.records()).totals()
        sim_per_event = sim_totals["deliveries"] / sim_totals["events_traced"]
        published = 4

        async def scenario():
            from repro.registry import build_interest_model, build_popularity
            from repro.sim.rng import RngRegistry

            tracer = Tracer(MemorySink(), sample_rate=1.0)
            spec = get_scenario("smoke-lazy").spec
            host = NodeHost(
                MemoryTransport(),
                seed=spec.seed,
                time_scale=50.0,
                spec=spec,
                tracer=tracer,
            )
            popularity = build_popularity(spec)
            interest = build_interest_model(spec, popularity).assign(
                list(spec.node_ids()),
                RngRegistry(spec.seed).stream("experiment-interest"),
            )
            await host.start()
            interest.apply(host)
            for index, node_id in enumerate(sorted(host.nodes)[:published]):
                host.publish(node_id, topic=popularity.topics[index % 3])
            await settle(
                lambda: host.delivery_log.total_deliveries()
                >= published * sim_per_event * PARITY_SPAN_RATIO_TOLERANCE
            )
            await host.stop()
            return tracer

        live_tracer = asyncio.run(scenario())
        live = analyze_spans(live_tracer.sink.records())
        assert len(live.events) == published
        live_kinds = set()
        for event in live.events.values():
            assert event.root is not None and event.root.kind == PUBLISH
            assert event.unreachable_deliveries() == []
            live_kinds |= {span.kind for span in event.spans}
        # Same protocol, same span vocabulary: everything the live run
        # emitted the simulator emits too (drops/pulls need lossy links, so
        # only the superset direction is exact).
        assert live_kinds <= sim_kinds
        assert {PUBLISH, RECEIVE} <= live_kinds
        totals = live.totals()
        assert totals["deliveries"] > 0
        # Volume parity within the documented tolerance: deliveries per
        # traced event in the same ballpark as the simulator run.
        live_per_event = totals["deliveries"] / totals["events_traced"]
        assert live_per_event >= sim_per_event * PARITY_SPAN_RATIO_TOLERANCE

    def test_drop_spans_on_live_dead_recipient(self):
        async def scenario():
            tracer = Tracer(MemorySink(), sample_rate=1.0)
            host = NodeHost(MemoryTransport(), seed=3, tracer=tracer)
            host.add_nodes(["node-000", "node-001"])
            await host.start()
            host.network.send(
                "node-000",
                "node-999",
                "status",
                payload={"x": 1},
                trace=(TraceContext("e#0", 0, 1),),
            )
            await settle(lambda: host.network.stats.dropped_dead == 1)
            await host.stop()
            return tracer

        tracer = asyncio.run(scenario())
        drops = [span for span in tracer.sink.records() if span.kind == DROP]
        assert len(drops) == 1
        assert drops[0].node == "node-999"
        assert drops[0].details["reason"] == "dead"


class TestTraceCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_run_trace_and_render(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        code, out = self.run_cli(
            ["run", "smoke-lazy", "--no-cache", "--trace", trace_path], capsys
        )
        assert code == 0
        assert "trace:" in out
        code, out = self.run_cli(["trace", trace_path, "--max-events", "1"], capsys)
        assert code == 0
        assert "published by" in out
        assert "trace aggregates" in out
        # `report` understands the same stream (aggregate-only rendering).
        code, out = self.run_cli(["report", trace_path], capsys)
        assert code == 0
        assert "per-event dissemination" in out

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="cannot read artifact .*nope.jsonl"):
            self.run_cli(["trace", str(tmp_path / "nope.jsonl")], capsys)
        with pytest.raises(SystemExit, match="cannot read artifact .*nope.jsonl"):
            self.run_cli(["report", str(tmp_path / "nope.jsonl")], capsys)

    def test_wrong_artifact_kind_is_a_clean_error(self, tmp_path, capsys):
        artifact = tmp_path / "results.json"
        artifact.write_text(json.dumps({"weird": True}))
        with pytest.raises(SystemExit, match="unrecognised shape"):
            self.run_cli(["trace", str(artifact)], capsys)
        with pytest.raises(SystemExit, match="unrecognised shape"):
            self.run_cli(["report", str(artifact)], capsys)

    def test_dangling_sample_rate_rejected(self, capsys):
        with pytest.raises(SystemExit, match="--trace-sample-rate"):
            self.run_cli(
                ["run", "smoke-lazy", "--no-cache", "--trace-sample-rate", "0.5"],
                capsys,
            )
