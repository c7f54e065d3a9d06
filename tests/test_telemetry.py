"""Tests for the unified telemetry API (instruments, snapshots, sinks, report).

Covers the redesign's contracts:

* the streaming histogram is O(buckets) memory for arbitrarily many
  observations and stays exact (legacy-identical) below the fold threshold;
* ``percentile`` edge cases (empty, single element, quantile 0.0/1.0,
  invalid quantiles) directly;
* ``TelemetrySnapshot.from_dict(s.to_dict()) == s`` including through the
  JSON-lines sink on disk;
* snapshot determinism: two serial runs of the same scenario produce
  byte-identical JSON-lines streams; wall-time (runtime) snapshots are
  checked structurally with tolerance, like ``test_runtime_live.py``;
* the ``report`` CLI renders identical tables from a ``--json`` artifact
  and from the result cache entry of the same run.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.experiments import ExperimentConfig, ResultCache, get_scenario, run_experiment
from repro.experiments.cache import ARTIFACT_SCHEMA
from repro.cli import main as cli_main
from repro.registry import StackSpec, TelemetrySpec
from repro.runtime import MemoryTransport, NodeHost
from repro.jsonio import read_jsonl
from repro.telemetry import (
    SNAPSHOT_SCHEMA,
    Histogram,
    JsonlSink,
    MemorySink,
    PrometheusSink,
    Telemetry,
    TelemetrySnapshot,
    parse_sink_spec,
    percentile,
    render_prometheus,
)
from repro.telemetry.report import load_artifact, render_report, render_results
from tests.conftest import settle


def read_snapshots_jsonl(path):
    return read_jsonl(path, SNAPSHOT_SCHEMA, TelemetrySnapshot.from_dict)


def _fast_config() -> ExperimentConfig:
    return get_scenario("smoke").config.with_overrides(
        name="telemetry-smoke", duration=4.0, drain_time=2.0
    )


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestStreamingHistogram:
    def test_exact_below_fold_threshold(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == 3.0
        assert summary.p95 == pytest.approx(4.8)

    def test_memory_is_bounded_for_one_million_observations(self):
        histogram = Histogram(fold_threshold=1024)
        for index in range(1_000_000):
            histogram.observe(float(index % 9973) + 0.5)
        # O(buckets): the raw buffer never exceeds the fold threshold and the
        # bucket dictionaries are bounded by the (shared) boundary table.
        assert histogram.count == 1_000_000
        assert histogram.pending_count < 1024
        assert histogram.bucket_count < 800
        state = histogram.state()
        assert state.count == 1_000_000
        assert len(state.positive) < 800

    def test_streaming_quantiles_track_exact_quantiles(self):
        import random

        rng = random.Random(7)
        values = [rng.expovariate(1 / 40.0) for _ in range(50_000)]
        histogram = Histogram(fold_threshold=512)
        for value in values:
            histogram.observe(value)
        ordered = sorted(values)
        summary = histogram.summary()
        assert summary.count == len(values)
        assert summary.mean == pytest.approx(sum(values) / len(values))
        assert summary.minimum == ordered[0]
        assert summary.maximum == ordered[-1]
        for quantile, estimate in ((0.50, summary.p50), (0.95, summary.p95), (0.99, summary.p99)):
            exact = percentile(ordered, quantile)
            assert estimate == pytest.approx(exact, rel=0.10)

    def test_negative_zero_and_positive_values(self):
        histogram = Histogram(fold_threshold=4)
        for value in [-10.0, -1.0, 0.0, 0.0, 1.0, 10.0, 100.0]:
            histogram.observe(value)
        state = histogram.state()
        assert state.count == 7
        assert state.minimum == -10.0
        assert state.maximum == 100.0
        assert state.zeros == 2
        assert state.negative and state.positive
        assert state.quantile(0.0) == -10.0
        assert state.quantile(1.0) == 100.0

    def test_taking_a_snapshot_does_not_change_later_summaries(self):
        # state() must be non-destructive: observability cannot alter what a
        # run reports afterwards.
        histogram = Histogram()
        for index in range(200):
            histogram.observe(1.0 + (index % 37) * 0.1)
        before = histogram.summary()
        state = histogram.state()  # what a snapshot captures
        assert state.count == 200
        after = histogram.summary()
        assert after == before
        assert histogram.pending_count == 200  # buffer untouched


class TestPercentileEdgeCases:
    def test_empty_list_is_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.0) == 0.0
        assert percentile([], 1.0) == 0.0

    def test_invalid_quantile_raises_even_for_empty_input(self):
        with pytest.raises(ValueError):
            percentile([], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_single_element_is_its_own_percentile(self):
        for quantile in (0.0, 0.25, 0.5, 1.0):
            assert percentile([7.0], quantile) == 7.0

    def test_extreme_quantiles_hit_min_and_max(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 1.0) == 4.0
        assert percentile(ordered, 0.5) == 2.5


# ---------------------------------------------------------------------------
# Facade and compatibility shim
# ---------------------------------------------------------------------------


class TestTelemetryFacade:
    def test_tagged_instruments_are_distinct(self):
        telemetry = Telemetry()
        telemetry.increment("ev", 2.0, node="a")
        telemetry.increment("ev", 3.0, node="b")
        telemetry.increment("ev", 5.0)
        snapshot = telemetry.snapshot()
        assert snapshot.counter_value("ev", node="a") == 2.0
        assert snapshot.counter_value("ev") == 5.0
        assert snapshot.counter_total("ev") == 10.0
        assert snapshot.counters_by_tag("ev", "node") == {"a": 2.0, "b": 3.0}

    def test_snapshot_queries_of_absent_instruments_are_empty(self):
        snapshot = Telemetry().snapshot(at=1.0)
        assert snapshot.histogram_summary("never.observed", node="a").count == 0
        assert snapshot.counter_value("never.counted") == 0.0
        assert snapshot.gauge_value("never.set", node="a") == 0.0
        assert snapshot.histograms == ()


# ---------------------------------------------------------------------------
# Snapshots and sinks
# ---------------------------------------------------------------------------


def _populated_telemetry() -> Telemetry:
    telemetry = Telemetry()
    telemetry.increment("rt.published", 42.0)
    telemetry.increment("gossip.messages_sent", 7.0, node="node-001")
    telemetry.set_gauge("fairness.ratio_jain", 0.875)
    telemetry.set_gauge("node.benefit", 3.0, node="node-001")
    for value in (0.01, 0.02, 0.5, 1.5, -2.0, 0.0):
        telemetry.observe("lat", value, node="node-001")
    return telemetry


class TestSnapshotRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        snapshot = _populated_telemetry().snapshot(at=12.5)
        assert TelemetrySnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_round_trip_through_json_text(self):
        snapshot = _populated_telemetry().snapshot(at=12.5)
        text = json.dumps(snapshot.to_dict(), sort_keys=True)
        assert TelemetrySnapshot.from_dict(json.loads(text)) == snapshot

    def test_round_trip_through_jsonl_sink(self, tmp_path):
        telemetry = _populated_telemetry()
        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(str(path))
        first = telemetry.snapshot(at=1.0)
        sink.emit(first)
        telemetry.increment("rt.published", 1.0)
        second = telemetry.snapshot(at=2.0)
        sink.emit(second)
        sink.close()
        restored = read_snapshots_jsonl(str(path))
        assert restored == [first, second]

    def test_snapshot_queries(self):
        snapshot = _populated_telemetry().snapshot(at=3.0)
        assert snapshot.counter_value("rt.published") == 42.0
        assert snapshot.counter_value("gossip.messages_sent", node="node-001") == 7.0
        assert snapshot.counter_total("gossip.messages_sent") == 7.0
        assert snapshot.gauge_value("fairness.ratio_jain") == 0.875
        assert snapshot.gauges_by_tag("node.benefit", "node") == {"node-001": 3.0}
        summary = snapshot.histogram_summary("lat", node="node-001")
        assert summary.count == 6
        assert summary.minimum == -2.0

    def test_csv_and_prometheus_sinks_write_files(self, tmp_path):
        telemetry = _populated_telemetry()
        csv_path = tmp_path / "out.csv"
        prom_path = tmp_path / "out.prom"
        csv_sink = parse_sink_spec(f"csv:{csv_path}")
        prom_sink = parse_sink_spec(f"prom:{prom_path}")
        snapshot = telemetry.snapshot(at=1.0)
        for sink in (csv_sink, prom_sink):
            sink.emit(snapshot)
            sink.close()
        header, row = csv_path.read_text().strip().splitlines()
        assert "counter:rt.published" in header
        assert "histogram:lat{node=node-001}.p95" in header
        assert len(row.split(",")) == len(header.split(","))
        exposition = prom_path.read_text()
        assert "# TYPE repro_rt_published counter" in exposition
        assert 'repro_gossip_messages_sent{node="node-001"} 7.0' in exposition
        assert 'repro_lat{node="node-001",quantile="0.5"}' in exposition
        assert exposition == render_prometheus(snapshot)

    def test_memory_sink_is_a_ring_buffer(self):
        telemetry = Telemetry()
        sink = MemorySink(capacity=2)
        for index in range(4):
            telemetry.increment("ticks")
            sink.emit(telemetry.snapshot(at=float(index)))
        assert len(sink.records()) == 2
        assert sink.records()[-1].at == 3.0

    def test_parse_sink_spec_errors(self):
        with pytest.raises(ValueError, match="unknown telemetry sink kind"):
            parse_sink_spec("bogus:path")
        with pytest.raises(ValueError, match="needs a path"):
            parse_sink_spec("jsonl")
        assert isinstance(parse_sink_spec("memory:16"), MemorySink)
        assert isinstance(parse_sink_spec("prometheus:x.prom"), PrometheusSink)


# ---------------------------------------------------------------------------
# TelemetrySpec on StackSpec
# ---------------------------------------------------------------------------


class TestTelemetrySpec:
    def test_default_spec_serialises_without_telemetry_section(self):
        payload = StackSpec().to_dict()
        assert "telemetry" not in payload

    def test_telemetry_round_trips_through_dicts(self):
        spec = StackSpec().with_telemetry(("jsonl:out/m.jsonl",), period=2.5)
        payload = spec.to_dict()
        assert payload["telemetry"] == {"sinks": ["jsonl:out/m.jsonl"], "period": 2.5}
        assert StackSpec.from_dict(payload) == spec

    def test_telemetry_never_touches_cache_identity(self):
        from repro.experiments import config_hash

        base = get_scenario("smoke").spec
        wired = base.with_telemetry(("jsonl:out/m.jsonl",))
        assert config_hash(wired.to_config()) == config_hash(base.to_config())

    def test_build_sinks(self, tmp_path):
        spec = TelemetrySpec(sinks=(f"jsonl:{tmp_path}/a.jsonl", "memory"))
        sinks = spec.build_sinks()
        assert isinstance(sinks[0], JsonlSink)
        assert isinstance(sinks[1], MemorySink)

    def test_from_dict_rejects_string_sinks(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="must be a list"):
            StackSpec.from_dict({"telemetry": {"sinks": "jsonl:out.jsonl"}})
        with pytest.raises(RegistryError, match="unknown telemetry spec fields"):
            StackSpec.from_dict({"telemetry": {"sink": ["jsonl:out.jsonl"]}})

    def test_default_period_matches_shared_constant(self):
        from repro.telemetry import DEFAULT_SNAPSHOT_PERIOD

        assert TelemetrySpec().period == DEFAULT_SNAPSHOT_PERIOD

    def test_from_dict_rejects_bad_periods(self):
        from repro.registry import RegistryError

        for bad in (None, "fast"):
            with pytest.raises(RegistryError, match="must be a number"):
                StackSpec.from_dict({"telemetry": {"sinks": [], "period": bad}})
        for bad in (0, -1.5):
            with pytest.raises(RegistryError, match="must be positive"):
                StackSpec.from_dict({"telemetry": {"sinks": [], "period": bad}})


# ---------------------------------------------------------------------------
# Simulator integration: determinism and final snapshots
# ---------------------------------------------------------------------------


class TestSimulatorSnapshots:
    def test_no_duplicate_snapshot_when_run_ends_exactly_on_a_tick(self, tmp_path):
        # total_time = 6.0 is an exact multiple of the 2.0 period; the final
        # emit must not repeat the last tick when nothing changed after it.
        path = tmp_path / "ticks.jsonl"
        run_experiment(_fast_config(), snapshot_sinks=[f"jsonl:{path}"], snapshot_period=2.0)
        snapshots = read_snapshots_jsonl(str(path))
        ats = [snapshot.at for snapshot in snapshots]
        assert ats == sorted(set(ats)), "duplicate or out-of-order snapshot instants"

    def test_two_serial_runs_emit_byte_identical_jsonl_streams(self, tmp_path):
        config = _fast_config()
        streams = []
        for run in ("one", "two"):
            path = tmp_path / f"{run}.jsonl"
            run_experiment(
                config, snapshot_sinks=[f"jsonl:{path}"], snapshot_period=2.0
            )
            streams.append(path.read_bytes())
        assert streams[0] == streams[1]
        assert len(read_snapshots_jsonl(str(tmp_path / "one.jsonl"))) >= 3

    def test_result_totals_come_from_the_final_snapshot(self):
        from repro.analysis import latency_summary_from_snapshot

        result = run_experiment(_fast_config())
        snapshot = result.final_snapshot
        assert snapshot is not None
        assert snapshot.at == result.config.total_time
        assert result.total_messages == snapshot.gauge_value("sim.messages.total")
        assert result.total_deliveries == int(snapshot.gauge_value("sim.deliveries"))
        # The streamed latency histogram agrees with the delivery log, and
        # the analysis-layer constructor reads it under its default name.
        summary = latency_summary_from_snapshot(snapshot)
        assert summary.count == result.total_deliveries
        assert summary.maximum == result.reliability.max_latency

    def test_spec_built_stacks_record_node_level_instruments(self):
        # The registry build path threads the runner's telemetry into the
        # gossip nodes, so node-tagged counters and controller gauges appear
        # in every simulated run's snapshots — not just classic live hosts.
        result = run_experiment(
            _fast_config().with_overrides(system="fair-gossip", name="telemetry-fair-sim")
        )
        snapshot = result.final_snapshot
        assert snapshot.counter_total("gossip.rounds") > 0
        assert snapshot.counter_total("gossip.messages_sent") > 0
        assert snapshot.gauges_by_tag("controller.fanout", "node")
        assert snapshot.gauges_by_tag("benefit.own_rate", "node")

    def test_snapshots_do_not_perturb_the_simulation(self):
        plain = run_experiment(_fast_config())
        with_sinks = run_experiment(
            _fast_config(), snapshot_sinks=[MemorySink()], snapshot_period=1.0
        )
        assert plain.to_dict() == with_sinks.to_dict()

    def test_fair_gossip_run_exposes_controller_gauges_live(self):
        from repro.core.fair_gossip import FairGossipNode
        from repro.pubsub import TopicFilter

        telemetry = Telemetry()
        # Wire node-level telemetry through the live host path: the host
        # injects its telemetry into every node it builds, and fair-gossip
        # nodes publish their controller recommendations as gauges.
        async def scenario():
            host = NodeHost(
                MemoryTransport(),
                seed=3,
                time_scale=50.0,
                telemetry=telemetry,
                node_class=FairGossipNode,
            )
            node_ids = [f"node-{index:03d}" for index in range(8)]
            host.add_nodes(node_ids)
            for node_id in node_ids:
                host.subscribe(node_id, TopicFilter("t"))
            await host.start()
            for index in range(30):
                host.publish(f"node-{index % 8:03d}", topic="t")
                await asyncio.sleep(0.002)
            await settle(
                lambda: telemetry.snapshot().counter_total("gossip.deliveries") > 0
            )
            await host.stop()

        asyncio.run(scenario())
        snapshot = telemetry.snapshot()
        counters = {name for name, _tags, _value in snapshot.counters}
        assert "gossip.messages_sent" in counters
        assert "gossip.rounds" in counters
        assert snapshot.counter_total("gossip.messages_sent") > 0
        assert snapshot.counter_total("gossip.deliveries") > 0
        # Controller and estimator gauges are node-tagged.
        fanouts = snapshot.gauges_by_tag("controller.fanout", "node")
        assert set(fanouts) == set(f"node-{index:03d}" for index in range(8))
        assert snapshot.gauges_by_tag("benefit.own_rate", "node")


class TestBiasDetectorTelemetry:
    def test_analyse_publishes_verdict_gauges(self):
        from repro.core.bias import BiasDetector, ForwardAudit

        audit = ForwardAudit()
        for _ in range(12):
            audit.observe("honest", new_events=5, total_events=5, receiver="r1")
            audit.observe("staler", new_events=0, total_events=5, receiver="r2")
        telemetry = Telemetry()
        report = BiasDetector(min_messages=10).analyse(audit, telemetry=telemetry)
        assert report.flagged_nodes() == ["staler"]
        snapshot = telemetry.snapshot()
        assert snapshot.gauge_value("bias.flagged", node="staler") == 1.0
        assert snapshot.gauge_value("bias.flagged", node="honest") == 0.0
        assert snapshot.gauge_value("bias.useful_ratio", node="honest") == 1.0
        assert snapshot.gauge_value("bias.flagged_nodes") == 1.0


class TestControllerGauges:
    def test_gauges_report_base_values_before_any_adaptation(self):
        from repro.core import FANOUT, PAYLOAD, ContributionLever

        telemetry = Telemetry()
        ContributionLever(FANOUT, 6, 1, 12, telemetry=telemetry, telemetry_tags={"node": "n1"})
        ContributionLever(PAYLOAD, 16, 1, 32, telemetry=telemetry, telemetry_tags={"node": "n1"})
        # Snapshots taken before the first round (or in ablations that never
        # adapt a lever) must show the effective operating point, not 0.
        snapshot = telemetry.snapshot()
        assert snapshot.gauge_value("controller.fanout", node="n1") == 6.0
        assert snapshot.gauge_value("controller.payload", node="n1") == 16.0


# ---------------------------------------------------------------------------
# Runtime (wall-time) snapshots — structural, with tolerance
# ---------------------------------------------------------------------------


class TestRuntimeSnapshots:
    def test_host_emits_periodic_and_final_snapshots(self):
        sink = MemorySink()

        async def scenario():
            host = NodeHost(
                MemoryTransport(),
                seed=11,
                time_scale=50.0,
                snapshot_sinks=[sink],
                snapshot_period=5.0,  # 0.1s of real time at scale 50
            )
            host.add_nodes([f"node-{index:03d}" for index in range(6)])
            await host.start()
            for index in range(40):
                host.publish(f"node-{index % 6:03d}", topic="t")
                await asyncio.sleep(0.005)
            await host.stop()

        asyncio.run(scenario())
        snapshots = sink.records()
        # Wall-time cadence is not exact; require at least the final snapshot
        # plus one periodic tick, and monotonically increasing timestamps.
        assert len(snapshots) >= 2
        ats = [snapshot.at for snapshot in snapshots]
        assert ats == sorted(ats)
        final = snapshots[-1]
        assert final.counter_value("rt.published") == 40.0
        assert final.gauge_value("rt.nodes") == 6.0
        assert 0.0 <= final.gauge_value("fairness.ratio_jain") <= 1.0


# ---------------------------------------------------------------------------
# The report surface
# ---------------------------------------------------------------------------


class TestReport:
    def test_report_identical_for_json_artifact_and_cache_entry(self, tmp_path):
        config = _fast_config().with_overrides(name="telemetry-report")
        artifact = tmp_path / "results.json"
        cache_dir = tmp_path / "cache"
        code = cli_main(
            [
                "run",
                "smoke",
                "--set",
                "duration=4",
                "--set",
                "drain_time=2",
                "--set",
                "name=telemetry-report",
                "--cache-dir",
                str(cache_dir),
                "--json",
                str(artifact),
            ]
        )
        assert code == 0
        cache_files = list(cache_dir.glob("*/*.json"))
        assert len(cache_files) == 1
        from_artifact = load_artifact(str(artifact))
        from_cache = load_artifact(str(cache_files[0]))
        assert from_artifact.schema == from_cache.schema == ARTIFACT_SCHEMA
        assert render_report(from_artifact) == render_report(from_cache)
        del config  # identity documented by the name override above

    def test_report_cli_on_snapshot_stream(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        run_experiment(
            _fast_config(), snapshot_sinks=[f"jsonl:{stream}"], snapshot_period=2.0
        )
        assert cli_main(["report", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "telemetry time series" in out
        assert "sim.delivery_latency" in out
        assert "fairness at t=" in out

    def test_report_cli_rejects_unknown_artifacts(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"unexpected": true}')
        with pytest.raises(SystemExit, match="unrecognised shape"):
            cli_main(["report", str(bogus)])
        with pytest.raises(SystemExit, match="cannot read artifact .*missing.json"):
            cli_main(["report", str(tmp_path / "missing.json")])
        # A results layout under another schema is not read as results.
        bogus.write_text('{"schema": 7, "results": []}')
        with pytest.raises(SystemExit, match="has schema 7; expected .*1"):
            cli_main(["report", str(bogus)])

    def test_render_results_is_deterministic(self, tmp_path):
        result = run_experiment(_fast_config())
        assert render_results([result]) == render_results([result])

    def test_run_cli_rejects_bad_telemetry_specs_cleanly(self):
        with pytest.raises(SystemExit, match="unknown telemetry sink kind"):
            cli_main(["run", "smoke", "--no-cache", "--telemetry", "bogus:x"])
        with pytest.raises(SystemExit, match="needs a path"):
            cli_main(["run", "smoke", "--no-cache", "--telemetry", "jsonl"])
        with pytest.raises(SystemExit, match="must be positive"):
            cli_main(
                [
                    "run",
                    "smoke",
                    "--no-cache",
                    "--telemetry",
                    "memory",
                    "--telemetry-period",
                    "0",
                ]
            )
        with pytest.raises(SystemExit, match="no effect without --telemetry"):
            cli_main(["run", "smoke", "--no-cache", "--telemetry-period", "2"])

    def test_snapshot_fairness_table_caps_zero_benefit_contributors(self):
        from repro.analysis import fairness_table_from_snapshot
        from repro.core.fairness import _ZERO_BENEFIT_RATIO_CAP

        telemetry = Telemetry()
        telemetry.set_gauge("node.contribution", 10.0, node="exploited")
        telemetry.set_gauge("node.benefit", 0.0, node="exploited")
        telemetry.set_gauge("node.contribution", 4.0, node="balanced")
        telemetry.set_gauge("node.benefit", 2.0, node="balanced")
        table = fairness_table_from_snapshot(telemetry.snapshot(at=1.0))
        rows = {row["node"]: row for row in table.rows}
        # Same semantics as the end-of-run summary: an exploited contributor
        # gets the finite cap, not a ratio of 0.
        assert rows["exploited"]["ratio"] == _ZERO_BENEFIT_RATIO_CAP
        assert rows["balanced"]["ratio"] == 2.0
