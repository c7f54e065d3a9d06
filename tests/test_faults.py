"""Tests for the unified fault-injection layer (``repro.faults``).

Covers the contract the multi-layer refactor promises:

* the :class:`FaultPlan` codec (JSON, entry pairs, flat-config embedding)
  and its fail-fast validation with registry-style messages;
* partition-heal reliability: events published *during* a partition are
  eventually delivered after the heal — in the simulator and on the live
  memory transport;
* churn determinism: two serial runs of a churn plan produce byte-identical
  result artifacts and telemetry snapshot streams;
* spec↔flat-config round trips including the fault section, with the PR-3
  cache keys of fault-free configs pinned;
* the skip-is-loud satellite: faults aimed at unknown nodes record
  ``fault.skipped`` telemetry/trace events instead of vanishing;
* an active-but-idle controller leaves the physics bit-identical.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    StackSpec,
    config_hash,
    get_scenario,
    run_experiment,
)
from repro.cli import main as cli_main
from repro.faults import (
    ChurnInjector,
    CrashSchedule,
    FaultController,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
)
from repro.gossip import GossipSystem
from repro.pubsub import TopicFilter
from repro.registry import SYSTEMS, parse_spec_overrides
from repro.runtime.host import NodeHost
from repro.runtime.transport import MemoryTransport
from repro.sim import Network, ProcessRegistry, Simulator
from repro.telemetry import Telemetry
from tests.conftest import SMOKE_CONFIG_HASH, result_sha, settle


def _physics(result) -> dict:
    """A result's measured payload, without the config that produced it."""
    payload = result.to_dict()
    payload.pop("config")
    return payload


# ---------------------------------------------------------------------------
# Plan codec + validation
# ---------------------------------------------------------------------------


class TestFaultPlanCodec:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", at=2.0, nodes=("n1", "n2")),
                FaultSpec(kind="churn", at=1.0, until=9.0, down_probability=0.1),
                FaultSpec(kind="partition", at=3.0, heal_after=2.0, fraction=0.25),
                FaultSpec(kind="perturb", at=4.0, until=6.0, loss_rate=0.5),
            )
        )
        assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_from_dict_accepts_bare_list_and_schema_wrapper(self):
        entries = [{"kind": "crash", "at": 1.0, "nodes": ["n0"]}]
        assert FaultPlan.from_dict(entries) == FaultPlan.from_dict(
            {"schema": "fault-plan/v1", "faults": entries}
        )

    def test_json_integers_canonicalise_to_floats(self):
        plan = FaultPlan.from_dict([{"kind": "partition", "at": 2, "heal_after": 3}])
        assert plan.entries[0].at == 2.0
        assert isinstance(plan.entries[0].at, float)

    def test_unknown_entry_field_rejected_with_suggestion(self):
        with pytest.raises(FaultPlanError, match="heal_after"):
            FaultPlan.from_dict([{"kind": "partition", "heal_aftr": 3.0}])

    def test_mistyped_entry_values_rejected_at_load(self):
        with pytest.raises(FaultPlanError, match="'at' must be a number"):
            FaultPlan.from_dict([{"kind": "crash", "at": "2", "nodes": ["n0"]}])
        with pytest.raises(FaultPlanError, match="'nodes' must be a list"):
            FaultPlan.from_dict([{"kind": "crash", "at": 2.0, "nodes": "node-001"}])
        with pytest.raises(FaultPlanError, match="'kind' must be a string"):
            FaultPlan.from_dict([{"kind": 3}])
        with pytest.raises(FaultPlanError, match="'loss_rate' must be a number"):
            FaultPlan.from_dict([{"kind": "perturb", "loss_rate": True}])
        with pytest.raises(FaultPlanError, match=r"'nodes'\[0\] must be a string"):
            FaultPlan.from_dict([{"kind": "crash", "at": 1.0, "nodes": [1, 2]}])
        with pytest.raises(FaultPlanError, match=r"'groups'\[1\] must be a list of 2 items"):
            FaultPlan.from_dict(
                [
                    {
                        "kind": "partition",
                        "at": 1.0,
                        "heal_after": 2.0,
                        "groups": [["node-001", 0], ["node-002"]],
                    }
                ]
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.from_dict([{"kind": "meltdown"}]).validate()

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan((FaultSpec(kind="leave", at=1.0, nodes=("n3",)),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan

    def test_missing_file_is_a_plan_error(self):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file("/nonexistent/plan.json")


class TestFaultPlanValidation:
    def test_unknown_node_fails_fast_with_suggestion(self):
        plan = FaultPlan((FaultSpec(kind="crash", at=1.0, nodes=("node-099",)),))
        with pytest.raises(FaultPlanError, match="unknown node ids"):
            plan.validate(node_ids=[f"node-{i:03d}" for i in range(10)])

    def test_entry_beyond_run_end_rejected(self):
        plan = FaultPlan((FaultSpec(kind="partition", at=50.0, heal_after=1.0),))
        with pytest.raises(FaultPlanError, match="can never fire"):
            plan.validate(total_time=10.0)

    def test_bad_probability_rejected(self):
        plan = FaultPlan((FaultSpec(kind="churn", down_probability=1.5),))
        with pytest.raises(FaultPlanError, match="down_probability"):
            plan.validate()

    def test_partition_needs_positive_heal(self):
        plan = FaultPlan((FaultSpec(kind="partition", heal_after=0.0),))
        with pytest.raises(FaultPlanError, match="heal_after"):
            plan.validate()

    def test_inverted_window_rejected(self):
        plan = FaultPlan((FaultSpec(kind="perturb", at=5.0, until=2.0, loss_rate=0.1),))
        with pytest.raises(FaultPlanError, match="until"):
            plan.validate()

    def test_crash_without_targets_rejected(self):
        plan = FaultPlan((FaultSpec(kind="crash", at=1.0),))
        with pytest.raises(FaultPlanError, match="at least one node"):
            plan.validate()

    def test_overlapping_perturb_windows_rejected(self):
        plan = FaultPlan(
            (
                FaultSpec(kind="perturb", at=0.0, until=10.0, loss_rate=0.1),
                FaultSpec(kind="perturb", at=5.0, until=20.0, loss_rate=0.2),
            )
        )
        with pytest.raises(FaultPlanError, match="overlapping perturb"):
            plan.validate()

    def test_open_ended_perturb_overlaps_any_later_window(self):
        plan = FaultPlan(
            (
                FaultSpec(kind="perturb", at=0.0, loss_rate=0.1),  # until run end
                FaultSpec(kind="perturb", at=5.0, until=6.0, loss_rate=0.2),
            )
        )
        with pytest.raises(FaultPlanError, match="overlapping perturb"):
            plan.validate()

    def test_overlapping_partitions_rejected_but_staggered_allowed(self):
        overlapping = FaultPlan(
            (
                FaultSpec(kind="partition", at=1.0, heal_after=5.0),
                FaultSpec(kind="partition", at=3.0, heal_after=1.0),
            )
        )
        with pytest.raises(FaultPlanError, match="overlapping partition"):
            overlapping.validate()
        staggered = FaultPlan(
            (
                FaultSpec(kind="partition", at=1.0, heal_after=2.0),
                FaultSpec(kind="partition", at=3.0, heal_after=1.0),
            )
        )
        staggered.validate()  # back-to-back (heal == next install) is fine

    def test_fields_not_read_by_the_kind_are_rejected(self):
        # A perturb entry naming nodes would silently degrade the WHOLE
        # network while its author believes it is per-node — reject it.
        plan = FaultPlan(
            (FaultSpec(kind="perturb", at=1.0, loss_rate=0.5, nodes=("node-001",)),)
        )
        with pytest.raises(FaultPlanError, match="not read by kind 'perturb'"):
            plan.validate()
        with pytest.raises(FaultPlanError, match="not read by kind 'churn'"):
            FaultPlan((FaultSpec(kind="churn", nodes=("node-003",)),)).validate()
        with pytest.raises(FaultPlanError, match="not read by kind 'crash'"):
            FaultPlan(
                (FaultSpec(kind="crash", at=1.0, nodes=("n0",), loss_rate=0.5),)
            ).validate()

    def test_controller_without_registry_rejects_node_faults(self):
        simulator = Simulator(seed=1)
        plan = FaultPlan((FaultSpec(kind="crash", at=1.0, nodes=("n0",)),))
        with pytest.raises(FaultPlanError, match="registry"):
            FaultController(simulator, Network(simulator), None, plan)

    def test_controller_without_network_rejects_network_faults(self):
        simulator = Simulator(seed=1)
        plan = FaultPlan((FaultSpec(kind="perturb", at=1.0, loss_rate=0.5),))
        with pytest.raises(FaultPlanError, match="network"):
            FaultController(simulator, None, None, plan)


# ---------------------------------------------------------------------------
# Simulator-side behaviour
# ---------------------------------------------------------------------------


def _gossip_fixture(seed: int = 11, nodes: int = 12):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    system = GossipSystem(
        simulator, network, [f"n{i}" for i in range(nodes)], bootstrap_degree=5
    )
    for node_id in system.node_ids():
        system.subscribe(node_id, TopicFilter("news"))
    return simulator, network, system


class TestSimulatorFaults:
    def test_crash_recover_leave_schedule_applies(self):
        simulator, network, system = _gossip_fixture()
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", at=1.0, nodes=("n1",)),
                FaultSpec(kind="recover", at=3.0, nodes=("n1",)),
                FaultSpec(kind="leave", at=4.0, nodes=("n2",)),
            )
        ).validate(node_ids=system.node_ids())
        controller = FaultController(
            simulator, network, system.registry, plan, telemetry=Telemetry()
        )
        controller.start()
        simulator.run(until=2.0)
        assert not system.registry.get("n1").alive
        simulator.run(until=3.5)
        assert system.registry.get("n1").alive
        simulator.run(until=5.0)
        assert "n2" not in system.registry
        assert controller.counts == {"crash": 1, "recover": 1, "leave": 1}

    def test_leave_cancels_the_leavers_subscriptions_on_both_injectors(self):
        """The plan's controller and the imperative schedule apply a leave alike."""
        cancelled = {}
        for injector in ("controller", "schedule"):
            simulator, network, system = _gossip_fixture()
            if injector == "controller":
                plan = FaultPlan((FaultSpec(kind="leave", at=4.0, nodes=("n2",)),))
                FaultController(simulator, network, system.registry, plan).start()
            else:
                CrashSchedule(simulator, system.registry).add(4.0, "n2", "leave")
            simulator.run(until=5.0)
            event = system.publish("n0", topic="news")
            assert "n2" not in system.subscriptions.interested_nodes(event)
            assert system.subscriptions.interested_nodes(event) == sorted(
                node_id for node_id in system.node_ids() if node_id != "n2"
            )
            cancelled[injector] = system.subscriptions.total_unsubscribes
        assert cancelled == {"controller": 1, "schedule": 1}

    def test_a_node_that_left_is_in_no_interested_set(self):
        def interested(spec):
            result = run_experiment(spec.to_config(), keep_system=True)
            table = result.system.subscriptions
            return [set(table.interested_nodes(event)) for event in result.published_events]

        spec = get_scenario("smoke").spec
        leave = FaultPlan((FaultSpec(kind="leave", at=2.0, nodes=("node-005",)),))
        left = interested(spec.with_value("faults.plan", spec.faults.plan + leave.entry_pairs()))
        assert left and not any("node-005" in nodes for nodes in left)
        # Without the leave the node wants some of the same run's events.
        assert any("node-005" in nodes for nodes in interested(spec))

    @pytest.mark.parametrize("kind", SYSTEMS.names())
    def test_every_system_closes_the_leavers_subscriptions_at_the_leave(self, kind):
        spec = get_scenario("smoke").spec.with_value("system.kind", kind)
        leave = FaultPlan((FaultSpec(kind="leave", at=2.0, nodes=("node-005",)),))
        spec = spec.with_value("faults.plan", spec.faults.plan + leave.entry_pairs())
        result = run_experiment(spec.to_config(), keep_system=True)
        table = result.system.subscriptions
        held = [s for s in table._by_id.values() if s.node_id == "node-005"]
        assert held and {s.unsubscribed_at for s in held} == {2.0}
        assert result.published_events
        assert not any(
            "node-005" in table.interested_nodes(event) for event in result.published_events
        )

    def test_partition_heal_reliability(self):
        """Events published during a partition flow after the heal."""
        simulator, network, system = _gossip_fixture()
        plan = FaultPlan(
            (FaultSpec(kind="partition", at=1.0, heal_after=4.0, fraction=0.5),)
        ).validate(node_ids=system.node_ids())
        controller = FaultController(simulator, network, system.registry, plan)
        controller.start()
        simulator.run(until=2.0)  # partition is up
        event = system.publish("n0", topic="news")
        simulator.run(until=4.0)  # still partitioned: the far side is dark
        partitioned_deliveries = len(
            [r for r in system.delivery_log.ordered_records() if r.event_id == event.event_id]
        )
        assert partitioned_deliveries < len(system.node_ids())
        assert network.stats.dropped_partition > 0
        simulator.run(until=30.0)  # healed at t=5; gossip finishes the job
        delivered_to = {
            record.node_id
            for record in system.delivery_log.ordered_records()
            if record.event_id == event.event_id
        }
        assert delivered_to == set(system.node_ids())

    def test_back_to_back_partitions_listed_out_of_order_both_apply(self):
        """An earlier window's heal must not erase the next window's install.

        Windows [5, 10] and [0, 5] touch at t=5; listing them out of
        chronological order makes the second window's heal fire *after* the
        first window's install at the shared timestamp, and only the
        generation guard keeps the network split for the full [0, 10).
        """
        simulator, network, system = _gossip_fixture(nodes=4)
        plan = FaultPlan(
            (
                FaultSpec(kind="partition", at=5.0, heal_after=5.0),
                FaultSpec(kind="partition", at=0.0, heal_after=5.0),
            )
        ).validate()
        controller = FaultController(simulator, network, system.registry, plan)
        controller.start()
        simulator.run(until=7.0)  # inside the second window
        assert not network._same_partition("n0", "n3")
        simulator.run(until=11.0)  # past the final heal at t=10
        assert network._same_partition("n0", "n3")

    def test_final_snapshot_reports_a_partition_the_run_ended_under(self):
        config = get_scenario("smoke").config.with_overrides(
            name="smoke-endsplit",
            fault_partition_at=5.0,
            fault_partition_heal_after=100.0,  # never heals within the run
        )
        result = run_experiment(config)
        assert result.final_snapshot.gauge_value("fault.partition_active") == 1.0

    def test_stop_mid_partition_heals_the_network(self):
        """Cancelling the pending heal must not leak a permanent split."""
        simulator, network, system = _gossip_fixture(nodes=4)
        plan = FaultPlan(
            (FaultSpec(kind="partition", at=1.0, heal_after=10.0, fraction=0.5),)
        )
        controller = FaultController(simulator, network, system.registry, plan)
        controller.start()
        simulator.run(until=2.0)  # installed, heal still pending at t=11
        assert not network._same_partition("n0", "n3")
        controller.stop()
        assert network._same_partition("n0", "n3")

    @pytest.mark.parametrize("up_probability", [0.5, 0.0])
    def test_churn_draw_sequence_is_unconditional(self, up_probability):
        """Probability-0 branches still draw, exactly like ChurnInjector.

        Guarding the draws behind ``probability > 0`` would shift every
        subsequent draw in the 'churn' stream for configs with one
        probability at zero — same cache key, different physics.
        """

        def run(use_plan: bool):
            simulator, network, system = _gossip_fixture(seed=8, nodes=10)
            kwargs = dict(
                period=1.0, down_probability=0.4, up_probability=up_probability
            )
            if use_plan:
                plan = FaultPlan(
                    (FaultSpec(kind="churn", rng_stream="churn", **kwargs),)
                )
                FaultController(simulator, network, system.registry, plan).start()
            else:
                ChurnInjector(simulator, system.registry, **kwargs).start()
            simulator.run(until=10.0)
            down = sorted(p.node_id for p in system.registry.all() if not p.alive)
            return down, simulator.processed_events, network.stats.sent

        assert run(True) == run(False)

    def test_perturb_loss_window_suppresses_dissemination(self):
        base = get_scenario("smoke").config
        lossy = base.with_overrides(
            name="smoke-lossy",
            fault_perturb_loss=1.0,  # whole-run blackout
        )
        baseline = run_experiment(base)
        blackout = run_experiment(lossy)
        assert blackout.delivery_ratio < baseline.delivery_ratio
        assert blackout.total_deliveries < baseline.total_deliveries

    def test_perturb_extra_latency_shifts_delivery_latency(self):
        base = get_scenario("smoke").config
        slow = base.with_overrides(name="smoke-slow", fault_perturb_latency=0.5)
        baseline = run_experiment(base)
        slowed = run_experiment(slow)
        assert slowed.reliability.mean_latency > baseline.reliability.mean_latency

    def test_idle_controller_leaves_physics_bit_identical(self):
        """An active-but-idle plan must not perturb a single byte."""
        base = get_scenario("smoke").config
        idle = base.with_overrides(
            name="smoke",  # same name: physics comparison below strips config anyway
            fault_plan=(
                (("kind", "churn"), ("down_probability", 0.0), ("up_probability", 0.0)),
            ),
        )
        assert _physics(run_experiment(idle)) == _physics(run_experiment(base))

    def test_churn_plan_matches_legacy_churn_injector_byte_for_byte(self):
        """Plan-driven churn reproduces the ChurnInjector draw sequence."""

        def run(use_plan: bool):
            simulator, network, system = _gossip_fixture(seed=5, nodes=10)
            if use_plan:
                plan = FaultPlan(
                    (
                        FaultSpec(
                            kind="churn",
                            period=1.0,
                            down_probability=0.3,
                            up_probability=0.5,
                            protected=("n0",),
                            rng_stream="churn",
                        ),
                    )
                )
                FaultController(simulator, network, system.registry, plan).start()
            else:
                ChurnInjector(
                    simulator,
                    system.registry,
                    period=1.0,
                    down_probability=0.3,
                    up_probability=0.5,
                    protected=["n0"],
                ).start()
            simulator.run(until=12.0)
            down = sorted(p.node_id for p in system.registry.all() if not p.alive)
            return down, simulator.processed_events, network.stats.sent

        assert run(True) == run(False)

    def test_churn_runs_are_deterministic_including_snapshots(self, tmp_path):
        config = get_scenario("smoke-churn").config
        shas = []
        streams = []
        for run in ("a", "b"):
            path = tmp_path / f"stream-{run}.jsonl"
            result = run_experiment(
                config, snapshot_sinks=[f"jsonl:{path}"], snapshot_period=2.0
            )
            shas.append(result_sha(result))
            streams.append(path.read_bytes())
        assert shas[0] == shas[1]
        assert streams[0] == streams[1]
        # The stream actually carries fault telemetry (churn happened).
        assert b"fault.events" in streams[0]


class TestSkipIsLoud:
    def test_crash_schedule_records_skip_for_unknown_node(self):
        simulator = Simulator(seed=3)
        network = Network(simulator)
        registry = ProcessRegistry()
        telemetry = Telemetry()
        schedule = CrashSchedule(simulator, registry, telemetry=telemetry)
        schedule.add(1.0, "ghost", "crash")
        simulator.run(until=2.0)
        assert schedule.skipped == 1
        snapshot = telemetry.snapshot()
        assert snapshot.counter_value("fault.skipped", action="crash") == 1
        assert snapshot.counter_total("fault.events") == 0

    def test_controller_records_skip_when_target_left(self):
        simulator, network, system = _gossip_fixture(nodes=4)
        telemetry = Telemetry()
        plan = FaultPlan(
            (
                FaultSpec(kind="leave", at=1.0, nodes=("n1",)),
                FaultSpec(kind="crash", at=2.0, nodes=("n1",)),  # already gone
            )
        )
        controller = FaultController(
            simulator, network, system.registry, plan, telemetry=telemetry
        )
        controller.start()
        simulator.run(until=3.0)
        assert controller.counts.get("skipped") == 1
        assert telemetry.snapshot().counter_value("fault.skipped", action="crash") == 1


# ---------------------------------------------------------------------------
# Spec / flat-config integration
# ---------------------------------------------------------------------------


class TestSpecFaultIntegration:
    def test_fault_free_configs_keep_pinned_cache_keys(self):
        smoke = get_scenario("smoke").config
        assert config_hash(smoke) == SMOKE_CONFIG_HASH
        # A spec round trip through the faults-aware StackSpec is free.
        assert config_hash(StackSpec.from_config(smoke).to_config()) == SMOKE_CONFIG_HASH
        assert not any(key.startswith("fault_") for key in smoke.to_dict())

    def test_fault_fields_round_trip_flat_and_nested(self):
        config = ExperimentConfig(
            churn_down_probability=0.07,
            fault_churn_start=2.0,
            fault_partition_at=3.0,
            fault_partition_heal_after=4.0,
            fault_perturb_loss=0.1,
            fault_plan=((("kind", "crash"), ("at", 1.0), ("nodes", ("node-001",))),),
        )
        spec = StackSpec.from_config(config)
        assert spec.faults.churn.down_probability == 0.07
        assert spec.faults.partition.heal_after == 4.0
        assert spec.get("faults.perturb.loss_rate") == 0.1
        assert spec.to_config() == config
        assert StackSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        json.dumps(spec.to_dict())  # nested encoding must be JSON-clean
        json.dumps(config.to_dict())

    def test_dotted_fault_overrides_parse(self):
        overrides = parse_spec_overrides(
            ["faults.churn.down_probability=0.05", "faults.partition.heal_after=3"]
        )
        assert overrides == {
            "faults.churn.down_probability": 0.05,
            "faults.partition.heal_after": 3,
        }
        spec = StackSpec().with_values(overrides)
        assert spec.faults.churn.down_probability == 0.05
        # int → float widening applies on deep paths too
        assert spec.faults.partition.heal_after == 3.0
        assert isinstance(spec.faults.partition.heal_after, float)
        # a flat field name is answered with its dotted path
        with pytest.raises(ValueError, match="faults.churn.down_probability"):
            StackSpec().with_value("churn_down_probability", 0.2)

    def test_fault_plan_is_structured_and_not_settable(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="--fault"):
            parse_spec_overrides(["faults.plan=x"])

    def test_unknown_faults_spec_field_rejected(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="faults"):
            StackSpec.from_dict({"faults": {"chrn": {"down_probability": 0.1}}})

    def test_non_numeric_fault_spec_value_is_a_registry_error(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="must be a number"):
            StackSpec.from_dict({"faults": {"churn": {"down_probability": "oops"}}})
        # A bool is a misplaced flag, not a 0/1 probability.
        with pytest.raises(RegistryError, match="must be a number"):
            StackSpec.from_dict({"faults": {"churn": {"down_probability": True}}})

    def test_nested_plan_entries_are_validated_and_canonicalised(self):
        from repro.registry import RegistryError

        # Unknown entry fields fail at spec load, not at run time.
        with pytest.raises(RegistryError, match="invalid faults.plan entry"):
            StackSpec.from_dict(
                {"faults": {"plan": [[["kind", "crash"], ["nodez", ["a"]]]]}}
            )
        # JSON integers canonicalise exactly as the --fault file codec does,
        # so the same logical plan hashes to one cache key via either route.
        spec = StackSpec.from_dict(
            {"faults": {"plan": [[["kind", "crash"], ["at", 2], ["nodes", ["node-001"]]]]}}
        )
        via_plan = FaultPlan.from_dict(
            [{"kind": "crash", "at": 2, "nodes": ["node-001"]}]
        ).entry_pairs()
        assert spec.faults.plan == via_plan
        assert config_hash(spec.to_config()) == config_hash(
            StackSpec().with_value("faults.plan", via_plan).to_config()
        )
        # Mapping-form entries — the shape a --fault plan file uses — are
        # accepted too and resolve identically.
        as_mapping = StackSpec.from_dict(
            {"faults": {"plan": [{"kind": "crash", "at": 2, "nodes": ["node-001"]}]}}
        )
        assert as_mapping == spec
        # Malformed entries (neither mapping nor pair list) are clean errors.
        with pytest.raises(RegistryError, match="invalid faults.plan entry"):
            StackSpec.from_dict({"faults": {"plan": [["at"]]}})

    def test_from_spec_compiles_expected_entries(self):
        config = ExperimentConfig(
            nodes=8,
            churn_down_probability=0.05,
            fault_partition_heal_after=2.0,
            fault_perturb_loss=0.5,
        )
        plan = FaultPlan.from_spec(config.spec())
        kinds = [entry.kind for entry in plan.entries]
        assert kinds == ["churn", "partition", "perturb"]
        churn = plan.entries[0]
        assert churn.rng_stream == "churn"  # ChurnInjector parity
        assert churn.period == config.round_period
        assert churn.protected == config.publisher_ids()
        assert plan.needs_registry()

    def test_tuned_but_disabled_fault_fields_fail_loudly(self):
        # Setting the partition's timing without enabling it would silently
        # measure a fault-free run under a different cache key.
        with pytest.raises(FaultPlanError, match="heal_after"):
            FaultPlan.from_spec(ExperimentConfig(fault_partition_at=2.0).spec())
        with pytest.raises(FaultPlanError, match="down_probability"):
            FaultPlan.from_spec(ExperimentConfig(fault_churn_start=2.0).spec())
        with pytest.raises(FaultPlanError, match="extra_latency"):
            FaultPlan.from_spec(ExperimentConfig(fault_perturb_start=2.0).spec())

    def test_plan_can_target_infra_nodes(self):
        # The validation universe is the built system's registry, so plans
        # may kill infrastructure participants (the docstring's "kill the
        # rendezvous node" use case), not just client nodes.
        config = get_scenario("smoke").config.with_overrides(
            name="smoke-broker-kill",
            system="brokers",
            fault_plan=((("kind", "crash"), ("at", 2.0), ("nodes", ("broker-0",))),),
        )
        result = run_experiment(config)
        assert result is not None

    def test_garbage_entry_pairs_are_a_plan_error(self):
        with pytest.raises(FaultPlanError, match="pairs"):
            FaultPlan.from_spec(ExperimentConfig(fault_plan=("x",)).spec())

    def test_smoke_scenarios_registered(self):
        assert get_scenario("smoke-churn").config.churn_down_probability > 0
        assert get_scenario("smoke-partition").config.fault_partition_heal_after > 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestFaultCli:
    def test_run_with_fault_plan_file(self, tmp_path, capsys):
        plan = FaultPlan(
            (FaultSpec(kind="crash", at=2.0, nodes=("node-001",)),)
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code = cli_main(["run", "smoke", "--no-cache", "--fault", str(path)])
        assert code == 0
        assert "smoke" in capsys.readouterr().out

    def test_run_with_invalid_fault_plan_is_clean_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            FaultPlan((FaultSpec(kind="crash", at=2.0, nodes=("node-999",)),)).to_json()
        )
        with pytest.raises(SystemExit, match="unknown node ids"):
            cli_main(["run", "smoke", "--no-cache", "--fault", str(path)])

    def test_sweeping_the_structured_plan_field_is_blocked(self):
        with pytest.raises(SystemExit, match="structured"):
            cli_main(
                [
                    "sweep",
                    "smoke",
                    "--no-cache",
                    "--param",
                    "faults.plan",
                    "--values",
                    "x",
                ]
            )

    def test_dangling_partition_timing_is_a_clean_cli_error(self):
        with pytest.raises(SystemExit, match="heal_after"):
            cli_main(
                ["run", "smoke", "--no-cache", "--set", "faults.partition.at=2"]
            )

    def test_bad_fault_override_is_a_clean_cli_error(self):
        with pytest.raises(SystemExit, match="down_probability"):
            cli_main(
                [
                    "run",
                    "smoke",
                    "--no-cache",
                    "--set",
                    "faults.churn.down_probability=1.5",
                ]
            )

    def test_bad_swept_fault_value_is_a_clean_cli_error(self):
        with pytest.raises(SystemExit, match="down_probability"):
            cli_main(
                [
                    "sweep",
                    "smoke",
                    "--no-cache",
                    "--param",
                    "faults.churn.down_probability",
                    "--values",
                    "0.1,1.5",
                ]
            )

    def test_sweep_over_fault_path(self, capsys):
        code = cli_main(
            [
                "sweep",
                "smoke",
                "--no-cache",
                "--param",
                "faults.churn.down_probability",
                "--values",
                "0,0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "churn_down_probability=0" in out

    def test_describe_shows_fault_paths(self, capsys):
        code = cli_main(["describe", "smoke-partition"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults.partition.heal_after = 3.0" in out


# ---------------------------------------------------------------------------
# Live runtime
# ---------------------------------------------------------------------------


class TestLiveFaults:
    NODES = 8

    def _run_partition_cluster(self):
        """Live partition-heal: publish during the split, deliver after."""

        async def scenario():
            plan = FaultPlan(
                # Units at time_scale 20: install immediately, heal after 4
                # units (0.2s).  The window is kept shorter than the CYCLON
                # view depth on purpose: every shuffle initiated across the
                # split optimistically drops its target, so a partition that
                # outlives the cross-group view entries splits the overlay
                # for good (exactly the §3.2 maintenance cost the fault
                # layer exists to exercise).
                (FaultSpec(kind="partition", at=0.0, heal_after=4.0, fraction=0.5),)
            )
            host = NodeHost(
                MemoryTransport(), seed=42, time_scale=20.0, fault_plan=plan
            )
            node_ids = [f"node-{i:03d}" for i in range(self.NODES)]
            host.add_nodes(node_ids)
            await host.start()
            for node_id in node_ids:
                host.subscribe(node_id, TopicFilter("news"))

            def delivered_to():
                return {
                    record.node_id
                    for record in host.delivery_log.ordered_records()
                    if record.event_id == event.event_id
                }

            # The partition is installed and active...
            await settle(lambda: host.fault_controller.counts.get("partition"))
            event = host.publish("node-000", topic="news")
            await asyncio.sleep(0.1)  # still split: far group stays dark
            mid_run = delivered_to()
            # ...healed at 0.2s; gossip catches up.
            await settle(lambda: delivered_to() == set(node_ids))
            await host.stop()
            return host, mid_run, delivered_to(), set(node_ids)

        return asyncio.run(scenario())

    def test_partition_heal_reliability_on_memory_transport(self):
        host, mid_run, delivered_to, universe = self._run_partition_cluster()
        # sorted node-000..003 form group 1; the publisher is in it, so the
        # other half must have been dark while the partition held...
        assert mid_run < universe
        assert host.network.stats.dropped_partition > 0
        # ...and lit up after the heal.
        assert delivered_to == universe

    def test_crash_and_recover_through_the_registry(self):
        async def scenario():
            host = NodeHost(MemoryTransport(), seed=7, time_scale=50.0)
            host.add_nodes([f"node-{i:03d}" for i in range(4)])
            await host.start()
            host.registry.get("node-002").crash()
            assert not host.registry.get("node-002").alive
            assert "node-002" not in host.network._alive
            host.registry.get("node-002").recover()
            assert host.registry.get("node-002").alive
            assert "node-002" in host.network._alive
            await host.stop()

        asyncio.run(scenario())

    def test_spec_mode_host_compiles_faults_from_scenario(self):
        async def scenario():
            spec = get_scenario("smoke-churn").spec.with_values({"nodes": 6})
            host = NodeHost(MemoryTransport(), seed=spec.seed, time_scale=50.0, spec=spec)
            await host.start()
            assert host.fault_controller is not None
            assert host.fault_controller.plan.needs_registry()
            await host.stop()
            assert host.fault_controller is None

        asyncio.run(scenario())

    def test_a_live_leave_cancels_the_leavers_subscriptions(self):
        async def scenario():
            plan = FaultPlan((FaultSpec(kind="leave", at=1.0, nodes=("node-002",)),))
            host = NodeHost(MemoryTransport(), seed=7, time_scale=50.0, fault_plan=plan)
            host.add_nodes([f"node-{i:03d}" for i in range(4)])
            for node_id in host.node_ids():
                host.subscribe(node_id, TopicFilter("news"))
            await host.start()
            await settle(lambda: host.fault_controller.counts.get("leave"))
            event = host.publish("node-000", topic="news")
            await host.stop()
            return host, event

        host, event = asyncio.run(scenario())
        assert host.subscriptions.interested_nodes(event) == ["node-000", "node-001", "node-003"]
        assert host.subscriptions.total_unsubscribes == 1

    def test_unsatisfiable_plan_fails_host_start_and_tears_down(self):
        async def scenario():
            plan = FaultPlan((FaultSpec(kind="crash", at=1.0, nodes=("ghost",)),))
            host = NodeHost(MemoryTransport(), seed=7, fault_plan=plan)
            host.add_nodes(["node-000"])
            with pytest.raises(FaultPlanError, match="unknown node ids"):
                await host.start()
            # start() tore the half-started cluster down itself: nothing is
            # left running and a second stop() is a clean no-op.
            assert not host._started
            assert host.fault_controller is None
            await host.stop()

        asyncio.run(scenario())

    def test_live_perturb_loss_drops_frames(self):
        async def scenario():
            plan = FaultPlan(
                (FaultSpec(kind="perturb", at=0.0, loss_rate=1.0),)
            )
            host = NodeHost(MemoryTransport(), seed=9, time_scale=50.0, fault_plan=plan)
            host.add_nodes([f"node-{i:03d}" for i in range(4)])
            await host.start()
            for node_id in host.node_ids():
                host.subscribe(node_id, TopicFilter("news"))
            event = host.publish("node-000", topic="news")
            await asyncio.sleep(0.3)
            await host.stop()
            delivered_to = {
                record.node_id
                for record in host.delivery_log.ordered_records()
                if record.event_id == event.event_id
            }
            # Total blackout: nothing crosses the wire, only the publisher's
            # local delivery can exist.
            assert delivered_to <= {"node-000"}
            assert host.network.stats.lost > 0

        asyncio.run(scenario())
