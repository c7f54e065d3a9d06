"""Tests for the multi-domain topology layer (``repro.topology``).

Covers the contract the topology subsystem promises:

* the :class:`TopologySpec` codec (JSON files, nested dicts, flat
  ``topology_*`` config fields) with did-you-mean rejection of typos;
* deterministic compilation: contiguous block assignment, pinned sha256
  bridge selection, domain-level partition maps;
* spec ↔ flat-config bijection with the PR-1/PR-3 cache keys of
  topology-free configs pinned (topology at its default must be invisible
  to every serialised form);
* the perturbation-path satellite: global ``set_perturbation`` and the
  per-link geo profile share one validation/reset path, and clearing a
  fault window never erases the geo matrix;
* bridge federation end to end: relays cross domain boundaries on both
  engines, duplicate suppression at ingress, and a domain partition that
  heals mid-run is survived by cross-domain dissemination;
* byte-identical reruns of a multi-domain simulation at a pinned seed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    StackSpec,
    config_hash,
    get_scenario,
    run_experiment,
)
from repro.pubsub import TopicFilter
from repro.registry import RegistryError, parse_spec_overrides
from repro.runtime.host import NodeHost
from repro.runtime.transport import MemoryTransport
from repro.sim import Network, Simulator
from repro.sim.network import validate_link_perturbation
from repro.topology import (
    BRIDGE_MESSAGE_KIND,
    TopologyError,
    TopologySpec,
    compile_domain_map,
)
from tests.conftest import SMOKE_CONFIG_HASH, result_sha, settle


def _node_ids(count: int):
    return [f"node-{index:03d}" for index in range(count)]


# ---------------------------------------------------------------------------
# Spec codec
# ---------------------------------------------------------------------------


class TestTopologySpecCodec:
    def test_default_spec_is_disabled_and_serialises_empty(self):
        spec = TopologySpec()
        assert not spec.enabled
        assert spec.to_dict() == {}
        assert TopologySpec.from_dict({}) == spec

    def test_dict_round_trip(self):
        spec = TopologySpec(
            domains=4,
            bridges_per_domain=2,
            bridge_policy="lexical",
            cross_latency=1.5,
            cross_loss=0.05,
            geo=(("d0", "d1", 0.4, 0.0), ("d2", "d3", 0.6, 0.01)),
        )
        assert TopologySpec.from_dict(spec.to_dict()) == spec
        json.dumps(spec.to_dict())  # encoding must be JSON-clean

    def test_file_round_trip_with_schema_tag(self, tmp_path):
        spec = TopologySpec(domains=2, cross_latency=1.0)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"schema": "topology/v1", **spec.to_dict()}))
        assert TopologySpec.from_file(str(path)) == spec

    def test_wrong_schema_tag_rejected(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"schema": "faults/v1", "domains": 2}))
        with pytest.raises(TopologyError, match="topology/v1"):
            TopologySpec.from_file(str(path))

    def test_unknown_field_rejected_with_suggestion(self):
        with pytest.raises(TopologyError, match="did you mean 'domains'"):
            TopologySpec.from_dict({"domans": 4})

    def test_unknown_bridge_policy_rejected_with_suggestion(self):
        with pytest.raises(TopologyError, match="did you mean 'sha256'"):
            TopologySpec(domains=2, bridge_policy="sha255").validate()

    def test_field_ranges_validated(self):
        with pytest.raises(TopologyError, match="cross_latency"):
            TopologySpec(domains=2, cross_latency=-1.0).validate()
        with pytest.raises(TopologyError, match="cross_loss"):
            TopologySpec(domains=2, cross_loss=1.5).validate()
        with pytest.raises(TopologyError, match="bridges_per_domain"):
            TopologySpec(domains=2, bridges_per_domain=0).validate()
        with pytest.raises(TopologyError, match="more than one domain"):
            TopologySpec(assignment=(("n1", "a"), ("n1", "b"))).validate()

    def test_mistyped_geo_entries_rejected(self):
        with pytest.raises(TopologyError, match="geo"):
            TopologySpec.from_dict({"geo": [["d0", "d1", "fast", 0.0]]})
        with pytest.raises(TopologyError, match="geo"):
            TopologySpec.from_dict({"geo": [["d0", "d1"]]})


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class TestDomainMapCompile:
    def test_contiguous_block_auto_assignment(self):
        domain_map = compile_domain_map(TopologySpec(domains=4), _node_ids(24))
        assert domain_map.domains == ("d0", "d1", "d2", "d3")
        assert domain_map.members["d0"] == tuple(_node_ids(6))
        assert domain_map.domain("node-006") == "d1"
        assert domain_map.domain("node-023") == "d3"
        assert domain_map.domain("stranger") is None

    def test_sha256_bridge_selection_is_pinned(self):
        # Selection is keyed by sha256(domain + "/" + node): stable across
        # processes, seeds, and Python versions.  These literals are the
        # layer's determinism contract — a change here silently reshuffles
        # every multi-domain experiment.
        domain_map = compile_domain_map(
            TopologySpec(domains=2, bridges_per_domain=2), _node_ids(8)
        )
        assert domain_map.bridges == {
            "d0": ("node-002", "node-001"),
            "d1": ("node-006", "node-005"),
        }
        four = compile_domain_map(TopologySpec(domains=4), _node_ids(24))
        assert four.bridges == {
            "d0": ("node-002",),
            "d1": ("node-006",),
            "d2": ("node-017",),
            "d3": ("node-023",),
        }

    def test_lexical_bridge_policy_takes_sorted_heads(self):
        domain_map = compile_domain_map(
            TopologySpec(domains=2, bridges_per_domain=2, bridge_policy="lexical"),
            _node_ids(8),
        )
        assert domain_map.bridges == {
            "d0": ("node-000", "node-001"),
            "d1": ("node-004", "node-005"),
        }

    def test_explicit_assignment_defines_the_layout(self):
        spec = TopologySpec(
            assignment=(
                ("node-000", "eu"),
                ("node-001", "eu"),
                ("node-002", "us"),
                ("node-003", "us"),
            )
        )
        domain_map = compile_domain_map(spec, _node_ids(4))
        assert domain_map.domains == ("eu", "us")
        assert domain_map.members["eu"] == ("node-000", "node-001")

    def test_incomplete_assignment_rejected(self):
        spec = TopologySpec(assignment=(("node-000", "eu"),))
        with pytest.raises(TopologyError, match="unassigned"):
            compile_domain_map(spec, _node_ids(3))

    def test_assignment_with_unknown_node_rejected_with_suggestion(self):
        spec = TopologySpec(assignment=(("node-00", "eu"),))
        with pytest.raises(TopologyError, match="did you mean"):
            compile_domain_map(spec, _node_ids(3))

    def test_more_domains_than_nodes_rejected(self):
        with pytest.raises(TopologyError, match="exceeds the node count"):
            compile_domain_map(TopologySpec(domains=5), _node_ids(3))

    def test_geo_matrix_overrides_cross_defaults(self):
        spec = TopologySpec(
            domains=4,
            cross_latency=2.0,
            cross_loss=0.1,
            geo=(("d0", "d1", 0.25, 0.0), ("d3", "d2", 0.5, 0.02)),
        )
        domain_map = compile_domain_map(spec, _node_ids(8))
        assert domain_map.link("d0", "d1") == (0.25, 0.0)
        # unordered pair: the (d3, d2) entry answers (d2, d3) too
        assert domain_map.link("d2", "d3") == (0.5, 0.02)
        assert domain_map.link("d0", "d3") == (2.0, 0.1)  # matrix default
        assert domain_map.link("d1", "d1") == (0.0, 0.0)  # intra-domain free

    def test_geo_with_unknown_domain_rejected_with_suggestion(self):
        spec = TopologySpec(domains=2, geo=(("d0", "d9", 1.0, 0.0),))
        with pytest.raises(TopologyError, match="did you mean"):
            compile_domain_map(spec, _node_ids(4))

    def test_partition_assignment_isolates_named_domains(self):
        domain_map = compile_domain_map(TopologySpec(domains=4), _node_ids(8))
        assignment = domain_map.partition_assignment(["d1"])
        assert assignment["node-002"] == 1 and assignment["node-003"] == 1
        assert sum(assignment.values()) == 2
        with pytest.raises(TopologyError, match="did you mean"):
            domain_map.partition_assignment(["d11"])


# ---------------------------------------------------------------------------
# Flat ↔ nested bijection and cache-key neutrality
# ---------------------------------------------------------------------------


class TestSpecTopologyIntegration:
    def test_topology_free_configs_keep_pinned_cache_keys(self):
        smoke = get_scenario("smoke").config
        assert config_hash(smoke) == SMOKE_CONFIG_HASH
        # A spec round trip through the topology-aware StackSpec is free.
        assert config_hash(StackSpec.from_config(smoke).to_config()) == SMOKE_CONFIG_HASH
        assert not any(key.startswith("topology_") for key in smoke.to_dict())
        assert "topology" not in StackSpec.from_config(smoke).to_dict()

    def test_topology_fields_round_trip_flat_and_nested(self):
        config = ExperimentConfig(
            topology_domains=4,
            topology_bridges_per_domain=2,
            topology_cross_latency=1.0,
            topology_cross_loss=0.02,
            topology_geo=(("d0", "d1", 0.4, 0.0),),
        )
        spec = StackSpec.from_config(config)
        assert spec.topology.domains == 4
        assert spec.get("topology.bridges_per_domain") == 2
        assert spec.topology.geo == (("d0", "d1", 0.4, 0.0),)
        assert spec.to_config() == config
        assert StackSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        json.dumps(spec.to_dict())  # nested encoding must be JSON-clean
        json.dumps(config.to_dict())

    def test_flat_config_covers_every_spec_field(self):
        spec = TopologySpec(domains=3, bridge_policy="lexical")
        flat = {
            f"topology_{spec_field.name}": getattr(spec, spec_field.name)
            for spec_field in dataclasses.fields(spec)
        }
        config = ExperimentConfig().with_overrides(**flat)
        assert StackSpec.from_config(config).topology == spec

    def test_scenario_round_trips_never_perturb_cache_keys(self):
        scenario = get_scenario("smoke-domains")
        assert config_hash(scenario.spec.to_config()) == config_hash(scenario.config)

    def test_dotted_topology_overrides_parse(self):
        overrides = parse_spec_overrides(
            ["topology.domains=4", "topology.cross_latency=2"]
        )
        spec = StackSpec().with_values(overrides)
        assert spec.topology.domains == 4
        assert spec.topology.cross_latency == 2.0  # int → float widening

    def test_structured_topology_fields_not_settable_from_cli(self):
        with pytest.raises(RegistryError, match="--topology"):
            parse_spec_overrides(["topology.assignment=x"])
        with pytest.raises(RegistryError, match="--topology"):
            parse_spec_overrides(["topology.geo=x"])

    def test_describe_lists_topology_params(self):
        described = get_scenario("smoke-domains").spec.describe()
        assert "topology.domains = 4" in described
        assert "topology.bridges_per_domain = 2" in described

    def test_topology_requires_a_gossip_family_system(self):
        config = ExperimentConfig(system="brokers", topology_domains=2, nodes=8)
        with pytest.raises(RegistryError, match="gossip-family"):
            run_experiment(config)

    def test_invalid_topology_surfaces_as_registry_error(self):
        spec_dict = StackSpec().to_dict()
        spec_dict["topology"] = {"domans": 2}
        with pytest.raises(RegistryError, match="did you mean"):
            StackSpec.from_dict(spec_dict)


# ---------------------------------------------------------------------------
# Perturbation path regression (shared validation, geo survives fault windows)
# ---------------------------------------------------------------------------


class TestPerturbationPaths:
    def _network(self):
        simulator = Simulator(seed=3)
        return simulator, Network(simulator)

    def test_global_perturbation_error_messages_unchanged(self):
        _, network = self._network()
        with pytest.raises(ValueError, match="extra_latency must be non-negative"):
            network.set_perturbation(extra_latency=-1.0)
        with pytest.raises(ValueError, match="loss_rate must be within"):
            network.set_perturbation(loss_rate=1.5)
        with pytest.raises(ValueError, match="requires an rng stream"):
            network.set_perturbation(loss_rate=0.5)

    def test_shared_validator_matches_global_path(self):
        # Both actuators route through validate_link_perturbation: the
        # direct call must reject exactly what set_perturbation rejects.
        with pytest.raises(ValueError, match="extra_latency must be non-negative"):
            validate_link_perturbation(-1.0, 0.0, None)
        with pytest.raises(ValueError, match="loss_rate must be within"):
            validate_link_perturbation(0.0, 2.0, None)
        with pytest.raises(ValueError, match="requires an rng stream"):
            validate_link_perturbation(0.0, 0.5, None)
        validate_link_perturbation(1.0, 0.0, None)  # lossless needs no rng

    def test_nan_perturbation_rejected(self):
        _, network = self._network()
        with pytest.raises(ValueError, match="extra_latency must be non-negative"):
            validate_link_perturbation(float("nan"), 0.0, None)
        with pytest.raises(ValueError, match="extra_latency must be non-negative"):
            network.set_perturbation(extra_latency=float("nan"))
        with pytest.raises(ValueError, match="loss_rate must be within"):
            validate_link_perturbation(0.0, float("nan"), None)

    def test_clear_perturbation_leaves_geo_link_profile_installed(self):
        from repro.topology import GeoLinkProfile

        simulator, network = self._network()
        domain_map = compile_domain_map(
            TopologySpec(domains=2, cross_latency=3.0), _node_ids(4)
        )
        profile = GeoLinkProfile(domain_map, rng=simulator.rng.stream("topology-geo"))
        network.set_link_profile(profile)
        network.set_perturbation(extra_latency=5.0)
        network.clear_perturbation()  # the fault window ends...
        assert network._link_profile is profile  # ...the geography does not

    def test_geo_latency_applies_per_link(self):
        from repro.topology import GeoLinkProfile

        simulator, network = self._network()
        domain_map = compile_domain_map(
            TopologySpec(domains=2, cross_latency=4.0), _node_ids(4)
        )
        network.set_link_profile(
            GeoLinkProfile(domain_map, rng=simulator.rng.stream("topology-geo"))
        )
        arrivals = {}
        for node in _node_ids(4):
            network.register(
                node,
                lambda message: arrivals.update(
                    {(message.sender, message.recipient): simulator.now}
                ),
            )
        network.send("node-000", "node-001", "ping")  # intra d0
        network.send("node-000", "node-002", "ping")  # d0 -> d1
        simulator.run(until=20.0)
        intra = arrivals[("node-000", "node-001")]
        cross = arrivals[("node-000", "node-002")]
        assert cross == pytest.approx(intra + 4.0)


# ---------------------------------------------------------------------------
# Bridge federation end to end
# ---------------------------------------------------------------------------


def _domains_config(**overrides) -> ExperimentConfig:
    base = dict(
        name="topology-test",
        nodes=16,
        topics=4,
        interest_model="uniform",
        topics_per_node=2,
        publication_rate=2.0,
        duration=6.0,
        drain_time=6.0,
        fanout=3,
        gossip_size=8,
        seed=11,
        topology_domains=4,
        topology_bridges_per_domain=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBridgeFederation:
    def test_events_cross_domains_through_bridges(self):
        result = run_experiment(_domains_config(), keep_system=True)
        system = result.system
        router = system.topology.router
        assert router.relayed > 0
        assert router.absorbed > 0
        # Every domain delivers: dissemination is not trapped intra-domain.
        domain_map = system.topology.domain_map
        delivered_domains = {
            domain_map.domain(record.node_id)
            for record in system.delivery_log.ordered_records()
        }
        assert delivered_domains == set(domain_map.domains)
        assert result.reliability.delivery_ratio > 0.9

    def test_bridge_telemetry_counters_are_domain_tagged(self):
        result = run_experiment(_domains_config())
        snapshot = result.final_snapshot
        relayed = snapshot.counters_by_tag("bridge.relayed", "domain")
        absorbed = snapshot.counters_by_tag("bridge.absorbed", "domain")
        assert relayed and absorbed
        assert set(relayed) <= {"d0", "d1", "d2", "d3"}

    def test_ingress_suppresses_duplicates(self):
        result = run_experiment(_domains_config(), keep_system=True)
        router = result.system.topology.router
        # Bridges re-relay on every gossip receipt (that is what makes a
        # healed partition survivable), so ingress must be dropping the
        # repeats — absorbed counts unique (event, domain) arrivals only.
        assert router.duplicates > 0
        assert router.absorbed < router.absorbed + router.duplicates

    def test_domain_tagged_latency_histograms_recorded(self):
        result = run_experiment(_domains_config())
        snapshot = result.final_snapshot
        domains_seen = {
            dict(tags).get("domain")
            for name, tags, _ in snapshot.histograms
            if name == "sim.delivery_latency" and dict(tags).get("domain")
        }
        assert domains_seen == {"d0", "d1", "d2", "d3"}

    def test_bridge_relays_ride_the_wire_codec(self):
        from repro.gossip.push import GossipMessage
        from repro.pubsub.events import Event
        from repro.runtime.wire import decode_message, encode_message
        from repro.sim.network import Message

        event = Event(
            event_id="node-000#0", publisher="node-000", attributes={"topic": "t"}
        )
        message = Message(
            sender="node-002",
            recipient="node-006",
            kind=BRIDGE_MESSAGE_KIND,
            payload=GossipMessage(events=(event,)),
            size=1,
            sent_at=0.0,
        )
        decoded = decode_message(encode_message(message))
        assert decoded.kind == BRIDGE_MESSAGE_KIND
        assert decoded.payload.events[0].event_id == "node-000#0"


class TestDomainPartitionHeal:
    def test_simulator_heals_domain_partition(self):
        config = _domains_config(
            fault_plan=(
                (
                    ("kind", "partition"),
                    ("at", 2.0),
                    ("heal_after", 2.0),
                    ("domains", ("d1",)),
                ),
            ),
        )
        result = run_experiment(config, keep_system=True)
        snapshot = result.final_snapshot
        assert snapshot.counter_value("fault.events", action="partition") == 1
        assert snapshot.counter_value("fault.events", action="heal") == 1
        assert result.system.network.stats.dropped_partition > 0
        # Cross-domain dissemination survives the healed window.
        assert result.reliability.delivery_ratio > 0.9

    def test_unknown_partition_domain_fails_at_build_time(self):
        config = _domains_config(
            fault_plan=(
                (
                    ("kind", "partition"),
                    ("at", 2.0),
                    ("heal_after", 2.0),
                    ("domains", ("d9",)),
                ),
            ),
        )
        with pytest.raises(ValueError, match="did you mean"):
            run_experiment(config)

    def test_domain_partition_without_topology_fails_fast(self):
        config = ExperimentConfig(
            nodes=8,
            fault_plan=(
                (
                    ("kind", "partition"),
                    ("at", 1.0),
                    ("heal_after", 1.0),
                    ("domains", ("d1",)),
                ),
            ),
        )
        with pytest.raises(ValueError, match="no topology"):
            run_experiment(config)

    def test_live_cluster_heals_domain_partition(self):
        async def scenario():
            config = ExperimentConfig(
                nodes=8,
                topics=2,
                seed=42,
                topology_domains=2,
                topology_bridges_per_domain=2,
                fault_plan=(
                    (
                        ("kind", "partition"),
                        ("at", 0.0),
                        ("heal_after", 4.0),
                        ("domains", ("d1",)),
                    ),
                ),
            )
            host = NodeHost(
                MemoryTransport(), seed=42, time_scale=20.0, spec=config.spec()
            )
            await host.start()
            node_ids = host.node_ids()
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
            event = host.publish("node-000", topic="news")  # publisher in d0
            await asyncio.sleep(0.1)  # still split: d1 stays dark
            mid_run = delivered_to()
            # ...healed at 0.2s; bridges catch up.
            await settle(lambda: d1 <= delivered_to())
            await host.stop()
            return host, mid_run, delivered_to(), set(node_ids)

        d1 = {"node-004", "node-005", "node-006", "node-007"}
        host, mid_run, delivered_to, universe = asyncio.run(scenario())
        assert not (mid_run & d1)  # the isolated domain was dark mid-split
        assert host.network.stats.dropped_partition > 0
        # The topology claim: every node of the *isolated* domain lights up
        # after the heal — the bridges re-relayed across the healed cut.
        # (Intra-domain stragglers are ordinary gossip timing, not topology.)
        assert d1 <= delivered_to


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestTopologyDeterminism:
    def test_multi_domain_run_is_byte_identical_on_rerun(self):
        config = _domains_config(topology_cross_latency=1.0, topology_cross_loss=0.02)
        first = run_experiment(config)
        second = run_experiment(config)
        assert result_sha(first) == result_sha(second)

    def test_smoke_domains_scenario_is_deterministic(self):
        config = get_scenario("smoke-domains").config
        assert result_sha(run_experiment(config)) == result_sha(run_experiment(config))
