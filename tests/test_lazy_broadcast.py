"""Tests for the two-phase lazy probabilistic broadcast (``lazy-push``).

The protocol's correctness surface, pinned from four angles:

* **mechanics** — store-set selection, the infection estimator, eager-budget
  retirement (non-store nodes drop payloads, stores keep them), id garbage
  collection, pull suppression/retry, and the digest → request → reply
  recovery flow, all at the single-node level;
* **end-to-end invariants** — under fixed seeds and Bernoulli loss the lazy
  system delivers at least as much as plain push on the same seed while the
  store occupancy stays inside its bound, and byte-identical golden traces
  make the whole exchange (including the loss model's draws) reproducible;
* **compatibility** — the four lazy wire kinds round-trip through the
  runtime codec, the node runs unmodified on the live host, and the
  ``alpha`` config field is cache-neutral at its default so the pinned
  PR-1/PR-3 cache keys survive;
* **operability** — registry error paths fail fast naming the offending
  field, and the recovery counters flow through FaultPlan runs into the
  ``repro report`` recovery table in both engines.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.experiments import (
    ExperimentConfig,
    StackSpec,
    config_hash,
    get_scenario,
    run_experiment,
)
from repro.cli import main as cli_main
from repro.faults import FaultPlan, FaultSpec
from repro.gossip import (
    LAZY_DIGEST_KIND,
    LAZY_PUSH_KIND,
    LAZY_REPLY_KIND,
    LAZY_REQUEST_KIND,
    GossipSystem,
    LazyPushGossipNode,
    eager_push_rounds,
    lazy_store_ids,
)
from repro.gossip.push import GossipMessage
from repro.gossip.pushpull import DigestMessage, PullRequest
from repro.pubsub import TopicFilter
from repro.pubsub.events import Event
from repro.registry import (
    RegistryError,
    build_interest_model,
    build_popularity,
    build_stack,
    parse_spec_overrides,
)
from repro.runtime.host import NodeHost
from repro.runtime.transport import MemoryTransport
from repro.runtime.wire import decode_message, encode_message
from repro.sim import Network, Simulator
from repro.sim.network import Message
from repro.sim.rng import RngRegistry
from repro.telemetry.report import _recovery_table, load_artifact, render_snapshots
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.workloads import TopicPopularity, TopicPublicationWorkload
from tests.conftest import SMOKE_BROKERS_CONFIG_HASH, SMOKE_CONFIG_HASH, geo_network, plan_json, settle


def make_event(index: int = 0, topic: str = "news", size: int = 32) -> Event:
    return Event(
        event_id=f"pub#{index}",
        publisher="pub",
        attributes={"topic": topic},
        published_at=0.0,
        size=size,
    )


def quiet_lazy_system(nodes: int = 8, seed: int = 3, **node_overrides):
    """A lazy system whose gossip rounds are silenced (``fanout=0``).

    Rounds still tick (ageing, GC) but send nothing, so handler-level tests
    see exactly the messages they inject.
    """
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    node_ids = [f"n{i}" for i in range(nodes)]
    kwargs = {
        "fanout": 0,
        "gossip_size": 8,
        "store_ids": lazy_store_ids(node_ids, 0.5),
        "population": nodes,
    }
    kwargs.update(node_overrides)
    system = GossipSystem(
        simulator,
        network,
        node_ids,
        node_class=LazyPushGossipNode,
        node_kwargs=kwargs,
        bootstrap_degree=4,
    )
    return simulator, network, system


def store_and_plain(system):
    """One store node and one non-store node from a quiet system."""
    store = next(node for node in system.nodes.values() if node.is_store)
    plain = next(node for node in system.nodes.values() if not node.is_store)
    return store, plain


# ---------------------------------------------------------------------------
# Store selection and the infection estimator
# ---------------------------------------------------------------------------


class TestStoreSelection:
    IDS = tuple(f"node-{i:03d}" for i in range(20))

    def test_selection_is_deterministic_and_order_free(self):
        forward = lazy_store_ids(self.IDS, 0.3)
        assert forward == lazy_store_ids(reversed(self.IDS), 0.3)
        assert forward == lazy_store_ids(list(self.IDS) * 2, 0.3)

    def test_selection_size_is_ceil_of_the_fraction(self):
        for alpha in (0.05, 0.25, 0.3, 0.5, 0.75, 1.0):
            selected = lazy_store_ids(self.IDS, alpha)
            assert len(selected) == max(1, math.ceil(alpha * len(self.IDS)))
            assert selected <= frozenset(self.IDS)

    def test_alpha_one_selects_everyone(self):
        assert lazy_store_ids(self.IDS, 1.0) == frozenset(self.IDS)

    def test_growing_alpha_grows_the_same_prefix(self):
        # Hash ranking means smaller store sets nest inside larger ones, so
        # sweeping alpha changes capacity without reshuffling who stores.
        assert lazy_store_ids(self.IDS, 0.1) <= lazy_store_ids(self.IDS, 0.5)
        assert lazy_store_ids(self.IDS, 0.5) <= lazy_store_ids(self.IDS, 0.9)

    @pytest.mark.parametrize("alpha", [0.0, -0.25, 1.0001, 7])
    def test_bad_alpha_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            lazy_store_ids(self.IDS, alpha)

    def test_empty_population_yields_empty_store_set(self):
        assert lazy_store_ids((), 0.5) == frozenset()


class TestEagerRounds:
    def test_budget_grows_with_population_and_shrinks_with_fanout(self):
        assert eager_push_rounds(1000, 3) > eager_push_rounds(50, 3)
        assert eager_push_rounds(1000, 8) < eager_push_rounds(1000, 2)

    def test_budget_is_the_push_doubling_time_plus_slack(self):
        # 128 nodes at fanout 2: log2(64) = 6 rounds to half, plus one slack.
        assert eager_push_rounds(128, 2) == 7

    def test_tiny_systems_still_get_a_usable_budget(self):
        assert eager_push_rounds(2, 1) >= 2
        assert eager_push_rounds(0, 0) >= 2


# ---------------------------------------------------------------------------
# Wire codecs for the four lazy kinds
# ---------------------------------------------------------------------------


class TestLazyWireCodecs:
    def roundtrip(self, message: Message) -> Message:
        return decode_message(encode_message(message))

    def test_lazy_push_roundtrip(self):
        payload = GossipMessage(
            events=(make_event(0), make_event(1)), sender_benefit_rate=0.5
        )
        decoded = self.roundtrip(
            Message("a", "b", LAZY_PUSH_KIND, payload=payload, size=4, sent_at=1.5)
        )
        assert decoded.kind == LAZY_PUSH_KIND
        assert [event.to_dict() for event in decoded.payload.events] == [
            event.to_dict() for event in payload.events
        ]

    def test_lazy_reply_roundtrip(self):
        payload = GossipMessage(events=(make_event(9),), sender_benefit_rate=1.25)
        decoded = self.roundtrip(Message("b", "a", LAZY_REPLY_KIND, payload=payload))
        assert decoded.kind == LAZY_REPLY_KIND
        assert decoded.payload.events[0] == make_event(9)
        assert decoded.payload.sender_benefit_rate == 1.25

    def test_lazy_digest_roundtrip(self):
        payload = DigestMessage(event_ids=("e1", "e2", "e3"), sender_benefit_rate=0.75)
        decoded = self.roundtrip(Message("a", "b", LAZY_DIGEST_KIND, payload=payload))
        assert decoded.kind == LAZY_DIGEST_KIND
        assert decoded.payload == payload

    def test_lazy_request_roundtrip(self):
        payload = PullRequest(event_ids=("e2", "e9"))
        decoded = self.roundtrip(Message("b", "a", LAZY_REQUEST_KIND, payload=payload))
        assert decoded.kind == LAZY_REQUEST_KIND
        assert decoded.payload == payload


# ---------------------------------------------------------------------------
# Node mechanics (quiet system: injected messages only)
# ---------------------------------------------------------------------------


class TestNodeMechanics:
    def test_standalone_node_is_its_own_store(self):
        # Without an explicit store set every node stores itself, so unit
        # fixtures can always serve their own pulls.
        _, _, system = quiet_lazy_system(store_ids=None)
        assert all(node.is_store for node in system.nodes.values())

    def test_absorb_is_at_most_once(self):
        _, _, system = quiet_lazy_system()
        node = next(iter(system.nodes.values()))
        system.subscribe(node.node_id, TopicFilter("news"))
        event = make_event()
        assert node._absorb_event(event) is True
        assert node._absorb_event(event) is False
        records = node.delivery_log.ordered_records()
        assert [record.node_id for record in records].count(node.node_id) == 1

    def test_absorb_arms_the_eager_budget(self):
        _, _, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        for node in (store, plain):
            event = make_event()
            node._absorb_event(event)
            assert node._first_seen[event.event_id] == 0
            for _ in range(node.eager_rounds):
                assert node._hot_events() == [event]
                node.after_round()
            assert node._hot_events() == []
        assert make_event().event_id in store.store
        assert make_event().event_id not in plain.store

    def test_non_store_node_drops_payload_after_the_eager_phase(self):
        _, _, system = quiet_lazy_system()
        _, plain = store_and_plain(system)
        event = make_event()
        plain._absorb_event(event)
        for _ in range(plain.eager_rounds):
            plain.after_round()
        assert plain._event_payload(event.event_id) is None
        assert plain.buffer.get(event.event_id) is None
        # ...but the id survives for digests until GC.
        assert event.event_id in plain._first_seen

    def test_store_node_keeps_payload_after_the_eager_phase(self):
        _, _, system = quiet_lazy_system()
        store, _ = store_and_plain(system)
        event = make_event()
        store._absorb_event(event)
        for _ in range(store.eager_rounds):
            store.after_round()
        assert store._event_payload(event.event_id) == event

    def test_store_occupancy_is_bounded_fifo(self):
        _, _, system = quiet_lazy_system(buffer_capacity=4)
        store, _ = store_and_plain(system)
        for index in range(10):
            store._absorb_event(make_event(index))
        assert len(store.store) == store.store_capacity == 4
        assert make_event(0).event_id not in store.store  # oldest evicted
        assert make_event(9).event_id in store.store

    def test_aged_ids_are_garbage_collected_everywhere(self):
        _, _, system = quiet_lazy_system(buffer_max_rounds=3)
        store, _ = store_and_plain(system)
        event = make_event()
        store._absorb_event(event)
        assert store.id_gc_rounds == 3
        for _ in range(store.id_gc_rounds + 1):
            store.after_round()
        assert event.event_id not in store._first_seen
        assert event.event_id not in store.store
        assert store.buffer.get(event.event_id) is None

    def test_pending_pull_suppresses_duplicates_then_retries(self):
        _, _, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        digest = Message(
            sender=store.node_id,
            recipient=plain.node_id,
            kind=LAZY_DIGEST_KIND,
            payload=DigestMessage(event_ids=("ghost#1",), sender_benefit_rate=0.0),
        )
        plain.on_message(digest)
        plain.on_message(digest)  # same round: suppressed
        assert plain.pulls_issued == 1
        for _ in range(plain.pull_retry_rounds):
            plain.after_round()  # retry window expires
        plain.on_message(digest)
        assert plain.pulls_issued == 2

    def test_known_digest_ids_count_as_saved_events(self):
        _, _, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        event = make_event()
        plain._absorb_event(event)
        digest = Message(
            sender=store.node_id,
            recipient=plain.node_id,
            kind=LAZY_DIGEST_KIND,
            payload=DigestMessage(event_ids=(event.event_id,), sender_benefit_rate=0.0),
        )
        plain.on_message(digest)
        assert plain.events_saved == 1
        assert plain.pulls_issued == 0


class TestRecoveryFlow:
    def test_digest_request_reply_recovers_the_missing_event(self):
        simulator, network, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        system.subscribe(plain.node_id, TopicFilter("news"))
        event = make_event()
        store._absorb_event(event)
        plain.on_message(
            Message(
                sender=store.node_id,
                recipient=plain.node_id,
                kind=LAZY_DIGEST_KIND,
                payload=DigestMessage(
                    event_ids=(event.event_id,), sender_benefit_rate=0.0
                ),
            )
        )
        assert plain.pulls_issued == 1
        simulator.run(until=5.0)  # request reaches the store, reply comes back
        assert store.pulls_served == 1
        assert plain.recoveries == 1
        assert plain.has_seen(event.event_id)
        assert any(
            record.node_id == plain.node_id and record.event_id == event.event_id
            for record in plain.delivery_log.ordered_records()
        )
        assert network.stats.sent_by_kind.get(LAZY_REQUEST_KIND, 0) == 1
        assert network.stats.sent_by_kind.get(LAZY_REPLY_KIND, 0) == 1

    def test_duplicate_replies_do_not_double_count_recoveries(self):
        _, _, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        event = make_event()
        reply = Message(
            sender=store.node_id,
            recipient=plain.node_id,
            kind=LAZY_REPLY_KIND,
            payload=GossipMessage(events=(event,), sender_benefit_rate=0.0),
        )
        plain.on_message(reply)
        plain.on_message(reply)
        assert plain.recoveries == 1

    def test_requests_for_unknown_ids_are_silently_unserved(self):
        simulator, network, system = quiet_lazy_system()
        store, plain = store_and_plain(system)
        store.on_message(
            Message(
                sender=plain.node_id,
                recipient=store.node_id,
                kind=LAZY_REQUEST_KIND,
                payload=PullRequest(event_ids=("never-published#1",)),
            )
        )
        simulator.run(until=2.0)
        assert store.pulls_served == 0
        assert network.stats.sent_by_kind.get(LAZY_REPLY_KIND, 0) == 0


# ---------------------------------------------------------------------------
# End-to-end invariants on fixed seeds
# ---------------------------------------------------------------------------

#: The verified comparison shape: the sweep over seeds {1,2,3,7,11,23,42} ×
#: loss {0.05,0.15,0.25} on this 24-node workload showed lazy-push matching
#: or beating plain push on delivery ratio in every cell and beating it on
#: reliability-per-byte in every cell.  The pinned combos below are a
#: deterministic subsample of that sweep.
_COMPARISON_SHAPE = dict(
    nodes=24,
    topics=6,
    interest_model="zipf",
    max_topics_per_node=4,
    publication_rate=2.0,
    duration=6.0,
    drain_time=8.0,  # the digest cadence needs the longer drain to converge
    fanout=3,
    gossip_size=8,
)

_RUN_CACHE = {}


def lossy_run(system: str, seed: int, loss: float):
    key = (system, seed, loss)
    if key not in _RUN_CACHE:
        config = ExperimentConfig(
            name=f"lazy-prop-{system}",
            system=system,
            seed=seed,
            loss_rate=loss,
            **_COMPARISON_SHAPE,
        )
        _RUN_CACHE[key] = run_experiment(config, keep_system=True)
    return _RUN_CACHE[key]


class TestEndToEndInvariants:
    def test_smoke_lazy_scenario_recovers_to_full_delivery(self):
        result = run_experiment(get_scenario("smoke-lazy").config, keep_system=True)
        assert result.reliability.delivery_ratio == pytest.approx(1.0)
        nodes = result.system.nodes.values()
        assert sum(node.pulls_issued for node in nodes) > 0
        assert sum(node.pulls_served for node in nodes) > 0
        assert sum(node.recoveries for node in nodes) > 0
        assert sum(node.events_saved for node in nodes) > 0

    def test_store_fraction_and_occupancy_bounds_hold(self):
        result = lossy_run("lazy-push", seed=7, loss=0.15)
        nodes = list(result.system.nodes.values())
        stores = [node for node in nodes if node.is_store]
        assert len(stores) == math.ceil(0.5 * len(nodes))
        for node in nodes:
            assert len(node.store) <= node.store_capacity
            if not node.is_store:
                assert not node.store

    def test_every_node_delivers_at_most_once_per_event(self):
        result = lossy_run("lazy-push", seed=7, loss=0.15)
        log = result.system.delivery_log
        for node_id in result.system.nodes:
            records = [record for record in log.ordered_records() if record.node_id == node_id]
            assert len(records) == len({record.event_id for record in records})

    @pytest.mark.parametrize(
        "seed,loss", [(7, 0.15), (23, 0.25), (42, 0.25)]
    )
    def test_delivery_ratio_matches_or_beats_plain_push(self, seed, loss):
        lazy = lossy_run("lazy-push", seed, loss)
        push = lossy_run("gossip", seed, loss)
        assert lazy.reliability.delivery_ratio >= push.reliability.delivery_ratio

    def test_reliability_per_byte_beats_plain_push_under_loss(self):
        lazy = lossy_run("lazy-push", seed=7, loss=0.15)
        push = lossy_run("gossip", seed=7, loss=0.15)
        lazy_rpb = lazy.reliability.delivery_ratio / lazy.system.network.stats.bytes_sent
        push_rpb = push.reliability.delivery_ratio / push.system.network.stats.bytes_sent
        assert lazy_rpb > push_rpb


# ---------------------------------------------------------------------------
# Golden traces
# ---------------------------------------------------------------------------


def run_traced_lazy(seed: int) -> bytes:
    """One small lazy run with per-link latency AND loss, fully traced.

    Mirrors ``test_sim_determinism.run_traced_system``: byte-identical
    traces mean every RNG draw — gossip targets, digest phases, loss,
    latency, recovery targets — replayed identically.
    """
    import json

    simulator = Simulator(seed=seed)
    node_ids = [f"n{i}" for i in range(12)]
    network = geo_network(simulator, node_ids, loss_rate=0.1)
    trace = []
    network.add_delivery_hook(
        lambda message, delivered_at: trace.append(
            [message.sender, message.recipient, message.kind, message.sent_at, delivered_at]
        )
    )
    system = GossipSystem(
        simulator,
        network,
        node_ids,
        node_class=LazyPushGossipNode,
        node_kwargs={
            "fanout": 3,
            "gossip_size": 8,
            "store_ids": lazy_store_ids(node_ids, 0.5),
            "population": len(node_ids),
        },
        bootstrap_degree=4,
    )
    for index, node_id in enumerate(system.node_ids()):
        if index % 2 == 0:
            system.subscribe(node_id, TopicFilter("news"))
    popularity = TopicPopularity.zipf(4, exponent=1.0)
    workload = TopicPublicationWorkload(
        system, simulator, popularity, publishers=system.node_ids()[:3], rate=3.0
    )
    workload.start(duration=8.0, start_at=1.0)
    simulator.run(until=18.0)
    artifact = {
        "trace": trace,
        "stats": {
            "sent": network.stats.sent,
            "delivered": network.stats.delivered,
            "lost": network.stats.lost,
            "bytes_sent": network.stats.bytes_sent,
            "sent_by_kind": dict(sorted(network.stats.sent_by_kind.items())),
        },
        "deliveries": system.delivery_log.total_deliveries(),
    }
    return json.dumps(artifact, sort_keys=True).encode("utf-8")


class TestGoldenTraces:
    def test_same_seed_produces_byte_identical_traces(self):
        assert run_traced_lazy(5) == run_traced_lazy(5)

    def test_loss_and_geo_latency_actually_drew(self):
        import json

        artifact = json.loads(run_traced_lazy(5))
        assert artifact["stats"]["lost"] > 0
        assert len({round(entry[4] - entry[3], 9) for entry in artifact["trace"]}) > 1

    def test_different_seed_changes_the_trace(self):
        assert run_traced_lazy(5) != run_traced_lazy(6)

    def test_trace_speaks_the_lazy_kinds_not_plain_push(self):
        import json

        stats = json.loads(run_traced_lazy(5))["stats"]["sent_by_kind"]
        assert stats.get(LAZY_PUSH_KIND, 0) > 0
        assert stats.get(LAZY_DIGEST_KIND, 0) > 0
        assert "gossip.push" not in stats


# ---------------------------------------------------------------------------
# Cache-key neutrality and the config surface
# ---------------------------------------------------------------------------


class TestCacheNeutrality:
    def test_pinned_pr1_pr3_cache_keys_are_unchanged(self):
        assert config_hash(get_scenario("smoke").config) == SMOKE_CONFIG_HASH
        brokers = get_scenario("smoke").config.with_overrides(
            system="brokers", name="smoke-brokers"
        )
        assert config_hash(brokers) == SMOKE_BROKERS_CONFIG_HASH

    def test_alpha_is_omitted_from_dicts_at_its_default(self):
        assert "alpha" not in ExperimentConfig().to_dict()
        assert ExperimentConfig(alpha=0.25).to_dict()["alpha"] == 0.25

    def test_alpha_round_trips_flat_and_nested(self):
        config = ExperimentConfig(system="lazy-push", alpha=0.25)
        spec = StackSpec.from_config(config)
        assert spec.system.alpha == 0.25
        assert spec.to_config() == config
        assert StackSpec.from_dict(spec.to_dict()) == spec

    def test_alpha_is_settable_by_dotted_path(self):
        assert parse_spec_overrides(["system.alpha=0.25"]) == {"system.alpha": 0.25}
        spec = StackSpec()
        assert spec.get("system.alpha") == 0.5
        assert spec.with_value("system.alpha", 0.25).system.alpha == 0.25

    def test_a_bad_alpha_is_refused_before_any_lazy_node_is_built(self):
        # The nodes take only the store set; the fraction is checked by the
        # spec's bound and, for a flat config, by the store-set selection.
        with pytest.raises(RegistryError, match="system.alpha must be within"):
            StackSpec().with_value("system.alpha", 1.5)
        with pytest.raises(ValueError, match="alpha must be in"):
            run_experiment(ExperimentConfig(system="lazy-push", alpha=1.5, nodes=8, duration=1.0))

    def test_cli_accepts_the_readme_override_spelling(self, capsys):
        code = cli_main(
            [
                "run",
                "smoke-lazy",
                "--no-cache",
                "--set",
                "system.alpha=0.25",
            ]
        )
        assert code == 0
        assert "smoke-lazy" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Registry error paths
# ---------------------------------------------------------------------------


class TestRegistryErrors:
    def _build(self, spec: StackSpec):
        simulator = Simulator(seed=1)
        network = Network(simulator)
        return build_stack(spec, simulator, network)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, True])
    def test_alpha_out_of_range_fails_fast(self, alpha):
        # A bool fails at the typed override, the ranges at build time.
        with pytest.raises(RegistryError, match="system.alpha"):
            self._build(get_scenario("smoke-lazy").spec.with_value("system.alpha", alpha))


# ---------------------------------------------------------------------------
# The recovery table in ``repro report``
# ---------------------------------------------------------------------------


def canned_snapshot(sequence: int, at: float, scale: int) -> TelemetrySnapshot:
    """A snapshot with node-tagged lazy telemetry (two nodes)."""
    return TelemetrySnapshot(
        at=at,
        sequence=sequence,
        counters=(
            ("lazy.pulls_issued", (("node", "n1"),), 2.0 * scale),
            ("lazy.pulls_issued", (("node", "n2"),), 1.0 * scale),
            ("lazy.pulls_served", (("node", "n1"),), 3.0 * scale),
            ("lazy.recoveries", (("node", "n2"),), 1.0 * scale),
            ("lazy.events_saved", (("node", "n1"),), 10.0 * scale),
        ),
        gauges=(
            ("lazy.hot_events", (("node", "n1"),), 4.0),
            ("lazy.store_events", (("node", "n1"),), 7.0 * scale),
            ("lazy.store_bytes", (("node", "n1"),), 70.0 * scale),
        ),
    )


class TestRecoveryReport:
    def test_table_sums_nodes_per_snapshot(self):
        table = _recovery_table([canned_snapshot(0, 1.0, 1), canned_snapshot(1, 2.0, 2)])
        assert table is not None
        assert len(table.rows) == 2
        assert table.rows[0]["pulls_issued"] == 3.0  # 2 + 1 across nodes
        assert table.rows[1]["pulls_issued"] == 6.0
        assert table.rows[1]["recoveries"] == 2.0
        assert table.rows[1]["store_bytes"] == 140.0

    def test_render_snapshots_includes_the_recovery_section(self):
        rendered = render_snapshots([canned_snapshot(0, 1.0, 1)])
        assert "lazy recovery" in rendered
        assert "pulls_issued" in rendered

    def test_no_lazy_telemetry_means_no_table(self):
        plain = TelemetrySnapshot(
            at=1.0, sequence=0, counters=(("gossip.messages_sent", (), 5.0),)
        )
        assert _recovery_table([plain]) is None


# ---------------------------------------------------------------------------
# FaultPlan acceptance: recovery fires in both worlds
# ---------------------------------------------------------------------------


LOSS_PLAN = FaultPlan(
    (FaultSpec(kind="perturb", at=1.0, until=6.0, loss_rate=0.3),)
)


class TestFaultPlanAcceptance:
    def test_sim_run_with_fault_plan_reports_recoveries(self, tmp_path, capsys):
        plan_path = tmp_path / "loss_plan.json"
        plan_path.write_text(plan_json(LOSS_PLAN))
        stream = tmp_path / "metrics.jsonl"
        code = cli_main(
            [
                "run",
                "smoke-lazy",
                "--no-cache",
                "--fault",
                str(plan_path),
                "--telemetry",
                f"jsonl:{stream}",
            ]
        )
        assert code == 0
        capsys.readouterr()
        snapshots = load_artifact(str(stream)).value
        final = snapshots[-1]
        recovered = sum(
            value for name, _, value in final.counters if name == "lazy.recoveries"
        )
        assert recovered > 0
        # The same stream renders both the fault timeline and the recovery
        # table, so one report shows cause and effect side by side.
        rendered = render_snapshots(snapshots)
        assert "fault timeline" in rendered
        assert "lazy recovery" in rendered

    def test_live_run_with_fault_plan_reports_recoveries(self):
        async def scenario() -> NodeHost:
            spec = get_scenario("smoke-lazy").spec.with_values(
                {"nodes": 12, "system.gossip_size": 8}
            )
            host = NodeHost(
                MemoryTransport(),
                seed=spec.seed,
                time_scale=20.0,
                spec=spec,
                fault_plan=LOSS_PLAN,
            )
            await host.start()
            popularity = build_popularity(spec)
            model = build_interest_model(spec, popularity)
            interest = model.assign(
                list(spec.node_ids()),
                RngRegistry(spec.seed).stream("experiment-interest"),
            )
            interest.apply(host)
            rng = RngRegistry(1234).stream("publications")
            # Publish inside the perturbation window so losses open gaps...
            for index in range(40):
                host.publish(f"node-{index % 12:03d}", topic=popularity.sample(rng))
                await asyncio.sleep(0.005)
            # ...and drain past it until digests pull one closed.
            await settle(
                lambda: host.telemetry.snapshot().counter_total("lazy.recoveries") > 0
            )
            await host.stop()
            return host

        host = asyncio.run(scenario())
        snapshot = host.telemetry.snapshot()
        assert snapshot.counter_total("lazy.pulls_issued") > 0
        assert snapshot.counter_total("lazy.recoveries") > 0


# ---------------------------------------------------------------------------
# Live runtime parity
# ---------------------------------------------------------------------------


class TestLiveParity:
    def _run_live(self, publications: int = 30, deliveries: int = 1) -> NodeHost:
        """Publish, then run until ``deliveries`` deliveries were logged."""

        async def scenario() -> NodeHost:
            spec = get_scenario("smoke").spec.with_values(
                {"nodes": 10, "system.kind": "lazy-push"}
            )
            host = NodeHost(MemoryTransport(), seed=spec.seed, time_scale=20.0, spec=spec)
            await host.start()
            popularity = build_popularity(spec)
            model = build_interest_model(spec, popularity)
            interest = model.assign(
                list(spec.node_ids()),
                RngRegistry(spec.seed).stream("experiment-interest"),
            )
            interest.apply(host)
            rng = RngRegistry(1234).stream("publications")
            for index in range(publications):
                host.publish(f"node-{index % 10:03d}", topic=popularity.sample(rng))
                await asyncio.sleep(0.005)
            await settle(lambda: host.delivery_log.total_deliveries() >= deliveries)
            await host.stop()
            return host

        return asyncio.run(scenario())

    def test_lazy_push_runs_unmodified_on_the_live_host(self):
        host = self._run_live()
        assert host.system is not None and host.system.name == "push-gossip"
        assert all(
            isinstance(node, LazyPushGossipNode) for node in host.system.nodes.values()
        )
        assert host.delivery_log.total_deliveries() > 0
        assert host.network.decode_errors == 0
        assert host.transport.frames_sent > 0

    def test_live_store_set_matches_the_simulator_selection(self):
        # Both engines derive the store set from the same hash ranking, so a
        # live cluster and a simulation of the same spec agree on who stores.
        host = self._run_live(publications=5)
        node_ids = sorted(host.system.nodes)
        expected = lazy_store_ids(node_ids, 0.5)
        live_stores = {
            node_id
            for node_id, node in host.system.nodes.items()
            if node.is_store
        }
        assert live_stores == expected

    def test_sim_and_live_deliver_comparable_volumes(self):
        # Documented tolerance (same as the runtime parity suite): per
        # published event, the live engine must reach at least half the
        # simulator's delivery count on the matching spec — enough to catch
        # a protocol that only works on one engine, loose enough for
        # wall-clock scheduling jitter.
        publications = 30
        spec = get_scenario("smoke").spec.with_values(
            {"nodes": 10, "system.kind": "lazy-push"}
        )
        sim_result = run_experiment(
            spec.to_config().with_overrides(name="lazy-parity-sim")
        )
        assert sim_result.reliability.delivery_ratio > 0.9
        sim_per_event = sim_result.total_deliveries / len(sim_result.published_events)
        host = self._run_live(
            publications=publications,
            deliveries=int(0.5 * sim_per_event * publications) + 1,
        )
        live_per_event = host.delivery_log.total_deliveries() / publications
        assert live_per_event > 0.5 * sim_per_event
