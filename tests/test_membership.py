"""Tests for partial views and the membership protocols."""

from __future__ import annotations

import random

import pytest

from repro.core import WorkLedger
from repro.experiments import get_scenario, run_experiment
from repro.membership import (
    CyclonMembership,
    FullMembership,
    InterestAwareMembership,
    LpbcastMembership,
    MembershipComponent,
    PartialView,
    cyclon_provider,
    full_membership_provider,
    lpbcast_provider,
)
from repro.sim import Network, Process, Simulator


def every_descriptor(view):
    """The view's descriptors in id order: a sample of all of them draws nothing."""
    return view.sample_descriptors(random.Random(0), len(view))


class MemberNode(Process):
    """Process that hosts a membership component and runs it every round.

    A component charges what it sends to its owner's ledger.
    """

    def __init__(self, node_id, simulator, network, provider):
        super().__init__(node_id, simulator, network)
        self.ledger = WorkLedger()
        self.membership = provider(self)

    def on_start(self):
        self.add_timer("round", 1.0)

    def on_timer(self, name):
        self.membership.on_round()

    def on_message(self, message):
        self.membership.handle(message)


def build_overlay(simulator, network, provider, count=20, seeds=4):
    nodes = {}
    for index in range(count):
        node = MemberNode(f"n{index}", simulator, network, provider)
        nodes[node.node_id] = node
    ids = sorted(nodes)
    rng = simulator.rng.stream("test-bootstrap")
    for node in nodes.values():
        others = [other for other in ids if other != node.node_id]
        node.membership.bootstrap(rng.sample(others, min(seeds, len(others))))
        node.start()
    return nodes


class TestPartialView:
    def test_never_contains_owner(self):
        view = PartialView("me", capacity=5)
        assert not view.add(("me", 0))
        assert len(view) == 0

    def test_capacity_respected_with_age_based_eviction(self):
        view = PartialView("me", capacity=2)
        view.add(("a", 5))
        view.add(("b", 1))
        assert view.add(("c", 0))
        assert len(view) == 2
        assert "a" not in view
        # An older descriptor than everything in the view is rejected.
        assert not view.add(("d", 9))

    def test_duplicate_keeps_younger(self):
        view = PartialView("me", capacity=5)
        view.add(("a", 5))
        assert view.add(("a", 1))
        assert every_descriptor(view) == [("a", 1)]
        assert not view.add(("a", 7))

    def test_age_all_and_oldest(self):
        view = PartialView("me", capacity=5)
        view.add(("a", 0))
        view.add(("b", 3))
        view.age_all()
        assert every_descriptor(view) == [("a", 1), ("b", 4)]
        assert view.oldest_id() == "b"

    def test_sample_excludes_and_bounds(self):
        view = PartialView("me", capacity=10)
        for name in "abcde":
            view.add((name, 0))
        rng = random.Random(1)
        sample = view.sample(rng, 3, exclude=["a"])
        assert len(sample) == 3
        assert "a" not in sample
        assert set(view.sample(rng, 99)) == set("abcde")

    def test_oldest_id_breaks_ties_by_the_highest_id(self):
        view = PartialView("me", capacity=5)
        assert view.oldest_id() is None
        for name in "bca":
            view.add((name, 2))
        view.add(("d", 1))
        assert view.oldest_id() == "c"

    def test_merge_takes_a_spare_slot_then_the_first_offered_entry_still_present(self):
        view = PartialView("me", capacity=3)
        for name in "abc":
            view.add((name, 1))
        offered = (("x", 0), ("b", 0), ("a", 0))
        view.merge((("me", 0), ("d", 5), ("e", 5)), offered)
        # "x" is not in the view, so "d" takes "b"'s slot and "e" takes "a"'s.
        assert view.node_ids() == ["c", "d", "e"]
        # Nothing offered is left: the age rule keeps "f" (age 9) out.
        view.merge((("f", 9),), offered)
        assert view.node_ids() == ["c", "d", "e"]

    def test_merge_trades_an_offered_entry_again_once_it_came_back(self):
        view = PartialView("me", capacity=2)
        view.add(("a", 2))
        view.add(("b", 5))
        offered = (("a", 0), ("x", 0))
        received = (("c", 1), ("a", 0), ("d", 0))
        view.merge(received, offered)
        # "c" takes "a"'s slot; "a" comes back by the age rule (evicting "b");
        # "d" then takes "a"'s slot again rather than evicting "c".
        assert view.node_ids() == ["c", "d"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PartialView("me", capacity=0)

    def test_handed_out_descriptors_are_snapshots(self):
        view = PartialView("me", capacity=5)
        view.add(("a", 2))
        view.add(("b", 0))
        handed_out = every_descriptor(view) + view.sample_descriptors(random.Random(1), 1)
        ages = [age for _, age in handed_out]
        view.age_all(3)
        assert [age for _, age in handed_out] == ages
        assert every_descriptor(view) == [("a", 5), ("b", 3)]

    def test_sample_descriptors_draws_like_sampling_the_descriptor_list(self):
        view = PartialView("me", capacity=10)
        for index, name in enumerate("abcdefg"):
            view.add((name, index % 3))
        view.age_all()
        descriptors = [(name, index % 3 + 1) for index, name in enumerate("abcdefg")]
        for count in (0, 3, 7, 9):
            ours, reference = random.Random(5), random.Random(5)
            expected = descriptors if count >= len(descriptors) else reference.sample(descriptors, count)
            assert view.sample_descriptors(ours, count) == expected
            assert ours.getstate() == reference.getstate()


class TestFullMembership:
    def test_selects_only_alive_nodes(self, simulator, network):
        provider = full_membership_provider(network)
        nodes = build_overlay(simulator, network, provider, count=10)
        nodes["n3"].crash()
        rng = simulator.rng.stream("test")
        component = nodes["n0"].membership
        partners = component.select_partners(20, rng)
        assert "n3" not in partners
        assert "n0" not in partners
        assert set(partners).issubset(set(component.known_peers()))

    def test_sample_size_respected(self, simulator, network):
        provider = full_membership_provider(network)
        nodes = build_overlay(simulator, network, provider, count=10)
        rng = simulator.rng.stream("test")
        assert len(nodes["n0"].membership.select_partners(3, rng)) == 3


class TestCyclonMembership:
    def test_views_fill_and_stay_bounded(self, simulator, network):
        provider = cyclon_provider(view_size=8, shuffle_size=3)
        nodes = build_overlay(simulator, network, provider, count=30, seeds=3)
        simulator.run(until=20.0)
        sizes = [len(node.membership.view) for node in nodes.values()]
        assert all(1 <= size <= 8 for size in sizes)
        assert sum(sizes) / len(sizes) > 4

    def test_shuffles_happen_in_both_roles(self, simulator, network):
        provider = cyclon_provider(view_size=8, shuffle_size=3)
        nodes = build_overlay(simulator, network, provider, count=20, seeds=3)
        simulator.run(until=15.0)
        assert sum(node.membership.shuffles_initiated for node in nodes.values()) > 0
        assert sum(node.membership.shuffles_answered for node in nodes.values()) > 0

    def test_crashed_node_eventually_leaves_views(self, simulator, network):
        provider = cyclon_provider(view_size=6, shuffle_size=3)
        nodes = build_overlay(simulator, network, provider, count=20, seeds=5)
        simulator.run(until=5.0)
        nodes["n5"].crash()
        simulator.run(until=60.0)
        holders = sum(1 for node in nodes.values() if node.alive and "n5" in node.membership.view)
        alive = sum(1 for node in nodes.values() if node.alive)
        # The dead node's descriptor only ages, so most views have purged it.
        assert holders <= alive * 0.4

    def test_overlay_is_connected_after_mixing(self, simulator, network):
        provider = cyclon_provider(view_size=6, shuffle_size=3)
        nodes = build_overlay(simulator, network, provider, count=25, seeds=2)
        simulator.run(until=30.0)
        # Breadth-first search over the union of directed view edges.
        reached = {"n0"}
        frontier = ["n0"]
        while frontier:
            current = frontier.pop()
            for neighbor in nodes[current].membership.known_peers():
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert len(reached) == len(nodes)

    def test_invalid_parameters(self, simulator, network):
        node = MemberNode("x", simulator, network, full_membership_provider(network))
        with pytest.raises(ValueError):
            CyclonMembership(node, view_size=2, shuffle_size=5)
        with pytest.raises(ValueError):
            CyclonMembership(node, view_size=0)


class TestLpbcastMembership:
    def test_digest_contains_self(self, simulator, network):
        provider = lpbcast_provider(view_size=10, digest_size=4)
        nodes = build_overlay(simulator, network, provider, count=10, seeds=3)
        digest = nodes["n0"].membership.digest_for_gossip()
        assert any(node_id == "n0" for node_id, _ in digest.descriptors)
        assert len(digest.descriptors) <= 4

    def test_absorb_digest_learns_new_peers(self, simulator, network):
        provider = lpbcast_provider(view_size=10, digest_size=4)
        nodes = build_overlay(simulator, network, provider, count=6, seeds=1)
        target = nodes["n0"].membership
        before = set(target.known_peers())
        digest = nodes["n5"].membership.digest_for_gossip()
        target.absorb_digest(digest)
        assert set(target.known_peers()) >= before

    def test_view_stays_bounded_under_many_digests(self, simulator, network):
        provider = lpbcast_provider(view_size=5, digest_size=3)
        nodes = build_overlay(simulator, network, provider, count=20, seeds=2)
        component = nodes["n0"].membership
        for node_id, node in nodes.items():
            if node_id != "n0":
                component.absorb_digest(node.membership.digest_for_gossip())
        assert len(component.view) <= 5

    def test_standalone_refresh_sends_messages(self, simulator, network):
        provider = lpbcast_provider(view_size=10, digest_size=4, standalone_refresh=True)
        build_overlay(simulator, network, provider, count=10, seeds=3)
        simulator.run(until=10.0)
        assert network.stats.sent_by_kind.get("membership.lpbcast.digest", 0) > 0


class TestInterestAwareMembership:
    def _build(self, simulator, network, bias=1.0):
        topics = {
            "n0": ["a"],
            "n1": ["a"],
            "n2": ["a"],
            "n3": ["b"],
            "n4": ["b"],
            "n5": ["c"],
        }
        provider = full_membership_provider(network)
        nodes = build_overlay(simulator, network, provider, count=6)
        owner = nodes["n0"]
        component = InterestAwareMembership(
            owner,
            base=provider(owner),
            topics_of=lambda peer: topics.get(peer, []),
            own_topics=lambda: topics["n0"],
            bias=bias,
        )
        return component, nodes

    def test_biased_selection_prefers_overlapping_peers(self, simulator, network):
        component, _ = self._build(simulator, network, bias=1.0)
        rng = simulator.rng.stream("test")
        partners = component.select_partners(2, rng)
        assert set(partners).issubset({"n1", "n2"})

    def test_mixing_keeps_some_uniform_choices(self, simulator, network):
        component, _ = self._build(simulator, network, bias=0.0)
        rng = simulator.rng.stream("test")
        seen = set()
        for _ in range(30):
            seen.update(component.select_partners(2, rng))
        assert seen - {"n1", "n2"}

    def test_peers_for_topic(self, simulator, network):
        component, _ = self._build(simulator, network)
        rng = simulator.rng.stream("test")
        assert set(component.peers_for_topic("b", 5, rng)) == {"n3", "n4"}

    def test_invalid_bias(self, simulator, network):
        with pytest.raises(ValueError):
            self._build(simulator, network, bias=2.0)


class TestInfrastructureConservation:
    """Every membership message the network carried is charged to its sender's ledger.

    No shipped scenario selects lpbcast, so the fingerprint runs never
    exercise its standalone digest; this runs ``smoke`` with both views.
    """

    @pytest.mark.parametrize("kind", ["scenario default", "lpbcast"])
    def test_ledger_infrastructure_equals_membership_sends(self, kind):
        spec = get_scenario("smoke").spec
        if kind == "lpbcast":
            spec = spec.with_value("membership.kind", kind)
        system = run_experiment(spec.to_config(), keep_system=True).system
        sent = sum(
            count
            for message_kind, count in system.network.stats.sent_by_kind.items()
            if message_kind.startswith(MembershipComponent.MESSAGE_PREFIX)
        )
        assert sent > 0
        assert system.ledger.totals().infrastructure_messages == sent

    def test_full_membership_on_smoke_sends_no_membership_message(self):
        spec = get_scenario("smoke").spec.with_value("membership.kind", "full")
        result = run_experiment(spec.to_config(), keep_system=True)
        kinds = result.system.network.stats.sent_by_kind
        assert kinds and not [kind for kind in kinds if kind.startswith(MembershipComponent.MESSAGE_PREFIX)]
        assert result.system.ledger.totals().infrastructure_messages == 0
        assert result.reliability.delivery_ratio > 0.9
