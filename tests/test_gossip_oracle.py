"""Differential test: the gossip family against an independent reference.

The reference below is written from the textbook algorithms (SNIPPETS.md:
``EagerProbabilisticBroadcast``, Algo 3.9, which is the paper's Figure 4 with
a buffer instead of a hop counter; and ``LazyProbabilisticBroadcast``, Algo
3.10: an eager phase, then digests and pulls) in lock-step rounds, and shares
no code with ``repro.gossip``, ``repro.core.fair_gossip`` or
``repro.topology`` — it only borrows the seeded random streams, so that on a
quiet network (full membership, no round jitter, constant latency below the
round period, no loss, buffers that never fill) production and reference
must agree *exactly*, round by round.  Under loss the two draw from
different streams and must agree statistically.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import RngRegistry

# ------------------------------------------------------------ the reference


def reference_gossip(rngs, nodes, fanout, rounds, publications, interested,
                     eager_rounds=None, stores=(), loss=0.0):
    """Infected sets after every round, and the final delivered sets.

    ``publications`` maps a round to the ``(publisher, event)`` pairs
    published just before it; ``interested(node, event)`` is ISINTERESTED.
    With ``eager_rounds=None`` this is Figure 4 / Algo 3.9: every round every
    process sends all it holds to ``fanout`` random others.  With a number it
    is Algo 3.10: a payload is pushed only that many rounds after first
    sight, afterwards its id is advertised, and a receiver missing it pulls
    the payload from the advertiser if that is a store, else from any store.
    """
    age = {node: {} for node in nodes}  # node -> {event: rounds since first sight}
    delivered = {node: set() for node in nodes}
    drops = random.Random(rngs.seed)

    def absorb(node, event):  # lines 12-20 of Figure 4
        if event not in age[node]:
            age[node][event] = 0
            if interested(node, event):
                delivered[node].add(event)

    def arrives():
        return loss == 0.0 or drops.random() >= loss

    history = []
    for round_number in range(1, rounds + 1):
        for publisher, event in publications.get(round_number, ()):
            absorb(publisher, event)
        pushes, adverts = [], []
        for node in nodes:  # SELECTPARTICIPANTS(F), then SELECTEVENTS(N)
            rng = rngs.stream(f"gossip:{node}")
            peers = sorted(set(nodes) - {node})
            partners = peers if fanout >= len(peers) else rng.sample(peers, fanout)
            held = list(age[node])
            if eager_rounds is None:
                pushes += [(node, peer, held) for peer in partners]
            else:
                hot = [event for event in held if age[node][event] < eager_rounds]
                pushes += [(node, peer, hot) for peer in partners if hot]
                adverts += [(node, peer, held) for peer in partners]
        for _, peer, events in pushes:
            if arrives():
                for event in events:
                    absorb(peer, event)
        for advertiser, peer, ids in adverts:  # digest -> request -> reply, three messages
            missing = [event for event in ids if event not in age[peer]]
            holder = advertiser if advertiser in stores or not stores else min(stores)
            if missing and arrives() and arrives() and arrives():
                for event in missing:
                    if event in age[holder]:
                        absorb(peer, event)
        for node in nodes:
            for event in age[node]:
                age[node][event] += 1
        known = set().union(*age.values())
        history.append({e: frozenset(n for n in nodes if e in age[n]) for e in known})
    return history, delivered


# ------------------------------------------------------------- production

NODES = [f"node-{index:02d}" for index in range(16)]
TOPICS = ("alpha", "beta")
#: round -> (publisher, topic) published half a period before that round.
PUBLICATIONS = {1: [(NODES[3], "alpha")], 2: [(NODES[9], "beta")], 4: [(NODES[3], "beta")]}
ROUNDS = 8


def subscribed(node, topic):
    """Two thirds of the nodes want ``alpha``, every other node wants ``beta``."""
    index = NODES.index(node)
    return index % 3 != 0 if topic == "alpha" else index % 2 == 0


def production_run(kind, seed, fanout, loss=0.0, rounds=ROUNDS, publications=PUBLICATIONS):
    """The same schedule on the production nodes.

    Returns the per-round infected sets, the final delivered sets, the topic
    of every event id, and the lazy protocol's eager budget and store set.
    """
    from repro.gossip import GossipSystem, LazyPushGossipNode, PushGossipNode, PushPullGossipNode
    from repro.gossip import eager_push_rounds, lazy_store_ids
    from repro.membership import full_membership_provider
    from repro.pubsub import TopicFilter
    from repro.sim import Network, Simulator

    simulator = Simulator(seed=seed)
    network = Network(simulator, loss_rate=loss)
    node_kwargs = {"fanout": fanout, "gossip_size": 64, "round_jitter": 0.0,
                   "buffer_capacity": 10_000, "buffer_max_rounds": 10_000}
    node_class = {"gossip": PushGossipNode, "pushpull-gossip": PushPullGossipNode,
                  "lazy-push": LazyPushGossipNode}[kind]
    if kind == "lazy-push":
        node_kwargs.update(store_ids=lazy_store_ids(NODES, 0.5), population=len(NODES))
    system = GossipSystem(
        simulator, network, NODES, membership_provider=full_membership_provider(network),
        node_class=node_class, node_kwargs=node_kwargs,
    )
    for node in NODES:
        for topic in TOPICS:
            if subscribed(node, topic):
                system.subscribe(node, TopicFilter(topic))
    topic_of, history = {}, []
    for round_number in range(1, rounds + 1):
        system.run(until=round_number - 0.5)
        for publisher, topic in publications.get(round_number, ()):
            topic_of[system.publish(publisher, topic=topic).event_id] = topic
        system.run(until=round_number + 0.5)
        history.append({
            event_id: frozenset(n for n in NODES if system.node(n).has_seen(event_id))
            for event_id in topic_of
        })
    records = system.delivery_log.ordered_records()
    delivered = {
        node: {record.event_id for record in records if record.node_id == node}
        for node in NODES
    }
    stores = lazy_store_ids(NODES, 0.5) if kind == "lazy-push" else ()
    return history, delivered, topic_of, eager_push_rounds(len(NODES), fanout), stores


def reference_run(seed, fanout, topic_of, publications=PUBLICATIONS, rounds=ROUNDS, **algo):
    """The reference on the schedule ``production_run`` used, with its event ids."""
    ids = iter(topic_of)
    schedule = {
        round_number: [(publisher, next(ids)) for publisher, _ in pairs]
        for round_number, pairs in sorted(publications.items())
    }
    return reference_gossip(
        RngRegistry(seed), NODES, fanout, rounds, schedule,
        lambda node, event: subscribed(node, topic_of[event]), **algo,
    )


class TestQuietNetworkExactAgreement:
    @pytest.mark.parametrize("seed", [1, 7, 2007])
    @pytest.mark.parametrize("fanout", [1, 2, 3])
    def test_push_infects_the_same_nodes_round_by_round(self, seed, fanout):
        history, delivered, topic_of, _, _ = production_run("gossip", seed, fanout)
        expected_history, expected_delivered = reference_run(seed, fanout, topic_of)
        assert history == expected_history
        assert delivered == expected_delivered
        # The schedule is not trivially saturated from the first round on.
        first = next(iter(topic_of))
        assert len(history[0][first]) < len(NODES)

    @pytest.mark.parametrize("seed", [1, 7, 2007])
    @pytest.mark.parametrize("fanout", [2, 3])
    def test_pushpull_delivers_what_digest_and_pull_must(self, seed, fanout):
        _, delivered, topic_of, _, _ = production_run("pushpull-gossip", seed, fanout, rounds=12)
        _, expected = reference_run(seed, fanout, topic_of, rounds=12, eager_rounds=0)
        assert delivered == expected

    @pytest.mark.parametrize("seed", [1, 7, 2007])
    @pytest.mark.parametrize("fanout", [2, 3])
    def test_lazy_push_delivers_what_algo_3_10_must(self, seed, fanout):
        _, delivered, topic_of, eager, stores = production_run("lazy-push", seed, fanout, rounds=12)
        _, expected = reference_run(
            seed, fanout, topic_of, rounds=12, eager_rounds=eager, stores=stores
        )
        assert delivered == expected


class TestLossyNetworkStatisticalAgreement:
    """Figure 4's shape under 10 % Bernoulli loss: more fanout, more delivered."""

    SEEDS = range(20)
    FANOUTS = range(1, 7)
    #: Mean delivery ratios over the seeds may differ by this much: the two
    #: sides lose different messages, a run's ratio moves in steps of 0.1
    #: (ten interested nodes) with a spread near 0.2, so the mean of 20 runs
    #: carries about +-0.045 per side.  The largest gap at these seeds is 0.055.
    TOLERANCE = 0.08
    #: A larger fanout may lose at most this much to sampling noise.
    MONOTONE_SLACK = 0.02
    SCHEDULE = {1: [(NODES[3], "alpha")]}
    ROUNDS = 2

    def ratios(self, fanout):
        wanted = sum(subscribed(node, "alpha") for node in NODES)
        production, reference = [], []
        for seed in self.SEEDS:
            _, delivered, topic_of, _, _ = production_run(
                "gossip", seed, fanout, loss=0.1, rounds=self.ROUNDS, publications=self.SCHEDULE
            )
            _, expected = reference_run(
                seed, fanout, topic_of, publications=self.SCHEDULE, rounds=self.ROUNDS, loss=0.1
            )
            production.append(sum(map(len, delivered.values())) / wanted)
            reference.append(sum(map(len, expected.values())) / wanted)
        return sum(production) / len(production), sum(reference) / len(reference)

    def test_delivery_ratio_rises_with_fanout_and_tracks_the_reference(self):
        curve = [self.ratios(fanout) for fanout in self.FANOUTS]
        for production, reference in curve:
            assert abs(production - reference) <= self.TOLERANCE
        produced = [production for production, _ in curve]
        for smaller, larger in zip(produced, produced[1:]):
            assert larger >= smaller - self.MONOTONE_SLACK
        assert produced[0] < 0.5 < produced[-1]
