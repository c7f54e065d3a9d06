"""Two-phase lazy probabilistic broadcast with pull-based recovery.

The eager push protocol of Figure 4 keeps re-sending full events for their
whole buffer lifetime, so most of the payload traffic is redundant once a
message has infected a good share of the system.  The *lazy* variant (the
``LazyProbabilisticBroadcast`` lineage, Algorithm 3.10) splits dissemination
into two phases:

1. **Eager phase** — a freshly seen event is pushed with its full payload,
   but only for the few rounds an infection estimator says are needed to
   reach roughly half the system (``eager_push_rounds``: the push doubling
   time for the configured fanout, plus one round of slack).
2. **Recovery phase** — after that, only event *ids* circulate, in periodic
   digest messages.  A node that spots unknown ids in a digest issues a pull
   ``REQUEST`` and a node holding the payload answers with a ``REPLY``.

Only an **ALPHA fraction** of the nodes retain event payloads past the eager
phase (the *store set*, chosen deterministically by hashing node ids so both
engines and every run of a seed agree without coordination); everyone else
drops the payload when the eager budget is spent and keeps just the id.
Recovery requests are therefore directed at store nodes.  Per-node payload
memory is bounded by the store capacity, and aged ids are garbage-collected
after ``id_gc_rounds`` so neither the digests nor the stores grow with the
run length.  Nor does a node's state grow with the population: one id table
serves both phases, and every node reads one shared sorted store order.

Sending, serving and absorbing are the exchange primitives of
:class:`~repro.gossip.push.PushGossipNode` (``push_events``, ``advertise``,
``digest_gaps``, ``request_pull``, ``serve_pull``, ``absorb_payload``); this
module keeps what is the lazy protocol's own: which events are still hot,
which ids are still advertised, whom to pull from, the store, and the
garbage collection.

The node runs unmodified on the discrete-event simulator and on the live
runtime (it only uses the duck-typed ``simulator``/``network`` surface), and
its four message kinds have wire codecs so live clusters speak it over real
transports.  When a shared telemetry store is attached it records the
recovery counters (``lazy.pulls_issued`` / ``lazy.pulls_served`` /
``lazy.recoveries`` / ``lazy.events_saved``) and the phase gauges
(``lazy.hot_events`` for the eager phase, ``lazy.store_events`` /
``lazy.store_bytes`` for the store set) that ``repro report`` renders as the
recovery table.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from itertools import islice, takewhile
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from ..pubsub.events import Event
from ..sim.network import Message
from .push import PushGossipNode

__all__ = [
    "LazyPushGossipNode",
    "lazy_store_ids",
    "eager_push_rounds",
    "LAZY_PUSH_KIND",
    "LAZY_DIGEST_KIND",
    "LAZY_REQUEST_KIND",
    "LAZY_REPLY_KIND",
]

LAZY_PUSH_KIND = "gossip.lazy-push"
LAZY_DIGEST_KIND = "gossip.lazy-digest"
LAZY_REQUEST_KIND = "gossip.lazy-request"
LAZY_REPLY_KIND = "gossip.lazy-reply"


def lazy_store_ids(node_ids: Iterable[str], alpha: float) -> FrozenSet[str]:
    """The deterministic ALPHA-fraction store set for a node population.

    Nodes are ranked by the sha256 of their id and the first
    ``ceil(alpha * N)`` (at least one) are stores.  Hash ranking keeps the
    choice independent of the ``node-000..`` naming order — the publisher
    subset is a name prefix, and the store set must not correlate with it —
    while staying identical across engines, seeds, and processes.
    """
    if not 0.0 < float(alpha) <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    ids = sorted(set(node_ids))
    if not ids:
        return frozenset()
    count = max(1, math.ceil(float(alpha) * len(ids)))
    ranked = sorted(ids, key=lambda node_id: hashlib.sha256(node_id.encode("utf-8")).hexdigest())
    return frozenset(ranked[:count])


def eager_push_rounds(population: int, fanout: int, target_fraction: float = 0.5) -> int:
    """Eager-phase budget: rounds until ~``target_fraction`` is infected.

    Push gossip infects roughly ``fanout``-fold more nodes per round, so the
    half-infection point is the base-``fanout`` log of half the population;
    one extra round of slack absorbs duplicate deliveries and message loss.
    """
    population = max(2, int(population))
    base = max(2, int(fanout))
    target = max(2.0, population * float(target_fraction))
    return max(1, math.ceil(math.log(target) / math.log(base))) + 1


def _pop_due(table: Dict[str, int], now: int) -> List[str]:
    """Remove and return the leading ids of ``table`` whose round is ``now`` or earlier."""
    due = list(takewhile(lambda event_id: table[event_id] <= now, table))
    for event_id in due:
        del table[event_id]
    return due


class LazyPushGossipNode(PushGossipNode):
    """One participant of the two-phase lazy probabilistic broadcast.

    Extra parameters on top of :class:`PushGossipNode`:

    store_ids:
        The deterministic store set (see :func:`lazy_store_ids`): a tuple is
        taken as sorted and kept, so the factory shares one among all nodes;
        other collections are sorted into the node's own.  When ``None``
        (standalone construction in unit tests) the node treats itself as a
        store so it can always serve its own pulls.
    population:
        Total node count, feeding the infection estimator.  Defaults to a
        small population when unknown.
    id_gc_rounds:
        Rounds an event id stays advertisable (and its payload stays in the
        store) before garbage collection; defaults to the buffer's
        ``max_rounds``.
    """

    def __init__(
        self,
        *args,
        store_ids: Optional[Iterable[str]] = None,
        population: Optional[int] = None,
        id_gc_rounds: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        order = (self.node_id,) if store_ids is None else store_ids
        #: The store ids, sorted (membership is a bisect), and this node's slot in them.
        self._store_order = order if isinstance(order, tuple) else tuple(sorted(set(order)))
        self._store_slot = bisect_left(self._store_order, self.node_id)
        self.is_store = self._stores(self.node_id)
        self.population = max(2, int(population)) if population else max(2, len(self._store_order))
        self.eager_rounds = eager_push_rounds(self.population, max(1, self.fanout))
        self.id_gc_rounds = int(id_gc_rounds) if id_gc_rounds else self.buffer.max_rounds
        self.store_capacity = self.buffer.capacity
        #: Event payloads retained past the eager phase (store nodes only),
        #: oldest first, and the sum of their sizes.
        self.store: Dict[str, Event] = {}
        self._store_bytes = 0
        #: Rounds finished (``after_round`` calls).  The two tables below hold a round
        #: per id and fill in round order, so what is due is a prefix (:func:`_pop_due`).
        self._rounds_done = 0
        #: id → the round it was first seen after (oldest first).  An id is hot (in its
        #: eager budget) while ``first seen + eager_rounds > _rounds_done``: a tail.
        self._first_seen: Dict[str, int] = {}
        #: Ids per digest message (caps digest size on long runs).
        self.digest_cap = max(8, 4 * self.gossip_size)
        #: Digests go out every this many rounds — the recovery phase is
        #: deliberately slower than the eager phase, that is the bandwidth win.
        #: Phases are staggered per node (hash of the id) so some digests
        #: circulate every round even though each node only pays every other.
        self.digest_period = 2
        self._digest_phase = (
            int(hashlib.sha256(self.node_id.encode("utf-8")).hexdigest(), 16)
            % self.digest_period
        )
        #: Ids older than this stop being advertised; the default (the GC
        #: horizon itself) keeps every live id recoverable — a gap only
        #: becomes permanent once the id is garbage-collected everywhere.
        self.advert_rounds = self.id_gc_rounds
        #: id → the round after which it may be re-requested (duplicate-pull damping).
        self._pending_pull: Dict[str, int] = {}
        self.pull_retry_rounds = 1
        self.pulls_issued = 0
        self.pulls_served = 0
        self.recoveries = 0
        self.events_saved = 0
        telemetry = self.telemetry
        self._pulls_issued_counter = telemetry.counter("lazy.pulls_issued", node=self.node_id)
        self._pulls_served_counter = telemetry.counter("lazy.pulls_served", node=self.node_id)
        self._recoveries_counter = telemetry.counter("lazy.recoveries", node=self.node_id)
        self._saved_counter = telemetry.counter("lazy.events_saved", node=self.node_id)
        self._hot_gauge = telemetry.gauge("lazy.hot_events", node=self.node_id)
        self._store_gauge = telemetry.gauge("lazy.store_events", node=self.node_id)
        self._store_bytes_gauge = telemetry.gauge("lazy.store_bytes", node=self.node_id)

    # ----------------------------------------------------------- the round

    def execute_gossip_round(self) -> None:
        partners, _ = self._round_partners()
        if not partners:
            return
        self.push_events(partners, self._hot_events(), LAZY_PUSH_KIND)
        if (self.rounds_executed + self._digest_phase) % self.digest_period == 0:
            self.advertise(partners, self._advertised_ids(), LAZY_DIGEST_KIND)

    def _hot_events(self) -> List[Event]:
        """Phase 1: the newest events still inside their eager budget, oldest first."""
        hot = self._seen_since(self._rounds_done - self.eager_rounds + 1)
        hot_ids = list(islice(hot, self.current_gossip_size()))[::-1]
        return [
            event for event in map(self._event_payload, hot_ids) if event is not None
        ]

    def _advertised_ids(self) -> List[str]:
        """Phase 2: recently seen ids, so receivers can pull their gaps."""
        recent = self._seen_since(self._rounds_done - self.advert_rounds)
        return list(islice(recent, self.digest_cap))[::-1]

    def _seen_since(self, oldest: int) -> Iterator[str]:
        """The ids first seen after round ``oldest`` or later, newest first."""
        first_seen = self._first_seen
        return takewhile(lambda event_id: first_seen[event_id] >= oldest, reversed(first_seen))

    def after_round(self) -> None:
        """Finish the round: retire retries, garbage-collect, spend eager budgets."""
        self._rounds_done = now = self._rounds_done + 1
        _pop_due(self._pending_pull, now)
        for event_id in _pop_due(self._first_seen, now - self.id_gc_rounds - 1):
            stored = self.store.pop(event_id, None)
            if stored is not None:
                self._store_bytes -= stored.size
            self.buffer.remove(event_id)
            # A garbage-collected id can no longer be relayed or advertised,
            # so its trace anchor is dead weight; dropping it bounds the
            # trace state the same way _first_seen bounds the digests.
            self._trace_state.pop(event_id, None)
        # Ids first seen after round ``spent`` spend their eager budget now; later ones stay hot.
        first_seen, spent, hot = self._first_seen, now - self.eager_rounds, 0
        for event_id in reversed(first_seen):
            if first_seen[event_id] > spent:
                hot += 1
            elif first_seen[event_id] < spent or self.is_store:
                break
            else:  # a non-store keeps only the id, for digests
                self.buffer.remove(event_id)
        self._hot_gauge.set(hot)
        self._store_gauge.set(len(self.store))
        self._store_bytes_gauge.set(float(self._store_bytes))

    # ------------------------------------------------------------ receiving

    def on_message(self, message: Message) -> None:
        if self.membership.handle(message):
            return
        if message.kind == LAZY_PUSH_KIND:
            self.absorb_payload(message)
        elif message.kind == LAZY_DIGEST_KIND:
            self._handle_lazy_digest(message)
        elif message.kind == LAZY_REQUEST_KIND:
            if self.serve_pull(message, LAZY_REPLY_KIND):
                self.pulls_served += 1
                self._pulls_served_counter.increment()
        elif message.kind == LAZY_REPLY_KIND:
            recovered = self.absorb_payload(message, recovered=True)
            if recovered:
                self.recoveries += recovered
                self._recoveries_counter.increment(recovered)

    def _handle_lazy_digest(self, message: Message) -> None:
        unseen = self.digest_gaps(message)
        already_known = len(message.payload.event_ids) - len(unseen)
        if already_known:
            # Each known id advertised instead of re-pushed is payload the
            # eager protocol would have resent; the report's "bytes saved"
            # column reads this counter.
            self.events_saved += already_known
            self._saved_counter.increment(already_known)
        missing = [event_id for event_id in unseen if event_id not in self._pending_pull]
        if not missing:
            return
        target = self._recovery_target(message.sender)
        if target is None:
            return
        for event_id in missing:
            self._pending_pull[event_id] = self._rounds_done + self.pull_retry_rounds
        self.pulls_issued += 1
        self._pulls_issued_counter.increment()
        self.request_pull(target, missing, LAZY_REQUEST_KIND)

    def _recovery_target(self, sender: str) -> Optional[str]:
        """Who to pull from: the digest sender if it stores, else a store node."""
        if self._stores(sender):
            return sender
        others = len(self._store_order) - self.is_store
        if not others:
            return sender if sender != self.node_id else None
        # The same draw as ``rng.choice(sorted(stores - {self}))``: a position
        # among the other stores, stepped past this node's own slot.
        index = self._rng.choice(range(others))
        return self._store_order[index + (self.is_store and index >= self._store_slot)]

    def _stores(self, node_id: str) -> bool:
        """Whether ``node_id`` is in the store set."""
        index = bisect_left(self._store_order, node_id)
        return self._store_order[index:index + 1] == (node_id,)

    # ----------------------------------------------------------- event state

    def _on_first_sight(self, event: Event) -> None:
        """A new event starts its eager budget and its id clock; stores keep it."""
        self._pending_pull.pop(event.event_id, None)
        self._first_seen[event.event_id] = self._rounds_done
        if self.is_store:
            self._store_put(event)

    def _store_put(self, event: Event) -> None:
        store = self.store
        store[event.event_id] = event
        self._store_bytes += event.size
        while len(store) > self.store_capacity:
            self._store_bytes -= store.pop(next(iter(store))).size

    def _event_payload(self, event_id: str) -> Optional[Event]:
        """The full event if this node still holds it (buffer, then store)."""
        event = self.buffer.get(event_id)
        if event is not None:
            return event
        return self.store.get(event_id)
