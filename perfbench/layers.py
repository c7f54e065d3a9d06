"""Which functions of the program each layer's spans wrap, and the per-layer metrics.

A layer is one of the program's modules.  Every entry point into a layer
(its message handler, its timer hook, its public operation) is wrapped, so
time spent in code that is not wrapped lands in the wrapped caller's self
time, and time spent in another layer called from it lands in that layer.

``PER_LAYER`` is the single list of per-layer metric names; ``BENCHMARK.json``
repeats it and a self-test keeps the two equal.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from perfbench.trace import ROOT, Target, Tracer

def _methods(module: str, cls: str, span: str, *names: str) -> List[Target]:
    return [(module, cls, name, span) for name in names]


#: Membership implementations that do the work themselves (the domain-scoped
#: wrapper belongs to the topology layer and delegates to one of these).
_MEMBERSHIPS = (
    ("repro.membership.cyclon", "CyclonMembership"),
    ("repro.membership.lpbcast", "LpbcastMembership"),
    ("repro.membership.interest_aware", "InterestAwareMembership"),
)

TARGETS: List[Target] = [
    # sim.engine -- queue, clock, timers
    *_methods("repro.sim.engine", "Simulator", "sim.engine", "run", "schedule"),
    ("repro.sim.engine", "Simulator", "step", "sim.engine.step"),
    ("repro.sim.engine", "Simulator", "schedule_at", "sim.engine.schedule_at"),
    ("repro.sim.engine", "PeriodicTimer", "_fire", "sim.engine"),
    # sim.network
    ("repro.sim.network", "Network", "send", "sim.network.send"),
    ("repro.sim.network", "Network", "_deliver", "sim.network.deliver"),
    ("repro.sim.network", "Network", "_trace_drop", "sim.network.drop"),
    # membership
    *[(m, c, "on_round", "membership.round") for m, c in _MEMBERSHIPS],
    *[(m, c, "handle", "membership.handle") for m, c in _MEMBERSHIPS],
    *[(m, c, "select_partners", "membership.select") for m, c in _MEMBERSHIPS],
    ("repro.membership.full", "FullMembership", "handle", "membership.handle"),
    ("repro.membership.full", "FullMembership", "select_partners", "membership.select"),
    # gossip
    ("repro.gossip.push", "PushGossipNode", "on_timer", "gossip.round"),
    ("repro.gossip.push", "PushGossipNode", "execute_gossip_round", "gossip.round.body"),
    ("repro.gossip.pushpull", "PushPullGossipNode", "execute_gossip_round", "gossip.round.body"),
    *_methods("repro.gossip.push", "PushGossipNode", "gossip.receive", "on_message", "publish"),
    ("repro.gossip.pushpull", "PushPullGossipNode", "on_message", "gossip.receive"),
    *_methods(
        "repro.gossip.buffers", "EventBuffer", "gossip.buffer",
        "add", "select", "start_round", "mark_forwarded", "remove",
    ),
    *_methods("repro.gossip.lazy", "LazyPushGossipNode", "gossip.lazy", "execute_gossip_round", "after_round", "on_message"),
    # pubsub
    *_methods("repro.pubsub.filters", "InterestFunction", "pubsub.match", "is_interested", "matching_filters"),
    ("repro.pubsub.subscriptions", "SubscriptionTable", "interested_nodes", "pubsub.match"),
    ("repro.pubsub.matching", "MatchingEngine", "match", "pubsub.match"),
    # core
    *_methods(
        "repro.core.accounting", "WorkLedger", "core.ledger",
        "record_publish", "record_gossip_send", "record_infrastructure",
        "record_subscription_forward", "record_delivery", "record_subscribe",
        "record_unsubscribe", "record_crash", "totals",
    ),
    *_methods(
        "repro.core.fair_gossip", "FairGossipNode", "core.control",
        "after_round", "observe_peer_benefit", "current_fanout", "current_gossip_size", "benefit_rate",
    ),
    # dht / brokers / damulticast
    *_methods("repro.dht.pastry", "PastryRouter", "dht.route", "route", "next_hop", "root_of"),
    *_methods("repro.dht.scribe", "ScribeNode", "dht", "on_message", "publish", "subscribe_topic", "unsubscribe_topic"),
    *_methods("repro.dht.scribe", "ScribeSystem", "dht", "publish", "subscribe", "unsubscribe"),
    *_methods("repro.dht.splitstream", "SplitStreamSystem", "dht", "publish", "subscribe", "unsubscribe"),
    *_methods("repro.dht.dks", "DksNode", "dht", "on_message", "publish", "subscribe_topic", "unsubscribe_topic"),
    *_methods("repro.dht.dks", "DksSystem", "dht", "publish", "subscribe", "unsubscribe"),
    *_methods("repro.brokers.broker", "BrokerNode", "brokers", "on_message"),
    *_methods("repro.brokers.broker", "ClientNode", "brokers", "on_message", "publish", "subscribe", "unsubscribe"),
    *_methods("repro.brokers.broker", "BrokerSystem", "brokers", "publish", "subscribe", "unsubscribe"),
    *_methods("repro.damulticast.dam", "DamNode", "dam", "on_message", "publish", "subscribe_topic", "unsubscribe_topic"),
    *_methods("repro.damulticast.dam", "DataAwareMulticastSystem", "dam", "publish", "subscribe", "unsubscribe"),
    # topology
    ("repro.topology.bridge", "BridgeRouter", "_on_delivery", "topology"),
    *_methods("repro.topology.membership", "DomainScopedMembership", "topology", "on_round", "handle", "select_partners"),
    ("repro.topology.geo", "GeoLinkProfile", "effects", "topology"),
    # faults
    *_methods("repro.faults.controller", "FaultController", "faults", "start", "stop", "_apply_node", "_skip"),
    ("repro.faults.controller", "FaultController", "_record", "faults.action"),
    *_methods(
        "repro.sim.network", "FaultInjectionSurface", "faults",
        "set_partition", "clear_partition", "set_perturbation", "clear_perturbation",
    ),
    # telemetry
    ("repro.telemetry.instruments", "Counter", "increment", "telemetry.observe"),
    ("repro.telemetry.instruments", "Gauge", "set", "telemetry.observe"),
    *_methods("repro.telemetry.facade", "Telemetry", "telemetry.observe", "increment", "observe", "set_gauge"),
    *_methods("repro.telemetry.facade", "Telemetry", "telemetry", "counter", "gauge", "histogram", "snapshot"),
    ("repro.experiments.runner", None, "_telemetry_collector", "telemetry"),
    # analysis
    ("repro.analysis.reliability", None, "measure_reliability", "analysis"),
    ("repro.analysis.fairness_report", None, "summarise_fairness", "analysis"),
    ("repro.core.fairness", None, "evaluate_fairness", "analysis"),
    # experiments / registry
    *[
        ("repro.experiments.scenarios", None, name, "experiments.build")
        for name in ("build_simulation", "build_popularity", "build_system", "build_interest", "resolve_policy")
    ],
    ("repro.workloads.interest", "InterestAssignment", "apply", "experiments.build"),
    # workload generators inside the program
    ("repro.workloads.publications", "TopicPublicationWorkload", "_publish_one", "workload"),
    ("repro.workloads.publications", "ContentPublicationWorkload", "_publish_one", "workload"),
    *_methods("repro.gossip.system", "GossipSystem", "gossip.receive", "publish", "subscribe", "unsubscribe"),
    # runtime.wire
    ("repro.runtime.wire", None, "encode_message", "runtime.wire.encode"),
    ("repro.runtime.wire", None, "decode_message", "runtime.wire.decode"),
    # runtime.transport -- send side, receive side
    ("repro.runtime.transport", "MemoryTransport", "send", "runtime.transport.send"),
    ("repro.runtime.transport", "TcpTransport", "send", "runtime.transport.send"),
    ("repro.runtime.wire", None, "frame", "runtime.transport.send"),
    ("repro.runtime.transport", "Transport", "_dispatch", "runtime.transport.recv"),
    ("repro.runtime.wire", "FrameDecoder", "feed", "runtime.transport.recv"),
    # runtime.network
    ("repro.runtime.network", "RuntimeNetwork", "send", "runtime.network.send"),
    *_methods("repro.runtime.network", "RuntimeNetwork", "runtime.network.deliver", "_on_frame", "_deliver"),
    ("repro.runtime.network", "RuntimeNetwork", "_trace_drop", "runtime.network.drop"),
    # runtime.scheduler
    ("repro.runtime.scheduler", "AsyncScheduler", "schedule", "runtime.scheduler"),
    ("repro.runtime.scheduler", "AsyncPeriodicTimer", "_fire", "runtime.scheduler"),
    # runtime.host
    *_methods("repro.runtime.host", "NodeHost", "runtime.host.publish", "publish", "subscribe"),
    ("repro.runtime.host", "NodeHost", "_record_delivery", "runtime.host.delivery_cb"),
]

#: Counted, not timed: called once per event per message, and smaller than a span.
COUNT_ONLY = ("repro.gossip.push", "PushGossipNode", "_absorb_event", "gossip.absorb")


# ------------------------------------------------------------------ probes


def _kind_probe(tracer: Tracer) -> Callable:
    """Count sent messages by kind (``msgs.<kind>``) on either network's ``send``."""
    counts = tracer.counts

    def probe(args, kwargs, result) -> None:
        kind = args[3] if len(args) > 3 else kwargs["kind"]
        key = "msgs." + kind
        counts[key] = counts.get(key, 0) + 1

    return probe


def _build_send(tracer: Tracer, original: Callable, name: str) -> Callable:
    return tracer.wrap(original, name, probe=_kind_probe(tracer))


def _build_schedule_at(tracer: Tracer, original: Callable) -> Callable:
    counts = tracer.counts
    counts.setdefault("sim.engine.queue_peak", 0)

    def probe(args, kwargs, result) -> None:
        pending = args[0].pending_events
        if pending > counts["sim.engine.queue_peak"]:
            counts["sim.engine.queue_peak"] = pending

    return tracer.wrap(original, "sim.engine.schedule_at", probe=probe)


def _build_encode(tracer: Tracer, original: Callable) -> Callable:
    counts = tracer.counts
    counts.setdefault("runtime.wire.bytes", 0)

    def probe(args, kwargs, result) -> None:
        if result is not None:
            counts["runtime.wire.bytes"] += len(result)

    return tracer.wrap(original, "runtime.wire.encode", probe=probe)


def _build_collector(tracer: Tracer, original: Callable) -> Callable:
    """``_telemetry_collector`` returns the closure that does the work: span that."""

    def factory(*args, **kwargs):
        return tracer.wrap(original(*args, **kwargs), "telemetry")

    return factory


def _build_async_schedule(tracer: Tracer, original: Callable) -> Callable:
    """Span ``AsyncScheduler.schedule`` and every callback it fires; record fire - due."""
    lags = tracer.samples.setdefault("runtime.scheduler.lag_ns", [])
    spanned = tracer.wrap(original, "runtime.scheduler")
    clock = time.perf_counter_ns

    def schedule(self, delay, action, label=""):
        due = clock() + int(self.clock.units_to_seconds(delay) * 1e9)
        fire = tracer.wrap(action, "runtime.scheduler.callback")

        def timed() -> None:
            lags.append(clock() - due)
            fire()

        return spanned(self, delay, timed, label)

    return schedule


SPECIAL: Dict[Target, Callable] = {
    ("repro.sim.network", "Network", "send", "sim.network.send"): (
        lambda tracer, original: _build_send(tracer, original, "sim.network.send")
    ),
    ("repro.runtime.network", "RuntimeNetwork", "send", "runtime.network.send"): (
        lambda tracer, original: _build_send(tracer, original, "runtime.network.send")
    ),
    ("repro.sim.engine", "Simulator", "schedule_at", "sim.engine.schedule_at"): _build_schedule_at,
    ("repro.runtime.wire", None, "encode_message", "runtime.wire.encode"): _build_encode,
    ("repro.experiments.runner", None, "_telemetry_collector", "telemetry"): _build_collector,
    ("repro.runtime.scheduler", "AsyncScheduler", "schedule", "runtime.scheduler"): _build_async_schedule,
    COUNT_ONLY: lambda tracer, original: tracer.count_calls(original, "gossip.absorb"),
}


def install(tracer: Tracer) -> None:
    """Patch every target of every layer (and the count-only one)."""
    tracer.install(TARGETS + [COUNT_ONLY], SPECIAL)


# ----------------------------------------------------------- metric layout

#: Layer -> the span names whose self time is the layer's.  Used for the
#: share table (dominant / bypassed layers) and to build the metrics below.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim.engine", "sim.engine.step", "sim.engine.schedule_at"),
    "sim.network": ("sim.network.send", "sim.network.deliver", "sim.network.drop"),
    "membership": ("membership.round", "membership.handle", "membership.select"),
    "gossip": ("gossip.round", "gossip.round.body", "gossip.receive", "gossip.buffer", "gossip.lazy"),
    "pubsub": ("pubsub.match",),
    "core": ("core.ledger", "core.control"),
    "dht": ("dht", "dht.route"),
    "brokers": ("brokers",),
    "dam": ("dam",),
    "topology": ("topology",),
    "faults": ("faults", "faults.action"),
    "telemetry": ("telemetry", "telemetry.observe"),
    "analysis": ("analysis",),
    "experiments": ("experiments.build", "workload"),
    "runtime.wire": ("runtime.wire.encode", "runtime.wire.decode"),
    "runtime.transport": ("runtime.transport.send", "runtime.transport.recv"),
    "runtime.network": ("runtime.network.send", "runtime.network.deliver", "runtime.network.drop"),
    "runtime.scheduler": ("runtime.scheduler", "runtime.scheduler.callback"),
    "runtime.host": ("runtime.host.publish", "runtime.host.delivery_cb"),
}

# (metric, unit, better, how): how is ("self", span...), ("calls", span...),
# ("count", counter) or ("extra", key) -- extras are filled in by the child.
PER_LAYER: List[Tuple[str, str, str, tuple]] = [
    ("sim.engine.events", "count", "lower", ("calls", "sim.engine.step")),
    ("sim.engine.schedule_calls", "count", "lower", ("calls", "sim.engine.schedule_at")),
    ("sim.engine.self_s", "s", "lower", ("self",) + LAYER_SPANS["sim.engine"]),
    ("sim.engine.queue_peak", "count", "lower", ("count", "sim.engine.queue_peak")),
    ("sim.network.send_calls", "count", "lower", ("calls", "sim.network.send")),
    ("sim.network.send_self_s", "s", "lower", ("self", "sim.network.send")),
    ("sim.network.deliver_self_s", "s", "lower", ("self", "sim.network.deliver")),
    ("sim.network.dropped", "count", "lower", ("calls", "sim.network.drop")),
    ("membership.round_calls", "count", "lower", ("calls", "membership.round")),
    ("membership.round_self_s", "s", "lower", ("self", "membership.round")),
    ("membership.handle_self_s", "s", "lower", ("self", "membership.handle")),
    ("membership.select_self_s", "s", "lower", ("self", "membership.select")),
    ("gossip.round_calls", "count", "lower", ("calls", "gossip.round")),
    ("gossip.round_self_s", "s", "lower", ("self", "gossip.round", "gossip.round.body")),
    ("gossip.receive_self_s", "s", "lower", ("self", "gossip.receive")),
    ("gossip.buffer_self_s", "s", "lower", ("self", "gossip.buffer")),
    ("gossip.events_received", "count", "lower", ("count", "gossip.absorb")),
    ("gossip.first_sight_ratio", "ratio", "higher", ("extra", "gossip.first_sight_ratio")),
    ("gossip.lazy.self_s", "s", "lower", ("self", "gossip.lazy")),
    ("gossip.lazy.digests_sent", "count", "lower", ("count", "msgs.gossip.lazy-digest")),
    ("gossip.lazy.pulls_sent", "count", "lower", ("count", "msgs.gossip.lazy-request")),
    ("gossip.lazy.recovered", "count", "higher", ("extra", "gossip.lazy.recovered")),
    ("pubsub.match_calls", "count", "lower", ("calls", "pubsub.match")),
    ("pubsub.match_self_s", "s", "lower", ("self", "pubsub.match")),
    ("core.ledger_calls", "count", "lower", ("calls", "core.ledger")),
    ("core.ledger_self_s", "s", "lower", ("self", "core.ledger")),
    ("core.control_self_s", "s", "lower", ("self", "core.control")),
    ("dht.route_calls", "count", "lower", ("calls", "dht.route")),
    ("dht.self_s", "s", "lower", ("self",) + LAYER_SPANS["dht"]),
    ("brokers.self_s", "s", "lower", ("self", "brokers")),
    ("dam.self_s", "s", "lower", ("self", "dam")),
    ("topology.self_s", "s", "lower", ("self", "topology")),
    ("topology.bridge_relays", "count", "lower", ("extra", "topology.bridge_relays")),
    ("topology.bridge_duplicate_ratio", "ratio", "lower", ("extra", "topology.bridge_duplicate_ratio")),
    ("faults.actions", "count", "lower", ("calls", "faults.action")),
    ("faults.self_s", "s", "lower", ("self",) + LAYER_SPANS["faults"]),
    ("telemetry.observe_calls", "count", "lower", ("calls", "telemetry.observe")),
    ("telemetry.self_s", "s", "lower", ("self",) + LAYER_SPANS["telemetry"]),
    ("analysis.self_s", "s", "lower", ("self", "analysis")),
    ("experiments.import_s", "s", "lower", ("extra", "experiments.import_s")),
    ("experiments.build_self_s", "s", "lower", ("self", "experiments.build")),
    ("experiments.workload_self_s", "s", "lower", ("self", "workload")),
    ("runtime.wire.encode_calls", "count", "lower", ("calls", "runtime.wire.encode")),
    ("runtime.wire.encode_self_s", "s", "lower", ("self", "runtime.wire.encode")),
    ("runtime.wire.decode_calls", "count", "lower", ("calls", "runtime.wire.decode")),
    ("runtime.wire.decode_self_s", "s", "lower", ("self", "runtime.wire.decode")),
    ("runtime.wire.bytes_per_frame", "B/frame", "lower", ("extra", "runtime.wire.bytes_per_frame")),
    ("runtime.transport.frames_sent", "count", "lower", ("extra", "runtime.transport.frames_sent")),
    ("runtime.transport.bytes_sent", "B", "lower", ("extra", "runtime.transport.bytes_sent")),
    ("runtime.transport.send_self_s", "s", "lower", ("self", "runtime.transport.send")),
    ("runtime.transport.recv_self_s", "s", "lower", ("self", "runtime.transport.recv")),
    ("runtime.transport.send_failures", "count", "lower", ("extra", "runtime.transport.send_failures")),
    ("runtime.network.send_self_s", "s", "lower", ("self", "runtime.network.send")),
    ("runtime.network.deliver_self_s", "s", "lower", ("self", "runtime.network.deliver")),
    ("runtime.network.dropped", "count", "lower", ("calls", "runtime.network.drop")),
    ("runtime.scheduler.callbacks", "count", "lower", ("calls", "runtime.scheduler.callback")),
    ("runtime.scheduler.self_s", "s", "lower", ("self",) + LAYER_SPANS["runtime.scheduler"]),
    ("runtime.scheduler.lag_p50_ms", "ms", "lower", ("extra", "runtime.scheduler.lag_p50_ms")),
    ("runtime.scheduler.lag_p99_ms", "ms", "lower", ("extra", "runtime.scheduler.lag_p99_ms")),
    ("runtime.scheduler.round_completion", "ratio", "higher", ("extra", "runtime.scheduler.round_completion")),
    ("runtime.host.publish_self_s", "s", "lower", ("self", "runtime.host.publish")),
    ("runtime.host.delivery_cb_self_s", "s", "lower", ("self", "runtime.host.delivery_cb")),
    ("gen.lateness_p99_ms", "ms", "lower", ("extra", "gen.lateness_p99_ms")),
    ("gen.achieved_ratio", "ratio", "higher", ("extra", "gen.achieved_ratio")),
    ("trace.root_s", "s", "lower", ("extra", "trace.root_s")),
    ("trace.untraced_self_s", "s", "lower", ("self", ROOT)),
    ("trace.idle_s", "s", "lower", ("extra", "trace.idle_s")),
    ("trace.span_cost_s", "s", "lower", ("self", "span_cost")),
    ("trace.overhead_ratio", "ratio", "lower", ("extra", "trace.overhead_ratio")),
]


def per_layer_metrics(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every ``PER_LAYER`` metric as ``{name: {"value", "unit"}}`` (0 where a layer is bypassed)."""
    report = tracer.report()
    metrics: Dict[str, Dict[str, object]] = {}
    for name, unit, _better, how in PER_LAYER:
        kind, keys = how[0], how[1:]
        if kind == "self":
            value = sum(report[key]["self_s"] for key in keys if key in report)
        elif kind == "calls":
            value = sum(report[key]["calls"] for key in keys if key in report)
        elif kind == "count":
            value = tracer.final_counts.get(keys[0], 0)
        else:
            value = extras.get(keys[0], 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_shares(tracer: Tracer, idle_s: float = 0.0) -> Dict[str, float]:
    """Each layer's share of the busy time (root minus idle minus wrapper cost)."""
    report = tracer.report()
    busy = report[ROOT]["self_s"] - idle_s
    shares = {"untraced": busy}
    for layer, spans in LAYER_SPANS.items():
        shares[layer] = sum(report[span]["self_s"] for span in spans if span in report)
    total = sum(shares.values())
    return {layer: (value / total if total > 0 else 0.0) for layer, value in shares.items()}


def self_time_residual(tracer: Tracer) -> float:
    """``|sum of all self times - root duration| / root duration`` (must stay under 1 %)."""
    report = tracer.report()
    total = sum(entry["self_s"] for entry in report.values())
    root = tracer.root_ns / 1e9
    return abs(total - root) / root if root else 0.0
