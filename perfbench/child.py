"""One workload, measured in one fresh single-threaded process.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  It generates the workload's inputs
from the seed, hands them to the program's public API, measures, checks the
outputs, and prints one JSON object as the last line of its standard output.

Simulator workloads time whole ``run_experiment`` calls, repeated with the
same inputs until ``--seconds`` of measurement have passed (at least twice,
so that the result digest can be compared across repetitions).  Live
workloads drive a ``NodeHost`` with an open-loop generator for ``--seconds``
(the last :data:`~perfbench.workloads.LIVE_DRAIN_SECONDS` of which only
listen) and time every delivery from the moment its event was *due*.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: the script directory would put perfbench/trace.py in
    # front of the standard library's ``trace``; import perfbench as a
    # package from the root instead, and the program from src/.
    sys.path[0] = str(ROOT_DIR)
    sys.path.insert(1, str(ROOT_DIR / "src"))

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from perfbench import layers, stats, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

#: Raw spans kept per traced run for the span dump.
SPAN_DUMP_LIMIT = 2000


def _import_program() -> float:
    """Import the program; returns how long that took (it is part of set-up)."""
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.runtime  # noqa: F401

    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _new_tracer() -> Tracer:
    tracer = Tracer(dump_limit=SPAN_DUMP_LIMIT)
    tracer.calibrate()
    return tracer


# ===================================================================== sim


def _sim_configs(inputs: Dict[str, object]) -> list:
    """Turn the generated inputs into the program's config objects."""
    from repro.experiments import get_scenario
    from repro.registry import StackSpec
    from repro.topology import compile_domain_map

    configs = []
    for run in inputs["runs"]:
        config = get_scenario(run["scenario"]).config.with_overrides(**run["overrides"])
        if "crash_order" in run:
            spec = StackSpec.from_config(config)
            bridges = set(compile_domain_map(spec.topology, config.node_ids()).bridge_nodes())
            victims = tuple(
                sorted([node for node in run["crash_order"] if node not in bridges][: run["crash_victims"]])
            )
            wave = (
                (("kind", "crash"), ("at", 4.0), ("nodes", victims)),
                (("kind", "recover"), ("at", 7.0), ("nodes", victims)),
            )
            config = config.with_overrides(fault_plan=config.fault_plan + wave)
        configs.append(config)
    return configs


def _sim_setup(configs: list) -> None:
    """What a user pays before the first simulated event: build every stack once."""
    from repro.experiments.scenarios import build_interest, build_popularity, build_simulation, build_system
    from repro.telemetry import Telemetry

    for config in configs:
        simulator, network = build_simulation(config)
        popularity = build_popularity(config)
        system = build_system(config, simulator, network, popularity=popularity, telemetry=Telemetry())
        interest = build_interest(config, popularity).assign(
            list(config.node_ids()), simulator.rng.stream("experiment-interest")
        )
        interest.apply(system)


def _check_sim_result(result) -> Dict[str, object]:
    """Digest, exact counts and delivery invariants of one finished experiment."""
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    system = result.system
    events = {event.event_id: event for event in result.published_events}
    unsubscribed = 0
    seen = set()
    repeated = 0
    for record in system.delivery_log.ordered_records():
        key = (record.node_id, record.event_id)
        if key in seen:
            repeated += 1
        seen.add(key)
        event = events.get(record.event_id)
        filters = result.interest.filters_of(record.node_id)
        if event is None or not any(candidate.matches(event) for candidate in filters):
            unsubscribed += 1
    # The log drops repeats silently, the ledger does not: a node that
    # delivered twice shows up as a ledger total above the log's.
    repeated += max(0, int(system.ledger.totals().events_delivered) - len(seen))
    snapshot = result.final_snapshot
    return {
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "attempted_pairs": sum(entry.interested for entry in result.reliability.events),
        "delivered_pairs": sum(entry.delivered for entry in result.reliability.events),
        "published": len(result.published_events),
        "deliveries": int(result.total_deliveries),
        "messages": int(system.network.stats.sent),
        "engine_events": int(system.simulator.processed_events),
        "unsubscribed": unsubscribed,
        "repeated": repeated,
        "lazy_recovered": snapshot.counter_total("lazy.recoveries"),
        "bridge_relayed": snapshot.counter_total("bridge.relayed"),
        "bridge_absorbed": snapshot.counter_total("bridge.absorbed"),
        "bridge_duplicate": snapshot.counter_total("bridge.duplicate"),
    }


_SUMMED = (
    "attempted_pairs", "delivered_pairs", "published", "deliveries", "messages", "engine_events",
    "unsubscribed", "repeated", "lazy_recovered", "bridge_relayed", "bridge_absorbed", "bridge_duplicate",
)


def _sim_pass(configs: list) -> Dict[str, object]:
    """One timed pass: every config of the workload through ``run_experiment`` once."""
    from repro.experiments import run_experiment

    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    results = [run_experiment(config, keep_system=True) for config in configs]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    checks = [_check_sim_result(result) for result in results]
    out: Dict[str, object] = {key: sum(check[key] for check in checks) for key in _SUMMED}
    out["digest"] = hashlib.sha256("".join(check["digest"] for check in checks).encode()).hexdigest()
    out["wall_s"] = wall
    out["cpu_s"] = cpu
    return out


def run_sim(inputs: Dict[str, object], args, import_s: float) -> Dict[str, object]:
    configs = _sim_configs(inputs)
    _sim_setup(configs)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}

    passes: List[Dict[str, object]] = []
    started = time.perf_counter()
    while True:
        passes.append(_sim_pass(configs))
        enough = time.perf_counter() - started >= args.seconds and len(passes) >= 2
        if enough or args.trace:
            break
    first = passes[0]
    problems: List[str] = []
    out = _result_header(inputs, args)
    if args.trace:
        tracer = _new_tracer()
        layers.install(tracer)
        try:
            tracer.start()
            traced = _sim_pass(configs)
            tracer.stop()
        finally:
            tracer.uninstall()
        passes.append(traced)  # same inputs: its digest must match too
        if tracer.report()["sim.engine.step"]["calls"] != first["engine_events"]:
            problems.append("traced engine event count differs from the simulator's own")
        absorbed = tracer.final_counts.get("gossip.absorb", 0)
        duplicates = traced["bridge_duplicate"]
        extras = {
            "experiments.import_s": import_s,
            "gossip.first_sight_ratio": tracer.final_counts.get("gossip.absorb.true", 0) / absorbed if absorbed else 0.0,
            "gossip.lazy.recovered": traced["lazy_recovered"],
            "topology.bridge_relays": traced["bridge_relayed"],
            "topology.bridge_duplicate_ratio": (
                duplicates / (duplicates + traced["bridge_absorbed"]) if duplicates else 0.0
            ),
            "trace.root_s": tracer.root_ns / 1e9,
            "trace.overhead_ratio": traced["wall_s"] / first["wall_s"],
        }
        _attach_trace(out, tracer, extras, idle_s=0.0, problems=problems)

    # Identical repetitions differ only by what the host added to them, so the
    # time of one is taken from the half the host disturbed least.
    timed = passes[:-1] if args.trace else passes
    wall_median = stats.undisturbed_median([entry["wall_s"] for entry in timed])
    cpu_median = stats.undisturbed_median([entry["cpu_s"] for entry in timed])
    delivered_share = first["delivered_pairs"] / first["attempted_pairs"]
    problems += sim_problems(passes, float(workloads.WORKLOADS[args.workload]["floor"]))
    out["end_to_end"] = {
        "setup_s": setup_s,
        "op_p50_ms": wall_median * 1000.0,
        # a handful of repetitions has no tail, and their slowest measures the host
        "op_tail_ms": wall_median * 1000.0,
        "peak_rss_mb": _peak_rss_mb(),
        "delivered_share": delivered_share,
    }
    out["extras"] = {
        "operation": "one pass of run_experiment over the workload's configs",
        "reps": len(timed),
        "op_p50_ms_all_reps": statistics.median(entry["wall_s"] for entry in timed) * 1000.0,
        "wall_s": [entry["wall_s"] for entry in timed],
        "tail_percentile": 50.0,
        "sim_digest": first["digest"],
        "sim_events_per_s": first["engine_events"] / wall_median,
        "cpu_ms_per_event": cpu_median * 1000.0 / first["published"],
        "cpu_us_per_delivery": cpu_median * 1e6 / max(1, first["deliveries"]),
        "import_s": import_s,
        **{key: first[key] for key in _SUMMED},
    }
    out["attempted"] = len(timed)
    out["failed"] = 0
    out["problems"] = problems
    out["correct"] = not problems
    return out


# ==================================================================== live

#: A live window's load is cut by due time into equal slices of about this
#: many seconds; the latency metrics are medians over the slices of each
#: slice's percentile (see ``stats.median_of_slices`` for why).  The first two
#: slices are warm-up and never measured: buffers are still filling, so an
#: event costs half of what it costs later.
LIVE_SLICE_SECONDS = 1.0
LIVE_WARMUP_SLICES = 2


def _build_host(inputs: Dict[str, object], on_delivery):
    from repro.pubsub import TopicFilter
    from repro.runtime import MemoryTransport, NodeHost, TcpTransport

    transport = MemoryTransport() if inputs["transport"] == "memory" else TcpTransport()
    host = NodeHost(
        transport,
        seed=inputs["host_seed"],
        time_scale=inputs["time_scale"],
        node_kwargs=dict(inputs["node_kwargs"]),
    )
    host.add_nodes(sorted(inputs["interest"]))
    for node_id, topics in sorted(inputs["interest"].items()):
        for topic in topics:
            host.subscribe(node_id, TopicFilter(topic))
    for node in host.nodes.values():
        node.add_delivery_callback(on_delivery)
    return host


async def _live_window(
    inputs: Dict[str, object], rate: float, load_s: float, drain_s: float, tracer: Optional[Tracer], spawned_at: float
) -> Dict[str, object]:
    """One open-loop window on a fresh host; latencies are due-time to delivery."""
    schedule = workloads.build_schedule(inputs, load_s, rate)
    interest = {node: set(topics) for node, topics in inputs["interest"].items()}
    subscribers = {
        topic: sorted(node for node, topics in interest.items() if topic in topics) for topic in inputs["topics"]
    }
    clock = time.perf_counter
    slice_count = max(2, int(load_s / LIVE_SLICE_SECONDS))
    due_of: Dict[str, float] = {}
    topic_of: Dict[str, str] = {}
    delivered = set()
    slice_of: Dict[str, int] = {}
    latencies: List[List[float]] = [[] for _ in range(slice_count)]
    state = {"due": 0.0, "topic": "", "slice": 0, "unsubscribed": 0, "repeated": 0}

    def on_delivery(node_id: str, event) -> None:
        now = clock()
        event_id = event.event_id
        # A publisher interested in its own event delivers inside publish(),
        # before publish() has returned the id: fall back to the current one.
        due = due_of.get(event_id, state["due"])
        topic = topic_of.get(event_id, state["topic"])
        key = (node_id, event_id)
        if key in delivered:
            state["repeated"] += 1
            return
        delivered.add(key)
        if topic not in interest[node_id]:
            state["unsubscribed"] += 1
        latencies[slice_of.get(event_id, state["slice"])].append(now - due)

    host = _build_host(inputs, on_delivery)
    await host.start()
    setup_s = time.time() - spawned_at

    if tracer is not None:
        tracer.start()
    gc.collect()
    cpu0 = time.process_time()
    start = clock()
    lateness: List[float] = []
    expected_pairs = 0
    refused = 0
    published = [0] * slice_count
    load_end = start + load_s
    cpu_marks = [cpu0]  # process time at every slice boundary passed so far

    for offset, publisher, topic in schedule:
        due = start + offset
        # Always yield, also when behind: the host shares this loop.
        await asyncio.sleep(max(0.0, due - clock()))
        while offset >= load_s * len(cpu_marks) / slice_count:
            cpu_marks.append(time.process_time())
        current = len(cpu_marks) - 1
        now = clock()
        if now > load_end + drain_s / 2:
            break  # hopelessly behind: the rest counts as not published
        lateness.append(now - due)
        state["due"], state["topic"], state["slice"] = due, topic, current
        try:
            event = host.publish(publisher, topic=topic, size=1)
        except Exception:  # the benchmark must survive a refusing host and count it
            refused += 1
            continue
        due_of[event.event_id] = due
        topic_of[event.event_id] = topic
        slice_of[event.event_id] = current
        expected_pairs += len(subscribers[topic])
        published[current] += 1
    await asyncio.sleep(max(0.0, load_end - clock()))
    cpu_marks.append(time.process_time())
    await asyncio.sleep(max(0.0, load_end + drain_s - clock()))
    end = clock()
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.stop()
    # An undelivered pair waited at least until the window closed.
    for event_id, topic in topic_of.items():
        for node in subscribers[topic]:
            if (node, event_id) not in delivered:
                latencies[slice_of[event_id]].append(end - due_of[event_id])
    rounds_run = sum(node.rounds_executed for node in host.nodes.values())
    rounds_due = len(host.nodes) * (end - start) * inputs["time_scale"] / inputs["node_kwargs"]["round_period"]
    transport = host.transport
    window = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "cpu_s": cpu,
        "scheduled": len(schedule),
        "published": sum(published),
        "published_by_slice": published,
        "cpu_by_slice": [later - earlier for earlier, later in zip(cpu_marks, cpu_marks[1:])],
        "refused": len(schedule) - sum(published),
        "expected_pairs": expected_pairs,
        "delivered_pairs": len(delivered),
        "unsubscribed": state["unsubscribed"],
        "repeated": state["repeated"],
        "latencies": latencies,
        "lateness": lateness,
        "round_completion": rounds_run / rounds_due if rounds_due else 0.0,
        "frames_sent": transport.frames_sent,
        "bytes_sent": transport.bytes_sent,
        "send_failures": transport.send_failures,
        "network_dropped": host.network.stats.dropped_dead + host.network.stats.dropped_partition + host.network.stats.lost,
        "scheduler_callbacks": host.scheduler.processed_events,
    }
    await host.stop()
    return window


def run_live(inputs: Dict[str, object], args, import_s: float) -> Dict[str, object]:
    rate = args.rate if args.rate else float(inputs["rate"])
    drain_s = min(workloads.LIVE_DRAIN_SECONDS, args.seconds / 4)
    budget = args.seconds / 2 if args.trace else args.seconds
    load_s = budget - drain_s
    if args.setup_only:
        load_s = drain_s = 0.0

    first = asyncio.run(_live_window(inputs, rate, load_s, drain_s, None, args.spawned_at))
    if args.setup_only:
        return {"setup_s": first["setup_s"]}
    problems: List[str] = []
    out = _result_header(inputs, args)
    if args.trace:
        tracer = _new_tracer()
        layers.install(tracer)
        try:
            traced = asyncio.run(_live_window(inputs, rate, load_s, drain_s, tracer, args.spawned_at))
        finally:
            tracer.uninstall()
        lags = sorted(lag / 1e6 for lag in tracer.final_samples.get("runtime.scheduler.lag_ns", []))
        encodes = tracer.report()["runtime.wire.encode"]["calls"]
        extras = {
            "experiments.import_s": import_s,
            "gossip.first_sight_ratio": (
                tracer.final_counts.get("gossip.absorb.true", 0) / max(1, tracer.final_counts.get("gossip.absorb", 0))
            ),
            "runtime.wire.bytes_per_frame": tracer.final_counts.get("runtime.wire.bytes", 0) / max(1, encodes),
            "runtime.transport.frames_sent": traced["frames_sent"],
            "runtime.transport.bytes_sent": traced["bytes_sent"],
            "runtime.transport.send_failures": traced["send_failures"],
            "runtime.scheduler.lag_p50_ms": stats.percentile(lags, 50.0) if lags else 0.0,
            "runtime.scheduler.lag_p99_ms": stats.percentile(lags, 99.0) if lags else 0.0,
            "runtime.scheduler.round_completion": traced["round_completion"],
            "gen.lateness_p99_ms": stats.percentile(sorted(traced["lateness"]), 99.0) * 1000.0,
            "gen.achieved_ratio": traced["published"] / traced["scheduled"],
            "trace.root_s": tracer.root_ns / 1e9,
            "trace.idle_s": max(0.0, traced["wall_s"] - traced["cpu_s"]),
            "trace.overhead_ratio": (traced["cpu_s"] / traced["published"]) / (first["cpu_s"] / first["published"]),
        }
        _attach_trace(out, tracer, extras, idle_s=extras["trace.idle_s"], problems=problems)

    # A generator that gave up (far above the knee) never opened its last
    # slices; one that published nothing at all is given the whole window as
    # its one latency.
    warmup = min(LIVE_WARMUP_SLICES, len(first["latencies"]) - 1)
    measured = [samples for samples in first["latencies"][warmup:] if samples] or [[load_s + drain_s]]
    pooled = sorted(latency for samples in measured for latency in samples)
    tail_pct = stats.tail_percentile(len(pooled))
    cpu_per_event = [
        cpu / events
        for cpu, events in zip(first["cpu_by_slice"][warmup:], first["published_by_slice"][warmup:])
        if events
    ]
    delivered_share = first["delivered_pairs"] / first["expected_pairs"]
    achieved = first["published"] / first["scheduled"]
    problems += live_problems(first, float(workloads.WORKLOADS[args.workload]["floor"]), reference_rate=not args.rate)
    out["end_to_end"] = {
        "setup_s": first["setup_s"],
        "op_p50_ms": stats.median_of_slices(measured, 50.0) * 1000.0,
        "op_tail_ms": stats.median_of_slices(measured, tail_pct) * 1000.0,
        "peak_rss_mb": _peak_rss_mb(),
        "delivered_share": delivered_share,
    }
    out["extras"] = {
        "operation": "one delivery of one event at one subscribed node, from its due time",
        "rate_eps": rate,
        "load_s": load_s,
        "drain_s": drain_s,
        "samples": len(pooled),
        "slices": len(measured),
        "tail_percentile": tail_pct,
        "op_p50_ms_pooled": stats.percentile(pooled, 50.0) * 1000.0,
        "op_tail_ms_pooled": stats.percentile(pooled, tail_pct) * 1000.0,
        "op_tail_ms_by_slice": [stats.percentile(sorted(samples), tail_pct) * 1000.0 for samples in measured],
        "cpu_ms_per_event": statistics.median(cpu_per_event) * 1000.0 if cpu_per_event else 0.0,
        "cpu_us_per_delivery": first["cpu_s"] * 1e6 / max(1, first["delivered_pairs"]),
        "cpu_utilisation": first["cpu_s"] / first["wall_s"],
        "gen.lateness_p99_ms": stats.percentile(sorted(first["lateness"]), 99.0) * 1000.0,
        "gen.achieved_ratio": achieved,
        "round_completion": first["round_completion"],
        "import_s": import_s,
        **{
            key: first[key]
            for key in (
                "scheduled", "published", "refused", "expected_pairs", "delivered_pairs", "unsubscribed",
                "repeated", "frames_sent", "bytes_sent", "send_failures", "network_dropped", "scheduler_callbacks",
            )
        },
    }
    out["attempted"] = first["scheduled"]
    out["failed"] = first["refused"] + first["send_failures"]
    out["problems"] = problems
    out["correct"] = not problems
    return out


# ================================================================== shared


def _result_header(inputs: Dict[str, object], args) -> Dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "kind": inputs["kind"],
        "quick": args.quick,
        "trace": bool(args.trace),
        "inputs_digest": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
    }


def _delivery_problems(unsubscribed: int, repeated: int, share: float, floor: float) -> List[str]:
    problems = []
    if unsubscribed:
        problems.append(f"{unsubscribed} deliveries reached a node with no matching subscription")
    if repeated:
        problems.append(f"{repeated} deliveries were made twice")
    if share < floor:
        problems.append(f"delivered_share {share:.4f} is below the workload's floor {floor}")
    return problems


def sim_problems(passes: List[Dict[str, object]], floor: float) -> List[str]:
    """The correctness gate of a simulator run: what is wrong with these passes, if anything.

    Every pass ran the same inputs (the traced one included), so every
    digest must be the same; deliveries must be subscribed, unique, and
    numerous enough for the workload.
    """
    first = passes[0]
    problems = []
    if any(entry["digest"] != first["digest"] for entry in passes):
        problems.append("sim_digest differs between runs of the same inputs (repetitions, or traced vs untraced)")
    share = first["delivered_pairs"] / first["attempted_pairs"] if first["attempted_pairs"] else 0.0
    return problems + _delivery_problems(first["unsubscribed"], first["repeated"], share, floor)


def live_problems(window: Dict[str, object], floor: float, reference_rate: bool = True) -> List[str]:
    """The correctness gate of a live window.

    At the reference rate the generator must keep up: a run in which it
    published under 98 % of its schedule is invalid, not slow.  Ladder steps
    above the knee are allowed to fall behind (they fail the ladder instead).
    """
    share = window["delivered_pairs"] / window["expected_pairs"] if window["expected_pairs"] else 0.0
    problems = _delivery_problems(window["unsubscribed"], window["repeated"], share, floor if reference_rate else 0.0)
    achieved = window["published"] / window["scheduled"] if window["scheduled"] else 0.0
    if reference_rate and achieved < 0.98:
        problems.append(f"generator fell behind: published {achieved:.3f} of the schedule (invalid, not slow)")
    return problems


def _attach_trace(out, tracer: Tracer, extras: Dict[str, float], idle_s: float, problems: List[str]) -> None:
    out["per_layer"] = layers.per_layer_metrics(tracer, extras)
    out["shares"] = layers.layer_shares(tracer, idle_s)
    out["spans"] = tracer.dump()
    residual = layers.self_time_residual(tracer)
    out["self_time_residual"] = residual
    if residual > 0.01:
        problems.append(f"per-layer self times miss the root span by {residual:.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None, help="time.time() when the parent started this process")
    parser.add_argument("--rate", type=float, default=0.0, help="override the live offered rate (ladder steps)")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    import_s = _import_program()
    inputs = workloads.build_inputs(args.workload, args.seed, quick=args.quick)
    runner = run_sim if inputs["kind"] == "sim" else run_live
    print(json.dumps(runner(inputs, args, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
