PYTHON ?= python
export PYTHONPATH := src

.PHONY: test startup-smoke bench bench-smoke bench-metrics bench-faults bench-lazy bench-trace bench-domains bench-campaign bench-scale bench-scale-quick perfbench perfbench-quick serve-smoke loadgen-smoke serve-scenario-smoke registry-smoke report-smoke parity-smoke fault-smoke lazy-smoke trace-smoke domains-smoke campaign-smoke clean-cache

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ -q

# The *-smoke targets are what CI runs (.github/workflows/ci.yml calls them by
# name); a `| grep` is the target's assertion about the output.

# Cold start: every subcommand's parser builds (a broken import in a CLI
# module fails here), and list-scenarios loads no runtime module but the
# runtime CLI, no campaign executor and no multiprocessing (the grep names
# any such module `python -X importtime` saw imported).
startup-smoke:
	for command in run sweep compare list-scenarios describe report trace campaign serve loadgen; do \
		$(PYTHON) -m repro $$command --help > /dev/null || exit 1; \
	done
	$(PYTHON) -m repro list-scenarios > /dev/null
	! $(PYTHON) -X importtime -m repro list-scenarios 2>&1 > /dev/null \
		| grep -E "\| +(multiprocessing|repro\.campaign\.executor|repro\.runtime\.[a-z_]+)$$" \
		| grep -v "repro\.runtime\.cli$$"

# Fast end-to-end check of the orchestration layer: parallel sweep, then the
# same sweep again served entirely from the cache.
bench-smoke:
	$(PYTHON) -m repro sweep smoke --param system.fanout --values 2,4 --workers 2 --cache-dir .ci-cache
	$(PYTHON) -m repro sweep smoke --param system.fanout --values 2,4 --workers 2 --cache-dir .ci-cache | grep "cache hits: 2"

# Metrics hot-path overhead: writes BENCH_metrics_overhead.json
# (ns/record of the streaming telemetry histogram, observe and all-in).
bench-metrics:
	$(PYTHON) -m pytest benchmarks/bench_metrics_overhead.py -q -s

# Short live cluster run with the embedded load generator (memory transport).
serve-smoke:
	$(PYTHON) -m repro serve --set nodes=25 --transport memory --duration 5

# Short open-loop load run against a live cluster (memory transport).
loadgen-smoke:
	$(PYTHON) -m repro loadgen --set nodes=10 --transport memory --duration 2 --rate 300 --drain 0.5

# Registry/StackSpec sanity: list, describe, then run a registered scenario
# live on the memory transport — once as gossip, once as a non-gossip baseline.
registry-smoke:
	$(PYTHON) -m repro list-scenarios
	$(PYTHON) -m repro describe smoke

# Then every other registered system crosses the wire once, so each payload
# class of the runtime wire table is encoded and decoded end to end (a kind
# whose frames failed to decode would be dropped: the grep wants half of the
# interested pairs delivered).
serve-scenario-smoke: registry-smoke
	$(PYTHON) -m repro serve --scenario smoke --transport memory --duration 2 --rate 200 --drain 0.5
	$(PYTHON) -m repro serve --scenario smoke --set system.kind=brokers --transport memory --duration 1 --rate 100 --drain 0.5
	for kind in fair-gossip pushpull-gossip lazy-push scribe splitstream dks dam; do \
		$(PYTHON) -m repro serve --scenario smoke --set system.kind=$$kind --transport memory --duration 0.5 --rate 100 --drain 0.3 \
			| grep -E "delivery ratio (0\.[5-9]|1\.)" || exit 1; \
	done

# Telemetry + report round trip: run a scenario with a JSON-lines snapshot
# sink and a result artifact, then render tables from both — and from a cache
# entry, a live cluster's snapshot stream and a loadgen --json artifact —
# without re-running anything.
report-smoke:
	$(PYTHON) -m repro run smoke --no-cache --telemetry jsonl:out/smoke_metrics.jsonl --json out/smoke_results.json
	$(PYTHON) -m repro report out/smoke_metrics.jsonl
	$(PYTHON) -m repro report out/smoke_results.json
	$(PYTHON) -m repro run smoke --cache-dir out/cache
	$(PYTHON) -m repro report $$(ls out/cache/*/*.json | head -n 1) | grep "delivery latency"
	$(PYTHON) -m repro serve --scenario smoke --transport memory --duration 2 --rate 100 --drain 0.5 --telemetry jsonl:out/live_metrics.jsonl
	$(PYTHON) -m repro report out/live_metrics.jsonl
	$(PYTHON) -m repro loadgen --set nodes=8 --transport memory --duration 1 --rate 100 --drain 0.3 --json out/rt.json
	$(PYTHON) -m repro report out/rt.json | grep "runtime artifact"

# One run record under both engines: a live run of a topic-policy scenario
# is judged under that policy, and its snapshot stream carries the per-node
# fairness gauges `repro report` builds the fairness table from.
parity-smoke:
	$(PYTHON) -m repro serve --scenario fig2-topic --transport memory --duration 2 --rate 100 --drain 0.5 --telemetry jsonl:out/parity_live.jsonl | grep "under topic-based policy"
	$(PYTHON) -m repro report out/parity_live.jsonl | grep "fairness at t="

# Fault-injection round trip: the registered fault scenarios on the
# simulator (churn + a mid-run partition, with a fault timeline in the
# report), then the SAME fault plan JSON driving a simulated run and a
# short live cluster (memory transport).
fault-smoke:
	$(PYTHON) -m repro run smoke-churn --no-cache --set faults.partition.at=2 --set faults.partition.heal_after=2
	$(PYTHON) -m repro run smoke-partition --no-cache --telemetry jsonl:out/fault_metrics.jsonl
	$(PYTHON) -m repro report out/fault_metrics.jsonl | grep "fault timeline"
	$(PYTHON) -m repro run smoke --no-cache --fault examples/fault_plan.json
	$(PYTHON) -m repro serve --scenario smoke --fault examples/fault_plan.json --transport memory --duration 3 --rate 200 --drain 0.5

# Fault-layer overhead: writes BENCH_fault_overhead.json (an active-but-idle
# FaultController must stay <5% plus the measured noise floor on smoke at
# 1024 nodes, physics untouched).
bench-faults:
	$(PYTHON) -m pytest benchmarks/bench_fault_overhead.py -q -s

# Two-phase lazy broadcast round trip: the lossy smoke scenario on the
# simulator (recovery table in the report), then the same loss plan driving
# a simulated run and a short live cluster speaking the lazy wire kinds.
lazy-smoke:
	$(PYTHON) -m repro run smoke-lazy --no-cache --telemetry jsonl:out/lazy_metrics.jsonl
	$(PYTHON) -m repro report out/lazy_metrics.jsonl | grep "lazy recovery"
	$(PYTHON) -m repro run smoke-lazy --no-cache --fault examples/loss_plan.json
	$(PYTHON) -m repro serve --scenario smoke-lazy --fault examples/loss_plan.json --transport memory --duration 3 --rate 200 --drain 1

# Lazy-push vs plain push under FaultPlan loss/partition: writes
# BENCH_lazy_recovery.json (reliability per byte; lazy must win under loss).
bench-lazy:
	$(PYTHON) -m pytest benchmarks/bench_lazy_recovery.py -q -s

# Dissemination-tracing round trip: trace every event of the lossy lazy
# scenario, render the infection trees and the trace aggregates, then trace
# a short live cluster to confirm contexts survive the wire.
trace-smoke:
	$(PYTHON) -m repro run smoke-lazy --no-cache --trace out/lazy_trace.jsonl
	$(PYTHON) -m repro trace out/lazy_trace.jsonl | grep "trace aggregates"
	$(PYTHON) -m repro report out/lazy_trace.jsonl
	$(PYTHON) -m repro serve --scenario smoke-lazy --transport memory --duration 3 --rate 200 --drain 1 --trace out/live_trace.jsonl
	$(PYTHON) -m repro trace out/live_trace.jsonl --max-events 1

# Tracing hot-path overhead: writes BENCH_trace_overhead.json (a rate-0
# tracer must stay <1% on smoke-lazy at 768 nodes, physics byte-identical at
# every rate).
bench-trace:
	$(PYTHON) -m pytest benchmarks/bench_trace_overhead.py -q -s

# Multi-domain topology round trip: the 4-domain scenario with its
# domain-partition fault (per-domain table in the report), the same geo
# matrix loaded from a --topology file on the simulator and a live cluster,
# and the bridge hops visible in a trace.
domains-smoke:
	$(PYTHON) -m repro run smoke-domains --no-cache --telemetry jsonl:out/domain_metrics.jsonl
	$(PYTHON) -m repro report out/domain_metrics.jsonl | grep "per-domain deliveries"
	$(PYTHON) -m repro run smoke --no-cache --topology examples/geo_topology.json
	$(PYTHON) -m repro serve --scenario smoke --topology examples/geo_topology.json --transport memory --duration 3 --rate 200 --drain 0.5
	$(PYTHON) -m repro run smoke-domains --no-cache --trace out/domain_trace.jsonl
	$(PYTHON) -m repro trace out/domain_trace.jsonl --max-events 1

# Intra- vs cross-domain delivery at 2/4/8 domains under a domain partition:
# writes BENCH_domains.json (cross-domain delivery must survive the heal).
bench-domains:
	$(PYTHON) -m pytest benchmarks/bench_domains.py -q -s

# Campaign round trip: run the two-target mini campaign cold, then warm
# (the second pass must be 100% cache hits), inspect staleness, and render
# the run manifest through the report CLI.  The sweep/compare lines are
# one-service campaigns over the mini campaign's own services, so they must
# be served entirely from the cache the campaign just filled.
campaign-smoke:
	$(PYTHON) -m repro campaign examples/mini_campaign.json --cache-dir .ci-cache --out-dir out/campaign/mini
	$(PYTHON) -m repro sweep smoke --param system.fanout --values 2,3 --cache-dir .ci-cache | grep "cache hits: 2"
	$(PYTHON) -m repro compare smoke --systems gossip,fair-gossip --cache-dir .ci-cache | grep "cache hits: 2"
	$(PYTHON) -m repro campaign examples/mini_campaign.json --cache-dir .ci-cache --out-dir out/campaign/mini | grep "computed: 0"
	$(PYTHON) -m repro campaign status examples/mini_campaign.json --cache-dir .ci-cache
	$(PYTHON) -m repro report out/campaign/mini/manifest.json

# Campaign incrementality: writes BENCH_campaign.json (cold vs warm wall
# time and the warm per-point scheduling overhead; warm computes nothing).
bench-campaign:
	$(PYTHON) -m pytest benchmarks/bench_campaign.py -q -s

# Scale curve: writes the "result" rows of BENCH_scale.json (fig4-push against
# nodes, fig3-expressive against publication rate; one child process per row,
# ~1.5 min).  The quick size (~5 s, what CI runs) only checks the schema.
bench-scale:
	$(PYTHON) benchmarks/bench_scale.py

bench-scale-quick:
	$(PYTHON) benchmarks/bench_scale.py --quick

# The performance yardstick (perfbench/README.md): six end-to-end workloads,
# three runs each plus one traced run for the per-layer numbers (24 runs of
# ~20 s).  perfbench patches ~140 attributes of src/repro by name; the quick
# traced run (~1 min, what CI runs) is what notices a rename that broke one.
perfbench:
	$(PYTHON) perfbench/run.py --traced

perfbench-quick:
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) perfbench/run.py --quick --traced --reps 1

# BENCH_metrics_overhead.json is tracked (it seeds the perf trajectory), so
# clean-cache leaves it alone; re-run `make bench-metrics` to refresh it.
clean-cache:
	rm -rf .repro-cache .ci-cache out perfbench-results.json
