PYTHON ?= python
export PYTHONPATH := src

.PHONY: test startup-smoke bench bench-smoke bench-metrics bench-faults bench-lazy bench-trace bench-domains bench-campaign bench-scale bench-scale-quick perfbench perfbench-quick rss-ab cpu-ab census serve-smoke loadgen-smoke serve-scenario-smoke registry-smoke report-smoke parity-smoke fault-smoke lazy-smoke trace-smoke domains-smoke campaign-smoke fingerprint fingerprint-diff clean-cache

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

# Short open-loop load runs against a live cluster: the memory transport, then
# real UDP sockets on loopback (the grep wants every datagram decoded; UDP may
# lose some, so no delivery ratio is asserted).
loadgen-smoke:
	$(PYTHON) -m repro loadgen --set nodes=10 --transport memory --duration 2 --rate 300 --drain 0.5
	$(PYTHON) -m repro loadgen --set nodes=8 --transport udp --duration 1 --rate 100 --drain 0.3 | grep -E " 0 decode errors"

# Registry/StackSpec sanity: list, describe, then run a registered scenario
# live on the memory transport — once as gossip, once as a non-gossip baseline.
# The smoke scenario also runs on the two membership kinds no scenario
# declares (lpbcast at 48 nodes, so its 25-entry view fills and truncates;
# the full view) and with a 4-entry gossip buffer, so the buffer evicts; every
# structured baseline takes subscribe / unsubscribe churn.  A swept value
# outside its field's declared bound is refused in one line before any point
# is computed (the output is that line and nothing else).
registry-smoke:
	$(PYTHON) -m repro list-scenarios
	$(PYTHON) -m repro describe smoke
	$(PYTHON) -m repro run smoke --no-cache --set membership.kind=lpbcast --set nodes=48
	$(PYTHON) -m repro run smoke --no-cache --set membership.kind=full
	$(PYTHON) -m repro run smoke --no-cache --set system.buffer_capacity=4
	$(PYTHON) -m repro compare subscription-churn --no-cache --systems scribe,splitstream,dks,brokers,dam
	test "$$($(PYTHON) -m repro sweep smoke --no-cache --param topology.cross_loss --values 0,3 2>&1)" \
		= "service 'sweep': topology.cross_loss must be within [0, 1], got 3.0"

# Then every other registered system crosses the wire once, so each payload
# class of the runtime wire table is encoded and decoded end to end (the
# grep wants half of the interested pairs delivered and not one frame that
# failed to decode).
serve-scenario-smoke: registry-smoke
	$(PYTHON) -m repro serve --scenario smoke --transport memory --duration 2 --rate 200 --drain 0.5 \
		| grep -E " 0 decode errors"
	$(PYTHON) -m repro serve --scenario smoke --set system.buffer_capacity=4000 \
		--set system.selection_strategy=least-forwarded --transport memory --duration 1 --rate 200 --drain 0.5 \
		| grep -E " 0 decode errors"
	$(PYTHON) -m repro describe live | grep -F "system.selection_strategy = 'least-forwarded'"
	$(PYTHON) -m repro serve --scenario smoke --set system.kind=brokers --transport memory --duration 1 --rate 100 --drain 0.5 \
		| grep -E " 0 decode errors"
	for kind in fair-gossip pushpull-gossip lazy-push scribe splitstream dks dam; do \
		$(PYTHON) -m repro serve --scenario smoke --set system.kind=$$kind --transport memory --duration 0.5 --rate 100 --drain 0.3 \
			| grep -E "delivery ratio (0\.[5-9]|1\.).* 0 decode errors" || exit 1; \
	done

# Telemetry + report round trip: run a scenario with a JSON-lines snapshot
# sink and a result artifact, then render tables from both — and from a cache
# entry, a live cluster's snapshot stream and a loadgen --json artifact —
# without re-running anything.  The CSV and Prometheus sinks write once too.
report-smoke:
	$(PYTHON) -m repro run smoke --no-cache --telemetry jsonl:out/smoke_metrics.jsonl --json out/smoke_results.json
	$(PYTHON) -m repro run smoke --no-cache --telemetry csv:out/smoke_metrics.csv --telemetry prom:out/smoke_metrics.prom
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
# report; churn on every structured baseline, whose crash and recover hooks
# repair their trees and groups), then the SAME fault plan JSON driving a
# simulated run and a short live cluster (memory transport).
fault-smoke:
	$(PYTHON) -m repro run smoke-churn --no-cache --set faults.partition.at=2 --set faults.partition.heal_after=2
	$(PYTHON) -m repro compare churn --no-cache --systems scribe,splitstream,dks,brokers,dam
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
# be served entirely from the cache the campaign just filled.  The paper
# campaign (the grids the figure benches read) is only planned and inspected:
# a broken spec fails here without running its points.  It is the one real
# spec with SEQ, ONE and an `after` edge on a target: its plan renders all 14
# targets and skips headline-quick, the unchosen ONE alternative.
campaign-smoke:
	$(PYTHON) -m repro campaign examples/paper_campaign.json --dry-run --no-cache | grep -cw render | grep -x 14
	$(PYTHON) -m repro campaign examples/paper_campaign.json --dry-run --no-cache | grep -E "^headline-quick +skip"
	$(PYTHON) -m repro campaign status examples/paper_campaign.json --no-cache
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

# Scale curve: writes the "result" rows of BENCH_scale.json (fig4-push, lazy
# push and fig1 on scribe / dam against nodes, fig3-expressive against
# publication rate; one child process per row, ~4 min).  PARENT=<checkout> measures that
# checkout too, as the "parent" rows, alternating the side that goes first
# point by point.  The quick size (~5 s, what CI runs) only checks the schema.
bench-scale:
	$(PYTHON) benchmarks/bench_scale.py $(if $(PARENT),--parent $(PARENT))

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

# Peak RSS of one perfbench workload against another checkout (a git clone
# of the parent): N alternating pairs of `perfbench/run.py --trace 0`, each
# side's median and quartiles, and how many pairs this checkout won (~40 s a
# pair).  make rss-ab PARENT=<dir> W=sim-structured SEED=4099 N=10
W ?= sim-structured
SEED ?= 4099
N ?= 10

rss-ab:
	test -n "$(PARENT)" || { echo "usage: make rss-ab PARENT=<checkout> [W=...] [SEED=...] [N=...]"; exit 2; }
	$(PYTHON) benchmarks/rss_ab.py --parent $(PARENT) --workload $(W) --seed $(SEED) --pairs $(N)

# CPU time of one sim-* workload against another checkout, in one process so
# that host drift hits both sides alike (benchmarks/cpu_ab.py): N alternating
# pairs of whole run_experiment passes at equal result digests, the median
# change/parent ratio, its quartiles and the pairs won (~5 s a pair, ~1 min
# for ten pairs of sim-scale-push).  make cpu-ab PARENT=<dir> W=sim-scale-push SEED=4099 N=10
cpu-ab:
	test -n "$(PARENT)" || { echo "usage: make cpu-ab PARENT=<checkout> [W=...] [SEED=...] [N=...]"; exit 2; }
	$(PYTHON) benchmarks/cpu_ab.py --parent $(PARENT) --workload $(W) --seed $(SEED) --pairs $(N)

# Call census (~10-15 min, not in CI): every *-smoke target above, fingerprint,
# bench-scale-quick, perfbench-quick, the examples and the benchmarks run in a
# scratch copy of the tree with a call hook; rewrites the tracked CENSUS.txt,
# one src/repro/<module>.py:<qualname> line per function none of them ran
# (benchmarks/census.py).
census:
	$(PYTHON) benchmarks/census.py

# Behaviour fingerprint (~8 s): the --json / --telemetry / --trace files of
# six scenarios (gossip, lazy recovery under loss, domains, expressive
# filters, churn, partitions) and their sha256 sums.  Run it at two commits
# and diff the printed sums: a change that keeps behaviour leaves all 18.
FINGERPRINT_SCENARIOS := smoke smoke-lazy smoke-domains fig3-expressive smoke-churn smoke-partition

fingerprint:
	rm -rf out/fingerprint && mkdir -p out/fingerprint
	for scenario in $(FINGERPRINT_SCENARIOS); do \
		$(PYTHON) -m repro run $$scenario --no-cache --json out/fingerprint/$$scenario.json \
			--telemetry jsonl:out/fingerprint/$$scenario.telemetry.jsonl \
			--trace out/fingerprint/$$scenario.trace.jsonl > /dev/null || exit 1; \
	done
	cd out/fingerprint && LC_ALL=C sha256sum *

# The fingerprint against another checkout (a git clone of the parent): the
# 18 sums of both trees, each written by this Makefile in its own tree, then
# diffed; fails on any difference (~20 s).  make fingerprint-diff PARENT=<dir>
fingerprint-diff:
	test -n "$(PARENT)" || { echo "usage: make fingerprint-diff PARENT=<checkout>"; exit 2; }
	mkdir -p out
	$(MAKE) -s --no-print-directory -C $(PARENT) -f $(CURDIR)/Makefile fingerprint > out/fingerprint-parent.sha256
	$(MAKE) -s --no-print-directory fingerprint > out/fingerprint-change.sha256
	diff out/fingerprint-parent.sha256 out/fingerprint-change.sha256
	echo "fingerprint-diff: $$(wc -l < out/fingerprint-change.sha256) sums identical to $(PARENT)"

# BENCH_metrics_overhead.json is tracked (it seeds the perf trajectory), so
# clean-cache leaves it alone; re-run `make bench-metrics` to refresh it.
clean-cache:
	rm -rf .repro-cache .ci-cache out perfbench-results.json
