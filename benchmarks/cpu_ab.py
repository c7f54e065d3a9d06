"""CPU time of one simulator workload: this checkout against another, in one process.

    python3 benchmarks/cpu_ab.py --parent <checkout> --workload sim-scale-push --seed 4099 --pairs 10
    make cpu-ab PARENT=<checkout> W=sim-scale-push SEED=4099 N=10

Separate processes on a shared host drift between speeds, so this times both
sides in one interpreter.  Both ``src/repro`` trees are copied into a
temporary directory as two renamed packages (``repro_parent`` and
``repro_change``; the package imports itself only relatively), and the
workload's configs are built in each from
``perfbench.workloads.build_inputs(W, S)["runs"]``.  After one untimed pass
per side, each pair runs one whole pass of ``run_experiment`` over those
configs on each side, the side that goes first alternating, timed with
``time.process_time()``; the two passes of a pair must give the same result
digest.  The summary gives the median change/parent ratio, its quartiles (the
way ``perfbench/stats.py`` computes them) and the number of pairs in which
this checkout was faster.

A run carrying a ``crash_order`` (``sim-lazy-domains-faults``) gets
perfbench's crash wave, built in each side's package as
``perfbench/child.py:_sim_configs`` builds it.  The ``live-*`` workloads are
refused.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from typing import List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)  # perfbench

from perfbench.stats import quartiles  # noqa: E402
from perfbench.workloads import build_inputs  # noqa: E402

SIDES = ("change", "parent")


def load_side(side: str, checkout: str, scratch: str):
    """Copy ``checkout``'s ``src/repro`` to ``scratch/repro_<side>`` and import it."""
    name = f"repro_{side}"
    shutil.copytree(os.path.join(checkout, "src", "repro"), os.path.join(scratch, name))
    return importlib.import_module(name)


def build_configs(package, runs: List[dict]) -> list:
    """``perfbench/child.py:_sim_configs`` against ``package``: the scenario
    with its overrides, plus the crash wave of a run carrying a ``crash_order``."""
    name = package.__name__
    get_scenario = importlib.import_module(name + ".experiments").get_scenario
    stack_spec = importlib.import_module(name + ".registry").StackSpec
    compile_domain_map = importlib.import_module(name + ".topology").compile_domain_map
    configs = []
    for run in runs:
        config = get_scenario(run["scenario"]).config.with_overrides(**run["overrides"])
        if "crash_order" in run:
            spec = stack_spec.from_config(config)
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


def timed_pass(package, configs: list):
    """One pass of every config; ``(cpu seconds, digest of the results)``."""
    run_experiment = importlib.import_module(package.__name__ + ".experiments").run_experiment
    gc.collect()
    started = time.process_time()
    results = [run_experiment(config) for config in configs]
    cpu = time.process_time() - started
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")).encode())
    return cpu, digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    inputs = build_inputs(args.workload, args.seed)
    if inputs["kind"] != "sim":
        parser.error(f"{args.workload} is a live workload; only sim-* workloads run in one process")
    checkouts = {"change": _ROOT, "parent": os.path.abspath(args.parent)}
    with tempfile.TemporaryDirectory(prefix="cpu-ab-") as scratch:
        sys.path.insert(0, scratch)
        packages = {side: load_side(side, checkouts[side], scratch) for side in SIDES}
        configs = {side: build_configs(packages[side], inputs["runs"]) for side in SIDES}
        # One untimed pass per side first: it loads (and compiles) the modules
        # a run imports lazily, which the timed passes must not pay for.
        for side in SIDES:
            timed_pass(packages[side], configs[side])
        ratios: List[float] = []
        wins = 0
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            cpu, digests = {}, {}
            for side in order:
                cpu[side], digests[side] = timed_pass(packages[side], configs[side])
            if digests["change"] != digests["parent"]:
                sys.exit(f"pair {pair + 1}: the two sides give different results; this is not a pure speed-up")
            ratios.append(cpu["change"] / cpu["parent"])
            wins += cpu["change"] < cpu["parent"]
            print(
                f"pair {pair + 1:>2} ({order[0]} first): change {cpu['change']:.3f} s, "
                f"parent {cpu['parent']:.3f} s, ratio {ratios[-1]:.3f}",
                flush=True,
            )
    q1, median, q3 = quartiles(ratios)
    print(f"\n{args.workload} seed {args.seed}, process CPU per pass over {args.pairs} pairs, equal digests")
    print(
        f"change/parent median ratio {median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}]; "
        f"change faster in {wins} of {args.pairs} pairs"
    )


if __name__ == "__main__":
    main()
