"""Peak RSS of one perfbench workload: this checkout against another, in alternating pairs.

    python3 benchmarks/rss_ab.py --parent <checkout> --workload sim-structured --seed 4099 --pairs 10
    make rss-ab PARENT=<checkout> W=sim-structured SEED=4099 N=10

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once from
the root of each checkout, the side that goes first alternating from pair to
pair, and reads ``metrics.peak_rss_mb.value`` from the last line the run
prints.  The summary gives each side's median and quartiles (the way
``perfbench/stats.py`` computes them) and the number of pairs in which this
checkout used less memory.  A run takes about as long as the workload's
``run_seconds`` in ``BENCHMARK.json`` plus its set-up samples (~20 s).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)  # perfbench

from perfbench.stats import quartiles  # noqa: E402


def peak_rss_mb(checkout: str, workload: str, seed: int) -> float:
    """One driver-protocol run from ``checkout``'s root; its ``peak_rss_mb``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"
    ]
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=True,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    last_line = completed.stdout.strip().splitlines()[-1]
    return float(json.loads(last_line)["metrics"]["peak_rss_mb"]["value"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"change": _ROOT, "parent": os.path.abspath(args.parent)}
    values: Dict[str, List[float]] = {"change": [], "parent": []}
    wins = 0
    for pair in range(args.pairs):
        order = ("change", "parent") if pair % 2 == 0 else ("parent", "change")
        for side in order:
            values[side].append(peak_rss_mb(sides[side], args.workload, args.seed))
        change, parent = values["change"][-1], values["parent"][-1]
        wins += change < parent
        print(f"pair {pair + 1:>2} ({order[0]} first): change {change:.2f} MB, parent {parent:.2f} MB", flush=True)
    print(f"\n{args.workload} seed {args.seed}, peak_rss_mb over {args.pairs} pairs")
    for side in ("parent", "change"):
        q1, median, q3 = quartiles(values[side])
        print(f"{side:<7} median {median:.2f} MB  [q1 {q1:.2f}, q3 {q3:.2f}]")
    parent_median = quartiles(values["parent"])[1]
    change_median = quartiles(values["change"])[1]
    print(
        f"change/parent median {change_median / parent_median - 1:+.2%}; "
        f"change lower in {wins} of {args.pairs} pairs"
    )


if __name__ == "__main__":
    main()
