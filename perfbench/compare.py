"""Compare two perfbench results files: ``python3 perfbench/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their quartiles,
the ratio B / A (A is the base), and a verdict against the metric's bound in
``BENCHMARK.json``:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the bound,
                so nothing can be said (it is *not* "unchanged");
``better``      B's median is better than A's by more than both sides' spread;
``unchanged``   anything else.

For simulator workloads it also says whether ``sim_digest`` moved for the
seeds both files share: a speed-up of the simulator alone must leave it
untouched.  Exits non-zero on any ``worse`` row, or when ``delivered_share``
fell by more than 0.005 absolute.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0] = str(ROOT_DIR)  # see child.py

import argparse  # noqa: E402
import json  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from perfbench import stats  # noqa: E402

#: ``delivered_share`` may not fall by more than this, whatever its bound says.
DELIVERED_SHARE_ABSOLUTE = 0.005


def verdict(base: Dict[str, float], new: Dict[str, float], better: str, bound: float) -> str:
    """Classify one (workload, metric) pair from the two sides' summaries."""
    widest = max(base["spread"], new["spread"])
    if widest > bound:
        return "unresolved"
    moved = stats.worse_by(base["median"], new["median"], better)
    if moved > bound:
        return "worse"
    if moved < -widest and moved < 0:
        return "better"
    return "unchanged"


def compare(base: Dict[str, object], new: Dict[str, object], benchmark: Dict[str, object]) -> Tuple[List[str], bool]:
    """Rows to print and whether B regressed."""
    rows = [
        f"{'workload':<26}{'metric':<18}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}{'B/A':>8}  verdict"
    ]
    regressed = False
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            rows.append(f"{name:<26}(not in B)")
            continue
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            one, two = entry["end_to_end"][metric], other["end_to_end"][metric]
            outcome = verdict(one, two, spec["better"], spec["bound"])
            if metric == "delivered_share" and one["median"] - two["median"] > DELIVERED_SHARE_ABSOLUTE:
                outcome = "worse"
            regressed = regressed or outcome == "worse"
            ratio = two["median"] / one["median"] if one["median"] else float("nan")
            left = f"{one['median']:.4f} [{one['q1']:.4f}, {one['q3']:.4f}]"
            right = f"{two['median']:.4f} [{two['q1']:.4f}, {two['q3']:.4f}]"
            rows.append(
                f"{name:<26}{metric:<18}{left:>34}{right:>34}{ratio:>8.3f}"
                f"  {outcome} (bound {spec['bound']:.0%}, base A)"
            )
        for metric in sorted(set(entry.get("info", {})) & set(other.get("info", {}))):
            one, two = entry["info"][metric], other["info"][metric]
            left = f"{one['median']:.4f} [{one['q1']:.4f}, {one['q3']:.4f}]"
            right = f"{two['median']:.4f} [{two['q1']:.4f}, {two['q3']:.4f}]"
            rows.append(
                f"{name:<26}{metric:<18}{left:>34}{right:>34}{two['median'] / one['median']:>8.3f}"
                "  (not bounded: information only, base A)"
            )
        shared = sorted(set(entry["sim_digests"]) & set(other["sim_digests"]))
        digests = [(seed, entry["sim_digests"][seed], other["sim_digests"][seed]) for seed in shared]
        if any(a is not None for _, a, _ in digests):
            moved = [seed for seed, a, b in digests if a != b]
            rows.append(
                f"{name:<26}sim_digest: "
                + (f"MOVED for seeds {', '.join(moved)}" if moved else f"identical for {len(digests)} shared seeds")
            )
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="results JSON of the parent commit (A)")
    parser.add_argument("new", help="results JSON of the change (B)")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    with open(ROOT_DIR / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if (base["seconds"], base["quick"]) != (new["seconds"], new["quick"]):
        print("the two files were not measured with the same run length and size", file=sys.stderr)
        return 2
    rows, regressed = compare(base, new, benchmark)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
