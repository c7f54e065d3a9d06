"""perfbench: end-to-end and per-layer benchmark of the simulator and the live runtime.

Two ways to run it.

One run, the way the benchmark driver does (one JSON object on the last line)::

    python3 perfbench/run.py --workload sim-scale-push --seed 7 --seconds 10 --trace 0

The whole suite, for people (prints every metric by name with its unit,
checks outputs, writes one results JSON that ``compare.py`` reads)::

    python3 perfbench/run.py [--seed 2007] [--reps N] [--workload NAME] [--traced] [--quick]
    python3 perfbench/run.py --calibrate        # two sets of runs of the same code
    python3 perfbench/run.py --ladder           # capacity ladder of live-mem-ladder

Every run happens in a fresh single-threaded child process, one at a time
(``child.py``); this file only starts children and reads what they print.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
if not __package__:
    # See child.py: keep perfbench/trace.py from shadowing the standard library.
    sys.path[0] = str(ROOT_DIR)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from perfbench import stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
BENCHMARK_JSON = ROOT_DIR / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170
#: Extras summarised per workload next to the end-to-end metrics.
INFO_METRICS = ("cpu_ms_per_event", "sim_events_per_s")
#: Fresh processes whose set-up time is sampled per run (the measuring one included).
SETUP_SAMPLES = 5

#: live-mem-ladder capacity ladder (``--ladder``): offered rates in ev/s and the
#: limit a step must meet.  The first step is the reference rate the driver's
#: runs use.  Under this p99 limit the two passing steps pass by at least 25 %
#: on five consecutive runs, and the 100 ev/s step fails it by over 200 % on an
#: idle host but only sometimes beside a busy neighbour, where
#: ``round_completion`` is what fails it (both recorded in README.md).
LADDER_RATES = (25.0, 50.0, 100.0, 200.0)
LADDER_LIMIT = {"op_tail_ms": 260.0, "delivered_share": 0.99, "round_completion": 0.9}


def load_benchmark() -> Dict[str, object]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------- children


def _spawn(arguments: List[str]) -> Dict[str, object]:
    """Run one child to completion and return the JSON object it printed last."""
    environment = dict(os.environ)
    # Set iteration order (and with it every simulated statistic) depends on
    # str hashes; pin them so the same seed gives the same digest in every process.
    environment["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(CHILD), *arguments, "--spawned-at", repr(time.time())]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=environment)
    if done.returncode != 0:
        raise RuntimeError(f"child {' '.join(arguments)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(
    workload: str, seed: int, seconds: float, trace: bool = False, quick: bool = False, rate: float = 0.0
) -> Dict[str, object]:
    """One measured run: set-up sampled in several fresh processes, then the measuring child."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if quick:
        base.append("--quick")
    if rate:
        base += ["--rate", repr(rate)]
    samples = 1 if quick else SETUP_SAMPLES
    setups = [_spawn(base + ["--setup-only"])["setup_s"] for _ in range(samples - 1)]
    result = _spawn(base + ["--trace", "1" if trace else "0"])
    setups.append(result["end_to_end"]["setup_s"])
    result["extras"]["setup_samples"] = setups
    # the same set-up every time: see stats.undisturbed_median
    result["end_to_end"]["setup_s"] = stats.undisturbed_median(setups)
    return result


# ------------------------------------------------------------------- output


def driver_line(result: Dict[str, object], benchmark: Dict[str, object]) -> str:
    """The one JSON object the driver reads: end-to-end metrics, or per-layer ones when traced."""
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["end_to_end"].items()}
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def describe(result: Dict[str, object], benchmark: Dict[str, object]) -> str:
    """Every metric of one run by name with its unit, for people."""
    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    lines = [f"== {result['workload']} seed={result['seed']} ({'traced' if result['trace'] else 'untraced'})"]
    for name, value in result["end_to_end"].items():
        lines.append(f"  {name:<28} {value:>14.4f} {units.get(name, '')}")
    extras = result["extras"]
    for key in ("reps", "samples", "slices", "tail_percentile", "sim_digest",
                "sim_events_per_s", "cpu_ms_per_event", "cpu_us_per_delivery", "engine_events", "messages",
                "deliveries", "gen.achieved_ratio", "gen.lateness_p99_ms", "round_completion"):
        if key in extras:
            lines.append(f"  ({key} = {extras[key]})")
    if result["trace"]:
        for name, entry in result["per_layer"].items():
            lines.append(f"  {name:<38} {entry['value']:>16.6f} {entry['unit']}")
        shares = sorted(result["shares"].items(), key=lambda item: -item[1])
        lines.append("  busy-time shares: " + ", ".join(f"{layer} {share:.1%}" for layer, share in shares if share >= 0.005))
    for problem in result["problems"]:
        lines.append(f"  INCORRECT: {problem}")
    return "\n".join(lines)


# -------------------------------------------------------------------- suite


def run_suite(names: List[str], seed: int, reps: int, seconds: float, traced: bool, quick: bool, benchmark) -> Dict[str, object]:
    """``reps`` runs per workload (seeds ``seed``, ``seed + 1``, ...), plus one traced run if asked."""
    suite: Dict[str, object] = {
        "schema": "perfbench-results/v1",
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "quick": quick,
        "workloads": {},
    }
    for name in names:
        runs = []
        for index in range(reps):
            result = run_once(name, seed + index, seconds, quick=quick)
            print(describe(result, benchmark), flush=True)
            runs.append(result)
        entry: Dict[str, object] = {
            "runs": runs,
            "end_to_end": {
                metric: {"values": [run["end_to_end"][metric] for run in runs],
                         **stats.summarise([run["end_to_end"][metric] for run in runs])}
                for metric in runs[0]["end_to_end"]
            },
            # printed and compared, never bounded: see README ("cpu_ms_per_event")
            "info": {
                metric: stats.summarise([run["extras"][metric] for run in runs])
                for metric in INFO_METRICS
                if metric in runs[0]["extras"]
            },
            "sim_digests": {str(run["seed"]): run["extras"].get("sim_digest") for run in runs},
        }
        if traced:
            result = run_once(name, seed, seconds, trace=True, quick=quick)
            print(describe(result, benchmark), flush=True)
            untraced = runs[0]["extras"].get("sim_digest")
            if untraced != result["extras"].get("sim_digest"):
                result["problems"].append("sim_digest differs between the traced and the untraced process")
                result["correct"] = False
            entry["traced"] = result
        suite["workloads"][name] = entry
    return suite


def suite_correct(suite: Dict[str, object]) -> bool:
    ok = True
    for name, entry in suite["workloads"].items():
        for run in entry["runs"] + ([entry["traced"]] if "traced" in entry else []):
            if not run["correct"]:
                ok = False
                print(f"INCORRECT {name} seed={run['seed']}: {'; '.join(run['problems'])}")
    return ok


def print_summary(suite: Dict[str, object], benchmark) -> None:
    entries = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    print(f"\n{'workload':<26}{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  unit")
    for name, entry in suite["workloads"].items():
        for metric, summary in entry["end_to_end"].items():
            spec = entries[metric]
            print(
                f"{name:<26}{metric:<18}{summary['median']:>12.4f}{summary['q1']:>12.4f}{summary['q3']:>12.4f}"
                f"{summary['spread']:>9.2%}{spec['bound']:>8.0%}  {spec['unit']}"
            )


# ---------------------------------------------------------------- calibrate


def calibrate(names: List[str], seed: int, reps: int, seconds: float, quick: bool, benchmark) -> bool:
    """Two independent sets of runs of the same code must agree within the bounds.

    Fails when a median moved by more than the metric's bound between the
    sets, or when a bound is narrower than twice the spread seen; a spread
    above a third of its bound is pointed out (``setup_s`` is exempt from the
    spread rules, as it is for the driver).
    """
    first = run_suite(names, seed, reps, seconds, traced=False, quick=quick, benchmark=benchmark)
    second = run_suite(names, seed, reps, seconds, traced=False, quick=quick, benchmark=benchmark)
    ok = suite_correct(first) and suite_correct(second)
    print(f"\n{'workload':<26}{'metric':<18}{'median A':>12}{'median B':>12}{'B worse by':>11}"
          f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
    for name in names:
        for spec in benchmark["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            one = first["workloads"][name]["end_to_end"][metric]
            two = second["workloads"][name]["end_to_end"][metric]
            moved = stats.worse_by(one["median"], two["median"], spec["better"])
            widest = max(one["spread"], two["spread"])
            verdict = "ok"
            if abs(moved) > bound:
                verdict = "SETS DISAGREE"
            elif metric != "setup_s" and widest * 3 > bound:
                verdict = "BOUND TOO NARROW" if widest * 2 > bound else "spread above a third of the bound"
            if verdict.isupper():
                ok = False
            print(f"{name:<26}{metric:<18}{one['median']:>12.4f}{two['median']:>12.4f}{moved:>11.2%}"
                  f"{one['spread']:>10.2%}{two['spread']:>10.2%}{bound:>7.0%}  {verdict}")
        for seed_text, digest in first["workloads"][name]["sim_digests"].items():
            if digest != second["workloads"][name]["sim_digests"][seed_text]:
                ok = False
                print(f"{name}: sim_digest of seed {seed_text} differs between the two sets")
    return ok


# ------------------------------------------------------------------- ladder


def ladder(seed: int, seconds: float, benchmark) -> float:
    """Highest offered rate of ``live-mem-ladder`` meeting :data:`LADDER_LIMIT`, fresh host per step."""
    best = 0.0
    print(f"{'rate ev/s':>10}{'p99 ms':>10}{'delivered':>11}{'rounds':>8}{'cpu util':>10}  verdict (margin to the p99 limit)")
    for rate in LADDER_RATES:
        result = run_once("live-mem-ladder", seed, seconds, rate=rate)
        tail_ms = result["end_to_end"]["op_tail_ms"]
        share = result["end_to_end"]["delivered_share"]
        rounds = result["extras"]["round_completion"]
        passed = (
            tail_ms <= LADDER_LIMIT["op_tail_ms"]
            and share >= LADDER_LIMIT["delivered_share"]
            and rounds >= LADDER_LIMIT["round_completion"]
            and result["extras"]["gen.achieved_ratio"] >= 0.98
        )
        if passed:
            best = rate
        margin = (LADDER_LIMIT["op_tail_ms"] - tail_ms) / LADDER_LIMIT["op_tail_ms"]
        print(f"{rate:>10.0f}{tail_ms:>10.1f}{share:>11.4f}{rounds:>8.3f}{result['extras']['cpu_utilisation']:>10.2f}"
              f"  {'pass' if passed else 'FAIL'} ({margin:+.0%})")
    print(f"max_rate_eps = {best:.0f} ev/s")
    return best


# --------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="driver protocol: one run, one JSON line")
    parser.add_argument("--reps", type=int, default=3, help="suite: runs per workload, each with the next seed")
    parser.add_argument("--traced", action="store_true", help="suite: add one traced run per workload")
    parser.add_argument("--quick", action="store_true", help="every workload at about an eighth of its size")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--out", default="perfbench-results.json", help="suite: where the results JSON goes")
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print("perfbench: the program (src/repro) or BENCHMARK.json is missing next to perfbench/", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else (1.5 if args.quick else float(benchmark["run_seconds"]))
    names = [args.workload] if args.workload else [entry["name"] for entry in benchmark["workloads"]]

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        result = run_once(args.workload, args.seed, seconds, trace=bool(args.trace), quick=args.quick)
        print(describe(result, benchmark))
        print(driver_line(result, benchmark))
        return 0 if result["correct"] else 1
    if args.ladder:
        ladder(args.seed, seconds, benchmark)
        return 0
    if args.calibrate:
        return 0 if calibrate(names, args.seed, max(args.reps, 2), seconds, args.quick, benchmark) else 1

    suite = run_suite(names, args.seed, args.reps, seconds, args.traced, args.quick, benchmark)
    print_summary(suite, benchmark)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
        handle.write("\n")
    print(f"\nresults written to {args.out}")
    return 0 if suite_correct(suite) else 1


if __name__ == "__main__":
    sys.exit(main())
