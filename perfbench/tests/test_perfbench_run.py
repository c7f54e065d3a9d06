"""The runner end to end (in --quick size), its inputs, its contract file and its gate."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import child, layers, run, workloads

ROOT_DIR = Path(__file__).resolve().parent.parent.parent
RUN = [sys.executable, str(ROOT_DIR / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract_and_matches_the_code():
    benchmark = run.load_benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [entry["name"] for entry in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert [entry["why"] for entry in benchmark["workloads"]] == [w["why"] for w in workloads.WORKLOADS.values()]
    assert [(e["name"], e["unit"], e["better"]) for e in benchmark["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in benchmark[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(UNIT.match(e["unit"]) for key in ("end_to_end", "per_layer") for e in benchmark[key])
    assert all(len(e["why"]) <= 200 and "\n" not in e["why"] for e in benchmark["workloads"])
    assert all(0 < e["bound"] <= 0.25 for e in benchmark["end_to_end"])
    setup = next(e for e in benchmark["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in benchmark["end_to_end"])
    assert len(benchmark["per_layer"]) <= 128 and 1 <= benchmark["run_seconds"] <= 60


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_the_inputs_and_the_same_seed_repeats_them(name):
    assert workloads.build_inputs(name, 7) == workloads.build_inputs(name, 7)
    assert workloads.build_inputs(name, 7) != workloads.build_inputs(name, 8)
    inputs = workloads.build_inputs(name, 7)
    if inputs["kind"] == "live":
        assert workloads.build_schedule(inputs, 2.0, 50.0) == workloads.build_schedule(inputs, 2.0, 50.0)
        other = workloads.build_inputs(name, 8)
        assert workloads.build_schedule(inputs, 2.0, 50.0) != workloads.build_schedule(other, 2.0, 50.0)
        offsets = [entry[0] for entry in workloads.build_schedule(inputs, 2.0, 50.0)]
        assert len(offsets) == 100 and offsets == sorted(offsets) and offsets[-1] < 2.0


def test_quick_suite_runs_all_six_workloads_traced_and_is_reproducible(tmp_path):
    out = tmp_path / "results.json"
    started = time.perf_counter()
    done = subprocess.run(RUN + ["--quick", "--reps", "1", "--traced", "--out", str(out)], capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == list(workloads.WORKLOADS)
    per_layer = [name for name, _, _, _ in layers.PER_LAYER]
    for name, entry in suite["workloads"].items():
        assert entry["runs"][0]["correct"] and entry["traced"]["correct"], name
        assert list(entry["traced"]["per_layer"]) == per_layer
        assert entry["traced"]["self_time_residual"] <= 0.01
        assert all(value["median"] > 0 for value in entry["end_to_end"].values()), name
        assert f"== {name} " in done.stdout and "op_p50_ms" in done.stdout
    # untraced alone is the "< 25 s" mode; the traced pass about doubles it
    assert elapsed < 60, f"--quick --traced took {elapsed:.1f}s"

    # the same seed gives the same simulated statistics in a fresh process
    again = tmp_path / "again.json"
    done = subprocess.run(
        RUN + ["--quick", "--reps", "1", "--workload", "sim-lazy-domains-faults", "--out", str(again)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    first = suite["workloads"]["sim-lazy-domains-faults"]["sim_digests"]
    assert json.loads(again.read_text())["workloads"]["sim-lazy-domains-faults"]["sim_digests"] == first
    assert all(first.values())


def test_driver_protocol_prints_one_json_object_last():
    benchmark = run.load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "sim-structured", "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(sorted(line["metrics"])) == sorted(entry["name"] for entry in benchmark[key])
        assert all(set(value) == {"value", "unit"} for value in line["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT_DIR / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT_DIR / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-structured", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


# ---------------------------------------------------------------- the gate


def _pass(**changes):
    entry = {"digest": "d", "attempted_pairs": 100, "delivered_pairs": 100, "unsubscribed": 0, "repeated": 0}
    entry.update(changes)
    return entry


def test_sim_gate():
    assert child.sim_problems([_pass(), _pass()], floor=0.99) == []
    assert "sim_digest differs" in child.sim_problems([_pass(), _pass(digest="e")], floor=0.99)[0]
    assert "no matching subscription" in child.sim_problems([_pass(unsubscribed=1)], floor=0.99)[0]
    assert "twice" in child.sim_problems([_pass(repeated=2)], floor=0.99)[0]
    assert "below the workload's floor" in child.sim_problems([_pass(delivered_pairs=90)], floor=0.99)[0]


def _window(**changes):
    window = {"delivered_pairs": 100, "expected_pairs": 100, "unsubscribed": 0, "repeated": 0,
              "published": 100, "scheduled": 100}
    window.update(changes)
    return window


def test_live_gate():
    assert child.live_problems(_window(), floor=0.99) == []
    assert "generator fell behind" in child.live_problems(_window(published=97), floor=0.99)[0]
    assert "twice" in child.live_problems(_window(repeated=1), floor=0.99)[0]
    assert "no matching subscription" in child.live_problems(_window(unsubscribed=1), floor=0.99)[0]
    assert "floor" in child.live_problems(_window(delivered_pairs=95), floor=0.99)[0]
    # a ladder step above the knee may fall behind: it fails the ladder, not the gate
    assert child.live_problems(_window(published=60, delivered_pairs=50), floor=0.99, reference_rate=False) == []


def test_run_exits_non_zero_on_an_incorrect_result(monkeypatch, capsys):
    def incorrect(workload, seed, seconds, trace=False, quick=False, rate=0.0):
        return {
            "workload": workload, "seed": seed, "trace": False, "correct": False, "attempted": 2, "failed": 0,
            "problems": ["sim_digest differs between runs of the same inputs"],
            "end_to_end": {e["name"]: 1.0 for e in run.load_benchmark()["end_to_end"]}, "extras": {},
        }

    monkeypatch.setattr(run, "run_once", incorrect)
    assert run.main(["--workload", "sim-structured", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert run.main(["--workload", "sim-structured", "--reps", "1", "--out", "/dev/null"]) == 1
