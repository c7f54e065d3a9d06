"""Tests for the experiment orchestration layer.

Covers the tentpole guarantees of the parallel executor and result cache:

* parallel execution is bit-identical to serial execution on the same grid;
* result artifacts round-trip losslessly through JSON;
* the content-addressed cache misses, then hits, and survives corruption;
* the ``python -m repro`` CLI subcommands work end to end;
* the :class:`VirtualClock` refuses a negative start time.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ParallelSweepExecutor,
    ResultCache,
    compare_configs,
    config_hash,
    get_scenario,
    grid_configs,
    run_experiment,
    scenario_names,
)
from repro.cli import main as cli_main
from repro.sim.clock import VirtualClock
from repro.sim.rng import derive_seed

SMALL = ExperimentConfig(
    name="orchestration",
    nodes=16,
    topics=4,
    duration=5.0,
    drain_time=4.0,
    publication_rate=2.0,
    fanout=3,
    seed=101,
)


def result_fingerprints(results):
    """Full serialized form: equality means bit-identical artifacts."""
    return [json.dumps(result.to_dict(), sort_keys=True) for result in results]


class TestGridExpansion:
    def test_one_axis_grid_names_and_values(self):
        configs = grid_configs(SMALL, {"fanout": [2, 4]})
        assert [config.fanout for config in configs] == [2, 4]
        assert [config.name for config in configs] == [
            "orchestration/fanout=2",
            "orchestration/fanout=4",
        ]
        # Without reseed every point shares the base seed.
        assert {config.seed for config in configs} == {SMALL.seed}

    def test_one_axis_grid_reseed_derives_per_point_seeds(self):
        configs = grid_configs(SMALL, {"fanout": [2, 4]}, reseed=True)
        assert configs[0].seed == derive_seed(SMALL.seed, "orchestration/fanout=2")
        assert configs[1].seed == derive_seed(SMALL.seed, "orchestration/fanout=4")
        assert configs[0].seed != configs[1].seed

    def test_reseed_does_not_clobber_a_seed_sweep(self):
        configs = grid_configs(SMALL, {"seed": [1, 2, 3]}, reseed=True)
        assert [config.seed for config in configs] == [1, 2, 3]
        grid = grid_configs(SMALL, {"seed": [5, 6]}, reseed=True)
        assert [config.seed for config in grid] == [5, 6]

    def test_compare_configs(self):
        configs = compare_configs(SMALL, ["gossip", "scribe"])
        assert [config.system for config in configs] == ["gossip", "scribe"]
        assert configs[0].name == "orchestration/gossip"

    def test_grid_configs_cartesian_product(self):
        configs = grid_configs(SMALL, {"fanout": [2, 3], "loss_rate": [0.0, 0.1]})
        assert len(configs) == 4
        assert [(config.fanout, config.loss_rate) for config in configs] == [
            (2, 0.0),
            (2, 0.1),
            (3, 0.0),
            (3, 0.1),
        ]
        assert configs[1].name == "orchestration/fanout=2,loss_rate=0.1"


class TestParallelEqualsSerial:
    def test_parallel_sweep_is_bit_identical_to_serial(self):
        grid = grid_configs(SMALL, {"fanout": [2, 4]})
        serial = ParallelSweepExecutor(workers=1).run_many(grid)
        executor = ParallelSweepExecutor(workers=2)
        parallel = executor.run_many(grid)
        assert result_fingerprints(parallel) == result_fingerprints(serial)
        assert executor.last_report.total == 2
        assert executor.last_report.computed == 2
        assert executor.last_report.cache_hits == 0

    def test_parallel_compare_is_bit_identical_to_serial(self):
        systems = ["gossip", "fair-gossip"]
        serial = ParallelSweepExecutor(workers=1).run_many(compare_configs(SMALL, systems))
        parallel = ParallelSweepExecutor(workers=2).run_many(compare_configs(SMALL, systems))
        assert result_fingerprints(parallel) == result_fingerprints(serial)

    def test_keep_system_runs_serially_with_live_system(self):
        executor = ParallelSweepExecutor(workers=2)
        results = executor.run_many([SMALL], keep_system=True)
        assert results[0].system is not None

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelSweepExecutor(workers=0)


class TestResultArtifacts:
    def test_result_roundtrips_through_json(self):
        result = run_experiment(SMALL)
        payload = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(payload)
        assert restored.to_dict() == result.to_dict()
        assert restored.system is None
        assert [event.event_id for event in restored.published_events] == [
            event.event_id for event in result.published_events
        ]
        assert restored.interest.filters_of("node-000") == result.interest.filters_of("node-000")

    def test_config_from_dict_rejects_unknown_fields(self):
        payload = SMALL.to_dict()
        payload["not_a_field"] = 1
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(payload)

    def test_config_hash_covers_every_field(self):
        assert config_hash(SMALL) == config_hash(SMALL.with_overrides())
        assert config_hash(SMALL) != config_hash(SMALL.with_overrides(seed=SMALL.seed + 1))
        assert config_hash(SMALL) != config_hash(SMALL.with_overrides(name="other"))


def stored_entries(cache_dir) -> int:
    """Result artifacts on disk under a cache directory."""
    return len(list(cache_dir.glob("*/*.json")))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelSweepExecutor(workers=1, cache=cache)
        first = executor.run_many(grid_configs(SMALL, {"fanout": [2, 4]}))
        assert executor.last_report.cache_hits == 0
        assert executor.last_report.computed == 2
        assert stored_entries(tmp_path / "cache") == 2
        second = executor.run_many(grid_configs(SMALL, {"fanout": [2, 4]}))
        assert executor.last_report.cache_hits == 2
        assert executor.last_report.computed == 0
        assert result_fingerprints(second) == result_fingerprints(first)

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelSweepExecutor(workers=1, cache=cache)
        executor.run_many([SMALL])
        executor.run_many([SMALL.with_overrides(seed=SMALL.seed + 1)])
        assert executor.last_report.cache_hits == 0
        assert stored_entries(tmp_path / "cache") == 2

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = run_experiment(SMALL)
        path = cache.store(result)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.load(SMALL) is None

    def test_keep_system_bypasses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelSweepExecutor(workers=1, cache=cache)
        executor.run_many([SMALL], keep_system=True)
        assert stored_entries(tmp_path / "cache") == 0


class TestScenarioRegistry:
    def test_known_scenarios_registered(self):
        names = scenario_names()
        for expected in ("base", "smoke", "fig1", "fig4-push"):
            assert expected in names

    def test_get_scenario_unknown_name_is_helpful(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("no-such-scenario")

    def test_smoke_scenario_is_small(self):
        assert get_scenario("smoke").config.nodes <= 32


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output
        assert "base" in output

    def test_run_smoke(self, capsys, tmp_path):
        code = cli_main(
            ["run", "smoke", "--set", "nodes=12", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery_ratio" in output
        assert "computed: 1" in output

    def test_sweep_parallel_then_cached(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "sweep",
            "smoke",
            "--set",
            "nodes=12",
            "--param",
            "system.fanout",
            "--values",
            "2,3",
            "--workers",
            "2",
            "--cache-dir",
            cache_dir,
            "--json",
            str(tmp_path / "first.json"),
        ]
        assert cli_main(argv) == 0
        first_output = capsys.readouterr().out
        assert "cache hits: 0 | computed: 2" in first_output

        serial_argv = list(argv)
        serial_argv[serial_argv.index("--workers") + 1] = "1"
        serial_argv[serial_argv.index(str(tmp_path / "first.json"))] = str(tmp_path / "second.json")
        serial_argv[serial_argv.index("--cache-dir") + 1] = str(tmp_path / "cache2")
        assert cli_main(serial_argv) == 0
        capsys.readouterr()
        first = (tmp_path / "first.json").read_text(encoding="utf-8")
        second = (tmp_path / "second.json").read_text(encoding="utf-8")
        assert first == second  # workers=2 and workers=1 artifacts are bit-identical

        assert cli_main(argv) == 0  # repeat: every point served from cache
        repeat_output = capsys.readouterr().out
        assert "cache hits: 2 | computed: 0" in repeat_output

    def test_compare_subcommand(self, capsys, tmp_path):
        code = cli_main(
            [
                "compare",
                "smoke",
                "--set",
                "nodes=12",
                "--systems",
                "gossip,fair-gossip",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fair-gossip" in output

    def test_set_override_and_unknown_field(self, capsys, tmp_path):
        code = cli_main(
            [
                "run",
                "smoke",
                "--set",
                "system.fanout=5",
                "--no-cache",
                "--set",
                "nodes=12",
            ]
        )
        assert code == 0
        with pytest.raises(SystemExit):
            cli_main(["run", "smoke", "--set", "bogus=1"])

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "no-such-scenario"])


class TestClockValidation:
    def test_init_rejects_a_negative_start(self):
        with pytest.raises(ValueError, match="start time must be non-negative"):
            VirtualClock(start=-1.0)
        assert VirtualClock(start=2.0).now == 2.0
