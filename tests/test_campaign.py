"""Tests for the campaign layer (``repro.campaign``).

Pins the tentpole guarantees of dependency-driven campaigns:

* campaign specs round-trip through JSON and validation fails fast with
  did-you-mean suggestions for every cross-reference;
* services run after what they wait for (``after`` and ``SEQ``), a
  ``--target`` run builds only what that target needs, failures propagate
  to dependents, and cycles are rejected;
* execution is incremental — a warm cache re-runs nothing, an edited
  sweep parameter re-runs exactly the dependent points, and the canonical
  manifest is byte-identical across warm reruns;
* ``ONE`` connectors short-circuit to a fully cached alternative;
* corrupt cache entries read as misses, bump the ``cache.corrupt``
  counter, and the affected point re-runs;
* the ``python -m repro campaign`` CLI works end to end;
* ``sweep`` / ``compare`` are one-service campaigns: the points they run are
  exactly the points of a campaign service with the same fields;
* ``examples/paper_campaign.json`` expands, and declares every target the
  figure benches read.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import re

import pytest

from repro.campaign import (
    CampaignError,
    CampaignExecutor,
    CampaignSpec,
    Connector,
    expand_service,
)
from repro.experiments.cache import ResultCache, config_hash
from repro.cli import main as cli_main
from repro.experiments.executor import ParallelSweepExecutor
from repro.experiments.runner import run_experiment

SPEC_DICT = {
    "schema": "campaign/v1",
    "name": "unit",
    "description": "unit-test campaign",
    "services": {
        "compare-systems": {"scenario": "smoke", "compare": ["gossip", "fair-gossip"]},
        "fanout-sweep": {"scenario": "smoke", "sweep": {"system.fanout": [2, 3]}},
        "alt-cold": {"scenario": "smoke", "set": {"system.fanout": 7}},
        "late": {
            "scenario": "smoke",
            "set": {"workload.publication_rate": 3.0},
            "after": ["compare-table"],
        },
    },
    "targets": {
        "compare-table": {"inputs": ["compare-systems"], "title": "systems"},
        "sweep-report": {"inputs": {"seq": ["fanout-sweep", "late"]}, "kind": "report"},
        "one-table": {"inputs": {"one": ["alt-cold", "fanout-sweep"]}},
    },
}


def make_spec(mutate=None) -> CampaignSpec:
    payload = copy.deepcopy(SPEC_DICT)
    if mutate is not None:
        mutate(payload)
    return CampaignSpec.from_dict(payload).validate()


def canonical(manifest) -> str:
    """A run manifest without its measured ``timing``: what two runs must share."""
    payload = manifest.to_dict()
    del payload["timing"]
    return json.dumps(payload, sort_keys=True)


def make_executor(spec, tmp_path, **kwargs) -> CampaignExecutor:
    cache = ResultCache(str(tmp_path / "cache"))
    return CampaignExecutor(
        spec,
        executor=ParallelSweepExecutor(cache=cache),
        out_dir=str(tmp_path / "out"),
        **kwargs,
    )


def record_runs(executor: CampaignExecutor, fail: str = "") -> list:
    """The services ``executor`` runs, in order; service ``fail`` raises ``boom``."""
    by_points = {
        tuple(map(config_hash, configs)): name for name, configs in executor.points.items()
    }
    run_many = executor.executor.run_many
    ran = []

    def recording(configs):
        name = by_points[tuple(map(config_hash, configs))]
        ran.append(name)
        if name == fail:
            raise ValueError("boom")
        return run_many(configs)

    executor.executor.run_many = recording
    return ran


class TestSpecRoundTrip:
    def test_connector_shorthands(self):
        assert Connector.parse("svc", "t") == Connector("all", ("svc",))
        assert Connector.parse(["a", "b"], "t") == Connector("all", ("a", "b"))
        nested = Connector.parse({"seq": ["a", {"one": ["b", "c"]}]}, "t")
        assert nested.describe() == "SEQ(a, ONE(b, c))"
        assert nested.service_names() == ["a", "b", "c"]

    def test_connector_bad_shapes(self):
        with pytest.raises(CampaignError, match="unknown connector"):
            Connector.parse({"any": ["a"]}, "t")
        with pytest.raises(CampaignError, match="exactly one"):
            Connector.parse({"all": ["a"], "one": ["b"]}, "t")
        with pytest.raises(CampaignError, match="non-empty"):
            Connector.parse({"one": []}, "t")

    def test_from_file_validates(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(SPEC_DICT), encoding="utf-8")
        assert CampaignSpec.from_file(str(path)).name == "unit"
        path.write_text("{ truncated", encoding="utf-8")
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_file(str(path))
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignSpec.from_file(str(tmp_path / "missing.json"))


class TestValidation:
    def test_unknown_scenario_suggests(self):
        with pytest.raises(CampaignError, match="did you mean 'smoke'"):
            make_spec(lambda p: p["services"]["alt-cold"].update(scenario="smke"))

    def test_unknown_system_suggests(self):
        with pytest.raises(CampaignError, match="unknown system 'random-gossip'"):
            make_spec(
                lambda p: p["services"]["alt-cold"].update(compare=["random-gossip"])
            )

    def test_unknown_sweep_key_suggests(self):
        with pytest.raises(CampaignError, match="unknown config key"):
            make_spec(
                lambda p: p["services"]["fanout-sweep"].update(
                    sweep={"system.fanouts": [2, 3]}
                )
            )

    def test_unsweepable_structured_field(self):
        with pytest.raises(CampaignError, match="structured"):
            make_spec(lambda p: p["services"]["alt-cold"].update(set={"faults.plan": []}))

    def test_dangling_after_edge_suggests(self):
        with pytest.raises(CampaignError, match="'after' names unknown node"):
            make_spec(lambda p: p["services"]["late"].update(after=["compare-tabel"]))

    def test_unknown_input_service_suggests(self):
        with pytest.raises(CampaignError, match="inputs name unknown service"):
            make_spec(
                lambda p: p["targets"]["compare-table"].update(inputs=["compare-system"])
            )

    def test_duplicate_names_rejected(self):
        def clash(payload):
            payload["targets"]["alt-cold"] = {"inputs": ["fanout-sweep"]}

        with pytest.raises(CampaignError, match="duplicate node name"):
            make_spec(clash)

    def test_unknown_fields_suggest(self):
        with pytest.raises(CampaignError, match="unknown service 'alt-cold' fields .*'set'"):
            make_spec(lambda p: p["services"]["alt-cold"].update(sets={"x": 1}))
        with pytest.raises(CampaignError, match="unknown target 'one-table' fields .*'kind'"):
            make_spec(lambda p: p["targets"]["one-table"].update(kindd="table"))

    def test_cycle_detected(self):
        def cycle(payload):
            # late -> compare-table (after) and compare-table's input service
            # gains after: [sweep-report] whose SEQ contains late.
            payload["services"]["compare-systems"]["after"] = ["sweep-report"]

        with pytest.raises(CampaignError, match="cycle"):
            make_spec(cycle)

    def test_unvalidated_cycle_fails_when_the_executor_is_made(self, tmp_path):
        payload = copy.deepcopy(SPEC_DICT)
        payload["services"]["compare-systems"]["after"] = ["sweep-report"]
        with pytest.raises(CampaignError, match="cycle"):
            make_executor(CampaignSpec.from_dict(payload), tmp_path)

    def test_kind_combination_the_build_refuses(self):
        def topology_on_scribe(payload):
            payload["services"]["alt-cold"] = {
                "scenario": "smoke-domains",
                "compare": ["gossip", "scribe"],
            }

        with pytest.raises(CampaignError, match="gossip-family"):
            make_spec(topology_on_scribe)

    def test_no_targets_rejected(self):
        with pytest.raises(CampaignError, match="no targets"):
            make_spec(lambda p: p["targets"].clear())

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"reseed": "false"}, "'reseed' must be a boolean, got 'false'"),
            ({"seeds": "12"}, "'seeds' must be a list, got '12'"),
            ({"seeds": [1.9, 2.2]}, "'seeds'[0] must be an integer, got 1.9"),
            ({"seeds": [True]}, "'seeds'[0] must be an integer, got True"),
            ({"compare": "gossip"}, "'compare' must be a list, got 'gossip'"),
            ({"sweep": {"system.fanout": 3}}, "'sweep'['system.fanout'] must be a list, got 3"),
            ({"after": "late"}, "'after' must be a list, got 'late'"),
        ],
    )
    def test_mistyped_fields_rejected_not_coerced(self, fields, message):
        with pytest.raises(CampaignError, match=f"^service 'alt-cold': {re.escape(message)}$"):
            make_spec(lambda p: p["services"]["alt-cold"].update(fields))


class TestExpansion:
    def test_compare_then_sweep_grid(self):
        spec = make_spec()
        assert [c.name for c in expand_service(spec.service("compare-systems"))] == [
            "smoke/gossip",
            "smoke/fair-gossip",
        ]
        sweep_points = expand_service(spec.service("fanout-sweep"))
        assert [c.fanout for c in sweep_points] == [2, 3]

    def test_set_coerces_via_spec(self):
        spec = make_spec()
        (point,) = expand_service(spec.service("alt-cold"))
        assert point.fanout == 7
        (late,) = expand_service(spec.service("late"))
        assert late.publication_rate == 3.0


class TestIncrementalExecution:
    def test_cold_then_warm_zero_reruns(self, tmp_path):
        spec = make_spec()
        cold = make_executor(spec, tmp_path).run()
        assert all(r.status == "done" for r in cold.services.values())
        assert all(r.status == "done" for r in cold.targets.values())
        assert cold.totals()["cache_hits"] == 0
        warm = make_executor(spec, tmp_path).run()
        assert warm.totals()["computed"] == 0
        assert warm.totals()["cache_hits"] == cold.totals()["computed"]

    def test_warm_manifests_byte_identical(self, tmp_path):
        spec = make_spec()
        make_executor(spec, tmp_path).run()
        first = make_executor(spec, tmp_path).run()
        second = make_executor(spec, tmp_path).run()
        assert canonical(first) == canonical(second)

    def test_edited_parameter_reruns_exactly_dependents(self, tmp_path):
        spec = make_spec()
        make_executor(spec, tmp_path).run()

        edited = make_spec(
            lambda p: p["services"]["fanout-sweep"].update(
                sweep={"system.fanout": [2, 4]}
            )
        )
        manifest = make_executor(edited, tmp_path).run()
        # fanout=2 is shared with the first run; fanout=4 is the only new
        # point anywhere in the campaign.
        sweep_record = manifest.services["fanout-sweep"]
        assert sweep_record.computed == 1
        assert sweep_record.cache_hits == 1
        for name, record in manifest.services.items():
            if name not in ("fanout-sweep", "alt-cold"):
                assert record.computed == 0, name
        assert manifest.totals()["computed"] == 1

    def test_target_subset_runs_only_ancestors(self, tmp_path):
        spec = make_spec()
        manifest = make_executor(spec, tmp_path, targets=["compare-table"]).run()
        assert set(manifest.services) == {"compare-systems"}
        assert manifest.targets["compare-table"].status == "done"

    def test_unknown_target_selection_suggests(self, tmp_path):
        spec = make_spec()
        with pytest.raises(CampaignError, match="did you mean 'compare-table'"):
            make_executor(spec, tmp_path, targets=["compare-tabel"])

    def test_dry_run_executes_nothing(self, tmp_path):
        spec = make_spec()
        executor = make_executor(spec, tmp_path)
        manifest = executor.run(dry_run=True)
        assert not list((tmp_path / "cache").glob("*/*.json"))
        assert not (tmp_path / "out").exists()
        assert all(r.status in ("done", "skipped") for r in manifest.services.values())
        planned = manifest.services["fanout-sweep"]
        assert [point.cached for point in planned.points] == [False, False]

    def test_one_short_circuits_to_cached_alternative(self, tmp_path):
        spec = make_spec()
        cache = ResultCache(str(tmp_path / "cache"))
        for config in expand_service(spec.service("fanout-sweep")):
            cache.store(run_experiment(config))
        manifest = make_executor(spec, tmp_path, targets=["one-table"]).run()
        assert manifest.services["fanout-sweep"].status == "done"
        assert manifest.services["fanout-sweep"].computed == 0
        assert manifest.services["alt-cold"].status == "skipped"
        assert manifest.targets["one-table"].inputs == ["fanout-sweep"]

    def test_one_runs_first_alternative_when_all_cold(self, tmp_path):
        spec = make_spec()
        manifest = make_executor(spec, tmp_path, targets=["one-table"]).run()
        assert manifest.services["alt-cold"].status == "done"
        assert manifest.services.get("fanout-sweep") is None or (
            manifest.services["fanout-sweep"].status == "skipped"
        )
        assert manifest.targets["one-table"].inputs == ["alt-cold"]

    def test_run_order_honours_after_and_seq(self, tmp_path):
        executor = make_executor(make_spec(), tmp_path)
        ran = record_runs(executor)
        executor.run()
        assert sorted(ran) == sorted(executor.points)
        # late waits for compare-table (after) and for fanout-sweep (SEQ).
        assert ran.index("compare-systems") < ran.index("late")
        assert ran.index("fanout-sweep") < ran.index("late")

    def test_target_runs_only_what_it_needs(self, tmp_path):
        executor = make_executor(make_spec(), tmp_path, targets=["sweep-report"])
        ran = record_runs(executor)
        manifest = executor.run()
        assert sorted(ran) == ["compare-systems", "fanout-sweep", "late"]
        # compare-table renders as late's prerequisite; one-table is not needed.
        assert set(manifest.targets) == {"compare-table", "sweep-report"}
        assert set(manifest.services) == {"compare-systems", "fanout-sweep", "late"}

    def test_cold_one_consumes_first_alternative_though_another_ran(self, tmp_path):
        executor = make_executor(make_spec(), tmp_path)
        ran = record_runs(executor)
        manifest = executor.run()
        assert "fanout-sweep" in ran and "alt-cold" in ran
        assert manifest.targets["sweep-report"].inputs == ["fanout-sweep", "late"]
        assert manifest.targets["one-table"].inputs == ["alt-cold"]

    def test_failure_propagates_to_dependents(self, tmp_path):
        executor = make_executor(make_spec(), tmp_path)
        record_runs(executor, fail="fanout-sweep")
        manifest = executor.run()
        assert manifest.services["fanout-sweep"].status == "failed"
        assert manifest.services["fanout-sweep"].error == "boom"
        assert manifest.services["late"].status == "failed"
        assert manifest.services["late"].error == "dependency failed: fanout-sweep"
        assert manifest.targets["sweep-report"].status == "failed"
        assert manifest.targets["compare-table"].status == "done"
        assert manifest.targets["one-table"].status == "done"
        assert manifest.targets["one-table"].inputs == ["alt-cold"]


class TestCacheProvenanceAndCorruption:
    def test_provenance_recorded_and_surfaced(self, tmp_path):
        spec = make_spec()
        executor = make_executor(spec, tmp_path)
        manifest = executor.run()
        warm = make_executor(spec, tmp_path).run()
        point = warm.services["compare-systems"].points[0]
        provenance = dict(point.provenance)
        assert "version" in provenance and "created_at" in provenance
        entries = list(executor.cache.scan_provenance())
        assert entries and all(prov is not None for _path, prov in entries)
        for _path, prov in entries:
            assert set(prov) >= {"config", "version", "created_at"}
        assert manifest.cache_stats["stores"] == manifest.totals()["computed"]

    def test_truncated_entry_reruns_point_and_counts_corrupt(self, tmp_path):
        class CounterTelemetry:
            def __init__(self):
                self.counts = {}

            def increment(self, name, value=1):
                self.counts[name] = self.counts.get(name, 0) + value

        spec = make_spec()
        make_executor(spec, tmp_path).run()

        telemetry = CounterTelemetry()
        cache = ResultCache(str(tmp_path / "cache"), telemetry=telemetry)
        # compare-systems is demanded unconditionally (a plain ALL input), so
        # its corrupt point must re-run; a corrupt ONE alternative would
        # instead be routed around via the short-circuit.
        target_config = expand_service(spec.service("compare-systems"))[0]
        artifact = cache.path_for(target_config)
        artifact.write_text(
            artifact.read_text(encoding="utf-8")[:40], encoding="utf-8"
        )
        assert not cache.fresh(target_config)

        executor = CampaignExecutor(
            spec,
            executor=ParallelSweepExecutor(cache=cache),
            out_dir=str(tmp_path / "out"),
        )
        manifest = executor.run()
        assert manifest.totals()["computed"] == 1
        assert manifest.services["compare-systems"].computed == 1
        assert manifest.cache_stats["corrupt"] >= 1
        assert telemetry.counts["cache.corrupt"] >= 1
        # The re-run repaired the entry: a fresh campaign is fully warm.
        repaired = make_executor(spec, tmp_path).run()
        assert repaired.totals()["computed"] == 0


class TestCampaignCli:
    def write_spec(self, tmp_path, payload=None):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(payload or SPEC_DICT), encoding="utf-8")
        return str(path)

    def argv(self, tmp_path, *extra):
        return [
            "campaign",
            *extra,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out-dir",
            str(tmp_path / "out"),
        ]

    def test_cold_warm_and_status(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        assert cli_main(self.argv(tmp_path, spec_path)) == 0
        cold = capsys.readouterr().out
        assert "computed: 6" in cold
        assert cli_main(self.argv(tmp_path, spec_path)) == 0
        warm = capsys.readouterr().out
        assert "computed: 0" in warm and "cache hits: 6" in warm
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["schema"] == "campaign-manifest/v3"
        assert cli_main(["campaign", "status", spec_path, "--cache-dir", str(tmp_path / "cache")]) == 0
        status = capsys.readouterr().out
        assert "fresh" in status and "ONE(alt-cold, fanout-sweep)" in status

    def test_dry_run_prints_plan(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        assert cli_main(self.argv(tmp_path, spec_path, "--dry-run")) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "to compute" in out
        assert not (tmp_path / "out").exists()

    def test_dry_run_plans_an_unchosen_alternative_as_skip(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        assert cli_main(self.argv(tmp_path, spec_path, "--dry-run", "--target", "one-table")) == 0
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines() if line}
        assert rows["alt-cold"][0] == "run"
        assert rows["fanout-sweep"] == ["skip"]

    def test_failed_service_prints_its_error(self, capsys, tmp_path, monkeypatch):
        bad = {config.name for config in expand_service(make_spec().service("fanout-sweep"))}
        run_many = ParallelSweepExecutor.run_many

        def failing(self, configs):
            if any(config.name in bad for config in configs):
                raise ValueError("boom")
            return run_many(self, configs)

        monkeypatch.setattr(ParallelSweepExecutor, "run_many", failing)
        assert cli_main(self.argv(tmp_path, self.write_spec(tmp_path))) == 1
        out = capsys.readouterr().out
        assert "service fanout-sweep: failed — boom" in out
        assert "service late: failed — dependency failed: fanout-sweep" in out
        assert "FAILED node(s): fanout-sweep, late, sweep-report" in out

    def test_unknown_target_flag_fails_with_suggestion(self, tmp_path):
        spec_path = self.write_spec(tmp_path)
        with pytest.raises(SystemExit, match="did you mean 'one-table'"):
            cli_main(self.argv(tmp_path, spec_path, "--target", "one-tble"))

    def test_invalid_spec_fails_fast(self, tmp_path):
        payload = copy.deepcopy(SPEC_DICT)
        payload["services"]["alt-cold"]["scenario"] = "smkoe"
        spec_path = self.write_spec(tmp_path, payload)
        with pytest.raises(SystemExit, match="unknown scenario"):
            cli_main(self.argv(tmp_path, spec_path))

    def test_report_renders_manifest(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        assert cli_main(self.argv(tmp_path, spec_path)) == 0
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "out" / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "campaign unit — services" in out and "targets" in out


#: ``sweep --param AXIS --values TEXT`` and the same axis as campaign JSON.
GRID_AXES = [
    ("system.fanout", "2,4", [2, 4]),
    ("loss_rate", "0.0,0.1", [0.0, 0.1]),
    ("seed", "3,5", [3, 5]),
    ("system.kind", "gossip,fair-gossip", ["gossip", "fair-gossip"]),
    ("faults.churn.down_probability", "0.0,0.05", [0.0, 0.05]),
]


class TestGridCommandsAreOneServiceCampaigns:
    """The CLI grid and the campaign service share names and cache keys.

    The CLI run fills a cache; a campaign ``--dry-run`` over that cache then
    plans every one of its points as a load.  A config hash covers the point
    name, so a full hit means the same names and the same ``config_hash``es.
    """

    def assert_campaign_loads_all(self, capsys, tmp_path, service, points):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(
            json.dumps(
                {"name": "grid", "services": {"grid": service}, "targets": {"t": {"inputs": "grid"}}}
            ),
            encoding="utf-8",
        )
        argv = ["campaign", str(spec_path), "--dry-run", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        row = next(
            line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("grid ")
        )
        assert row == ["grid", "load", str(points), str(points), "0"]

    def run_cli(self, capsys, tmp_path, argv):
        artifact = tmp_path / "cli.json"
        assert cli_main([*argv, "--cache-dir", str(tmp_path / "cache"), "--json", str(artifact)]) == 0
        capsys.readouterr()
        return len(json.loads(artifact.read_text(encoding="utf-8"))["results"])

    @pytest.mark.parametrize("reseed", [False, True], ids=["shared-seed", "reseed"])
    @pytest.mark.parametrize("axis,text,values", GRID_AXES, ids=[axis for axis, _, _ in GRID_AXES])
    def test_sweep(self, capsys, tmp_path, axis, text, values, reseed):
        argv = ["sweep", "smoke", "--param", axis, "--values", text, "--set", "system.gossip_size=6"]
        points = self.run_cli(capsys, tmp_path, argv + (["--reseed"] if reseed else []))
        assert points == len(values)
        service = {
            "scenario": "smoke",
            "set": {"system.gossip_size": 6},
            "sweep": {axis: values},
            "reseed": reseed,
        }
        self.assert_campaign_loads_all(capsys, tmp_path, service, points)

    def test_compare(self, capsys, tmp_path):
        systems = ["gossip", "fair-gossip", "brokers"]
        argv = ["compare", "smoke", "--systems", ",".join(systems), "--set", "system.gossip_size=6"]
        assert self.run_cli(capsys, tmp_path, argv) == len(systems)
        service = {"scenario": "smoke", "set": {"system.gossip_size": 6}, "compare": systems}
        self.assert_campaign_loads_all(capsys, tmp_path, service, len(systems))

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "smoke", "--param", "system.fanout", "--values", ","], "non-empty list"),
            (["compare", "smoke", "--systems", "gossip,fair-gosip"], "did you mean 'fair-gossip'"),
            (["sweep", "smke", "--param", "seed", "--values", "1"], "did you mean 'smoke'"),
        ],
    )
    def test_grid_mistakes_read_as_campaign_service_errors(self, tmp_path, argv, message):
        with pytest.raises(SystemExit, match=message) as excinfo:
            cli_main([*argv, "--cache-dir", str(tmp_path / "cache")])
        assert str(excinfo.value).startswith(f"service {argv[0]!r}: ")



_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPaperCampaign:
    """The paper campaign is the one definition the figure benches read."""

    def test_expands_and_declares_what_the_benches_read(self):
        spec = CampaignSpec.from_file(os.path.join(_ROOT, "examples", "paper_campaign.json"))
        points = {config.name for service in spec.services for config in expand_service(service)}
        targets, keyed = set(), set()
        for path in glob.glob(os.path.join(_ROOT, "benchmarks", "bench_*.py")):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            read = re.findall(r'run_(?:target|in_process)(?:, \(|\()"([\w-]+)"', source)
            targets.update(read)
            if read:  # point names the bench indexes by literal ("fig2/fair-gossip", ...)
                keyed.update(re.findall(r'"([a-z0-9-]+/[\w=.,/-]+)"', source))
        assert len(targets) == 10  # fig1-4, s1-4, c3, c4
        for name in targets:
            spec.target(name)  # CampaignError with a suggestion on a typo
        assert keyed and keyed <= points, sorted(keyed - points)
