"""Tests for the component registry and the declarative StackSpec.

Covers the back-compat contract of the construction redesign:

* nested ``to_dict``/``from_dict`` round-trips and the flat↔nested bijection
  (``StackSpec.from_config(c).to_config() == c`` for every config);
* the flat-dict reader: a PR-1 cache artifact's config dict loads through
  ``ExperimentConfig.from_dict`` and resolves to the *identical* cache key
  (pinned sha256 literals);
* pinned experiment results for two scenarios — the registry-driven build
  path must be bit-identical to the pre-redesign ``if/elif`` ladder;
* registry error messages (did-you-mean on unknown components and paths);
* the CLI's dotted ``--set``/``--sweep``/``describe`` surface;
* the churn-without-registry warning in ``run_experiment``;
* spec-mode ``NodeHost``: gossip and a non-gossip baseline running live
  from the same StackSpec the simulator uses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.experiments import (
    ExperimentConfig,
    StackSpec,
    config_hash,
    get_scenario,
    iter_scenarios,
    run_experiment,
)
from repro.cli import main as cli_main
from repro.gossip import GossipSystem
from repro.registry import (
    INTEREST,
    MEMBERSHIP,
    POLICIES,
    SYSTEMS,
    Param,
    RegistryError,
    all_registries,
    build_interest_model,
    build_popularity,
    parse_spec_overrides,
)
from repro.runtime.host import NodeHost
from repro.runtime.transport import MemoryTransport
from repro.sim.rng import RngRegistry
from tests.conftest import SMOKE_BROKERS_CONFIG_HASH, SMOKE_CONFIG_HASH, result_sha, settle

# --------------------------------------------------------------------------
# Pinned results: a change that moves one is NOT behavior-preserving.  The
# brokers digest dates from the PR-2 tree, before the registry existed; the
# push-gossip ones (smoke, fig4-push, smoke-domains) were re-pinned at 1.1.0,
# when ``EventBuffer.select`` stopped spending draws on entries off the cut
# (docs/ARCHITECTURE.md, "Which literals pin what").  The cache keys that go
# with them are in tests/conftest.py.
# --------------------------------------------------------------------------

SMOKE_RESULT_SHA = "caa6a1f189110d9fbba7f1ce95d7a671071dd9332857504f7829306da9573d30"
SMOKE_BROKERS_RESULT_SHA = "f57d57153497c6feab047314705f8fb4bc3fa773c2cd43fbdb7a39d8fc531a63"

# Cyclon-heavy results the two smoke pins barely exercise: many shuffle rounds,
# the lazy digest/pull path under loss (captured on the PR-11 tree, before the
# simulator hot path was touched, and never moved since: lazy push does not
# call ``select``), and domain-scoped views with bridges.
CYCLON_HEAVY_RESULT_SHAS = {
    "fig4-push": "623f7d3301522e9b0f595894cb1aaece1c7ea09155893ca8925f2d1180d54992",
    "smoke-lazy": "cb44ad1bb5aa6276d3d75585a61ccf78d109151f32ea203d1d730a90d073d2a3",
    "smoke-domains": "f02ce5af8dff891a62c2a82ee06feb62267f80a4a7258519e19c342aa2ff7898",
}


def _smoke_config() -> ExperimentConfig:
    return get_scenario("smoke").config


def _smoke_brokers_config() -> ExperimentConfig:
    return _smoke_config().with_overrides(system="brokers", name="smoke-brokers")


class TestSpecRoundTrips:
    def test_flat_nested_bijection_for_every_scenario(self):
        for scenario in iter_scenarios():
            spec = StackSpec.from_config(scenario.config)
            assert spec.to_config() == scenario.config, scenario.name

    def test_nested_dict_round_trip(self):
        for scenario in iter_scenarios():
            spec = scenario.spec
            payload = spec.to_dict()
            json.dumps(payload)  # must be JSON-serializable
            assert StackSpec.from_dict(payload) == spec, scenario.name

    def test_defaults_agree_with_flat_config_defaults(self):
        assert StackSpec.from_config(ExperimentConfig()) == StackSpec()

    def test_extra_survives_both_encodings(self):
        config = ExperimentConfig(extra=(("buffer_capacity", 64), ("note", "x")))
        spec = StackSpec.from_config(config)
        assert spec.extra_dict() == {"buffer_capacity": 64, "note": "x"}
        assert StackSpec.from_dict(spec.to_dict()).to_config() == config

    def test_dotted_get_and_with_value(self):
        spec = StackSpec()
        assert spec.get("system.fanout") == 3
        assert spec.with_value("system.fanout", 7).system.fanout == 7
        # a flat field name is answered with its dotted path
        with pytest.raises(RegistryError, match="did you mean 'system.fanout'"):
            spec.with_value("fanout", 7)
        # int → float widening for float-typed fields
        assert spec.with_value("duration", 5).duration == 5.0
        assert isinstance(spec.with_value("duration", 5).duration, float)

    @pytest.mark.parametrize(
        "path, value, expected",
        [
            ("system.fanout", "abc", "an integer"),
            ("system.fanout", 2.5, "an integer"),
            ("system.fanout", True, "an integer"),
            ("system.adapt_fanout", 3, "a boolean"),
            ("system.adapt_fanout", "yes", "a boolean"),
            ("loss_rate", True, "a number"),
            ("loss_rate", "lots", "a number"),
            ("membership.kind", 5, "a string"),
        ],
    )
    def test_with_value_rejects_values_that_do_not_fit_the_field(self, path, value, expected):
        with pytest.raises(RegistryError, match=f"{path} must be {expected}"):
            StackSpec().with_value(path, value)

    def test_with_value_narrows_integral_floats_for_int_fields(self):
        narrowed = StackSpec().with_value("system.fanout", 2.0).system.fanout
        assert narrowed == 2 and isinstance(narrowed, int)

    def test_from_dict_runs_the_same_type_check(self):
        with pytest.raises(RegistryError, match="system spec field 'fanout' must be an integer"):
            StackSpec.from_dict({"system": {"fanout": "abc"}})
        assert StackSpec.from_dict({"duration": 5}).duration == 5.0


class TestFlatDictReader:
    def test_pr1_artifact_config_dict_loads_and_keeps_cache_key(self):
        # Exactly what a PR-1 cache artifact carries in its "config" field.
        flat = _smoke_config().to_dict()
        spec = ExperimentConfig.from_dict(flat).spec()
        assert spec == _smoke_config().spec()
        assert config_hash(spec.to_config()) == SMOKE_CONFIG_HASH
        assert config_hash(ExperimentConfig.from_dict(flat)) == SMOKE_CONFIG_HASH

    def test_flat_and_nested_dicts_resolve_identically(self):
        for config in (_smoke_config(), _smoke_brokers_config()):
            from_flat = ExperimentConfig.from_dict(config.to_dict()).spec()
            from_nested = StackSpec.from_dict(StackSpec.from_config(config).to_dict())
            assert from_flat == from_nested
            assert config_hash(from_flat.to_config()) == config_hash(config)

    def test_stack_spec_reads_the_nested_form_only(self):
        with pytest.raises(RegistryError, match="unknown StackSpec fields"):
            StackSpec.from_dict(_smoke_config().to_dict())

    def test_spec_round_trip_never_perturbs_cache_keys(self):
        for scenario in iter_scenarios():
            assert config_hash(scenario.spec.to_config()) == config_hash(scenario.config)


class TestPinnedResults:
    """The registry build path is bit-identical to the pre-redesign ladder."""

    def test_smoke_result_unchanged(self):
        assert config_hash(_smoke_config()) == SMOKE_CONFIG_HASH
        assert result_sha(run_experiment(_smoke_config())) == SMOKE_RESULT_SHA

    def test_smoke_brokers_result_unchanged(self):
        config = _smoke_brokers_config()
        assert config_hash(config) == SMOKE_BROKERS_CONFIG_HASH
        assert result_sha(run_experiment(config)) == SMOKE_BROKERS_RESULT_SHA

    @pytest.mark.parametrize("scenario", sorted(CYCLON_HEAVY_RESULT_SHAS))
    def test_cyclon_heavy_result_unchanged(self, scenario):
        config = get_scenario(scenario).config
        if scenario == "fig4-push":
            config = config.with_overrides(nodes=48)
        assert result_sha(run_experiment(config)) == CYCLON_HEAVY_RESULT_SHAS[scenario]


class TestRegistryErrors:
    def test_unknown_system_suggests_and_lists(self):
        with pytest.raises(RegistryError) as excinfo:
            SYSTEMS.get("gosip")
        message = str(excinfo.value)
        assert "did you mean" in message and "'gossip'" in message
        assert "fair-gossip" in message  # full listing present

    def test_registry_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            MEMBERSHIP.get("bogus")

    def test_policy_aliases_resolve(self):
        assert POLICIES.get("figure2").name == "topic"
        assert POLICIES.get("topic-based").name == "topic"

    def test_unknown_dotted_path_suggests(self):
        with pytest.raises(RegistryError) as excinfo:
            StackSpec().with_value("system.fanoot", 5)
        assert "system.fanout" in str(excinfo.value)

    def test_unknown_nested_dict_field_suggests(self):
        with pytest.raises(RegistryError) as excinfo:
            StackSpec.from_dict({"system": {"kind": "gossip", "fanouts": 3}})
        assert "fanout" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            SYSTEMS.register("gossip", lambda ctx: None)

    def test_duplicate_alias_rejected(self):
        # "figure2" is already an alias of the built-in "topic" policy; a new
        # component must not silently rebind it.
        with pytest.raises(RegistryError, match="figure2"):
            POLICIES.register("my-policy", lambda spec: None, aliases=("figure2",))
        assert "my-policy" not in POLICIES
        assert POLICIES.get("figure2").name == "topic"

    def test_every_param_names_a_field_of_its_section(self):
        # describe() reads each default from that field, so a Param is a
        # spec path, never a second copy of a default.
        for section, registry in all_registries().items():
            fields = {field.name for field in dataclasses.fields(getattr(StackSpec(), section))}
            for name in registry.names():
                for param in registry.get(name).params:
                    assert param.name in fields, (section, name, param.name)

    def test_parse_spec_overrides(self):
        overrides = parse_spec_overrides(["system.fanout=5", "membership.kind=lpbcast"])
        assert overrides == {"system.fanout": 5, "membership.kind": "lpbcast"}
        with pytest.raises(RegistryError):
            parse_spec_overrides(["extra=nope"])
        with pytest.raises(RegistryError):
            parse_spec_overrides(["no-equals-sign"])


class TestCliSurface:
    def test_describe_scenario(self, capsys):
        assert cli_main(["describe", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "system.kind = 'gossip'" in out
        assert "membership.kind = 'cyclon'" in out
        assert "parameters" in out

    def test_describe_component(self, capsys):
        assert cli_main(["describe", "fair-gossip"]) == 0
        out = capsys.readouterr().out
        assert "adapt_fanout" in out

    def test_describe_unknown_suggests(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["describe", "smoek"])
        assert "smoke" in str(excinfo.value)

    def test_set_accepts_dotted_paths(self, capsys):
        code = cli_main(
            [
                "run",
                "smoke",
                "--no-cache",
                "--set",
                "system.fanout=2",
                "--set",
                "membership.kind=lpbcast",
            ]
        )
        assert code == 0
        assert "smoke" in capsys.readouterr().out

    def test_set_unknown_dotted_path_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "smoke", "--no-cache", "--set", "membership.kin=lpbcast"])
        assert "membership.kind" in str(excinfo.value)

    @pytest.mark.parametrize(
        "override",
        [
            "system.fanout=abc",
            "system.fanout=2.5",
            "system.adapt_fanout=3",
            # in type but out of range: each crashed the run or ran silent nonsense
            "system.fanout=-1",
            "nodes=0",
            "loss_rate=2",
            "system.gossip_size=0",
            "system.round_period=0",
            "workload.publication_rate=-1",
            "workload.topics=0",
            "duration=-1",
            "workload.event_size=-1",
        ],
    )
    def test_set_rejects_a_mistyped_value_before_anything_runs(
        self, override, monkeypatch, tmp_path
    ):
        # A bad value must never reach the cache identity, let alone a run.
        def unreachable(*args, **kwargs):
            raise AssertionError("a mistyped override reached config_hash")

        monkeypatch.setattr("repro.experiments.cache.config_hash", unreachable)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "smoke", "--cache-dir", str(tmp_path), "--set", override])
        message = str(excinfo.value)
        assert override.split("=")[0] in message and "must be" in message
        assert "\n" not in message

    def test_sweep_rejects_a_mistyped_value(self):
        with pytest.raises(SystemExit, match="system.fanout must be an integer"):
            cli_main(
                ["sweep", "smoke", "--no-cache", "--param", "system.fanout", "--values", "2,x"]
            )

    def test_flat_names_are_answered_with_their_dotted_path(self):
        with pytest.raises(SystemExit, match="did you mean 'system.fanout'"):
            cli_main(["run", "smoke", "--no-cache", "--set", "fanout=2"])
        with pytest.raises(SystemExit, match="did you mean 'system.fanout'"):
            cli_main(
                ["sweep", "smoke", "--no-cache", "--param", "fanout", "--values", "2,3"]
            )

    def test_sweep_accepts_dotted_param(self, capsys):
        code = cli_main(
            ["sweep", "smoke", "--no-cache", "--param", "system.fanout", "--values", "2,3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fanout=2" in out and "fanout=3" in out


class _NoRegistryGossip(GossipSystem):
    """A registered system without a process registry (churn cannot attach)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        del self.registry


class TestFaultPlanValidation:
    """An unsatisfiable fault plan fails fast instead of warning."""

    def test_requested_churn_without_registry_fails_fast(self):
        from repro.faults import FaultPlanError

        SYSTEMS.register(
            "no-registry-gossip",
            lambda ctx: _NoRegistryGossip(
                ctx.scheduler, ctx.network, list(ctx.node_ids)
            ),
            description="test-only",
        )
        try:
            config = _smoke_config().with_overrides(
                name="churny",
                system="no-registry-gossip",
                churn_down_probability=0.05,
                duration=2.0,
                drain_time=1.0,
            )
            with pytest.raises(FaultPlanError, match="no process registry"):
                run_experiment(config)
        finally:
            SYSTEMS.unregister("no-registry-gossip")

    def test_churn_with_registry_runs_cleanly(self, recwarn):
        config = _smoke_config().with_overrides(
            name="churny-ok", churn_down_probability=0.05, duration=2.0, drain_time=1.0
        )
        run_experiment(config)
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def _run_live_spec(kind: str, publications: int = 20) -> NodeHost:
    """Run a small spec-built cluster briefly on the memory transport."""

    async def scenario() -> NodeHost:
        spec = get_scenario("smoke").spec.with_values(
            {"nodes": 10, "system.kind": kind}
        )
        host = NodeHost(MemoryTransport(), seed=spec.seed, time_scale=20.0, spec=spec)
        await host.start()
        popularity = build_popularity(spec)
        model = build_interest_model(spec, popularity)
        interest = model.assign(
            list(spec.node_ids()), RngRegistry(spec.seed).stream("experiment-interest")
        )
        interest.apply(host)
        rng = RngRegistry(1234).stream("publications")
        for index in range(publications):
            host.publish(f"node-{index % 10:03d}", topic=popularity.sample(rng))
            await asyncio.sleep(0.005)
        await settle(lambda: host.delivery_log.total_deliveries() > 0)
        await host.stop()
        return host

    return asyncio.run(scenario())


class TestSpecModeHost:
    """The same StackSpec builds the stack for the live runtime."""

    def test_gossip_scenario_runs_live(self):
        host = _run_live_spec("gossip")
        assert host.system is not None and host.system.name == "push-gossip"
        assert host.delivery_log.total_deliveries() > 0
        assert host.network.decode_errors == 0
        assert host.transport.frames_sent > 0

    def test_non_gossip_baseline_runs_live(self):
        host = _run_live_spec("brokers")
        assert host.delivery_log.total_deliveries() > 0
        assert host.network.decode_errors == 0
        # brokers are infrastructure: hosted (client) nodes exclude them
        assert all(node_id.startswith("node-") for node_id in host.node_ids())
        # the shared ledger sees broker work (fairness reads the real data)
        assert "broker-0" in host.ledger.node_ids()

    def test_misspelt_selection_strategy_extra_fails_before_the_first_event(self):
        spec = dataclasses.replace(
            get_scenario("smoke").spec, extra=(("selection_strategy", "newst"),)
        )

        async def scenario() -> None:
            host = NodeHost(MemoryTransport(), spec=spec)
            with pytest.raises(ValueError, match="did you mean 'newest'"):
                await host.start()

        asyncio.run(scenario())

    def test_spec_mode_rejects_manual_add_node(self):
        spec = get_scenario("smoke").spec
        host = NodeHost(MemoryTransport(), spec=spec)
        with pytest.raises(ValueError, match="StackSpec"):
            host.add_node("node-000")
