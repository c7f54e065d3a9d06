"""``serve`` / ``loadgen`` through ``repro.cli.main``.

The live commands reach their stack the way every command does — scenario →
``StackSpec`` → build — so these tests drive the real argument parser on
the memory transport (each run lasts well under two seconds):

* the flagless default (the ``live`` scenario) and ``--scenario`` runs of a
  gossip system, a non-gossip baseline and a fault plan;
* the ``--json`` artifact;
* overrides and option guards that used to be ignored or refused without
  ``--scenario``;
* every registered system, membership and interest name reaches the spec
  through ``--set <section>.kind=NAME`` on ``run``, ``serve`` and ``loadgen``.
"""

from __future__ import annotations

import asyncio
import json
import re
import os

import pytest

from repro.experiments import get_scenario
from repro.cli import build_parser, main as cli_main, resolve_spec
from repro.registry import INTEREST, MEMBERSHIP, SYSTEMS
from repro.runtime.cli import _cluster_from_args

FAST = ["--transport", "memory", "--duration", "0.6", "--rate", "150", "--drain", "0.3"]
_EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
FAULT_PLAN = os.path.join(_EXAMPLES, "fault_plan.json")
GEO_TOPOLOGY = os.path.join(_EXAMPLES, "geo_topology.json")


def built_nodes(argv):
    """The nodes of the cluster ``loadgen ARGV`` would run (started, then stopped)."""

    async def scenario():
        cluster = _cluster_from_args(build_parser().parse_args(["loadgen", *argv]))
        await cluster.host.start()
        try:
            return cluster.spec, dict(cluster.host.nodes)
        finally:
            await cluster.host.stop()

    return asyncio.run(scenario())


class TestLiveRuns:
    def test_flagless_default_is_the_live_scenario(self, capsys, tmp_path):
        artifact_path = tmp_path / "rt.json"
        assert cli_main(["loadgen", "--set", "nodes=8", *FAST, "--json", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "delivery ratio" in out
        # failed frames are shown on the transport line, not only counted
        assert re.search(r"bytes sent, \d+ send failures, 0 decode errors\)", out)
        artifact = json.loads(artifact_path.read_text(encoding="utf-8"))
        assert artifact["schema"] == "rt-load/v1"
        assert artifact["scenario"] == "live"
        assert artifact["nodes"] == 8
        assert artifact["seed"] == get_scenario("live").spec.seed
        assert artifact["delivery_ratio"] > 0

    def test_loadgen_over_udp_decodes_every_frame(self, capsys):
        argv = ["loadgen", "--set", "nodes=8", "--transport", "udp", "--duration", "0.6", "--rate", "150", "--drain", "0.3"]
        assert cli_main(argv) == 0
        transport = re.search(r"transport udp \((\d+) frames, \d+ bytes sent, \d+ send failures, (\d+) decode errors\)", capsys.readouterr().out)
        assert transport and int(transport.group(1)) > 0
        assert transport.group(2) == "0"

    def test_serve_prints_live_report_lines(self, capsys):
        assert cli_main(["serve", "--set", "nodes=6", *FAST, "--report-interval", "0.2"]) == 0
        assert "[serve +" in capsys.readouterr().out

    def test_serve_report_lines_count_the_runs_publications_and_deliveries(self, capsys, tmp_path):
        artifact_path = tmp_path / "rt.json"
        argv = ["serve", "--set", "nodes=6", *FAST, "--report-interval", "0.2"]
        assert cli_main([*argv, "--json", str(artifact_path)]) == 0
        lines = re.findall(
            r"\[serve \+\s*[\d.]+s\] published\s+(\d+) .*\| deliveries\s+(\d+) \|",
            capsys.readouterr().out,
        )
        published = [int(count) for count, _ in lines]
        deliveries = [int(count) for _, count in lines]
        assert lines and published[-1] > 0
        assert published == sorted(published) and deliveries == sorted(deliveries)
        load = json.loads(artifact_path.read_text(encoding="utf-8"))["load"]
        assert published[-1] <= load["published"]
        assert deliveries[-1] <= load["deliveries"]

    def test_scenario_with_a_non_gossip_system(self, capsys, tmp_path):
        artifact_path = tmp_path / "rt.json"
        argv = ["loadgen", "--scenario", "smoke", "--set", "system.kind=brokers", *FAST]
        assert cli_main([*argv, "--json", str(artifact_path)]) == 0
        artifact = json.loads(artifact_path.read_text(encoding="utf-8"))
        assert artifact["system"] == "brokers"
        assert artifact["nodes"] == get_scenario("smoke").spec.nodes
        assert artifact["delivery_ratio"] > 0

    def test_scenario_with_a_fault_plan(self, capsys):
        argv = ["loadgen", "--scenario", "smoke", "--fault", FAULT_PLAN, *FAST]
        assert cli_main(argv) == 0
        assert "delivery ratio" in capsys.readouterr().out


class TestFlaglessOverrides:
    """Without ``--scenario`` the live commands honour the shared options."""

    def test_unknown_set_path_is_refused(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["loadgen", "--set", "nodes=6", *FAST, "--set", "bogus.key=1"])
        assert "unknown config key 'bogus.key'" in str(excinfo.value)
        with pytest.raises(SystemExit, match="did you mean 'system.fanout'"):
            cli_main(["loadgen", "--set", "nodes=6", *FAST, "--set", "system.fanoot=1"])

    def test_set_reaches_the_built_nodes(self):
        spec, nodes = built_nodes(["--set", "nodes=6", *FAST, "--set", "system.fanout=2"])
        assert spec.name == "live" and len(nodes) == 6
        assert {node.fanout for node in nodes.values()} == {2}

    def test_classic_defaults_reach_the_built_nodes(self):
        spec, nodes = built_nodes(FAST)
        assert len(nodes) == 25 and spec.publisher_ids() == spec.node_ids()
        node = next(iter(nodes.values()))
        assert (node.fanout, node.gossip_size) == (5, 24)
        assert (node.buffer.capacity, node.selection_strategy) == (4000, "least-forwarded")

    def test_set_overrides_the_scenario_buffer(self):
        argv = ["--scenario", "smoke", "--set", "system.fanout=4", *FAST]
        spec, nodes = built_nodes([*argv, "--set", "system.buffer_capacity=99"])
        assert spec.system.fanout == 4
        node = next(iter(nodes.values()))
        # The override wins; smoke's own strategy fills what it leaves open.
        assert (node.buffer.capacity, node.selection_strategy) == (99, "newest")

    def test_topology_file_is_accepted_without_a_scenario(self):
        spec, nodes = built_nodes(["--topology", GEO_TOPOLOGY, *FAST])
        assert spec.topology.enabled and len(nodes) == 25


class TestDanglingOptionGuards:
    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_telemetry_period_needs_a_sink(self, command):
        with pytest.raises(SystemExit, match="--telemetry-period has no effect"):
            cli_main([command, *FAST, "--telemetry-period", "2"])
        with pytest.raises(SystemExit, match="must be positive"):
            cli_main([command, *FAST, "--telemetry", "memory", "--telemetry-period", "0"])

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_trace_sample_rate_needs_a_trace(self, command):
        with pytest.raises(SystemExit, match="--trace-sample-rate has no effect"):
            cli_main([command, *FAST, "--trace-sample-rate", "0.5"])

    @pytest.mark.parametrize("flag", ["--rate", "--duration"])
    def test_a_rate_or_duration_of_zero_is_a_clean_error(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["loadgen", *FAST, flag, "0"])
        assert str(excinfo.value) == f"{flag} must be positive, got 0.0"

    def test_bad_sink_spec_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown telemetry sink kind"):
            cli_main(["loadgen", *FAST, "--telemetry", "carrier-pigeon:out"])


REGISTERED_KINDS = [
    (section, name)
    for section, registry in (("system", SYSTEMS), ("membership", MEMBERSHIP), ("interest", INTEREST))
    for name in registry.names()
]


class TestRegisteredKindsReachTheSpec:
    """No command keeps a choice list beside the registries: ``--set`` reaches all of them."""

    @pytest.mark.parametrize("command", ["run", "serve", "loadgen"])
    @pytest.mark.parametrize(
        "section,name", REGISTERED_KINDS, ids=[f"{s}={n}" for s, n in REGISTERED_KINDS]
    )
    def test_set_kind_resolves(self, command, section, name):
        args = build_parser().parse_args([command, "--set", f"{section}.kind={name}"])
        if command == "run":
            spec = resolve_spec(args)
        else:
            spec = _cluster_from_args(args).spec
        assert getattr(spec, section).kind == name

    def test_serve_runs_on_full_membership(self, capsys):
        argv = ["serve", "--set", "nodes=6", "--set", "membership.kind=full", *FAST]
        assert cli_main([*argv, "--report-interval", "0.2"]) == 0
        assert "delivery ratio" in capsys.readouterr().out

