"""Package export tables and the import budget of a run.

Every package declares its public names once, in an ``_EXPORTS`` table
(``name -> submodule``), and resolves them on first access
(:mod:`repro._exports`).  The first class checks the tables against the
submodules they name.  The others run a fresh interpreter and check that a
simulator run, and the CLI commands that run nothing, load only what they
use: a later eager import anywhere fails here and names the module.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.cli import main as cli_main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def _loaded_after(script: str) -> list:
    """The ``sys.modules`` keys a fresh interpreter holds after running ``script``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestExportTables:
    def test_every_package_declares_one_table(self):
        for name in PACKAGES:
            assert isinstance(importlib.import_module(name).__dict__.get("_EXPORTS"), dict), name

    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_entry_is_the_attribute_of_the_submodule_it_names(self, name):
        package = importlib.import_module(name)
        for export, submodule in package._EXPORTS.items():
            defined = getattr(importlib.import_module(submodule, name), export)
            assert getattr(package, export) is defined, f"{name}.{export}"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_dir_and_star_import_come_from_the_table(self, name):
        package = importlib.import_module(name)
        assert set(package._EXPORTS) <= set(package.__all__)
        assert set(package.__all__) <= set(dir(package))
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'Simulater'"):
            importlib.import_module("repro.sim").Simulater  # noqa: B018
        with pytest.raises(ImportError):
            exec("from repro.sim import Simulater", {})


#: Modules a simulator run of a gossip scenario must not load.
RUN_DENYLIST = (
    "repro.dht",
    "repro.brokers",
    "repro.damulticast",
    "repro.pubsub.matching",
    "repro.campaign",
    "repro.faults.controller",
    "repro.topology.bridge",
    "repro.experiments.executor",
    "repro.experiments.cache",
    "repro.experiments.sweeps",
    "multiprocessing",
)


def _denied(loaded, denylist, allowed=()):
    """The modules of ``loaded`` below ``repro.runtime`` or in ``denylist`` (with submodules)."""

    def denied(module):
        return module.startswith("repro.runtime.") or any(
            module == entry or module.startswith(entry + ".") for entry in denylist
        )

    return [module for module in loaded if denied(module) and module not in allowed]


def test_a_push_gossip_run_loads_only_what_it_uses():
    loaded = _loaded_after(
        "import repro, repro.experiments, repro.runtime\n"
        "from repro.experiments import get_scenario, run_experiment\n"
        "run_experiment(get_scenario('fig4-push').config.with_overrides(nodes=48))"
    )
    assert "repro.gossip.push" in loaded and "repro.runtime" in loaded
    assert not _denied(loaded, RUN_DENYLIST)


def test_a_live_gossip_run_loads_no_baseline():
    # The wire codec imports a baseline's payload table the first time one of
    # its kinds is seen; a gossip cluster on the memory transport sees none.
    loaded = _loaded_after(
        "from repro.cli import main\n"
        "main(['loadgen', '--set', 'nodes=8', '--transport', 'memory',"
        " '--duration', '0.3', '--rate', '50', '--drain', '0.2'])"
    )
    assert "repro.runtime.host" in loaded and "repro.runtime.wire" in loaded
    assert "repro.gossip.push" in loaded
    runtime = [module for module in loaded if module.startswith("repro.runtime.")]
    assert not _denied(loaded, ("repro.dht", "repro.brokers", "repro.damulticast"), allowed=runtime)


@pytest.mark.parametrize("argv", [["list-scenarios"], ["describe", "smoke"], ["report"]])
def test_the_cli_loads_only_its_command(argv, tmp_path):
    if argv == ["report"]:
        argv = ["report", str(tmp_path / "results.json")]
        cli_main(["run", "smoke", "--no-cache", "--json", argv[1]])
    loaded = _loaded_after(f"from repro.cli import main\nmain({argv!r})")
    assert "repro.runtime.cli" in loaded
    denylist = ("repro.campaign.executor", "multiprocessing")
    assert not _denied(loaded, denylist, allowed=("repro.runtime.cli",))
