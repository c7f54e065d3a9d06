"""The names ``perfbench/layers.py`` patches must stay where it looks for them.

The benchmark measures layers from outside: for every class target it
replaces ``owner.__dict__[attribute]``, so a method that a refactor hoists
into a base class (still callable, no longer in the owner's own ``__dict__``)
breaks the traced benchmark run with a ``KeyError``.  ``perfbench/`` is frozen
and its own self-tests sit outside tier-1; this check reads its target list
and fails here, in under a second, instead.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _patch_targets():
    sys.path.insert(0, str(ROOT))
    try:
        layers = importlib.import_module("perfbench.layers")
    finally:
        sys.path.remove(str(ROOT))
    return layers.TARGETS + [layers.COUNT_ONLY]


def _patched_objects():
    """``where -> object`` for every target that resolves in its owner's ``__dict__``."""
    found, missing = {}, []
    for module_name, class_name, attribute, _span in _patch_targets():
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name, None)
        where = f"{module_name}:{class_name or '<module>'}.{attribute}"
        if owner is None or attribute not in vars(owner):
            missing.append(where)
        else:
            found[where] = vars(owner)[attribute]
    return found, missing


def test_every_patched_name_is_defined_where_perfbench_patches_it():
    found, missing = _patched_objects()
    assert len(found) + len(missing) > 100
    assert not missing, "perfbench/layers.py patches names that moved: " + ", ".join(missing)


def test_patched_names_are_pairwise_distinct_functions():
    """An alias (``AsyncPeriodicTimer = PeriodicTimer``, ``B._fire = A._fire``)
    resolves in both owners, so the check above passes — and perfbench then
    wraps one function twice, charging simulator time to ``runtime.*`` spans
    (or the reverse)."""
    found, _missing = _patched_objects()
    owners_by_object = {}
    for where, patched in found.items():
        assert callable(patched), f"{where} is not a function"
        owners_by_object.setdefault(id(patched), []).append(where)
    aliased = [names for names in owners_by_object.values() if len(names) > 1]
    assert not aliased, f"perfbench would wrap the same function twice: {aliased}"


#: perfbench's child up to its traced pass: the timed passes resolve what the
#: run uses, then ``layers.install`` imports every other target module while
#: earlier targets are already patched.
_TRACED_CHILD = """
import importlib, json, sys
from perfbench import child, layers, workloads
from perfbench.trace import Tracer

child._import_program()
configs = child._sim_configs(workloads.build_inputs("sim-scale-push", 4099, quick=True))
child._sim_setup(configs)
child._sim_pass(configs)
tracer = Tracer()
layers.install(tracer)
tracer.start()
child._sim_pass(configs)
tracer.stop()
tracer.uninstall()
stale = []
for name, package in sorted(sys.modules.items()):
    for export, submodule in getattr(package, "_EXPORTS", {}).items():
        if export in vars(package) and vars(package)[export] is not getattr(
            importlib.import_module(submodule, name), export
        ):
            stale.append(name + "." + export)
print(json.dumps(stale))
"""


def test_no_package_export_keeps_a_perfbench_wrapper_after_uninstall():
    """A package resolves an export once and keeps it; if that first access
    fell between ``Tracer.install`` and ``uninstall`` the package would keep
    the wrapper, which ``install`` could not know to put back."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_CHILD], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
