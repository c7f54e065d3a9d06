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


def test_every_patched_name_is_defined_where_perfbench_patches_it():
    targets = _patch_targets()
    assert len(targets) > 100
    missing = []
    for module_name, class_name, attribute, _span in targets:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name, None)
        if owner is None or attribute not in vars(owner):
            missing.append(f"{module_name}:{class_name or '<module>'}.{attribute}")
    assert not missing, "perfbench/layers.py patches names that moved: " + ", ".join(missing)
