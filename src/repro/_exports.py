"""Package export tables: a public name is imported the first time it is used.

Every package ``__init__`` declares its public names once, in an
``_EXPORTS`` table of ``name -> submodule`` (a relative module name such as
``".engine"``), and takes its ``__getattr__`` (PEP 562), ``__dir__`` and
``__all__`` from that table, so ``import repro.runtime`` loads the package
shell and nothing else.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` of ``package`` from its export table.

    The first access of a name imports its submodule and stores the value in
    the package namespace, so every later access is a plain attribute lookup.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(table[name], package), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)
