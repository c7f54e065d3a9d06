"""Every name ``src/repro`` defines is used by the program, not only by tests.

A function or class that only ``tests/`` calls is code nobody runs: it has
to be read, kept in step and migrated, and it reaches no result.  This check
collects every ``def`` and ``class`` name in ``src/repro`` with :mod:`ast`
and counts a name as *reached* when it occurs outside its own definition in
the code that is not a test: ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/`` (its ``tests/`` excluded).  An occurrence is an attribute
name, an imported name, a string constant (perfbench names the methods it
patches as strings; the package ``_EXPORTS`` tables name their exports the
same way) or, for a function or class, a bare identifier.  A method is
reached only through an attribute or a string, since that is how a method
is called, so a local variable named like a method does not reach it.
Dunder names are skipped: the interpreter calls them.

The check is by name only, so it has known limits: two definitions with the
same name mask each other (a used ``Histogram.summary`` reaches an unused
``summary`` anywhere else), and so does any attribute, keyword or string of
that name.  It finds the clear cases cheaply; it proves nothing about the
masked ones.  ``make census`` (``benchmarks/census.py``, outside tier-1)
sees those: it runs the shipped commands under a call hook and lists in the
tracked ``CENSUS.txt`` every function none of them called, whatever its
name.

``ALLOWED`` lists the names kept on purpose although no program code reaches
them, each with its reason: a framework callback (called by the event loop),
a test reference or oracle (what a test compares the program against), or a
test seam (how a test reads or undoes state the program only writes).
``UNCHECKED`` lists whole modules left out, each with its reason.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
PROGRAM = ("src", "benchmarks", "examples", "perfbench")

FRAMEWORK_CALLBACK = "framework callback"
TEST_REFERENCE = "test reference or oracle"
TEST_SEAM = "test seam"

#: ``name -> reason`` for definitions kept although only tests reach them.
ALLOWED: Dict[str, str] = {
    # asyncio.DatagramProtocol callbacks of the UDP transport.
    "datagram_received": FRAMEWORK_CALLBACK,
    "error_received": FRAMEWORK_CALLBACK,
    # The one-condition reading the compiled ContentFilter.matches is checked against.
    "holds_for": TEST_REFERENCE,
    # Invariant oracle over a run's trace: no delivery to a node that could not be reached.
    "unreachable_deliveries": TEST_REFERENCE,
    # The seen-map query the inlined checks of PushGossipNode are compared against.
    "has_seen": TEST_REFERENCE,
    # Digit extraction, from which the tests' reference prefix length is built.
    "digit": TEST_REFERENCE,
    # The churn workload's own record, which the subscription table is compared against.
    "active_subscriptions": TEST_REFERENCE,
    # How a test removes a throwaway registration from a process-wide registry.
    "unregister": TEST_SEAM,
    # TelemetrySnapshot queries the program itself answers in bulk: tests read
    # one counter, or one counter by tag, from a snapshot through them.
    "counter_value": TEST_SEAM,
    "counters_by_tag": TEST_SEAM,
    # How a test reads what a gossip buffer holds, and a membership
    # component's current view (interest_aware.py, kept for perfbench, calls
    # ``known_peers`` too); other names of the same spelling hide them.
    "event_ids": TEST_SEAM,
    "events": TEST_SEAM,
    "known_peers": TEST_SEAM,
    # How a test reads a memory sink, and which nodes a router counts alive.
    "records": TEST_SEAM,
    "alive_nodes": TEST_SEAM,
}

#: Modules whose definitions are not checked, each with its reason.
UNCHECKED: Dict[str, str] = {
    "src/repro/membership/interest_aware.py": (
        "built by no registry kind; perfbench patches it by name, and it goes "
        "as a whole once perfbench stops naming it"
    ),
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _program_files(root: Path) -> List[Path]:
    return [
        path
        for top in PROGRAM
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts[1:]
    ]


@lru_cache(maxsize=None)
def _scan(root: Path = ROOT) -> Tuple[Dict[str, List[str]], Set[str], Set[str]]:
    """``(defined, names, members)`` over the program of the tree at ``root``.

    ``defined`` maps every def and class in ``src/repro`` that is not a dunder
    to its ``"src/repro/module.py:line"`` places, with the names of methods
    prefixed by ``"."``.  ``members`` holds every attribute name, imported
    name and string constant, ``names`` every bare identifier; a definition
    calling itself (the innermost enclosing def's own name, bare or on
    ``self`` / ``cls``) is not a use.
    """
    defined: Dict[str, List[str]] = {}
    names: Set[str] = set()
    members: Set[str] = set()
    source = root / SOURCE.relative_to(ROOT)
    for path in _program_files(root):
        where = str(path.relative_to(root))
        in_source = source in path.parents and where not in UNCHECKED
        stack: List[Tuple[ast.AST, str, bool]] = [(ast.parse(path.read_text()), "", False)]
        while stack:
            node, inside, in_class = stack.pop()
            kind = type(node)
            if kind is ast.Name:
                if node.id != inside:
                    names.add(node.id)
            elif kind is ast.Attribute:
                owner = node.value
                if not (
                    node.attr == inside
                    and type(owner) is ast.Name
                    and owner.id in ("self", "cls")
                ):
                    members.add(node.attr)
            elif kind is ast.alias:
                members.add(node.name.rpartition(".")[2])
            elif kind is ast.Constant and type(node.value) is str:
                members.add(node.value)
            elif kind in _DEFINITIONS:
                inside = node.name
                if in_source and not (inside.startswith("__") and inside.endswith("__")):
                    key = "." + inside if in_class and kind is not ast.ClassDef else inside
                    defined.setdefault(key, []).append(f"{where}:{node.lineno}")
            in_body = kind is ast.ClassDef
            for child in ast.iter_child_nodes(node):
                stack.append((child, inside, in_body))
    return defined, names, members


def _reached(key: str, names: Set[str], members: Set[str]) -> bool:
    """A method (``".name"``) is reached through an attribute or a string;
    a function or class through those or a bare identifier."""
    if key.startswith("."):
        return key[1:] in members
    return key in members or key in names


def _unreached(root: Path = ROOT) -> List[str]:
    """``"name (places)"`` of every definition under ``root`` the check flags."""
    defined, names, members = _scan(root)
    return sorted(
        f"{key.lstrip('.')} ({', '.join(places)})"
        for key, places in defined.items()
        if not _reached(key, names, members) and key.lstrip(".") not in ALLOWED
    )


def test_every_source_definition_is_reached_by_program_code():
    unreached = _unreached()
    assert not unreached, (
        "defined in src/ but used only by tests (delete it, or add it to ALLOWED "
        "with its reason):\n  " + "\n  ".join(unreached)
    )


def test_allowlist_names_kept_definitions():
    assert set(ALLOWED.values()) <= {FRAMEWORK_CALLBACK, TEST_REFERENCE, TEST_SEAM}
    gone = sorted(set(ALLOWED) - {key.lstrip(".") for key in _scan()[0]})
    assert not gone, f"ALLOWED names definitions that are gone: {gone}"
    assert all((ROOT / path).is_file() for path in UNCHECKED)


# --------------------------------------------------------------------------
# The check itself, on small trees written for the purpose.


def _flagged(tmp_path: Path, files: Dict[str, str]) -> List[str]:
    """The names the check flags in a tree holding exactly ``files``."""
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return [entry.partition(" ")[0] for entry in _unreached(tmp_path)]


MODULE = "src/repro/module.py"


def test_a_function_only_tests_call_is_flagged(tmp_path):
    files = {
        MODULE: "def used():\n    pass\n\n\ndef only_tested():\n    pass\n",
        "examples/demo.py": "from repro.module import used\nused()\n",
        "tests/test_module.py": "from repro.module import only_tested\nonly_tested()\n",
    }
    assert _flagged(tmp_path, files) == ["only_tested"]


def test_a_bare_name_reaches_a_function_in_its_own_module(tmp_path):
    files = {MODULE: "def helper():\n    pass\n\n\nHOOKS = [helper]\n"}
    assert _flagged(tmp_path, files) == []


def test_a_local_variable_does_not_reach_a_method_of_its_name(tmp_path):
    files = {
        MODULE: "class Clock:\n    def timer(self):\n        pass\n",
        "benchmarks/bench.py": "from repro.module import Clock\ntimer = Clock()\nprint(timer)\n",
    }
    assert _flagged(tmp_path, files) == ["timer"]


def test_an_attribute_or_a_string_reaches_a_method(tmp_path):
    files = {
        MODULE: (
            "class Engine:\n"
            "    def step(self):\n        pass\n\n"
            "    def patched(self):\n        pass\n"
        ),
        "examples/run.py": "from repro.module import Engine\nEngine().step()\n",
        "perfbench/layers.py": 'PATCHED = [("Engine", "patched")]\n',
    }
    assert _flagged(tmp_path, files) == []


def test_a_method_calling_itself_is_not_reached(tmp_path):
    files = {
        MODULE: (
            "class Tree:\n"
            "    def walk(self, depth):\n"
            "        return self.walk(depth - 1) if depth else 0\n\n\n"
            "TREES = [Tree]\n"
        ),
    }
    assert _flagged(tmp_path, files) == ["walk"]


def test_perfbench_tests_do_not_reach(tmp_path):
    files = {
        MODULE: "def probe():\n    pass\n",
        "perfbench/tests/test_probe.py": "from repro.module import probe\nprobe()\n",
    }
    assert _flagged(tmp_path, files) == ["probe"]


def test_dunders_and_unchecked_modules_are_not_checked(tmp_path):
    unchecked = next(iter(UNCHECKED))
    files = {
        MODULE: "class Box:\n    def __len__(self):\n        return 0\n\n\nBOXES = [Box]\n",
        unchecked: "def patched_elsewhere():\n    pass\n",
    }
    assert _flagged(tmp_path, files) == []


def test_an_allowed_name_is_not_flagged(tmp_path):
    files = {MODULE: "class Oracle:\n    def holds_for(self, event):\n        pass\n\n\nORACLE = Oracle\n"}
    assert "holds_for" in ALLOWED
    assert _flagged(tmp_path, files) == []
