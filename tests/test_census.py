"""The call census's two halves: how it names definitions and how it sees calls.

``make census`` itself runs for minutes and stays out of tier-1; these tests
check, in a few seconds, that its key for a definition is the key of the
code object the interpreter runs, that its hook records a call made in a
sweep worker that the pool ends with SIGTERM, that it runs every entry point
it promises, that a run with a stand-in command set counts what that set
called, and that the tracked ``CENSUS.txt`` names only functions that exist.
"""

from __future__ import annotations

import inspect
import os
import pkgutil
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import repro
from benchmarks import census
from benchmarks.census import HOOK, ROOT, commands, definitions

SOURCE = Path(repro.__file__).resolve().parent


def _functions(value):
    """The plain functions a module attribute or a class member holds."""
    for attribute in (None, "fget", "fset", "__func__", "__wrapped__"):
        candidate = value if attribute is None else getattr(value, attribute, None)
        if inspect.isfunction(candidate):
            yield candidate


def _code_objects(code, seen):
    """Add ``code`` and every code object nested in it to ``seen``."""
    stack = [code]
    while stack:
        code = stack.pop()
        if code not in seen:
            seen.add(code)
            stack.extend(const for const in code.co_consts if inspect.iscode(const))


def test_definitions_key_functions_as_their_code_objects_start(tmp_path):
    source = tmp_path / "src" / "repro"
    source.mkdir(parents=True)
    (source / "module.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        pass\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "@functools.wraps(print)\n"
        "def cached():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "\n"
        "\n"
        "async def waiting():\n"
        "    pass\n"
    )
    assert definitions(source) == {
        ("src/repro/module.py", 5, "size"): "src/repro/module.py:Box.size",
        ("src/repro/module.py", 9, "size"): "src/repro/module.py:Box.size",
        ("src/repro/module.py", 14, "cached"): "src/repro/module.py:cached",
        ("src/repro/module.py", 17, "inner"): "src/repro/module.py:cached.<locals>.inner",
        ("src/repro/module.py", 22, "waiting"): "src/repro/module.py:waiting",
    }


def test_every_function_the_package_compiles_has_the_census_key_of_its_definition():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        import_module(module.name)
    seen = set()
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in vars(module).values():
                members = [value, *vars(value).values()] if inspect.isclass(value) else [value]
                for function in (function for member in members for function in _functions(member)):
                    _code_objects(function.__code__, seen)
    root = SOURCE.parent.parent
    compiled = {
        (str(Path(code.co_filename).resolve().relative_to(root)), code.co_firstlineno, code.co_name)
        for code in seen
        if code.co_filename.startswith(str(SOURCE) + os.sep)
        and code.co_flags & inspect.CO_OPTIMIZED
        and not code.co_name.startswith("<")
    }
    keys = set(definitions(SOURCE))
    assert compiled and not compiled - keys, sorted(compiled - keys)[:10]


def test_the_hook_sees_a_pool_workers_call_and_each_code_object_once(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "work.py").write_text("def twice():\n    return 2\n\n\ndef in_worker():\n    return 1\n")
    hook = tmp_path / "hook"
    hook.mkdir()
    dump = tmp_path / "calls.tsv"
    (hook / "sitecustomize.py").write_text(HOOK.format(prefix=str(package) + os.sep, dump=str(dump)))
    script = (
        "from multiprocessing import Pool\n"
        "from pkg import work\n"
        "work.twice(); work.twice()\n"
        "if __name__ == '__main__':\n"
        "    with Pool(1) as pool:\n"
        "        assert pool.apply(work.in_worker) == 1\n"
    )
    environment = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{tmp_path}")
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=environment, check=True, timeout=60)
    calls = [line.split("\t")[2] for line in dump.read_text().splitlines()]
    # ``Pool.__exit__`` terminates the worker, so only a write at first sight
    # records ``in_worker``; ``twice`` ran twice in the parent, once recorded
    # there (a spawned worker re-imports the module and records it again).
    assert "in_worker" in calls
    assert calls.count("twice") in (1, 2)


def test_the_tracked_census_is_sorted_unique_and_one_function_a_line():
    lines = (ROOT / "CENSUS.txt").read_text().splitlines()
    assert lines == sorted(set(lines))
    assert all(line.startswith("src/repro/") and ".py:" in line for line in lines)


def test_the_tracked_census_names_only_functions_that_exist():
    # A function deleted or renamed without a new census leaves a stale line.
    stale = set((ROOT / "CENSUS.txt").read_text().splitlines()) - set(definitions(SOURCE).values())
    assert not stale, sorted(stale)


def test_commands_run_every_smoke_target_and_the_rest_of_the_entry_points():
    runs = commands(ROOT, Path("hook"))
    targets = [argv[-1] for argv in runs if argv[0] == "make"]
    smoke = re.findall(r"^([a-z-]+-smoke):", (ROOT / "Makefile").read_text(), re.M)
    assert smoke and targets == [*smoke, "fingerprint", "bench-scale-quick", "perfbench-quick"]
    assert all(f"PYTHONPATH=hook{os.pathsep}src" in argv for argv in runs if argv[0] == "make")
    scripts = [argv[1] for argv in runs if argv[0] == sys.executable and argv[1].endswith(".py")]
    assert scripts == sorted(str(path) for path in (ROOT / "examples").glob("*.py"))
    assert runs[-1] == [sys.executable, "-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]


def test_a_census_run_drops_what_its_commands_called_and_reports_a_failed_one(monkeypatch):
    called = "src/repro/runtime/clock.py:WallClock.__repr__"
    untouched = "src/repro/sim/clock.py:VirtualClock.__repr__"
    stand_in = [
        [sys.executable, "-c", "from repro.runtime.clock import WallClock; repr(WallClock())"],
        [sys.executable, "-c", "raise SystemExit(3)"],
    ]
    monkeypatch.setattr(census, "commands", lambda tree, hook: stand_in)
    never, total, failed = census.run_census()
    assert total == len(definitions(SOURCE))
    assert called not in never and untouched in never
    assert never == sorted(never)
    assert failed == ["-c raise SystemExit(3)"]


def test_main_writes_the_census_even_when_a_command_failed(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(census, "run_census", lambda: (["src/repro/a.py:b", "src/repro/c.py:d"], 7, ["bench-smoke"]))
    out = tmp_path / "census.txt"
    assert census.main(["--out", str(out)]) == 1
    assert out.read_text() == "src/repro/a.py:b\nsrc/repro/c.py:d\n"
    printed = capsys.readouterr().out
    assert "2 of 7 named functions in src/repro never ran" in printed
    assert "census: FAILED bench-smoke" in printed
