"""Call census: the functions of ``src/repro`` that no shipped command runs.

Runs the repo's entry points with a call hook in every Python process they
start, then writes ``CENSUS.txt``: one ``src/repro/<module>.py:<qualname>``
line per named function (a ``def`` or ``async def``; lambdas and class
bodies are not counted) that none of them called, sorted.  The file is
tracked, so a change's diff of it shows what the change made live or dead::

    make census                                   # ~10-15 min, rewrites CENSUS.txt
    python benchmarks/census.py --out other.txt   # the same, written elsewhere

The entry points are every ``*-smoke`` target of the Makefile, ``make
fingerprint``, ``make bench-scale-quick``, ``make perfbench-quick``, every
``examples/*.py`` and ``pytest benchmarks/ --benchmark-disable``.  They run
one after another in a copy of the tree in a temporary directory, so every
cache starts empty (a warm ``.ci-cache`` would skip the computing half of
``bench-smoke``) and nothing they write lands in the checkout.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``, which
every interpreter imports at start-up (the Makefile's own ``PYTHONPATH``
is overridden on make's command line).  It installs a ``sys.setprofile``
function that appends a line to one dump file the first time each code
object of the copy's ``src/repro`` is called.  Writing at first sight,
not at exit, is what makes every process count: ``Pool.__exit__`` ends
sweep workers with SIGTERM, and a forked worker leaves through
``os._exit``, so neither ``atexit`` nor a multiprocessing finalizer would
run in it.  The hook imports nothing but ``os``, ``sys`` and ``threading``
(``startup-smoke`` fails if ``list-scenarios`` imports ``multiprocessing``).
pytest-benchmark's ``pedantic`` installs its own profiler, which would end
the hook's, so the benchmarks run with ``--benchmark-disable``.

A command that fails is reported and the census still written: it counts
what ran.  The script exits 1 if any command failed.

A decorated function's code object starts at its first decorator line, so a
definition is matched to a called code object by ``(file, first line of its
decorators or of its def, name)``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "CENSUS.txt"
#: What the copy leaves out: history, caches and earlier outputs.
SKIPPED = (".git", "out", ".repro-cache", ".ci-cache", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__")
#: Make targets run besides every ``*-smoke`` target.
TARGETS = ("fingerprint", "bench-scale-quick", "perfbench-quick")

HOOK = '''\
import os
import sys
import threading

_PREFIX = {prefix!r}
_DUMP = os.open({dump!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = set()


def _census(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_PREFIX):
                os.write(_DUMP, ("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name)).encode())


sys.setprofile(_census)
threading.setprofile(_census)
'''


def definitions(source: Path) -> Dict[Tuple[str, int, str], str]:
    """``(module path, first line, name) -> "module path:qualname"`` of every
    named function under ``source`` (``src/repro``); module paths are
    relative to ``source``'s grandparent, the tree's root."""
    found: Dict[Tuple[str, int, str], str] = {}
    root = source.parent.parent
    for path in sorted(source.rglob("*.py")):
        where = str(path.relative_to(root))
        stack: List[Tuple[ast.AST, str]] = [(ast.parse(path.read_text()), "")]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = scope + child.name
                    first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
                    found[(where, first, child.name)] = f"{where}:{qualname}"
                    stack.append((child, qualname + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, scope + child.name + "."))
                else:
                    stack.append((child, scope))
    return found


def commands(tree: Path, hook: Path) -> List[List[str]]:
    """The argv of every entry point, in run order (each runs in ``tree``)."""
    python = sys.executable
    smoke = re.findall(r"^([a-z-]+-smoke):", (tree / "Makefile").read_text(), re.M)
    make_path = f"PYTHONPATH={hook}{os.pathsep}src"
    runs = [["make", "--no-print-directory", make_path, f"PYTHON={python}", target] for target in (*smoke, *TARGETS)]
    runs += [[python, str(example)] for example in sorted((tree / "examples").glob("*.py"))]
    runs.append([python, "-m", "pytest", "benchmarks/", "-q", "-p", "no:cacheprovider", "--benchmark-disable"])
    return runs


def run_census() -> Tuple[List[str], int, List[str]]:
    """``(never-run entries, named functions, failed commands)``."""
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        scratch = Path(scratch).resolve()
        tree = scratch / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*SKIPPED))
        source = tree / "src" / "repro"
        hook, dump = scratch / "hook", scratch / "calls.tsv"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK.format(prefix=str(source) + os.sep, dump=str(dump)))
        environment = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{tree / 'src'}")
        failed = []
        for argv in commands(tree, hook):
            started = time.perf_counter()
            done = subprocess.run(argv, cwd=tree, env=environment, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            label = " ".join(argv[-1:] if argv[0] == "make" else argv[1:]).replace(str(tree) + os.sep, "")
            status = "ok" if done.returncode == 0 else f"FAILED (exit {done.returncode})"
            print(f"census: {label}: {status} in {time.perf_counter() - started:.0f} s", flush=True)
            if done.returncode != 0:
                failed.append(label)
                sys.stderr.write(done.stdout.decode(errors="replace")[-3000:])
        called: Set[Tuple[str, int, str]] = set()
        for line in dump.read_text().splitlines():
            filename, first, name = line.split("\t")
            called.add((str(Path(filename).relative_to(tree)), int(first), name))
        named = definitions(source)
    never = sorted(entry for key, entry in named.items() if key not in called)
    return never, len(named), failed


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="where to write the census (default: CENSUS.txt)")
    args = parser.parse_args(argv)
    never, total, failed = run_census()
    args.out.write_text("".join(entry + "\n" for entry in never))
    print(f"census: {len(never)} of {total} named functions in src/repro never ran; written to {args.out}")
    for label in failed:
        print(f"census: FAILED {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
