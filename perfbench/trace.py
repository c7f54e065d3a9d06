"""Outside-in tracer: spans around calls into the program's layers.

The benchmark measures layers *from outside*: :class:`Tracer` replaces
functions of the program (class attributes and module-level names) with
wrappers for the duration of one traced run and puts every original back
afterwards.  The program itself is not edited and carries no switch.

All wrapped calls are synchronous, so one span stack suffices on both
engines: on the live runtime every asyncio callback runs to completion
before the next one starts, and coroutines are never wrapped.

Accounting
----------
Every wrapper opens a span (name, start, end, parent).  A span's *self time*
is its duration minus the part covered by its child spans; self times are
summed per name.  By construction the self times of all names plus the root
span's own self time equal the root span's duration exactly.

A wrapper costs about a microsecond, which is more than some of the wrapped
functions take.  :meth:`Tracer.calibrate` measures that cost on a no-op and
:meth:`Tracer.report` moves it out of the layers into one ``span_cost``
bucket (``inner`` per span out of its own name, ``outer`` per child span out
of its parent's), so the sum still equals the root exactly.

The first ``dump_limit`` spans are also kept raw for the span dump; the
aggregates always cover every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = "root"

#: One patch target: ``(module, class or None, attribute, span name)``.
Target = Tuple[str, Optional[str], str, str]


class Tracer:
    """Span stack, per-name aggregates, counters, and the patch bookkeeping."""

    def __init__(self, dump_limit: int = 20000, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.dump_limit = dump_limit
        #: nanosecond clock; the self-tests substitute a scripted one
        self.clock = clock
        #: name -> [self_ns, calls, direct child spans]
        self.acc: Dict[str, List[int]] = {}
        #: free-form exact counters filled by probes
        self.counts: Dict[str, int] = {}
        #: raw spans ``[name, start_ns, end_ns, parent index]`` (first ``dump_limit``)
        self.spans: List[list] = []
        #: named raw samples filled by special wrappers (e.g. timer lag)
        self.samples: Dict[str, List[int]] = {}
        # The bottom frame is always there, so wrapped calls made outside
        # start()/stop() (set-up, tear-down) need no special case; start()
        # discards what they accumulated and stop() freezes the result.
        self._stack: List[list] = [[0, 0, -1]]
        self._patched: List[Tuple[object, str, object]] = []
        self._final: Optional[Dict[str, List[int]]] = None
        #: ``counts`` / ``samples`` as they were when the root span closed
        self.final_counts: Dict[str, int] = {}
        self.final_samples: Dict[str, List[int]] = {}
        self._root_start = 0
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self.root_ns = 0

    # ---------------------------------------------------------------- spans

    def wrap(self, fn: Callable, name: str, probe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``probe(args, kwargs, result)`` runs after the span closed (its cost
        lands in the parent span) and may update :attr:`counts`.
        """
        acc = self.acc.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        limit = self.dump_limit
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0, 0, -1]
            if len(spans) < limit:
                frame[2] = len(spans)
                spans.append([name, 0, 0, stack[-1][2]])
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc[0] += duration - frame[0]
                acc[1] += 1
                acc[2] += frame[1]
                parent = stack[-1]
                parent[0] += duration
                parent[1] += 1
                if frame[2] >= 0:
                    span = spans[frame[2]]
                    span[1] = start
                    span[2] = end
                if probe is not None:
                    probe(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, fn: Callable, name: str) -> Callable:
        """Count calls (``name``) and truthy results (``name.true``) without a span.

        For functions too small and too hot to time: the wrapper reads no
        clock, so it does not distort the spans around it.
        """
        counts = self.counts
        counts.setdefault(name, 0)
        counts.setdefault(name + ".true", 0)
        truthy = name + ".true"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if result:
                counts[truthy] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def start(self) -> None:
        """Open the root span, forgetting everything recorded before it."""
        if len(self._stack) != 1:
            raise RuntimeError(f"start() inside a span (depth {len(self._stack)})")
        for entry in self.acc.values():
            entry[:] = [0, 0, 0]
        for key in self.counts:
            self.counts[key] = 0
        for values in self.samples.values():
            del values[:]
        del self.spans[:]
        self._stack[0][:] = [0, 0, -1]
        self._final = None
        self._root_start = self.clock()

    def stop(self) -> None:
        """Close the root span and freeze the aggregates."""
        end = self.clock()
        if len(self._stack) != 1:
            raise RuntimeError(f"stop() inside a span (depth {len(self._stack)})")
        frame = self._stack[0]
        self.root_ns = end - self._root_start
        self._final = {name: list(entry) for name, entry in self.acc.items()}
        self._final[ROOT] = [self.root_ns - frame[0], 1, frame[1]]
        self.final_counts = dict(self.counts)
        self.final_samples = {name: list(values) for name, values in self.samples.items()}

    # ------------------------------------------------------------- patching

    def install(self, targets: Iterable[Target], special: Optional[Dict[Target, Callable]] = None) -> None:
        """Patch every target; ``special`` maps a target to ``f(tracer, original) -> wrapper``."""
        special = special or {}
        for target in targets:
            module_name, class_name, attribute, name = target
            module = importlib.import_module(module_name)
            build = special.get(target)
            if class_name is None:
                original = getattr(module, attribute)
                wrapper = build(self, original) if build else self.wrap(original, name)
                # A ``from .x import f`` elsewhere in the program holds its own
                # reference; patch every program module that holds this one.
                for holder in list(sys.modules.values()):
                    if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                        continue
                    if holder.__dict__.get(attribute) is original:
                        self._set(holder, attribute, original, wrapper)
            else:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, staticmethod):
                    inner = original.__func__
                    wrapper = staticmethod(build(self, inner) if build else self.wrap(inner, name))
                else:
                    wrapper = build(self, original) if build else self.wrap(original, name)
                self._set(owner, attribute, original, wrapper)

    def _set(self, owner, attribute: str, original, wrapper) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original back (class ``__dict__`` entries included)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------- calibration

    def calibrate(self, calls: int = 20000) -> None:
        """Measure what one wrapper costs, on a no-op, with this tracer's own code.

        ``inner`` is what the span itself records for a function that takes
        no time; ``outer`` is the rest of the wrapper, which lands in the
        parent.  Both are per-span averages in nanoseconds.
        """
        probe = Tracer(dump_limit=0)

        def noop() -> None:
            return None

        wrapped = probe.wrap(noop, "noop")
        clock = time.perf_counter_ns
        best_plain = best_wrapped = None
        inner = 0.0
        for _ in range(3):
            start = clock()
            for _ in range(calls):
                noop()
            plain = clock() - start
            probe.start()
            start = clock()
            for _ in range(calls):
                wrapped()
            total = clock() - start
            probe.stop()
            if best_wrapped is None or total < best_wrapped:
                best_wrapped, best_plain = total, plain
                inner = probe._final["noop"][0] / calls
        per_span = max(0.0, (best_wrapped - best_plain) / calls)
        self.inner_ns = min(inner, per_span)
        self.outer_ns = per_span - self.inner_ns

    # --------------------------------------------------------------- report

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``self_s`` (wrapper cost removed), ``raw_self_s`` and ``calls``.

        The wrapper cost taken out of the names is returned under
        ``span_cost``; ``sum(self_s) == root duration`` holds exactly over
        the returned names (``root`` is the untraced remainder).
        """
        if self._final is None:
            raise RuntimeError("report() before stop()")
        out: Dict[str, Dict[str, float]] = {}
        moved = 0.0
        for name, (self_ns, calls, children) in self._final.items():
            cost = children * self.outer_ns
            if name != ROOT:
                cost += calls * self.inner_ns
            # Never take out more than was measured: keeps every name >= 0
            # and the sum exact.
            cost = min(cost, float(self_ns)) if self_ns > 0 else 0.0
            moved += cost
            out[name] = {
                "self_s": (self_ns - cost) / 1e9,
                "raw_self_s": self_ns / 1e9,
                "calls": calls,
            }
        out["span_cost"] = {"self_s": moved / 1e9, "raw_self_s": 0.0, "calls": 0}
        return out

    def dump(self) -> List[dict]:
        """The raw spans as ``{name, start_ns, end_ns, parent}`` relative to the root start."""
        base = self._root_start
        return [
            {"name": name, "start_ns": start - base, "end_ns": end - base, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def self_times(spans: Sequence[Tuple[str, int, int, int]]) -> Dict[str, int]:
    """Reference self-time arithmetic over explicit ``(name, start, end, parent)`` spans.

    Independent of the wrapper bookkeeping; the self-tests check the tracer
    against it, and it is how a span dump is read back.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, int] = {}
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - covered[index]
    return totals
