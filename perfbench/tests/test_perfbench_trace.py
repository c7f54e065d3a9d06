"""Span-stack arithmetic and patch hygiene of the tracer."""

import importlib

import pytest

from perfbench import layers
from perfbench.trace import ROOT, Tracer, self_times


class ScriptedClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, amount: int) -> None:
        self.now += amount


def _nested_tree(tracer: Tracer, clock: ScriptedClock):
    """root -> a(5 + b(3 + c(4)) + 2 + c(4)); a, then b again at top level (7)."""
    c = tracer.wrap(lambda: clock.tick(4), "c")

    def b_body(extra=0):
        clock.tick(3 + extra)
        if not extra:
            c()

    b = tracer.wrap(b_body, "b")

    def a_body():
        clock.tick(5)
        b()
        clock.tick(2)
        c()

    a = tracer.wrap(a_body, "a")
    tracer.start()
    clock.tick(1)
    a()
    b(4)
    clock.tick(10)
    tracer.stop()


def test_self_time_is_duration_minus_children():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)
    _nested_tree(tracer, clock)
    report = tracer.report()
    nanos = {name: entry["self_s"] * 1e9 for name, entry in report.items()}
    assert nanos["a"] == pytest.approx(7)           # 5 + 2, b and c excluded
    assert nanos["b"] == pytest.approx(3 + 7)       # nested call, then the top-level one
    assert nanos["c"] == pytest.approx(8)           # two calls of 4
    assert nanos[ROOT] == pytest.approx(11)         # 1 before, 10 after
    assert (report["a"]["calls"], report["b"]["calls"], report["c"]["calls"]) == (1, 2, 2)
    assert tracer.root_ns == 36
    assert sum(nanos.values()) == pytest.approx(tracer.root_ns)
    assert layers.self_time_residual(tracer) < 1e-9


def test_span_dump_agrees_with_the_reference_arithmetic():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)
    _nested_tree(tracer, clock)
    dump = tracer.dump()
    assert [span["name"] for span in dump] == ["a", "b", "c", "c", "b"]
    assert [span["parent"] for span in dump] == [-1, 0, 1, 0, -1]
    spans = [(s["name"], s["start_ns"], s["end_ns"], s["parent"]) for s in dump]
    assert self_times(spans) == {"a": 7, "b": 10, "c": 8}


def test_wrapper_cost_moves_to_its_own_bucket_and_the_sum_stays_exact():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)
    _nested_tree(tracer, clock)
    tracer.inner_ns, tracer.outer_ns = 1.0, 0.5
    report = tracer.report()
    # a: one call (inner 1) and two child spans (outer 0.5 each)
    assert report["a"]["self_s"] * 1e9 == pytest.approx(7 - 1 - 1)
    assert report["a"]["raw_self_s"] * 1e9 == pytest.approx(7)
    assert report["span_cost"]["self_s"] > 0
    assert abs(sum(entry["self_s"] for entry in report.values()) * 1e9 - tracer.root_ns) < 1e-6


def test_calls_outside_the_root_span_are_not_counted():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock)
    work = tracer.wrap(lambda: clock.tick(3), "work")
    work()                      # set-up, before the root opens
    tracer.start()
    work()
    tracer.stop()
    work()                      # tear-down, after it closed
    assert tracer.report()["work"] == {"self_s": pytest.approx(3e-9), "raw_self_s": pytest.approx(3e-9), "calls": 1}


def test_count_calls_counts_truthy_results_without_a_span():
    tracer = Tracer()
    is_even = tracer.count_calls(lambda value: value % 2 == 0, "even")
    tracer.start()
    for value in range(5):
        is_even(value)
    tracer.stop()
    assert tracer.final_counts == {"even": 5, "even.true": 3}
    assert tracer.dump() == []


def _raw_attributes():
    raw = {}
    for module_name, class_name, attribute, _ in layers.TARGETS + [layers.COUNT_ONLY]:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        raw[(module_name, class_name, attribute)] = owner.__dict__[attribute]
    return raw


def test_install_then_uninstall_leaves_every_attribute_identical():
    import repro.experiments.runner as runner
    import repro.runtime.network as runtime_network

    before = _raw_attributes()
    held = (runner.build_system, runner.measure_reliability, runtime_network.encode_message)
    tracer = Tracer()
    layers.install(tracer)
    patched = _raw_attributes()
    assert all(patched[key] is not before[key] for key in before)
    # names imported with ``from x import f`` are patched where they are held
    assert runner.build_system is not held[0] and runtime_network.encode_message is not held[2]
    tracer.uninstall()
    after = _raw_attributes()
    assert all(after[key] is before[key] for key in before)
    assert (runner.build_system, runner.measure_reliability, runtime_network.encode_message) == held


def test_every_span_name_feeds_a_layer_and_a_metric():
    spans = {target[3] for target in layers.TARGETS} | {"runtime.scheduler.callback"}
    in_layers = {span for names in layers.LAYER_SPANS.values() for span in names}
    assert spans == in_layers
    in_metrics = {key for _, _, _, how in layers.PER_LAYER if how[0] == "self" for key in how[1:]}
    assert in_layers <= in_metrics | {"sim.network.drop", "runtime.network.drop"}
