"""Verdicts of compare.py."""

from perfbench import compare


def _summary(median, spread=0.01):
    return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2), "spread": spread}


def test_verdicts():
    assert compare.verdict(_summary(100), _summary(100.5), "lower", 0.05) == "unchanged"
    assert compare.verdict(_summary(100), _summary(108), "lower", 0.05) == "worse"
    assert compare.verdict(_summary(100), _summary(90), "lower", 0.05) == "better"
    assert compare.verdict(_summary(100), _summary(110), "higher", 0.05) == "better"
    # a spread wider than the bound resolves nothing, whichever way the median moved
    assert compare.verdict(_summary(100, spread=0.08), _summary(120), "lower", 0.05) == "unresolved"


def _results(op_ms, share, digest="d"):
    metrics = {"op_p50_ms": _summary(op_ms), "delivered_share": _summary(share, 0.0)}
    return {"workloads": {"sim-x": {"end_to_end": metrics, "sim_digests": {"7": digest}}}}


BENCHMARK = {
    "end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05},
        {"name": "delivered_share", "unit": "ratio", "better": "higher", "bound": 0.05},
    ]
}


def test_compare_flags_a_slower_median_and_a_moved_digest():
    rows, regressed = compare.compare(_results(100, 0.99), _results(120, 0.99, digest="e"), BENCHMARK)
    assert regressed
    assert any("worse" in row for row in rows)
    assert any("MOVED for seeds 7" in row for row in rows)


def test_compare_fails_on_fewer_deliveries_even_inside_the_relative_bound():
    rows, regressed = compare.compare(_results(100, 0.990), _results(100, 0.980), BENCHMARK)
    assert regressed
    rows, regressed = compare.compare(_results(100, 0.990), _results(100, 0.988), BENCHMARK)
    assert not regressed
    assert any("identical for 1 shared seeds" in row for row in rows)
