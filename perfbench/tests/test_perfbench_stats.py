"""The percentile rule and the spread the driver computes."""

import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (1_000_000, 99.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(count, expected):
    assert stats.tail_percentile(count) == expected
    if count >= 20:
        assert count * (100 - expected) >= stats.MIN_BEYOND * 100
        higher = [pct for pct in stats.TAIL_LADDER if pct > expected]
        assert all(count * (100 - pct) < stats.MIN_BEYOND * 100 for pct in higher)


def test_tail_of_few_samples_is_their_median_not_their_noisiest():
    assert stats.tail([3.0, 9.0, 4.0]) == (4.0, 50.0)


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert stats.percentile([0.0, 10.0], 99.0) == pytest.approx(9.9)


def test_disturbed_repetitions_do_not_move_the_undisturbed_median():
    quiet = [2.00, 2.02, 2.01, 2.03, 2.02, 2.01, 2.00]
    disturbed = [2.00, 3.10, 2.01, 2.90, 2.02, 3.30, 2.95]  # the host slowed four of seven
    assert statistics.median(disturbed) > 1.4 * statistics.median(quiet)
    assert stats.undisturbed_median(disturbed) == pytest.approx(stats.undisturbed_median(quiet), rel=0.01)
    assert stats.undisturbed_median([2.0, 1.0, 4.0, 3.0, 5.0]) == 2.0  # median of the fastest three
    assert stats.undisturbed_median([2.0, 1.0]) == 1.0
    assert stats.undisturbed_median([7.0]) == 7.0


def test_a_stall_in_one_slice_moves_the_pooled_tail_but_not_the_median_of_slices():
    steady = [[50.0 + index % 100 for index in range(1000)] for _ in range(7)]
    stalled = [list(samples) for samples in steady]
    stalled[3][:100] = [900.0] * 100  # 100 of 7000 deliveries waited out a stall
    pooled = lambda slices: stats.percentile(sorted(sum(slices, [])), 99.0)  # noqa: E731
    assert pooled(stalled) > 1.1 * pooled(steady)
    assert stats.median_of_slices(stalled, 99.0) == stats.median_of_slices(steady, 99.0)
    assert stats.median_of_slices([[1.0, 3.0], [], [5.0, 7.0], [9.0, 11.0]], 50.0) == 6.0
    with pytest.raises(ValueError):
        stats.median_of_slices([[], []], 50.0)


def test_spread_is_the_drivers_quartile_distance_over_the_median():
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_worse_by_respects_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
