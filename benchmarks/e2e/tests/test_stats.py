import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.compare import verdict


@pytest.mark.parametrize("count, expected", [
    (9, None),      # nothing has ten samples beyond it
    (40, 75.0),     # 40 * 0.25 = 10
    (99, 75.0),
    (100, 90.0),    # 100 * 0.10 = 10
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([7], 90) == 7


def test_spread_is_the_acceptance_checks_quartile_distance():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert stats.spread(values) == pytest.approx(5.5 / 14.5)


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02]


def test_verdict_same_better_worse_within_a_quiet_spread():
    assert verdict(TIGHT, [x * 1.03 for x in TIGHT], "lower", 0.08) == "same"
    assert verdict(TIGHT, [x * 1.20 for x in TIGHT], "lower", 0.08) == "worse"
    assert verdict(TIGHT, [x * 0.80 for x in TIGHT], "lower", 0.08) == "better"
    assert verdict(TIGHT, [x * 0.80 for x in TIGHT], "higher", 0.08) == "worse"


def test_verdict_unresolved_when_noisy_runs_interleave():
    noisy_a = [1.0, 1.3, 0.8, 1.1, 1.5]
    noisy_b = [1.2, 1.6, 0.9, 1.4, 1.1]
    assert verdict(noisy_a, noisy_b, "lower", 0.08) == "unresolved"
    # noisy, but every run of B beats every run of A
    assert verdict(noisy_a, [0.5, 0.7, 0.6, 0.4, 0.75], "lower", 0.08) == "better"
    assert verdict(noisy_a, [2.0, 2.6, 1.9, 2.4, 2.1], "lower", 0.08) == "worse"


def test_exact_metrics_have_no_tolerance():
    assert verdict([5.0] * 5, [5.0] * 5, "lower", 0.0) == "same"
    assert verdict([5.0] * 5, [5.0000001] * 5, "lower", 0.0) == "worse"
    assert verdict([0.0] * 5, [0.0] * 5, "lower", 0.0) == "same"
    assert verdict([0.5] * 5, [0.6] * 5, "higher", 0.0) == "better"
