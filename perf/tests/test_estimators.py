"""Percentile and spread helpers on arrays whose answers are known."""

import statistics

import pytest

from perf import estimators


def test_percentile_interpolates_like_numpy_default():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert estimators.percentile(values, 0.0) == 1.0
    assert estimators.percentile(values, 1.0) == 5.0
    assert estimators.percentile(values, 0.5) == 3.0
    assert estimators.percentile(values, 0.10) == pytest.approx(1.4)
    assert estimators.percentile(values, 0.90) == pytest.approx(4.6)


def test_percentile_of_one_sample_is_that_sample():
    assert estimators.percentile([7.5], 0.10) == 7.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        estimators.percentile([], 0.5)
    with pytest.raises(ValueError):
        estimators.percentile([1.0], 1.5)


def test_low_quantile_ignores_a_burst():
    quiet = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00]
    burst = quiet[:6] + [2.0, 2.1, 1.9, 2.2]
    assert estimators.low(burst) == pytest.approx(estimators.low(quiet), abs=0.01)
    assert statistics.median(burst) > 1.01  # the median does not


def test_high_is_the_mirror_image_of_low():
    values = [float(v) for v in range(1, 12)]
    assert estimators.low(values) == 2.0
    assert estimators.high(values) == 10.0


def test_fold_picks_the_estimator_by_unit():
    values = [float(v) for v in range(1, 12)]
    assert estimators.fold("s", values) == estimators.fold("ms", values) == 2.0
    assert estimators.fold("1/s", values) == 10.0
    for unit in ("count", "bytes", "share", "ratio"):
        assert estimators.fold(unit, values) == 6.0


def test_noise_ratio_is_one_on_a_quiet_host():
    assert estimators.noise_ratio([2.0] * 8) == 1.0
    assert estimators.noise_ratio([1.0] * 5 + [2.0] * 6) > 1.25


def test_quartile_spread_matches_the_contract_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 10.1, 9.9]
    first, _, third = statistics.quantiles(values, n=4)
    expected = (third - first) / statistics.median(values)
    assert estimators.quartile_spread(values) == pytest.approx(expected)


def test_summary_reports_what_is_printed_beside_a_metric():
    found = estimators.summary([1.0, 2.0, 3.0])
    assert found == {"p10": 1.2, "median": 2.0, "p90": 2.8, "n": 3}
