import pytest

from stats import percentile, quartile_spread, relative_spread, verdict, worsening


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(values, 50) == 5.0  # rank ceil(0.5 * 10) = 5
    assert percentile(values, 90) == 9.0
    assert percentile(values, 91) == 10.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 1) == 1.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_never_interpolates():
    values = [1.0, 100.0]
    assert percentile(values, 50) == 1.0
    assert percentile(values, 51) == 100.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = quartile_spread(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert relative_spread(values) == pytest.approx(5.5 / 14.5)


def test_worsening_follows_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, "lower", 0.10) == "unchanged"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.10) == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.10) == "improved"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.10) == "regressed"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    # spread wider than the bound and the runs overlap: cannot tell
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert verdict(noisy, [v * 3 for v in noisy], "lower", 0.10) == "regressed"
    assert verdict(noisy, [v / 3 for v in noisy], "lower", 0.10) == "improved"
