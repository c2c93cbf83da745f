"""Bland-Altman, Pearson, R-squared, and keyed comparison."""

import numpy as np
import pytest

from midoppler.errors import StatsError
from midoppler.stats import (
    agreement_csv_text,
    bland_altman,
    compare,
    pearson,
    r_squared,
)


def test_bland_altman_identical_series():
    bias, sd, lo, hi = bland_altman([3.0, 1.0, 7.0], [3.0, 1.0, 7.0])
    assert (bias, sd, lo, hi) == (0.0, 0.0, 0.0, 0.0)


def test_bland_altman_hand_computed():
    bias, sd, lo, hi = bland_altman([1, 2, 3], [0, 2, 4])
    assert bias == pytest.approx(0.0, abs=1e-12)
    assert sd == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(-2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_bland_altman_constant_shift():
    rng = np.random.default_rng(61)
    b = rng.normal(size=20)
    bias, sd, lo, hi = bland_altman(b + 0.37, b)
    assert bias == pytest.approx(0.37)
    assert sd == pytest.approx(0.0, abs=1e-12)
    assert hi - lo == pytest.approx(4 * sd, abs=1e-12)


def test_bland_altman_input_validation():
    with pytest.raises(StatsError):
        bland_altman([1, 2], [1, 2, 3])
    with pytest.raises(StatsError):
        bland_altman([1], [1])


def test_pearson_exact_linearities():
    a = np.array([0.3, 1.1, 2.0, 4.5])
    assert pearson(a, 2 * a + 1) == pytest.approx(1.0)
    assert pearson(a, -a) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-4)


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 2, 3], [5, 5, 5]),
        # means that do not round exactly: a - a.mean() leaves 1e-16 residues
        ([0.8] * 6, [0.8] * 6),
        ([0.1] * 3, [1, 2, 3]),
    ],
    ids=["exact-mean", "inexact-mean-both", "inexact-mean-first"],
)
def test_pearson_constant_series_rejected(a, b):
    with pytest.raises(StatsError):
        pearson(a, b)


def test_r_squared_exact_fit():
    a = np.array([0.2, 0.9, 1.7, 2.4])
    assert r_squared(a, 3 * a - 2) == pytest.approx(1.0)


def test_r_squared_hand_computed():
    assert r_squared([1, 2, 3], [1, 2, 4]) == pytest.approx(0.96429, abs=1e-4)


def test_r_squared_constant_response_rejected():
    with pytest.raises(StatsError):
        r_squared([1, 2, 3], [7, 7, 7])


def test_pearson_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(63)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    r = pearson(a, b)
    assert pearson(3.2 * a + 5, b) == pytest.approx(r, abs=1e-12)
    assert pearson(a, 0.4 * b - 2) == pytest.approx(r, abs=1e-12)


def test_compare_self_is_perfect_agreement():
    series = {("s", i): float(v) for i, v in enumerate([0.5, 0.8, 1.1, 0.9])}
    stats = compare(series, dict(series))
    assert stats.n == 4
    assert stats.bias == 0.0
    assert stats.pearson_r == pytest.approx(1.0)
    assert stats.r_squared == pytest.approx(1.0)


def test_compare_constant_shift_mirrors_systematic_bias():
    base = {i: float(v) for i, v in enumerate([0.4, 0.8, 1.2, 0.6, 1.0])}
    shifted = {k: v + 0.06 for k, v in base.items()}
    stats = compare(shifted, base)
    assert stats.bias == pytest.approx(0.06)
    assert stats.sd == pytest.approx(0.0, abs=1e-12)
    assert stats.pearson_r == pytest.approx(1.0)


def test_compare_counts_dropped_keys():
    a = {1: 0.5, 2: 0.7, 3: 0.9, 4: 1.0}
    b = {2: 0.6, 3: 0.8, 5: 1.1}
    stats = compare(a, b)
    assert stats.n == 2  # keys 1, 4 from a and 5 from b are dropped


def test_compare_disjoint_keys_rejected():
    with pytest.raises(StatsError, match="overlap"):
        compare({1: 0.5}, {2: 0.7})


def test_agreement_csv_layout():
    series = {i: float(i) * 0.3 for i in range(5)}
    stats = compare(series, series)
    text = agreement_csv_text([("E", stats)])
    lines = text.strip().splitlines()
    assert lines[0] == "field,n,bias,sd,loa_low,loa_high,pearson_r,r_squared"
    assert lines[1].startswith("E,5,0.000000,0.000000,")
