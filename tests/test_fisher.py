import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.fisher import (
    BoundValue,
    conjugate_exponent,
    crb_bound,
    fisher,
    generalized_fisher,
)
from gcrb.model import ModelParams

PI = math.pi


def direct_fisher_sum(phi, v):
    """Independent 4-term direct summation of (dp)^2 / p with raw trig."""
    total = 0.0
    for k in range(4):
        theta = k * PI / 16.0
        p = 0.25 * (1.0 + v * math.cos(8.0 * theta - 2.0 * phi))
        dp = 0.5 * v * math.sin(8.0 * theta - 2.0 * phi)
        if p > 0.0:
            total += dp * dp / p
    return total


def direct_generalized_sum(alpha, phi, v):
    total = 0.0
    for k in range(4):
        theta = k * PI / 16.0
        p = 0.25 * (1.0 + v * math.cos(8.0 * theta - 2.0 * phi))
        dp = 0.5 * v * math.sin(8.0 * theta - 2.0 * phi)
        if p > 0.0:
            total += abs(dp) ** alpha * p ** (1.0 - alpha)
    return total


def test_conjugate_examples():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(np.int64(2)) == 2.0
    assert conjugate_exponent(np.float32(1.5)) == 3.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5, abs=1e-15)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, abs=1e-15)


def test_conjugate_rejects_bad_orders():
    for bad in (1.0, 0.5, -2.0, float("nan"), float("inf"), True, np.True_):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)


@given(beta=st.floats(min_value=1.0, max_value=10.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_conjugacy_identity(beta):
    alpha = conjugate_exponent(beta)
    assert abs(1.0 / alpha + 1.0 / beta - 1.0) <= 1e-12
    assert alpha > 1.0


def test_fisher_anchor_values():
    params = ModelParams(0.95)
    f_min = fisher(PI / 4.0, params)
    f_max = fisher(PI / 8.0, params)
    assert abs(f_min - direct_fisher_sum(PI / 4.0, 0.95)) <= 1e-9 * f_min
    assert abs(f_max - direct_fisher_sum(PI / 8.0, 0.95)) <= 1e-9 * f_max
    assert f_min == pytest.approx(2.0 * 0.95 ** 2, rel=1e-12)
    assert f_max == pytest.approx(2.0 * 0.95 ** 2 / (1.0 - 0.95 ** 2 / 2.0), rel=1e-12)
    assert f_max == pytest.approx(3.2893, rel=1e-4)


def test_fisher_unit_visibility_limit():
    rng = np.random.default_rng(99)
    params = ModelParams(1.0)
    for phi in rng.uniform(0.0, PI / 2.0, 100):
        assert abs(fisher(float(phi), params) - 4.0) <= 4e-6


def test_fisher_zero_visibility():
    assert fisher(PI / 8.0, ModelParams(0.0)) == 0.0


def test_reduction_to_textbook_sum():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        phi = rng.uniform(0.0, PI)
        v = rng.uniform(0.0, 0.999)
        got = fisher(phi, ModelParams(v))
        want = direct_fisher_sum(phi, v)
        assert abs(got - want) <= 1e-10 * max(want, 1e-30)


def test_generalized_examples():
    params = ModelParams(0.95)
    assert generalized_fisher(2.0, PI / 4.0, params) == pytest.approx(1.805, rel=1e-12)
    got = generalized_fisher(2.0, PI / 8.0, params)
    assert got == pytest.approx(3.2893, rel=1e-4)
    with pytest.raises(ValueError):
        generalized_fisher(1.0, PI / 8.0, params)


def test_vectorised_over_phases_and_orders():
    rng = np.random.default_rng(29)
    phases = rng.uniform(0.0, PI, 300)
    params = ModelParams(0.97)
    alphas = (3.0, 2.0, 1.5, 4.0 / 3.0)
    table = generalized_fisher(alphas, phases, params)
    assert table.shape == (4, 300)
    for a, row in zip(alphas, table):
        np.testing.assert_allclose(row, generalized_fisher(a, phases, params), rtol=1e-14, atol=0)
        for phi, value in zip(phases, row):
            want = direct_generalized_sum(a, phi, 0.97)
            assert abs(value - want) <= 1e-10 * want
    assert generalized_fisher(alphas, PI / 8.0, params).shape == (4,)
    assert isinstance(generalized_fisher(2.0, PI / 8.0, params), float)
    with pytest.raises(ValueError):
        generalized_fisher((2.0, 1.0), phases, params)


def test_monotone_information_in_visibility():
    previous = -1.0
    for v in np.linspace(0.0, 0.999, 200):
        value = fisher(PI / 8.0, ModelParams(float(v)))
        assert value >= previous - 1e-12
        previous = value


def test_extremal_phases_on_grid():
    params = ModelParams(0.95)
    grid = np.arange(0.0, PI / 2.0, 1e-3)
    values = fisher(grid, params)
    f_peak = fisher(PI / 8.0, params)
    f_valley = fisher(PI / 4.0, params)
    assert values.max() <= f_peak + 1e-5
    assert values.min() >= f_valley - 1e-5
    # the information is pi/4-periodic in phi, so the extrema recur
    arg_peak = grid[values.argmax()]
    arg_valley = grid[values.argmin()]
    assert min(abs(arg_peak - PI / 8.0), abs(arg_peak - 3.0 * PI / 8.0)) <= 1.1e-3
    assert min(abs(arg_valley - x) for x in (0.0, PI / 4.0, PI / 2.0)) <= 1.1e-3


def test_crb_bound_examples():
    params = ModelParams(0.95)
    bound = crb_bound(2.0, PI / 4.0, params, 2000)
    assert bound.bound_on_delta_beta == pytest.approx(1.0 / (2000.0 * 1.805), rel=1e-12)
    assert bound.bound_on_delta_beta == pytest.approx(2.770e-4, rel=1e-3)
    assert bound.alpha == 2.0
    assert bound.shots == 2000

    flat = crb_bound(2.0, 0.3, ModelParams(0.0), 500)
    assert flat.f_alpha == 0.0
    assert math.isinf(flat.bound_on_delta_beta)

    third = crb_bound(3.0, PI / 8.0, params, 2000)
    f32 = direct_generalized_sum(1.5, PI / 8.0, 0.95)
    assert third.f_alpha == pytest.approx(f32, rel=1e-12)
    assert third.bound_on_delta_beta == pytest.approx(2000.0 ** -1.5 * f32 ** -2.0, rel=1e-12)


def test_crb_bound_validates_shots():
    with pytest.raises(ValueError):
        crb_bound(2.0, 0.1, ModelParams(0.9), 0)


def test_bound_value_invariant():
    with pytest.raises(ValueError):
        BoundValue(beta=2.0, alpha=2.0, f_alpha=-1.0, bound_on_delta_beta=1.0, shots=10)
