import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.fisher import (
    conjugate_exponent,
    generalized_fisher,
    order_bound,
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
    for bad in (1.0, 0.5, -2.0, float("nan"), float("inf"), True, np.True_, 10 ** 400, "1",
                None, 1 + 0j, [2.0, True], [2.0, np.True_]):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)


def test_conjugate_exponent_broadcasts():
    betas = (1.5, 2.0, 3.0, 4.0)
    alphas = conjugate_exponent(np.array(betas))
    assert alphas.tolist() == [conjugate_exponent(b) for b in betas]
    assert conjugate_exponent(np.array([[2.0], [3.0]])).shape == (2, 1)
    assert conjugate_exponent([2, 3]).tolist() == [2.0, 1.5]
    for bad in (np.array([True, True]), np.array([2.0, 1.0]), [2.0, math.nan], "2"):
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
    f_min = generalized_fisher(2.0, PI / 4.0, params)
    f_max = generalized_fisher(2.0, PI / 8.0, params)
    assert abs(f_min - direct_fisher_sum(PI / 4.0, 0.95)) <= 1e-9 * f_min
    assert abs(f_max - direct_fisher_sum(PI / 8.0, 0.95)) <= 1e-9 * f_max
    assert f_min == pytest.approx(2.0 * 0.95 ** 2, rel=1e-12)
    assert f_max == pytest.approx(2.0 * 0.95 ** 2 / (1.0 - 0.95 ** 2 / 2.0), rel=1e-12)
    assert f_max == pytest.approx(3.2893, rel=1e-4)


def test_fisher_unit_visibility_limit():
    rng = np.random.default_rng(99)
    params = ModelParams(1.0)
    for phi in rng.uniform(0.0, PI / 2.0, 100):
        assert abs(generalized_fisher(2.0, float(phi), params) - 4.0) <= 4e-6


def test_fisher_zero_visibility():
    assert generalized_fisher(2.0, PI / 8.0, ModelParams(0.0)) == 0.0


def test_reduction_to_textbook_sum():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        phi = rng.uniform(0.0, PI)
        v = rng.uniform(0.0, 0.999)
        got = generalized_fisher(2.0, phi, ModelParams(v))
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


def test_prefixes_have_the_bits_of_the_long_call():
    # every power to an order takes one scalar exponent, so an element's
    # bits do not depend on the length of its call: with broadcast orders
    # numpy picked its power loop by shape, and f_alpha differed on
    # prefixes of up to 2,730 phases, the bounds on prefixes of up to 4,096
    params = ModelParams(0.95)
    phases = 0.3 + 1e-4 * np.arange(5000)
    betas = np.array([1.5, 2.0, 3.0, 4.0])[:, np.newaxis]
    infos = generalized_fisher(conjugate_exponent(betas[:, 0]), phases, params)
    bounds = order_bound(betas, infos, 2000)
    for n in range(1, 5001):
        prefix = generalized_fisher(conjugate_exponent(betas[:, 0]), phases[:n], params)
        assert prefix.tobytes() == infos[:, :n].tobytes(), n
        assert order_bound(betas, prefix, 2000).tobytes() == bounds[:, :n].tobytes(), n


def test_monotone_information_in_visibility():
    previous = -1.0
    for v in np.linspace(0.0, 0.999, 200):
        value = generalized_fisher(2.0, PI / 8.0, ModelParams(float(v)))
        assert value >= previous - 1e-12
        previous = value


def test_extremal_phases_on_grid():
    params = ModelParams(0.95)
    grid = np.arange(0.0, PI / 2.0, 1e-3)
    values = generalized_fisher(2.0, grid, params)
    f_peak = generalized_fisher(2.0, PI / 8.0, params)
    f_valley = generalized_fisher(2.0, PI / 4.0, params)
    assert values.max() <= f_peak + 1e-5
    assert values.min() >= f_valley - 1e-5
    # the information is pi/4-periodic in phi, so the extrema recur
    arg_peak = grid[values.argmax()]
    arg_valley = grid[values.argmin()]
    assert min(abs(arg_peak - PI / 8.0), abs(arg_peak - 3.0 * PI / 8.0)) <= 1.1e-3
    assert min(abs(arg_valley - x) for x in (0.0, PI / 4.0, PI / 2.0)) <= 1.1e-3


def test_order_bound_examples():
    params = ModelParams(0.95)
    alpha = conjugate_exponent(2.0)
    assert alpha == 2.0
    bound = order_bound(2.0, generalized_fisher(alpha, PI / 4.0, params), 2000)
    assert bound == pytest.approx(1.0 / (2000.0 * 1.805), rel=1e-12)
    assert bound == pytest.approx(2.770e-4, rel=1e-3)

    flat = generalized_fisher(alpha, 0.3, ModelParams(0.0))
    assert flat == 0.0
    assert math.isinf(order_bound(2.0, flat, 500))

    f32 = generalized_fisher(conjugate_exponent(3.0), PI / 8.0, params)
    assert f32 == pytest.approx(direct_generalized_sum(1.5, PI / 8.0, 0.95), rel=1e-12)
    third = order_bound(3.0, f32, 2000)
    assert third == pytest.approx(2000.0 ** -1.5 * f32 ** -2.0, rel=1e-12)


def test_order_bound_validates_shots():
    with pytest.raises(ValueError):
        order_bound(2.0, generalized_fisher(2.0, 0.1, ModelParams(0.9)), 0)


def test_order_bound_validates_orders_and_informations():
    with pytest.raises(ValueError):
        order_bound(2.0, -1.0, 10)
    for beta in (1.0, 0.5, math.inf, math.nan, np.array([2.0, 1.0])):
        with pytest.raises(ValueError):
            order_bound(beta, 1.0, 10)
    for f_alpha in (math.inf, math.nan, np.array([1.0, -1e-300])):
        with pytest.raises(ValueError):
            order_bound(2.0, f_alpha, 10)


def test_kappa_is_the_moment_over_the_order_bound():
    # the bounds kappa_beta divides Delta_beta by (`gcrb.bayes._reports`,
    # whose division `test_bayes.py::test_kappa_values` pins)
    betas = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0)
    infos = (1e-6, 1e-3, 0.5, 1.805, 3.29, 100.0, 1e6)
    for shots in (1, 7, 2000, 10 ** 6, 10 ** 9):
        # orders down a column broadcast against informations along a row
        bounds = order_bound(np.array(betas)[:, np.newaxis], np.array(infos + (0.0,)), shots)
        assert bounds.shape == (len(betas), len(infos) + 1)
        assert np.isinf(bounds[:, -1]).all()
        for i, beta in enumerate(betas):
            for j, f_alpha in enumerate(infos):
                bound = order_bound(beta, f_alpha, shots)
                assert isinstance(bound, float)
                assert bounds[i, j] == bound
