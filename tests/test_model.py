import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import DEFAULT_DOMAIN, _block_posterior
from gcrb.fisher import generalized_fisher
from gcrb.ingest import CountsRecord
from gcrb.model import ModelParams, check_counts, outcome_dprobs, outcome_probs

PI = math.pi


def densities(tally, params):
    """The posterior density of one tally on the default grid."""
    return _block_posterior(np.array([tally]), params, DEFAULT_DOMAIN)[0][0]


def test_setting_table():
    # row k is the setting theta_k = k*pi/16, whose fringe peaks at phi = k*pi/4
    for k in range(4):
        assert outcome_probs(k * PI / 4.0, ModelParams(1.0))[k] == pytest.approx(0.5, abs=1e-15)
    assert outcome_probs(0.3, ModelParams(0.9)).shape == (4,)
    phases = np.linspace(-1.0, 4.0, 15).reshape(3, 5)
    assert outcome_probs(phases, ModelParams(0.9)).shape == (4, 3, 5)
    assert outcome_dprobs(phases, ModelParams(0.9)).shape == (4, 3, 5)


def test_params_domain():
    assert ModelParams(0.0).visibility == 0.0
    assert ModelParams(1.0).visibility == 1.0
    for bad in (-0.01, 1.01, float("nan"), float("inf"), True, np.True_):
        with pytest.raises(ValueError):
            ModelParams(bad)
    assert ModelParams(np.int64(1)) == ModelParams(1.0)
    assert ModelParams(np.float32(0.5)).visibility == 0.5


def test_tally_validation():
    assert sum(check_counts((1, 2, 3, 4))) == 10
    with pytest.raises(ValueError):
        check_counts((1, 2, 3))
    with pytest.raises(ValueError):
        check_counts((1, -2, 3, 4))
    with pytest.raises(ValueError):
        check_counts((1.5, 0, 0, 0))
    # counts are analyzed as float64, which holds every integer up to 2**53
    # exactly: larger, non-finite and non-numeric counts are rejected
    assert check_counts((2 ** 53, 0, 0, np.int64(7))) == (2 ** 53, 0, 0, 7)
    assert check_counts((np.float64(3.0), 0, 0, 0)) == (3, 0, 0, 0)
    for bad in (2 ** 53 + 1, 10 ** 400, math.inf, math.nan, 1e300, True, "5"):
        with pytest.raises(ValueError):
            check_counts((bad, 0, 0, 0))
        with pytest.raises(ValueError):
            CountsRecord(0.1, (0, 0, bad, 0))


def test_outcome_prob_values():
    assert outcome_probs(0.0, ModelParams(1.0))[0] == pytest.approx(0.5, abs=1e-15)
    assert outcome_probs(0.0, ModelParams(1.0))[2] == pytest.approx(0.0, abs=1e-15)
    assert outcome_probs(0.0, ModelParams(0.95))[1] == pytest.approx(0.25, abs=1e-15)


def test_outcome_probs_values():
    np.testing.assert_allclose(
        outcome_probs(0.0, ModelParams(1.0)), [0.5, 0.25, 0.0, 0.25], atol=1e-15
    )
    np.testing.assert_allclose(
        outcome_probs(1.234, ModelParams(0.0)), [0.25] * 4, atol=1e-15
    )
    assert outcome_probs(PI / 8, ModelParams(0.95)).sum() == pytest.approx(1.0, abs=1e-12)


def test_array_evaluation_matches_pointwise():
    rng = np.random.default_rng(13)
    phases = rng.uniform(-2 * PI, 2 * PI, 200)
    params = ModelParams(0.93)
    probs, dprobs = outcome_probs(phases, params), outcome_dprobs(phases, params)
    for i, phi in enumerate(phases):
        np.testing.assert_array_equal(probs[:, i], outcome_probs(float(phi), params))
        np.testing.assert_array_equal(dprobs[:, i], outcome_dprobs(float(phi), params))


def test_outcome_prob_requires_finite_phase():
    with pytest.raises(ValueError):
        outcome_probs(float("inf"), ModelParams(0.5))
    with pytest.raises(ValueError):
        outcome_dprobs(np.array([0.1, float("nan")]), ModelParams(0.5))


@given(
    phase=st.floats(min_value=-10.0, max_value=10.0),
    visibility=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_normalization_property(phase, visibility):
    probs = outcome_probs(phase, ModelParams(visibility))
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_normalization_thousand_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        probs = outcome_probs(rng.uniform(-2 * PI, 2 * PI), ModelParams(rng.uniform(0, 1)))
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_periodicity_is_bitwise():
    # phases that are multiples of 2^-22 below 0.85 add to float(pi) exactly,
    # so phi and phi + pi must reduce to identical probabilities bit for bit
    rng = np.random.default_rng(7)
    params = ModelParams(0.9321)
    for _ in range(200):
        phi = rng.integers(0, int(0.85 * 2 ** 22)) / 2 ** 22
        shifted = phi + PI
        assert shifted - PI == phi  # the sum was exact
        np.testing.assert_array_equal(
            outcome_probs(phi, params), outcome_probs(shifted, params)
        )
    phis = rng.integers(0, int(0.85 * 2 ** 22), 200) / 2 ** 22
    np.testing.assert_array_equal(outcome_probs(phis, params), outcome_probs(phis + PI, params))
    np.testing.assert_array_equal(outcome_dprobs(phis, params), outcome_dprobs(phis + PI, params))


def test_cos_parity_symmetry():
    # probability depends on cos(8 theta - 2 phi) only, so negating the
    # argument leaves it unchanged
    rng = np.random.default_rng(3)
    for _ in range(200):
        phi = rng.uniform(-2.0, 2.0)
        v = rng.uniform(0.0, 1.0)
        probs = outcome_probs(phi, ModelParams(v))
        for k in range(4):
            direct = 0.25 * (1.0 + v * math.cos(-(8.0 * k * PI / 16.0 - 2.0 * phi)))
            assert probs[k] == pytest.approx(direct, abs=1e-13)


def test_log_likelihood_cases():
    # the posterior's log likelihood skips zero counts (0 * log 0 = 0) and is
    # -inf, giving zero density, where an observed outcome is impossible
    flat = densities((0, 0, 0, 0), ModelParams(0.9))
    assert np.all(flat == flat[0])
    # p(theta_2 | 0) = 0 at v = 1, but theta_2 was never observed
    assert densities((1, 0, 0, 0), ModelParams(1.0))[0] > 0.0
    post = densities((0, 0, 1, 0), ModelParams(1.0))
    assert post[0] == 0.0  # grid node phi = 0, where p(theta_2 | phi) = 0
    assert np.all(post[1:] > 0.0)


def test_log_likelihood_is_sum_of_count_weighted_logs():
    params = ModelParams(0.87)
    tally = (10, 20, 5, 7)
    post = densities(tally, params)
    grid = DEFAULT_DOMAIN.grid()

    def log_likelihood(phi):
        return sum(c * math.log(p) for c, p in zip(tally, outcome_probs(phi, params)))

    for i, j in ((1000, 1500), (300, 3900), (2047, 2048)):
        want = log_likelihood(grid[i]) - log_likelihood(grid[j])
        got = math.log(post[i] / post[j])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def score(k, phi, params):
    return outcome_dprobs(phi, params)[k] / outcome_probs(phi, params)[k]


def test_score_values():
    assert score(0, 0.0, ModelParams(0.7)) == 0.0
    assert score(1, 0.0, ModelParams(0.95)) == pytest.approx(1.9, rel=1e-12)
    assert score(0, PI / 4, ModelParams(0.95)) == pytest.approx(-1.9, rel=1e-12)


def test_score_singular():
    # p(theta_2 | 0) and its derivative vanish at v = 1, so the score is 0/0
    # there; the information sums stay finite
    params = ModelParams(1.0)
    assert outcome_probs(0.0, params)[2] == 0.0
    assert outcome_dprobs(0.0, params)[2] == 0.0
    assert math.isfinite(generalized_fisher(2.0, 0.0, params))


def test_score_matches_finite_difference():
    rng = np.random.default_rng(5)
    step = 1e-6
    checked = 0
    while checked < 300:
        phi = rng.uniform(0.0, PI)
        v = rng.uniform(0.0, 1.0)
        k = rng.integers(0, 4)
        params = ModelParams(v)
        if outcome_probs(phi, params)[k] <= 1e-6:
            continue
        fd = (
            math.log(outcome_probs(phi + step, params)[k])
            - math.log(outcome_probs(phi - step, params)[k])
        ) / (2.0 * step)
        got = score(k, phi, params)
        assert abs(got - fd) <= 1e-5 * max(abs(got), 1e-3)
        checked += 1
