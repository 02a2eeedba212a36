import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import (DEFAULT_DOMAIN, PhaseDomain, _log_ratio, _ratio_scale, _split,
                        gaussian_abs_moment, kappa, report_counts)
from gcrb.fisher import conjugate_exponent, generalized_fisher, order_bound
from gcrb.model import (ModelParams, _outcomes, check_counts, check_whole, outcome_dprobs,
                        outcome_probs)
from gcrb.montecarlo import CampaignConfig, draw_tallies, sigma_beta

PI = math.pi
L = PI / 2.0

# not a number of any kind gcrb takes: beyond float range, bools, nan, inf, a
# string, None and a complex number
BAD_NUMBERS = (10 ** 400, True, np.True_, math.nan, math.inf, "1", None, 1 + 0j)


def log_ratio(tally, params, ref, phases):
    """log L(phases) - log L(ref) of one tally, as the posterior takes it."""
    counts = np.array([tally], dtype=float)
    ref = np.array([ref])
    return _log_ratio(counts, _ratio_scale(counts, ref, params), ref,
                      np.asarray(phases, dtype=float)[np.newaxis] - ref)[0]


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
    for bad in (-0.01, 1.01, [0.5], *BAD_NUMBERS):
        with pytest.raises(ValueError):
            ModelParams(bad)
    assert ModelParams(np.int64(1)) == ModelParams(1.0)
    assert ModelParams(np.float32(0.5)).visibility == 0.5


def test_tally_validation():
    table = check_counts([(1, 2, 3, 4)])
    assert table.dtype == np.int64 and table.tolist() == [[1, 2, 3, 4]]
    with pytest.raises(ValueError):
        check_counts([(1, -2, 3, 4)])
    with pytest.raises(ValueError):
        check_counts([(1.5, 0, 0, 0)])
    # counts are analyzed as float64, which holds every integer up to 2**53
    # exactly: larger, non-finite and non-numeric counts are rejected
    assert check_counts([(2 ** 53, 0, 0, np.int64(7))]).tolist() == [[2 ** 53, 0, 0, 7]]
    assert check_counts([(np.float64(3.0), 0, 0, 0)]).tolist() == [[3, 0, 0, 0]]
    table = check_counts([[1, 2, 3, 4], [5.0, 6, 7, 8]])
    assert table.dtype == np.int64 and table.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    assert check_counts(np.zeros((0, 4))).shape == (0, 4)
    # a table has rows of four: one row alone, or any other shape, is not one
    for shape in ((4,), (1, 3), (2, 5), (1, 1, 4), (0,), ()):
        with pytest.raises(ValueError, match=r"\(E, 4\) table"):
            check_counts(np.ones(shape, dtype=int))
    for bad in (2 ** 53 + 1, 1e300, *BAD_NUMBERS):
        with pytest.raises(ValueError, match="counts must be"):
            check_counts([(bad, 0, 0, 0)])
        with pytest.raises(ValueError):
            check_counts([(0, 0, 0, 0), (0, 0, bad, 0)])


def test_whole_numbers_are_compared_exactly():
    # a float bound would round: float(2**64 - 1) is 2**64, float(2**63 - 1)
    # is 2**63, the first float beyond the int64 of a whole-number array
    assert check_whole(2 ** 64 - 1, "seed", 0, 2 ** 64 - 1) == 2 ** 64 - 1
    assert check_whole(10 ** 20, "shots", 1) == 10 ** 20
    assert check_whole(np.array([2.0 ** 62]), "shots").tolist() == [2 ** 62]
    for bad, hi in ((2.0 ** 64, 2 ** 64 - 1), (2 ** 64, 2 ** 64 - 1),
                    (np.array([2.0 ** 63]), math.inf), (np.array([2 ** 63], np.uint64), math.inf)):
        with pytest.raises(ValueError):
            check_whole(bad, "x", 0, hi)


def test_every_entry_point_rejects_every_bad_number():
    # each checked parameter of a public constructor or function: its form, a
    # good value and a call on the value.  "array" parameters take numbers and
    # arrays of them, "sequence" parameters sequences only.  Every bad number
    # raises ValueError, alone and among good numbers, never OverflowError or
    # TypeError.  Visibilities, counts, phase labels, experiment indices,
    # draw_tallies' shots and conjugate_exponent have tests of their own.
    base = dict(phase_true=0.4, v_true=0.95, v_est=0.95, n_experiments=3)
    checked = [
        ("scalar", 0.5, lambda x: PhaseDomain(x, 1.0)),
        ("scalar", 1.0, lambda x: PhaseDomain(0.0, x)),
        *(("scalar", 1, lambda x, name=name: CampaignConfig(**{**base, name: x}))
          for name in ("phase_true", "v_true", "v_est", "shots", "n_experiments", "seed",
                       "sigma_window")),
        ("sequence", 2.0, lambda x: CampaignConfig(**base, beta_list=x)),
        ("array", 0.4, lambda x: draw_tallies(x, 0.95, 10, 0, [0, 1])),
        ("scalar", 0.95, lambda x: draw_tallies(0.4, x, 10, 0, [0])),
        ("scalar", 0, lambda x: draw_tallies(0.4, 0.95, 10, x, [0])),
        ("sequence", 0, lambda x: draw_tallies(0.4, 0.95, 10, 0, x)),
        ("array", 2.0, lambda x: sigma_beta(x, 2000, 1.8)),
        ("scalar", 2000, lambda x: sigma_beta(2.0, x, 1.8)),
        ("scalar", 1.8, lambda x: sigma_beta(2.0, 2000, x)),
        ("array", 2.0, lambda x: order_bound(x, 1.8, 2000)),
        ("array", 1.8, lambda x: order_bound(2.0, x, 2000)),
        ("array", 2000, lambda x: order_bound(2.0, 1.8, x)),
        ("array", 2.0, lambda x: gaussian_abs_moment(x, 0.1)),
        ("array", 0.1, lambda x: gaussian_abs_moment(2.0, x)),
        ("array", 2.0, lambda x: generalized_fisher(x, 0.4, ModelParams(0.95))),
        ("array", 1.8, lambda x: kappa(1e-4, x, 2000, 2.0)),
        ("sequence", 2.0, lambda x: report_counts([[1, 2, 3, 4]], ModelParams(0.95), betas=x)),
    ]
    for form, good, call in checked:
        call((good,) if form == "sequence" else good)
        for bad in BAD_NUMBERS:
            values = [(bad,), (good, bad)] if form == "sequence" else [bad]
            values += [[good, bad]] if form == "array" else []
            for value in values:
                with pytest.raises(ValueError):
                    call(value)


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


def test_outcomes_share_one_reduction_with_the_bits_of_each():
    # generalized_fisher and the posterior's slope take p and dp/dphi from
    # one reduction of the phases, with the bits of the public functions
    phases = np.random.default_rng(17).uniform(-2 * PI, 2 * PI, (3, 50))
    params = ModelParams(0.93)
    probs, dprobs = _outcomes(phases, params)
    assert probs.tobytes() == outcome_probs(phases, params).tobytes()
    assert dprobs.tobytes() == outcome_dprobs(phases, params).tobytes()


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
    assert not log_ratio((0, 0, 0, 0), ModelParams(0.9), 0.3, [0.0, 1.0, L]).any()
    # p(theta_2 | 0) = 0 at v = 1, but theta_2 was never observed
    assert np.isfinite(log_ratio((1, 0, 0, 0), ModelParams(1.0), 0.3, [0.0, 1e-3])).all()
    post = log_ratio((0, 0, 1, 0), ModelParams(1.0), 0.3, [0.0, 1e-3, L])
    assert post[0] == -np.inf and np.isfinite(post[1:]).all()
    # the split points: phi = 0 is dead, and the row's pieces run from its
    # peak at the other end of the domain to a cut short of phi = 0, where
    # the density has fallen below e**-38 of its peak
    _, row, ref, end, _ = _split(np.array([[0.0, 0.0, 1.0, 0.0]]), ModelParams(1.0),
                                 DEFAULT_DOMAIN)
    ends = np.sort(np.r_[ref, end])
    assert set(row.tolist()) == {0} and ends[-1] == L and 0.0 < ends[0] < 1e-8


def test_log_likelihood_is_sum_of_count_weighted_logs():
    params = ModelParams(0.87)
    tally = (10, 20, 5, 7)
    grid = np.linspace(0.0, L, 4096)

    def log_likelihood(phi):
        return sum(c * math.log(p) for c, p in zip(tally, outcome_probs(phi, params)))

    for i, j in ((1000, 1500), (300, 3900), (2047, 2048)):
        want = log_likelihood(grid[i]) - log_likelihood(grid[j])
        got = log_ratio(tally, params, grid[j], [grid[i]])[0]
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
