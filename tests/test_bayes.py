import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import (
    DEFAULT_DOMAIN,
    _block_moments,
    _block_posterior,
    PhaseDomain,
    PosteriorGrid,
    estimate,
    gaussian_abs_moment,
    kappa,
    moment_set,
    posterior,
    saturation_report,
)
from gcrb.errors import InfeasibleDataError, UndefinedRatioError
from gcrb.model import ModelParams, OutcomeTally, outcome_probs
from gcrb.montecarlo import experiment_rng, sample_tally

PI = math.pi
L = PI / 2.0


def gaussian_posterior(sigma, center=PI / 4.0, domain=DEFAULT_DOMAIN):
    grid = domain.grid()
    values = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
    return PosteriorGrid.from_unnormalized(domain, values)


def uniform_posterior(domain=DEFAULT_DOMAIN):
    return PosteriorGrid.from_unnormalized(domain, np.ones(domain.grid_points))


def test_phase_domain_validation():
    with pytest.raises(ValueError):
        PhaseDomain(1.0, 0.5)
    with pytest.raises(ValueError):
        PhaseDomain(0.0, PI + 0.1)
    with pytest.raises(ValueError):
        PhaseDomain(0.0, 1.0, grid_points=32)
    d = PhaseDomain(0.0, L, 4096)
    assert d.spacing == pytest.approx(L / 4095.0, rel=1e-15)


def test_posterior_grid_rejects_bad_density():
    with pytest.raises(ValueError):
        PosteriorGrid(DEFAULT_DOMAIN, np.full(DEFAULT_DOMAIN.grid_points, 0.5))
    with pytest.raises(ValueError):
        PosteriorGrid(DEFAULT_DOMAIN, -np.ones(DEFAULT_DOMAIN.grid_points))


def test_posterior_densities_are_immutable():
    post = uniform_posterior()
    with pytest.raises(ValueError):
        post.densities[0] = 2.0


def test_empty_tally_gives_flat_posterior():
    post = posterior(OutcomeTally((0, 0, 0, 0)), ModelParams(0.95))
    np.testing.assert_allclose(post.densities, 2.0 / PI, rtol=1e-12)
    assert estimate(post) == pytest.approx(PI / 4.0, rel=1e-9)


def test_concentrated_tally_peaks_at_boundary():
    post = posterior(OutcomeTally((500, 0, 0, 0)), ModelParams(1.0))
    assert post.densities.argmax() == 0


def test_posterior_normalization_for_random_tallies():
    rng = np.random.default_rng(23)
    for _ in range(50):
        counts = tuple(int(c) for c in rng.integers(0, 600, size=4))
        v = float(rng.uniform(0.9, 1.0))
        post = posterior(OutcomeTally(counts), ModelParams(v))
        grid = post.domain.grid()
        integral = np.trapezoid(post.densities, grid)
        assert abs(integral - 1.0) <= 1e-9


def test_infeasible_data_raises():
    # a prior supported on the single grid node where the observed outcome is
    # impossible under v = 1 leaves no feasible phase at all
    domain = DEFAULT_DOMAIN
    prior = np.zeros(domain.grid_points)
    prior[0] = 1.0  # grid node at phi = 0, where p(theta_2 | phi) = 0
    with pytest.raises(InfeasibleDataError):
        posterior(OutcomeTally((0, 0, 3, 0)), ModelParams(1.0), domain, prior=prior)


def test_block_posterior_masks_infeasible_rows():
    # the same single-node prior as above: the impossible tally is masked
    # instead of raising for the block, and the other rows equal their
    # single posteriors
    domain = DEFAULT_DOMAIN
    prior = np.zeros(domain.grid_points)
    prior[0] = 1.0
    tallies = [(3, 0, 0, 0), (0, 0, 3, 0), (0, 0, 0, 0)]
    params = ModelParams(1.0)
    dens, feasible = _block_posterior(np.array(tallies), params, domain, prior)
    assert feasible.tolist() == [True, False, True]
    for row in (0, 2):
        single = posterior(OutcomeTally(tallies[row]), params, domain, prior=prior)
        assert np.array_equal(dens[row], single.densities)


def test_block_rows_with_disjoint_supports_match_blocks_of_one():
    # narrow posteriors at 0.2 and 1.3, one pinned at the edge phase 0 and
    # one infeasible row, whose flat placeholder makes the block's live span
    # the whole grid: each row has the bits of its block of one
    rng = np.random.default_rng(3)
    params = ModelParams(0.95)
    tallies = [rng.multinomial(10 ** 6, outcome_probs(phase, params)) for phase in (0.2, 1.3, 0.0)]
    counts = np.array(tallies + [[1e308] * 4], dtype=float)
    betas = (1.5, 2.0, 3.0, 4.0)
    with np.errstate(over="ignore"):
        dens, feasible = _block_posterior(counts, params, DEFAULT_DOMAIN)
        centers, deltas = _block_moments(dens, DEFAULT_DOMAIN, betas)
        assert feasible.tolist() == [True, True, True, False]
        for row in range(4):
            alone, alone_feasible = _block_posterior(counts[row:row + 1], params, DEFAULT_DOMAIN)
            alone_center, alone_deltas = _block_moments(alone, DEFAULT_DOMAIN, betas)
            assert alone_feasible[0] == feasible[row]
            assert np.array_equal(alone[0], dens[row])
            assert alone_center[0] == centers[row]
            assert np.array_equal(alone_deltas[0], deltas[row])


def test_densities_beyond_the_floor_are_exactly_zero():
    # a wide and a narrow posterior share one block, so the narrow row has
    # nodes beyond its floor inside the block's live span
    params = ModelParams(0.95)
    logp = np.log(outcome_probs(DEFAULT_DOMAIN.grid(), params))
    rng = np.random.default_rng(6)
    counts = np.array([rng.multinomial(m, outcome_probs(phase, params))
                       for m, phase in ((2000, PI / 8.0), (10 ** 5, 0.5))])
    dens, _ = _block_posterior(counts, params, DEFAULT_DOMAIN)
    single = posterior(OutcomeTally(tuple(int(c) for c in counts[1])), params)
    for row, values in zip(counts, (dens[0], dens[1], single.densities)):
        log_post = row @ logp
        log_post -= log_post.max()
        # beyond the floor exactly 0; inside it, clear of the rounding at the
        # boundary, every node keeps its mass
        assert (log_post < -100.0).any()
        assert not values[log_post < -100.0].any()
        assert (values[log_post > -99.9] > 0.0).all()


def test_tabulated_prior_restricts_support():
    domain = DEFAULT_DOMAIN
    prior = np.zeros(domain.grid_points)
    prior[1000:2000] = 1.0
    post = posterior(OutcomeTally((0, 0, 0, 0)), ModelParams(0.9), domain, prior=prior)
    assert post.densities[:1000].max() == 0.0
    assert post.densities[2000:].max() == 0.0


def test_estimate_of_symmetric_peak():
    post = gaussian_posterior(0.01, center=PI / 8.0)
    assert abs(estimate(post) - PI / 8.0) <= DEFAULT_DOMAIN.spacing


def test_estimate_of_simulated_experiment_is_consistent():
    tally = sample_tally(PI / 8.0, 0.95, 2000, experiment_rng(1, 0))
    post = posterior(tally, ModelParams(0.95))
    f_max = 2.0 * 0.95 ** 2 / (1.0 - 0.95 ** 2 / 2.0)
    assert abs(estimate(post) - PI / 8.0) <= 3.0 / math.sqrt(2000.0 * f_max)


def test_uniform_moments():
    deltas = moment_set(uniform_posterior(), (2.0, 1.0), shots=1).deltas
    assert deltas[2.0] == pytest.approx(L ** 2 / 12.0, rel=1e-6)
    assert deltas[1.0] == pytest.approx(L / 4.0, rel=1e-6)


def test_gaussian_third_moment():
    post = gaussian_posterior(0.01)
    want = 2.0 * math.sqrt(2.0 / PI) * 0.01 ** 3
    assert moment_set(post, (3.0,), shots=1).deltas[3.0] == pytest.approx(want, rel=1e-4)


def test_moment_set_matches_absolute_moment():
    # each order computed alone agrees with the set sharing one kink window
    post = gaussian_posterior(0.013, center=0.4)
    ms = moment_set(post, (1.5, 2.0, 3.0, 4.0), shots=2000)
    assert ms.shots == 2000
    for b, value in ms.deltas.items():
        assert value == pytest.approx(moment_set(post, (b,), shots=1).deltas[b], rel=1e-12)
    assert ms.estimate == pytest.approx(estimate(post), rel=1e-12)


def test_absolute_moment_validates_order():
    post = uniform_posterior()
    with pytest.raises(ValueError):
        moment_set(post, (2.0, 0.5), shots=1)
    # a bool is not an order; numpy reals, integers included, are
    for bad in ([True], [np.True_]):
        with pytest.raises(ValueError):
            moment_set(post, bad, shots=1)
    assert moment_set(post, np.array([2, 3]), shots=1).deltas == moment_set(
        post, (2.0, 3.0), shots=1).deltas


def test_grid_refinement_convergence():
    # posterior about 10.7 grid spacings wide at the default resolution
    tally = sample_tally(PI / 8.0, 0.95, 18000, experiment_rng(42, 0))
    results = {}
    for points in (4096, 8192):
        domain = PhaseDomain(0.0, L, points)
        post = posterior(tally, ModelParams(0.95), domain)
        ms = moment_set(post, (1.5, 2.0, 3.0, 4.0), shots=18000)
        results[points] = ms
    coarse, fine = results[4096], results[8192]
    assert abs(coarse.estimate - fine.estimate) <= 1e-6 * abs(fine.estimate)
    for b in (1.5, 2.0, 3.0, 4.0):
        assert abs(coarse.deltas[b] - fine.deltas[b]) <= 1e-6 * fine.deltas[b]


@given(
    counts=st.tuples(*[st.integers(min_value=0, max_value=500)] * 4),
    v=st.floats(min_value=0.9, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_lyapunov_moment_ordering(counts, v):
    post = posterior(OutcomeTally(counts), ModelParams(v))
    ms = moment_set(post, (1.5, 2.0, 3.0, 4.0), shots=max(sum(counts), 1))
    roots = [ms.deltas[b] ** (1.0 / b) for b in (1.5, 2.0, 3.0, 4.0)]
    for lower, higher in zip(roots, roots[1:]):
        assert higher >= lower * (1.0 - 1e-9)


def test_gaussian_abs_moment_values():
    assert gaussian_abs_moment(2.0, 0.37) == pytest.approx(0.37 ** 2, rel=1e-14)
    assert gaussian_abs_moment(3.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0 / PI), rel=1e-14)
    assert gaussian_abs_moment(4.0, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert gaussian_abs_moment(3.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        gaussian_abs_moment(3.0, -1.0)
    assert gaussian_abs_moment(np.int64(4), 1.0) == gaussian_abs_moment(4.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_abs_moment(True, 1.0)


def test_kappa_values():
    assert kappa(1.0 / (2000.0 * 1.805), 1.805, 2000, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert kappa(2.0 / (2000.0 * 1.805), 1.805, 2000, 2.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(UndefinedRatioError):
        kappa(1e-4, 0.0, 2000, 2.0)


def test_gaussianity_ratios():
    params = ModelParams(0.95)
    ratios = saturation_report(gaussian_posterior(0.01), params, 2000, (3.0, 4.0)).gauss_ratios
    assert ratios[3.0] == pytest.approx(1.0, abs=1e-3)
    assert ratios[4.0] == pytest.approx(1.0, abs=1e-3)

    uniform = saturation_report(uniform_posterior(), params, 2000, (4.0,))
    assert uniform.gauss_ratios[4.0] == pytest.approx(0.6, abs=1e-3)


def test_degenerate_posterior_rejected():
    # a posterior without spread has no Gaussian reference: its ratios are nan
    values = np.zeros(DEFAULT_DOMAIN.grid_points)
    values[2048] = 1.0
    post = PosteriorGrid.from_unnormalized(DEFAULT_DOMAIN, values)
    report = saturation_report(post, ModelParams(0.95), 2000, (2.0, 3.0, 4.0))
    assert report.deltas[2.0] <= 0.0
    assert all(math.isnan(r) for r in report.gauss_ratios.values())


def test_saturation_report_shape():
    tally = sample_tally(PI / 8.0, 0.95, 2000, experiment_rng(9, 4))
    post = posterior(tally, ModelParams(0.95))
    report = saturation_report(post, ModelParams(0.95), 2000)
    ms = moment_set(post, (1.5, 2.0, 3.0, 4.0), 2000)
    assert report.estimate == ms.estimate
    assert report.deltas == ms.deltas
    assert set(report.kappas) == {1.5, 2.0, 3.0, 4.0}
    assert report.kappas[2.0] == pytest.approx(1.0, rel=0.2)
    assert report.gauss_ratios[2.0] == pytest.approx(1.0, rel=1e-12)
    assert report.gauss_ratios[3.0] == pytest.approx(1.0, abs=0.1)
    assert report.gauss_ratios[4.0] == pytest.approx(1.0, abs=0.1)


def test_saturation_report_nan_markers():
    # kappa is undefined without shots, without information (v = 0) and for
    # beta = 1, whose conjugate order is infinite
    post = gaussian_posterior(0.02, center=0.5)
    assert all(math.isnan(k) for k in saturation_report(post, ModelParams(0.95), 0).kappas.values())
    flat = saturation_report(post, ModelParams(0.0), 2000)
    assert all(math.isnan(k) for k in flat.kappas.values())
    mixed = saturation_report(post, ModelParams(0.95), 2000, (1.0, 2.0))
    assert math.isnan(mixed.kappas[1.0])
    assert math.isfinite(mixed.kappas[2.0])
