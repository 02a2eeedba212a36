import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import (
    DEFAULT_DOMAIN,
    _block_moments,
    _block_posterior,
    _block_reports,
    _check_densities,
    _evaluate_counts,
    _log_prob_grid,
    _moment_orders,
    _peak_nodes,
    PhaseDomain,
    gaussian_abs_moment,
    kappa,
    report_counts,
)
from gcrb.errors import UndefinedRatioError
from gcrb.fisher import order_bound
from gcrb.model import ModelParams, outcome_probs
from gcrb.montecarlo import experiment_rng, sample_tally, sigma_beta

PI = math.pi
L = PI / 2.0
BETAS = (1.5, 2.0, 3.0, 4.0)


def normalized_posterior(domain, values):
    """The posterior of non-negative weights, scaled by their trapezoidal
    integral to unit mass, as a one-row block of densities."""
    h = domain.spacing
    return (values / (h * (values.sum() - 0.5 * (values[0] + values[-1]))))[np.newaxis]


def gaussian_posterior(sigma, center=PI / 4.0, domain=DEFAULT_DOMAIN):
    grid = domain.grid()
    values = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
    return normalized_posterior(domain, values)


def uniform_posterior(domain=DEFAULT_DOMAIN):
    return normalized_posterior(domain, np.ones(domain.grid_points))


def row_report(phi_hat, columns, betas):
    """Row 0 of phi_hat and of the Delta_beta, kappa_beta and Gaussianity
    ratio columns, as a float and dicts keyed by order."""
    keys = [float(b) for b in betas]
    deltas, kappas, ratios = (dict(zip(keys, column[0].tolist())) for column in columns)
    return SimpleNamespace(estimate=float(phi_hat[0]), deltas=deltas, kappas=kappas,
                           gauss_ratios=ratios)


def moments(dens, betas, shots=1, params=ModelParams(0.95), domain=DEFAULT_DOMAIN):
    """The report of a one-row block of densities from the engine under
    `report_counts`."""
    phi_hat, values = _block_moments(dens, domain, _moment_orders(betas))
    return row_report(phi_hat, _block_reports(phi_hat, values, np.array([shots]), params, betas),
                      betas)


def one_row(counts, params, domain=DEFAULT_DOMAIN, betas=BETAS):
    """The report_counts report of one tally."""
    report = report_counts(np.asarray(counts)[np.newaxis], params, domain, betas)
    return row_report(report.phi_hat, report[2:], betas)


def test_phase_domain_validation():
    with pytest.raises(ValueError):
        PhaseDomain(1.0, 0.5)
    with pytest.raises(ValueError):
        PhaseDomain(0.0, PI + 0.1)
    with pytest.raises(ValueError):
        PhaseDomain(0.0, 1.0, grid_points=32)
    d = PhaseDomain(0.0, L, 4096)
    assert d.spacing == pytest.approx(L / 4095.0, rel=1e-15)


def test_phase_domain_endpoints_are_real_and_stored_as_floats():
    # a bool is not an endpoint; numpy reals are, and are stored as floats
    for ends in ((False, True), (0.0, True), (np.False_, 1.0), ("0", 1.0)):
        with pytest.raises(ValueError):
            PhaseDomain(*ends)
    d = PhaseDomain(np.int64(0), np.float32(0.5))
    assert (type(d.lower), type(d.upper)) == (float, float)
    assert (d.lower, d.upper) == (0.0, 0.5)


def test_posterior_grid_rejects_bad_density():
    # the engine's own output check: unit mass, finite and non-negative
    h = DEFAULT_DOMAIN.spacing
    with pytest.raises(ValueError):
        _check_densities(np.full((1, DEFAULT_DOMAIN.grid_points), 0.5), h)
    with pytest.raises(ValueError):
        _check_densities(-uniform_posterior(), h)
    _check_densities(uniform_posterior(), h)


def test_empty_tally_gives_flat_posterior():
    dens, _ = _block_posterior(np.array([[0, 0, 0, 0]]), ModelParams(0.95), DEFAULT_DOMAIN)
    np.testing.assert_allclose(dens[0], 2.0 / PI, rtol=1e-12)
    assert moments(dens, (2.0,)).estimate == pytest.approx(PI / 4.0, rel=1e-9)


def test_concentrated_tally_peaks_at_boundary():
    dens, _ = _block_posterior(np.array([[500, 0, 0, 0]]), ModelParams(1.0), DEFAULT_DOMAIN)
    assert dens[0].argmax() == 0


def test_posterior_normalization_for_random_tallies():
    rng = np.random.default_rng(23)
    for _ in range(50):
        counts = rng.integers(0, 600, size=(1, 4))
        v = float(rng.uniform(0.9, 1.0))
        dens, _ = _block_posterior(counts, ModelParams(v), DEFAULT_DOMAIN)
        integral = np.trapezoid(dens[0], DEFAULT_DOMAIN.grid())
        assert abs(integral - 1.0) <= 1e-9


def test_block_posterior_masks_infeasible_rows():
    # counts whose log likelihood overflows to -inf at every node are
    # impossible everywhere: the row is masked instead of raising for the
    # block, and the other rows equal their one-row posteriors
    tallies = [(3, 0, 0, 0), (1e308,) * 4, (0, 0, 0, 0)]
    params = ModelParams(1.0)
    with np.errstate(over="ignore"):
        dens, feasible = _block_posterior(np.array(tallies), params, DEFAULT_DOMAIN)
    assert feasible.tolist() == [True, False, True]
    for row in (0, 2):
        single, _ = _block_posterior(np.array(tallies[row:row + 1]), params, DEFAULT_DOMAIN)
        assert np.array_equal(dens[row], single[0])


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


def test_evaluator_rows_match_one_row_calls():
    # shuffled rows at scattered phases with M from 1e3 to 1e6, plus an
    # empty tally, analyzed at v = 1, where some outcomes are impossible at
    # some nodes: the evaluator picks each row's blockmates from the counts,
    # and every row keeps the bits of its one-row call
    rng = np.random.default_rng(37)
    shots = np.rint(10.0 ** rng.uniform(3.0, 6.0, 37)).astype(int)
    phases = rng.uniform(0.0, L, 37)
    tallies = [rng.multinomial(m, outcome_probs(phase, ModelParams(0.95)))
               for m, phase in zip(shots, phases)]
    counts = np.array(tallies + [[0, 0, 0, 0]], dtype=float)[rng.permutation(38)]
    params = ModelParams(1.0)
    feasible, phi_hat, deltas = _evaluate_counts(counts, params, DEFAULT_DOMAIN, BETAS)
    assert feasible.all()
    for row in range(38):
        alone = _evaluate_counts(counts[row:row + 1], params, DEFAULT_DOMAIN, BETAS)
        for got, want in zip((feasible, phi_hat, deltas), alone):
            assert got[row:row + 1].tobytes() == want.tobytes(), row


def test_peak_nodes_locate_the_posterior():
    # the block-filling key is the likelihood peak on 64 evenly spaced
    # nodes: within a node of the true phase for sharp tallies, and defined
    # for an empty tally at v = 1 (0 * log 0 = 0)
    rng = np.random.default_rng(64)
    phases = rng.uniform(0.05, L - 0.05, 20)
    counts = np.array([rng.multinomial(10 ** 5, outcome_probs(phase, ModelParams(1.0)))
                       for phase in phases] + [[0, 0, 0, 0]], dtype=float)
    nodes = _peak_nodes(counts, _log_prob_grid(DEFAULT_DOMAIN, ModelParams(1.0)))
    step = DEFAULT_DOMAIN.grid_points // 64 * DEFAULT_DOMAIN.spacing
    assert np.all(np.abs(nodes[:-1] * step - phases) <= step)
    assert 0 <= nodes[-1] < 64


def test_block_reports_leave_infeasible_rows_nan():
    # an infeasible row's nan phi_hat stays out of the f_alpha evaluation
    # (a nan phase is rejected there); its cells are nan and its
    # blockmate's equal their one-row report
    params = ModelParams(0.95)
    counts = np.array([[900, 400, 100, 600], [1e308] * 4])
    orders = _moment_orders(BETAS)
    with np.errstate(over="ignore"):
        feasible, phi_hat, moments = _evaluate_counts(counts, params, DEFAULT_DOMAIN, orders)
        report = report_counts(counts, params, DEFAULT_DOMAIN, BETAS)
    assert feasible.tolist() == [True, False]
    shots = np.array([2000.0, 2000.0])
    columns = _block_reports(phi_hat, moments, shots, params, BETAS)
    alone = _block_reports(phi_hat[:1], moments[:1], shots[:1], params, BETAS)
    for got, want in zip(columns, alone):
        assert np.isnan(got[1]).all()
        assert got[:1].tobytes() == want.tobytes()
    # report_counts is the same chain, each row's shots its count sum: the
    # infeasible row is flagged and nan throughout
    assert report.feasible.tolist() == [True, False]
    assert report.phi_hat.tobytes() == phi_hat.tobytes() and np.isnan(report.phi_hat[1])
    for got, want in zip(report[2:], columns):
        assert got.tobytes() == want.tobytes()


def test_densities_beyond_the_floor_are_exactly_zero():
    # a wide and a narrow posterior share one block, so the narrow row has
    # nodes beyond its floor inside the block's live span
    params = ModelParams(0.95)
    logp = np.log(outcome_probs(DEFAULT_DOMAIN.grid(), params))
    rng = np.random.default_rng(6)
    counts = np.array([rng.multinomial(m, outcome_probs(phase, params))
                       for m, phase in ((2000, PI / 8.0), (10 ** 5, 0.5))])
    dens, _ = _block_posterior(counts, params, DEFAULT_DOMAIN)
    single, _ = _block_posterior(counts[1:], params, DEFAULT_DOMAIN)
    for row, values in zip(counts, (dens[0], dens[1], single[0])):
        log_post = row @ logp
        log_post -= log_post.max()
        # beyond the floor exactly 0; inside it, clear of the rounding at the
        # boundary, every node keeps its mass
        assert (log_post < -100.0).any()
        assert not values[log_post < -100.0].any()
        assert (values[log_post > -99.9] > 0.0).all()


def test_estimate_of_symmetric_peak():
    post = gaussian_posterior(0.01, center=PI / 8.0)
    assert abs(moments(post, (2.0,)).estimate - PI / 8.0) <= DEFAULT_DOMAIN.spacing


def test_estimate_of_simulated_experiment_is_consistent():
    tally = sample_tally(PI / 8.0, 0.95, 2000, experiment_rng(1, 0))
    f_max = 2.0 * 0.95 ** 2 / (1.0 - 0.95 ** 2 / 2.0)
    estimate = one_row(tally, ModelParams(0.95), betas=(2.0,)).estimate
    assert abs(estimate - PI / 8.0) <= 3.0 / math.sqrt(2000.0 * f_max)


def test_uniform_moments():
    deltas = moments(uniform_posterior(), (2.0, 1.0)).deltas
    assert deltas[2.0] == pytest.approx(L ** 2 / 12.0, rel=1e-6)
    assert deltas[1.0] == pytest.approx(L / 4.0, rel=1e-6)


def test_gaussian_third_moment():
    post = gaussian_posterior(0.01)
    want = 2.0 * math.sqrt(2.0 / PI) * 0.01 ** 3
    assert moments(post, (3.0,)).deltas[3.0] == pytest.approx(want, rel=1e-4)


def test_moment_set_matches_absolute_moment():
    # each order computed alone agrees with the set sharing one kink window
    post = gaussian_posterior(0.013, center=0.4)
    ms = moments(post, BETAS, shots=2000)
    for b, value in ms.deltas.items():
        assert value == pytest.approx(moments(post, (b,)).deltas[b], rel=1e-12)
    assert ms.estimate == pytest.approx(moments(post, (2.0,)).estimate, rel=1e-12)


def test_absolute_moment_validates_order():
    post = uniform_posterior()
    with pytest.raises(ValueError):
        moments(post, (2.0, 0.5))
    # a bool is not an order; numpy reals, integers included, are
    for bad in ([True], [np.True_]):
        with pytest.raises(ValueError):
            moments(post, bad)
    assert moments(post, np.array([2, 3])).deltas == moments(post, (2.0, 3.0)).deltas


def test_grid_refinement_convergence():
    # posterior about 10.7 grid spacings wide at the default resolution
    tally = sample_tally(PI / 8.0, 0.95, 18000, experiment_rng(42, 0))
    results = {}
    for points in (4096, 8192):
        results[points] = one_row(tally, ModelParams(0.95), PhaseDomain(0.0, L, points))
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
    ms = one_row(counts, ModelParams(v))
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


def test_gaussian_abs_moment_broadcasts():
    # a list of sigmas gives an array, and a non-finite sigma is rejected as such
    assert gaussian_abs_moment(2.0, [0.1, 0.2]).tolist() == [
        gaussian_abs_moment(2.0, 0.1), gaussian_abs_moment(2.0, 0.2)]
    with pytest.raises(ValueError, match="finite"):
        gaussian_abs_moment(2.0, math.inf)
    # orders broadcast against sigmas
    table = gaussian_abs_moment(np.array([2.0, 3.0, 4.0]), np.array([[0.5], [1.0]]))
    assert table.shape == (2, 3)
    assert table[1].tolist() == [gaussian_abs_moment(b, 1.0) for b in (2.0, 3.0, 4.0)]


def test_kappa_values():
    assert kappa(1.0 / (2000.0 * 1.805), 1.805, 2000, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert kappa(2.0 / (2000.0 * 1.805), 1.805, 2000, 2.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(UndefinedRatioError):
        kappa(1e-4, 0.0, 2000, 2.0)
    # analyze passes float shot counts
    assert kappa(1e-4, np.array([1.805]), np.array([2000.0]), 2.0).tolist() == [
        kappa(1e-4, 1.805, 2000, 2.0)]
    for shots in (0, 1.5, np.array([2000.0, 0.5])):
        with pytest.raises(ValueError):
            kappa(1e-4, 1.805, shots, 2.0)


def test_bool_shot_counts_are_rejected():
    with pytest.raises(ValueError):
        kappa(1e-3, 1.8, True, 2.0)
    with pytest.raises(ValueError):
        kappa(np.array([1e-3]), np.array([1.8]), np.array([True]), 2.0)
    with pytest.raises(ValueError):
        sigma_beta(2.0, True, 1.0)
    with pytest.raises(ValueError):
        order_bound(2.0, 1.8, True)


def test_gaussianity_ratios():
    ratios = moments(gaussian_posterior(0.01), (3.0, 4.0), 2000).gauss_ratios
    assert ratios[3.0] == pytest.approx(1.0, abs=1e-3)
    assert ratios[4.0] == pytest.approx(1.0, abs=1e-3)

    uniform = moments(uniform_posterior(), (4.0,), 2000)
    assert uniform.gauss_ratios[4.0] == pytest.approx(0.6, abs=1e-3)


def test_degenerate_posterior_rejected():
    # a posterior without spread has no Gaussian reference: its ratios are nan
    values = np.zeros(DEFAULT_DOMAIN.grid_points)
    values[2048] = 1.0
    report = moments(normalized_posterior(DEFAULT_DOMAIN, values), (2.0, 3.0, 4.0), 2000)
    assert report.deltas[2.0] <= 0.0
    assert all(math.isnan(r) for r in report.gauss_ratios.values())


def test_saturation_report_shape():
    tally = sample_tally(PI / 8.0, 0.95, 2000, experiment_rng(9, 4))
    table = report_counts(np.array([tally, tally]), ModelParams(0.95))
    assert table.feasible.shape == table.phi_hat.shape == (2,)
    assert table.deltas.shape == table.kappas.shape == table.gauss_ratios.shape == (2, 4)
    with pytest.raises(ValueError, match=r"\(E, 4\) table"):
        report_counts(tally, ModelParams(0.95))
    report = one_row(tally, ModelParams(0.95))
    # each order's Delta_beta and phi_hat do not depend on the other orders
    single = [one_row(tally, ModelParams(0.95), betas=(b,)) for b in BETAS]
    assert all(s.estimate == report.estimate for s in single)
    assert report.deltas == {b: s.deltas[b] for b, s in zip(BETAS, single)}
    assert set(report.kappas) == {1.5, 2.0, 3.0, 4.0}
    assert report.kappas[2.0] == pytest.approx(1.0, rel=0.2)
    assert report.gauss_ratios[2.0] == pytest.approx(1.0, rel=1e-12)
    assert report.gauss_ratios[3.0] == pytest.approx(1.0, abs=0.1)
    assert report.gauss_ratios[4.0] == pytest.approx(1.0, abs=0.1)


def test_saturation_report_nan_markers():
    # kappa is undefined without shots, without information (v = 0) and for
    # beta = 1, whose conjugate order is infinite
    post = gaussian_posterior(0.02, center=0.5)
    assert all(math.isnan(k) for k in moments(post, BETAS, 0).kappas.values())
    flat = moments(post, BETAS, 2000, ModelParams(0.0))
    assert all(math.isnan(k) for k in flat.kappas.values())
    mixed = moments(post, (1.0, 2.0), 2000)
    assert math.isnan(mixed.kappas[1.0])
    assert math.isfinite(mixed.kappas[2.0])
