import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import (
    _BATCH_ROWS,
    _CUT_DROP,
    _CUT_SLACK,
    DEFAULT_DOMAIN,
    MAX_GAUSSIAN_ORDER,
    TINY,
    _evaluate_counts,
    _moment_orders,
    _pool,
    _ratio,
    _reports,
    _split,
    _split_points,
    PhaseDomain,
    gaussian_abs_moment,
    report_counts,
)
from gcrb.fisher import order_bound
from gcrb.model import ModelParams, outcome_probs
from gcrb.montecarlo import CampaignConfig, draw_tallies, run_campaign

PI = math.pi
L = PI / 2.0
BETAS = (1.5, 2.0, 3.0, 4.0)


def row_report(phi_hat, columns, betas):
    """Row 0 of phi_hat and of the Delta_beta, kappa_beta and Gaussianity
    ratio columns, as a float and dicts keyed by order."""
    keys = [float(b) for b in betas]
    deltas, kappas, ratios = (dict(zip(keys, column[0].tolist())) for column in columns)
    return SimpleNamespace(estimate=float(phi_hat[0]), deltas=deltas, kappas=kappas,
                           gauss_ratios=ratios)


def one_row(counts, params, domain=DEFAULT_DOMAIN, betas=BETAS):
    """The report_counts report of one tally."""
    report = report_counts(np.asarray(counts)[np.newaxis], params, domain, betas)
    return row_report(report.phi_hat, report[2:5], betas)


def expected_counts(shots, phase, v=0.95):
    """A tally of `shots` as close to its expectation at (phase, v) as whole
    counts allow."""
    probs = outcome_probs(phase, ModelParams(v))
    counts = np.floor(shots * probs).astype(np.int64)
    counts[np.argmax(probs)] += shots - int(counts.sum())
    return counts


def dense_reference(counts, v, lower=0.0, upper=L, betas=BETAS, scan=2 ** 16, panels=1000):
    """phi_hat and Delta_beta of one tally by brute force, sharing no code
    with gcrb.  The log likelihood is taken relative to the best of `scan`
    nodes, in log1p form written out per setting, and integrated by
    composite 16-node Gauss-Legendre rules of `panels` panels over every run
    of nodes within 120 nats of the best, padded by one node; the moments
    split each run at the mean and substitute phi = mean -+ u**2."""
    x, w = np.polynomial.legendre.leggauss(16)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    grid = np.linspace(lower, upper, scan)
    loglik = np.zeros(scan)
    for k, c in enumerate(counts):
        if c:
            with np.errstate(divide="ignore"):
                loglik = loglik + c * np.log(0.25 * (1.0 + v * np.cos(k * PI / 2.0 - 2.0 * grid)))
    ref = grid[np.argmax(loglik)]
    edges = np.flatnonzero(np.diff(np.r_[0, (loglik >= loglik.max() - 120.0).astype(int), 0]))
    runs = [(grid[max(a - 1, 0)], grid[min(b, scan - 1)]) for a, b in zip(edges[::2], edges[1::2])]

    def density(phi):
        # cos(a - 2 phi) - cos(a - 2 ref) = 2 sin(a - phi - ref) sin(phi - ref)
        out = np.zeros(phi.shape)
        for k, c in enumerate(counts):
            if c:
                arg = k * PI / 2.0 - 2.0 * ref
                diff = 2.0 * np.sin(arg - (phi - ref)) * np.sin(phi - ref)
                with np.errstate(divide="ignore"):
                    out += c * np.log1p(np.maximum(v * diff / (1.0 + v * math.cos(arg)), -1.0))
        return np.exp(out)

    def rule(a, b):
        t = np.linspace(a, b, panels + 1)
        h = np.diff(t)[:, np.newaxis]
        return (t[:-1, np.newaxis] + h * x).ravel(), (h * w).ravel()

    norm = first = 0.0
    for a, b in runs:
        phi, wt = rule(a, b)
        mass = wt * density(phi)
        norm += mass.sum()
        first += (mass * (phi - ref)).sum()
    mean = ref + first / norm
    deltas = np.zeros(len(betas))
    for a, b in runs:
        for sign, near, far in ((-1.0, mean - b, mean - a), (1.0, a - mean, b - mean)):
            if far > 0.0:
                u, wt = rule(math.sqrt(max(near, 0.0)), math.sqrt(far))
                mass = wt * 2.0 * u * density(mean + sign * u * u)
                deltas += [(mass * u ** (2.0 * b)).sum() for b in betas]
    return mean, deltas / norm


def test_phase_domain_validation():
    with pytest.raises(ValueError):
        PhaseDomain(1.0, 0.5)
    with pytest.raises(ValueError):
        PhaseDomain(0.0, PI + 0.1)
    assert PhaseDomain(0.0, L).width == L


def test_phase_domain_endpoints_are_real_and_stored_as_floats():
    # a bool is not an endpoint; numpy reals are, and are stored as floats
    for ends in ((False, True), (0.0, True), (np.False_, 1.0), ("0", 1.0)):
        with pytest.raises(ValueError):
            PhaseDomain(*ends)
    d = PhaseDomain(np.int64(0), np.float32(0.5))
    assert (type(d.lower), type(d.upper)) == (float, float)
    assert (d.lower, d.upper) == (0.0, 0.5)


def test_moments_are_positive_up_to_2_53_shots():
    # the engine's output contract: every Delta_beta, kappa_beta and
    # Gaussianity ratio is finite and positive, however narrow the
    # posterior.  The grid engine gave Delta_4 < 0 from 1e7 shots on
    shots = [10 ** k for k in range(3, 16)] + [2 ** 52, 2 ** 53]
    for phase in (0.6, PI / 8.0, 1e-3):
        counts = np.array([expected_counts(m, phase) for m in shots])
        for v in (0.95, 0.99, 1.0):
            report = report_counts(counts, ModelParams(v))
            assert report.feasible.all()
            for column in report[2:5]:
                assert np.isfinite(column).all() and (column > 0.0).all(), (phase, v)
            if v == 0.95 and phase > 0.1:
                # the Gaussian limit, each order within 1e-6 from 1e7 shots on
                big = np.array(shots) >= 10 ** 7
                assert np.abs(report.kappas[big, 1] - 1.0).max() < 1e-6
                assert np.abs(report.gauss_ratios[big] - 1.0).max() < 1e-6


def test_moments_match_a_dense_reference():
    # interior phases, phases within 1e-3 of both domain ends and the
    # two-lobed posteriors around pi/4 (v_est > v_true), with M from 0 to
    # 1e6, at three visibilities; two rows whose posterior has two lobes: a
    # single rule across both misses 2.2e-5, and a Newton MAP with a +-12 sd
    # interval 97%; two lobes with a far shoulder, which rules of 32 nodes
    # either side of the peak and of 48 in the moments' outer segments
    # missed by 1e-7 and 3e-10; and two lobes split by the zero of p_3 at
    # pi/4, whose phi_hat lies in the valley between them, 3.7e-9 off with
    # 16 nodes from the peak to phi_hat
    rng = np.random.default_rng(71)
    phases = (0.6, 1e-3, L - 1e-3, PI / 4.0, PI / 4.0 + 0.01, PI / 4.0 - 0.03)
    tallies = [rng.multinomial(m, outcome_probs(phase, ModelParams(0.95)))
               for m in (0, 30, 2000, 10 ** 6) for phase in phases]
    tallies += [(259, 512, 261, 13), (580, 1098, 570, 32), (464, 893, 447, 17),
                (1110, 2076, 1140, 61), (336, 608, 335, 14)]
    counts = np.array(tallies)
    orders = _moment_orders(BETAS)
    for v in (0.95, 0.985, 0.99, 0.995, 1.0):
        feasible, phi_hat, deltas = _evaluate_counts(counts, ModelParams(v), DEFAULT_DOMAIN,
                                                     orders)
        assert feasible.all()
        for row, tally in enumerate(tallies):
            mean, want = dense_reference(tally, v)
            assert abs(phi_hat[row] - mean) <= 1e-12, (v, tally)
            assert np.abs(deltas[row] / want - 1.0).max() <= 1e-10, (v, tally)


def test_mirrored_counts_give_the_mirrored_posterior():
    # phi -> pi/2 - phi swaps p_0 and p_2 and keeps p_1 and p_3
    rng = np.random.default_rng(12)
    phases = (0.6, 1e-3, L - 1e-3, PI / 4.0, PI / 4.0 + 0.01, PI / 4.0 - 0.03)
    counts = np.array([rng.multinomial(m, outcome_probs(phase, ModelParams(0.95)))
                       for m in (0, 30, 2000, 10 ** 6) for phase in phases])
    for v in (0.95, 0.995, 1.0):
        report = report_counts(counts, ModelParams(v))
        mirror = report_counts(counts[:, [2, 1, 0, 3]], ModelParams(v))
        assert np.abs(mirror.phi_hat - (L - report.phi_hat)).max() <= 1e-12
        assert np.abs(mirror.deltas / report.deltas - 1.0).max() <= 1e-12


def test_empty_tally_gives_flat_posterior():
    # a flat posterior on [0, pi/2]: phi_hat = pi/4 and
    # Delta_beta = (pi/4)**beta / (beta + 1), at every visibility
    for v in (0.0, 0.95, 1.0):
        report = one_row((0, 0, 0, 0), ModelParams(v))
        assert report.estimate == pytest.approx(PI / 4.0, rel=1e-15)
        for b, value in report.deltas.items():
            assert value == pytest.approx((PI / 4.0) ** b / (b + 1.0), rel=1e-13)


def test_concentrated_tally_peaks_at_boundary():
    # p(theta_0 | phi)**500 = cos(phi)**1000 / 2**500 at v = 1: a posterior
    # cut at its mode phi = 0, about a half-normal of sd 1/sqrt(1000)
    report = one_row((500, 0, 0, 0), ModelParams(1.0))
    sigma = 1.0 / math.sqrt(1000.0)
    assert report.estimate == pytest.approx(sigma * math.sqrt(2.0 / PI), rel=2e-3)
    mean, want = dense_reference((500, 0, 0, 0), 1.0)
    assert report.estimate == pytest.approx(mean, abs=1e-12)
    for b, value in zip(BETAS, want):
        assert report.deltas[b] == pytest.approx(value, rel=1e-10)


def test_posterior_normalization_for_random_tallies():
    # phi_hat and Delta_2 of normalised posteriors: random tallies and
    # visibilities against the dense reference
    rng = np.random.default_rng(23)
    for _ in range(30):
        counts = rng.integers(0, 600, size=4)
        v = float(rng.uniform(0.9, 1.0))
        report = one_row(counts, ModelParams(v), betas=(2.0,))
        mean, (want,) = dense_reference(counts, v, betas=(2.0,))
        assert report.estimate == pytest.approx(mean, abs=1e-12)
        assert report.deltas[2.0] == pytest.approx(want, rel=1e-10)


def test_block_posterior_masks_infeasible_rows():
    # counts whose log likelihood overflows to -inf at every node are
    # impossible everywhere: the row is masked instead of raising for the
    # block, and the other rows equal their one-row results
    tallies = [(3, 0, 0, 0), (1e308,) * 4, (0, 0, 0, 0)]
    params = ModelParams(1.0)
    with np.errstate(over="ignore"):
        feasible, phi_hat, deltas = _evaluate_counts(np.array(tallies), params,
                                                     DEFAULT_DOMAIN, BETAS)
    assert feasible.tolist() == [True, False, True]
    assert np.isnan(phi_hat[1]) and np.isnan(deltas[1]).all()
    for row in (0, 2):
        alone = _evaluate_counts(np.array(tallies[row:row + 1]), params, DEFAULT_DOMAIN, BETAS)
        assert alone[1][0] == phi_hat[row]
        assert np.array_equal(alone[2][0], deltas[row])


def test_block_rows_with_disjoint_supports_match_blocks_of_one():
    # narrow posteriors at 0.2 and 1.3, one pinned at the edge phase 0 and
    # one infeasible row in one block: each row has the bits of its block of one
    rng = np.random.default_rng(3)
    params = ModelParams(0.95)
    tallies = [rng.multinomial(10 ** 6, outcome_probs(phase, params)) for phase in (0.2, 1.3, 0.0)]
    counts = np.array(tallies + [[1e308] * 4], dtype=float)
    with np.errstate(over="ignore"):
        feasible, phi_hat, deltas = _evaluate_counts(counts, params, DEFAULT_DOMAIN, BETAS)
        assert feasible.tolist() == [True, True, True, False]
        for row in range(4):
            alone = _evaluate_counts(counts[row:row + 1], params, DEFAULT_DOMAIN, BETAS)
            for got, want in zip((feasible, phi_hat, deltas), alone):
                assert got[row:row + 1].tobytes() == want.tobytes(), row


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


def test_rows_of_every_piece_layout_match_their_one_row_calls():
    # M from 30 to 1e8 at phases that put pieces against the domain ends,
    # cut and uncut pieces, two-lobed rows, an empty tally and a row
    # infeasible at v = 1, shuffled and tiled into more rows than one batch
    # holds: each row of one evaluator call has the bits of its one-row call
    rng = np.random.default_rng(41)
    phases = (0.0, 1e-3, L - 1e-4, 0.6, PI / 4.0)
    tallies = [rng.multinomial(int(m), outcome_probs(phase, ModelParams(0.98)))
               for m in (30, 300, 3e3, 3e4, 3e5, 3e6, 1e8) for phase in phases]
    counts = np.array(tallies + [[259, 512, 261, 13], [0, 0, 0, 0], [1e308] * 4],
                      dtype=float)[rng.permutation(38)]
    params, orders = ModelParams(1.0), _moment_orders(BETAS)
    copies = _BATCH_ROWS // 38 + 1
    with np.errstate(over="ignore"):
        feasible, row, _, end, _ = _split(counts, params, DEFAULT_DOMAIN)
        points = _split_points(counts, params, DEFAULT_DOMAIN)
        _, two, _, _, _ = _split(counts, ModelParams(0.995), DEFAULT_DOMAIN)
        ok, phi_hat, deltas = _evaluate_counts(np.tile(counts, (copies, 1)), params,
                                               DEFAULT_DOMAIN, orders)
    assert ok.tolist() == np.tile(feasible, copies).tolist() and feasible.sum() == 37
    # pieces cut short of their far split point and pieces that reach it,
    # and a row of two lobes, four pieces, at v = 0.995
    cut = np.array([e not in points[r] for r, e in zip(row, end)])
    assert cut.any() and not cut.all()
    assert np.bincount(two).max() >= 4
    for i in range(38):
        with np.errstate(over="ignore"):
            alone = _evaluate_counts(counts[i:i + 1], params, DEFAULT_DOMAIN, orders)
        for got, want in zip((ok, phi_hat, deltas), alone):
            for copy in range(copies):
                assert got[38 * copy + i:38 * copy + i + 1].tobytes() == want.tobytes(), i


def ingest_recipe(seed, rows=200):
    """The counts of the benchmark's ingest recipe: phases uniform on
    [0, pi/2], M log-uniform in [1e3, 1e6], v_true = 0.95."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, L, rows)
    shots = np.rint(10.0 ** rng.uniform(3.0, 6.0, rows)).astype(np.int64)
    probs = outcome_probs(phases, ModelParams(0.95)).T
    return np.stack([rng.multinomial(m, p) for m, p in zip(shots, probs)])


@pytest.mark.parametrize("v_est", [0.9, 0.935, 1.0])
def test_report_rows_match_one_row_and_repeated_calls(v_est):
    # every column of a row has the bits of the row alone, and of each copy
    # in the table of every row repeated 21 times: kappa_beta of 12 to 17
    # rows used to differ there, through f_alpha taken with broadcast orders
    counts, params = ingest_recipe(11), ModelParams(v_est)
    report = report_counts(counts, params)
    repeated = report_counts(np.repeat(counts, 21, axis=0), params)
    for row in range(len(counts)):
        alone = report_counts(counts[row:row + 1], params)
        for got, copies, want in zip(report[:5], repeated[:5], alone[:5]):
            assert got[row:row + 1].tobytes() == want.tobytes(), row
            copies = copies[21 * row:21 * row + 21]
            assert copies.tobytes() == np.repeat(want, 21, axis=0).tobytes(), row


def lobed_rows():
    """700 tallies at pi/4 (v = 0.95, M from 100 to 1e5), whose posteriors at
    v_est 0.99 have several lobes, and those parameters and orders."""
    rng = np.random.default_rng(43)
    probs = outcome_probs(PI / 4.0, ModelParams(0.95))
    counts = np.array([rng.multinomial(m, probs) for m in rng.integers(100, 10 ** 5, 700)])
    return counts, ModelParams(0.99), _moment_orders(BETAS)


def test_pooled_buffers_are_written_before_they_are_read():
    # the evaluator's pooled buffers, filled with nan before each call, and
    # a smaller call between two larger ones, so that it works on views of
    # buffers grown for more rows: each call has the bits of the same call
    # on an empty pool
    big, params, orders = lobed_rows()
    small = big[np.random.default_rng(44).permutation(700)[:37]]
    assert np.bincount(_split(big, params, DEFAULT_DOMAIN)[1]).max() >= 4
    calls = (big, small, big)
    want = []
    for counts in calls:
        _pool.__dict__.clear()
        want.append(_evaluate_counts(counts, params, DEFAULT_DOMAIN, orders))
    _pool.__dict__.clear()
    for counts, alone in zip(calls, want):
        for buffer in _pool.__dict__.values():
            buffer.fill(np.nan)
        got = _evaluate_counts(counts, params, DEFAULT_DOMAIN, orders)
        assert _pool.__dict__
        for a, b in zip(got, alone):
            assert a.tobytes() == b.tobytes()


def test_rows_of_many_piece_batches_match_their_one_row_calls():
    # batches of more than 683 pieces, whose (pieces, 48) temporaries reach
    # 256 KiB: numpy computes a * b in place of such a temporary a, so a
    # column-major a, as an indexed (pieces, 1) column gives, summed each
    # row in another order than a one-row call does
    counts, params, orders = lobed_rows()
    assert _split(counts[:_BATCH_ROWS], params, DEFAULT_DOMAIN)[1].size > 683
    ok, phi_hat, deltas = _evaluate_counts(counts, params, DEFAULT_DOMAIN, orders)
    for row in range(0, 700, 7):
        alone = _evaluate_counts(counts[row:row + 1], params, DEFAULT_DOMAIN, orders)
        for got, want in zip((ok, phi_hat, deltas), alone):
            assert got[row:row + 1].tobytes() == want.tobytes(), row


def test_threads_evaluate_on_pools_of_their_own():
    # four threads switching often, each evaluating rows of several lobes
    # at its own v_est: each result has the bits of the same call made alone
    counts, _, orders = lobed_rows()
    params = [ModelParams(v) for v in (0.97, 0.98, 0.99, 1.0)]
    want = [_evaluate_counts(counts, p, DEFAULT_DOMAIN, orders) for p in params]
    got = [[] for _ in params]

    def work(i):
        for _ in range(3):
            got[i].append(_evaluate_counts(counts, params[i], DEFAULT_DOMAIN, orders))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(params))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results, alone in zip(got, want):
        assert len(results) == 3
        for result in results:
            for a, b in zip(result, alone):
                assert a.tobytes() == b.tobytes()


def test_block_reports_leave_infeasible_rows_nan():
    # an infeasible row's nan phi_hat stays out of the f_alpha evaluation
    # (a nan phase is rejected there); its cells are nan and its
    # blockmate's equal their one-row report
    params = ModelParams(0.95)
    counts = np.array([[900, 400, 100, 600], [1e308] * 4])
    orders = _moment_orders(BETAS)
    with np.errstate(over="ignore"):
        feasible, phi_hat, moments = _evaluate_counts(counts, params, DEFAULT_DOMAIN, orders)
    assert feasible.tolist() == [True, False]
    shots = np.array([2000.0, 2000.0])
    columns = _reports(phi_hat, moments, shots, params, BETAS)
    alone = _reports(phi_hat[:1], moments[:1], shots[:1], params, BETAS)
    for got, want in zip(columns, alone):
        assert np.isnan(got[1]).all()
        assert got[:1].tobytes() == want.tobytes()
    # report_counts is the same chain, each row's shots its count sum: the
    # infeasible row is flagged and nan throughout.  It takes counts up to
    # 2**53 only, so its infeasible row counts setting 2, which v = 1 makes
    # impossible wherever cos 2phi rounds to 1, here on the whole domain
    params, domain = ModelParams(1.0), PhaseDomain(0.0, 1e-9)
    counts = np.array([[900, 400, 0, 600], [900, 400, 1, 600]])
    feasible, phi_hat, moments = _evaluate_counts(counts, params, domain, orders)
    columns = _reports(phi_hat, moments, counts.sum(axis=1).astype(float), params, BETAS)
    report = report_counts(counts, params, domain, BETAS)
    assert report.feasible.tolist() == [True, False]
    assert report.phi_hat.tobytes() == phi_hat.tobytes() and np.isnan(report.phi_hat[1])
    for got, want in zip(report[2:5], columns):
        assert got.tobytes() == want.tobytes()


def test_densities_beyond_the_floor_are_exactly_zero():
    # the pieces of a row cover its live points, those within 100 nats of
    # its peak, and no point more than _CUT_SLACK * _CUT_DROP nats below it:
    # points beyond the cuts carry no density.  A wide, a narrow and a
    # two-lobed row share one block
    params = ModelParams(0.995)
    grid = np.linspace(0.0, L, 2 ** 16)
    logp = np.log(outcome_probs(grid, params))
    rng = np.random.default_rng(6)
    counts = np.array([rng.multinomial(m, outcome_probs(phase, ModelParams(0.95)))
                       for m, phase in ((2000, PI / 8.0), (10 ** 5, 0.5))]
                      + [[580, 1098, 570, 32]])
    _, row, ref, end, _ = _split(counts.astype(float), params, DEFAULT_DOMAIN)
    # each lobe is two pieces, split at its peak
    assert np.bincount(row).tolist() == [2, 2, 4]
    for i, tally in enumerate(counts):
        log_post = tally @ logp
        log_post -= log_post.max()
        covered = np.zeros(grid.size, dtype=bool)
        for a, b in zip(np.minimum(ref, end)[row == i], np.maximum(ref, end)[row == i]):
            covered |= (grid >= a) & (grid <= b)
        assert not ((log_post >= -100.0) & ~covered).any()
        assert log_post[covered].min() >= -_CUT_DROP * _CUT_SLACK - 1e-6


def test_split_points_hold_every_local_maximum():
    # log L is monotone between split points, so every local maximum of a
    # dense scan lies within one scan spacing of a split point: random
    # tallies, and the three rows of lobes split by the zero of p_3 at pi/4
    grid = np.linspace(0.0, L, 2 ** 16)
    rng = np.random.default_rng(19)
    cases = [(rng.integers(0, 600, size=4), v) for v in (0.95, 1.0) for _ in range(40)]
    cases += [((336, 608, 335, 14), 1.0), ((554, 597, 556, 268), 0.967),
              ((259, 512, 261, 13), 1.0)]
    for tally, v in cases:
        points = _split_points(np.array([tally], dtype=float), ModelParams(v), DEFAULT_DOMAIN)[0]
        probs = outcome_probs(grid, ModelParams(v))
        with np.errstate(divide="ignore"):
            log_post = sum(c * np.log(p) for c, p in zip(tally, probs) if c)
        rises = np.r_[True, log_post[1:] > log_post[:-1]]
        falls = np.r_[log_post[:-1] > log_post[1:], True]
        peaks = grid[rises & falls & np.isfinite(log_post)]
        assert peaks.size
        gaps = np.abs(peaks[:, np.newaxis] - points).min(axis=1)
        assert (gaps <= grid[1]).all(), (tally, v)


def test_estimate_of_symmetric_peak():
    # c_0 = c_2 makes the likelihood symmetric about pi/4; the second tally's
    # two lobes, 0.37 rad apart, balance there to the 1e-13 of their masses
    for counts in ((700, 300, 700, 100), (700, 100, 700, 300), (5, 0, 5, 0)):
        assert one_row(counts, ModelParams(0.95)).estimate == pytest.approx(PI / 4.0, abs=1e-13)


def test_estimate_of_simulated_experiment_is_consistent():
    tally = draw_tallies(PI / 8.0, 0.95, 2000, 1, [0])[0]
    f_max = 2.0 * 0.95 ** 2 / (1.0 - 0.95 ** 2 / 2.0)
    estimate = one_row(tally, ModelParams(0.95), betas=(2.0,)).estimate
    assert abs(estimate - PI / 8.0) <= 3.0 / math.sqrt(2000.0 * f_max)


def test_uniform_moments():
    deltas = one_row((0, 0, 0, 0), ModelParams(0.95), betas=(2.0, 1.0)).deltas
    assert deltas[2.0] == pytest.approx(L ** 2 / 12.0, rel=1e-13)
    assert deltas[1.0] == pytest.approx(L / 4.0, rel=1e-13)


def test_gaussian_third_moment():
    # the Gaussian limit: Delta_3 = 2 sqrt(2/pi) sigma**3 with sigma**2 = Delta_2
    deltas = one_row(expected_counts(10 ** 10, PI / 8.0), ModelParams(0.95)).deltas
    want = 2.0 * math.sqrt(2.0 / PI) * deltas[2.0] ** 1.5
    assert deltas[3.0] == pytest.approx(want, rel=1e-4)


def test_moment_set_matches_absolute_moment():
    # each order computed alone agrees with the set sharing one rule
    tally = draw_tallies(0.4, 0.95, 2000, 7, [0])[0]
    ms = one_row(tally, ModelParams(0.95))
    for b, value in ms.deltas.items():
        alone = one_row(tally, ModelParams(0.95), betas=(b,))
        assert value == pytest.approx(alone.deltas[b], rel=1e-12)
        assert alone.estimate == ms.estimate


def test_absolute_moment_validates_order():
    tally = (0, 0, 0, 0)
    with pytest.raises(ValueError):
        one_row(tally, ModelParams(0.95), betas=(2.0, 0.5))
    # a bool is not an order, alone or among floats; numpy reals, integers
    # included, are
    for bad in ([True], [np.True_], (1.5, True), (1.5, np.True_)):
        with pytest.raises(ValueError):
            one_row(tally, ModelParams(0.95), betas=bad)
    assert (one_row(tally, ModelParams(0.95), betas=np.array([2, 3])).deltas
            == one_row(tally, ModelParams(0.95), betas=(2.0, 3.0)).deltas)


def test_grid_refinement_convergence():
    # no grid sets the resolution: from a flat posterior to one of 10**8
    # shots, about 1e-4 wide, the results match the dense reference
    params = ModelParams(0.95)
    counts = np.concatenate([draw_tallies(PI / 8.0, 0.95, m, 42, [0])
                             for m in (0, 30, 2000, 18000, 10 ** 6, 10 ** 8)])
    report = report_counts(counts, params)
    for row, tally in enumerate(counts):
        mean, want = dense_reference(tally, 0.95)
        assert abs(report.phi_hat[row] - mean) <= 1e-12
        assert np.abs(report.deltas[row] / want - 1.0).max() <= 1e-10


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
    for bad in (True, np.True_, [2.0, True], (2.0, np.True_)):
        with pytest.raises(ValueError):
            gaussian_abs_moment(bad, 1.0)
    # Gamma((beta + 1) / 2) leaves float range above MAX_GAUSSIAN_ORDER, where
    # math.gamma used to raise OverflowError; a campaign's window takes twice
    # each order, whose moment underflows at the largest: that order is undefined
    assert math.isfinite(math.gamma((MAX_GAUSSIAN_ORDER + 1.0) / 2.0))
    beyond = math.nextafter(MAX_GAUSSIAN_ORDER, math.inf)
    assert gaussian_abs_moment(MAX_GAUSSIAN_ORDER, 0.01) == 0.0
    campaign = dict(phase_true=0.4, v_true=0.95, v_est=0.95, n_experiments=1)
    assert run_campaign(CampaignConfig(**campaign, beta_list=(MAX_GAUSSIAN_ORDER / 2.0,))
                        ).defined.tolist() == [False]
    for call, largest in (
            (lambda: gaussian_abs_moment(beyond, 0.01), MAX_GAUSSIAN_ORDER),
            (lambda: gaussian_abs_moment([2.0, 400.0], 0.01), MAX_GAUSSIAN_ORDER),
            (lambda: report_counts([[1, 2, 3, 4]], ModelParams(0.95), betas=(2.0, beyond)),
             MAX_GAUSSIAN_ORDER),
            (lambda: CampaignConfig(**campaign, beta_list=(beyond / 2.0,)),
             MAX_GAUSSIAN_ORDER / 2.0)):
        with pytest.raises(ValueError, match=rf"moment order must be .* in \[1, {largest}\]"):
            call()


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
    # kappa_beta is Delta_beta over the order bound (`_ratio`)
    bound = order_bound(2.0, 1.805, 2000)
    assert _ratio(1.0 / (2000.0 * 1.805), bound) == pytest.approx(1.0, rel=1e-12)
    assert _ratio(2.0 / (2000.0 * 1.805), bound) == pytest.approx(2.0, rel=1e-12)
    # analyze passes float shot counts
    assert order_bound(2.0, np.array([1.805]), np.array([2000.0])).tolist() == [bound]
    for shots in (0, 1.5, np.array([2000.0, 0.5])):
        with pytest.raises(ValueError):
            order_bound(2.0, 1.805, shots)
    for bad in (True, np.True_, "1", None, [1.805, True], 10 ** 400, math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="generalized Fisher information"):
            order_bound(2.0, bad, 2000)
    # a nan moment, an infeasible row's, gives a nan ratio
    assert math.isnan(_ratio(math.nan, bound))
    assert np.isnan(_ratio(np.array([1e-4, math.nan]), bound)).tolist() == [False, True]
    # a bound below the smallest normal float or past float range, and a
    # ratio that overflows, give nan and no RuntimeWarning
    assert order_bound(300.0, 3.0, 2000) == 0.0
    assert math.isnan(_ratio(1e-57, order_bound(300.0, 3.0, 2000)))
    assert math.isnan(_ratio(1e-310, TINY / 4.0))
    assert math.isnan(_ratio(1e-57, order_bound(300.0, 1e-300, 1)))
    assert math.isnan(_ratio(1e300, order_bound(40.0, 1.0, 1e10)))
    assert _ratio(1e-57, order_bound(100.0, 3.0, 2000)) == 1e-57 / order_bound(100.0, 3.0, 2000)


def test_bool_shot_counts_are_rejected():
    with pytest.raises(ValueError):
        order_bound(2.0, np.array([1.8]), np.array([True]))
    with pytest.raises(ValueError):
        CampaignConfig(phase_true=0.4, v_true=0.95, v_est=0.95, shots=True)
    with pytest.raises(ValueError):
        order_bound(2.0, 1.8, True)


def test_gaussianity_ratios():
    ratios = one_row(expected_counts(10 ** 8, 0.5), ModelParams(0.95)).gauss_ratios
    assert ratios[3.0] == pytest.approx(1.0, abs=1e-6)
    assert ratios[4.0] == pytest.approx(1.0, abs=1e-6)
    # a flat posterior: Delta_4 / (3 Delta_2**2) = (1/5) / (3/9) = 0.6
    uniform = one_row((0, 0, 0, 0), ModelParams(0.95), betas=(4.0,))
    assert uniform.gauss_ratios[4.0] == pytest.approx(0.6, rel=1e-13)


def test_degenerate_posterior_rejected():
    # a posterior without spread has no Gaussian reference: its ratios are nan
    orders = _moment_orders((2.0, 3.0, 4.0))
    moments = np.array([[0.0, 0.0, 0.0]])
    _, _, ratios = _reports(np.array([0.5]), moments, np.array([2000.0]),
                            ModelParams(0.95), (2.0, 3.0, 4.0))
    assert orders.tolist() == [2.0, 3.0, 4.0]
    assert np.isnan(ratios).all()


def test_saturation_report_shape():
    tally = draw_tallies(PI / 8.0, 0.95, 2000, 9, [4])[0]
    table = report_counts(np.array([tally, tally]), ModelParams(0.95))
    assert table.feasible.shape == table.phi_hat.shape == (2,)
    assert table.deltas.shape == table.kappas.shape == table.gauss_ratios.shape == (2, 4)
    with pytest.raises(ValueError, match=r"\(E, 4\) table"):
        report_counts(tally, ModelParams(0.95))
    # every count is checked: a negative count used to give a feasible row,
    # one above 2**53 negative deltas, nan and bools passed and strings
    # raised a TypeError
    for bad in ([[-5, 10, 10, 10]], [[2 ** 60, 1, 1, 1]], [[math.nan, 1, 1, 1]],
                np.ones((1, 4), dtype=bool), [[True, 1, 1, 1]], [["5", "1", "1", "1"]],
                [[10 ** 400, 1, 1, 1]], [[1.5, 1, 1, 1]], [[np.True_, 1, 1, 1]],
                [[None, 1, 1, 1]], [[1 + 0j, 1, 1, 1]]):
        with pytest.raises(ValueError, match="counts must be"):
            report_counts(bad, ModelParams(0.95))
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
    assert all(math.isnan(k) for k in one_row((0, 0, 0, 0), ModelParams(0.95)).kappas.values())
    tally = draw_tallies(0.5, 0.95, 2000, 3, [1])[0]
    flat = one_row(tally, ModelParams(0.0))
    assert all(math.isnan(k) for k in flat.kappas.values())
    mixed = one_row(tally, ModelParams(0.95), betas=(1.0, 2.0))
    assert math.isnan(mixed.kappas[1.0])
    assert math.isfinite(mixed.kappas[2.0])


