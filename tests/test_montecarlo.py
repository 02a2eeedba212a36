import dataclasses
import math

import numpy as np
import pytest

import gcrb.montecarlo as mc
from gcrb.bayes import CountsReport, PhaseDomain, gaussian_abs_moment, report_counts
from gcrb.errors import UndefinedRatioError
from gcrb.fisher import conjugate_exponent, generalized_fisher, order_bound
from gcrb.model import ModelParams, outcome_probs
from gcrb.montecarlo import (
    CampaignConfig,
    campaign_tallies,
    draw_tallies,
    run_campaign,
    run_experiment,
    sigma_beta,
)

PI = math.pi


# the per-row columns of a campaign's report; `defined` is one per order
ROW_FIELDS = tuple(name for name in CountsReport._fields if name != "defined")


def assert_row_identical(table, i, row):
    """Row i of table equals the one-row table row bit for bit, nan included,
    and both have the same defined orders."""
    assert table.defined.tobytes() == row.defined.tobytes()
    for name in ROW_FIELDS:
        got, want = getattr(table, name)[i], getattr(row, name)[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, i)


def bias_and_stderr(table, phase_true):
    """Mean of (phi_hat - phase_true) over the feasible experiments and its
    standard error."""
    estimates = table.phi_hat[table.feasible]
    bias = float(estimates.mean() - phase_true)
    stderr = float(estimates.std(ddof=1) / math.sqrt(estimates.size))
    return bias, stderr


def sigma_frac(config, beta):
    """Sigma_beta of one order over the campaign of config."""
    return float(run_campaign(config).flags.mean(axis=0)[config.beta_list.index(beta)])


def small_config(**overrides):
    base = dict(
        phase_true=PI / 8.0,
        v_true=0.95,
        v_est=0.95,
        shots=2000,
        n_experiments=40,
        seed=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(v_est=1.2)
    with pytest.raises(ValueError):
        small_config(shots=0)
    with pytest.raises(ValueError):
        small_config(beta_list=(0.5, 2.0))
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(ValueError):
        small_config(violation_rule="whatever")
    # a bool is not a number of shots, experiments or a seed, nor a phase or
    # a visibility; a string is not a phase
    for bad in (dict(shots=True), dict(n_experiments=True), dict(seed=True),
                dict(v_true=True), dict(v_est=True), dict(phase_true=True),
                dict(phase_true="0.3"), dict(shots=2000.5), dict(shots=math.inf),
                dict(sigma_window=True), dict(seed=2.0 ** 64)):
        with pytest.raises(ValueError):
            small_config(**bad)
    # numpy scalars are accepted and stored as Python floats and ints
    config = small_config(phase_true=np.float32(0.5), v_true=np.float64(0.95), v_est=1,
                          shots=np.int64(2000), n_experiments=np.float64(40.0),
                          seed=np.uint64(5), sigma_window=np.int32(3))
    for name, kind in (("phase_true", float), ("v_true", float), ("v_est", float),
                       ("sigma_window", float), ("shots", int), ("n_experiments", int),
                       ("seed", int)):
        assert type(getattr(config, name)) is kind, name
    assert (config.shots, config.n_experiments, config.seed) == (2000, 40, 5)


def test_draw_tallies_zero_shots():
    tallies = draw_tallies(0.3, 0.9, 0, 0, [0, 1])
    assert tallies.tolist() == [[0, 0, 0, 0]] * 2
    assert tallies.shape == (2, 4) and tallies.dtype == np.int64
    assert draw_tallies(0.3, 0.9, np.int64(0), 0, [0]).tolist() == [[0, 0, 0, 0]]
    assert draw_tallies(0.3, 0.9, 5, 0, []).shape == (0, 4)
    # a bool is not a number of shots (True used to draw one)
    for bad in (True, False, np.True_, 2.5, -1, 10 ** 400, math.nan, math.inf, "1", None, 1 + 0j):
        with pytest.raises(ValueError):
            draw_tallies(0.3, 0.9, bad, 0, [0])
    # seeds, indices and the phases' shape are checked once per call
    for bad in (dict(seed=-1), dict(seed=2 ** 64), dict(seed=True), dict(indices=[0, -1]),
                dict(indices=0), dict(indices=[[0]]), dict(indices=[0, 1.5]),
                dict(phases=[0.3, 0.4, 0.5]), dict(phases=[[0.3, 0.4]])):
        with pytest.raises(ValueError):
            draw_tallies(**{**dict(phases=0.3, v_true=0.9, shots=10, seed=0, indices=[0, 1]),
                            **bad})


def test_draw_tallies_rows_follow_their_own_streams():
    # row i is drawn at its phase from the stream of (seed, indices[i]),
    # whichever rows share the call: numpy's generator, seeded as the module
    # notes say, is the oracle
    phases, v, shots, seed = [0.3, 1.2, 0.0, 0.7], 0.95, 2000, 11
    indices = [7, 0, 2 ** 40, 3]
    tallies = draw_tallies(phases, v, shots, seed, indices)
    for row, (phase, i) in enumerate(zip(phases, indices)):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        want = np.random.Generator(np.random.PCG64(stream)).multinomial(
            shots, outcome_probs(phase, ModelParams(v)))
        assert tallies[row].tolist() == want.tolist()
        assert draw_tallies(phase, v, shots, seed, [i]).tolist() == [want.tolist()]
        assert draw_tallies([phase], v, shots, seed, np.array([i])).tolist() == [want.tolist()]
    # one phase serves every row
    assert (draw_tallies(0.3, v, shots, seed, indices)[0] == tallies[0]).all()
    # a campaign draws experiment i from (seed, i) at phase_true with v_true
    config = small_config(n_experiments=6, seed=seed)
    want = draw_tallies(config.phase_true, config.v_true, config.shots, seed, np.arange(6))
    assert campaign_tallies(config).tolist() == want.tolist()
    # and run_experiment analyzes that row alone
    assert_row_identical(run_campaign(config, want), 4, run_experiment(config, 4))


def test_draw_tallies_never_draws_impossible_outcome():
    # at phi = 0 and v = 1 the third setting has probability zero
    tally = draw_tallies(0.0, 1.0, 1000, 1, [0])[0]
    assert tally[2] == 0
    assert tally.sum() == 1000


def test_draw_tallies_frequency_concentration():
    phi, v, shots = PI / 8.0, 0.95, 2000
    probs = outcome_probs(phi, ModelParams(v))
    tolerance = 4.0 * np.sqrt(probs * (1.0 - probs) / shots)
    good = 0
    for seed in range(1000):
        tally = draw_tallies(phi, v, shots, seed, [0])[0]
        freqs = tally / shots
        if np.all(np.abs(freqs - probs) <= tolerance):
            good += 1
    assert good >= 990


def test_sigma_beta_closed_forms():
    shots, info = 2000, 1.805
    sigma = 1.0 / math.sqrt(shots * info)
    assert sigma_beta(2.0, shots, info) == pytest.approx(math.sqrt(2.0) * sigma ** 2, rel=1e-12)
    assert sigma_beta(3.0, shots, info) == pytest.approx(
        math.sqrt(15.0 - 8.0 / PI) * sigma ** 3, rel=1e-12
    )
    # orders broadcast
    assert sigma_beta(np.array([2.0, 3.0]), shots, info).tolist() == [
        sigma_beta(2.0, shots, info), sigma_beta(3.0, shots, info)]
    # degenerate limit: the window collapses as the posterior sharpens
    assert sigma_beta(2.0, 10 ** 12, info) < sigma_beta(2.0, shots, info) * 1e-8
    with pytest.raises(ValueError):
        sigma_beta(2.0, shots, 0.0)


def test_run_experiment_is_deterministic():
    config = small_config()
    first = run_experiment(config, 7)
    second = run_experiment(config, 7)
    assert_row_identical(first, 0, second)
    assert_row_identical(run_campaign(config), 7, first)
    # an index names one of the campaign's experiments: an integer, not a
    # bool, in [0, n_experiments)
    assert_row_identical(run_experiment(config, np.int64(7)), 0, first)
    five = small_config(n_experiments=5)
    for bad in (-1, 1.5, 5, 7, True, np.True_, "1", None, 10 ** 400, math.nan, math.inf, 1 + 0j,
                [3]):
        with pytest.raises(ValueError, match="experiment_index"):
            run_experiment(five, bad)


def test_run_experiment_flags_are_recomputable():
    config = small_config(v_est=0.99)
    row = run_experiment(config, 3)
    params = ModelParams(config.v_est)
    info = generalized_fisher(2.0, config.phase_true, params)
    sigma_post = 1.0 / math.sqrt(config.shots * info)
    for k, b in enumerate(config.beta_list):
        f_alpha = generalized_fisher(conjugate_exponent(b), config.phase_true, params)
        bound = order_bound(b, f_alpha, config.shots)
        window = config.sigma_window * sigma_beta(b, config.shots, info) / math.sqrt(config.shots)
        center = gaussian_abs_moment(b, sigma_post)
        delta = row.deltas[0, k]
        expected = delta + window < bound or abs(delta - center) > window
        assert row.flags[0, k] == expected


# hand-built rule inputs, all binary fractions so that every comparison is
# exact: three orders with bounds, windows and Gaussian centres, the third
# centre below its bound, and three experiments, the last sitting exactly on
# its third window's edges
ORACLE_DELTAS = np.array([[0.75, 1.25, 0.625],
                          [1.0, 2.25, 1.0],
                          [1.25, 2.75, 0.75]])
ORACLE_FLOORS = np.array([1.0, 2.0, 1.0])
ORACLE_WINDOWS = np.array([0.125, 0.5, 0.25])
ORACLE_CENTERS = np.array([1.25, 2.0, 0.5])
ORACLE_FLAGS = {
    "below-bound": [[True, True, True],
                    [False, False, False],
                    [False, False, False]],
    "two-sided-bound": [[True, True, True],
                        [False, False, False],
                        [True, True, False]],
    "gaussian-consistency": [[True, True, False],
                             [True, False, True],
                             [False, True, False]],
    "composite": [[True, True, True],
                  [True, False, True],
                  [False, True, False]],
}


@pytest.mark.parametrize("rule", mc.VIOLATION_RULES)
def test_flag_violations_oracle(rule):
    flags = mc._flag_violations(ORACLE_DELTAS, ORACLE_FLOORS, ORACLE_WINDOWS,
                                ORACLE_CENTERS, rule)
    assert flags.tolist() == ORACLE_FLAGS[rule]


def test_posterior_sd_windows_are_standard_error_windows_times_sqrt_shots():
    config = small_config(v_est=0.99, beta_list=(1.5, 2.0, 3.0, 4.0))
    floors, windows, centers = mc._reference(config)
    sd_floors, sd_windows, sd_centers = mc._reference(
        dataclasses.replace(config, window_scale="posterior-sd"))
    assert sd_floors.tolist() == floors.tolist()
    assert sd_centers.tolist() == centers.tolist()
    assert sd_windows == pytest.approx(windows * math.sqrt(config.shots), rel=1e-15)


def test_orders_whose_reference_leaves_float_range_are_undefined():
    # from about order 85 at these settings sigma_beta's Gaussian moment of
    # twice the order underflows: that order's bound, window and centre are
    # nan, and the other orders keep the bits they have alone
    config = small_config(v_est=0.95, beta_list=(2.0, 100.0), n_experiments=4)
    assert run_campaign(config).defined.tolist() == [True, False]
    alone = mc._reference(dataclasses.replace(config, beta_list=(2.0,)))
    for column, column_alone in zip(mc._reference(config), alone):
        assert column[:1].tobytes() == column_alone.tobytes()
        assert math.isnan(column[1])
    with pytest.raises(UndefinedRatioError):
        run_campaign(dataclasses.replace(config, v_est=0.0))


def test_infeasible_experiment_counts_as_violation():
    # under v_est = 1 setting 2 is impossible wherever cos 2phi rounds to 1,
    # here on the whole domain: one row of a block that counts it is the
    # only infeasible row, flagged at every order and nan in every column
    config = small_config(v_est=1.0, n_experiments=8, domain=PhaseDomain(0.0, 1e-9))
    clean = draw_tallies(0.0, 1.0, config.shots, 3, np.arange(8))
    assert (clean[:, 2] == 0).all()
    counts = clean.copy()
    counts[3, :3] += (-1, 0, 1)
    table, clean = run_campaign(config, counts), run_campaign(config, clean)
    assert table.feasible.tolist() == [i != 3 for i in range(8)]
    assert np.isnan(table.phi_hat[3])
    for name in ("deltas", "kappas", "gauss_ratios"):
        assert np.isnan(getattr(table, name)[3]).all(), name
    assert table.flags[3].all()
    keep = table.feasible
    for name in ROW_FIELDS[1:]:
        got, want = getattr(table, name)[keep], getattr(clean, name)[keep]
        assert got.tobytes() == want.tobytes(), name


def test_campaign_is_the_report_of_its_tallies():
    # a campaign and report_counts return one row table, the campaign's
    # columns the bits of report_counts on its tallies; report_counts alone
    # has no flags and no defined orders
    for betas in ((1.5, 2.0, 3.0, 4.0), (3.0, 1.5), (2.5,), (4.0, 2.0, 100.0)):
        config = small_config(v_est=0.99, beta_list=betas, n_experiments=12, seed=6)
        counts = campaign_tallies(config)
        table = run_campaign(config, counts)
        report = report_counts(counts, ModelParams(config.v_est), config.domain, betas)
        assert type(table) is type(report) is CountsReport
        assert report.flags is None and report.defined is None
        assert table.flags.shape == (12, len(betas)) and table.defined.shape == (len(betas),)
        for got, want in zip(table[:5], report[:5]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), betas


def test_campaign_blocks_match_single_experiments():
    # 37 experiments span several blocks and end in a partial one; each
    # row equals its recomputation from (seed, index) alone
    config = small_config(v_est=1.0, n_experiments=37, seed=8)
    table = run_campaign(config)
    assert table.flags.shape == (37, len(config.beta_list))
    assert table.feasible.all()
    flagged = table.flags.any(axis=1)
    assert flagged.any() and not flagged.all()
    for i in range(37):
        assert_row_identical(table, i, run_experiment(config, i))


def test_sweep_shares_one_draw_of_the_tallies():
    # tallies do not depend on v_est: a sweep draws them once, and its tables
    # equal those of campaigns that draw their own
    base = small_config(n_experiments=30, seed=9)
    counts = campaign_tallies(base)
    for v in (0.95, 0.97, 0.99):
        config = dataclasses.replace(base, v_est=v)
        shared, fresh = run_campaign(config, counts), run_campaign(config)
        assert shared.flags.tobytes() == fresh.flags.tobytes()
        assert shared.feasible.tobytes() == fresh.feasible.tobytes()


def test_campaign_on_given_tallies():
    # given tallies are outside input: checked, then analyzed as the
    # campaign's own draw would be
    config = small_config(v_est=0.97, n_experiments=12, seed=4)
    counts = campaign_tallies(config)
    assert counts.shape == (12, 4) and (counts.sum(axis=1) == config.shots).all()
    own, given = run_campaign(config), run_campaign(config, counts)
    for name in CountsReport._fields:
        got, want = getattr(given, name), getattr(own, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # integer-valued floats are counts too
    assert run_campaign(config, counts.astype(float)).flags.tobytes() == own.flags.tobytes()
    negative = counts.copy()
    negative[0, :2] = (-1, negative[0, 0] + negative[0, 1] + 1)
    fractional = counts.astype(float)
    fractional[0, :2] += (0.5, -0.5)
    with_bool = counts.tolist()
    with_bool[0][0] = True
    for bad in (counts[:-1], counts[:, :3], counts[0], np.stack([counts, counts]),
                negative, fractional, with_bool, counts.astype(bool), counts + 1,
                np.full(counts.shape, np.nan), counts.astype(str)):
        with pytest.raises(ValueError):
            run_campaign(config, bad)


def test_campaign_shots_are_capped_at_the_largest_exact_count():
    # a campaign's shots are whole numbers in [1, 2**53], draw_tallies' in
    # [0, 2**53]: at 2**60 run_campaign used to evaluate its own draw, with
    # counts near 4.8e17, which the check of given tallies rejects
    for shots in (2 ** 53 + 1, 2 ** 60, 10 ** 30, 10 ** 400, float(2 ** 60)):
        with pytest.raises(ValueError, match="shots"):
            small_config(shots=shots)
        with pytest.raises(ValueError, match="shots"):
            draw_tallies(0.4, 0.95, shots, 0, [0])
    assert draw_tallies(0.4, 0.95, 2 ** 53, 0, [0]).sum() == 2 ** 53
    # at the cap a campaign's own draw passes the check of given tallies
    config = small_config(shots=2 ** 53, n_experiments=2)
    tallies = campaign_tallies(config)
    own, given = run_campaign(config), run_campaign(config, tallies)
    assert tallies.max() > 2 ** 50 and own.feasible.all()
    assert own.flags.tobytes() == given.flags.tobytes()
    assert own.deltas.tobytes() == given.deltas.tobytes()


def test_zero_information_campaign_is_undefined():
    # v_est = 0 carries no Fisher information: the violation windows, and so
    # Sigma_beta, are undefined
    with pytest.raises(UndefinedRatioError):
        run_campaign(small_config(v_est=0.0, n_experiments=3))


def test_violation_fractions_deterministic_and_exact():
    config = small_config(v_est=1.0, n_experiments=25)
    flags_a = run_campaign(config).flags
    flags_b = run_campaign(config).flags
    assert np.array_equal(flags_a, flags_b)
    for frac, count in zip(flags_a.mean(axis=0).tolist(), flags_a.sum(axis=0).tolist()):
        assert 0.0 <= frac <= 1.0
        assert frac == count / config.n_experiments


def test_campaign_unbiased_at_true_visibility():
    config = small_config(n_experiments=100, seed=2)
    bias, stderr = bias_and_stderr(run_campaign(config), config.phase_true)
    assert abs(bias) < 3.0 * stderr + 1e-12


def test_campaign_biased_under_miscalibration():
    config = small_config(
        phase_true=3.0 * PI / 16.0, v_true=0.95, v_est=0.90, n_experiments=100, seed=2
    )
    bias, stderr = bias_and_stderr(run_campaign(config), config.phase_true)
    assert abs(bias) > 3.0 * stderr


def test_violation_trend_with_overestimated_visibility():
    # averaged over seeds, Sigma_2 grows when the assumed visibility is too
    # high, and violations concentrate where the information is minimal
    for phase in (PI / 8.0, 3.0 * PI / 16.0, PI / 4.0):
        at_truth = 0.0
        at_one = 0.0
        for seed in range(5):
            cfg = small_config(phase_true=phase, n_experiments=150, seed=seed)
            at_truth += sigma_frac(cfg, 2.0)
            at_one += sigma_frac(dataclasses.replace(cfg, v_est=1.0), 2.0)
        assert at_one >= at_truth


def test_violations_prefer_low_information_phase():
    low_info = 0.0
    high_info = 0.0
    for seed in range(5):
        low_info += sigma_frac(
            small_config(phase_true=PI / 4.0, v_est=0.99, n_experiments=150, seed=seed), 2.0)
        high_info += sigma_frac(
            small_config(phase_true=PI / 8.0, v_est=0.99, n_experiments=150, seed=seed), 2.0)
    assert low_info >= high_info
