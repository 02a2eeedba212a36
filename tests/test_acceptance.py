"""Acceptance suite.

Each numbered criterion prints one PASS/FAIL line (run with ``pytest -s`` to
see them inline) and asserts at its stated tolerance.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from gcrb.bayes import (
    DEFAULT_DOMAIN,
    gaussian_abs_moment,
    kappa,
    report_counts,
)
from gcrb.fisher import conjugate_exponent, generalized_fisher, order_bound
from gcrb.ingest import CountsTable, parse_counts, write_counts
from gcrb.model import ModelParams, outcome_dprobs, outcome_probs
from gcrb.montecarlo import (
    CampaignConfig,
    campaign_tallies,
    draw_tallies,
    run_campaign,
    sigma_beta,
)

PI = math.pi
PHASES = {"pi/8": PI / 8.0, "3pi/16": 3.0 * PI / 16.0, "pi/4": PI / 4.0}
BETAS = (1.5, 2.0, 3.0, 4.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} [{detail}]", flush=True)
    assert ok, f"criterion {name} failed: {detail}"


# --- criterion 1: Fisher information anchors ---------------------------------

def direct_fisher_sum(phi, v):
    total = 0.0
    for k in range(4):
        theta = k * PI / 16.0
        p = 0.25 * (1.0 + v * math.cos(8.0 * theta - 2.0 * phi))
        dp = 0.5 * v * math.sin(8.0 * theta - 2.0 * phi)
        if p > 0.0:
            total += dp * dp / p
    return total


def test_criterion_1_fisher_anchors():
    params = ModelParams(0.95)
    ok = True
    details = []
    for phi, anchor in ((PI / 4.0, 1.805), (PI / 8.0, 3.2893)):
        got = generalized_fisher(2.0, phi, params)
        oracle = direct_fisher_sum(phi, 0.95)
        ok &= abs(got - oracle) <= 1e-9 * oracle
        ok &= abs(got - anchor) <= 1e-4 * anchor
        details.append(f"F({phi:.4f})={got:.6f}")
    rng = np.random.default_rng(20240808)
    unit = ModelParams(1.0)
    worst = max(abs(generalized_fisher(2.0, float(p), unit) - 4.0)
                for p in rng.uniform(0.0, PI / 2.0, 100))
    ok &= worst <= 4e-6
    report("1", ok, f"{', '.join(details)}, max |F(v=1)-4| = {worst:.2e}")


# --- criterion 2: posterior oracle equivalence --------------------------------

def oracle_posterior_moments(tally, v, domain, n_points, betas):
    """Brute-force reference: raw trig, log-domain, numpy trapezoid."""
    phis = np.linspace(domain.lower, domain.upper, n_points)
    logpost = np.zeros(n_points)
    for k, count in enumerate(tally):
        if count == 0:
            continue
        theta = k * PI / 16.0
        p = 0.25 * (1.0 + v * np.cos(8.0 * theta - 2.0 * phis))
        with np.errstate(divide="ignore"):
            logpost = logpost + count * np.log(p)
    weights = np.exp(logpost - logpost.max())
    rho = weights / np.trapezoid(weights, phis)
    est = float(np.trapezoid(phis * rho, phis))
    deltas = {b: float(np.trapezoid(np.abs(phis - est) ** b * rho, phis)) for b in betas}
    return est, deltas


def test_criterion_2_posterior_oracle_equivalence():
    rng = np.random.default_rng(20240202)
    worst_est = worst_delta = 0.0
    for _ in range(50):
        shots = int(rng.integers(0, 2001))
        v = float(rng.uniform(0.90, 0.999))
        # keep the posterior clear of the domain boundary: the quadrature
        # accuracy contract presumes an interior, resolvable posterior
        margin = min(0.5, 6.0 / math.sqrt(1.5 * max(shots, 40)))
        phi_star = float(rng.uniform(margin, PI / 2.0 - margin))
        probs = outcome_probs(phi_star, ModelParams(v))
        tally = rng.multinomial(shots, probs)

        # each tally has its own v, so each is a one-row table
        ms = report_counts(tally[np.newaxis], ModelParams(v), DEFAULT_DOMAIN, BETAS)
        est_o, deltas_o = oracle_posterior_moments(
            tally, v, DEFAULT_DOMAIN, 40960, BETAS
        )
        estimate = float(ms.phi_hat[0])
        worst_est = max(worst_est, abs(estimate - est_o) / max(abs(est_o), 1e-3))
        for b, delta in zip(BETAS, ms.deltas[0].tolist()):
            worst_delta = max(worst_delta, abs(delta - deltas_o[b]) / deltas_o[b])
    ok = worst_est <= 1e-5 and worst_delta <= 1e-5
    report("2", ok, f"worst rel: estimate {worst_est:.2e}, moments {worst_delta:.2e}")


# --- criteria 3 and 5: saturation and Gaussianity at the true visibility ------

@pytest.fixture(scope="module", params=[2000, 10 ** 8], ids=["2000", "1e8"])
def truth_campaign(request):
    shots, n_exp, seed = request.param, 400, 2024
    phi_star = PI / 8.0
    params = ModelParams(0.95)
    info = generalized_fisher(2.0, phi_star, params)
    tallies = draw_tallies(phi_star, 0.95, shots, seed, np.arange(n_exp))
    ms = report_counts(tallies, params, DEFAULT_DOMAIN, (2.0, 3.0, 4.0))
    kappas, ratios = [], []
    for d2, d3, d4 in ms.deltas.tolist():
        kappas.append(kappa(d2, info, shots, 2.0))
        sigma = math.sqrt(d2)
        ratios.append((
            d3 / gaussian_abs_moment(3.0, sigma),
            d4 / gaussian_abs_moment(4.0, sigma),
        ))
    return {
        "phi_star": phi_star,
        "shots": shots,
        "info": info,
        "estimates": ms.phi_hat,
        "kappas": np.array(kappas),
        "ratios": np.array(ratios),
    }


def test_criterion_3_crb_saturation_at_truth(truth_campaign):
    tc = truth_campaign
    mean_kappa = float(tc["kappas"].mean())
    sigma = 1.0 / math.sqrt(tc["shots"] * tc["info"])
    bias = abs(float(tc["estimates"].mean()) - tc["phi_star"])
    limit = 3.0 * sigma / math.sqrt(len(tc["estimates"]))
    ok = 0.9 <= mean_kappa <= 1.15 and bias < limit
    report("3", ok, f"mean kappa_2 = {mean_kappa:.4f}, |bias| = {bias:.2e} < {limit:.2e}")


def test_criterion_5_gaussianity_diagnostic(truth_campaign):
    ratios = truth_campaign["ratios"]
    inside = np.all(np.abs(ratios - 1.0) <= 0.1, axis=1)
    frac = float(inside.mean())
    ok = frac >= 0.95
    report("5", ok, f"{frac:.1%} of experiments have both ratios in [0.9, 1.1]")


# --- criterion 4: qualitative sweep reproduction ------------------------------

@pytest.fixture(scope="module")
def sigma_table():
    v_ests = (0.95, 0.98, 0.99, 1.0)
    table = {(name, v_est): {b: 0.0 for b in BETAS} for name in PHASES for v_est in v_ests}
    for name, phase in PHASES.items():
        for seed in range(5):
            # one draw of each campaign's tallies serves all four v_est
            base = CampaignConfig(
                phase_true=phase, v_true=0.95, v_est=0.95,
                shots=2000, n_experiments=400, beta_list=BETAS, seed=seed,
            )
            counts = campaign_tallies(base)
            for v_est in v_ests:
                cfg = dataclasses.replace(base, v_est=v_est)
                sigma_fracs = run_campaign(cfg, counts).flags.mean(axis=0)
                for b, frac in zip(BETAS, sigma_fracs.tolist()):
                    table[(name, v_est)][b] += frac / 5.0
    return table


def test_criterion_4a_beta3_at_least_as_sensitive(sigma_table):
    checks = []
    ok = True
    for name in PHASES:
        for v_est in (0.98, 0.99, 1.0):
            s = sigma_table[(name, v_est)]
            good = s[3.0] >= s[2.0] - 0.05
            ok &= good
            checks.append(f"{name}@{v_est}: S3={s[3.0]:.3f} S2={s[2.0]:.3f}")
    report("4a", ok, "; ".join(checks))


def test_criterion_4b_beta4_matches_beta2_at_minimum_information(sigma_table):
    ok = True
    checks = []
    for v_est in (0.98, 0.99, 1.0):
        s = sigma_table[("pi/4", v_est)]
        gap = abs(s[4.0] - s[2.0])
        ok &= gap <= 0.15
        checks.append(f"v_est={v_est}: |S4-S2|={gap:.3f}")
    report("4b", ok, "; ".join(checks))


def test_criterion_4c_nonzero_violations_at_truth(sigma_table):
    s = sigma_table[("pi/4", 0.95)]
    ok = s[2.0] > 0.0 and s[3.0] > 0.0
    report("4c", ok, f"at pi/4, v_est=v_true: S2={s[2.0]:.3f}, S3={s[3.0]:.3f}")


def test_criterion_4d_violations_peak_where_information_is_minimal(sigma_table):
    low = sigma_table[("pi/4", 0.99)][2.0]
    high = sigma_table[("pi/8", 0.99)][2.0]
    ok = low >= high
    report("4d", ok, f"S2(pi/4)={low:.3f} >= S2(pi/8)={high:.3f} at v_est=0.99")


# --- criterion 6: order-3 bias signature on synthetic measured data -----------

def test_criterion_6_beta3_bias_signature(tmp_path):
    shots, v_true = 10000, 0.96
    folded = DEFAULT_DOMAIN.lower + math.fmod(2.8 - DEFAULT_DOMAIN.lower, DEFAULT_DOMAIN.width)
    tallies = np.concatenate([draw_tallies(folded, v_true, shots, seed, [0])
                              for seed in range(20)])
    path = tmp_path / "synthetic.csv"
    write_counts(CountsTable(np.full(20, 2.8), tallies, ("",) * 20), path)
    parsed = parse_counts(path)
    assert parsed.phase_label.tolist() == [2.8] * 20
    assert np.array_equal(parsed.counts, tallies) and parsed.acquisition_id == ("",) * 20

    hits = {}
    for v_est in (0.98, 0.99, 1.0):
        params = ModelParams(v_est)
        signature = 0
        ms = report_counts(parsed.counts, params, DEFAULT_DOMAIN, (2.0, 3.0))
        for estimate, row in zip(ms.phi_hat.tolist(), ms.deltas.tolist()):
            info = generalized_fisher(2.0, estimate, params)
            flags = {}
            for b, delta in zip((2.0, 3.0), row):
                f_alpha = generalized_fisher(conjugate_exponent(b), estimate, params)
                bound = order_bound(b, f_alpha, shots)
                window = 3.0 * sigma_beta(b, shots, info) / math.sqrt(shots)
                flags[b] = delta + window < bound
            # order-3 bound violated while the standard bound is fulfilled
            if flags[3.0] and not flags[2.0]:
                signature += 1
        hits[v_est] = signature
    ok = hits[1.0] >= 1
    report("6", ok, f"signature runs out of 20: {hits}")


# --- criterion 7: property suites ---------------------------------------------

def test_criterion_7_property_suites():
    checks = {}

    rng = np.random.default_rng(71)
    worst = max(
        abs(outcome_probs(rng.uniform(-2 * PI, 2 * PI), ModelParams(rng.uniform(0, 1))).sum() - 1.0)
        for _ in range(1000)
    )
    checks["normalization"] = worst <= 1e-12

    rng = np.random.default_rng(72)
    step, ok_fd, tested = 1e-6, True, 0
    while tested < 500:
        phi, v = rng.uniform(0.0, PI), rng.uniform(0.0, 1.0)
        k = rng.integers(0, 4)
        params = ModelParams(v)
        p = outcome_probs(phi, params)[k]
        if p <= 1e-6:
            continue
        fd = (
            math.log(outcome_probs(phi + step, params)[k])
            - math.log(outcome_probs(phi - step, params)[k])
        ) / (2.0 * step)
        got = outcome_dprobs(phi, params)[k] / p
        ok_fd &= abs(got - fd) <= 1e-5 * max(abs(got), 1e-3)
        tested += 1
    checks["score-vs-fd"] = ok_fd

    rng = np.random.default_rng(73)
    ok_lyapunov = True
    for _ in range(50):
        counts = rng.integers(0, 500, 4)
        params = ModelParams(float(rng.uniform(0.9, 1.0)))
        # each tally has its own v, so each is a one-row table
        deltas = report_counts(counts[np.newaxis], params, DEFAULT_DOMAIN, BETAS).deltas[0]
        roots = [d ** (1.0 / b) for b, d in zip(BETAS, deltas.tolist())]
        ok_lyapunov &= all(hi >= lo * (1 - 1e-9) for lo, hi in zip(roots, roots[1:]))
    checks["lyapunov"] = ok_lyapunov

    rng = np.random.default_rng(74)
    checks["conjugacy"] = all(
        abs(1.0 / conjugate_exponent(b) + 1.0 / b - 1.0) <= 1e-12
        for b in 1.0 + rng.uniform(1e-9, 9.0, 1000)
    )

    cfg = CampaignConfig(phase_true=PI / 8.0, v_true=0.95, v_est=0.99,
                         n_experiments=50, seed=7)
    first, second = run_campaign(cfg), run_campaign(cfg)
    checks["determinism"] = np.array_equal(first.flags, second.flags)

    table = CountsTable(np.array([0.125, 2.8]), np.array([[1, 2, 3, 4], [9990, 3, 17, 0]]),
                        ("r1", "r2"))
    buf = io.StringIO()
    write_counts(table, buf)
    back = parse_counts(io.StringIO(buf.getvalue()))
    checks["csv-round-trip"] = (back.phase_label.tolist() == table.phase_label.tolist()
                                and np.array_equal(back.counts, table.counts)
                                and back.acquisition_id == table.acquisition_id)

    ok = all(checks.values())
    report("7", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
