"""Standard and generalized Fisher information with the order-beta lower bounds.

For Hoelder-conjugate exponents 1/alpha + 1/beta = 1, the beta-th absolute
central moment of an unbiased estimate from M independent repetitions obeys

    Delta_beta >= M**(-beta/2) * f_alpha**(-beta/alpha),

where f_alpha = sum_theta p(theta|phi) * |d/dphi log p(theta|phi)|**alpha is
the alpha-th absolute moment of the score.  beta = alpha = 2 recovers the
familiar 1/(M*F) variance bound with F = f_2 the Fisher information,
``generalized_fisher(2.0, phases, params)``.

Every function here broadcasts over orders: `conjugate_exponent` maps an
array of orders beta to their alphas, `generalized_fisher` gives f_alpha for
arrays of orders and phases from one model evaluation, and `order_bound`
turns arrays of f_alpha into the bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, is_whole, outcome_dprobs, outcome_probs

# f_alpha summands are evaluated in the factored form |dp|^alpha * p^(1-alpha),
# which stays finite as p -> 0.  At v = 1 some outcome probabilities vanish on
# a measure-zero phase set; clamping the visibility just below 1 removes the
# 0/0 branch while perturbing f_alpha by O(clamp / min(1 + cos)) only.  1e-14
# keeps that perturbation below 1e-6 relative except within ~2e-5 rad of the
# singular phases.
VISIBILITY_CLAMP = 1e-14


def conjugate_exponent(beta):
    """Hoelder conjugate alpha = beta / (beta - 1) of one order or an array of
    orders, each a finite real > 1 (numpy reals included, bools not); a
    scalar gives a float and an array an array of the same shape.  This is
    the one check of bound orders.
    """
    betas = np.asarray(beta)
    if not (betas.dtype.kind in "iuf" and ((betas > 1.0) & (betas < math.inf)).all()):
        raise ValueError(f"moment order must be a finite real > 1, got {beta!r}")
    betas = betas.astype(float)
    alphas = betas / (betas - 1.0)
    return float(alphas) if alphas.ndim == 0 else alphas


def generalized_fisher(alpha, phases, params: ModelParams):
    """alpha-th absolute moment of the score, sum_x |dp|^alpha * p^(1-alpha).

    A scalar phase gives a float and an array of phases an array of the same
    shape.  ``alpha`` is one order or a sequence of orders; a sequence adds a
    leading axis to the result and shares one model evaluation.  Outcomes with
    exactly zero probability contribute nothing (they never occur).  Any real
    alpha > 1 is accepted.
    """
    orders = np.asarray(alpha, dtype=float)
    if orders.ndim > 1 or not ((orders > 1.0) & (orders < math.inf)).all():
        raise ValueError(f"information order must be a finite real > 1, got {alpha!r}")
    effective = ModelParams(min(params.visibility, 1.0 - VISIBILITY_CLAMP))
    p = outcome_probs(phases, effective)
    dp = np.abs(outcome_dprobs(phases, effective))
    if orders.ndim == 0:
        a = float(orders)
    else:
        # orders on a new axis after the outcome axis
        p, dp = p[:, np.newaxis], dp[:, np.newaxis]
        a = orders.reshape(orders.shape + (1,) * (p.ndim - 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, dp ** a * p ** (1.0 - a), 0.0)
    total = terms[0] + terms[1] + terms[2] + terms[3]
    return float(total) if total.ndim == 0 else total


def order_bound(beta, f_alpha, shots):
    """Lower bound M**(-beta/2) * f_alpha**(-beta/alpha) on Delta_beta from
    M = shots repetitions, or the +inf marker where f_alpha vanishes
    (unbounded uncertainty).

    Orders, informations and shot counts broadcast against each other;
    scalars give a float.
    """
    alphas = conjugate_exponent(beta)
    betas = np.asarray(beta, dtype=float)
    infos = np.asarray(f_alpha, dtype=float)
    if not (np.isfinite(infos) & (infos >= 0.0)).all():
        raise ValueError(
            f"generalized Fisher information must be finite and >= 0, got {f_alpha!r}")
    if not (is_whole(shots) and np.all(np.asarray(shots) >= 1)):
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    with np.errstate(divide="ignore"):
        bound = np.asarray(shots, dtype=float) ** (-betas / 2.0) * infos ** (-betas / alphas)
    return float(bound) if bound.ndim == 0 else bound
