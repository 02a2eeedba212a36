"""Standard and generalized Fisher information with the order-beta lower bounds.

For Hoelder-conjugate exponents 1/alpha + 1/beta = 1, the order-beta bound
on the beta-th absolute central moment of an unbiased estimate is taken in
the paper's per-shot form

    Delta_beta >= M**(-beta/2) * f_alpha**(-beta/alpha),

where f_alpha = sum_theta p(theta|phi) * |d/dphi log p(theta|phi)|**alpha is
the alpha-th absolute moment of the single-shot score.  Hoelder's inequality
for M shots gives (E|S_M|**alpha)**(-beta/alpha), with S_M the score of the
whole tally; the per-shot form puts M**(alpha/2) f_alpha for E|S_M|**alpha,
which is exact only at beta = alpha = 2.  At M = 2000 the order-3 form is
1.15 times that bound at phi = pi/8, v = 0.95, and 1.33 times at 3 pi/16,
v = 0.99; the exact M-shot bound is item 14 of ROADMAP.md.  beta = alpha = 2
recovers the familiar 1/(M*F) variance bound with F = f_2 the Fisher
information, ``generalized_fisher(2.0, phases, params)``.

Every function here broadcasts over orders: `conjugate_exponent` maps an
array of orders beta to their alphas, `generalized_fisher` gives f_alpha for
arrays of orders and phases from one model evaluation, and `order_bound`
turns arrays of f_alpha into the bounds, each power to one order at a time
(`per_order`), so that every element has the bits it would have alone.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, _outcomes, check_orders, check_real, check_whole

# f_alpha summands are evaluated in the factored form |dp|^alpha * p^(1-alpha),
# which stays finite as p -> 0.  At v = 1 some outcome probabilities vanish on
# a measure-zero phase set; clamping the visibility just below 1 removes the
# 0/0 branch while perturbing f_alpha by O(clamp / min(1 + cos)) only.  1e-14
# keeps that perturbation below 1e-6 relative except within ~2e-5 rad of the
# singular phases.
VISIBILITY_CLAMP = 1e-14


def conjugate_exponent(beta):
    """Hoelder conjugate alpha = beta / (beta - 1) of one order or an array of
    orders, each > 1 (`gcrb.model.check_orders`); a scalar gives a float and
    an array an array of the same shape.
    """
    betas = check_orders(beta, bounded=True)
    alphas = betas / (betas - 1.0)
    return float(alphas) if alphas.ndim == 0 else alphas


def per_order(func, orders, *arrays):
    """func(beta, *parts) for each distinct order beta of orders, broadcast
    against the arrays, where parts are the elements of the arrays at that
    order, as 1-d arrays: each power to an order takes one scalar exponent
    (the rule of `gcrb.bayes._integrate`).  Scalars give a float."""
    distinct = set(np.ravel(orders).tolist())
    orders, *arrays = np.broadcast_arrays(orders, *arrays)
    out = np.empty(orders.shape)
    for beta in distinct:
        at = orders == beta
        out[at] = func(beta, *(array[at] for array in arrays))
    return float(out) if out.ndim == 0 else out


def generalized_fisher(alpha, phases, params: ModelParams):
    """alpha-th absolute moment of the score, sum_x |dp|^alpha * p^(1-alpha).

    A scalar phase gives a float and an array of phases an array of the same
    shape.  ``alpha`` is one order > 1 or an array of them; an array puts its
    axes before the phase axes of the result, and all orders share one model
    evaluation.  Outcomes with zero probability contribute nothing (they never occur).
    Near a zero of an outcome probability a large alpha takes the sum past
    float range, to inf, or nan where a summand is 0 * inf, without a
    RuntimeWarning.
    """
    orders = check_orders(alpha, bounded=True)
    effective = ModelParams(min(params.visibility, 1.0 - VISIBILITY_CLAMP))
    p, dp = _outcomes(phases, effective)
    dp = np.abs(dp)
    # one scalar exponent per order (`per_order`), the outcomes summed in order
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = np.array([sum(np.where(p > 0.0, dp ** a * p ** (1.0 - a), 0.0))
                          for a in orders.ravel().tolist()]).reshape(orders.shape + p.shape[1:])
    return float(total) if total.ndim == 0 else total


def order_bound(beta, f_alpha, shots):
    """The per-shot order-beta bound M**(-beta/2) * f_alpha**(-beta/alpha) on
    Delta_beta at M = shots, exact for M shots only at beta = 2 (module
    notes), or the +inf marker where f_alpha vanishes (unbounded
    uncertainty).  Past float range the bound is 0 or inf, or nan
    where one factor underflows and the other overflows, without a
    RuntimeWarning: callers judge it by its value.

    Orders, informations (finite reals >= 0) and shot counts (whole numbers
    >= 1, uncapped) broadcast against each other; scalars give a float.
    """
    betas = check_orders(beta, bounded=True)
    infos = check_real(f_alpha, "generalized Fisher information", 0)
    shots = np.asarray(check_whole(shots, "shots", 1), dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # -beta / alpha, with alpha = beta / (beta - 1) as in conjugate_exponent
        return per_order(lambda b, f, m: m ** (-b / 2.0) * f ** (-b / (b / (b - 1.0))),
                         betas, infos, shots)
