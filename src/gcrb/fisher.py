"""Standard and generalized Fisher information with the order-beta lower bounds.

For Hoelder-conjugate exponents 1/alpha + 1/beta = 1, the beta-th absolute
central moment of an unbiased estimate from M independent repetitions obeys

    Delta_beta >= M**(-beta/2) * f_alpha**(-beta/alpha),

where f_alpha = sum_theta p(theta|phi) * |d/dphi log p(theta|phi)|**alpha is
the alpha-th absolute moment of the score.  beta = alpha = 2 recovers the
familiar 1/(M*F) variance bound with F the Fisher information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, is_real, outcome_dprobs, outcome_probs

# f_alpha summands are evaluated in the factored form |dp|^alpha * p^(1-alpha),
# which stays finite as p -> 0.  At v = 1 some outcome probabilities vanish on
# a measure-zero phase set; clamping the visibility just below 1 removes the
# 0/0 branch while perturbing f_alpha by O(clamp / min(1 + cos)) only.  1e-14
# keeps that perturbation below 1e-6 relative except within ~2e-5 rad of the
# singular phases.
VISIBILITY_CLAMP = 1e-14


def conjugate_exponent(beta: float) -> float:
    """Hoelder conjugate alpha = beta / (beta - 1); requires beta > 1."""
    if not (is_real(beta) and math.isfinite(beta) and beta > 1.0):
        raise ValueError(f"moment order must be a finite real > 1, got {beta!r}")
    beta = float(beta)
    return beta / (beta - 1.0)


@dataclass(frozen=True)
class BoundValue:
    """Lower bound on Delta_beta from f_alpha and the number of shots."""

    beta: float
    alpha: float
    f_alpha: float
    bound_on_delta_beta: float
    shots: int

    def __post_init__(self) -> None:
        if self.f_alpha < 0.0:
            raise ValueError("generalized Fisher information cannot be negative")
        if self.shots < 1:
            raise ValueError("shots must be a positive integer")

    @classmethod
    def from_information(cls, beta: float, f_alpha: float, shots: int) -> "BoundValue":
        """M**(-beta/2) * f_alpha**(-beta/alpha), or the +inf marker when
        f_alpha vanishes (unbounded uncertainty)."""
        if shots != int(shots) or shots < 1:
            raise ValueError(f"shots must be a positive integer, got {shots!r}")
        shots = int(shots)
        alpha = conjugate_exponent(beta)
        if f_alpha == 0.0:
            bound = math.inf
        else:
            bound = shots ** (-beta / 2.0) * f_alpha ** (-beta / alpha)
        return cls(
            beta=float(beta),
            alpha=alpha,
            f_alpha=f_alpha,
            bound_on_delta_beta=bound,
            shots=shots,
        )


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


def fisher(phases, params: ModelParams):
    """Fisher information F = f_2."""
    return generalized_fisher(2.0, phases, params)


def crb_bound(beta: float, phase: float, params: ModelParams, shots: int) -> BoundValue:
    """Order-beta lower bound on the absolute moment Delta_beta at one phase.

    Vanishing f_alpha signals unbounded uncertainty; the bound is then the
    +inf marker rather than an error.
    """
    f_alpha = generalized_fisher(conjugate_exponent(beta), phase, params)
    return BoundValue.from_information(beta, f_alpha, shots)
