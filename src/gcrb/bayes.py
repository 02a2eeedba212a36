"""Grid posterior over the phase and its absolute central moments.

The posterior is reconstructed on a uniform grid by Bayes' rule,

    p(phi | x)  propto  prior(phi) * prod_theta p(theta | phi)^counts(theta),

normalized by trapezoidal quadrature.  Likelihoods for realistic shot counts
underflow double precision, so everything is assembled in the log domain with
max-subtraction before exponentiation.

Moment integrals carry the |phi - phi_hat|**beta kernel whose kink at phi_hat
destroys the usual error cancellation of the trapezoidal rule for non-even
beta.  The panels surrounding the kink are therefore integrated in closed form
against a local cubic fit of the density, with Euler-Maclaurin edge terms
where the refined window meets the plain rule; see `_abs_moment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InfeasibleDataError, UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher
from .model import PI, ModelParams, OutcomeTally, outcome_probs

DEFAULT_GRID_POINTS = 4096

# panels refined on each side of the moment-kernel kink
_KINK_PANELS = 4


@dataclass(frozen=True)
class PhaseDomain:
    """Uniform grid over one prior support interval (at most one model period)."""

    lower: float
    upper: float
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("domain endpoints must be finite")
        if not self.lower < self.upper:
            raise ValueError("domain lower bound must be below the upper bound")
        if self.upper - self.lower > PI + 1e-12:
            raise ValueError("domain may not exceed one model period (pi)")
        if self.grid_points != int(self.grid_points) or self.grid_points < 64:
            raise ValueError("grid_points must be an integer >= 64")
        object.__setattr__(self, "grid_points", int(self.grid_points))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.grid_points - 1)

    def grid(self) -> np.ndarray:
        """The grid nodes; read-only and shared by every caller."""
        return _grid(self.lower, self.upper, self.grid_points)


@lru_cache(maxsize=16)
def _grid(lower: float, upper: float, points: int) -> np.ndarray:
    nodes = np.linspace(lower, upper, points)
    nodes.setflags(write=False)
    return nodes


DEFAULT_DOMAIN = PhaseDomain(0.0, PI / 2.0)


def _trapezoid(values: np.ndarray, spacing: float) -> float:
    return float(spacing * (values.sum() - 0.5 * (values[0] + values[-1])))


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Normalized posterior density sampled on a PhaseDomain grid."""

    domain: PhaseDomain
    densities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dens = np.asarray(self.densities, dtype=float)
        if dens.shape != (self.domain.grid_points,):
            raise ValueError("density vector does not match the domain grid")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite and non-negative")
        integral = _trapezoid(dens, self.domain.spacing)
        if abs(integral - 1.0) > 1e-9:
            raise ValueError(f"posterior integrates to {integral!r}, not 1")
        dens = dens.copy()
        dens.setflags(write=False)
        object.__setattr__(self, "densities", dens)

    @classmethod
    def from_unnormalized(cls, domain: PhaseDomain, values: np.ndarray) -> "PosteriorGrid":
        values = np.asarray(values, dtype=float)
        norm = _trapezoid(values, domain.spacing)
        if not (norm > 0.0 and math.isfinite(norm)):
            raise ValueError("cannot normalize a vanishing density")
        return cls(domain, values / norm)


@dataclass(frozen=True)
class MomentSet:
    """Posterior mean phi_hat plus absolute central moments Delta_beta."""

    estimate: float
    deltas: dict[float, float]
    shots: int


@dataclass(frozen=True)
class SaturationReport:
    """Per-posterior analysis: phi_hat plus, for each order beta, Delta_beta,
    the saturation ratio kappa_beta and the Gaussianity ratio
    Delta_beta / Delta_beta(Gaussian at sigma = sqrt(Delta_2)).

    ``nan`` marks a kappa without data or information and a Gaussianity ratio
    of a posterior without spread.
    """

    estimate: float
    deltas: dict[float, float]
    kappas: dict[float, float]
    gauss_ratios: dict[float, float]


@lru_cache(maxsize=16)
def _log_prob_grid(domain: PhaseDomain, params: ModelParams) -> np.ndarray:
    """log p(outcome | phi) over the domain grid; zero probabilities give -inf."""
    with np.errstate(divide="ignore"):
        out = np.log(outcome_probs(domain.grid(), params))
    out.setflags(write=False)
    return out


def posterior(
    tally: OutcomeTally,
    params: ModelParams,
    domain: PhaseDomain = DEFAULT_DOMAIN,
    prior: np.ndarray | None = None,
) -> PosteriorGrid:
    """Posterior density of the phase given a tally.

    ``prior`` is either None (flat) or a tabulated non-negative weight vector
    on the domain grid; it does not need to be normalized.  Raises
    InfeasibleDataError when the data have zero likelihood at every grid node
    under the assumed visibility.
    """
    logp = _log_prob_grid(domain, params)
    counts = tally.as_array()
    active = counts > 0
    # excluding zero-count outcomes implements the 0 * log(0) = 0 convention
    logpost = counts[active] @ logp[active] if active.any() else np.zeros(domain.grid_points)
    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (domain.grid_points,):
            raise ValueError("tabulated prior does not match the domain grid")
        if np.any(prior < 0.0) or not np.any(prior > 0.0):
            raise ValueError("prior weights must be non-negative and not all zero")
        with np.errstate(divide="ignore"):
            logpost = logpost + np.log(prior)
    peak = logpost.max()
    if not math.isfinite(peak):
        raise InfeasibleDataError(
            "counts are impossible at every grid phase under the assumed visibility"
        )
    weights = np.exp(logpost - peak)
    return PosteriorGrid.from_unnormalized(domain, weights)


def estimate(post: PosteriorGrid) -> float:
    """Posterior mean of the phase."""
    grid = post.domain.grid()
    return _trapezoid(grid * post.densities, post.domain.spacing)


def _cubic_coeffs(t: np.ndarray, rho: np.ndarray, h: float, k: int, n: int) -> np.ndarray:
    """Cubic fit of rho through the four nodes around panel k, in xi = t/h."""
    i0 = min(max(k - 1, 0), n - 4)
    xi = t[i0:i0 + 4] / h
    vand = np.vander(xi, 4, increasing=True)
    return np.linalg.solve(vand, rho[i0:i0 + 4])


def _power_antiderivative(p: int, beta: float, t: float) -> float:
    """Antiderivative of t**p * |t|**beta (p = 0..3)."""
    e = beta + p + 1.0
    val = abs(t) ** e / e
    return val if p % 2 == 1 else math.copysign(val, t)


def _kernel_slope(t: np.ndarray, rho: np.ndarray, h: float, beta: float, k: int, n: int) -> float:
    """d/dphi of |t|**beta * rho at node k, with a finite-difference rho'."""
    if k == 0:
        drho = (rho[1] - rho[0]) / h
    elif k == n - 1:
        drho = (rho[-1] - rho[-2]) / h
    else:
        drho = (rho[k + 1] - rho[k - 1]) / (2.0 * h)
    tk = float(t[k])
    return beta * abs(tk) ** (beta - 1.0) * math.copysign(1.0, tk) * rho[k] + abs(tk) ** beta * drho


def _abs_moment(
    t: np.ndarray,
    rho: np.ndarray,
    h: float,
    beta: float,
    window_coeffs: list[np.ndarray],
    window_panels: tuple[int, int],
) -> float:
    """Trapezoidal integral of |t|**beta * rho, t = phi - center, with the
    panels of ``window_panels`` refined by their cubic fits."""
    g = np.abs(t) ** beta * rho
    total = _trapezoid(g, h)

    n = t.size
    lo, hi = window_panels

    # swap the trapezoid panels around the kink for the closed-form integral of
    # |t|^beta against a cubic density fit
    total -= float(h * 0.5 * (g[lo:hi + 1] + g[lo + 1:hi + 2]).sum())
    for k, coeffs in zip(range(lo, hi + 1), window_coeffs):
        t0, t1 = float(t[k]), float(t[k + 1])
        total += sum(
            coeffs[p] / h ** p * (_power_antiderivative(p, beta, t1) - _power_antiderivative(p, beta, t0))
            for p in range(4)
        )

    # Euler-Maclaurin h^2/12 terms where the plain rule meets the window; the
    # outer domain endpoints keep the uncorrected trapezoidal convention
    if lo > 0:
        total -= h * h / 12.0 * _kernel_slope(t, rho, h, beta, lo, n)
    if hi < n - 2:
        total += h * h / 12.0 * _kernel_slope(t, rho, h, beta, hi + 1, n)
    return float(total)


def _window_bounds(grid: np.ndarray, center: float) -> tuple[int, int]:
    n = grid.size
    j = int(np.searchsorted(grid, center)) - 1
    j = min(max(j, 0), n - 2)
    return max(0, j - (_KINK_PANELS - 1)), min(n - 2, j + _KINK_PANELS)


def moment_set(post: PosteriorGrid, betas, shots: int) -> MomentSet:
    """phi_hat and Delta_beta = integral of |phi - phi_hat|**beta * p(phi | x)
    for each requested order, sharing one kink window."""
    betas = tuple(betas)
    for b in betas:
        if not (isinstance(b, (int, float)) and math.isfinite(b) and b >= 1.0):
            raise ValueError(f"moment order must be a finite real >= 1, got {b!r}")
    grid = post.domain.grid()
    h = post.domain.spacing
    center = estimate(post)
    panels = _window_bounds(grid, center)
    t = grid - center
    n = grid.size
    coeffs = [_cubic_coeffs(t, post.densities, h, k, n) for k in range(panels[0], panels[1] + 1)]
    deltas = {
        float(b): _abs_moment(t, post.densities, h, float(b), coeffs, panels)
        for b in betas
    }
    return MomentSet(estimate=center, deltas=deltas, shots=int(shots))


def gaussian_abs_moment(beta: float, sigma: float) -> float:
    """Absolute central moment of a Gaussian with standard deviation sigma.

    E|X - mu|**beta = sigma**beta * 2**(beta/2) * Gamma((beta+1)/2) / sqrt(pi);
    beta = 2, 3, 4 give sigma^2, 2*sqrt(2/pi)*sigma^3 and 3*sigma^4.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta >= 1.0):
        raise ValueError(f"moment order must be a finite real >= 1, got {beta!r}")
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"standard deviation must be >= 0, got {sigma!r}")
    return sigma ** beta * 2.0 ** (beta / 2.0) * math.gamma((beta + 1.0) / 2.0) / math.sqrt(PI)


def kappa(delta_beta: float, f_alpha: float, shots: int, beta: float) -> float:
    """Saturation ratio kappa_beta = Delta_beta * M**(beta/2) * f_alpha**(beta/alpha).

    Values below 1 indicate a violated order-beta bound.
    """
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    if f_alpha <= 0.0:
        raise UndefinedRatioError(
            "saturation ratio undefined: generalized Fisher information vanishes"
        )
    alpha = conjugate_exponent(beta)
    return float(delta_beta) * shots ** (beta / 2.0) * f_alpha ** (beta / alpha)


def saturation_report(
    post: PosteriorGrid,
    params: ModelParams,
    shots: int,
    betas=(1.5, 2.0, 3.0, 4.0),
) -> SaturationReport:
    """phi_hat, Delta_beta, kappa_beta and the Gaussianity ratio per order.

    f_alpha is taken at phi_hat, from one model evaluation for all orders.
    kappa is ``nan`` when there are no shots or f_alpha is undefined (beta = 1)
    or vanishes; the Gaussianity ratio is ``nan`` when Delta_2 = 0.
    """
    betas = tuple(float(b) for b in betas)
    ms = moment_set(post, sorted(set(betas) | {2.0}), max(shots, 1))
    d2 = ms.deltas[2.0]
    sigma = math.sqrt(d2) if d2 > 0.0 else 0.0
    bounded = [b for b in betas if b > 1.0]
    alphas = tuple(conjugate_exponent(b) for b in bounded)
    infos = dict(zip(bounded, generalized_fisher(alphas, ms.estimate, params).tolist()))
    deltas, kappas, ratios = {}, {}, {}
    for b in betas:
        delta = deltas[b] = ms.deltas[b]
        f_alpha = infos.get(b, 0.0)
        kappas[b] = kappa(delta, f_alpha, shots, b) if shots > 0 and f_alpha > 0.0 else math.nan
        ratios[b] = delta / gaussian_abs_moment(b, sigma) if sigma > 0.0 else math.nan
    return SaturationReport(ms.estimate, deltas, kappas, ratios)
