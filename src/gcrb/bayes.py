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
where the refined window meets the plain rule; see `_block_moments`.

Posteriors and moments are computed for blocks of experiments at once, one
row per tally (`_block_posterior`, `_block_moments`, `_block_reports`); the
single-posterior functions are blocks of one.

Nodes more than 100 nats below their row's peak (`_LOG_FLOOR`) get density
exactly 0, so the `PosteriorGrid.densities` of a `posterior` are exactly 0
beyond the floor.
The elementwise work of a block (exp, the normalising divide, phi * p,
|t|**beta and the kernel products) runs only on its live span: the columns
from the first to the last where any row is above the floor.  Every sum
still runs over the full zero-padded row, so each row's results are the
same bits whatever block it shares, and do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InfeasibleDataError, UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher
from .model import PI, ModelParams, OutcomeTally, is_real, outcome_probs

DEFAULT_GRID_POINTS = 4096

# panels refined on each side of the moment-kernel kink
_KINK_PANELS = 4

# log-density floor below each row's peak: nodes under it get density
# exactly 0.  e**-100 is about 3.7e-44, so over 4,096 nodes with
# |t|**beta <= (pi/2)**4 the dropped terms of a moment integral total under
# 1e-39, below half an ulp of Delta_4 for any posterior wider than a tenth of
# a grid spacing
_LOG_FLOOR = -100.0

# doubles per (block rows x grid points) temporary: large enough to amortise
# the per-call overhead over several experiments, small enough to keep the
# working set in cache and peak memory flat
_BLOCK_ELEMENTS = 2 ** 15


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


def _block_slices(n: int, domain: PhaseDomain) -> list[slice]:
    """Consecutive row blocks covering range(n), each small enough that one
    (rows, grid_points) temporary stays within _BLOCK_ELEMENTS doubles."""
    size = max(1, _BLOCK_ELEMENTS // domain.grid_points)
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _span(mask: np.ndarray) -> slice:
    """Columns from the first to the last where any row of the mask is set
    (all columns when none is)."""
    cols = mask.any(axis=0)
    return slice(int(cols.argmax()), cols.size - int(cols[::-1].argmax()))


def _zero_outside(values: np.ndarray, span: slice) -> np.ndarray:
    """Zero the columns of a block outside span; returns the block."""
    values[:, :span.start] = 0.0
    values[:, span.stop:] = 0.0
    return values


def _trapezoid(values: np.ndarray, spacing: float):
    """Trapezoidal integral along the last axis."""
    return spacing * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def _check_densities(dens: np.ndarray, spacing: float) -> None:
    """The PosteriorGrid contract, row by row: finite, non-negative, unit mass."""
    if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
        raise ValueError("densities must be finite and non-negative")
    integrals = np.atleast_1d(_trapezoid(dens, spacing))
    off = np.abs(integrals - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"posterior integrates to {float(integrals[off][0])!r}, not 1")


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Normalized posterior density sampled on a PhaseDomain grid."""

    domain: PhaseDomain
    densities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dens = np.asarray(self.densities, dtype=float)
        if dens.shape != (self.domain.grid_points,):
            raise ValueError("density vector does not match the domain grid")
        _check_densities(dens, self.domain.spacing)
        dens = dens.copy()
        dens.setflags(write=False)
        object.__setattr__(self, "densities", dens)

    @classmethod
    def from_unnormalized(cls, domain: PhaseDomain, values: np.ndarray) -> "PosteriorGrid":
        values = np.asarray(values, dtype=float)
        norm = float(_trapezoid(values, domain.spacing))
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


def _block_posterior(
    counts: np.ndarray,
    params: ModelParams,
    domain: PhaseDomain,
    prior: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior densities of a block of tallies, one row per (4,) count row.

    Returns the (E, G) densities and the (E,) mask of feasible rows.  A row
    whose counts have zero likelihood at every grid node is infeasible: it is
    masked out and holds a flat placeholder density instead of raising for
    the whole block.
    """
    logp = _log_prob_grid(domain, params)
    counts = np.asarray(counts, dtype=float)
    dens = np.zeros((counts.shape[0], domain.grid_points))
    for row, c in zip(dens, counts):
        active = c > 0
        # excluding zero-count outcomes implements the 0 * log(0) = 0 convention
        if active.all():
            np.matmul(c, logp, out=row)
        elif active.any():
            np.matmul(c[active], logp[active], out=row)
    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (domain.grid_points,):
            raise ValueError("tabulated prior does not match the domain grid")
        if np.any(prior < 0.0) or not np.any(prior > 0.0):
            raise ValueError("prior weights must be non-negative and not all zero")
        with np.errstate(divide="ignore"):
            dens += np.log(prior)
    peak = dens.max(axis=1)
    feasible = np.isfinite(peak)
    dens[~feasible] = 0.0
    peak[~feasible] = 0.0
    np.subtract(dens, peak[:, np.newaxis], out=dens)
    live = dens >= _LOG_FLOOR
    span = _span(live)
    values = dens[:, span]
    # raising the dead nodes to the floor keeps exp off its slow underflow
    # path; the mask then zeroes them exactly
    np.maximum(values, _LOG_FLOOR, out=values)
    np.exp(values, out=values)
    values *= live[:, span]
    _zero_outside(dens, span)
    np.divide(values, _trapezoid(dens, domain.spacing)[:, np.newaxis], out=values)
    _check_densities(dens, domain.spacing)
    return dens, feasible


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
    dens, feasible = _block_posterior(tally.as_array()[np.newaxis], params, domain, prior)
    if not feasible[0]:
        raise InfeasibleDataError(
            "counts are impossible at every grid phase under the assumed visibility"
        )
    return PosteriorGrid(domain, dens[0])


def _estimates(dens: np.ndarray, domain: PhaseDomain, span: slice) -> np.ndarray:
    """Posterior means, one per row of densities that are zero outside span."""
    weighted = _zero_outside(np.empty_like(dens), span)
    np.multiply(domain.grid()[span], dens[:, span], out=weighted[:, span])
    return _trapezoid(weighted, domain.spacing)


def estimate(post: PosteriorGrid) -> float:
    """Posterior mean of the phase."""
    dens = post.densities[np.newaxis]
    return float(_estimates(dens, post.domain, _span(dens != 0.0))[0])


def _check_orders(betas) -> tuple[float, ...]:
    betas = tuple(betas)
    for b in betas:
        if not (is_real(b) and math.isfinite(b) and b >= 1.0):
            raise ValueError(f"moment order must be a finite real >= 1, got {b!r}")
    return tuple(float(b) for b in betas)


def _block_moments(dens: np.ndarray, domain: PhaseDomain, betas) -> tuple[np.ndarray, np.ndarray]:
    """phi_hat per row, shape (E,), and Delta_beta = integral of
    |phi - phi_hat|**beta * p(phi | x) per row and order, shape (E, len(betas)).

    The integrands are evaluated on the block's live span only and are 0
    outside it, where every density is.  Each integral is the trapezoidal
    rule over the whole zero-padded row, except on the 2 * _KINK_PANELS
    panels around the row's kink (fewer where the window is clipped at the
    domain edges).  There the density is replaced by the
    cubic through the four nodes around each panel, whose product with
    |t|**beta, t = phi - phi_hat, integrates in closed form:
    t**p * |t|**beta has the antiderivative |t|**(beta+p+1) / (beta+p+1),
    signed for even p.  Euler-Maclaurin h^2/12 slope terms join the window to
    the plain rule; the outer domain endpoints keep the uncorrected
    trapezoidal convention.  The orders must be validated by the caller.
    """
    grid, h, n = domain.grid(), domain.spacing, domain.grid_points
    rows = np.arange(dens.shape[0])[:, np.newaxis]
    span = _span(dens != 0.0)
    centers = _estimates(dens, domain, span)
    abs_t = np.subtract(grid[span], centers[:, np.newaxis])
    np.abs(abs_t, out=abs_t)

    # window nodes j-3 .. j+5 bound the panels j-3 .. j+4 around the kink in
    # panel j; panels outside [0, n-2] are masked
    j = np.clip(np.searchsorted(grid, centers) - 1, 0, n - 2)
    nodes = j[:, np.newaxis] + np.arange(1 - _KINK_PANELS, _KINK_PANELS + 2)
    in_window = (nodes[:, :-1] >= 0) & (nodes[:, :-1] <= n - 2)
    nodes = np.clip(nodes, 0, n - 1)
    t_nodes = grid[nodes] - centers[:, np.newaxis]

    # cubic fit of panel k through nodes i0 .. i0+3, i0 = clamp(k-1, 0, n-4),
    # in xi = t/h
    fit = np.clip(nodes[:, :-1] - 1, 0, n - 4)[..., np.newaxis] + np.arange(4)
    xi = (grid[fit] - centers[:, np.newaxis, np.newaxis]) / h
    vander = np.ones(xi.shape + (4,))
    vander[..., 1] = xi
    vander[..., 2] = xi * xi
    vander[..., 3] = vander[..., 2] * xi
    coeffs = np.linalg.solve(vander, dens[rows[..., np.newaxis], fit][..., np.newaxis])[..., 0]
    coeffs /= np.array([h ** p for p in range(4)])

    # closed-form window integrals for every order at once:
    # (orders, rows, window nodes, p)
    powers = np.add.outer(np.asarray(betas), np.arange(1.0, 5.0))[:, np.newaxis, np.newaxis, :]
    anti = np.abs(t_nodes)[np.newaxis, ..., np.newaxis] ** powers / powers
    anti[..., 0::2] = np.copysign(anti[..., 0::2], t_nodes[np.newaxis, ..., np.newaxis])
    panel_integrals = (coeffs * (anti[:, :, 1:] - anti[:, :, :-1])).sum(axis=-1)
    window = np.where(in_window, panel_integrals, 0.0).sum(axis=-1)

    # Euler-Maclaurin slope terms at the window edges j-3 (lo > 0) and j+5
    # (hi < n-2), with central-difference density slopes
    edges = np.stack([j + 1 - _KINK_PANELS, j + 1 + _KINK_PANELS], axis=1)
    edge_sign = np.where((edges > 0) & (edges < n - 1), [-1.0, 1.0], 0.0)
    edges = np.clip(edges, 1, n - 2)
    t_edges = grid[edges] - centers[:, np.newaxis]
    drho = (dens[rows, edges + 1] - dens[rows, edges - 1]) / (2.0 * h)
    b_edges = np.asarray(betas)[:, np.newaxis, np.newaxis]
    slope = (b_edges * np.abs(t_edges) ** (b_edges - 1.0) * np.copysign(1.0, t_edges)
             * dens[rows, edges] + np.abs(t_edges) ** b_edges * drho)
    edge_terms = (h * h / 12.0 * slope * edge_sign).sum(axis=-1)

    deltas = np.empty((len(betas), dens.shape[0]))
    kernel = _zero_outside(np.empty_like(dens), span)
    for i, b in enumerate(betas):
        # the same kernel values enter the plain rule and the window panels
        # it gives back
        np.power(abs_t, b, out=kernel[:, span])
        kernel[:, span] *= dens[:, span]
        k_nodes = kernel[rows, nodes]
        replaced = np.where(in_window, k_nodes[:, :-1] + k_nodes[:, 1:], 0.0).sum(axis=-1)
        deltas[i] = _trapezoid(kernel, h) - h * 0.5 * replaced
    deltas += window
    deltas += edge_terms
    return centers, deltas.T


def moment_set(post: PosteriorGrid, betas, shots: int) -> MomentSet:
    """phi_hat and Delta_beta = integral of |phi - phi_hat|**beta * p(phi | x)
    for each requested order, sharing one kink window."""
    betas = _check_orders(betas)
    centers, deltas = _block_moments(post.densities[np.newaxis], post.domain, betas)
    return MomentSet(
        estimate=float(centers[0]),
        deltas=dict(zip(betas, deltas[0].tolist())),
        shots=int(shots),
    )


def gaussian_abs_moment(beta: float, sigma):
    """Absolute central moment of a Gaussian with standard deviation sigma.

    E|X - mu|**beta = sigma**beta * 2**(beta/2) * Gamma((beta+1)/2) / sqrt(pi);
    beta = 2, 3, 4 give sigma^2, 2*sqrt(2/pi)*sigma^3 and 3*sigma^4.  An
    array of sigmas gives an array.
    """
    if not (is_real(beta) and math.isfinite(beta) and beta >= 1.0):
        raise ValueError(f"moment order must be a finite real >= 1, got {beta!r}")
    beta = float(beta)
    sigmas = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigmas) & (sigmas >= 0.0)):
        raise ValueError(f"standard deviation must be >= 0, got {sigma!r}")
    return sigma ** beta * 2.0 ** (beta / 2.0) * math.gamma((beta + 1.0) / 2.0) / math.sqrt(PI)


def kappa(delta_beta, f_alpha, shots, beta: float):
    """Saturation ratio kappa_beta = Delta_beta * M**(beta/2) * f_alpha**(beta/alpha).

    Values below 1 indicate a violated order-beta bound.  Arrays of moments,
    informations and shots give an array.
    """
    if np.any(np.asarray(shots) < 1):
        raise ValueError("shots must be a positive integer")
    if np.any(np.asarray(f_alpha) <= 0.0):
        raise UndefinedRatioError(
            "saturation ratio undefined: generalized Fisher information vanishes"
        )
    alpha = conjugate_exponent(beta)
    value = delta_beta * shots ** (beta / 2.0) * f_alpha ** (beta / alpha)
    return float(value) if np.ndim(value) == 0 else value


def _block_reports(
    dens: np.ndarray,
    domain: PhaseDomain,
    params: ModelParams,
    shots: np.ndarray,
    betas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """phi_hat (E,) plus Delta_beta, kappa_beta and Gaussianity ratios, each
    (E, len(betas)), for a block of posteriors with the given shot counts.

    f_alpha is taken at each row's phi_hat, from one model evaluation for all
    rows and orders.  kappa is ``nan`` when there are no shots or f_alpha is
    undefined (beta = 1) or vanishes; the Gaussianity ratio is ``nan`` when
    Delta_2 = 0.
    """
    betas = _check_orders(betas)
    orders = tuple(sorted(set(betas) | {2.0}))
    centers, moments = _block_moments(dens, domain, orders)
    deltas = moments[:, [orders.index(b) for b in betas]]
    d2 = moments[:, orders.index(2.0)]
    spread = d2 > 0.0
    sigma = np.sqrt(d2[spread])
    shots = np.asarray(shots)
    bounded = [i for i, b in enumerate(betas) if b > 1.0]
    infos = np.zeros((len(betas), dens.shape[0]))
    if bounded:
        alphas = tuple(conjugate_exponent(betas[i]) for i in bounded)
        infos[bounded] = generalized_fisher(alphas, centers, params)
    kappas = np.full(deltas.shape, math.nan)
    ratios = np.full(deltas.shape, math.nan)
    for i, b in enumerate(betas):
        ok = (shots > 0) & (infos[i] > 0.0)
        if b > 1.0 and ok.any():
            kappas[ok, i] = kappa(deltas[ok, i], infos[i, ok], shots[ok], b)
        ratios[spread, i] = deltas[spread, i] / gaussian_abs_moment(b, sigma)
    return centers, deltas, kappas, ratios


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
    betas = tuple(betas)
    center, deltas, kappas, ratios = _block_reports(
        post.densities[np.newaxis], post.domain, params, np.array([shots]), betas
    )
    keys = [float(b) for b in betas]
    return SaturationReport(
        float(center[0]),
        dict(zip(keys, deltas[0].tolist())),
        dict(zip(keys, kappas[0].tolist())),
        dict(zip(keys, ratios[0].tolist())),
    )
