"""Grid posterior over the phase and its absolute central moments.

The posterior is reconstructed on a uniform grid over the prior support by
Bayes' rule with a flat prior,

    p(phi | x)  propto  prod_theta p(theta | phi)^counts(theta),

normalized by trapezoidal quadrature.  Likelihoods for realistic shot counts
underflow double precision, so everything is assembled in the log domain with
max-subtraction before exponentiation.

Moment integrals carry the |phi - phi_hat|**beta kernel whose kink at phi_hat
destroys the usual error cancellation of the trapezoidal rule for non-even
beta.  The panels surrounding the kink are therefore integrated in closed form
against a local cubic fit of the density, with Euler-Maclaurin edge terms
where the refined window meets the plain rule; see `_block_moments`.

`report_counts` is the analysis routine of the library and of `gcrb analyze`:
it takes an (E, 4) counts table to feasibility, phi_hat, Delta_beta,
kappa_beta and Gaussianity ratios, one row per counts row.  It chains
`_evaluate_counts`, which `simulate` shares and which gives feasibility,
phi_hat and Delta_beta, with `_block_reports`, which adds the kappa and
Gaussianity columns.  `gaussian_abs_moment` and `kappa` broadcast over orders,
so the reports are array expressions over the (E, n_beta) columns; kappa is
Delta_beta over `gcrb.fisher.order_bound`.

Posteriors and moments are computed for blocks of rows at once
(`_block_posterior`, `_block_moments`).  Nodes more than 100 nats below their
row's peak (`_LOG_FLOOR`) get density exactly 0.
The elementwise work of a block (exp, the normalising divide, phi * p,
|t|**beta and the kernel products) runs only on its live span: the columns
from the first to the last where any row is above the floor.  Every sum
still runs over the full zero-padded row, so each row's results are the
same bits whatever block it shares, and do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .model import N_SETTINGS, PI, ModelParams, check_counts, is_real, outcome_probs

DEFAULT_GRID_POINTS = 4096

# moment orders analyzed when none are given
DEFAULT_BETAS = (1.5, 2.0, 3.0, 4.0)

# panels refined on each side of the moment-kernel kink
_KINK_PANELS = 4

# log-density floor below each row's peak: nodes under it get density
# exactly 0.  e**-100 is about 3.7e-44, so over 4,096 nodes with
# |t|**beta <= (pi/2)**4 the dropped terms of a moment integral total under
# 1e-39, below half an ulp of Delta_4 for any posterior wider than a tenth of
# a grid spacing
_LOG_FLOOR = -100.0

# evenly spaced grid nodes on which _peak_nodes locates each row's
# likelihood peak; PhaseDomain guarantees at least this many
_KEY_NODES = 64

# doubles per (block rows x grid points) temporary, 1 MiB.  A block makes
# about 60 numpy calls whatever its size; 32 rows of 4,096 grid points
# amortise them (a 400-experiment campaign takes about 1.6x as long in
# blocks of 8 rows), and the larger temporaries add about 2 MB to peak
# memory over blocks of 8
_BLOCK_ELEMENTS = 2 ** 17


@dataclass(frozen=True)
class PhaseDomain:
    """Uniform grid over one prior support interval (at most one model period)."""

    lower: float
    upper: float
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            end = getattr(self, name)
            if not (is_real(end) and math.isfinite(end)):
                raise ValueError(f"domain endpoints must be finite reals, got {end!r}")
            object.__setattr__(self, name, float(end))
        if not self.lower < self.upper:
            raise ValueError("domain lower bound must be below the upper bound")
        if self.width > PI + 1e-12:
            raise ValueError("domain may not exceed one model period (pi)")
        if self.grid_points != int(self.grid_points) or self.grid_points < 64:
            raise ValueError("grid_points must be an integer >= 64")
        object.__setattr__(self, "grid_points", int(self.grid_points))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def spacing(self) -> float:
        return self.width / (self.grid_points - 1)

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
    """The posterior contract, row by row: finite, non-negative, unit mass."""
    if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
        raise ValueError("densities must be finite and non-negative")
    integrals = np.atleast_1d(_trapezoid(dens, spacing))
    off = np.abs(integrals - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"posterior integrates to {float(integrals[off][0])!r}, not 1")


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


def _check_orders(beta) -> np.ndarray:
    """One moment order or an array of them as floats; each must be a finite
    real >= 1 (numpy reals included, bools not)."""
    betas = np.asarray(beta)
    if not (betas.dtype.kind in "iuf" and ((betas >= 1.0) & (betas < math.inf)).all()):
        raise ValueError(f"moment order must be a finite real >= 1, got {beta!r}")
    return betas.astype(float)


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
    # one workspace, zero outside the span, for phi * p and then each kernel
    work = _zero_outside(np.empty_like(dens), span)
    np.multiply(grid[span], dens[:, span], out=work[:, span])
    centers = _trapezoid(work, h)
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
    for i, b in enumerate(betas):
        # the same kernel values enter the plain rule and the window panels
        # it gives back
        np.power(abs_t, b, out=work[:, span])
        work[:, span] *= dens[:, span]
        k_nodes = work[rows, nodes]
        replaced = np.where(in_window, k_nodes[:, :-1] + k_nodes[:, 1:], 0.0).sum(axis=-1)
        deltas[i] = _trapezoid(work, h) - h * 0.5 * replaced
    deltas += window
    deltas += edge_terms
    return centers, deltas.T


def _peak_nodes(counts: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """Index of each row's log-likelihood maximum over _KEY_NODES evenly
    spaced grid nodes, grid_points // _KEY_NODES apart; zero counts
    contribute 0 (0 * log 0 = 0), as in the posterior."""
    coarse = logp[:, ::logp.shape[1] // _KEY_NODES][:, :_KEY_NODES]
    dead = np.isneginf(coarse)
    loglik = counts @ np.where(dead, 0.0, coarse)
    # only an outcome that was counted rules out the nodes where it is impossible
    loglik[(counts > 0) @ dead] = -np.inf
    return loglik.argmax(axis=1)


def _evaluate_counts(
    counts: np.ndarray,
    params: ModelParams,
    domain: PhaseDomain,
    betas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """feasible (E,), phi_hat (E,) and Delta_beta (E, len(betas)) for each row
    of an (E, 4) counts table under params; an infeasible row, whose counts
    are impossible at every grid node, has ``nan`` phi_hat and deltas.

    Rows fill the blocks of `_block_slices` in order of their log-likelihood
    peak (`_peak_nodes`), so rows with nearby posteriors share a block and
    keep its live span short; results go back by row.  A row's results are
    the same bits in any block, so the order affects only the speed.  The
    orders must be validated by the caller.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.shape[0]
    feasible = np.zeros(n, dtype=bool)
    phi_hat = np.full(n, math.nan)
    deltas = np.full((n, len(betas)), math.nan)
    order = np.argsort(_peak_nodes(counts, _log_prob_grid(domain, params)), kind="stable")
    for block in _block_slices(n, domain):
        rows = order[block]
        dens, ok = _block_posterior(counts[rows], params, domain)
        centers, moments = _block_moments(dens, domain, betas)
        feasible[rows] = ok
        # an infeasible row's moments would be those of its flat placeholder
        phi_hat[rows[ok]] = centers[ok]
        deltas[rows[ok]] = moments[ok]
    return feasible, phi_hat, deltas


def gaussian_abs_moment(beta, sigma):
    """Absolute central moment of a Gaussian with standard deviation sigma.

    E|X - mu|**beta = sigma**beta * 2**(beta/2) * Gamma((beta+1)/2) / sqrt(pi);
    beta = 2, 3, 4 give sigma^2, 2*sqrt(2/pi)*sigma^3 and 3*sigma^4.  Orders
    broadcast against sigmas; scalars give a float.
    """
    betas = _check_orders(beta)
    sigmas = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigmas) & (sigmas >= 0.0)):
        raise ValueError(f"standard deviation must be finite and >= 0, got {sigma!r}")
    gammas = np.array([math.gamma((b + 1.0) / 2.0) for b in betas.flat]).reshape(betas.shape)
    value = sigmas ** betas * 2.0 ** (betas / 2.0) * gammas / math.sqrt(PI)
    return float(value) if value.ndim == 0 else value


def kappa(delta_beta, f_alpha, shots, beta):
    """Saturation ratio kappa_beta = Delta_beta / order_bound(beta, f_alpha,
    shots) = Delta_beta * M**(beta/2) * f_alpha**(beta/alpha).

    Values below 1 indicate a violated order-beta bound.  Moments, orders,
    informations and shots broadcast; scalars give a float.  Raises
    UndefinedRatioError where f_alpha vanishes.
    """
    if np.any(np.asarray(f_alpha) <= 0.0):
        raise UndefinedRatioError(
            "saturation ratio undefined: generalized Fisher information vanishes"
        )
    value = np.asarray(delta_beta, dtype=float) / order_bound(beta, f_alpha, shots)
    return float(value) if value.ndim == 0 else value


def _moment_orders(betas) -> np.ndarray:
    """The moment orders a report on betas needs: the validated orders
    themselves and 2, the Gaussianity ratios' reference, ascending."""
    # np.union1d, through np.unique, would import numpy.ma (half a megabyte)
    return np.array(sorted({*_check_orders(betas).tolist(), 2.0}))


def _block_reports(
    phi_hat: np.ndarray,
    moments: np.ndarray,
    shots: np.ndarray,
    params: ModelParams,
    betas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta_beta, kappa_beta and Gaussianity ratios, each (E, len(betas)),
    from the phi_hat (E,) and the moments (E, len(_moment_orders(betas))) of
    posteriors with the given shot counts.

    f_alpha is taken at each row's phi_hat, from one model evaluation for all
    rows and orders; rows with ``nan`` phi_hat (infeasible counts) are left
    out of it and get ``nan`` throughout.  kappa is ``nan`` when there are no
    shots or f_alpha is undefined (beta = 1) or vanishes; the Gaussianity
    ratio is ``nan`` when Delta_2 = 0.
    """
    betas = _check_orders(betas)
    orders = _moment_orders(betas)
    deltas = moments[:, np.searchsorted(orders, betas)]
    d2 = moments[:, np.searchsorted(orders, 2.0)]
    feasible = ~np.isnan(phi_hat)
    bounded = betas > 1.0
    # (E, len(betas)); 0 marks no information: beta = 1 and infeasible rows
    infos = np.zeros(deltas.shape)
    infos[np.ix_(feasible, bounded)] = generalized_fisher(
        conjugate_exponent(betas[bounded]), phi_hat[feasible], params).T
    rows, cols = np.nonzero((shots[:, np.newaxis] > 0) & (infos > 0.0))
    kappas = np.full(deltas.shape, math.nan)
    kappas[rows, cols] = kappa(deltas[rows, cols], infos[rows, cols], shots[rows], betas[cols])
    spread = d2 > 0.0
    ratios = np.full(deltas.shape, math.nan)
    ratios[spread] = deltas[spread] / gaussian_abs_moment(betas, np.sqrt(d2[spread])[:, np.newaxis])
    return deltas, kappas, ratios


class CountsReport(NamedTuple):
    """The analysis of an (E, 4) counts table, one row per counts row.

    An infeasible row, whose counts are impossible at every grid node, is
    ``nan`` throughout.  ``nan`` also marks a kappa without shots or
    information and a Gaussianity ratio of a posterior without spread.
    """

    feasible: np.ndarray      # (E,)
    phi_hat: np.ndarray       # (E,) posterior means
    deltas: np.ndarray        # (E, n_beta) absolute moments Delta_beta
    kappas: np.ndarray        # (E, n_beta) saturation ratios kappa_beta
    gauss_ratios: np.ndarray  # (E, n_beta) Delta_beta / Delta_beta(Gaussian)


def report_counts(
    counts,
    params: ModelParams,
    domain: PhaseDomain = DEFAULT_DOMAIN,
    betas=DEFAULT_BETAS,
) -> CountsReport:
    """phi_hat and, for each order beta, Delta_beta, the saturation ratio
    kappa_beta and the Gaussianity ratio Delta_beta / Delta_beta(Gaussian at
    sigma = sqrt(Delta_2)) for each row of an (E, 4) counts table under params.

    A row's shot count M is its count sum, taken in int64 before the
    conversion to float, so that each row gets the float nearest its M.
    f_alpha is taken at each row's phi_hat.  A row's results do not depend
    on the other rows.  Validates the counts (`gcrb.model.check_counts`) and
    the orders.
    """
    counts = check_counts(counts)
    if counts.ndim != 2:
        raise ValueError(f"counts must be an (E, {N_SETTINGS}) table, got shape {counts.shape}")
    shots = counts.sum(axis=1).astype(float)
    feasible, phi_hat, moments = _evaluate_counts(counts, params, domain, _moment_orders(betas))
    return CountsReport(feasible, phi_hat, *_block_reports(phi_hat, moments, shots, params, betas))
