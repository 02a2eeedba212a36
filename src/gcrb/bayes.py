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
where the refined panels meet the plain rule; see `_block_moments`.

`report_counts` is the analysis routine of the library and of `gcrb analyze`:
it takes an (E, 4) counts table to feasibility, phi_hat, Delta_beta,
kappa_beta and Gaussianity ratios, one row per counts row.  It chains
`_evaluate_counts`, which `simulate` shares and which gives feasibility,
phi_hat and Delta_beta, with `_block_reports`, which adds the kappa and
Gaussianity columns.  `gaussian_abs_moment` and `kappa` broadcast over orders,
so the reports are array expressions over the (E, n_beta) columns; kappa is
Delta_beta over `gcrb.fisher.order_bound`.

Posteriors and moments are computed for blocks of rows at once
(`_block_posterior`, `_block_moments`), each row on its own window of the
grid.  Nodes more than 100 nats below their row's peak (`_LOG_FLOOR`) get
density exactly 0.  A first pass (`_find_windows`) takes each row's log
likelihood over the whole grid and finds its live leaves: aligned runs of
128 nodes (`_LEAF_NODES`) with a node above the floor.  A row's window runs
from its first to its last live leaf, widened to one of a short ladder of
widths; rows of one width share a block, and all the elementwise work (the
log likelihood again, exp, the normalising divide, phi * p, |t|**beta and
the kernel products) runs on the block's (rows, width) array.  Each sum adds
the window's leaf sums in the tree that numpy's pairwise summation uses on
the zero-padded grid row (`_Windows.trapezoid`), so a row's results are the
bits of its whole-grid evaluation whatever block it shares.  On a grid that
is not 128 * 2**k nodes the whole row is one leaf, and so every window.
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

# grid_points above this are a configuration error: the grid and each
# (4, grid_points) log-probability table are allocated before any row is
# read, and 2**20 points, 256x the default, already take 32 MiB per table
MAX_GRID_POINTS = 2 ** 20

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

# nodes per leaf of numpy's pairwise float sum: a row is summed in aligned
# blocks of 128, whose sums are then added in a balanced tree (see
# _Windows.trapezoid)
_LEAF_NODES = 128

# doubles per (block rows x window nodes) array, 1 MiB: 32 rows of a whole
# 4,096-node grid row, more rows of narrower windows.  A block makes about
# 90 numpy calls whatever its size, and blocks of this size amortise them
_BLOCK_ELEMENTS = 2 ** 17

# rows per block at most.  The kink refinement's temporaries grow with the
# rows whatever their windows' width; with 64 rows a block of windows
# narrower than 2,048 nodes (a 2,000-shot posterior's is 1,024 to 1,536)
# holds its three (rows x window) arrays and those temporaries in about 2 MB
_BLOCK_ROWS = 64


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
        points = self.grid_points
        if not (is_real(points) and math.isfinite(points) and points == int(points)
                and 64 <= points <= MAX_GRID_POINTS):
            raise ValueError(f"grid_points must be an integer in [64, {MAX_GRID_POINTS}], "
                             f"got {points!r}")
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


def _leaf_nodes(points: int) -> int:
    """Nodes per summation leaf of a grid row: _LEAF_NODES on a grid of
    _LEAF_NODES * 2**k nodes, and the whole row on any other grid."""
    leaves = points // _LEAF_NODES
    if points % _LEAF_NODES == 0 and leaves & (leaves - 1) == 0:
        return _LEAF_NODES
    return points


def _window_widths(leaves: int) -> np.ndarray:
    """The window widths, in leaves, that rows are grouped by: 1, 2, 3, 4,
    6, 8, 12, ... below a grid row's leaf count, then the whole row."""
    steps = {m << k for k in range(leaves.bit_length()) for m in (1, 3)}
    return np.array(sorted({w for w in steps if w < leaves} | {leaves}))


class _Windows:
    """Windows of whole leaves (`_leaf_nodes`) on the rows of a block: row i
    holds grid nodes starts[i] .. starts[i] + width - 1 of a grid row of
    `points` nodes, and is 0 outside them."""

    def __init__(self, starts: np.ndarray, width: int, points: int) -> None:
        self.starts, self.width, self.points = starts, width, points
        self.leaf = _leaf_nodes(points)
        leaves = points // self.leaf
        # the place of each window leaf among the block's grid leaves, flat
        self._places = ((np.arange(starts.size) * leaves + starts // self.leaf)[:, np.newaxis]
                        + np.arange(width // self.leaf)).ravel()
        self._first = starts == 0
        self._last = starts + width == points

    @classmethod
    def whole(cls, rows: int, points: int) -> _Windows:
        """Windows that are each row's whole grid row."""
        return cls(np.zeros(rows, dtype=np.intp), points, points)

    def trapezoid(self, values: np.ndarray, spacing: float) -> np.ndarray:
        """Trapezoidal integral of each row of an (E, width) block.

        It has the bits of the rule over the zero-padded grid row: numpy sums
        a row by adding aligned leaves and then the leaf sums in a balanced
        tree, so the window's leaf sums take their places among zero leaves
        and go through the same tree.
        """
        rows = values.shape[0]
        sums = np.zeros(rows * (self.points // self.leaf))
        sums[self._places] = values.reshape(-1, self.leaf).sum(axis=-1)
        sums = sums.reshape(rows, -1)
        while sums.shape[1] > 1:
            sums = sums[:, 0::2] + sums[:, 1::2]
        ends = np.where(self._first, values[:, 0], 0.0) + np.where(self._last, values[:, -1], 0.0)
        return spacing * (sums[:, 0] - 0.5 * ends)

    def at(self, block: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The values of an (E, width) block at grid nodes, an (E, ...) array
        of node indices; nodes outside a row's window read 0."""
        rows = np.arange(block.shape[0]).reshape((-1,) + (1,) * (nodes.ndim - 1))
        local = nodes - self.starts.reshape(rows.shape)
        inside = (local >= 0) & (local < self.width)
        return np.where(inside, block[rows, np.where(inside, local, 0)], 0.0)


def _check_densities(dens: np.ndarray, spacing: float, windows: _Windows | None = None) -> None:
    """The posterior contract, row by row: finite, non-negative, unit mass;
    by default each row is a whole grid row."""
    if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
        raise ValueError("densities must be finite and non-negative")
    if windows is None:
        windows = _Windows.whole(*dens.shape)
    integrals = windows.trapezoid(dens, spacing)
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


def _log_likelihoods(
    counts: np.ndarray, logp: np.ndarray, windows: _Windows, out: np.ndarray
) -> None:
    """Each count row's log likelihood on its window of logp's columns, into
    the rows of out.  Only the outcomes that were counted enter: that is the
    0 * log 0 = 0 convention, and an empty tally gives 0 everywhere."""
    active = counts > 0
    width = windows.width
    for row, c, used, every, start in zip(out, counts, active, active.all(axis=1).tolist(),
                                          windows.starts.tolist()):
        cols = logp[:, start:start + width]
        if every:
            np.matmul(c, cols, out=row)
        elif used.any():
            np.matmul(c[used], cols[used], out=row)
        else:
            row.fill(0.0)


def _find_windows(
    counts: np.ndarray, params: ModelParams, domain: PhaseDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's window of the grid: its first node and its width in nodes,
    both whole leaves (`_leaf_nodes`).

    A leaf is live when its largest log likelihood minus the row's peak is
    at least _LOG_FLOOR; rounded subtraction is monotone, so that is when
    one of its nodes is live.  The window runs from the first to the last
    live leaf, widened to the next of `_window_widths` and moved back where
    it would pass the grid's end.  An infeasible row, impossible at every
    node, gets the whole grid, as its flat placeholder density does.
    """
    logp = _log_prob_grid(domain, params)
    points = domain.grid_points
    leaf = _leaf_nodes(points)
    leaves = points // leaf
    n = counts.shape[0]
    live = np.empty((n, leaves), dtype=bool)
    size = max(1, _BLOCK_ELEMENTS // points)
    loglik = np.empty((min(size, n), points))
    for i in range(0, n, size):
        block = loglik[:min(size, n - i)]
        _log_likelihoods(counts[i:i + size], logp, _Windows.whole(block.shape[0], points), block)
        leaf_max = block.reshape(block.shape[0], leaves, leaf).max(axis=-1)
        peak = leaf_max.max(axis=-1, keepdims=True)
        feasible = np.isfinite(peak)
        live[i:i + size] = (leaf_max - np.where(feasible, peak, 0.0) >= _LOG_FLOOR) | ~feasible
    first = live.argmax(axis=1)
    count = leaves - live[:, ::-1].argmax(axis=1) - first
    widths = _window_widths(leaves)
    width = widths[np.searchsorted(widths, count)]
    return np.minimum(first, leaves - width) * leaf, width * leaf


def _block_posterior(
    counts: np.ndarray,
    params: ModelParams,
    domain: PhaseDomain,
    windows: _Windows | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior densities of a block of tallies, one row per (4,) count row,
    on their windows of the grid, by default the whole grid.

    A window must hold every node of its row within _LOG_FLOOR of the peak,
    as `_find_windows`' do; the density is 0 outside it.  Returns the
    (E, width) densities and the (E,) mask of feasible rows.  A row whose
    counts have zero likelihood at every grid node is infeasible: it is
    masked out and holds a flat placeholder density instead of raising for
    the whole block.
    """
    counts = np.asarray(counts, dtype=float)
    if windows is None:
        windows = _Windows.whole(counts.shape[0], domain.grid_points)
    dens = np.empty((counts.shape[0], windows.width))
    _log_likelihoods(counts, _log_prob_grid(domain, params), windows, dens)
    peak = dens.max(axis=1)
    feasible = np.isfinite(peak)
    dens[~feasible] = 0.0
    peak[~feasible] = 0.0
    np.subtract(dens, peak[:, np.newaxis], out=dens)
    live = dens >= _LOG_FLOOR
    # raising the dead nodes to the floor keeps exp off its slow underflow
    # path; the mask then zeroes them exactly
    np.maximum(dens, _LOG_FLOOR, out=dens)
    np.exp(dens, out=dens)
    dens *= live
    np.divide(dens, windows.trapezoid(dens, domain.spacing)[:, np.newaxis], out=dens)
    _check_densities(dens, domain.spacing, windows)
    return dens, feasible


def _check_orders(beta) -> np.ndarray:
    """One moment order or an array of them as floats; each must be a finite
    real >= 1 (numpy reals included, bools not)."""
    betas = np.asarray(beta)
    if not (betas.dtype.kind in "iuf" and ((betas >= 1.0) & (betas < math.inf)).all()):
        raise ValueError(f"moment order must be a finite real >= 1, got {beta!r}")
    return betas.astype(float)


def _block_moments(
    dens: np.ndarray,
    domain: PhaseDomain,
    betas,
    windows: _Windows | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """phi_hat per row, shape (E,), and Delta_beta = integral of
    |phi - phi_hat|**beta * p(phi | x) per row and order, shape (E, len(betas)).

    Each row of the (E, width) densities is its window of the grid, by
    default the whole grid, and the density is 0 outside it; so are the
    integrands, which are evaluated on the windows only.  Each integral is
    the trapezoidal rule over the whole zero-padded row
    (`_Windows.trapezoid`), except on the 2 * _KINK_PANELS
    panels around the row's kink (fewer where they are clipped at the
    domain edges).  There the density is replaced by the
    cubic through the four nodes around each panel, whose product with
    |t|**beta, t = phi - phi_hat, integrates in closed form:
    t**p * |t|**beta has the antiderivative |t|**(beta+p+1) / (beta+p+1),
    signed for even p.  Euler-Maclaurin h^2/12 slope terms join the refined
    panels to the plain rule; the outer domain endpoints keep the uncorrected
    trapezoidal convention.  Kink, fit and edge nodes outside a row's window
    are dead nodes and read 0 (`_Windows.at`).  The orders must be validated
    by the caller.
    """
    grid, h, n = domain.grid(), domain.spacing, domain.grid_points
    if windows is None:
        windows = _Windows.whole(dens.shape[0], n)
    # each row's grid nodes, then |t|; one workspace for phi * p and then
    # each kernel
    abs_t = np.lib.stride_tricks.sliding_window_view(grid, windows.width)[windows.starts]
    work = np.multiply(abs_t, dens)
    centers = windows.trapezoid(work, h)
    np.subtract(abs_t, centers[:, np.newaxis], out=abs_t)
    np.abs(abs_t, out=abs_t)

    # kink nodes j-3 .. j+5 bound the refined panels j-3 .. j+4 around the
    # kink in panel j; panels outside [0, n-2] are masked
    j = np.clip(np.searchsorted(grid, centers) - 1, 0, n - 2)
    nodes = j[:, np.newaxis] + np.arange(1 - _KINK_PANELS, _KINK_PANELS + 2)
    in_kink = (nodes[:, :-1] >= 0) & (nodes[:, :-1] <= n - 2)
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
    coeffs = np.linalg.solve(vander, windows.at(dens, fit)[..., np.newaxis])[..., 0]
    coeffs /= np.array([h ** p for p in range(4)])

    # closed-form integrals of the refined panels for every order at once:
    # (orders, rows, kink nodes, p)
    powers = np.add.outer(np.asarray(betas), np.arange(1.0, 5.0))[:, np.newaxis, np.newaxis, :]
    anti = np.abs(t_nodes)[np.newaxis, ..., np.newaxis] ** powers / powers
    anti[..., 0::2] = np.copysign(anti[..., 0::2], t_nodes[np.newaxis, ..., np.newaxis])
    panel_integrals = (coeffs * (anti[:, :, 1:] - anti[:, :, :-1])).sum(axis=-1)
    refined = np.where(in_kink, panel_integrals, 0.0).sum(axis=-1)

    # Euler-Maclaurin slope terms at the refined panels' edges j-3 (lo > 0)
    # and j+5 (hi < n-2), with central-difference density slopes
    edges = np.stack([j + 1 - _KINK_PANELS, j + 1 + _KINK_PANELS], axis=1)
    edge_sign = np.where((edges > 0) & (edges < n - 1), [-1.0, 1.0], 0.0)
    edges = np.clip(edges, 1, n - 2)
    t_edges = grid[edges] - centers[:, np.newaxis]
    # the density at each edge node and at its two neighbours
    near = windows.at(dens, edges[..., np.newaxis] + np.arange(-1, 2))
    drho = (near[..., 2] - near[..., 0]) / (2.0 * h)
    b_edges = np.asarray(betas)[:, np.newaxis, np.newaxis]
    slope = (b_edges * np.abs(t_edges) ** (b_edges - 1.0) * np.copysign(1.0, t_edges)
             * near[..., 1] + np.abs(t_edges) ** b_edges * drho)
    edge_terms = (h * h / 12.0 * slope * edge_sign).sum(axis=-1)

    deltas = np.empty((len(betas), dens.shape[0]))
    for i, b in enumerate(betas):
        # the same kernel values enter the plain rule and the refined panels
        # it gives back
        np.power(abs_t, b, out=work)
        work *= dens
        k_nodes = windows.at(work, nodes)
        replaced = np.where(in_kink, k_nodes[:, :-1] + k_nodes[:, 1:], 0.0).sum(axis=-1)
        deltas[i] = windows.trapezoid(work, h) - h * 0.5 * replaced
    deltas += refined
    deltas += edge_terms
    return centers, deltas.T


def _evaluate_counts(
    counts: np.ndarray,
    params: ModelParams,
    domain: PhaseDomain,
    betas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """feasible (E,), phi_hat (E,) and Delta_beta (E, len(betas)) for each row
    of an (E, 4) counts table under params; an infeasible row, whose counts
    are impossible at every grid node, has ``nan`` phi_hat and deltas.

    Each row is evaluated on its own window of the grid (`_find_windows`), in
    blocks of rows of one window width within _BLOCK_ELEMENTS; results go
    back by row.  A row's results are the bits of its whole-grid evaluation
    in any block, so the grouping affects only the speed.  The orders must
    be validated by the caller.
    """
    counts = np.asarray(counts, dtype=float)
    n = counts.shape[0]
    feasible = np.zeros(n, dtype=bool)
    phi_hat = np.full(n, math.nan)
    deltas = np.full((n, len(betas)), math.nan)
    starts, widths = _find_windows(counts, params, domain)
    for width in sorted(set(widths.tolist())):
        group = np.flatnonzero(widths == width)
        size = max(1, min(_BLOCK_ELEMENTS // width, _BLOCK_ROWS))
        for rows in (group[i:i + size] for i in range(0, group.size, size)):
            windows = _Windows(starts[rows], width, domain.grid_points)
            dens, ok = _block_posterior(counts[rows], params, domain, windows)
            centers, moments = _block_moments(dens, domain, betas, windows)
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
