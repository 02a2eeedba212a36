"""Posterior over the phase and its absolute central moments.

Under a flat prior on the domain the posterior of one counts row is

    p(phi | x)  propto  L(phi) = prod_k p(theta_k | phi)^counts_k,

and each row is reduced to its mean phi_hat and absolute central moments
Delta_beta = integral of |phi - phi_hat|**beta * p(phi | x) (`_evaluate_counts`):

1. Scan.  log L is taken on the domain grid, `PhaseDomain.grid_points`
   nodes, for blocks of rows.  A node is live within 100 nats of its row's
   peak (`_LOG_FLOOR`).  A piece is a run of live nodes, split at each
   interior local minimum of the scanned values so that it has one lobe; a
   run end is padded out to its dead neighbour node, and a split node is
   shared by its two pieces.  Lobes closer than a few grid spacings merge
   into one piece: the grid sets the resolution of the scan and nothing
   else.  A row whose likelihood is zero at every grid node is infeasible.
2. Narrow pieces.  A whole run of at most _NARROW_NODES live nodes holds a
   posterior narrower than 0.6 grid spacings.  Newton steps from its best
   node find the mode, and the piece shrinks to where the quadratic model of
   log L there has dropped by _NARROW_DROP nats, 14.5 sd either side of an
   interior mode.
3. Quadrature.  log L is taken relative to each piece's reference point,
   its best node or its mode, in log1p form (`_log_ratio`), so that no two
   log likelihoods of size M are subtracted; a row's pieces are put on one
   scale by the same ratio between their reference points.  Integrals run
   over segments substituted phi = anchor + (end - anchor) s**2, with a
   Gauss-Legendre rule in s.  The normaliser and phi_hat take the segments
   either side of the reference point, so a density cut off at its peak by
   a domain end gets its nodes there.  The moments split each piece at its
   reference point and at phi_hat and anchor each segment at one of them:
   |phi - phi_hat|**beta is smooth in s and one set of nodes serves every
   order, so the kink at phi_hat is the end of a rule, not a point to fit.

The rules come from the Jacobi matrix of the Legendre polynomials (Golub &
Welsch, Math. Comp. 23 (1969) 221) at import, before any fork.  Every
operation is elementwise or a reduction over one row's own pieces, so a
row's results are the same bits whichever rows share its block.

`report_counts` is the analysis routine of the library and of `gcrb analyze`:
it takes an (E, 4) counts table to feasibility, phi_hat, Delta_beta,
kappa_beta and Gaussianity ratios, one row per counts row.  It chains
`_evaluate_counts`, which `simulate` shares, with `_block_reports`, which
adds the kappa and Gaussianity columns.  `gaussian_abs_moment` and `kappa`
broadcast over orders, so the reports are array expressions over the
(E, n_beta) columns; kappa is Delta_beta over `gcrb.fisher.order_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .model import (N_SETTINGS, PI, ModelParams, check_counts, is_real, outcome_dprobs,
                    outcome_probs)

DEFAULT_GRID_POINTS = 4096

# grid_points above this are a configuration error: the grid and each
# (4, grid_points) log-probability table are allocated before any row is
# read, and 2**20 points, 256x the default, already take 32 MiB per table
MAX_GRID_POINTS = 2 ** 20

# moment orders analyzed when none are given
DEFAULT_BETAS = (1.5, 2.0, 3.0, 4.0)

# a node is live within this many nats of its row's peak.  e**-100 is about
# 3.7e-44: beyond a padded run end the density stays below that share of
# its peak, below 1e-39 of the mass of any posterior wider than a tenth of a
# grid spacing; narrower ones are narrow pieces (_NARROW_DROP)
_LOG_FLOOR = -100.0

# scanned log likelihoods per block, 1 MiB: 32 rows of the default grid
_SCAN_ELEMENTS = 2 ** 17

# rows whose pieces are integrated together: enough to amortise the numpy
# calls of `_integrate`, few enough that its (pieces, nodes) temporaries
# stay near 100 KiB each
_BATCH_ROWS = 128

# whole runs of at most this many live nodes are narrow (step 2 above).  A
# Gaussian's live nodes span 28 sd, so any other piece is at most 32 sd wide
# with its padding; over a narrow piece, at most 8.7 grid spacings wide, the
# quadratic model of log L misses the drop by a few parts in 10**3
_NARROW_NODES = 16

# Newton steps to a narrow piece's mode, each at most one grid spacing
_NEWTON_STEPS = 6

# drop of the quadratic model of log L at a narrow piece's ends, in nats:
# sqrt(2 * 105) = 14.5 sd from an interior mode
_NARROW_DROP = 105.0

# Gauss-Legendre nodes per segment (step 3 above): the normaliser's two per
# piece, the moments' two outer ones and the one between the reference point
# and phi_hat, short unless the row has several pieces.  A lobe with a far
# shoulder was 1e-7 off with 32 normaliser nodes and 3e-10 with 48 moment
# nodes; with these, 18,500 rows of the ingest recipe, random tallies and
# domain-end rows agree with a dense quadrature within 6e-11, though rows of
# two nearly merged lobes at v near 1 can still be off by about 4e-9
_PIECE_NODES = 48
_MOMENT_NODES = 56
_MIDDLE_NODES = 16


@dataclass(frozen=True)
class PhaseDomain:
    """One prior support interval (at most one model period) and the grid
    that scans it for posterior mass."""

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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, 1].

    The nodes on [-1, 1] are the eigenvalues of the Jacobi matrix of the
    Legendre polynomials, and the weights twice the squared first components
    of its eigenvectors (Golub & Welsch 1969).  The rule is symmetric, and
    averaging it with its mirror image removes the eigensolver's asymmetric
    rounding.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return 0.25 * (nodes - nodes[::-1]) + 0.5, 0.5 * (weights + weights[::-1])


def _rule(*sizes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on [0, 1] of the given sizes side by side: their
    nodes, weights and the segment of each node."""
    rules = [_gauss_legendre(n) for n in sizes]
    return (np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules]),
            np.repeat(np.arange(len(sizes)), sizes))


_PIECE_RULE = _rule(_PIECE_NODES, _PIECE_NODES)
_MOMENT_RULE = _rule(_MOMENT_NODES, _MOMENT_NODES, _MIDDLE_NODES)


@lru_cache(maxsize=16)
def _log_prob_grid(domain: PhaseDomain, params: ModelParams) -> tuple[np.ndarray, tuple]:
    """log p(outcome | phi) over the domain grid, with 0 where p is 0, and
    the (outcome, node mask) pairs of those zeros."""
    probs = outcome_probs(domain.grid(), params)
    zero = probs == 0.0
    logp = np.log(np.where(zero, 1.0, probs))
    logp.setflags(write=False)
    return logp, tuple((k, zero[k]) for k in range(N_SETTINGS) if zero[k].any())


def _pieces(counts: np.ndarray, domain: PhaseDomain, params: ModelParams):
    """Scan count rows for their pieces (step 1 of the module notes).

    Returns the mask of feasible rows and, for each piece of those rows in
    row and then phase order, its row, its first and last grid node, padded,
    its best node and whether it is narrow.  Only the outcomes that were
    counted enter log L: that is the 0 * log 0 = 0 convention, and an empty
    tally is live everywhere.
    """
    logp, zeros = _log_prob_grid(domain, params)
    points = domain.grid_points
    size = max(1, _SCAN_ELEMENTS // points)
    # a last column that stays -inf keeps each run of live nodes within its
    # row of the flattened block
    loglik = np.full((min(size, counts.shape[0]), points + 1), -np.inf)
    feasible, found = [], []
    for i in range(0, counts.shape[0], size):
        block = counts[i:i + size]
        scan = loglik[:block.shape[0]]
        # one vector-matrix product per row, so that a row's values do not
        # depend on its blockmates
        for c, out in zip(block, scan):
            np.dot(c, logp, out=out[:points])
        for k, nodes in zeros:
            scan[np.ix_(block[:, k] > 0, np.flatnonzero(nodes))] = -np.inf
        peak = scan.max(axis=1)
        feasible.append(np.isfinite(peak))
        # an infeasible row has no live node
        peak[~feasible[-1]] = np.inf
        live = np.flatnonzero(scan >= (peak + _LOG_FLOOR)[:, np.newaxis])
        values = scan.ravel()[live]
        start = np.ones(live.size + 1, dtype=bool)
        start[1:-1] = live[1:] != live[:-1] + 1
        starts = np.flatnonzero(start[:-1])
        # interior local minima: a step down and then none, within one run
        down = values[1:] < values[:-1]
        dips = np.flatnonzero(down[:-1] & ~down[1:]) + 1
        dips = dips[~start[dips] & ~start[dips + 1]]
        first = np.sort(np.concatenate([starts, dips]))
        last = np.sort(np.concatenate([dips, np.flatnonzero(start[1:])]))
        # run ends, not split nodes, are padded out to their dead neighbours
        opens, closes = start[first], start[last + 1]
        row, lo = np.divmod(live[first], points + 1)
        hi = live[last] % (points + 1)
        lo -= opens & (lo > 0)
        hi += closes & (hi < points - 1)
        narrow = opens & closes & (last - first < _NARROW_NODES)
        # a piece rises and then falls, so its best node is the first one
        # followed by a step down, or its last
        falls = np.append(np.flatnonzero(down), live.size)
        best = np.minimum(falls[np.searchsorted(falls, first)], last)
        found.append((i + row, lo, hi, live[best] % (points + 1), narrow))
    return (np.concatenate(feasible), *(np.concatenate(column) for column in zip(*found)))


def _log_ratio(counts: np.ndarray, scale: np.ndarray, ref: np.ndarray,
               delta: np.ndarray) -> np.ndarray:
    """log L(ref + delta) - log L(ref) for pieces with (P, 4) counts, (P,)
    reference points and (P, n) offsets from them.

    scale is v / (1 + v s_k(ref)), 0 for outcomes not counted.  The fringe
    differences come from the difference formulas
    cos 2(r + d) - cos 2r = -2 sin d (cos 2r sin d + sin 2r cos d) and
    sin 2(r + d) - sin 2r = 2 sin d (cos 2r cos d - sin 2r sin d), so each
    term c_k log1p(scale_k ds_k) keeps its relative precision however large
    c_k.  An argument rounded below -1, at a zero of p_k, is read as -1:
    density 0.
    """
    sin_d, cos_d = np.sin(delta), np.cos(delta)
    cos_r, sin_r = np.cos(2.0 * ref)[:, np.newaxis], np.sin(2.0 * ref)[:, np.newaxis]
    sin_d *= 2.0
    diffs = (-sin_d * (cos_r * (0.5 * sin_d) + sin_r * cos_d),
             sin_d * (cos_r * cos_d - sin_r * (0.5 * sin_d)))
    total = np.zeros(delta.shape)
    term = np.empty(delta.shape)
    for k in range(N_SETTINGS):
        np.multiply(scale[:, k:k + 1] if k < 2 else -scale[:, k:k + 1], diffs[k % 2], out=term)
        np.maximum(term, -1.0, out=term)
        with np.errstate(divide="ignore"):
            np.log1p(term, out=term)
        term *= counts[:, k:k + 1]
        total += term
    return total


def _ratio_scale(counts: np.ndarray, ref: np.ndarray, params: ModelParams) -> np.ndarray:
    """The (P, 4) scale of `_log_ratio` at the reference points; each ref
    has p_k > 0 for every counted outcome."""
    probs = outcome_probs(ref, params).T
    counted = counts > 0.0
    return np.where(counted, params.visibility / np.where(counted, 4.0 * probs, 1.0), 0.0)


def _narrow(counts, params, lo, hi, best, h):
    """The modes of narrow pieces and their intervals shrunk to where the
    quadratic model of log L has dropped by _NARROW_DROP nats (step 2 of the
    module notes).  A piece whose curvature is not negative keeps its
    interval."""
    counted = counts.T > 0.0

    def slope_curvature(phi):
        probs, dprobs = outcome_probs(phi, params), outcome_dprobs(phi, params)
        safe = np.where(counted, probs, 1.0)
        score = np.where(counted, dprobs / safe, 0.0)
        # p_k'' = 1 - 4 p_k
        curv = np.where(counted, (1.0 - 4.0 * probs) / safe, 0.0) - score * score
        return (counts.T * score).sum(axis=0), (counts.T * curv).sum(axis=0)

    def possible(phi):
        return ~(counted & (outcome_probs(phi, params) == 0.0)).any(axis=0)

    mode = best
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            slope, curv = slope_curvature(mode)
            step = np.where(curv < 0.0, -slope / curv, np.copysign(h, slope))
            trial = np.clip(mode + np.clip(step, -h, h), lo, hi)
            # a step onto a zero of a counted outcome's probability goes
            # halfway instead
            mode = np.where(possible(trial), trial, 0.5 * (mode + trial))
        slope, curv = slope_curvature(mode)
        root = np.sqrt(slope * slope - 2.0 * _NARROW_DROP * curv)
        reach = []
        for g in (-slope, slope):
            # the positive root x of g x + curv x**2 / 2 = -_NARROW_DROP
            reach.append(np.where(g > 0.0, (g + root) / -curv,
                                  2.0 * _NARROW_DROP / (root - g)))
        keep = ~(curv < 0.0)
        lo = np.where(keep, lo, np.maximum(lo, mode - reach[0]))
        hi = np.where(keep, hi, np.minimum(hi, mode + reach[1]))
    return mode, lo, hi


def _check_orders(beta) -> np.ndarray:
    """One moment order or an array of them as floats; each must be a finite
    real >= 1 (numpy reals included, bools not)."""
    betas = np.asarray(beta)
    if not (betas.dtype.kind in "iuf" and ((betas >= 1.0) & (betas < math.inf)).all()):
        raise ValueError(f"moment order must be a finite real >= 1, got {beta!r}")
    return betas.astype(float)


def _integrate(counts, params, row, lo, hi, ref, betas):
    """phi_hat and Delta_beta (rows, len(betas)) of the rows of pieces
    (step 3 of the module notes) with (P, 4) counts, their rows, ascending,
    and their intervals and reference points."""
    scale = _ratio_scale(counts, ref, params)
    head = np.ones(row.size, dtype=bool)
    head[1:] = row[1:] != row[:-1]
    heads = np.flatnonzero(head)
    rows = np.cumsum(head) - 1
    base = ref[heads][rows]
    # each piece's level at its reference point, the row's highest at 0
    level = _log_ratio(counts, _ratio_scale(counts, base, params), base,
                       (ref - base)[:, np.newaxis])[:, 0]
    level -= np.maximum.reduceat(level, heads)[rows]

    def segments(anchor, end, rule):
        """phi - ref and the density times the rule's weight at
        phi = anchor + (end - anchor) * s**2, s in [0, 1], on (P, m)
        segments, each (P, nodes).  The substitution makes a segment smooth
        in s where its anchor is phi_hat, the kink of the moments."""
        nodes, weights, segment = rule
        span = (end - anchor)[:, segment]
        delta = (anchor - ref[:, np.newaxis])[:, segment] + span * nodes * nodes
        mass = np.exp(_log_ratio(counts, scale, ref, delta) + level[:, np.newaxis])
        # d phi = 2 (end - anchor) s ds
        mass *= np.abs(span) * (2.0 * nodes * weights)
        return delta, mass

    # normaliser and phi_hat
    delta, mass = segments(np.stack([ref, ref], axis=1), np.stack([lo, hi], axis=1),
                           _PIECE_RULE)
    norm = np.add.reduceat(mass.sum(axis=1), heads)
    first = ((ref - base)[:, np.newaxis] + delta) * mass
    phi_hat = ref[heads] + np.add.reduceat(first.sum(axis=1), heads) / norm

    # moments: a piece that holds phi_hat is split there too
    center = phi_hat[rows]
    kink = np.where((lo < center) & (center < hi), center, ref)
    near, far = np.minimum(kink, ref), np.maximum(kink, ref)
    delta, kernel = segments(np.stack([near, far, kink], axis=1),
                             np.stack([lo, hi, near + far - kink], axis=1), _MOMENT_RULE)
    dist = np.abs(delta - (center - ref)[:, np.newaxis])
    # one scalar power per order: with an array of orders np.power takes
    # x * x for some rows and pow(x, 2) for others, depending on the shape
    moments = np.stack([(np.power(dist, b) * kernel).sum(axis=1) for b in betas.tolist()])
    deltas = np.add.reduceat(moments, heads, axis=1) / norm
    return phi_hat, deltas.T


def _evaluate_counts(
    counts: np.ndarray,
    params: ModelParams,
    domain: PhaseDomain,
    betas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """feasible (E,), phi_hat (E,) and Delta_beta (E, len(betas)) for each row
    of an (E, 4) counts table under params; an infeasible row, whose counts
    are impossible at every grid node, has ``nan`` phi_hat and deltas.

    Rows are scanned and integrated in blocks (module notes); a row's
    results do not depend on its blockmates.  The orders must be validated
    by the caller.
    """
    counts = np.asarray(counts, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n = counts.shape[0]
    feasible = np.zeros(n, dtype=bool)
    phi_hat = np.full(n, math.nan)
    deltas = np.full((n, betas.size), math.nan)
    grid = domain.grid()
    for i in range(0, n, _BATCH_ROWS):
        batch = counts[i:i + _BATCH_ROWS]
        ok, row, lo, hi, ref, narrow = _pieces(batch, domain, params)
        feasible[i:i + _BATCH_ROWS] = ok
        if not row.size:
            continue
        piece_counts = batch[row]
        lo, hi, ref = grid[lo], grid[hi], grid[ref]
        if narrow.any():
            ref[narrow], lo[narrow], hi[narrow] = _narrow(
                piece_counts[narrow], params, lo[narrow], hi[narrow], ref[narrow],
                domain.spacing)
        # every feasible row has a piece, the one of its peak
        rows = i + np.flatnonzero(ok)
        phi_hat[rows], deltas[rows] = _integrate(piece_counts, params, row, lo, hi, ref, betas)
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
