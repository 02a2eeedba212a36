"""Posterior over the phase and its absolute central moments.

Under a flat prior on the domain the posterior of one counts row is

    p(phi | x)  propto  L(phi) = prod_k p(theta_k | phi)^counts_k,

and each row is reduced to its mean phi_hat and absolute central moments
Delta_beta = integral of |phi - phi_hat|**beta * p(phi | x) (`_evaluate_counts`):

1. Split points.  With u = 2 phi, d log L / d phi times
   (1 - v**2 cos**2 u)(1 - v**2 sin**2 u) is a trigonometric polynomial P of
   degree 4 in u, in t = tan((u - u0) / 2) one of degree 8 over
   (1 + t**2)**4, whose roots are the eigenvalues of its companion matrix;
   u0 + pi is the largest of 16 samples of P, so that the leading
   coefficient is not small.  The real parts of all 8 roots, complex ones
   included so that a double root blurred into a near-real pair still
   splits, mapped into the domain and sorted with its ends, are the split
   points: log L is monotone between them, so each interval is a piece with
   its peak at one end.  A row whose likelihood is zero at every split point
   is zero on the whole domain and infeasible; a row without counts, and
   every row at v = 0, has P = 0 and is one flat piece.
2. Levels and cuts.  Each split point's log L is taken relative to the
   row's best one (`_log_ratio`).  A piece is live when its peak is within
   100 nats of the row's (`_LOG_FLOOR`), and is cut where log L has fallen
   about _CUT_DROP nats below the row's peak (`_cut`).
3. Quadrature.  log L is taken relative to each piece's peak in log1p form
   (`_log_ratio`), so that no two log likelihoods of size M are subtracted,
   and put on the row's scale by the peak's level.  Integrals run over
   segments substituted phi = anchor + (end - anchor) s**2, with a
   Gauss-Legendre rule in s.  The normaliser and phi_hat take one segment
   per piece anchored at its peak.  The moments reuse those nodes, except on
   a piece that holds phi_hat, split there into two segments anchored at
   phi_hat: |phi - phi_hat|**beta is smooth in s and one set of nodes serves
   every order, so the kink at phi_hat is the end of a rule, not a point.

The rules come from the Jacobi matrix of the Legendre polynomials (Golub &
Welsch, Math. Comp. 23 (1969) 221) at import, before any fork.  Every
operation is elementwise, one eigenvalue problem per row or a reduction over
one row's own pieces, so a row's results are the same bits whichever rows
share its block.

The (pieces, nodes) arrays of step 3, `_log_ratio`'s temporaries on that
path included, are C-contiguous views on a pool of flat float buffers
(`_pooled`), one per name, each grown to the largest batch and never
shrunk, so that their pages are faulted once per process, not once per
batch.  Each use writes every element of its view before any is read in the
same batch, so what an earlier batch left is never read.  Each row's sums
over its nodes run along a C-contiguous row, in the order of a one-row
call, however many pieces its batch holds.  `_split` and `_cut` allocate
their own small arrays.  The pool is per thread and empty at import; the CLI
forks before it evaluates anything, so each child fills a pool of its own.

`report_counts` is the analysis routine of the library, of `gcrb analyze`
and of `simulate`'s campaigns (`gcrb.montecarlo.run_campaign`): it takes an
(E, 4) counts table to a `CountsReport` of feasibility, phi_hat, Delta_beta,
kappa_beta and Gaussianity ratios, one row per counts row.  It chains
`_evaluate_counts` with `_reports`, which adds the kappa and Gaussianity
columns.  `gaussian_abs_moment` and `kappa` broadcast over orders, so the
reports are array expressions over the (E, n_beta) columns; kappa is
Delta_beta over `gcrb.fisher.order_bound`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound, per_order
from .model import (N_SETTINGS, PI, ModelParams, _outcomes, check_counts, check_orders,
                    check_real, outcome_probs)

# moment orders analyzed when none are given
DEFAULT_BETAS = (1.5, 2.0, 3.0, 4.0)

# a piece is live when its peak is within this many nats of its row's peak
# (e**-100 is about 3.7e-44).  A cut lies where log L has fallen between
# that and _CUT_SLACK * _CUT_DROP below the row's peak, aiming at _CUT_DROP,
# 14.5 sd from an interior mode
_LOG_FLOOR = -100.0
_CUT_DROP = 105.0
_CUT_SLACK = 1.25
_CUT_STEPS = 64

# rows split and integrated together.  With the arrays pooled, a batch costs
# numpy calls and memory, not page faults: 512 rows amortise the calls over
# twice as many rows as 256 and keep a 400-row campaign in one batch (its
# serial evaluation at 11 v_est 52 -> 47 ms, 2,048 rows 2% faster), for a
# pool of about 4 MB at two pieces a row, eleven buffers of up to 384 KiB
_BATCH_ROWS = 512

# Gauss-Legendre nodes per segment (step 3 above): the normaliser's one per
# piece, and on a piece that holds phi_hat the moments' one outward from
# phi_hat and the one toward the peak, half a lobe long when phi_hat lies in
# the valley between two lobes.  A piece also holds phi_hat when its far end
# is short of phi_hat by less than _KINK_REACH of its length: at beta = 1.1
# the kink of |phi - phi_hat|**beta at the end of a 48-node rule costs 2e-8,
# a hundredth beyond it 2e-12 and a twentieth beyond 4e-15
_PIECE_NODES = 48
_MOMENT_NODES = 56
_MIDDLE_NODES = 32
_KINK_REACH = 0.125

# the largest order whose Gaussian moment's Gamma((beta + 1) / 2) is a float
MAX_GAUSSIAN_ORDER = 342.2487539126054

# the smallest normal float: a ratio to a bound or a Gaussian moment below it
# is nan, since an underflowed denominator has lost its digits
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PhaseDomain:
    """One prior support interval, at most one model period."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            end = check_real(getattr(self, name), f"domain {name}", ndim=0)
            object.__setattr__(self, name, end)
        if not self.lower < self.upper:
            raise ValueError("domain lower bound must be below the upper bound")
        if self.width > PI + 1e-12:
            raise ValueError("domain may not exceed one model period (pi)")

    @property
    def width(self) -> float:
        return self.upper - self.lower


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


_PIECE_RULE = _rule(_PIECE_NODES)
_MOMENT_RULE = _rule(_MIDDLE_NODES, _MOMENT_NODES)

# the flat float buffers of `_pooled` by name, one set per thread (module
# notes)
_pool = threading.local()

# the angles u_j = j pi / 8 at which each row's polynomial is sampled
_SAMPLES = np.arange(16) * (PI / 8.0)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials, coefficients ascending along the last axis."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(a.shape[-1]):
        out[..., i:i + b.shape[-1]] += a[..., i:i + 1] * b
    return out


@lru_cache(maxsize=16)
def _score_tables(params: ModelParams) -> np.ndarray:
    """Outcome k's share of the polynomial of step 1 of the module notes,
    T_k(u) = v c_k'(u) prod_{j != k} (1 + v c_j(u)) per count, where
    4 p_j = 1 + v c_j: for u0 = u_j - pi at each sample angle, the
    coefficients of (1 + t**2)**4 T_k(u0 + 2 arctan t) in ascending powers
    of t, (16, 4, 9).  The leading one is T_k(u_j)."""
    v = params.visibility
    # (1 + t**2) e**(i u) = e**(i u0) (1 + i t)**2
    turn = -np.exp(1j * _SAMPLES)[:, np.newaxis] * np.array([1.0, 2.0j, -1.0])
    cos, sin, one = turn.real, turn.imag, np.array([1.0, 0.0, 1.0])
    factors = (one + v * cos, one + v * sin, one - v * cos, one - v * sin)
    return np.stack([reduce(_times, factors[:k] + factors[k + 1:], v * slope)
                     for k, slope in enumerate((-sin, cos, sin, -cos))], axis=1)


def _weighted(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k weights[:, k] * table[..., k, :] for (R, 4) weights, added in
    order so that each row's bits do not depend on the others."""
    return sum(weights[:, k:k + 1] * table[..., k, :] for k in range(N_SETTINGS))


def _split_points(counts: np.ndarray, params: ModelParams, domain: PhaseDomain) -> np.ndarray:
    """Each row's split points (step 1 of the module notes), sorted, (R, 10);
    those outside the domain are put at its upper end."""
    top = counts.max(axis=1, keepdims=True)
    # counts relative to the largest: the polynomial of a 1e308 row is finite
    freq = counts / np.where(top > 0.0, top, 1.0)
    coefficients = _score_tables(params)
    samples = np.abs(_weighted(freq, coefficients[:, :, 8].T))
    best = np.argmax(samples, axis=1)
    points = np.full((counts.shape[0], 10), domain.upper)
    points[:, 0] = domain.lower
    tilted = np.flatnonzero(samples[np.arange(best.size), best] > 0.0)
    if tilted.size:
        best = best[tilted]
        poly = _weighted(freq[tilted], coefficients[best])
        companion = np.zeros((tilted.size, 8, 8))
        companion[:, 0] = -poly[:, 7::-1] / poly[:, 8:]
        companion[:, np.arange(1, 8), np.arange(7)] = 1.0
        phi = (0.5 * _SAMPLES[best] - 0.5 * PI)[:, np.newaxis] + np.arctan(
            np.linalg.eigvals(companion).real)
        phi = domain.lower + np.mod(phi - domain.lower, PI)
        points[tilted, 2:] = np.where(phi < domain.upper, phi, domain.upper)
    return np.sort(points, axis=1)


def _slope_curvature(counts: np.ndarray, phi: np.ndarray, params: ModelParams):
    """d log L / d phi and d**2 log L / d phi**2 of (P, 4) counts at (P,)
    phases; inf or nan where a counted outcome is impossible."""
    counted = counts.T > 0.0
    probs, dprobs = _outcomes(phi, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(counted, probs, 1.0)
        score = np.where(counted, dprobs / safe, 0.0)
        # p_k'' = 1 - 4 p_k
        curv = np.where(counted, (1.0 - 4.0 * probs) / safe, 0.0) - score * score
        return (counts.T * score).sum(axis=0), (counts.T * curv).sum(axis=0)


def _cut(counts, params, ref, far, peak):
    """Cuts of pieces with peaks ref, at levels peak below their rows' peaks,
    toward their far ends (step 2 of the module notes).  Newton steps on log
    fall against log distance, exact on a Gaussian, start from the quadratic
    model of log L at ref; a step out of the bracket kept around the goal
    bisects it in log distance instead.  log L is monotone on a piece, so
    one still open after _CUT_STEPS is cut at its bracket's far end."""
    scale = _ratio_scale(counts, ref, params)
    sign, lo, hi = np.sign(far - ref), np.zeros(ref.size), np.abs(far - ref)
    slope, curv = _slope_curvature(counts, ref, params)
    slope = np.minimum(sign * slope, 0.0)
    # the falls from ref to the goal and to either end of the cut's window
    drop, least, most = _CUT_DROP + peak, peak - _LOG_FLOOR, peak + _CUT_SLACK * _CUT_DROP
    todo = np.arange(ref.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the positive root x of slope x + curv x**2 / 2 = -drop, or of its
        # linear part where curv is not negative
        x = np.minimum(hi, 2.0 * drop / (np.sqrt(slope * slope - 2.0 * np.minimum(curv, 0.0)
                                                  * drop) - slope))
        for _ in range(_CUT_STEPS):
            way, goal = sign[todo], drop[todo]
            fall = -_log_ratio(counts[todo], scale[todo], ref[todo], (way * x)[:, np.newaxis])[:, 0]
            short = fall < goal
            lo[todo[short]] = x[short]
            done = (fall >= least[todo]) & (fall <= most[todo])
            hi[todo[done | ~short]] = x[done | ~short]
            todo, x, fall, goal, way = (a[~done] for a in (todo, x, fall, goal, way))
            if not todo.size:
                break
            rate = -way * _slope_curvature(counts[todo], ref[todo] + way * x, params)[0]
            newton = x * np.exp(np.log(goal / fall) * fall / (x * rate))
            low, high = lo[todo], hi[todo]
            x = np.where((newton > low) & (newton < high), newton,
                         np.where(low > 0.0, np.sqrt(low * high), high / 16.0))
    return ref + sign * hi


def _split(counts: np.ndarray, params: ModelParams, domain: PhaseDomain):
    """The mask of feasible rows and, for each live piece of those rows in
    row and then phase order (steps 1 and 2 of the module notes), its row,
    its peak, its other end, cut, and its peak's level below the row's.
    Only counted outcomes enter log L (0 * log 0 = 0)."""
    points = _split_points(counts, params, domain)
    probs = outcome_probs(points, params)
    loglik = sum(counts[:, k:k + 1] * np.log(np.where(probs[k] > 0.0, probs[k], 1.0))
                 for k in range(N_SETTINGS))
    loglik[((probs == 0.0) & (counts.T[:, :, np.newaxis] > 0.0)).any(axis=0)] = -np.inf
    feasible = loglik.max(axis=1) > -np.inf
    live_counts, points, loglik = counts[feasible], points[feasible], loglik[feasible]
    base = points[np.arange(points.shape[0]), np.argmax(loglik, axis=1)]
    level = _log_ratio(live_counts, _ratio_scale(live_counts, base, params), base,
                       points - base[:, np.newaxis])
    level -= level.max(axis=1, keepdims=True)
    # the ratio can round a zero of a counted outcome's probability to a few
    # e-17 of its value at base
    level[loglik == -np.inf] = -np.inf
    rises = level[:, 1:] > level[:, :-1]
    peak = np.maximum(level[:, :-1], level[:, 1:])
    row, piece = np.nonzero((points[:, 1:] > points[:, :-1]) & (peak >= _LOG_FLOOR))
    ref = np.where(rises, points[:, 1:], points[:, :-1])[row, piece]
    end = np.where(rises, points[:, :-1], points[:, 1:])[row, piece]
    peak = peak[row, piece]
    cut = np.flatnonzero(np.minimum(level[:, :-1], level[:, 1:])[row, piece] < -_CUT_DROP)
    end[cut] = _cut(live_counts[row[cut]], params, ref[cut], end[cut], peak[cut])
    return feasible, np.flatnonzero(feasible)[row], ref, end, peak


def _log_ratio(counts: np.ndarray, scale: np.ndarray, ref: np.ndarray,
               delta: np.ndarray, out=None) -> np.ndarray:
    """log L(ref + delta) - log L(ref) for pieces with (P, 4) counts, (P,)
    reference points and (P, n) offsets from them.

    scale is v / (1 + v s_k(ref)), 0 for outcomes not counted.  The fringe
    differences come from the difference formulas
    cos 2(r + d) - cos 2r = -2 sin d (cos 2r sin d + sin 2r cos d) and
    sin 2(r + d) - sin 2r = 2 sin d (cos 2r cos d - sin 2r sin d), so each
    term c_k log1p(scale_k ds_k) keeps its relative precision however large
    c_k.  An argument rounded below -1, at a zero of p_k, is read as -1:
    density 0.  sin d and cos d come from t = tan(d / 2), which numpy
    vectorises and sin and cos not, as 2 t and 1 - t**2 over 1 + t**2.

    delta is overwritten.  out holds four (P, n) arrays, three for the
    temporaries and the last for the result; by default they are new.
    """
    work, cos_d, down, total = out or [np.empty(delta.shape) for _ in range(4)]
    # each step writes into one of these arrays or delta.  sin_d holds 2 sin d
    sin_d = delta
    sin_d *= 0.5
    np.tan(sin_d, out=sin_d)
    np.multiply(sin_d, sin_d, out=work)
    np.subtract(1.0, work, out=cos_d)
    work += 1.0
    cos_d /= work
    sin_d *= 4.0
    sin_d /= work
    cos_r, sin_r = np.cos(2.0 * ref)[:, np.newaxis], np.sin(2.0 * ref)[:, np.newaxis]
    # the cos and sin differences are -down and up
    np.multiply(sin_r, cos_d, out=down)
    down += np.multiply(0.5 * cos_r, sin_d, out=work)
    down *= sin_d
    up = cos_d
    up *= cos_r
    up -= np.multiply(0.5 * sin_r, sin_d, out=work)
    up *= sin_d
    total.fill(0.0)
    for k, (sign, diff) in enumerate(((-1.0, down), (1.0, up), (1.0, down), (-1.0, up))):
        np.multiply(sign * scale[:, k:k + 1], diff, out=work)
        np.maximum(work, -1.0, out=work)
        with np.errstate(divide="ignore"):
            np.log1p(work, out=work)
        work *= counts[:, k:k + 1]
        total += work
    return total


def _ratio_scale(counts: np.ndarray, ref: np.ndarray, params: ModelParams) -> np.ndarray:
    """The (P, 4) scale of `_log_ratio` at the reference points; each ref
    has p_k > 0 for every counted outcome."""
    probs = outcome_probs(ref, params).T
    counted = counts > 0.0
    return np.where(counted, params.visibility / np.where(counted, 4.0 * probs, 1.0), 0.0)


def _pooled(name: str, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) float array on the pooled buffer `name`
    (module notes), holding whatever its last use left there."""
    pool = _pool.__dict__
    flat = pool.get(name)
    if flat is None or flat.size < rows * cols:
        flat = pool[name] = np.empty(rows * cols)
    return flat[:rows * cols].reshape(rows, cols)


def _integrate(counts, params, row, ref, end, level, betas):
    """phi_hat and Delta_beta (rows, len(betas)) of the rows of pieces
    (step 3 of the module notes) with (P, 4) counts, their rows, ascending,
    their peaks, other ends and the levels of their peaks."""
    scale = _ratio_scale(counts, ref, params)
    head = np.ones(row.size, dtype=bool)
    head[1:] = row[1:] != row[:-1]
    heads = np.flatnonzero(head)
    rows = np.cumsum(head) - 1

    def segments(pieces, anchor, stop, rule, offset, mass):
        """phi - anchor and the density times the rule's weight at
        phi = anchor + (stop - anchor) * s**2, s in [0, 1], on (p, m)
        segments of the given pieces, written into the (p, nodes) arrays
        offset and mass."""
        nodes, weights, segment = rule
        p, n = offset.shape
        span, delta = _pooled("span", p, n), _pooled("delta", p, n)
        np.take(stop - anchor, segment, axis=1, out=span, mode="clip")
        np.multiply(span, nodes, out=offset)
        offset *= nodes
        np.take(anchor - ref[pieces, np.newaxis], segment, axis=1, out=delta, mode="clip")
        delta += offset
        _log_ratio(counts[pieces], scale[pieces], ref[pieces], delta,
                   [_pooled(name, p, n) for name in ("work", "cos", "down")] + [mass])
        mass += level[pieces, np.newaxis]
        np.exp(mass, out=mass)
        # d phi = 2 (stop - anchor) s ds
        np.abs(span, out=span)
        span *= 2.0 * nodes * weights
        mass *= span

    # normaliser and phi_hat
    offset, mass = (_pooled(name, row.size, _PIECE_NODES) for name in ("offset", "mass"))
    segments(slice(None), ref[:, np.newaxis], end[:, np.newaxis], _PIECE_RULE, offset, mass)
    norm = np.add.reduceat(mass.sum(axis=1), heads)
    base = ref[heads]
    first = np.add((ref - base[rows])[:, np.newaxis], offset,
                   out=_pooled("work", row.size, _PIECE_NODES))
    first *= mass
    phi_hat = base + np.add.reduceat(first.sum(axis=1), heads) / norm

    # moments: on a piece that holds phi_hat, from phi_hat to either end,
    # less the stretch back to the far end from beyond it
    center = phi_hat[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        along = (center - ref) / (end - ref)
    holds = (along >= 0.0) & (along <= 1.0 + _KINK_REACH)
    rest = np.flatnonzero(~holds)
    # the other pieces reuse the normaliser's nodes: their distances from
    # phi_hat and their masses
    dist, far = (_pooled(name, rest.size, _PIECE_NODES) for name in ("dist", "far"))
    np.take(offset, rest, axis=0, out=dist, mode="clip")
    dist -= (center - ref)[rest, np.newaxis]
    np.abs(dist, out=dist)
    np.take(mass, rest, axis=0, out=far, mode="clip")
    holds = np.flatnonzero(holds)
    inner, kernel = (_pooled(name, holds.size, _MIDDLE_NODES + _MOMENT_NODES)
                     for name in ("inner", "kernel"))
    segments(holds, np.stack([center[holds]] * 2, axis=1),
             np.stack([ref[holds], end[holds]], axis=1), _MOMENT_RULE, inner, kernel)
    np.abs(inner, out=inner)
    kernel[along[holds] > 1.0, _MIDDLE_NODES:] *= -1.0
    # gcrb's rule for every power to a moment order: one scalar exponent at a
    # time, since numpy picks its loop for a broadcast exponent by the shape
    moments = np.empty((betas.size, row.size))
    for i, b in enumerate(betas.tolist()):
        for pieces, x, weight in ((rest, dist, far), (holds, inner, kernel)):
            product = np.power(x, b, out=_pooled("work", *x.shape))
            product *= weight
            moments[i, pieces] = product.sum(axis=1)
    deltas = np.add.reduceat(moments, heads, axis=1) / norm
    return phi_hat, deltas.T


def _evaluate_counts(counts: np.ndarray, params: ModelParams, domain: PhaseDomain,
                     betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """feasible (E,), phi_hat (E,) and Delta_beta (E, len(betas)) for each row
    of an (E, 4) counts table under params; an infeasible row, whose counts
    are impossible on the whole domain, has ``nan`` phi_hat and deltas.

    Rows are split and integrated in blocks (module notes); a row's results
    do not depend on its blockmates.  The orders must be validated by the
    caller.
    """
    counts = np.asarray(counts, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n = counts.shape[0]
    feasible = np.zeros(n, dtype=bool)
    phi_hat = np.full(n, math.nan)
    deltas = np.full((n, betas.size), math.nan)
    for i in range(0, n, _BATCH_ROWS):
        batch = counts[i:i + _BATCH_ROWS]
        ok, row, ref, end, level = _split(batch, params, domain)
        feasible[i:i + _BATCH_ROWS] = ok
        if not row.size:
            continue
        # every feasible row has a piece, the one of its peak
        rows = i + np.flatnonzero(ok)
        phi_hat[rows], deltas[rows] = _integrate(batch[row], params, row, ref, end, level, betas)
    return feasible, phi_hat, deltas


def gaussian_abs_moment(beta, sigma):
    """Absolute central moment of a Gaussian with standard deviation sigma.

    E|X - mu|**beta = sigma**beta * 2**(beta/2) * Gamma((beta+1)/2) / sqrt(pi);
    beta = 2, 3, 4 give sigma^2, 2*sqrt(2/pi)*sigma^3 and 3*sigma^4.  Orders,
    up to MAX_GAUSSIAN_ORDER, broadcast against sigmas; scalars give a float.
    """
    betas = check_orders(beta, hi=MAX_GAUSSIAN_ORDER)
    sigmas = check_real(sigma, "standard deviation", 0)
    return per_order(lambda b, s: s ** b * 2.0 ** (b / 2.0) * math.gamma((b + 1.0) / 2.0)
                     / math.sqrt(PI), betas, sigmas)


def kappa(delta_beta, f_alpha, shots, beta):
    """Saturation ratio kappa_beta = Delta_beta / order_bound(beta, f_alpha,
    shots) = Delta_beta * M**(beta/2) * f_alpha**(beta/alpha).

    Values below 1 indicate a violated order-beta bound.  Moments (reals, or
    nan for an infeasible row), orders, informations and shots broadcast;
    scalars give a float.  Raises UndefinedRatioError where f_alpha vanishes.
    kappa is nan where the bound leaves float range (`_ratio`).
    """
    moments = check_real(delta_beta, "absolute moment", nan=True)
    infos = check_real(f_alpha, "generalized Fisher information", 0)
    if np.any(infos == 0.0):
        raise UndefinedRatioError(
            "saturation ratio undefined: generalized Fisher information vanishes")
    value = _ratio(moments, order_bound(beta, infos, shots))
    return float(value) if value.ndim == 0 else value


def _ratio(numerator, denominator) -> np.ndarray:
    """numerator / denominator, or nan where the denominator is below the
    smallest normal float (0 included) or not finite, as a moment or bound
    of a high order can be, and where the quotient overflows; no
    RuntimeWarning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.asarray(numerator) / denominator
    usable = (denominator >= TINY) & (denominator < math.inf) & ~np.isinf(value)
    return np.where(usable, value, math.nan)


def _moment_orders(betas) -> np.ndarray:
    """The moment orders a report on betas needs: the validated orders, each
    with a Gaussian moment, and 2, the Gaussianity ratios' reference, ascending."""
    # np.union1d, through np.unique, would import numpy.ma (half a megabyte)
    return np.array(sorted({*check_orders(betas, hi=MAX_GAUSSIAN_ORDER, ndim=1).tolist(), 2.0}))


def _reports(phi_hat: np.ndarray, moments: np.ndarray, shots: np.ndarray, params: ModelParams,
             betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta_beta, kappa_beta and Gaussianity ratios, each (E, len(betas)),
    from the phi_hat (E,) and the moments (E, len(_moment_orders(betas))) of
    posteriors with the given shot counts.

    f_alpha is taken at each row's phi_hat, from one model evaluation for all
    rows and orders; rows with ``nan`` phi_hat (infeasible counts) are left
    out of it and get ``nan`` throughout.  kappa is ``nan`` when there are no
    shots or f_alpha is undefined (beta = 1), vanishes or is not finite; the
    Gaussianity ratio is ``nan`` when Delta_2 = 0.  Either is ``nan`` where
    its bound or Gaussian moment leaves float range (`_ratio`).
    """
    betas = check_orders(betas)
    orders = _moment_orders(betas)
    deltas = moments[:, np.searchsorted(orders, betas)]
    d2 = moments[:, np.searchsorted(orders, 2.0)]
    feasible = ~np.isnan(phi_hat)
    bounded = betas > 1.0
    # (E, len(betas)); 0 marks no information: beta = 1 and infeasible rows
    infos = np.zeros(deltas.shape)
    infos[np.ix_(feasible, bounded)] = generalized_fisher(
        conjugate_exponent(betas[bounded]), phi_hat[feasible], params).T
    # kappa takes finite informations: an infinite one's bound is 0, and nan
    rows, cols = np.nonzero((shots[:, np.newaxis] > 0) & (infos > 0.0) & (infos < math.inf))
    kappas = np.full(deltas.shape, math.nan)
    kappas[rows, cols] = kappa(deltas[rows, cols], infos[rows, cols], shots[rows], betas[cols])
    spread = d2 > 0.0
    ratios = np.full(deltas.shape, math.nan)
    with np.errstate(over="ignore"):
        centers = gaussian_abs_moment(betas, np.sqrt(d2[spread])[:, np.newaxis])
    ratios[spread] = _ratio(deltas[spread], centers)
    return deltas, kappas, ratios


class CountsReport(NamedTuple):
    """The analysis of an (E, 4) counts table, one row per counts row: gcrb's
    one row table, from `report_counts` and from the campaigns of
    `gcrb.montecarlo`, which add flags and the defined-order mask.

    An infeasible row, whose counts are impossible on the whole domain, is
    ``nan`` throughout, and a campaign flags it at every order.  ``nan`` also
    marks a kappa without shots or information and a Gaussianity ratio of a
    posterior without spread.
    """

    feasible: np.ndarray      # (E,)
    phi_hat: np.ndarray       # (E,) posterior means
    deltas: np.ndarray        # (E, n_beta) absolute moments Delta_beta
    kappas: np.ndarray        # (E, n_beta) saturation ratios kappa_beta
    gauss_ratios: np.ndarray  # (E, n_beta) Delta_beta / Delta_beta(Gaussian)
    flags: np.ndarray | None = None    # (E, n_beta) a campaign's violation flags
    defined: np.ndarray | None = None  # (n_beta,) where a campaign's Sigma_beta is defined


def report_counts(counts, params: ModelParams, domain: PhaseDomain = DEFAULT_DOMAIN,
                  betas=DEFAULT_BETAS) -> CountsReport:
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
    shots = counts.sum(axis=1).astype(float)
    feasible, phi_hat, moments = _evaluate_counts(counts, params, domain, _moment_orders(betas))
    return CountsReport(feasible, phi_hat, *_reports(phi_hat, moments, shots, params, betas))
