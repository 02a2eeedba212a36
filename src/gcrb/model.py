"""Likelihood model of the four-setting two-photon polarization interferometer.

Coincidence events are recorded at four analyzer half-wave-plate settings
theta = k*pi/16 (k = 0..3).  Treating the setting of each detected event as a
categorical outcome, the conditional probabilities for phase ``phi`` and
fringe visibility ``v`` are

    p(theta | phi) = (1 + v * cos(8*theta - 2*phi)) / 4,

which sum to one over the four settings.  Because the N00N fringe oscillates
at 2*phi, every probability is pi-periodic in the phase; the trigonometric
argument is reduced with an exact remainder so that periodicity holds bitwise.

The model is evaluated on whole phase arrays: :func:`outcome_probs` and
:func:`outcome_dprobs` return one row per setting, and `_outcomes` both
from one reduction of the phases.

Every number given to gcrb is checked here, with a ValueError for any bad
value: `check_real` and `check_whole` take finite reals and whole numbers in
a range, `check_orders` moment orders and `check_counts` counts tables.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

PI = math.pi
N_SETTINGS = 4

# recorded in every CLI manifest
MODEL_NAME = "noon2-4setting"

# counts are analyzed as float64, which holds every integer up to 2**53
# exactly and no larger one
MAX_COUNT = 2 ** 53


def _checked(values, name: str, lo, hi, whole: bool, ndim,
             nan: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """values as a numeric array and as floats, checked: each element a finite
    real in [lo, hi], or nan where nan is true, and, if whole, a whole number,
    and ndim axes unless ndim is None; otherwise a ValueError naming the first
    element that is not."""
    array = np.asarray(values)
    # arrays of whole numbers are returned as int64
    hi = min(hi, 2 ** 63 - 1) if whole and array.ndim else hi
    kind = "whole number" if whole else "finite real"
    dims = array.ndim if ndim is None else ndim
    what = (f"a {kind}" if dims == 0 else f"{kind}s" if ndim is None
            else f"a {ndim}-d array of {kind}s")
    where = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo}, {hi}]"
    rule = f"{name} must be {what}{where}{' or nan' if nan else ''}, got"
    if array.ndim != dims:
        raise ValueError(f"{rule} {values!r}")
    # asarray reads a bool among numbers as a number, and None, a string or an
    # int beyond int64 make an object array: so the elements of all but a
    # numeric ndarray are looked at one by one, ints beyond float range too
    if array.dtype.kind not in "iuf" or not isinstance(values, np.ndarray):
        for cell in np.asarray(values, dtype=object).flat:
            if (isinstance(cell, (bool, np.bool_)) or not isinstance(cell, numbers.Real)
                    or isinstance(cell, int) and abs(cell) > sys.float_info.max):
                raise ValueError(f"{rule} {cell!r}")
    reals = array.astype(float)
    if array.dtype.kind == "f":
        # float(2**63 - 1) is 2**63: floats meet the floats nearest inside [lo, hi]
        lo = math.nextafter(float(lo), math.inf) if float(lo) < lo else float(lo)
        hi = math.nextafter(float(hi), -math.inf) if float(hi) > hi else float(hi)
    # nan fails every comparison
    ok = np.isfinite(reals) & (array >= lo) & (array <= hi)
    if nan:
        ok |= np.isnan(reals)
    if whole:
        ok &= reals == np.floor(reals)
    if not ok.all():
        raise ValueError(f"{rule} {array[~ok].tolist()[0]!r}")
    return array, reals


def check_real(values, name: str, lo=-math.inf, hi=math.inf, *, ndim=None, nan=False):
    """A finite real in [lo, hi] as a float, or an array of them (of ndim axes
    unless ndim is None) as a float array, read elementwise.  Raises
    ValueError for any other value: nan unless nan is true, inf, bools (also
    among numbers), strings, None, complex numbers, objects and ints beyond
    float range."""
    _, reals = _checked(values, name, lo, hi, False, ndim, nan)
    return float(reals) if reals.ndim == 0 else reals


def check_whole(values, name: str, lo=-math.inf, hi=math.inf, *, ndim=None):
    """A whole number in [lo, hi] as an int, or an array of them, each within
    int64, as an int64 array: an integer or an integer-valued float, under the
    rules of `check_real`."""
    array, _ = _checked(values, name, lo, hi, True, ndim)
    return int(array.tolist()) if array.ndim == 0 else array.astype(np.int64)


def check_orders(values, bounded: bool = False, *, hi=math.inf, ndim=None) -> np.ndarray:
    """Moment orders beta as a float array of their shape, under the rules of
    `check_real`: finite reals in [1, hi], and > 1 where bounded, since an
    order-beta bound needs the conjugate exponent beta / (beta - 1)."""
    orders = np.asarray(check_real(values, "moment order", 1, hi, ndim=ndim))
    if bounded and (orders == 1.0).any():
        raise ValueError(f"moment order of a bound must be > 1, got {values!r}")
    return orders


def check_counts(counts) -> np.ndarray:
    """An (E, 4) table of setting counts, one row per experiment, as int64:
    whole numbers in [0, MAX_COUNT] (`check_whole`)."""
    table = check_whole(counts, "counts", 0, MAX_COUNT)
    if np.ndim(table) != 2 or table.shape[1] != N_SETTINGS:
        raise ValueError(f"counts must be an (E, {N_SETTINGS}) table, got shape {np.shape(table)}")
    return table


@dataclass(frozen=True)
class ModelParams:
    """Interferometer parameters entering the outcome probabilities."""

    visibility: float

    def __post_init__(self) -> None:
        visibility = check_real(self.visibility, "visibility", 0, 1, ndim=0)
        object.__setattr__(self, "visibility", visibility)


def _phase_trig(phases) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of 2*phi after exact reduction of phi mod pi.

    fmod is an exact remainder, so phases differing by a representable
    multiple of float(pi) map to identical probabilities.
    """
    if not np.isfinite(phases).all():
        raise ValueError("phase must be finite")
    r = np.fmod(phases, PI)
    # lift negative remainders by one period; adding 0.0 keeps the rest exact
    u = 2.0 * (r + PI * (r < 0.0))
    return np.cos(u), np.sin(u)


def outcome_probs(phases, params: ModelParams) -> np.ndarray:
    """p(theta_k | phi) for k = 0..3, shape (4, *phases.shape).

    cos(8*theta - 2*phi) at the quarter-turn offsets 8*theta_k is
    cos 2phi, sin 2phi, -cos 2phi, -sin 2phi.  Each column sums to one and
    every entry lies in [0, 1/2].
    """
    return _probs(_phase_trig(phases), params.visibility)


def outcome_dprobs(phases, params: ModelParams) -> np.ndarray:
    """d p(theta_k | phi) / d phi for k = 0..3, shape (4, *phases.shape)."""
    return _dprobs(_phase_trig(phases), params.visibility)


def _outcomes(phases, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """`outcome_probs` and `outcome_dprobs`, with their bits, from one
    reduction of the phases."""
    trig = _phase_trig(phases)
    return _probs(trig, params.visibility), _dprobs(trig, params.visibility)


def _probs(trig, v: float) -> np.ndarray:
    cu, su = trig
    return 0.25 * np.array([1.0 + v * cu, 1.0 + v * su, 1.0 - v * cu, 1.0 - v * su])


def _dprobs(trig, v: float) -> np.ndarray:
    cu, su = trig
    half_v = 0.5 * v
    return np.array([half_v * -su, half_v * cu, half_v * su, half_v * -cu])
