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
:func:`outcome_dprobs` return one row per setting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

PI = math.pi
N_SETTINGS = 4

# recorded in every CLI manifest
MODEL_NAME = "noon2-4setting"

# counts are analyzed as float64, which holds every integer up to 2**53
# exactly and no larger one
MAX_COUNT = 2 ** 53


def is_real(value) -> bool:
    """A real number, numpy scalars included; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_whole(value) -> bool:
    """An integer-valued real, numpy scalars included, or a numeric array of
    them; bools, nan and inf are not."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf" and bool(np.all(np.isfinite(value)
                                                         & (value == np.floor(value))))
    return is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


def check_counts(counts) -> tuple[int, int, int, int]:
    """The four setting counts as ints.  Raises ValueError unless they are
    integers in [0, MAX_COUNT]."""
    counts = tuple(counts)
    if len(counts) != N_SETTINGS:
        raise ValueError(f"need {N_SETTINGS} counts, got {len(counts)}")
    for c in counts:
        # the range test comes first: it keeps int() off nan and inf
        if not (is_real(c) and 0 <= c <= MAX_COUNT and c == int(c)):
            raise ValueError(f"counts must be integers in [0, 2**53], got {c!r}")
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class ModelParams:
    """Interferometer parameters entering the outcome probabilities."""

    visibility: float

    def __post_init__(self) -> None:
        v = self.visibility
        if not (is_real(v) and math.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
        object.__setattr__(self, "visibility", float(v))


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
    cu, su = _phase_trig(phases)
    v = params.visibility
    return 0.25 * np.array([1.0 + v * cu, 1.0 + v * su, 1.0 - v * cu, 1.0 - v * su])


def outcome_dprobs(phases, params: ModelParams) -> np.ndarray:
    """d p(theta_k | phi) / d phi for k = 0..3, shape (4, *phases.shape)."""
    cu, su = _phase_trig(phases)
    half_v = 0.5 * params.visibility
    return np.array([half_v * -su, half_v * cu, half_v * su, half_v * -cu])
