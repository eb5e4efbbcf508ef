"""Counter-based uniform variates: value = f(seed, trial, assumption).

Stateless mixing (splitmix64 finalizer chain) makes every stream
reproducible and order-independent: a trial's variates depend on no
other trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
U_MIN = 2.0 ** -54  # the smallest and largest variates uniform_block returns
U_MAX = 1.0 - 2.0 ** -53
TRIALS_BLOCK = 1024  # trials sampled, rank-correlated, evaluated and exported at a time


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer
    x = np.uint64(x) if np.isscalar(x) else x
    x ^= x >> np.uint64(30)
    x *= np.uint64(_C1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_C2)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class RandomSource:
    seed: int

    def uniform_block(self, trials, assumptions) -> np.ndarray:
        """Matrix of variates for the trial x assumption grid."""
        with np.errstate(over="ignore"):
            t = _mix64((np.asarray(trials, dtype=np.uint64) + np.uint64(1))
                       * np.uint64(_GOLDEN))
            k = _mix64((np.asarray(assumptions, dtype=np.uint64) + np.uint64(1))
                       * np.uint64(_C1))
            s = _mix64(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) + np.uint64(_GOLDEN))
            x = _mix64(s ^ t[:, None])
            x = _mix64(x ^ k[None, :])
        return _unit(x)


def _unit(x: np.ndarray) -> np.ndarray:
    """The top 53 bits of x, shifted into the open unit interval.

    The draw of all-ones bits, 1 - 2**-54, rounds to 1.0 in float64: it is
    clamped to U_MAX, the largest draw below 1. x is overwritten: it is
    shifted in place, and its one float copy is scaled in place.
    """
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, U_MAX, out=u)
