"""Counter-based uniform variates: value = f(seed, trial, assumption).

Stateless mixing (splitmix64 finalizer chain) makes every stream
reproducible and order-independent: a trial's variates depend on no
other trial.

The seed's term, the finalizer of (seed + golden gamma) mod 2**64, is
one number per call: it is computed on Python ints masked to 64 bits, so
a negative seed, or one of 2**64 or more, gives the term of its residue
mod 2**64. The trial and assumption terms and the grid are uint64 arrays,
mixed in place. numpy's array arithmetic wraps mod 2**64 without a
warning, where a numpy scalar's would warn, so no arithmetic runs on a
numpy scalar alone and no errstate is needed. The uint64 constants are
built once, here. A call's fixed cost is the numpy calls on its arrays;
the rest is per value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_U_ONE, _U_GOLDEN, _U_C1, _U_C2 = (np.uint64(c) for c in (1, _GOLDEN, _C1, _C2))
_U_30, _U_27, _U_31, _U_11 = (np.uint64(c) for c in (30, 27, 31, 11))
U_MIN = 2.0 ** -54  # the smallest and largest variates uniform_block returns
U_MAX = 1.0 - 2.0 ** -53
TRIALS_BLOCK = 1024  # trials sampled, rank-correlated, evaluated and exported at a time


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 array x."""
    x ^= x >> _U_30
    x *= _U_C1
    x ^= x >> _U_27
    x *= _U_C2
    x ^= x >> _U_31
    return x


def _mix64_int(x: int) -> int:
    """splitmix64 finalizer on a Python int below 2**64."""
    x ^= x >> 30
    x = x * _C1 & _MASK
    x ^= x >> 27
    x = x * _C2 & _MASK
    return x ^ x >> 31


def _term(coordinates, multiplier: np.uint64) -> np.ndarray:
    """The finalizer of (coordinate + 1) * multiplier, on a fresh uint64 copy:
    the caller's array is never written."""
    x = np.array(coordinates, dtype=np.uint64)
    x += _U_ONE
    x *= multiplier
    return _mix64(x)


@dataclass(frozen=True)
class RandomSource:
    seed: int

    def uniform_block(self, trials, assumptions) -> np.ndarray:
        """Matrix of variates for the trial x assumption grid."""
        t = _term(trials, _U_GOLDEN)
        t ^= np.uint64(_mix64_int((self.seed + _GOLDEN) & _MASK))
        x = _mix64(t)[:, None] ^ _term(assumptions, _U_C1)[None, :]
        return _unit(_mix64(x))


def _unit(x: np.ndarray) -> np.ndarray:
    """The top 53 bits of x, shifted into the open unit interval.

    The draw of all-ones bits, 1 - 2**-54, rounds to 1.0 in float64: it is
    clamped to U_MAX, the largest draw below 1. x is overwritten: it is
    shifted in place, and its one float copy is scaled in place.
    """
    x >>= _U_11
    u = x.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, U_MAX, out=u)
