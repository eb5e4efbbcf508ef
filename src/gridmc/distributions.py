"""Assumption distributions, sampled by inverse-CDF transform.

Six shapes: uniform, triangular, normal, lognormal, discrete uniform,
and a custom discrete (value, probability) list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import U_MAX, U_MIN

_PROB_TOL = 1e-9

# Acklam's coefficients, highest power first; the denominators end in 1.0.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00, 1.0)
_P_LOW = 0.02425  # below _P_LOW and above 1 - _P_LOW the tail formula serves


def _horner(x, coeffs):
    """((c0*x + c1)*x + ...)*x + cn, accumulated in one array."""
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def norm_ppf(u):
    """Inverse standard-normal CDF, Acklam's rational approximation.

    Max relative error ~1.15e-9 over (0, 1). Takes anything np.asarray
    takes and returns an array of its shape. NaN gives NaN; 0, 1, values
    outside (0, 1) and infinities raise ValueError.

    The central formula runs on every element, branch-free; the tail
    formula runs only on the elements below _P_LOW or above 1 - _P_LOW,
    and overwrites their results. The tail's log is numpy's: math.log
    rounds differently from numpy's SIMD log on some inputs.
    """
    u = np.asarray(u, dtype=float)
    if np.count_nonzero((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    q = u - 0.5
    z = _horner(r := q * q, _A)
    z *= q
    z /= _horner(r, _B)
    # a 0-d u gives a numpy scalar, which takes no masked write. The central
    # formula does not warn on a tail element: its denominator is >= 1.1e-4
    z = np.asarray(z)
    tails = (u < _P_LOW) | (u > 1 - _P_LOW)
    if tails.any():
        ut = u[tails]
        t = np.sqrt(-2.0 * np.log(np.minimum(ut, 1.0 - ut)))
        tail = _horner(t, _C)
        tail /= _horner(t, _D)
        # C(t)/D(t) < 0 for every t >= 2.72, and a tail element has t > 2.72,
        # so copysign with q's sign gives the bits of tail below _P_LOW and
        # of -tail above 1 - _P_LOW
        z[tails] = np.copysign(tail, ut - 0.5)
    return z


# the standard-normal variates at the ends of the sampled range: a Normal or
# Lognormal checks its range by the float operations of inverse_cdf on these
_Z_MIN, _Z_MAX = norm_ppf(np.array([U_MIN, U_MAX])).tolist()


class Distribution:
    """Base: subclasses implement inverse_cdf, the one way a distribution
    is drawn from."""

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """F^{-1} of each element of a float array u, all in (0, 1): an
        array of u's shape, monotone non-decreasing in u."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Distribution):
    min: float
    max: float

    def __post_init__(self):
        if not self.min < self.max:
            raise ValueError(f"uniform needs min < max, got [{self.min}, {self.max}]")
        if not math.isfinite(self.max - self.min):
            raise ValueError(f"uniform(min={self.min}, max={self.max}) has a width "
                             f"beyond the float range")

    def inverse_cdf(self, u):
        return self.min + u * (self.max - self.min)


@dataclass(frozen=True)
class Triangular(Distribution):
    min: float
    mode: float
    max: float

    def __post_init__(self):
        if not (self.min <= self.mode <= self.max and self.min < self.max):
            raise ValueError(
                f"triangular needs min <= mode <= max, got ({self.min}, {self.mode}, {self.max})")
        width = self.max - self.min
        if not (math.isfinite(width * (self.mode - self.min))
                and math.isfinite(width * (self.max - self.mode))):
            raise ValueError(f"triangular(min={self.min}, mode={self.mode}, max={self.max}) "
                             f"draws variates beyond the float range")

    def inverse_cdf(self, u):
        a, m, b = self.min, self.mode, self.max
        # both branches run on every element; each radicand is a product of
        # factors >= 0 for u in (0, 1), and finite by __post_init__
        left = a + np.sqrt(u * (b - a) * (m - a)) if m > a else a
        right = b - np.sqrt((1.0 - u) * (b - a) * (b - m))
        return np.where(u <= (m - a) / (b - a), left, right)


@dataclass(frozen=True)
class Normal(Distribution):
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"normal needs sd > 0, got {self.sd}")
        if not (math.isfinite(self.mean + self.sd * _Z_MIN)
                and math.isfinite(self.mean + self.sd * _Z_MAX)):
            raise ValueError(f"normal(mean={self.mean}, sd={self.sd}) "
                             f"draws variates beyond the float range")

    def inverse_cdf(self, u):
        return self.mean + self.sd * norm_ppf(u)


@dataclass(frozen=True)
class Lognormal(Distribution):
    """Parameterized by the mean/sd of the underlying log."""

    log_mean: float
    log_sd: float

    def __post_init__(self):
        if not self.log_sd > 0:
            raise ValueError(f"lognormal needs log_sd > 0, got {self.log_sd}")
        try:
            top = math.exp(self.log_mean + self.log_sd * _Z_MAX)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):  # an infinite exponent does not raise
            raise ValueError(f"lognormal(log_mean={self.log_mean}, log_sd={self.log_sd}) "
                             f"draws variates beyond the float range")

    def inverse_cdf(self, u):
        # math.exp, not np.exp: the two round differently on some inputs
        z = self.log_mean + self.log_sd * norm_ppf(u)
        return np.fromiter(map(math.exp, z.ravel().tolist()), float, z.size).reshape(z.shape)


@dataclass(frozen=True)
class DiscreteUniform(Distribution):
    lo: int
    hi: int

    def __post_init__(self):
        if not (abs(self.lo) <= 2 ** 53 and abs(self.hi) <= 2 ** 53):
            raise ValueError("discrete uniform bounds must lie within +-2**53, "
                             "where integers are distinct floats")
        if not (float(self.lo).is_integer() and float(self.hi).is_integer()):
            raise ValueError("discrete uniform bounds must be integers")
        if not self.lo < self.hi:
            raise ValueError(f"discrete uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def inverse_cdf(self, u):
        # u <= 1 - 2**-53, so u * n rounds below n and truncates to at most
        # n - 1; lo and each lo + k lie within +-2**53, so the sum is exact
        n = self.hi - self.lo + 1
        return self.lo + np.trunc(u * n)


class Custom(Distribution):
    """Discrete distribution over explicit (value, probability) atoms."""

    def __init__(self, pairs):
        pairs = [(float(v), float(p)) for v, p in pairs]
        if not pairs:
            raise ValueError("custom distribution needs at least one atom")
        if any(p <= 0 for _, p in pairs):
            raise ValueError("custom probabilities must be > 0")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"custom probabilities sum to {total}, not 1")
        self.pairs = tuple(sorted(pairs))
        self._values = np.array([v for v, _ in self.pairs])
        self._cum = np.cumsum([p for _, p in self.pairs])  # sequential sums
        self._cum[-1] = 1.0

    def __repr__(self):
        return f"Custom({list(self.pairs)!r})"

    def inverse_cdf(self, u):
        # the first atom whose cumulative probability reaches u: the last
        # one's is 1.0, so every u < 1 has one
        return self._values[np.searchsorted(self._cum, u, side="left")]


def distribution_from_json(obj: dict) -> Distribution:
    kind = obj.get("type")
    if kind == "uniform":
        return Uniform(obj["min"], obj["max"])
    if kind == "triangular":
        return Triangular(obj["min"], obj["mode"], obj["max"])
    if kind == "normal":
        return Normal(obj["mean"], obj["sd"])
    if kind == "lognormal":
        return Lognormal(obj["log_mean"], obj["log_sd"])
    if kind == "discrete_uniform":
        return DiscreteUniform(int(obj["lo"]), int(obj["hi"]))
    if kind == "custom":
        return Custom([(v, p) for v, p in obj["pairs"]])
    raise ValueError(f"unknown distribution type {kind!r}")
