"""Reference inverse CDFs: one element at a time, on Python floats.

These are the per-element methods gridmc's distributions had before each
became one array expression, kept as the oracle the array methods are tested
against bit for bit. The normal quantile comes from the masked norm_ppf
oracle, called once per array by inverse_cdf_array.
"""

import itertools
import math

import numpy as np

from gridmc.distributions import (
    Custom,
    DiscreteUniform,
    Lognormal,
    Normal,
    Triangular,
    Uniform,
)
from tests.norm_ppf_oracle import norm_ppf


def inverse_cdf(dist, u: float) -> float:
    """dist's F^{-1}(u) for one Python float u."""
    if isinstance(dist, Uniform):
        return dist.min + u * (dist.max - dist.min)
    if isinstance(dist, Triangular):
        a, m, b = dist.min, dist.mode, dist.max
        fc = (m - a) / (b - a)
        if u <= fc:
            return a + math.sqrt(u * (b - a) * (m - a)) if m > a else a
        return b - math.sqrt((1.0 - u) * (b - a) * (b - m))
    if isinstance(dist, Normal):
        return dist.mean + dist.sd * norm_ppf(u)
    if isinstance(dist, Lognormal):
        return math.exp(dist.log_mean + dist.log_sd * norm_ppf(u))
    if isinstance(dist, DiscreteUniform):
        n = dist.hi - dist.lo + 1
        return float(dist.lo + min(n - 1, int(u * n)))
    if isinstance(dist, Custom):
        cum = list(itertools.accumulate(p for _, p in dist.pairs))
        cum[-1] = 1.0
        for (v, _), c in zip(dist.pairs, cum):
            if u <= c:
                return v
        return dist.pairs[-1][0]
    raise TypeError(f"no oracle for {dist!r}")


def inverse_cdf_array(dist, u) -> np.ndarray:
    """inverse_cdf of each element of u, in an array of u's shape.

    A Normal or Lognormal takes the masked norm_ppf of the whole array in one
    call, then its mean + sd * z, and exp, on each element's Python float.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(dist, Normal):
        out = [dist.mean + dist.sd * z for z in norm_ppf(u.ravel()).tolist()]
    elif isinstance(dist, Lognormal):
        out = [math.exp(dist.log_mean + dist.log_sd * z) for z in norm_ppf(u.ravel()).tolist()]
    else:
        out = [inverse_cdf(dist, x) for x in u.ravel().tolist()]
    return np.array(out, dtype=float).reshape(u.shape)
