"""Reference inverse normal CDF: Acklam's approximation with one branch per tail.

This is the masked norm_ppf gridmc used before its branch-free one, kept as
the oracle that norm_ppf's one array path is tested against bit for bit.
Each region's elements are picked by a mask and run through their own
formula, and the upper tail has its own copy of the tail polynomial.
"""

import numpy as np


def norm_ppf(u):
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425

    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = np.empty_like(u)

    lo = u < p_low
    hi = u > p_high
    mid = ~(lo | hi)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        out[mid] = q * num / den
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(u[lo]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        out[lo] = num / den
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        out[hi] = -(num / den)
    return out if out.ndim else float(out)
