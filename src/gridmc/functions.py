"""Numeric building blocks: NPV, IRR root finding, table lookup.

All failures raise EvalFailure, which the evaluator converts into a
CalcError at the cell that invoked the function.
"""

from __future__ import annotations

import math
from enum import Enum


class ErrorKind(str, Enum):
    DIV_BY_ZERO = "DivByZero"
    DOMAIN_ERROR = "DomainError"
    LOOKUP_MISS = "LookupMiss"
    NON_CONVERGENT = "NonConvergent"
    REF_ERROR = "RefError"


class EvalFailure(Exception):
    """Raised inside formula evaluation; caught and wrapped per cell."""

    def __init__(self, kind: ErrorKind, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def npv(rate: float, cashflows) -> float:
    """Present value of cashflows, the first flow discounted one period."""
    if rate <= -1.0:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"NPV rate {rate} <= -1")
    if not cashflows:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, "NPV needs at least one cashflow")
    return discount(rate, cashflows)


def discount(rate, cashflows):
    """Sum of cashflows discounted from one period on, without checks.

    The rate and the flows may be floats or numpy arrays: the same
    divisions, products and sums run per element either way.
    """
    total = 0.0
    factor = 1.0
    for cf in cashflows:
        factor = factor / (1.0 + rate)
        total = total + cf * factor
    return total


def fsum(values) -> float:
    """Exact sum of floats (math.fsum); an intermediate overflow, or
    inf plus -inf, is a DomainError."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"sum: {exc}") from None


def _npv0(rate: float, cashflows) -> float:
    # Discounts flow 0 at period 0 (the IRR convention).
    total = 0.0
    factor = 1.0
    for cf in cashflows:
        total += cf * factor
        factor /= 1.0 + rate
    return total


def _npv0_derivative(rate: float, cashflows) -> float:
    total = 0.0
    for i, cf in enumerate(cashflows):
        if i:
            total -= i * cf / (1.0 + rate) ** (i + 1)
    return total


IRR_SCAN_LO = -0.99
IRR_SCAN_HI = 10.0
IRR_MAX_ITER = 200


def irr(cashflows, guess: float = 0.1) -> float:
    """Internal rate of return.

    Newton from `guess`; on failure, bisection on a bracket found by
    scanning (-0.99, 10]. Raises NonConvergent when the flows have no
    sign change or no bracket/convergence within 200 iterations.
    """
    cashflows = list(cashflows)
    if len(cashflows) < 2:
        raise EvalFailure(ErrorKind.NON_CONVERGENT, "IRR needs at least two cashflows")
    tol = 1e-9 * sum(abs(cf) for cf in cashflows)
    has_pos = any(cf > 0 for cf in cashflows)
    has_neg = any(cf < 0 for cf in cashflows)
    if not (has_pos and has_neg):
        raise EvalFailure(ErrorKind.NON_CONVERGENT, "cashflows have no sign change")

    # Newton iteration.
    r = guess
    for _ in range(IRR_MAX_ITER):
        if r <= -1.0:
            break
        f = _npv0(r, cashflows)
        if abs(f) <= tol:
            return r
        try:
            d = _npv0_derivative(r, cashflows)
        except OverflowError:  # (1 + r) ** n past the float range
            break
        if d == 0.0 or not math.isfinite(d):
            break
        step = f / d
        if not math.isfinite(step):
            break
        r -= step

    # Bisection fallback on a scanned bracket.
    n_steps = 1100
    lo = IRR_SCAN_LO
    f_lo = _npv0(lo, cashflows)
    bracket = None
    for i in range(1, n_steps + 1):
        hi = IRR_SCAN_LO + (IRR_SCAN_HI - IRR_SCAN_LO) * i / n_steps
        f_hi = _npv0(hi, cashflows)
        if f_lo == 0.0 or f_lo * f_hi < 0.0:
            bracket = (lo, hi, f_lo)
            break
        lo, f_lo = hi, f_hi
    if bracket is None:
        raise EvalFailure(ErrorKind.NON_CONVERGENT, "no IRR bracket in (-0.99, 10]")
    lo, hi, f_lo = bracket
    for _ in range(IRR_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = _npv0(mid, cashflows)
        if abs(f_mid) <= tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise EvalFailure(ErrorKind.NON_CONVERGENT, "IRR iteration cap reached")


def lookup(table, key: float, mode: str) -> float:
    """Two-column table lookup.

    mode "exact": second-column value whose key matches exactly.
    mode "step": row with the largest first-column value <= key;
    requires the first column sorted ascending.
    """
    if not table:
        raise EvalFailure(ErrorKind.LOOKUP_MISS, "empty lookup table")
    if mode == "exact":
        for k, v in table:
            if k == key:
                return v
        raise EvalFailure(ErrorKind.LOOKUP_MISS, f"no exact match for key {key}")
    if mode == "step":
        keys = [k for k, _ in table]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise EvalFailure(ErrorKind.LOOKUP_MISS, "step lookup table not sorted")
        if key < keys[0]:
            raise EvalFailure(ErrorKind.LOOKUP_MISS, f"key {key} below table range")
        result = table[0][1]
        for k, v in table:
            if k <= key:
                result = v
            else:
                break
        return result
    raise ValueError(f"unknown lookup mode {mode!r}")
