"""CSV rows of trial indices and float64 values, a whole block at a time.

`csv_rows` writes each value as Python's `repr(float(v))` writes it: the
shortest decimal that reads back as v, the closest to v of those, ties to
an even last digit. The digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), computed on uint64 arrays with
multiplies, shifts, divisions by constants and compares only, so the text
does not depend on which SIMD kernels numpy picks:

- three round-to-odd products of 4c - 2 (or 4c - 1), 4c and 4c + 2, for
  v = c * 2**q, with a 128-bit 10**-k, give the rounding interval's ends
  and v itself, scaled to a decimal exponent k;
- the interval's one multiple of 10, or else the integer nearest to v
  (ties to even) of those inside it, is the shortest decimal;
- trailing zeros are stripped by 10**16, 10**8, 10**4, 10**2 and 10.

repr's layout (exponent form for |v| < 1e-4 and |v| >= 1e16, fixed
notation otherwise, and -0.0, inf, -inf and nan) is a table of
templates, one per sign, notation and digit count. Each cell's template
picks its bytes from the cell's digits, exponent digits, separator and
a few constants, and one boolean compaction drops the padding.
"""

from __future__ import annotations

import itertools

import numpy as np

_SIGN = 1 << 63
_EXP_MASK = 0x7FF << 52
_FRAC_MASK = (1 << 52) - 1
_HIDDEN = 1 << 52
_M32 = 0xFFFFFFFF

# the powers 10**e, e = -k, that a float64 needs: k runs from
# floor(log10(2**-1074)) = -324 to floor(log10(2**971)) = 292
_E_MIN, _E_MAX = -292, 324


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 1741647) >> 19


def _pow10_limbs() -> np.ndarray:
    """g(e) = floor(10**e * 2**(127 - floor(log2(10**e)))) + 1, which lies in
    [2**127, 2**128), as four 32-bit limbs, highest first: shape (4, 617)."""
    limbs = []
    for e in range(_E_MIN, _E_MAX + 1):
        shift = 127 - _floor_log2_pow10(e)
        if e < 0:
            g = (1 << shift) // 10 ** -e + 1
        elif shift >= 0:
            g = (10 ** e << shift) + 1
        else:
            g = (10 ** e >> -shift) + 1
        limbs.append([(g >> s) & _M32 for s in (96, 64, 32, 0)])
    return np.array(limbs, dtype=np.uint64).T.copy()


_G = _pow10_limbs()

# _DIGITS4[i] is the 4 ASCII digits of i, zero-padded, as one uint32
_n = np.arange(10000, dtype=np.uint16)
_DIGITS4 = np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1)
_DIGITS4 = (_DIGITS4.astype(np.uint8) + ord("0")).view(np.uint32).ravel()
del _n

# 10**1 .. 10**19: the digit count of s is 1 + the number of them <= s
_POW10 = np.array([10 ** i for i in range(1, 20)], dtype=np.uint64)

# A cell's source bytes: the 20 digits of its decimal significand s and
# the 4 of its exponent's magnitude, zero-padded on the left; its
# separator; then the constants.
_EXP_DIGITS = 20
_SEP = 24
_CONSTANTS = b"0.-e+infa"
_ZERO, _POINT, _MINUS, _E, _PLUS, _I, _N, _F, _A = range(_SEP + 1, _SEP + 1 + len(_CONSTANTS))
_SLOTS = _SEP + 1 + len(_CONSTANTS)

# notations: fixed with the decimal point after digit decpt, for decpt in
# -3..16 (form decpt + 3); exponent form by exponent sign and width; inf;
# nan; and an integer (the trial index)
_FIXED_FORMS = 20
_EXP_NEG2, _EXP_NEG3, _EXP_POS2, _EXP_POS3, _INF, _NAN, _INT = range(20, 27)
_FORMS = 27
_MAX_DIGITS = 20  # of a uint64; a float's shortest decimal has at most 17
_WIDTH = 25  # '-', 17 digits, '.', 'e', '-', 3 exponent digits, separator
# cells whose bytes are gathered at a time: bounds the intp index array to
# about 300 KB, which a TRIALS_BLOCK block of 5 columns would make 1.2 MB
_GATHER_CELLS = 1536


def _template(form: int, n: int) -> list:
    """The source slots of a non-negative cell's bytes, separator included,
    for a value of n significant digits."""
    digits = list(range(_MAX_DIGITS - n, _MAX_DIGITS))
    if form == _INT:
        out = digits
    elif form == _INF:
        out = [_I, _N, _F]
    elif form == _NAN:
        out = [_N, _A, _N]
    elif form < _FIXED_FORMS:
        point = max(form - 3, 1)
        digits = [_ZERO] * (4 - form) + digits  # the zeros of 0.000ddd
        digits += [_ZERO] * (point + 1 - len(digits))  # of ddd000.0
        out = digits[:point] + [_POINT] + digits[point:]
    else:
        out = digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
        out += [_E, _MINUS if form < _EXP_POS2 else _PLUS]
        out += list(range(_EXP_DIGITS + 1 + (form in (_EXP_NEG2, _EXP_POS2)), _SEP))
    return out + [_SEP]


def _templates():
    """(slots, mask) of the template of each class, (negative * _FORMS +
    form) * _MAX_DIGITS + n - 1: its slots padded to _WIDTH, and which of
    them are not padding. A negative template is the non-negative one after
    a minus sign."""
    rows = [_template(form, n) if n <= 17 or form == _INT else []
            for form in range(_FORMS) for n in range(1, _MAX_DIGITS + 1)]
    lengths = np.array([len(r) for r in rows])
    slots = np.zeros((len(rows), _WIDTH), dtype=np.uint8)
    slots[np.arange(_WIDTH) < lengths[:, None]] = list(itertools.chain.from_iterable(rows))
    negative = np.concatenate([np.full((len(rows), 1), _MINUS, np.uint8), slots[:, :-1]],
                              axis=1)
    lengths = np.concatenate([lengths, lengths + 1])
    return np.concatenate([slots, negative]), np.arange(_WIDTH) < lengths[:, None]


_TEMPLATE_SLOTS, _TEMPLATE_MASK = _templates()


def _round_to_odd(g, cp):
    """floor(g * cp / 2**128) with its lowest bit set when bits 65..127 of
    the product are not all zero; g is 128 bits as limbs, cp < 2**59."""
    g3, g2, g1, g0 = g
    c0, c1 = cp & _M32, cp >> 32
    t = g1 * c0 + ((g0 * c0) >> 32)
    u = (t & _M32) + g0 * c1
    t = g2 * c0 + (t >> 32) + (u >> 32)
    u = (t & _M32) + g1 * c1
    low = u & _M32  # bits 64..95
    t = g3 * c0 + (t >> 32) + (u >> 32)
    u = (t & _M32) + g2 * c1
    high = g3 * c1 + (t >> 32) + (u >> 32)
    return high | (((u & _M32) != 0) | (low > 1))


def _shortest(bits):
    """(s, k): the shortest decimal s * 10**k in the rounding interval of
    each finite nonzero |v| (bits with the sign cleared), the closest to v
    of those; s may end in zeros."""
    biased = bits >> 52
    frac = bits & _FRAC_MASK
    normal = biased != 0
    c = np.where(normal, frac | _HIDDEN, frac | (bits == 0))  # 1 for 0, which the caller sets
    q = np.where(normal, biased, 1).astype(np.int64) - 1075
    # the interval's lower end is closer when c is a power of two above the smallest normal
    closer = (frac == 0) & (biased > 1)
    k = (q * 1262611 - np.where(closer, 524031, 0)) >> 22
    h = (q + _floor_log2_pow10(-k) + 1).astype(np.uint64)  # 1..4
    g = [limb[-k - _E_MIN] for limb in _G]
    cb = c << 2
    lower = _round_to_odd(g, (cb - 2 + closer) << h)
    vb = _round_to_odd(g, cb << h)
    upper = _round_to_odd(g, (cb + 2) << h)
    odd = c & 1
    lower += odd  # an odd c excludes the interval's ends
    upper -= odd

    s = vb >> 2
    sp = s // 10
    up_inside = lower <= 40 * sp
    wp_inside = 40 * sp + 40 <= upper
    shorter = (s >= 10) & (up_inside != wp_inside)
    u_inside = lower <= 4 * s
    w_inside = 4 * s + 4 <= upper
    mid = 4 * s + 2
    round_up = np.where(u_inside != w_inside, w_inside,
                        (vb > mid) | ((vb == mid) & ((s & 1) == 1)))
    s = np.where(shorter, sp + wp_inside, s + round_up)
    return s, k + shorter


def _strip_zeros(s):
    """(s without its trailing zeros, how many there were); s > 0."""
    zeros = np.zeros(s.shape, dtype=np.int64)
    for p in (16, 8, 4, 2, 1):
        quotient = s // 10 ** p
        whole = quotient * 10 ** p == s
        s = np.where(whole, quotient, s)
        zeros += whole * p
    return s, zeros


def _float_cells(values):
    """(s, classes, exponent magnitudes) of a float64 array's cells. The
    digits of inf and nan, as those of a finite float with the same exponent
    field, are computed and left unread."""
    bits = values.view(np.uint64)
    bits, negative = bits & ~np.uint64(_SIGN), (bits >> 63).astype(np.intp)
    nan = bits > _EXP_MASK
    negative[nan] = 0  # repr writes every NaN as nan
    inf = bits == _EXP_MASK
    zero = bits == 0
    s, k = _shortest(bits)
    s, zeros = _strip_zeros(s)
    s[zero] = 0
    n = np.searchsorted(_POW10, s, side="right") + 1
    exp10 = k + zeros + n - 1
    exp10[zero] = 0
    fixed = (exp10 >= -4) & (exp10 < 16)
    form = np.where(fixed, exp10 + 4,
                    _EXP_NEG2 + 2 * (exp10 > 0) + (np.abs(exp10) >= 100))
    form[inf] = _INF
    form[nan] = _NAN
    exponent = np.where(fixed, 0, np.abs(exp10))
    return s, (negative * _FORMS + form) * _MAX_DIGITS + n - 1, exponent


def csv_rows(trials, values) -> bytes:
    """The CSV rows `trial,v1,...,vm\\n` of trial indices (n non-negative
    integers) and values (an n x m float64 array); each value's text equals
    `repr(float(v))`."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n, m = values.shape
    s = np.empty((n, m + 1), dtype=np.uint64)
    classes = np.empty((n, m + 1), dtype=np.intp)
    groups = np.zeros((n, m + 1, 6), dtype=np.intp)  # s's 4-digit groups, the exponent
    s[:, 0] = trials
    classes[:, 0] = _INT * _MAX_DIGITS + np.searchsorted(_POW10, s[:, 0], side="right")
    s[:, 1:], classes[:, 1:], groups[:, 1:, 5] = _float_cells(values)
    high, low = s // 10 ** 8, s % 10 ** 8
    groups[..., 0], high = high // 10 ** 8, high % 10 ** 8
    groups[..., 1], groups[..., 2] = high // 10000, high % 10000
    groups[..., 3], groups[..., 4] = low // 10000, low % 10000

    source = np.empty((n, m + 1, _SLOTS), dtype=np.uint8)
    source[..., :_SEP] = _DIGITS4[groups].view(np.uint8)
    source[:, :-1, _SEP:] = np.frombuffer(b"," + _CONSTANTS, dtype=np.uint8)
    source[:, -1, _SEP:] = np.frombuffer(b"\n" + _CONSTANTS, dtype=np.uint8)
    classes = classes.ravel()
    text = np.empty((classes.size, _WIDTH), dtype=np.uint8)
    for start in range(0, classes.size, _GATHER_CELLS):
        part = slice(start, start + _GATHER_CELLS)
        at = _TEMPLATE_SLOTS[classes[part]].astype(np.intp)
        at += (np.arange(start, start + len(at)) * _SLOTS)[:, None]
        text[part] = source.ravel()[at]
    return text[_TEMPLATE_MASK[classes]].tobytes()
