"""floattext.csv_rows against Python's own text: str of each trial index and
repr of each float64, whatever its bits."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmc.floattext import csv_rows

MAX_FLOAT = sys.float_info.max
# the switch between fixed and exponent notation, on both sides
SWITCH_POINTS = [1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16]
# 2**51 + 0.25 is itself a tie, and rounds to 2**51; 2**50 + 0.25 and
# 2**50 + 0.75 lie halfway between two 17-digit decimals, and their last
# digit rounds to even (...242 and ...248)
TIES = [2 ** 51 + 0.25, 2 ** 50 + 0.25, 2 ** 50 + 0.75]


def reference(trials, values) -> bytes:
    """The rows as `",".join(map(str, row))` writes them."""
    return "".join(",".join(map(str, [int(t), *map(float, row)])) + "\n"
                   for t, row in zip(trials, values)).encode()


def assert_equal_repr(values, trials=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if trials is None:
        trials = np.arange(len(values))
    got, want = csv_rows(trials, values).splitlines(), reference(trials, values).splitlines()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:10]


def neighbours(x):
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 2 ** 64 - 1), max_size=80),
       st.integers(0, 2 ** 40))
@example(1, [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
             0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], 0)
@example(2, [0, 1 << 63, 1, (1 << 63) | 1, 0x7FEFFFFFFFFFFFFF, 0x0010000000000000], 9)
def test_bit_patterns_equal_repr(width, patterns, first_trial):
    n = len(patterns) // width
    values = np.array(patterns[:n * width], dtype=np.uint64).view(np.float64)
    trials = np.arange(n) + first_trial
    assert_equal_repr(values.reshape(n, width), trials)


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = [2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    values = [v for x in powers for v in neighbours(x)]
    assert_equal_repr(values + [-v for v in values])


def test_extremes_ties_and_switch_points():
    values = [0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, *TIES,
              *[v for x in SWITCH_POINTS for v in neighbours(x)]]
    assert_equal_repr(values + [-v for v in values])
    assert csv_rows([0, 1], np.array([[2 ** 50 + 0.25], [2 ** 50 + 0.75]])) == (
        b"0,1125899906842624.2\n1,1125899906842624.8\n")


def test_every_notation_and_digit_count():
    digits = ["1", "12", "105", "123456789", "1234567890123456", "12345678901234567"]
    values = [float(f"{d}e{e}") for d in digits for e in range(-30, 30)]
    assert_equal_repr(values + [-v for v in values])


def test_trial_indices_of_every_length():
    trials = np.array([0, 7, *[10 ** k + j for k in range(1, 20) for j in (-1, 0)],
                       2 ** 63 - 1, 2 ** 64 - 1], dtype=np.uint64)
    values = np.zeros((len(trials), 1))
    assert csv_rows(trials, values) == reference(trials.tolist(), values)


def test_block_shapes():
    assert csv_rows(np.arange(0), np.empty((0, 3))) == b""
    assert csv_rows(np.arange(0), np.empty((0, 0))) == b""
    assert csv_rows([5], np.array([[0.1, -2.0, 1e300]])) == b"5,0.1,-2.0,1e+300\n"
    assert csv_rows([3, 4], np.empty((2, 0))) == b"3\n4\n"
