import numpy as np
import pytest
import scipy.stats as st

from gridmc.rng import U_MAX, U_MIN, RandomSource, _unit


def one(src, t, k):
    """The single draw at (trial t, stream k), from a 1 x 1 block."""
    return src.uniform_block([t], [k])[0, 0]


class TestDeterminism:
    def test_same_coordinates_same_value(self):
        src = RandomSource(42)
        assert one(src, 3, 1) == one(src, 3, 1)

    def test_streams_separate(self):
        src = RandomSource(42)
        assert one(src, 0, 0) != one(src, 0, 1)
        assert one(src, 0, 0) != one(src, 1, 0)

    def test_seed_changes_values(self):
        assert one(RandomSource(1), 0, 0) != one(RandomSource(2), 0, 0)

    def test_block_matches_scalar(self):
        src = RandomSource(99)
        block = src.uniform_block(np.arange(10), np.arange(4))
        for t in range(10):
            for k in range(4):
                assert block[t, k] == one(src, t, k)

    def test_pure_function_of_coordinates(self):
        # independent of evaluation order / block shape
        src = RandomSource(7)
        a = src.uniform_block(np.arange(100), np.arange(3))[57, 2]
        b = src.uniform_block(np.array([57]), np.array([2]))[0, 0]
        assert a == b


class TestQuality:
    N = 100_000

    def test_open_interval(self):
        u = RandomSource(5).uniform_block(np.arange(self.N), np.arange(1))
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_bits_to_unit_ends(self):
        # all-ones bits would round to exactly 1.0 without the clamp
        u = _unit(np.array([2**64 - 1, 2**64 - 2**11, 0], dtype=np.uint64))
        assert u.tolist() == [U_MAX, U_MAX, U_MIN]
        assert U_MAX == 1.0 - 2.0 ** -53 and U_MIN == 2.0 ** -54
        assert U_MAX < 1.0

    def test_mean(self):
        u = RandomSource(42).uniform_block(np.arange(self.N), np.arange(1))[:, 0]
        assert abs(u.mean() - 0.5) < 0.005

    @pytest.mark.parametrize("seed,k", [(42, 0), (42, 7), (1234, 0)])
    def test_chi_square_uniformity(self, seed, k):
        u = RandomSource(seed).uniform_block(np.arange(self.N), np.array([k]))[:, 0]
        counts, _ = np.histogram(u, bins=100, range=(0, 1))
        _, p = st.chisquare(counts)
        assert p > 0.001

    def test_cross_stream_independence(self):
        u = RandomSource(314).uniform_block(np.arange(self.N), np.arange(2))
        r = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
        assert abs(r) < 4 / np.sqrt(self.N)
