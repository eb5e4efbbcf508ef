import numpy as np
import pytest

from gridmc.analytics import rank_average, spearman
from gridmc.correlation import (
    CorrelationError,
    CorrelationSpec,
    induce_rank_correlation,
    validate_correlation,
)
from gridmc.rng import RandomSource


def spec_of(rows):
    return CorrelationSpec(tuple(tuple(float(v) for v in r) for r in rows))


class TestValidate:
    def test_identity_ok(self):
        validate_correlation(CorrelationSpec.from_pairs(3, {}))

    def test_two_by_two_ok(self):
        validate_correlation(spec_of([[1, 0.8], [0.8, 1]]))

    def test_non_psd_rejected(self):
        m = [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]
        # eigenvalue oracle: this matrix has a negative eigenvalue
        assert np.linalg.eigvalsh(np.array(m)).min() < -1e-6
        with pytest.raises(CorrelationError, match="positive semi-definite"):
            validate_correlation(spec_of(m))

    def test_asymmetry_rejected(self):
        with pytest.raises(CorrelationError, match="symmetric"):
            validate_correlation(spec_of([[1, 0.5], [0.4, 1]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(CorrelationError, match="outside"):
            validate_correlation(spec_of([[1, 1.2], [1.2, 1]]))

    def test_bad_diagonal_rejected(self):
        with pytest.raises(CorrelationError, match="diagonal"):
            validate_correlation(spec_of([[0.9, 0], [0, 1]]))

    def test_singular_but_psd_ok(self):
        validate_correlation(spec_of([[1, 1], [1, 1]]))


class TestInduce:
    def _data(self, n, k, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n, k))

    def test_marginals_preserved_exactly(self):
        x = self._data(1000, 3)
        spec = CorrelationSpec.from_pairs(3, {(0, 1): 0.5, (1, 2): -0.3})
        y = induce_rank_correlation(x, spec, RandomSource(1))
        for j in range(3):
            assert np.array_equal(np.sort(x[:, j]), np.sort(y[:, j]))

    def test_identity_spec_keeps_near_zero_correlation(self):
        x = self._data(1000, 3)
        y = induce_rank_correlation(x, CorrelationSpec.from_pairs(3, {}), RandomSource(3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(spearman(y[:, i], y[:, j])) <= 0.06

    def test_perfect_correlation_is_comonotone(self):
        x = self._data(500, 2)
        spec = CorrelationSpec.from_pairs(2, {(0, 1): 1.0})
        y = induce_rank_correlation(x, spec, RandomSource(4))
        assert np.array_equal(rank_average(y[:, 0]), rank_average(y[:, 1]))
        assert spearman(y[:, 0], y[:, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_target_point_eight(self):
        x = self._data(2000, 2)
        spec = CorrelationSpec.from_pairs(2, {(0, 1): 0.8})
        y = induce_rank_correlation(x, spec, RandomSource(5))
        assert 0.75 <= spearman(y[:, 0], y[:, 1]) <= 0.85

    def test_negative_target(self):
        x = self._data(2000, 2)
        spec = CorrelationSpec.from_pairs(2, {(0, 1): -0.6})
        y = induce_rank_correlation(x, spec, RandomSource(6))
        assert -0.66 <= spearman(y[:, 0], y[:, 1]) <= -0.54

    def test_too_few_rows_rejected(self):
        x = self._data(15, 2)
        with pytest.raises(CorrelationError, match="at least"):
            induce_rank_correlation(x, CorrelationSpec.from_pairs(2, {}), RandomSource(0))

    def test_invalid_spec_rejected(self):
        x = self._data(100, 2)
        with pytest.raises(CorrelationError):
            induce_rank_correlation(x, spec_of([[1, 2], [2, 1]]), RandomSource(0))

    def test_deterministic(self):
        x = self._data(500, 2)
        spec = CorrelationSpec.from_pairs(2, {(0, 1): 0.4})
        y1 = induce_rank_correlation(x, spec, RandomSource(9))
        y2 = induce_rank_correlation(x, spec, RandomSource(9))
        assert np.array_equal(y1, y2)
