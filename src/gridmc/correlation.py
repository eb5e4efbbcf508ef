"""Target rank correlations between assumption columns.

Rank reordering against a correlated Gaussian score matrix
(Iman-Conover): marginals are preserved exactly because each output
column is a permutation of the input column.

Each output column is the sorted input column written out in the order
of its score column: the trial with the i-th smallest score gets the
i-th smallest value, ties among scores going to the lower trial index
first. The order comes from one argsort of numpy's default kind per
column. Where the sorted scores strictly increase, that order is the
only sorting permutation, whatever the sort does within a tie on the
CPU at hand; where they do not (a tie, +-0.0 or NaN), the column is
argsorted again with kind="stable", which gives the index order.

A run reorders each block of its trials on its own, with normal scores
drawn at the block's own trial indices, so a block depends on no trial
outside it and correlation holds one block's scores. They are drawn
TRIALS_BLOCK rows at a time and standardized in place, and the score
matrix is freed as soon as it is decorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .distributions import norm_ppf
from .rng import TRIALS_BLOCK, RandomSource

PSD_TOL = -1e-10


class CorrelationError(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationSpec:
    """Square symmetric matrix of target Spearman coefficients.

    Frozen, so what depends on the matrix alone is worked out on its first
    use and kept on the instance: why it is not a valid correlation matrix,
    if it is not; whether it is the identity; and the root of its normal
    scores' target. A run reorders many blocks against one spec and pays
    for each of these once.
    """

    matrix: tuple  # tuple of tuples, row major

    @staticmethod
    def from_pairs(k: int, pairs) -> "CorrelationSpec":
        """Expand {(i, j): rho} into a full matrix, zeros elsewhere."""
        m = np.eye(k)
        for (i, j), rho in pairs.items():
            m[i, j] = rho
            m[j, i] = rho
        return CorrelationSpec(tuple(tuple(row) for row in m))

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @cached_property
    def is_identity(self) -> bool:
        return np.array_equal(self.as_array(), np.eye(self.size))

    @cached_property
    def _problem(self) -> Optional[str]:
        """Why the matrix is not symmetric, unit-diagonal, in-range and PSD;
        None where it is."""
        m = self.as_array()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            return "correlation matrix must be square"
        if not np.allclose(np.diag(m), 1.0, rtol=0, atol=0):
            return "correlation matrix diagonal must be 1"
        if not np.array_equal(m, m.T):
            return "correlation matrix must be symmetric"
        if np.any(np.abs(m) > 1.0):
            bad = np.argwhere(np.abs(m) > 1.0)[0]
            return (f"correlation entry ({bad[0]},{bad[1]}) = {m[bad[0], bad[1]]} "
                    f"outside [-1, 1]")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < PSD_TOL:
            return (f"correlation matrix is not positive semi-definite "
                    f"(most negative eigenvalue {eigenvalues.min():.3e})")
        return None

    @cached_property
    def score_root(self) -> np.ndarray:
        """L.T, read-only, for L @ L.T the Pearson target of the normal
        scores: the Spearman target mapped by 2 sin(pi rho / 6)."""
        target = 2.0 * np.sin(np.pi * self.as_array() / 6.0)
        np.fill_diagonal(target, 1.0)
        root = _psd_sqrt(target).T
        root.flags.writeable = False
        return root


def validate_correlation(spec: CorrelationSpec) -> None:
    """Raise CorrelationError unless symmetric, unit-diagonal, in-range, PSD.

    The matrix is checked once per spec; an invalid one raises on every call.
    """
    if spec._problem is not None:
        raise CorrelationError(spec._problem)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T = m; tolerant of zero eigenvalues."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def _scores(n: int, spec: CorrelationSpec, src: RandomSource,
            stream_offset: int, trial_offset: int = 0) -> np.ndarray:
    """Normal scores of n trials from trial_offset, correlated so their ranks meet spec."""
    streams = np.arange(stream_offset, stream_offset + spec.size)
    z = np.empty((n, spec.size))
    for start in range(0, n, TRIALS_BLOCK):
        stop = min(start + TRIALS_BLOCK, n)
        z[start:stop] = norm_ppf(src.uniform_block(np.arange(start, stop) + trial_offset, streams))
    # both moments of the raw scores, as (z - z.mean()) / z.std() takes them
    mean, sd = z.mean(axis=0), z.std(axis=0)
    z -= mean
    z /= sd
    # Remove the sample correlation of the scores, then impose the target.
    sample = (z.T @ z) / n
    l_sample = np.linalg.cholesky(sample)
    decorrelated = z @ np.linalg.inv(l_sample).T
    del z
    return decorrelated @ spec.score_root


def induce_rank_correlation(columns: np.ndarray, spec: CorrelationSpec,
                            src: RandomSource, stream_offset: int = 0,
                            trial_offset: int = 0) -> np.ndarray:
    """Reorder each column so pairwise Spearman correlations approach spec.

    Every output column is a permutation of the matching input column.
    Gaussian scores are drawn from src at assumption indices
    stream_offset .. stream_offset + k - 1 and trial indices
    trial_offset .. trial_offset + n - 1.
    """
    columns = np.asarray(columns, dtype=float)
    n, k = columns.shape
    if spec.size != k:
        raise CorrelationError(f"spec is {spec.size}x{spec.size}, data has {k} columns")
    validate_correlation(spec)
    if n < 10 * k:
        raise CorrelationError(f"need at least {10 * k} trials for {k} columns, got {n}")

    scores = _scores(n, spec, src, stream_offset, trial_offset)
    out = np.empty_like(columns)
    for j in range(k):
        order = np.argsort(scores[:, j])
        ordered = scores[order, j]
        if not np.all(ordered[1:] > ordered[:-1]):  # a tie, +-0.0 or NaN
            order = np.argsort(scores[:, j], kind="stable")
        out[order, j] = np.sort(columns[:, j])
    return out
