"""Block-at-a-time sampling and Iman-Conover against the formulas they
replace, the column-at-a-time draws of a step against a block's, the
spec-only work done once per spec, and the memory that sampling holds."""

import inspect
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmc.cells import parse_cell
from gridmc import correlation
from gridmc.correlation import (
    CorrelationSpec,
    _psd_sqrt,
    _scores,
    induce_rank_correlation,
)
from gridmc.distributions import (
    Custom,
    DiscreteUniform,
    Lognormal,
    Normal,
    Triangular,
    Uniform,
)
from gridmc.document import ModelDocument
from gridmc.rng import TRIALS_BLOCK, RandomSource
from gridmc.simulate import (
    SimulationSpec,
    StepSession,
    _block_bounds,
    _sample_block,
    _sample_matrix,
    run,
    sample_assumptions,
)
from tests.conftest import example_path
from tests.inverse_cdf_oracle import inverse_cdf_array
from tests.norm_ppf_oracle import norm_ppf

KINDS = [
    Uniform(-2.0, 3.0),
    Triangular(80.0, 100.0, 130.0),
    Normal(0.04, 0.02),
    Lognormal(0.0, 0.5),
    DiscreteUniform(1, 6),
    Custom([(1.0, 0.2), (2.5, 0.5), (4.0, 0.3)]),
]


def reference_sample_matrix(spec, n, start=0):
    """Pre-correlation values of trials start.. from one n x k block of uniforms."""
    src = RandomSource(spec.seed)
    k = len(spec.assumptions)
    values = np.empty((n, k))
    if k == 0:
        return values
    u = src.uniform_block(np.arange(start, start + n), np.arange(k))
    for j, dist in enumerate(spec.distributions):
        values[:, j] = inverse_cdf_array(dist, u[:, j])
    return values


def reference_scores(n, spec, src, stream_offset, trial_offset=0):
    """The Iman-Conover scores from one n x k block of uniforms."""
    u = src.uniform_block(np.arange(trial_offset, trial_offset + n),
                          np.arange(stream_offset, stream_offset + spec.size))
    return correlate_scores(norm_ppf(u), spec)


def column_scores(n, spec, src, stream_offset):
    """The scores from uniforms drawn one column of n rows at a time, as
    correlation._scores drew them before it drew blocks of rows."""
    z = np.empty((n, spec.size))
    for j in range(spec.size):
        z[:, j] = norm_ppf(src.uniform_block(np.arange(n), [stream_offset + j])[:, 0])
    return correlate_scores(z, spec)


def correlate_scores(z, spec):
    """Standardize raw normal scores, decorrelate them and impose spec."""
    target = 2.0 * np.sin(np.pi * spec.as_array() / 6.0)
    np.fill_diagonal(target, 1.0)
    z = (z - z.mean(axis=0)) / z.std(axis=0)
    sample = (z.T @ z) / len(z)
    l_sample = np.linalg.cholesky(sample)
    return z @ np.linalg.inv(l_sample).T @ _psd_sqrt(target).T


def reference_induce(columns, spec, src, stream_offset=0, trial_offset=0):
    return reorder_by_scores(columns, reference_scores(columns.shape[0], spec, src,
                                                       stream_offset, trial_offset))


def reorder_by_scores(columns, scores):
    """Each sorted column read off the ordinal ranks of its scores, ties
    broken by index: two stable argsorts per column."""
    out = np.empty_like(columns)
    for j in range(columns.shape[1]):
        ranks = np.argsort(np.argsort(scores[:, j], kind="stable"), kind="stable")
        out[:, j] = np.sort(columns[:, j])[ranks]
    return out


def reference_blocks(trials, k):
    """(start, stop) of a run's blocks, listed: max(TRIALS_BLOCK, 10 k) trials
    each, with a tail shorter than one block joined to the block before it."""
    size = max(TRIALS_BLOCK, 10 * k)
    starts = list(range(0, trials, size))
    if len(starts) > 1 and trials - starts[-1] < size:
        starts.pop()
    return list(zip(starts, starts[1:] + [trials]))


def reference_sample_assumptions(spec):
    """Each block sampled and rank-correlated on its own, its scores drawn
    at its own trials."""
    k = len(spec.assumptions)
    blocks = []
    for start, stop in reference_blocks(spec.trials, k):
        values = reference_sample_matrix(spec, stop - start, start)
        if spec.has_correlation() and k > 0:
            values = reference_induce(values, spec.correlation, RandomSource(spec.seed),
                                      stream_offset=k, trial_offset=start)
        blocks.append(values)
    return np.concatenate(blocks) if blocks else np.empty((0, k))


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def spec_for(dists, trials, seed, correlation=None):
    cells = [parse_cell(f"A{j + 1}") for j in range(len(dists))]
    return SimulationSpec(assumptions=list(zip(cells, dists)), forecasts=[],
                          correlation=correlation, trials=trials, seed=seed)


def random_correlation(k, seed):
    """A symmetric, unit-diagonal, positive semi-definite matrix."""
    a = np.random.default_rng(seed).normal(size=(k, k + 2))
    gram = a @ a.T
    d = np.sqrt(np.diag(gram))
    m = gram / np.outer(d, d)
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return CorrelationSpec(tuple(tuple(row) for row in m))


def banded(k, rho):
    return CorrelationSpec.from_pairs(k, {(j, j + 1): rho for j in range(k - 1)})


SEEDS = st.integers(0, 2 ** 64 - 1)


class TestAgainstWholeGrid:
    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.integers(0, len(KINDS) - 1), min_size=1, max_size=30),
           n=st.integers(0, 40), seed=SEEDS)
    def test_sample_matrix(self, kinds, n, seed):
        spec = spec_for([KINDS[i] for i in kinds], n, seed)
        assert bits_equal(_sample_matrix(spec, n), reference_sample_matrix(spec, n))

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 30), extra=st.integers(0, 300), seed=SEEDS,
           offset=st.integers(0, 2 ** 32), trial_offset=st.integers(0, 2 ** 40),
           matrix_seed=st.integers(0, 2 ** 32))
    def test_induce_rank_correlation(self, k, extra, seed, offset, trial_offset, matrix_seed):
        n = 10 * k + extra
        columns = np.random.default_rng(matrix_seed).normal(size=(n, k))
        spec = random_correlation(k, matrix_seed)
        args = (spec, RandomSource(seed), offset, trial_offset)
        # the output is read off the scores' ranks, which hide a last-bit
        # difference: the scores themselves must be equal too
        assert bits_equal(_scores(n, *args), reference_scores(n, *args))
        assert bits_equal(induce_rank_correlation(columns, *args),
                          reference_induce(columns, *args))

    @settings(max_examples=15, deadline=None)
    @given(kinds=st.lists(st.integers(0, len(KINDS) - 1), min_size=2, max_size=12),
           extra=st.integers(0, 50), seed=SEEDS, rho=st.floats(-0.45, 0.45))
    def test_sample_assumptions_every_kind(self, kinds, extra, seed, rho):
        k = len(kinds)
        spec = spec_for([KINDS[i] for i in kinds], 10 * k + extra, seed, banded(k, rho))
        assert bits_equal(sample_assumptions(spec), reference_sample_assumptions(spec))

    def test_correlated_fixture(self):
        _, spec = ModelDocument.load(example_path("project-npv-correlated.json")).build(
            trials=2000)
        assert spec.has_correlation()
        assert bits_equal(sample_assumptions(spec), reference_sample_assumptions(spec))

    @pytest.mark.parametrize("trials", [2047, 2048, 3000, 5000])
    def test_block_by_block(self, trials):
        # 2,047 trials are one block; 2,048 are two whole ones; 3,000 and
        # 5,000 end in a block that took in a shorter tail
        _, spec = ModelDocument.load(example_path("project-npv-correlated.json")).build(
            trials=trials)
        assert len(reference_blocks(trials, len(spec.assumptions))) == {
            2047: 1, 2048: 2, 3000: 2, 5000: 4}[trials]
        assert bits_equal(sample_assumptions(spec), reference_sample_assumptions(spec))

    def test_blocks_of_ten_trials_an_assumption(self):
        # past 102 assumptions a block is 10 k trials, Iman-Conover's minimum
        dists = [KINDS[j % len(KINDS)] for j in range(110)]
        spec = spec_for(dists, 3000, 5, banded(110, 0.3))
        assert reference_blocks(3000, 110) == [(0, 1100), (1100, 3000)]
        assert bits_equal(sample_assumptions(spec), reference_sample_assumptions(spec))


class TestScoreBlocks:
    """_scores draws TRIALS_BLOCK rows of all k streams at a time; the
    scores must equal those drawn a column at a time, below, at and past
    a block's end."""

    @pytest.mark.parametrize("n", [1, TRIALS_BLOCK - 1, TRIALS_BLOCK, TRIALS_BLOCK + 1, 2500])
    def test_equal_to_column_draws(self, n):
        spec = random_correlation(5, 11)
        for seed, offset in ((0, 0), (2 ** 64 - 1, 5), (12345, 2 ** 32)):
            args = (n, spec, RandomSource(seed), offset)
            # one row has no spread: both standardize it to nan
            with np.errstate(divide="ignore", invalid="ignore") if n == 1 else nullcontext():
                assert bits_equal(_scores(*args), column_scores(*args))


class TestReorder:
    """induce_rank_correlation argsorts each score column once with numpy's
    default kind, and again with kind="stable" where the sorted scores do
    not strictly increase; both paths must give the oracle's output."""

    def score_columns(self, n, rng):
        ties = rng.integers(0, 6, n).astype(float)
        zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        zeros[::3] = rng.normal(size=len(zeros[::3]))
        one_tie = rng.permutation(n).astype(float)
        one_tie[0] = one_tie[1]
        return np.column_stack([
            rng.normal(size=n),  # strictly increasing once sorted: one argsort
            ties,
            zeros,  # +-0.0 among distinct values: a tie to a sort
            one_tie,
            np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
        ])

    @pytest.mark.parametrize("n", [50, 1000, 5000])
    def test_equal_to_stable_ranks(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        scores = self.score_columns(n, rng)
        ordered = np.sort(scores, axis=0)
        assert np.all(ordered[1:, 0] > ordered[:-1, 0])
        assert not np.any(np.all(ordered[1:, 1:] > ordered[:-1, 1:], axis=0))
        monkeypatch.setattr(correlation, "_scores", lambda *args: scores)
        columns = rng.normal(size=(n, 5))
        columns[:, 1] = rng.integers(0, 3, n)  # ties among the values too
        spec = CorrelationSpec.from_pairs(5, {})
        got = induce_rank_correlation(columns, spec, RandomSource(0))
        assert bits_equal(got, reorder_by_scores(columns, scores))


class TestDrawPaths:
    """A block draws its value uniforms in one n x k call, and an uncorrelated
    step one column at a time: the RNG is counter-based, so both give the
    same bits."""

    @pytest.mark.parametrize("t,bounds", [
        (0, (0, 1024)),  # the run's first block
        (1024, (1024, 3071)),  # 2,047 rows: the last block took in a tail
        (5000, (4096, 5120)),  # past the run's end
    ])
    def test_block_equals_column_draws(self, t, bounds):
        spec = spec_for(KINDS * 2, 3071, 2 ** 64 - 3)
        assert not spec.has_correlation()
        start, stop = _block_bounds(spec, t)
        assert (start, stop) == bounds
        assert bits_equal(_sample_block(spec, start, stop),
                          _sample_matrix(spec, stop - start, start))

    def test_steps_equal_run(self):
        model, spec = ModelDocument.load(example_path("project-npv.json")).build(trials=1024)
        assert not spec.has_correlation()
        store = run(model, spec)
        assert store.trial_indices[:400].tolist() == list(range(400))
        steps = [[o.assumptions[c] for c in spec.assumption_cells]
                 for o in StepSession(model, spec).run(400)]
        assert bits_equal(np.array(steps), store.assumption_matrix[:400])


class TestSpecOnlyWork:
    """The correlation's check, its target's root and whether it is the
    identity are worked out once per spec, not once per block."""

    def test_eigen_calls_do_not_grow_with_blocks(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                if inspect.currentframe().f_back.f_globals["__name__"] == correlation.__name__:
                    calls.append(_original.__name__)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        counts = {}
        for trials in (20480, 1024):  # 20 blocks, then 1
            _, spec = ModelDocument.load(example_path("project-npv-correlated.json")).build(
                trials=trials)
            assert len(reference_blocks(trials, len(spec.assumptions))) == {
                20480: 20, 1024: 1}[trials]
            calls.clear()
            sample_assumptions(spec)
            counts[trials] = len(calls)
        assert counts[20480] == counts[1024] > 0


class TestMemory:
    """Sampling holds a few columns beside the matrix it returns, not
    several n x k grids of draws and scores."""

    def peak_ratio(self, spec):
        tracemalloc.start()
        try:
            values = sample_assumptions(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / values.nbytes

    def test_24_assumptions_at_5000_trials(self):
        dists = [Uniform(0.0, 1.0 + j) if j % 2 else Triangular(0.0, j, 2.0 * j + 1)
                 for j in range(24)]
        assert self.peak_ratio(spec_for(dists, 5000, 3, banded(24, 0.3))) <= 4.5

    def test_24_assumptions_at_50000_trials(self):
        # correlation holds one block's scores, so beside the output they
        # shrink as the run grows
        dists = [Uniform(0.0, 1.0 + j) if j % 2 else Triangular(0.0, j, 2.0 * j + 1)
                 for j in range(24)]
        assert self.peak_ratio(spec_for(dists, 50000, 3, banded(24, 0.3))) <= 2.0

    def test_4_assumptions_at_20000_trials(self):
        dists = [Uniform(0.0, 1.0), Triangular(-1.0, 0.0, 2.0),
                 Uniform(5.0, 6.0), Triangular(10.0, 11.0, 13.0)]
        assert self.peak_ratio(spec_for(dists, 20000, 4, banded(4, 0.5))) <= 4.5
