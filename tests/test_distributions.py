import math
import random

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gridmc.distributions import (
    Custom,
    DiscreteUniform,
    Lognormal,
    Normal,
    Triangular,
    Uniform,
    distribution_from_json,
    norm_ppf,
)
from gridmc.rng import U_MAX, U_MIN, RandomSource
from tests import norm_ppf_oracle

ALL = [
    Uniform(0, 8),
    Triangular(0, 2, 10),
    Normal(5, 2),
    Lognormal(0.3, 0.5),
    DiscreteUniform(1, 6),
    Custom([(1, 0.2), (2, 0.5), (4, 0.3)]),
]


class TestNormPpf:
    def test_accuracy_in_u(self):
        # |Phi(ppf(u)) - u| below the stated 1.2e-9 budget
        u = np.concatenate([
            np.linspace(1e-12, 0.02425, 2000),
            np.linspace(0.025, 0.975, 20000),
            np.linspace(0.97575, 1 - 1e-12, 2000),
        ])
        x = norm_ppf(u)
        back = 0.5 * np.array([math.erfc(-v / math.sqrt(2)) for v in x])
        assert np.max(np.abs(back - u)) < 1.2e-9

    def test_symmetry(self):
        assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)
        assert norm_ppf(0.2) == pytest.approx(-norm_ppf(0.8), abs=1e-9)

    def test_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with np.errstate(all="raise"):
                with pytest.raises(ValueError):
                    norm_ppf(bad)
                with pytest.raises(ValueError):
                    norm_ppf(np.array([0.3, bad, 0.7]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


P_LOW = 0.02425
EDGES = [P_LOW, 1 - P_LOW, np.nextafter(P_LOW, 0), np.nextafter(P_LOW, 1),
         np.nextafter(1 - P_LOW, 0), np.nextafter(1 - P_LOW, 1),
         0.5, U_MIN, U_MAX, 1e-300, 5e-324]
OPEN_UNIT = hst.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


# the four forms a value reaches norm_ppf in; the first three give a float
FORMS = (float, np.float64, lambda x: np.array(float(x)), lambda x: np.array([float(x)]))


def in_every_form(u):
    """norm_ppf of u in each form, under np.errstate(all="raise"), with the
    oracle's value: the scalar forms must give a Python float."""
    want = norm_ppf_oracle.norm_ppf(float(u))
    for form in FORMS:
        with np.errstate(all="raise"):
            got = norm_ppf(form(u))
        if form is FORMS[-1]:
            assert type(got) is np.ndarray and got.shape == (1,)
            got = got[0]
        else:
            assert type(got) is float
        yield got, want


class TestNormPpfAgainstBranchingOracle:
    """norm_ppf gives the bits of the masked one it replaced for a float, an
    np.float64 and a 0-d array (its scalar path) and a 1-d array (its array
    path), and no formula warns on the elements it does not serve."""

    @pytest.mark.parametrize("u", EDGES)
    def test_edges(self, u):
        for got, want in in_every_form(u):
            assert same_bits(got, want)

    def test_edges_as_one_array(self):
        u = np.array(EDGES)
        with np.errstate(all="raise"):
            assert same_bits(norm_ppf(u), norm_ppf_oracle.norm_ppf(u))

    @settings(max_examples=300, deadline=None)
    @given(OPEN_UNIT)
    def test_scalars(self, u):
        for got, want in in_every_form(u):
            assert same_bits(got, want)

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(OPEN_UNIT | hst.sampled_from(EDGES), max_size=50),
           hst.sampled_from([(-1,), (-1, 2)]))
    def test_arrays(self, values, shape):
        if len(shape) == 2:
            values = values[:len(values) // 2 * 2]
        u = np.array(values, dtype=float).reshape(shape)
        with np.errstate(all="raise"):
            assert same_bits(norm_ppf(u), norm_ppf_oracle.norm_ppf(u))

    def test_nan_gives_nan(self):
        for got, _ in in_every_form(math.nan):
            assert math.isnan(got)
        with np.errstate(all="raise"):
            got = norm_ppf(np.array([0.3, math.nan]))
        assert math.isnan(got[1]) and got[0] == norm_ppf(0.3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, -math.inf, math.inf])
    def test_out_of_domain_raises_in_every_form(self, bad):
        for form in FORMS:
            with np.errstate(all="raise"), pytest.raises(ValueError, match="strictly inside"):
                norm_ppf(form(bad))


class TestNormPpfPaths:
    """A scalar runs one formula on Python floats, an array runs both on
    every element: the two paths give the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(OPEN_UNIT | hst.sampled_from(EDGES), min_size=1, max_size=50))
    @example(EDGES)
    def test_array_equals_scalars(self, values):
        self.check(np.array(values, dtype=float))

    def test_tails_array_equals_scalars(self):
        # math.log rounds differently from numpy's SIMD log on about 2 in
        # 10,000 tail inputs on some CPUs: enough inputs that a scalar path
        # with another log than the array path's would show
        u = np.random.default_rng(15).random(50_000) * P_LOW
        self.check(np.concatenate([u, 1.0 - u]))

    @staticmethod
    def check(u):
        with np.errstate(all="raise"):
            array = norm_ppf(u)
            scalars = np.array([norm_ppf(x) for x in u.tolist()])
        assert same_bits(array, scalars)


class TestInverseCdf:
    def test_triangular_median_at_symmetric_mode(self):
        assert Triangular(0, 5, 10).inverse_cdf(0.5) == pytest.approx(5.0)

    def test_uniform_linear(self):
        assert Uniform(0, 8).inverse_cdf(0.25) == pytest.approx(2.0)

    def test_triangular_u_at_mode_cdf(self):
        # u = F(mode) = (mode-min)/(max-min)
        assert Triangular(0, 2, 10).inverse_cdf(0.2) == pytest.approx(2.0)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_monotone(self, dist):
        rng = random.Random(5)
        for _ in range(1000):
            u1, u2 = sorted((rng.uniform(1e-9, 1 - 1e-9), rng.uniform(1e-9, 1 - 1e-9)))
            assert dist.inverse_cdf(u1) <= dist.inverse_cdf(u2)

    def test_custom_step_function(self):
        c = Custom([(1, 0.2), (2, 0.5), (4, 0.3)])
        assert c.inverse_cdf(0.1) == 1
        assert c.inverse_cdf(0.2) == 1
        assert c.inverse_cdf(0.21) == 2
        assert c.inverse_cdf(0.7) == 2
        assert c.inverse_cdf(0.71) == 4
        assert c.inverse_cdf(0.999) == 4

    def test_discrete_uniform_covers_support(self):
        d = DiscreteUniform(1, 6)
        values = {d.inverse_cdf(u) for u in np.linspace(0.01, 0.99, 200)}
        assert values == {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}


class TestParameterValidation:
    @pytest.mark.parametrize("make", [
        lambda: Uniform(1, 1),
        lambda: Uniform(2, 1),
        lambda: Triangular(0, 11, 10),
        lambda: Triangular(5, 4, 10),
        lambda: Normal(0, 0),
        lambda: Normal(0, -1),
        lambda: Lognormal(0, 0),
        lambda: DiscreteUniform(3, 3),
        lambda: Custom([]),
        lambda: Custom([(1, 0.5), (2, 0.6)]),
        lambda: Custom([(1, -0.5), (2, 1.5)]),
    ])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    def test_custom_sum_tolerance(self):
        Custom([(1, 0.5), (2, 0.5 + 5e-10)])  # within 1e-9

    def test_lognormal_whose_largest_variate_overflows(self):
        # norm_ppf(1 - 2**-53) is 8.2095..., and exp overflows past 709.78
        u_max = 1.0 - 2.0 ** -53
        assert math.isfinite(Lognormal(701.5, 1).inverse_cdf(u_max))
        for log_mean, log_sd in ((701.6, 1), (800, 1), (0, 87)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Lognormal(log_mean, log_sd)


    def test_normal_whose_extreme_variates_overflow(self):
        assert math.isfinite(Normal(0, 1e307).inverse_cdf(U_MIN))
        for mean, sd in ((0, 1e308), (1.79e308, 1e305), (-1.79e308, 1e305)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Normal(mean, sd)

    def test_uniform_whose_width_overflows(self):
        assert math.isfinite(Uniform(-8e307, 8e307).inverse_cdf(U_MAX))
        for lo, hi in ((-1e308, 1e308), (0, math.inf), (-math.inf, 0)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Uniform(lo, hi)


def ks_statistic(samples, dist):
    """sup |F_n - F| for a possibly discontinuous CDF."""
    xs = np.sort(samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = dist.cdf(x)
        d = max(d, abs((i + 1) / n - f), abs(i / n - f))
    return d


class TestSamplingFidelity:
    N = 20000

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_mean_and_ks(self, dist):
        src = RandomSource(2024)
        u = src.uniform_block(np.arange(self.N), np.arange(1))[:, 0]
        samples = np.array([dist.inverse_cdf(v) for v in u])
        se = math.sqrt(dist.variance() / self.N)
        assert abs(samples.mean() - dist.mean()) < 4 * se
        if isinstance(dist, (DiscreteUniform, Custom)):
            # discrete KS: compare empirical mass up to each atom
            atoms = sorted({float(v) for v in samples})
            d = max(abs(np.mean(samples <= a) - dist.cdf(a)) for a in atoms)
        else:
            d = ks_statistic(samples, dist)
        assert d < 1.63 / math.sqrt(self.N)

    def test_against_scipy_cdfs(self):
        # cross-check our analytic CDFs against scipy's
        grid = np.linspace(-3, 12, 50)
        pairs = [
            (Uniform(0, 8), st.uniform(0, 8)),
            (Triangular(0, 2, 10), st.triang(0.2, loc=0, scale=10)),
            (Normal(5, 2), st.norm(5, 2)),
            (Lognormal(0.3, 0.5), st.lognorm(0.5, scale=math.exp(0.3))),
        ]
        for ours, ref in pairs:
            for x in grid:
                assert ours.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-9)


class TestJsonCodec:
    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_round_trip(self, dist):
        assert distribution_from_json(dist.to_json()) == dist

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            distribution_from_json({"type": "beta"})
