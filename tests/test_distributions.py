import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from tests import inverse_cdf_oracle, norm_ppf_oracle, scipy_reference

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


# four forms a value can reach norm_ppf in
FORMS = (float, np.float64, lambda x: np.array(float(x)), lambda x: np.array([float(x)]))


def in_every_form(u):
    """norm_ppf of u in each form, under np.errstate(all="raise"), with the
    oracle's value: each form gives an array of its own shape."""
    want = norm_ppf_oracle.norm_ppf(float(u))
    for form in FORMS:
        with np.errstate(all="raise"):
            got = norm_ppf(form(u))
        assert type(got) is np.ndarray and got.shape == np.shape(form(u))
        yield got.ravel()[0], want


class TestNormPpfAgainstBranchingOracle:
    """norm_ppf gives the bits of the masked one it replaced for every form
    of input, and no formula warns on the elements it does not serve."""

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
    @example(EDGES, (-1,))
    def test_arrays(self, values, shape):
        if len(shape) == 2:
            values = values[:len(values) // 2 * 2]
        u = np.array(values, dtype=float).reshape(shape)
        with np.errstate(all="raise"):
            assert same_bits(norm_ppf(u), norm_ppf_oracle.norm_ppf(u))

    def test_tails(self):
        # math.log rounds differently from numpy's SIMD log on about 2 in
        # 10,000 tail inputs on some CPUs: enough inputs that a log other
        # than the oracle's would show
        u = np.random.default_rng(15).random(50_000) * P_LOW
        u = np.concatenate([u, 1.0 - u])
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


def _tail_mix(case: str) -> np.ndarray:
    """24,000 uniforms (1,000 x 24 for the grid) with no tail element, only
    tail elements, one tail element, or as a run's uniform_block draws them."""
    rng = np.random.default_rng(27)
    central = rng.uniform(P_LOW, 1 - P_LOW, 24_000)
    if case == "no tail":
        return central
    if case == "tails only":
        low = rng.uniform(1e-300, P_LOW * 0.999, 24_000)
        return np.where(rng.random(24_000) < 0.5, low, 1.0 - low)
    if case == "one tail":
        central[9_137] = 1.0 - 1e-3
        return central
    return RandomSource(27).uniform_block(np.arange(1_000), np.arange(24))


# array forms a block of uniforms can reach norm_ppf in: as is, a list, a
# strided view (_sample_matrix passes columns u[:, j]) and a 2-D grid
ARRAY_FORMS = (
    lambda u: u,
    lambda u: u.tolist(),
    lambda u: np.stack([u, u], axis=-1)[..., 0],
    lambda u: u.reshape(-1, 24),
)


class TestNormPpfTailsOnly:
    """The tail formula runs on the tail elements alone, with the bits of the
    oracle and no warning, however few tail elements there are."""

    @pytest.mark.parametrize("case, n_tail", [("no tail", 0), ("tails only", 24_000),
                                              ("one tail", 1), ("uniform_block", None)])
    def test_against_the_oracle(self, case, n_tail):
        u = _tail_mix(case)
        tails = (u < P_LOW) | (u > 1 - P_LOW)
        if n_tail is None:
            assert tails.any()
        else:
            assert np.count_nonzero(tails) == n_tail
        want = norm_ppf_oracle.norm_ppf(u)
        for form in ARRAY_FORMS:
            with np.errstate(all="raise"):
                got = norm_ppf(form(u))
            assert type(got) is np.ndarray and same_bits(got, want.reshape(got.shape))
        for x, w in zip(u[tails][:50].tolist(), want[tails][:50].tolist()):
            for got, _ in in_every_form(x):
                assert same_bits(got, w)


def inverse(dist, *u):
    """dist's inverse CDF of the floats u, as one array."""
    return dist.inverse_cdf(np.array(u, dtype=float))


class TestInverseCdf:
    def test_triangular_median_at_symmetric_mode(self):
        assert inverse(Triangular(0, 5, 10), 0.5)[0] == pytest.approx(5.0)

    def test_uniform_linear(self):
        assert inverse(Uniform(0, 8), 0.25)[0] == pytest.approx(2.0)

    def test_triangular_u_at_mode_cdf(self):
        # u = F(mode) = (mode-min)/(max-min)
        assert inverse(Triangular(0, 2, 10), 0.2)[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_monotone(self, dist):
        u = np.sort(np.random.default_rng(5).uniform(1e-9, 1 - 1e-9, (1000, 2)), axis=1)
        assert np.all(dist.inverse_cdf(u[:, 0]) <= dist.inverse_cdf(u[:, 1]))

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_keeps_the_shape_of_u(self, dist):
        u = np.full((2, 3), 0.5)
        got = dist.inverse_cdf(u)
        assert type(got) is np.ndarray and got.shape == (2, 3)
        assert np.all(got == inverse_cdf_oracle.inverse_cdf(dist, 0.5))

    def test_custom_step_function(self):
        c = Custom([(1, 0.2), (2, 0.5), (4, 0.3)])
        assert inverse(c, 0.1, 0.2, 0.21, 0.7, 0.71, 0.999).tolist() == [1, 1, 2, 2, 4, 4]

    def test_discrete_uniform_covers_support(self):
        d = DiscreteUniform(1, 6)
        values = set(d.inverse_cdf(np.linspace(0.01, 0.99, 200)).tolist())
        assert values == {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}


FINITE = hst.floats(-1e6, 1e6)


@hst.composite
def distributions(draw):
    """One of the six shapes, with mode == min and mode == max among the
    triangulars and bounds at +-2**53 among the discrete uniforms."""
    kind = draw(hst.sampled_from([type(d) for d in ALL]))
    if kind is Uniform:
        lo, hi = sorted(draw(hst.tuples(FINITE, FINITE)))
        assume(lo < hi)
        return Uniform(lo, hi)
    if kind is Triangular:
        a, m, b = sorted(draw(hst.tuples(FINITE, FINITE, FINITE)))
        assume(a < b)
        return Triangular(a, draw(hst.sampled_from([a, m, b])), b)
    if kind is Normal:
        return Normal(draw(FINITE), draw(hst.floats(1e-6, 1e6)))
    if kind is Lognormal:
        return Lognormal(draw(hst.floats(-50.0, 50.0)), draw(hst.floats(1e-3, 5.0)))
    if kind is DiscreteUniform:
        bound = hst.integers(-2 ** 53, 2 ** 53) | hst.sampled_from(
            [-2 ** 53, -2 ** 53 + 1, 2 ** 53 - 1, 2 ** 53])
        lo, hi = sorted(draw(hst.tuples(bound, bound)))
        assume(lo < hi)
        return DiscreteUniform(lo, hi)
    values = draw(hst.lists(FINITE, min_size=1, max_size=6))
    weights = draw(hst.lists(hst.floats(1e-3, 1.0), min_size=len(values),
                             max_size=len(values)))
    return Custom([(v, w / math.fsum(weights)) for v, w in zip(values, weights)])


def boundary_u(dist):
    """The u where dist's inverse CDF changes branch or atom, with their
    float neighbours, and EDGES: every one inside (0, 1)."""
    cuts = []
    if isinstance(dist, Triangular):
        cuts = [(dist.mode - dist.min) / (dist.max - dist.min)]
    elif isinstance(dist, Custom):
        cuts = list(itertools.accumulate(p for _, p in dist.pairs))
    elif isinstance(dist, DiscreteUniform):
        n = dist.hi - dist.lo + 1
        cuts = [1 / n, (n - 1) / n]
    u = EDGES + [x for c in cuts for x in (c, np.nextafter(c, 0), np.nextafter(c, 1))]
    return [x for x in u if 0.0 < x < 1.0]


class TestInverseCdfAgainstOracle:
    """Each shape's array inverse CDF gives the bits of the per-element one
    it replaced, and warns on no element. Underflow is left quiet, as numpy
    leaves it by default: a u as small as 5e-324 underflows in both."""

    @settings(max_examples=300, deadline=None)
    @given(distributions(), hst.lists(OPEN_UNIT, max_size=30))
    @example(Triangular(0, 0, 10), [])
    @example(Triangular(0, 10, 10), [])
    @example(Triangular(-7.3, 5.3, 6.9), [])  # the two branches differ at fc
    @example(Triangular(-1e6, 1e6 - 1e-9, 1e6), [])
    @example(DiscreteUniform(-2 ** 53, 2 ** 53), [])
    @example(DiscreteUniform(2 ** 53 - 3, 2 ** 53), [])
    @example(DiscreteUniform(-2 ** 53, -2 ** 53 + 1), [])
    @example(Custom([(1, 0.2), (2, 0.5), (4, 0.3)]), [])
    def test_bits(self, dist, values):
        u = np.array(values + boundary_u(dist))
        want = inverse_cdf_oracle.inverse_cdf_array(dist, u)
        with np.errstate(all="raise", under="ignore"):
            got = dist.inverse_cdf(u)
        assert type(got) is np.ndarray and same_bits(got, want)


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
        lambda: DiscreteUniform(1.5, 3),
    ])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    def test_custom_sum_tolerance(self):
        Custom([(1, 0.5), (2, 0.5 + 5e-10)])  # within 1e-9

    def test_lognormal_whose_largest_variate_overflows(self):
        # norm_ppf(1 - 2**-53) is 8.2095..., and exp overflows past 709.78;
        # with log_sd 1e308 the exponent itself is infinite
        assert np.isfinite(inverse(Lognormal(701.5, 1), U_MAX)).all()
        for log_mean, log_sd in ((701.6, 1), (800, 1), (0, 87), (0, 1e308)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Lognormal(log_mean, log_sd)

    def test_normal_whose_extreme_variates_overflow(self):
        assert np.isfinite(inverse(Normal(0, 1e307), U_MIN, U_MAX)).all()
        for mean, sd in ((0, 1e308), (1.79e308, 1e305), (-1.79e308, 1e305)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Normal(mean, sd)

    def test_uniform_whose_width_overflows(self):
        assert np.isfinite(inverse(Uniform(-8e307, 8e307), U_MIN, U_MAX)).all()
        for lo, hi in ((-1e308, 1e308), (0, math.inf), (-math.inf, 0)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Uniform(lo, hi)

    def test_triangular_whose_variates_overflow(self):
        # (max-min)*(mode-min) and (max-min)*(max-mode) are the radicands'
        # largest factors: once either is infinite, draws are +-inf
        assert np.isfinite(inverse(Triangular(-6e153, 0, 6e153), U_MIN, 0.5, U_MAX)).all()
        for a, m, b in ((-1e308, 0, 1e308), (0, 1e200, 2e200), (0, 0, 2e154),
                        (-2e154, 0, 0), (0, 0, math.inf)):
            with pytest.raises(ValueError, match="beyond the float range"):
                Triangular(a, m, b)

    def test_discrete_uniform_bounds_beyond_2_to_53(self):
        # beyond 2**53, consecutive integers are not distinct floats. At the
        # bounds, U_MIN * (2**54 + 1) rounds to 1 and U_MAX's product to 2**54 - 2
        assert inverse(DiscreteUniform(-2 ** 53, 2 ** 53), U_MIN, U_MAX).tolist() == [
            -2.0 ** 53 + 1, 2.0 ** 53 - 2]
        for lo, hi in ((-2 ** 53 - 1, 0), (0, 2 ** 53 + 1), (10 ** 20, 10 ** 20 + 5),
                       (int(-1e308), int(1e308))):
            with pytest.raises(ValueError, match=r"within \+-2\*\*53"):
                DiscreteUniform(lo, hi)


class DrawCheckedNormal(Normal):
    """Normal with the range check it had before its two constants: it drew
    the variates at U_MIN and U_MAX."""

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"normal needs sd > 0, got {self.sd}")
        with np.errstate(all="ignore"):
            ends = self.inverse_cdf(np.array([U_MIN, U_MAX]))
        if not np.isfinite(ends).all():
            raise ValueError(f"normal(mean={self.mean}, sd={self.sd}) "
                             f"draws variates beyond the float range")


class DrawCheckedLognormal(Lognormal):
    """Lognormal with the range check it had before its constant: it drew
    the variate at U_MAX."""

    def __post_init__(self):
        if not self.log_sd > 0:
            raise ValueError(f"lognormal needs log_sd > 0, got {self.log_sd}")
        try:
            with np.errstate(all="ignore"):
                top = self.inverse_cdf(np.array([U_MAX]))[0]
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"lognormal(log_mean={self.log_mean}, log_sd={self.log_sd}) "
                             f"draws variates beyond the float range")


def construction(cls, *params):
    """None if cls(*params) builds, else its exception's type and text."""
    try:
        cls(*params)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


Z_MAX = float(norm_ppf(U_MAX))
LOG_MAX = math.log(sys.float_info.max)  # 709.78..., where math.exp overflows
# ints, huge ints among them, floats anywhere, and floats near the largest
NUMBERS = (hst.integers(-10 ** 6, 10 ** 6) | hst.integers(-2 ** 1030, 2 ** 1030)
           | hst.floats() | hst.floats(1.7e308, 1.8e308) | hst.floats(-1.8e308, -1.7e308))
SDS = NUMBERS | hst.floats(0.0, 1e-300) | hst.floats(1e305, 1e308)


@hst.composite
def near_exp_overflow(draw):
    """(log_mean, log_sd) whose exponent at U_MAX lies near 709.78, where
    math.exp overflows."""
    log_sd = draw(hst.floats(1e-300, 1e3) | hst.integers(1, 80))
    exponent = hst.floats(709.7, 709.9) | hst.floats(LOG_MAX - 1e-12, LOG_MAX + 1e-12)
    return draw(exponent) - log_sd * Z_MAX, log_sd


class TestRangeCheckAgainstDraws:
    """The constants accept and reject the parameters that drawing at the
    ends of the range did, with the same error."""

    @settings(max_examples=500, deadline=None)
    @given(NUMBERS, SDS)
    @example(1.79e308, 1e305)
    @example(-1.79e308, 1e305)
    @example(0, 1e308)
    @example(0.0, 5e-324)
    @example(1.7976931348623157e308, 5e-324)
    def test_normal(self, mean, sd):
        assert construction(Normal, mean, sd) == construction(DrawCheckedNormal, mean, sd)

    @settings(max_examples=500, deadline=None)
    @given(hst.tuples(NUMBERS, SDS) | near_exp_overflow())
    @example((701.5, 1))
    @example((701.6, 1))
    @example((0, 87))
    @example((0, 1e308))
    @example((LOG_MAX, 5e-324))
    def test_lognormal(self, params):
        assert (construction(Lognormal, *params)
                == construction(DrawCheckedLognormal, *params))

    def test_exponents_near_the_edge_go_both_ways(self):
        assert construction(Lognormal, LOG_MAX - Z_MAX - 1e-9, 1) is None
        assert construction(Lognormal, LOG_MAX - Z_MAX + 1e-9, 1) is not None


class TestSamplingFidelity:
    N = 20000

    @pytest.mark.parametrize("dist, ref", [
        pytest.param(*pair, id=type(pair[0]).__name__) for pair in scipy_reference.PAIRS])
    def test_mean_and_ks(self, dist, ref):
        src = RandomSource(2024)
        u = src.uniform_block(np.arange(self.N), np.arange(1))[:, 0]
        mean_se, d = scipy_reference.misfit(dist.inverse_cdf(u), ref)
        assert mean_se < 4
        assert d < 1.63 / math.sqrt(self.N)


# each JSON form, the shape it names, and the values of that shape's fields
JSON_FORMS = [
    ({"type": "uniform", "min": 0, "max": 8}, Uniform, {"min": 0, "max": 8}),
    ({"type": "triangular", "min": 0, "mode": 2, "max": 10}, Triangular,
     {"min": 0, "mode": 2, "max": 10}),
    ({"type": "normal", "mean": 5, "sd": 2}, Normal, {"mean": 5, "sd": 2}),
    ({"type": "lognormal", "log_mean": 0.3, "log_sd": 0.5}, Lognormal,
     {"log_mean": 0.3, "log_sd": 0.5}),
    ({"type": "discrete_uniform", "lo": 1, "hi": 6}, DiscreteUniform, {"lo": 1, "hi": 6}),
    ({"type": "custom", "pairs": [[4, 0.3], [1, 0.2], [2, 0.5]]}, Custom,
     {"pairs": ((1.0, 0.2), (2.0, 0.5), (4.0, 0.3))}),
]


class TestJsonCodec:
    @pytest.mark.parametrize("obj, kind, fields", [
        pytest.param(*case, id=case[1].__name__) for case in JSON_FORMS])
    def test_round_trip(self, obj, kind, fields):
        # the JSON form parses to its shape, and its values come back from
        # the fields of that name
        dist = distribution_from_json(obj)
        assert type(dist) is kind
        assert {name: getattr(dist, name) for name in fields} == fields

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            distribution_from_json({"type": "beta"})
