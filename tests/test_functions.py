import math
import random

import pytest

from gridmc.functions import ErrorKind, EvalFailure, fsum, irr, lookup, npv


class TestNpv:
    def test_zero_rate_is_sum(self):
        assert npv(0.0, [10, 20, 30]) == pytest.approx(60.0, abs=1e-12)

    def test_two_periods(self):
        # hand oracle: 100/1.1 + 100/1.21
        expected = 100 / 1.1 + 100 / 1.21
        assert npv(0.1, [100, 100]) == pytest.approx(expected, rel=1e-12)

    def test_first_flow_discounted_one_period(self):
        assert npv(0.1, [110]) == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("rate", [-1.0, -1.5])
    def test_rate_at_or_below_minus_one(self, rate):
        with pytest.raises(EvalFailure) as exc:
            npv(rate, [10])
        assert exc.value.kind is ErrorKind.DOMAIN_ERROR

    def test_empty_cashflows(self):
        with pytest.raises(EvalFailure):
            npv(0.1, [])

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 8)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [rng.uniform(-100, 100) for _ in range(n)]
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            rate = rng.uniform(-0.5, 1.0)
            combo = [a * xi + b * yi for xi, yi in zip(x, y)]
            lhs = npv(rate, combo)
            rhs = a * npv(rate, x) + b * npv(rate, y)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def npv0(rate, cashflows):
    # independent oracle: flow 0 discounted at period 0
    return sum(cf / (1 + rate) ** i for i, cf in enumerate(cashflows))


class TestIrr:
    def test_single_period_analytic(self):
        assert irr([-100, 110]) == pytest.approx(0.10, abs=1e-9)

    def test_all_positive_nonconvergent(self):
        with pytest.raises(EvalFailure) as exc:
            irr([100, 110])
        assert exc.value.kind is ErrorKind.NON_CONVERGENT

    def test_two_period_quadratic_oracle(self):
        # 60x^2 + 60x - 100 = 0 with x = 1/(1+r)
        x = (-60 + math.sqrt(60 ** 2 + 4 * 60 * 100)) / (2 * 60)
        expected = 1 / x - 1
        assert irr([-100, 60, 60]) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.130662, abs=1e-6)

    def test_residual_contract(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 8)
            flows = [rng.uniform(-200, -50)] + [rng.uniform(10, 80) for _ in range(n)]
            r = irr(flows, guess=rng.uniform(-0.5, 1.0))
            assert abs(npv0(r, flows)) <= 1e-9 * sum(abs(f) for f in flows)

    def test_all_positive_always_nonconvergent(self):
        rng = random.Random(12)
        for _ in range(100):
            flows = [rng.uniform(1, 100) for _ in range(rng.randint(2, 8))]
            with pytest.raises(EvalFailure) as exc:
                irr(flows)
            assert exc.value.kind is ErrorKind.NON_CONVERGENT

    def test_bad_guess_falls_back_to_bisection(self):
        r = irr([-100, 60, 60], guess=9.9)
        assert abs(npv0(r, [-100, 60, 60])) <= 1e-9 * 220

    def test_too_few_cashflows(self):
        with pytest.raises(EvalFailure):
            irr([-100])

    def test_newton_overflow_falls_back_to_bisection(self):
        # Newton's rate grows until (1 + r) ** n leaves the float range
        flows = [-8.074509889662447e+51, 0.0, 0.0, 0.0, 1.0, -1.0]
        with pytest.raises(EvalFailure) as exc:
            irr(flows)
        assert exc.value.kind is ErrorKind.NON_CONVERGENT


class TestFsum:
    def test_exact(self):
        assert fsum([0.1] * 10) == 1.0

    @pytest.mark.parametrize("values", [[1e308, 1e308], [math.inf, -math.inf]])
    def test_overflow_is_a_domain_error(self, values):
        with pytest.raises(EvalFailure) as exc:
            fsum(values)
        assert exc.value.kind is ErrorKind.DOMAIN_ERROR


class TestLookup:
    TABLE = [(1, 10), (2, 20)]

    def test_exact_hit(self):
        assert lookup(self.TABLE, 2, "exact") == 20

    def test_exact_miss(self):
        with pytest.raises(EvalFailure) as exc:
            lookup(self.TABLE, 1.5, "exact")
        assert exc.value.kind is ErrorKind.LOOKUP_MISS

    def test_step_floor_semantics(self):
        assert lookup(self.TABLE, 1.5, "step") == 10
        assert lookup(self.TABLE, 2.0, "step") == 20
        assert lookup(self.TABLE, 99, "step") == 20

    def test_step_below_range(self):
        with pytest.raises(EvalFailure) as exc:
            lookup(self.TABLE, 0.5, "step")
        assert exc.value.kind is ErrorKind.LOOKUP_MISS

    def test_step_unsorted_table(self):
        with pytest.raises(EvalFailure) as exc:
            lookup([(2, 20), (1, 10)], 1.5, "step")
        assert exc.value.kind is ErrorKind.LOOKUP_MISS

    def test_empty_table(self):
        with pytest.raises(EvalFailure):
            lookup([], 1, "exact")
