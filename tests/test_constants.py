import math

import pytest

from eulerlab.constants import (
    euler_formula_gamma,
    euler_gamma_series,
    glaisher_limit,
    glaisher_zeta,
    ln2_series,
    ln_4_over_pi,
    stirling_ratio,
    wallis_partial,
)
from eulerlab.core_numerics import sum_series
from eulerlab.special_functions import zeta, zeta_prime

from conftest import EULER_GAMMA, GLAISHER_A, LN_4_OVER_PI


class TestEulerGammaSeries:
    def test_first_terms(self):
        assert abs(euler_gamma_series(1).value - (1.0 - math.log(2.0))) <= 1e-15
        two = (1.0 - math.log(2.0)) + (0.5 - math.log(1.5))
        assert abs(euler_gamma_series(2).value - two) <= 1e-15

    def test_million_terms_within_bound(self):
        est = euler_gamma_series(10**6)
        assert abs(est.value - EULER_GAMMA) <= est.error_bound
        assert est.error_bound == 5e-7
        assert abs(est.value - EULER_GAMMA) <= 1e-6


class TestEulerFormulaGamma:
    def test_first_approximant(self):
        expected = LN_4_OVER_PI + math.pi**2 / 24.0
        assert abs(euler_formula_gamma(2).value - expected) <= 1e-14

    def test_geometric_convergence(self):
        assert abs(euler_formula_gamma(50).value - euler_formula_gamma(60).value) < 1e-15

    def test_reference_accuracy(self):
        est = euler_formula_gamma(50)
        assert abs(est.value - EULER_GAMMA) <= 1e-13
        assert abs(est.value - EULER_GAMMA) <= est.error_bound

    def test_term_step_identity(self):
        # value(N+1) - value(N) is +-zeta(N+1)/(2^N (N+1))
        for n in (4, 7):
            step = euler_formula_gamma(n + 1).value - euler_formula_gamma(n).value
            term = zeta(float(n + 1)).real / (2.0**n * (n + 1))
            sign = 1.0 if (n + 1) % 2 == 0 else -1.0
            assert abs(step - sign * term) <= 1e-15


class TestLn4OverPi:
    def test_first_term(self):
        assert abs(ln_4_over_pi(1).value - (1.0 - math.log(2.0))) <= 1e-15

    def test_closed_form(self):
        est = ln_4_over_pi(1, method="closed_form")
        assert est.method == "closed_form"
        assert abs(est.value - LN_4_OVER_PI) <= 1e-16

    def test_series_within_alternating_bound(self):
        est = ln_4_over_pi(10**5)
        assert abs(est.value - LN_4_OVER_PI) <= est.error_bound

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ln_4_over_pi(10, method="magic")


class TestLn2Series:
    @pytest.mark.parametrize("n", [1, 2, 7, 10**5])
    def test_equals_the_term_by_term_sum_exactly(self, n):
        reference = sum_series(
            lambda k: (1.0 if k % 2 else -1.0) / k, 1e-300, n, alternating=True
        )
        estimate = ln2_series(n)
        assert estimate.value == reference.value
        assert estimate.terms_or_n == reference.terms_used == n
        assert estimate.error_bound == reference.remainder_bound

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            ln2_series(0)


class TestWallis:
    def test_small_products(self):
        assert wallis_partial(1) == 2.0
        assert abs(wallis_partial(3) - 16.0 / 9.0) <= 1e-15

    def test_million_factors(self):
        assert abs(wallis_partial(10**6) - math.pi / 2.0) <= 1e-6

    def test_consistency_with_alternating_series(self):
        # partial alternating series = alternating harmonic partial - ln(product partial);
        # the gap to (ln 2 - ln product) is the harmonic remainder, below 1/(N+1)
        n = 10**5
        series = ln_4_over_pi(n).value
        via_product = math.log(2.0) - math.log(wallis_partial(n))
        assert abs(series - via_product) <= 1.0 / (n + 1)


class TestGlaisher:
    def test_n_equals_one(self):
        assert abs(glaisher_limit(1).value - math.exp(0.25)) <= 1e-15

    def test_limit_approaches_reference(self):
        assert abs(glaisher_limit(10**4).value - GLAISHER_A) <= 1e-3

    def test_second_order_approach(self):
        # the ratio error decays like 1/(720 n^2): quartering under n -> 2n
        errors = [abs(glaisher_limit(n).value - GLAISHER_A) for n in (100, 200, 400)]
        for earlier, later in zip(errors, errors[1:]):
            assert 0.2 <= later / earlier <= 0.3
        assert abs(errors[0] - GLAISHER_A / (720.0 * 100**2)) / errors[0] <= 0.01

    def test_zeta_route(self):
        est = glaisher_zeta()
        assert abs(est.value - GLAISHER_A) <= est.error_bound
        expected_log = 1.0 / 12.0 - zeta_prime(-1.0).real
        assert math.log(est.value) == pytest.approx(expected_log, abs=1e-15)

    def test_dual_route_agreement(self):
        assert abs(glaisher_zeta().value - glaisher_limit(10**5).value) < 1e-4

    def test_bound_holds_across_scales(self):
        for n in (10, 10**3, 10**5, 10**6):
            est = glaisher_limit(n)
            assert abs(est.value - GLAISHER_A) <= est.error_bound

    def test_bounds(self):
        with pytest.raises(ValueError):
            glaisher_limit(0)
        with pytest.raises(ValueError):
            glaisher_limit(10**6 + 1)


class TestStirling:
    def test_n_equals_one(self):
        assert abs(stirling_ratio(1) - math.e) <= 1e-15

    def test_ten_thousand(self):
        assert abs(stirling_ratio(10**4) - math.sqrt(2.0 * math.pi)) <= 1e-4

    def test_monotone_decrease(self):
        values = [stirling_ratio(n) for n in (1, 2, 4, 8, 32, 128, 1024)]
        for earlier, later in zip(values, values[1:]):
            assert later < earlier
        assert values[-1] > math.sqrt(2.0 * math.pi)


class TestDualRoutes:
    def test_gamma_bridge(self):
        # harmonic-rate route vs geometric-rate route
        series = euler_gamma_series(10**6)
        formula = euler_formula_gamma(50)
        assert abs(series.value - formula.value) <= 2e-6
        assert abs(series.value - formula.value) <= max(
            series.error_bound, formula.error_bound
        )

    def test_ln2_bridge(self):
        r = sum_series(
            lambda n: (1.0 if n % 2 else -1.0) / n, 1e-5, 10**6, alternating=True
        )
        assert abs(r.value - math.log(2.0)) <= r.remainder_bound

    def test_ln4pi_bridge(self):
        series = ln_4_over_pi(10**5)
        closed = ln_4_over_pi(1, method="closed_form")
        assert abs(series.value - closed.value) <= max(
            series.error_bound, closed.error_bound or 0.0
        )
