import cmath
import math
import random
import re
import sys

import numpy as np
import pytest

from eulerlab import constants, integral_forms
from eulerlab.errors import DomainError
from eulerlab.identity_engine import _grid_points
from eulerlab.integral_forms import (
    _GAMMA_BATCH_MIN_POINTS,
    I_minus,
    I_plus,
    I_plus_many,
    beukers_reduced,
    fermi_dirac,
    rhs_eq12,
    rhs_eq15,
    rhs_eq15_many,
)
from eulerlab.special_functions import eta, eta_prime, gamma

from conftest import (
    EQ9_VALUE,
    EULER_GAMMA,
    LN_4_OVER_PI,
    ZETA_3,
    integrand_2d,
    integrate_unit_square,
    minus_kernel,
    plus_kernel,
    power,
    sum_series,
)


class TestIntegrand2d:
    def test_point_values(self):
        assert abs(integrand_2d(-1, 0.0, 0.5, 0.5) - 2.0 / 3.0) <= 1e-15
        assert abs(integrand_2d(1, 0.0, 0.5, 0.5) - 0.4) <= 1e-15
        expected = 2.0 / 3.0 * math.log(4.0)
        assert abs(integrand_2d(-1, 1.0, 0.5, 0.5) - expected) <= 1e-15

    @pytest.mark.parametrize("x,y", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.0)])
    def test_domain(self, x, y):
        with pytest.raises(DomainError):
            integrand_2d(-1, 0.0, x, y)

    def test_positivity_on_sampled_square(self):
        rng = random.Random(0x5EED)
        for _ in range(500):
            x, y = rng.random(), rng.random()
            if x in (0.0, 1.0) or y in (0.0, 1.0):
                continue
            for s in (-1.0, 0.0, 0.5, 2.0):
                value = integrand_2d(-1, s, x, y)
                assert value.imag == 0.0
                assert value.real >= 0.0


class TestReducedIntegrands:
    def test_residual_series_is_horners_loop_bit_for_bit(self):
        # the unrolled Horner's rule performs the loop's operations in order
        def loop(t):
            acc = 0.0
            for c in reversed(integral_forms._RESIDUAL_COEFFS):
                acc = acc * t + c
            return 0.5 * acc

        rng = random.Random(7)
        ts = [rng.uniform(0.0, 0.5) for _ in range(500)]
        ts += [10.0 ** rng.uniform(-300.0, -0.31) for _ in range(500)]
        assert [integral_forms._residual_series(t).hex() for t in ts] == [
            loop(t).hex() for t in ts
        ]
        array = np.array(ts)
        assert integral_forms._residual_series(array).tobytes() == loop(array).tobytes()

    def test_plus_spot_value(self):
        # raw formula (t^(s+1) - 2 t^s)/(e^t + 1) + e^-t t^s at s=0, t=ln 2
        t = math.log(2.0)
        raw = (t - 2.0) / (math.exp(t) + 1.0) + math.exp(-t)
        assert abs(plus_kernel(0.0, t) - raw) <= 1e-15

    def test_minus_spot_value(self):
        expected = 1.0 / (math.e - 1.0) - 1.0 / math.e
        assert abs(minus_kernel(0.0, 1.0) - expected) <= 1e-15

    def test_matches_naive_formula_midrange(self):
        # validates the rearranged numerator against the defining formula
        # where the naive evaluation is still trustworthy (expm1 keeps the
        # denominator exact; the subtraction itself costs a few digits at
        # the small-t end, hence the 1e-12 band)
        for t in (0.01, 0.1, 0.3, 0.7, 1.0, 3.0, 10.0):
            for s in (0.0, 0.5, -1.5, 1 + 1j):
                naive_plus = (t ** (s + 1) - 2 * t**s) / (math.exp(t) + 1) + (
                    math.exp(-t) * t**s
                )
                naive_minus = t ** (s + 1) / math.expm1(t) - math.exp(-t) * t**s
                scale = max(1.0, abs(t ** (s + 1) / math.expm1(t)))
                assert abs(plus_kernel(s, t) - naive_plus) <= 1e-12 * max(
                    1.0, abs(naive_plus)
                )
                assert abs(minus_kernel(s, t) - naive_minus) <= 1e-12 * scale

    def test_plus_small_t_quarter_law(self):
        # leading behavior t^(s+2)/4, checked with Richardson consistency
        ratios = [plus_kernel(0.0, t).real / t**2 for t in (1e-3, 1e-4, 1e-5)]
        assert abs(plus_kernel(0.0, 1e-4).real - 2.5e-9) / 2.5e-9 <= 0.01
        deviations = [abs(r - 0.25) for r in ratios]
        assert deviations[1] <= deviations[0] and deviations[2] <= deviations[1]
        extrapolated = ratios[1] + (ratios[2] - ratios[1]) / 0.9
        assert abs(extrapolated - 0.25) <= 1e-4

    def test_minus_small_t_half_law(self):
        ratios = [minus_kernel(0.0, t).real / t for t in (1e-3, 1e-4, 1e-5)]
        assert abs(minus_kernel(0.0, 1e-4).real - 5e-5) / 5e-5 <= 0.01
        deviations = [abs(r - 0.5) for r in ratios]
        assert deviations[1] <= deviations[0] and deviations[2] <= deviations[1]

    def test_plus_integrable_at_low_exponent(self):
        value = plus_kernel(-2.5, 1e-6)
        assert abs(value) < math.inf
        assert abs(value.real - 1e-6**-0.5 / 4.0) / (1e-6**-0.5 / 4.0) <= 0.01

    def test_minus_kernel_past_the_overflow_of_e_to_the_t(self):
        # formed with e**(-t/2) twice where e**t overflows, exact to the
        # end of the normal range against the defining formula
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(3)
        for t in [709.79, 710.0, 745.5, 999.0] + [rng.uniform(709.8, 1000.0) for _ in range(40)]:
            for s in (0.0, 2.5, 60.0, 100.0, -1.5 + 2j, 90.0 - 0.5j):
                got = minus_kernel(s, t)
                with mpmath.workdps(40):
                    t_mp, s_mp = mpmath.mpf(t), mpmath.mpc(s)
                    want = complex(t_mp**s_mp * (t_mp - 1 + mpmath.exp(-t_mp)) / mpmath.expm1(t_mp))
                if abs(want) > 1e-290:
                    assert abs(got - want) <= 2e-13 * abs(want)
                else:
                    assert abs(got - want) <= 1e-300

    def test_minus_kernel_keeps_its_bits_below_the_overflow(self):
        top = math.log(sys.float_info.max)
        for t in (0.5, 1.0, 40.0, 300.0, 709.0, top):
            for s in (0.0, 2.5, -1.5 + 2j):
                s = complex(s)
                before = power(t, s) * (math.expm1(-t) + t) / math.expm1(t)
                assert minus_kernel(s, t) == before
        with pytest.raises(OverflowError):
            math.expm1(math.nextafter(top, math.inf))

    def test_positive_t_required(self):
        with pytest.raises(ValueError):
            plus_kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            minus_kernel(0.0, -1.0)


class TestKernelIntegrals:
    def test_plus_at_minus_one(self):
        r = I_plus(-1.0, 1e-10)
        assert r.converged
        assert abs(r.value - LN_4_OVER_PI) <= 1e-9

    def test_plus_at_minus_two(self):
        r = I_plus(-2.0, 1e-9)
        assert abs(r.value - EQ9_VALUE) <= 1e-8

    def test_plus_at_zero(self):
        expected = math.pi**2 / 12.0 + 1.0 - 2.0 * math.log(2.0)
        assert abs(I_plus(0.0, 1e-10).value - expected) <= 1e-9

    def test_minus_at_minus_one(self, gamma_reference):
        assert abs(I_minus(-1.0, 1e-10).value - gamma_reference) <= 1e-9

    def test_minus_at_zero_and_one(self):
        assert abs(I_minus(0.0, 1e-10).value - (math.pi**2 / 6.0 - 1.0)) <= 1e-9
        assert abs(I_minus(1.0, 1e-10).value - (2.0 * ZETA_3 - 1.0)) <= 1e-9

    def test_domain_guards(self):
        with pytest.raises(DomainError, match="outside Re\\(s\\) > -3"):
            I_plus(-3.1, 1e-8)
        with pytest.raises(DomainError, match="outside Re\\(s\\) > -2"):
            I_minus(-2.0, 1e-8)
        with pytest.raises(DomainError):
            fermi_dirac(0.0, 1e-8)

    @pytest.mark.parametrize("s", [0.5 + 1e308j, complex(math.nan, 1.0), complex(1.0, math.inf)])
    def test_rhs_eq15_raises_domain_error_where_eta_is_not_finite(self, s):
        # the single point's etas skip eta_many's checks; gamma would raise
        # ZeroDivisionError at 2.5+1e308j
        with pytest.raises(DomainError):
            rhs_eq15(s)
        with pytest.raises(DomainError):
            rhs_eq15_many([0.5, s])

    def test_points_within_the_margin_say_so(self):
        margin = "within 0\\.01 of the domain edge Re\\(s\\) = -3$"
        with pytest.raises(DomainError, match=margin):
            I_plus(-2.995, 1e-8)
        with pytest.raises(DomainError, match=margin):
            I_plus(complex(-2.99, 1.0), 1e-8)
        with pytest.raises(DomainError, match=margin):
            I_plus_many([0.5, -2.995 + 1j, 1.0], 1e-8)
        with pytest.raises(DomainError, match="within 0\\.01 of the domain edge Re\\(s\\) = 0$"):
            fermi_dirac(0.005, 1e-8)

    @pytest.mark.parametrize("im", [1e308, -3e305])
    def test_points_whose_phase_overflows_say_so(self, im):
        # Im(s) ln t overflows near t = 0 from |Im(s)| = 2.5e305 on: before,
        # the walk raised a bare "math domain error" (ValueError) at 1e308
        text = f"Im\\(s\\) ln t overflows near t = 0 at Im\\(s\\) = {im:g}".replace("+", "\\+")
        for route in (I_plus, integral_forms.I_minus, fermi_dirac):
            with pytest.raises(DomainError, match=text):
                route(complex(2.5, im), 1e-8)
        with pytest.raises(DomainError, match=text):
            I_plus_many([0.5, complex(2.5, im), 1.0, complex(3.0, -1e300)], 1e-8)
        assert integral_forms._edge_reason(-3.0, complex(2.5, 2.5e305)) is None

    @pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(1.0, math.nan),
                                   complex(math.inf, 0.0)])
    def test_non_finite_points_are_refused_by_name(self, s):
        # as the special functions refuse them; before, the ladder ran and
        # raised IntegrandError, and a NaN real part passed a batch's edge test
        text = re.escape(f"non-finite argument s = {s}")
        batch = [complex(0.5 + 0.25 * k, 0.5) for k in range(integral_forms._BATCH_MIN_POINTS)]
        batch[5] = s
        for route, many in ((I_plus, I_plus_many), (I_minus, integral_forms.I_minus_many),
                            (fermi_dirac, integral_forms.fermi_dirac_many)):
            with pytest.raises(DomainError, match=text):
                route(s, 1e-8)
            with pytest.raises(DomainError, match=text):
                many(batch, 1e-8)


class TestFermiDirac:
    def test_at_one_equals_ln2(self):
        assert abs(fermi_dirac(1.0, 1e-11).value - math.log(2.0)) <= 1e-10

    def test_at_two(self):
        assert abs(fermi_dirac(2.0, 1e-11).value - math.pi**2 / 12.0) <= 1e-10

    def test_complex_point_against_product(self):
        s = 2 + 1j
        assert abs(fermi_dirac(s, 1e-10).value - gamma(s) * eta(s)) <= 1e-9


class TestClosedForms:
    def test_eq15_limit_values(self):
        assert abs(rhs_eq15(-1.0) - LN_4_OVER_PI) <= 1e-13
        assert abs(rhs_eq15(-2.0) - EQ9_VALUE) <= 1e-12
        expected = math.pi**2 / 12.0 + 1.0 - 2.0 * math.log(2.0)
        assert abs(rhs_eq15(0.0) - expected) <= 1e-13

    def test_eq15_limit_matches_eta_algebra(self):
        # the s = -2 limit written through eta'(0), eta(-1), eta'(-1)
        direct = eta_prime(0.0) + 2.0 * eta(-1.0) - 1.0 + 2.0 * eta_prime(-1.0)
        assert abs(rhs_eq15(-2.0) - direct) <= 1e-13

    @pytest.mark.parametrize("point", [-1.0, -2.0])
    @pytest.mark.parametrize("offset", [9e-5, -6e-5, 5e-5 + 5e-5j])
    def test_eq15_expansion_branch_consistent_with_generic(self, point, offset):
        s = point + offset
        generic = gamma(s + 2.0) * (
            eta(s + 2.0) + (1.0 - 2.0 * eta(s + 1.0)) / (s + 1.0)
        )
        assert abs(rhs_eq15(s) - generic) <= 1e-8

    @pytest.mark.parametrize("point, bound", [(-1.0, 2e-14), (-2.0, 2e-13)])
    def test_eq15_near_its_removable_points_against_mpmath(self, point, bound):
        # rings inside the expansion radius, where eta's divided differences
        # take the cancelling bracket apart
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(29)
        worst = 0.0
        with mpmath.workdps(40):
            for radius in (1e-7, 1e-6, 1e-5, 5e-5, 9.9e-5):
                for k in range(12):
                    s = point + radius * cmath.exp(2j * math.pi * (k + rng.random()) / 12)
                    m = mpmath.mpc(s.real, s.imag)
                    bracket = mpmath.altzeta(m + 2) + (1 - 2 * mpmath.altzeta(m + 1)) / (m + 1)
                    worst = max(worst, abs(rhs_eq15(s) - complex(mpmath.gamma(m + 2) * bracket)))
        assert worst <= bound

    @pytest.mark.parametrize("point, inside, outside", [(-1.0, 3e-14, 1e-13), (-2.0, 3e-13, 1.5e-12)])
    def test_eq15_across_the_expansion_radius_against_mpmath(self, point, inside, outside):
        # rings from just past 1e-4 to just inside and outside 0.05, the
        # radius: out to it the generic bracket still cancels (2e-10 off at
        # 1e-4 from -2, 4e-12 at 0.01), and the divided differences hold
        mpmath = pytest.importorskip("mpmath")
        worst = {}
        with mpmath.workdps(40):
            for radius in (1.01e-4, 1e-3, 0.01, 0.03, 0.0499, 0.0501):
                for k in range(24):
                    s = point + radius * cmath.exp(2j * math.pi * (k + 0.37) / 24)
                    m = mpmath.mpc(s.real, s.imag)
                    bracket = mpmath.altzeta(m + 2) + (1 - 2 * mpmath.altzeta(m + 1)) / (m + 1)
                    error = abs(rhs_eq15(s) - complex(mpmath.gamma(m + 2) * bracket))
                    worst[radius] = max(worst.get(radius, 0.0), error)
        assert max(e for r, e in worst.items() if r < 0.05) <= inside
        assert worst[0.0501] <= outside

    def test_eq12_values(self):
        assert abs(rhs_eq12(0.0) - (math.pi**2 / 6.0 - 1.0)) <= 1e-12
        assert abs(rhs_eq12(1.0) - 2.0 * (ZETA_3 - 0.5)) <= 1e-12
        assert abs(rhs_eq12(-1.0) - EULER_GAMMA) <= 1e-8

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            rhs_eq15(-3.0)
        with pytest.raises(DomainError):
            rhs_eq12(-2.0)


class TestBeukersReduced:
    def test_order_two(self):
        r = beukers_reduced(2, 1e-11)
        assert r.converged
        assert abs(r.value - math.pi**2 / 6.0) <= 1e-10

    def test_order_three(self):
        assert abs(beukers_reduced(3, 1e-11).value - ZETA_3) <= 1e-10

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            beukers_reduced(4, 1e-8)

    def test_reduction_matches_direct_square(self):
        direct = integrate_unit_square(lambda x, y: 1.0 / (1.0 - x * y), 1e-6)
        assert abs(direct.value - beukers_reduced(2, 1e-10).value) <= 1e-5


class TestTermwiseOracle:
    # Termwise integration of the geometric expansion of the square
    # integrals gives sum_n (+-1)**(n-1) (1/n - ln((n+1)/n)): the constants
    # series of ln(4/pi) (plus kernel) and of Euler's gamma (minus kernel),
    # an independent route to the kernel values at s = -1.
    def test_plus_first_term(self):
        r = constants.ln_4_over_pi(1, "series")
        assert abs(r.value - (1.0 - math.log(2.0))) <= 1e-15

    def test_minus_converges_to_euler_gamma(self, gamma_reference):
        r = constants.euler_gamma_series(10**6)
        assert abs(r.value - gamma_reference) <= 1e-6

    def test_plus_converges_within_bound(self):
        r = constants.ln_4_over_pi(10**5, "series")
        assert abs(r.value - LN_4_OVER_PI) <= r.error_bound

    @pytest.mark.parametrize("n", [1, 7, 10**5])
    def test_equals_the_constants_series(self, n):
        # The termwise series summed one term at a time, against the
        # constants' pairwise numpy sums; they differ by rounding only.
        def term(k):
            return 1.0 / k - math.log1p(1.0 / k)

        plus = sum_series(lambda k: (-1) ** (k - 1) * term(k), 1e-300, n, True)
        minus = sum_series(term, 1e-300, n)
        ln_4_over_pi = constants.ln_4_over_pi(n, "series")
        rounding = n * 2.0**-52
        assert abs(plus.value - ln_4_over_pi.value) <= rounding
        assert abs(minus.value - constants.euler_gamma_series(n).value) <= rounding
        assert plus.remainder_bound == ln_4_over_pi.error_bound
        assert minus.remainder_bound is None
        assert plus.terms_used == minus.terms_used == n


class TestReductionExactness:
    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_square_matches_reduced_route(self, sign, s):
        square = integrate_unit_square(
            lambda x, y: integrand_2d(sign, s, x, y), 1e-6
        )
        reduced = I_plus(s, 1e-9) if sign == 1 else I_minus(s, 1e-9)
        assert abs(square.value - reduced.value) <= 1e-5


class TestBatchedGammaRhs:
    """From _GAMMA_BATCH_MIN_POINTS generic points on, rhs_eq15_many forms
    Gamma(s+2) and the bracket as arrays: its values stay rhs_eq15's bits."""

    @pytest.mark.parametrize("extra", [-1, 0, 1, 500])
    def test_sizes_on_both_sides_of_the_threshold(self, extra):
        rng = random.Random(extra)
        points = [complex(rng.uniform(-2.99, 12.0), rng.uniform(-40.0, 40.0))
                  for _ in range(_GAMMA_BATCH_MIN_POINTS + extra)]
        # and the limits, the expansion radius and the c_powi points on the axis
        points += [-1.0, -2.0, -1.00005, complex(-2.0, 5e-5), -2.5, -1.5, 0.5, 2.5]
        expected = np.array([rhs_eq15(s) for s in points])
        assert np.array(rhs_eq15_many(points)).tobytes() == expected.tobytes()

    def test_sweep_matches_each_point(self):
        points = _grid_points((-2.5, 9.5, 0.25), (-60.0, 60.0, 10.0))
        points = [s for s in points if s not in (-1.0, -2.0)]
        expected = np.array([rhs_eq15(s) for s in points])
        assert np.array(rhs_eq15_many(points)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("im", [1e5, 1e16])
    def test_gamma_errors_name_the_callers_point(self, im):
        s = complex(0.5, im)
        text = f"Gamma(s + 2) fails at s = {s}"
        batched = lambda p: rhs_eq15_many([1.0] * _GAMMA_BATCH_MIN_POINTS + [p])  # noqa: E731
        for route in (rhs_eq12, rhs_eq15, batched):
            with pytest.raises(DomainError, match=re.escape(text)):
                route(s)
