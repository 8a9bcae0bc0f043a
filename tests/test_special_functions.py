import cmath
import inspect
import math
import random

import numpy as np
import pytest

from eulerlab.core_numerics import integrate_semi_infinite
from eulerlab.errors import DomainError, IllConditionedError, PoleError
from eulerlab.integral_forms import rhs_eq12, rhs_eq15, rhs_eq15_many
from eulerlab.special_functions import (
    _LOG_K1,
    _SIGNS,
    _TABLE_SIZE,
    _alternating_powers,
    _euler_transform,
    eta,
    eta_many,
    eta_prime,
    gamma,
    zeta,
    zeta_minus_pole,
    zeta_prime,
)

from conftest import (
    EULER_GAMMA,
    GLAISHER_A,
    ZETA_3,
    ZETA_PRIME_MINUS_1,
    central_difference,
    dirichlet_eta_partial,
)


class TestGamma:
    def test_integer_values(self):
        assert abs(gamma(1.0) - 1.0) <= 1e-14
        assert abs(gamma(5.0) - 24.0) / 24.0 <= 1e-13

    def test_half_against_quadrature_oracle(self):
        # Euler-integral route, independent of the Lanczos coefficients
        oracle = integrate_semi_infinite(
            lambda t: math.exp(-t) * t**-0.5, 1e-11, -0.5
        )
        assert oracle.converged
        assert abs(gamma(0.5) - oracle.value) <= 1e-10
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-13

    def test_recurrence_at_two_point_five(self):
        assert abs(gamma(3.5) / 2.5 - gamma(2.5)) / abs(gamma(2.5)) <= 1e-12

    def test_against_stdlib_on_real_grid(self):
        for x in [0.1, 0.5, 1.3, 2.0, 4.7, 9.5, -0.5, -1.7, -2.3]:
            assert abs(gamma(x) - math.gamma(x)) / abs(math.gamma(x)) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, s):
        with pytest.raises(PoleError, match="pole of Gamma"):
            gamma(s)

    # next to 0 the reflection's pi / sin(pi s) overflows
    @pytest.mark.parametrize("s", [172.0, 171.7, 200.0, -190.5, 1e-320, -1e-320, 1e-320j])
    def test_overflow_raises_domain_error(self, s):
        with pytest.raises(DomainError, match="overflows"):
            gamma(s)

    def test_reflection_overflow_names_the_callers_point(self):
        with pytest.raises(DomainError, match=r"at s = \(-190\.5\+0j\)"):
            gamma(-190.5)

    def test_log_space_reflection_against_stdlib(self):
        # Gamma(1 - s) overflows below about -170.6; Gamma(s) is still
        # representable (subnormal from about -171.6) down to about -177
        for k in range(1, 6500):
            x = -177.0 + 0.001 * k
            if abs(x - round(x)) < 1e-9:
                continue
            expected = math.gamma(x)
            value = gamma(x)
            assert value.imag == 0.0
            assert abs(value.real - expected) <= 1e-12 * abs(expected) + 1e-323, x
        assert gamma(-171.5).real == pytest.approx(1.93e-310, rel=1e-3)

    def test_log_space_reflection_off_the_axis(self):
        mpmath = pytest.importorskip("mpmath")
        for s in (-171.25 + 0.5j, -170.75 - 0.1j, -173.5 + 0.01j):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
            assert abs(gamma(s) - expected) <= 1e-12 * abs(expected) + 1e-322
            assert gamma(s.conjugate()) == gamma(s).conjugate()

    @pytest.mark.parametrize("s", [
        -5 + 1e-9j, -50 + 1e-9j, -4.999999999, -50.000000001, -1 + 1e-12j,
        -3 - 1e-10j, -100.000001, -140 + 1e-6j,
    ])
    def test_reflection_next_to_a_pole(self, s):
        # sin(pi s) is reduced exactly; formed as sin(pi * s) its rounding
        # gave 2e-7 (-5+1e-9j) to 4e-5 (-1+1e-12j) relative error here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        assert abs(gamma(s) - expected) <= 1e-13 * abs(expected)

    def test_log_space_power_up_to_gammas_own_overflow(self):
        # the Lanczos power alone overflows from about s = 142.25, where
        # it used to come back as inf and turn the value into nan
        for k in range(0, 127):
            x = 140.0 + 0.25 * k
            assert abs(gamma(x) - math.gamma(x)) <= 1e-12 * math.gamma(x)
        for x in (143.0, 150.0, 171.5, -170.5):
            assert abs(gamma(x) - math.gamma(x)) <= 1e-12 * abs(math.gamma(x))

    def test_functional_equation_residual_on_seeded_panel(self):
        rng = random.Random(0x5EED)
        checked = 0
        while checked < 200:
            s = complex(rng.uniform(-3.0, 5.0), rng.uniform(-3.0, 3.0))
            if min(abs(s - p) for p in (0, -1, -2, -3)) < 0.25:
                continue
            lhs = gamma(s + 1.0)
            assert abs(lhs - s * gamma(s)) / abs(lhs) <= 1e-12
            checked += 1

    @pytest.mark.parametrize(
        "s",
        [
            # sin(pi s) overflows from about |Im(s)| = 226; it raised a
            # bare OverflowError here
            0.2 + 300j, 0.2 - 300j, -3.3 + 240j, 0.4 + 460j,
            # sin(pi s) and Gamma(1 - s) are finite but their product is
            # not; the quotient came back nan (raising "overflows") or 0j
            -120 + 100j, -120 - 100j, -169.9 + 1.9j, -170.5 + 0.5j,
        ],
    )
    def test_log_space_reflection_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        assert abs(gamma(s) - expected) <= 1e-12 * abs(expected) + 1e-322

    @pytest.mark.parametrize(
        "s", [0.6 + 1000j, 0.6 + 500j, 0.4 + 480j, -3.3 - 500j, -150 + 50j, -140 + 120j]
    )
    def test_underflow_raises_domain_error(self, s):
        # 0.6+1000j came back as 0j
        with pytest.raises(DomainError, match="underflows to zero"):
            gamma(s)

    def test_reflection_consistency(self):
        for re in [-2.7, -1.4, -0.3, 0.2, 0.8]:
            for im in [0.0, 0.6, 1.7]:
                s = complex(re, im)
                product = gamma(s) * gamma(1.0 - s)
                expected = math.pi / cmath.sin(math.pi * s)
                assert abs(product - expected) / abs(expected) <= 1e-11


EPS = np.finfo(float).eps


def euler_transform_loop(weights):
    """Row-by-row reference for _euler_transform: add outer terms until
    three consecutive ones fall below max(16 eps noise_n, 1e-15), where
    noise_n is the same row's sum over |w_k|.  Returns the sum and the
    largest noise_n of the rows added."""
    total = 0j
    small_run = 0
    largest_noise = 0.0
    for n in range(len(weights)):
        row = [math.comb(n, k) * 2.0 ** -(n + 1) for k in range(n + 1)]
        term = sum(b * w for b, w in zip(row, weights))
        noise = sum(b * abs(w) for b, w in zip(row, weights))
        total += term
        largest_noise = max(largest_noise, noise)
        small_run = small_run + 1 if abs(term) < max(16 * EPS * noise, 1e-15) else 0
        if small_run == 3:
            break
    return total, largest_noise


def unit_weight():
    weights = np.zeros(_TABLE_SIZE, dtype=complex)
    weights[0] = 1.0
    return weights


def cancelling_weights():
    # (-1)**k 1e12 plus 1 at k = 0: outer terms 5e11 + 1/2, then exactly
    # 2**-(n+1) while the rows' noise scale stays near 5e11
    weights = 1e12 * _SIGNS.astype(complex)
    weights[0] += 1.0
    return weights


def growing_weights():
    # 2**k: outer terms (3/2)**n / 2 grow and are never small
    return 2.0 ** np.arange(_TABLE_SIZE) + 0j


class TestEta:
    @pytest.mark.parametrize(
        "re_lo, re_hi, noise_ulps",
        # a few dozen ulps of the O(1) result; where the rows cancel, also
        # 16 ulps of the largest noise scale among the rows summed
        [(-1.0, 4.0, 0.0), (-4.0, -1.0, 16 * EPS)],
        ids=["re_-1_to_4", "re_-4_to_-1"],
    )
    def test_matches_row_by_row_loop(self, re_lo, re_hi, noise_ulps):
        # eta and eta' weights; only the summation order differs
        rng = random.Random(0xB10)
        for _ in range(10):
            s = complex(rng.uniform(re_lo, re_hi), rng.uniform(0.0, 2.0))
            powers = _alternating_powers(s)
            for weights in (powers, -_LOG_K1 * powers):
                expected, noise = euler_transform_loop(list(weights))
                bound = max(1e-14, noise_ulps * noise)
                assert abs(_euler_transform(weights) - expected) <= bound

    @pytest.mark.parametrize(
        "make_weights, expected, rel",
        [
            # terms 2**-(n+1) fall below the 1e-15 floor at n = 49, 50, 51
            (unit_weight, 1.0 - 2.0**-52, 0.0),
            # 2**-(n+1) falls below 16 eps times the noise scale 5e11 at
            # n = 9, 10, 11 (a fixed tolerance of 1e-13 would run to n = 45)
            (cancelling_weights, 5e11 + 1.0 - 2.0**-12, 0.0),
            # never three small terms: sums all 128 rows
            (growing_weights, 1.5**_TABLE_SIZE - 1.0, 1e-15),
        ],
        ids=["floor", "noise", "never_small"],
    )
    def test_stopping_rule(self, make_weights, expected, rel):
        value = _euler_transform(make_weights())
        assert abs(value - expected) <= rel * expected

    def test_matrix_columns_follow_their_own_stopping_rule(self):
        weights = np.stack([unit_weight(), cancelling_weights(), growing_weights()], axis=1)
        value = _euler_transform(weights)
        assert value[0] == 1.0 - 2.0**-52
        assert value[1] == 5e11 + 1.0 - 2.0**-12
        assert abs(value[2] - (1.5**_TABLE_SIZE - 1.0)) <= 1e-15 * 1.5**_TABLE_SIZE

    def test_panel_matches_single_points(self):
        # one matrix product instead of one per point: only the
        # summation order of the product differs
        rng = random.Random(0xB10)
        points = [complex(rng.uniform(-1.0, 4.0), rng.uniform(0.0, 2.0)) for _ in range(40)]
        panel = eta_many(points)
        assert panel.shape == (40,)
        for s, value in zip(points, panel):
            assert abs(value - eta(s)) <= 1e-14
        assert eta_many([]).shape == (0,)

    def test_special_values(self):
        assert abs(eta(1.0) - math.log(2.0)) <= 1e-12
        assert abs(eta(0.0) - 0.5) <= 1e-12
        assert abs(eta(-1.0) - 0.25) <= 1e-12
        assert abs(eta(2.0) - math.pi**2 / 12.0) <= 1e-12

    def test_continuation_agrees_with_direct_dirichlet_sum(self):
        # direct alternating sums converge for Re(s) > 1.5 with a
        # first-omitted-term remainder after pair averaging
        for s in [2.0, 3.0, 1.75, 2.5 + 1j, 4.0 - 2j, 1.6 + 0.4j]:
            n = 4000
            bracket = 0.5 * (
                dirichlet_eta_partial(complex(s), n)
                + dirichlet_eta_partial(complex(s), n + 1)
            )
            assert abs(eta(s) - bracket) <= 1e-12 + abs((n + 1) ** -complex(s).real)

    def test_default_accuracy(self):
        assert abs(eta(1.0) - math.log(2.0)) <= 5e-15

    @pytest.mark.parametrize("f", [
        eta, eta_many, eta_prime, zeta, zeta_prime, zeta_minus_pole,
        rhs_eq12, rhs_eq15, rhs_eq15_many,
    ])
    def test_no_truncation_argument(self, f):
        # the sum stops by its own rounding scale; only the point is an input
        assert len(inspect.signature(f).parameters) == 1


class TestEtaPrime:
    def test_value_at_zero(self):
        assert abs(eta_prime(0.0) - 0.5 * math.log(math.pi / 2.0)) <= 1e-12

    def test_value_at_minus_one(self):
        # 3 ln A - 1/4 - (ln 2)/3, with ln A = 1/12 - zeta'(-1)
        expected = 3.0 * math.log(GLAISHER_A) - 0.25 - math.log(2.0) / 3.0
        assert abs(eta_prime(-1.0) - expected) <= 1e-12
        fd = central_difference(eta, -1.0)
        assert abs(eta_prime(-1.0) - fd) <= 1e-8

    def test_matches_central_differences(self):
        rng = random.Random(0xD1FF)
        for _ in range(50):
            s = complex(rng.uniform(-2.0, 4.0), rng.uniform(-2.0, 2.0))
            fd = central_difference(eta, s)
            assert abs(eta_prime(s) - fd) <= 1e-8


class TestZeta:
    def test_known_values(self):
        assert abs(zeta(2.0) - math.pi**2 / 6.0) <= 1e-12
        assert abs(zeta(0.0) + 0.5) <= 1e-12
        assert abs(zeta(-1.0) + 1.0 / 12.0) <= 1e-12

    def test_three_against_direct_sum_with_tail(self):
        # Dirichlet sum plus the Euler-Maclaurin tail 1/(2N^2) - 1/(2N^3)
        n = 2000
        partial = sum(k**-3.0 for k in range(1, n + 1))
        oracle = partial + 0.5 / n**2 - 0.5 / n**3
        assert abs(zeta(3.0) - oracle) <= 1e-9
        assert abs(zeta(3.0) - ZETA_3) <= 1e-12

    def test_pole(self):
        with pytest.raises(PoleError, match="pole of zeta"):
            zeta(1.0)

    def test_ill_conditioned_points_rejected(self):
        bad = 1.0 + 2j * math.pi / math.log(2.0)
        with pytest.raises(IllConditionedError):
            zeta(bad + 1e-9)

    def test_product_relation(self):
        for s in [2.0, 3.0, -0.5, 0.5 + 2j, -2.5 + 1j, 4.0 - 2.5j]:
            factor = 1.0 - 2.0 ** (1.0 - complex(s))
            assert abs(eta(s) - factor * zeta(s)) <= 1e-11


class TestZetaPrime:
    def test_at_minus_one(self):
        assert abs(zeta_prime(-1.0) - ZETA_PRIME_MINUS_1) <= 1e-10
        fd = central_difference(zeta, -1.0)
        assert abs(zeta_prime(-1.0) - fd) <= 1e-8

    def test_at_zero(self):
        assert abs(zeta_prime(0.0) + 0.5 * math.log(2.0 * math.pi)) <= 1e-10

    def test_at_two_against_central_difference(self):
        fd = central_difference(zeta, 2.0)
        assert abs(zeta_prime(2.0) - fd) <= 1e-9


class TestZetaMinusPole:
    def test_away_from_pole(self):
        assert abs(zeta_minus_pole(2.0) - (math.pi**2 / 6.0 - 1.0)) <= 1e-12
        assert abs(zeta_minus_pole(0.0) - 0.5) <= 1e-12

    def test_limit_is_euler_gamma(self):
        assert abs(zeta_minus_pole(1.0) - EULER_GAMMA) <= 1e-8

    @pytest.mark.parametrize(
        "s", [1.001, 0.999, 1.02, 0.98, 1.0 + 0.03j, 1.0 - 0.02j, 0.96 + 0.02j]
    )
    def test_ring_matches_direct_difference(self, s):
        # at these distances the direct difference still has ~1e-13
        # absolute accuracy, making it an oracle for the ring branch
        s = complex(s)
        direct = zeta(s) - 1.0 / (s - 1.0)
        assert abs(zeta_minus_pole(s) - direct) <= 1e-8


class TestFunctionalEquationBand:
    """eta and zeta below Re(s) = -4 come from zeta(1 - s)."""

    def test_trivial_zeros_are_exact(self):
        for n in range(6, 60, 2):
            assert zeta(-float(n)) == 0.0
            assert eta(-float(n)) == 0.0

    def test_values_next_to_a_trivial_zero(self):
        # zeta(-9) = -1/132; the old sum gave 0.0216 and -0.0961 here
        for d in (1e-9, -1e-9):
            assert abs(zeta(-9.0 + d) + 1.0 / 132.0) <= 1e-10

    def test_band_edge_keeps_the_sum(self):
        assert eta(-4.0) == _euler_transform(_alternating_powers(-4.0 + 0j))

    def test_eta_many_matches_eta(self):
        points = [-8.5 + 0j, 0.5 + 1j, -20.0 + 5j, -4.0 + 0j, -4.0001 + 0.3j]
        values = eta_many(points)
        for s, value in zip(points, values):
            if s.real < -4.0:
                assert value == eta(s)
            else:
                assert abs(value - eta(s)) <= 1e-13

    # Worst |eta_many - eta| / max(1, |eta|) over the panels below, by
    # band of Re(s).  BLAS rounds the matrix product by column count, so
    # a point's value depends on its batch; the cancelling sum below
    # Re(s) = -1 magnifies that rounding.  Measured worst: 1.1e-15,
    # 5.7e-15 and 8.6e-12; each route's own error against mpmath is about
    # 2e-15, 2e-14 and 9e-11 there.
    STRAY = ((0.0, 2e-15), (-1.0, 1e-14), (-4.0, 2e-11))

    @pytest.mark.parametrize("columns", [1, 2, 7, 8, 30, 60])
    def test_eta_many_strays_from_eta_within_bounds(self, columns):
        for seed in range(10):
            rng = random.Random(1000 * columns + seed)
            points = [complex(rng.uniform(-4.0, 5.0), rng.uniform(-3.0, 3.0))
                      for _ in range(columns)]
            for s, value in zip(points, eta_many(points)):
                expected = eta(s)
                bound = next(b for lo, b in self.STRAY if s.real >= lo)
                assert abs(value - expected) <= bound * max(1.0, abs(expected)), s

    @pytest.mark.parametrize("f", [eta_prime, zeta_prime])
    def test_derivatives_are_refused(self, f):
        with pytest.raises(IllConditionedError, match="Re\\(s\\) = -4"):
            f(-4.5 + 0.5j)
        f(-4.0)  # still on the sum

    @pytest.mark.parametrize("f, s", [(eta, -218.5), (zeta, -260.5), (zeta, -2000.5),
                                      (zeta, -100.0 + 10000j)])
    def test_overflow_raises_domain_error(self, f, s):
        with pytest.raises(DomainError, match="overflows"):
            f(s)


class TestNonFiniteArgument:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(1.0, math.inf),
                                   complex(0.5, math.nan), complex(-math.inf, 2.0)])
    @pytest.mark.parametrize("f", [gamma, eta, eta_prime, zeta, zeta_prime, zeta_minus_pole,
                                   lambda s: eta_many([2.0, s])],
                             ids=["gamma", "eta", "eta_prime", "zeta", "zeta_prime",
                                  "zeta_minus_pole", "eta_many"])
    def test_raises_domain_error(self, f, s):
        with pytest.raises(DomainError, match="non-finite argument"):
            f(s)


class TestAgainstMpmath:
    """Regression bounds against mpmath at 30 digits.

    Measured worst errors: 9e-14 (eta) and 3e-13 (eta') on the panel,
    4e-16 for zeta at the integers.
    """

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    @pytest.fixture(scope="class")
    def panel(self):
        rng = random.Random(0xE7A)
        return [
            complex(rng.uniform(-1.5, 5.0), rng.uniform(0.0, 2.0)) for _ in range(300)
        ]

    def test_eta_on_panel(self, mp, panel):
        worst = max(abs(eta(s) - complex(mp.altzeta(s))) for s in panel)
        assert worst <= 2e-13

    def test_eta_many_on_panel(self, mp, panel):
        worst = max(
            abs(value - complex(mp.altzeta(s)))
            for s, value in zip(panel, eta_many(panel))
        )
        assert worst <= 2e-13

    def test_eta_prime_on_panel(self, mp, panel):
        worst = max(
            abs(eta_prime(s) - complex(mp.diff(mp.altzeta, s))) for s in panel
        )
        assert worst <= 6e-13

    @pytest.mark.parametrize("f, name, s", [
        (zeta, "zeta", -9.0),
        (eta, "altzeta", -10.0),
        (eta, "altzeta", -8.5),
        (eta, "altzeta", -20.0 + 5j),
    ])
    def test_functional_equation_regressions(self, mp, f, name, s):
        # before the functional equation: zeta(-9) right by chance only,
        # eta(-10) = -6522, eta(-8.5) = 10.2269, eta(-20+5j) off by 1e11
        expected = complex(getattr(mp, name)(s))
        assert abs(f(s) - expected) <= 2e-14 * max(1.0, abs(expected))

    @pytest.mark.parametrize("s", [-5.0 + 455j, -5.0 + 600j, -20.0 + 500j])
    @pytest.mark.parametrize("f, name", [(zeta, "zeta"), (eta, "altzeta")])
    def test_large_imaginary_part_below_minus_four(self, mp, f, name, s):
        # sin(pi s/2) alone overflows here; it raised DomainError before
        expected = complex(getattr(mp, name)(s))
        assert abs(f(s) - expected) <= 1e-10 * abs(expected)

    def test_functional_equation_band(self, mp):
        rng = random.Random(0xF0E)
        panel = [complex(rng.uniform(-50.0, -4.0), rng.uniform(0.0, 2.0)) for _ in range(100)]
        for s in panel:
            for f, name in ((eta, "altzeta"), (zeta, "zeta")):
                expected = complex(getattr(mp, name)(s))
                assert abs(f(s) - expected) <= 2e-13 * abs(expected)

    def test_zeta_at_integers(self, mp):
        worst = max(abs(zeta(float(n)) - float(mp.zeta(n))) for n in range(2, 52))
        assert worst <= 2e-15
