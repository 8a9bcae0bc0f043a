import math
import re
import tracemalloc

import numpy as np
import pytest

from eulerlab.constants import (
    _BLOCK,
    _exact_sum,
    _ln_4_over_pi_terms,
    _pairwise_sum,
    _series_terms,
    euler_formula_gamma,
    euler_gamma_series,
    glaisher_limit,
    glaisher_zeta,
    ln2_series,
    ln_4_over_pi,
    stirling_ratio,
    wallis_partial,
)
from eulerlab.special_functions import zeta, zeta_prime

from conftest import EULER_GAMMA, GLAISHER_A, LN_4_OVER_PI, sum_series


def _one_array_sums(count):
    # the constants' series as single whole-array numpy sums
    n = np.arange(1, count + 1, dtype=float)
    gamma_terms = 1.0 / n - np.log1p(1.0 / n)
    ln4pi_terms = gamma_terms.copy()
    ln4pi_terms[1::2] *= -1.0
    logs = np.log1p(1.0 / n)
    logs[1::2] *= -1.0
    return float(np.sum(gamma_terms)), float(np.sum(ln4pi_terms)), math.exp(np.sum(logs))


class TestPairwiseSum:
    @pytest.mark.parametrize(
        "count",
        [1, 7, 8, 9, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 10**6],
    )
    def test_equals_the_whole_array_sum_exactly(self, count):
        # random signs and magnitudes over 16 decades: any other order of
        # addition rounds differently
        rng = np.random.default_rng(count)
        values = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-8.0, 8.0, count)
        assert _pairwise_sum(lambda lo, hi: (values[lo - 1 : hi - 1],), count) == (
            float(np.sum(values)),
        )

    @pytest.mark.parametrize("count", [1, 9, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 10**6])
    def test_two_sums_each_equal_their_whole_array_sum_exactly(self, count):
        # one walk, two arrays of different magnitudes: each sum is its own
        # array's np.sum, as if it were walked alone
        rng = np.random.default_rng(count)
        a, b = (
            rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(lo, lo + 16.0, count)
            for lo in (-8.0, -20.0)
        )
        sums = _pairwise_sum(lambda lo, hi: (a[lo - 1 : hi - 1], b[lo - 1 : hi - 1]), count)
        assert sums == (float(np.sum(a)), float(np.sum(b)))

    @pytest.mark.parametrize("count", [_BLOCK + 1, 2 * _BLOCK + 3])
    def test_routes_equal_their_one_array_formula(self, count):
        gamma, ln4pi, wallis = _one_array_sums(count)
        assert euler_gamma_series(count).value == gamma
        assert ln_4_over_pi(count).value == ln4pi
        assert wallis_partial(count) == wallis

    @pytest.mark.parametrize("lo", [1, 2, 9, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize(
        "terms, unsigned",
        [
            (lambda lo, hi: _ln_4_over_pi_terms(lo, hi)[0], lambda n: 1.0 / n - np.log1p(1.0 / n)),
            (lambda lo, hi: _series_terms(lo, hi)[1], lambda n: np.log1p(1.0 / n)),
        ],
    )
    def test_block_signs_follow_the_global_parity(self, terms, unsigned, lo):
        # leaves of the pairwise tree start at n = 1 mod 8; a block may
        # start on either parity all the same
        hi = lo + 101
        whole = unsigned(np.arange(1, hi, dtype=float))
        whole[1::2] *= -1.0
        assert np.array_equal(terms(lo, hi), whole[lo - 1 :])

    @pytest.mark.parametrize(
        "route", [lambda: euler_gamma_series(10**6), lambda: wallis_partial(10**6)]
    )
    def test_million_term_routes_stay_below_two_mib(self, route):
        # whole-array temporaries of 10**6 terms peak at 23-31 MiB
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _exact(values):
    x = np.array(values, dtype=float)
    return _exact_sum(x, np.empty_like(x))


def _fsum_glaisher(n):
    # glaisher_limit's value as it was computed with a list of the terms
    k = np.arange(1, n + 1, dtype=float)
    log_sum = math.fsum((k * np.log(k / n)).tolist())
    return math.exp(log_sum + n * n / 4.0 - math.log(n) / 12.0)


class TestExactSum:
    def test_property_equals_fsum(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def arrays(draw):
            # one exponent window per array, its top from 2**-1074 to 2**1000:
            # subnormals, mixed signs, terms that cancel, and ties to even
            top = draw(st.integers(-1074, 1000))
            term = st.builds(
                lambda sign, m, e: math.ldexp(sign * m, e - 52),
                st.sampled_from([-1, 1]),
                st.integers(0, 2**53 - 1),
                st.integers(max(-1074, top - 200), top),
            )
            values = draw(st.lists(term, max_size=40))
            if values:
                values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=40))]
                if draw(st.booleans()):
                    tie = draw(st.sampled_from(values))
                    values += [tie, math.ulp(tie) / 2]
            return draw(st.permutations(values))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(arrays())
        def check(values):
            assert _exact(values).hex() == math.fsum(values).hex()

        check()

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0],
            [-0.0, -0.0],
            [1e16, 1.0, -1e16],
            [1.0, 2.0**-53],
            [1.0 + 2.0**-52, 2.0**-53],
            [1.0, 2.0**-53, 5e-324],
            [1.0, 2.0**-53, -5e-324],
            [5e-324, 5e-324, -1e-323, 2.0**-1022],
            [2.0**-1022, -(2.0**-1022 - 5e-324), 3e-320],
            [1e300, -1e300, 1e-300],
            [2.0**899, 2.0**899, -(2.0**-200)],
            [2.0**1000, 2.0**1000, -(2.0**1000), 1.0],
        ],
    )
    def test_cases_equal_fsum(self, values):
        assert _exact(values).hex() == math.fsum(values).hex()

    @pytest.mark.parametrize("seed", range(40))
    def test_long_arrays_equal_fsum(self, seed):
        # longer than numpy's pairwise blocks, so np.sum's order is not
        # the list's; half the terms cancel others, over up to 200 binades
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 2**17))
        top = int(rng.integers(-1000, 900))
        x = rng.choice([-1.0, 1.0], count) * np.ldexp(
            rng.random(count), rng.integers(top - int(rng.integers(1, 200)), top + 1, count)
        )
        x[: count // 2] = -x[count - count // 2 :][::-1][: count // 2]
        x = rng.permutation(x)
        expected = math.fsum(x.tolist())
        assert _exact(x).hex() == expected.hex()

    @pytest.mark.parametrize(
        "values",
        [[1.0, math.inf], [-math.inf, 2.0], [math.nan, 1.0], [math.inf, math.nan], [1e308] * 3],
    )
    def test_non_finite_and_overflow_as_fsum(self, values):
        try:
            expected = repr(math.fsum(values))
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=re.escape(str(exc))):
                _exact(values)
        else:
            assert repr(_exact(values)) == expected

    def test_opposite_infinities_raise_as_fsum(self):
        values = [1.0, math.inf, -math.inf]
        with pytest.raises(ValueError) as fsum_error:
            math.fsum(values)
        with pytest.raises(ValueError, match=re.escape(str(fsum_error.value))):
            _exact(values)

    def test_glaisher_limit_is_the_fsum_formula_for_small_n(self):
        for n in range(1, 301):
            assert glaisher_limit(n).value == _fsum_glaisher(n), n

    @pytest.mark.parametrize("n", [10**3, 4096, 10**4, 12345, 99991, 10**5, 314159, 10**6])
    def test_glaisher_limit_is_the_fsum_formula(self, n):
        assert glaisher_limit(n).value == _fsum_glaisher(n)


class TestInPlaceRoutes:
    @pytest.mark.parametrize(
        "route, arrays",
        [(lambda: glaisher_limit(10**6), 2), (lambda: ln2_series(10**6), 1)],
    )
    def test_million_term_routes_hold_their_arrays_only(self, route, arrays):
        # glaisher_limit holds k and its terms, ln2_series its terms; fresh
        # temporaries and the list fsum took peaked at 6 and 3 arrays of 8 MB
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (arrays + 0.25) * 8 * 10**6


class TestTermCountCaps:
    @pytest.mark.parametrize(
        "route, cap",
        [
            (euler_gamma_series, 10**8),
            (lambda n: ln_4_over_pi(n, "series"), 10**8),
            (wallis_partial, 10**8),
            (ln2_series, 10**7),
            (euler_formula_gamma, 10**3),
            (glaisher_limit, 10**6),
            (stirling_ratio, 10**7),
        ],
    )
    def test_term_count_above_the_cap_is_refused(self, route, cap):
        digits = len(str(cap)) - 1
        for n in (cap + 1, 10**100):
            with pytest.raises(ValueError, match=rf"10\*\*{digits}\]"):
                route(n)

    def test_euler_formula_gamma_at_its_cap(self):
        est = euler_formula_gamma(10**3)
        assert abs(est.value - EULER_GAMMA) <= est.error_bound


class TestRegistryConstantBits:
    # the floats of `eulerlab all`, as one whole-array np.sum gives them
    def test_euler_gamma_series(self):
        assert euler_gamma_series(10**6).value == 0.5772151649019496

    def test_wallis_partial(self):
        assert wallis_partial(10**6) == 1.5707955413977144

    def test_euler_formula_gamma(self):
        assert euler_formula_gamma(50).value == 0.5772156649015331

    def test_glaisher_limit(self):
        assert glaisher_limit(10**5).value == 1.282427432156447


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

    @pytest.mark.parametrize("n_terms", range(2, 61))
    def test_equals_the_scalar_zeta_loop(self, n_terms):
        total = math.log(4.0) - math.log(math.pi)
        for n in range(2, n_terms + 1):
            term = 2.0 * zeta(float(n)).real / (2.0**n * n)
            total += term if n % 2 == 0 else -term
        tail = zeta(float(n_terms + 1)).real / (2.0**n_terms * (n_terms + 1))
        est = euler_formula_gamma(n_terms)
        assert est.value == total
        assert est.error_bound == tail + 1e-13

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
