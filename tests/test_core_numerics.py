import math

import pytest

from eulerlab import constants, core_numerics, identity_engine, integral_forms
from eulerlab.core_numerics import PowerKernel, integrate_finite, integrate_semi_infinite
from eulerlab.errors import DomainError, IntegrandError

from conftest import integrate_unit_square, sum_series


def basel_series_oracle(n_terms: int = 200000) -> tuple[float, float]:
    # sum 1/n^2 with an integral tail bracket: tail in (1/(N+1), 1/N)
    partial = sum(1.0 / (n * n) for n in range(1, n_terms + 1))
    return partial + 1.0 / (n_terms + 1), 1.0 / n_terms - 1.0 / (n_terms + 1)


def level_estimates(f, a, b, tol, levels):
    # |S_L - S_(L-1)| of the tanh-sinh ladder at levels 1..levels, each
    # level walked as integrate_finite walks it
    thresh = tol * 1e-3
    total, estimates = 0.0, []
    for level in range(levels + 1):
        h = 0.5**level
        level_sum = core_numerics._walk_level(f, a, b, level, thresh)[0]
        previous = total
        total = level_sum * h if level == 0 else 0.5 * total + level_sum * h
        if level:
            estimates.append(abs(total - previous))
    return estimates


class TestIntegrateFinite:
    def test_constant(self):
        r = integrate_finite(lambda t: 1.0, 0.0, 1.0, 1e-12)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-12

    def test_log_singularity(self):
        r = integrate_finite(lambda t: -math.log(t), 0.0, 1.0, 1e-12)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-12

    def test_basel_reduction_against_series_oracle(self):
        # the reduced form of the 1/(1-xy) square integral
        r = integrate_finite(lambda t: -math.log(t) / (1.0 - t), 0.0, 1.0, 1e-11)
        oracle, oracle_err = basel_series_oracle()
        assert r.converged
        assert abs(r.value - oracle) <= 1e-11 + oracle_err
        assert abs(r.value - math.pi**2 / 6.0) <= 1e-11

    def test_algebraic_singularity(self):
        r = integrate_finite(lambda t: t**-0.5, 0.0, 1.0, 1e-12)
        assert abs(r.value - 2.0) <= 1e-11

    def test_converged_estimate_honors_tol(self):
        for tol in (1e-6, 1e-9, 1e-12):
            r = integrate_finite(lambda t: math.exp(-t) * math.cos(3 * t), 0.0, 2.0, tol)
            assert r.converged
            assert r.abs_error_estimate <= tol
            assert r.evaluations > 0

    def test_linearity(self):
        tol = 1e-10
        f = lambda t: math.cos(t)
        g = lambda t: math.exp(-t)
        alpha, beta = 2.5, -7.0
        combined = integrate_finite(
            lambda t: alpha * f(t) + beta * g(t), 0.0, 1.0, tol
        )
        separate = alpha * integrate_finite(f, 0.0, 1.0, tol).value + (
            beta * integrate_finite(g, 0.0, 1.0, tol).value
        )
        assert abs(combined.value - separate) <= 10 * tol

    def test_nan_integrand_rejected(self):
        with pytest.raises(IntegrandError, match="integrand invalid"):
            integrate_finite(lambda t: float("nan"), 0.0, 1.0, 1e-8)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(1.0, math.inf),
                                     complex(math.nan, 0.0), complex(0.0, -math.inf)])
    @pytest.mark.parametrize("where", [(0.0, 0.2), (0.8, 1.0)])
    def test_non_finite_value_at_a_summed_node_rejected(self, bad, where):
        # on either side of the interval; finite values pass through untouched
        lo, hi = where
        f = lambda t: bad if lo < t < hi else complex(t, -t)  # noqa: E731
        with pytest.raises(IntegrandError, match="non-finite value at x="):
            integrate_finite(f, 0.0, 1.0, 1e-8)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda t: 1.0, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            integrate_finite(lambda t: 1.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: math.cos(t),
            lambda t: math.exp(-t),
            lambda t: 1.0 / (1.0 + t * t),
            lambda t: t**5 - 3.0 * t + 1.0,
        ],
    )
    def test_refinement_estimates_decrease(self, f):
        history = level_estimates(f, 0.0, 1.0, 1e-15, 7)
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier or (earlier <= 1e-13 and later <= 1e-13)


class TestIntegrateSemiInfiniteSplit:
    """integrate_semi_infinite given near: near over (0, 1) and f over (1, T)."""

    def test_adds_the_two_parts(self):
        r = integrate_semi_infinite(lambda t: math.exp(-t), 1e-10, 0.0, lambda t: t**-0.5)
        assert r.converged
        assert abs(r.value - (2.0 + math.exp(-1.0))) <= 1e-10

    def test_converges_only_when_both_parts_do(self):
        # t**-0.995 runs out of nodes at 0; the far part converges
        near, far = (lambda t: t**-0.995), (lambda t: math.exp(-t))
        r = integrate_semi_infinite(far, 1e-9, 0.0, near)
        T, tail, finite_tol = core_numerics._truncation(1e-9, 0.0)
        a = integrate_finite(near, 0.0, 1.0, 0.5 * finite_tol)
        b = integrate_finite(far, 1.0, T, 0.5 * finite_tol)
        assert b.converged and not a.converged
        assert not r.converged
        assert r.value == a.value + b.value
        assert r.evaluations == a.evaluations + b.evaluations
        assert r.abs_error_estimate == a.abs_error_estimate + b.abs_error_estimate + tail

    @pytest.mark.parametrize("family", ["_PLUS", "_MINUS", "_FERMI_DIRAC"])
    @pytest.mark.parametrize("above_edge", [0.0101 + 0.3j, 0.2, 0.44 + 2j])
    def test_family_near_kernels_keep_the_two_part_sum_bits(self, family, above_edge):
        # each family's subtracted route, against the parts added as two finite
        # integrals with the truncation's T, tail and tolerance, bit for bit
        f = getattr(integral_forms, family)
        s = complex(f.edge + above_edge)
        near = PowerKernel(f.near, (s + f.c,))
        far, hint, tol = f.kernel(s), s.real + f.shift, 1e-9
        T, tail, t = core_numerics._truncation(tol, hint)
        a = integrate_finite(near, 0.0, 1.0, t / 2)
        b = integrate_finite(far, 1.0, T, t / 2)
        r = integrate_semi_infinite(far, tol, hint, near)
        value = 0 + a.value + b.value
        assert (r.value.real.hex(), r.value.imag.hex()) == (value.real.hex(), value.imag.hex())
        estimate = 0 + a.abs_error_estimate + b.abs_error_estimate + tail
        assert r.abs_error_estimate.hex() == estimate.hex()
        assert r.evaluations == a.evaluations + b.evaluations
        assert r.converged is (a.converged and b.converged and tail < 0.1 * tol)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda t: math.exp(-t), 1e-12, 0.0)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-12

    def test_gamma_of_five(self):
        r = integrate_semi_infinite(lambda t: math.exp(-t) * t**4, 1e-11, 4.0)
        assert abs(r.value - 24.0) <= 1e-10

    def test_fermi_kernel_against_substitution_oracle(self):
        # substitution u = e^(-t) turns the integral into int_0^1 du/(1+u)
        direct = integrate_semi_infinite(
            lambda t: 1.0 / (math.exp(t) + 1.0), 1e-12, 0.0
        )
        substituted = integrate_finite(lambda u: 1.0 / (1.0 + u), 0.0, 1.0, 1e-13)
        assert abs(direct.value - substituted.value) <= 1e-12
        assert abs(direct.value - math.log(2.0)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 3.5])
    def test_tail_soundness(self, p):
        r = integrate_semi_infinite(
            lambda t: math.exp(-t) * t**p, 1e-10, p
        )
        assert r.converged
        assert abs(r.value - math.gamma(p + 1.0)) <= r.abs_error_estimate

    def test_tail_bound_is_unchanged_below_the_subnormal_range(self):
        for T in range(50, 710, 10):
            for p in (-0.99, 0.0, 1.5, 20.0):
                T = float(T)
                bound = math.exp(-T) * T ** (p + 1.0) * (1.0 + (p + 1.0) / T)
                assert core_numerics._tail_bound(T, p) == bound

    def test_tail_bound_bounds_the_tail_past_the_subnormal_range(self):
        # e**-T is subnormal from T = 708 and 0 from T = 745; checked where
        # the tail itself is a normal double and T**(p + 1) is finite, and to
        # full precision against the bound's formula
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        for T in (710.0, 720.0, 740.0, 750.0, 800.0, 900.0, 1000.0):
            for p in (-0.5, 0.0, 1.0, 50.0, 100.0):
                tail = mpmath.gammainc(p + 1.0, T)
                if tail < 1e-300 or (p + 1.0) * math.log(T) > 709.0:
                    continue
                checked += 1
                bound = core_numerics._tail_bound(T, p)
                exact = mpmath.exp(-T) * mpmath.mpf(T) ** (p + 1) * (1 + (p + 1) / T)
                assert bound >= tail and abs(bound - exact) <= 1e-12 * exact
        assert checked >= 10
        T, tail, finite_tol = core_numerics._truncation(1e-200, 50.0)
        assert mpmath.gammainc(51, T) <= tail < 1e-201 and finite_tol == 1e-200 - tail

    def test_tail_bound_overflow_raises_domain_error(self):
        with pytest.raises(DomainError, match="tail bound"):
            integrate_semi_infinite(lambda t: math.exp(-t), 1e-9, 179.0)


# The literal-form oracles of conftest, checked against closed forms.
class TestIntegrateUnitSquare:
    def test_constant(self):
        r = integrate_unit_square(lambda x, y: 1.0, 1e-8)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-8

    def test_geometric_kernel(self):
        r = integrate_unit_square(lambda x, y: 1.0 / (1.0 - x * y), 1e-6)
        assert abs(r.value - math.pi**2 / 6.0) <= 1e-5

    def test_euler_constant_kernel(self, gamma_reference):
        f = lambda x, y: (1.0 - x) / ((1.0 - x * y) * -(math.log(x) + math.log(y)))
        r = integrate_unit_square(f, 1e-6)
        assert abs(r.value - gamma_reference) <= 1e-5


class TestSumSeries:
    def test_geometric(self):
        r = sum_series(lambda n: 0.5**n, 1e-15, 10_000)
        assert r.converged
        assert abs(r.value - 1.0) <= 1e-15

    def test_basel_heuristic_cut(self):
        r = sum_series(lambda n: 1.0 / (n * n), 1e-8, 10**6)
        assert r.converged
        assert r.remainder_bound is None
        # the heuristic cut stops near n = 1/sqrt(tol); remainder ~ 1/n
        assert abs(r.value - math.pi**2 / 6.0) <= 2.0 / math.sqrt(1e-8) * 1e-8

    def test_alternating_harmonic(self):
        r = sum_series(
            lambda n: (1.0 if n % 2 else -1.0) / n, 1e-6, 10**7, alternating=True
        )
        assert r.converged
        assert r.remainder_bound is not None
        assert abs(r.value - math.log(2.0)) <= r.remainder_bound

    @pytest.mark.parametrize(
        "term,closed_form",
        [
            (lambda n: (1.0 if n % 2 else -1.0) / n, math.log(2.0)),
            (lambda n: (1.0 if n % 2 else -1.0) / (n * n), math.pi**2 / 12.0),
            (lambda n: (1.0 if n % 2 else -1.0) / (2 * n - 1), math.pi / 4.0),
        ],
    )
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_alternating_remainder_bound(self, term, closed_form, tol):
        r = sum_series(term, tol, 10**7, alternating=True)
        assert r.converged
        assert abs(r.value - closed_form) <= r.remainder_bound

    def test_cap_reached_marker(self):
        r = sum_series(lambda n: 1.0 / n, 1e-12, 1000, alternating=False)
        assert not r.converged
        assert r.terms_used == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_series(lambda n: 1.0 / n, 0.0, 10)
        with pytest.raises(ValueError):
            sum_series(lambda n: 1.0 / n, 1e-6, 0)


# (record class, field values, the same values with one changed)
RECORDS = {
    "QuadratureResult": (
        core_numerics.QuadratureResult, (1.5 + 2j, 1e-12, 133, True), {"evaluations": 134},
    ),
    "VerificationReport": (
        identity_engine.VerificationReport,
        ("eq15", 0.5 + 1j, 1 + 1j, 1 + 1j, 0.0, 0.0, 1e-8, True, "lhs", "rhs", 133, 0.25),
        {"passed": False},
    ),
    "SkippedPoint": (
        identity_engine.SkippedPoint, ("eq15", -1 + 0j, "excluded point"), {"reason": "other"},
    ),
    "ConstantEstimate": (
        constants.ConstantEstimate, (0.5772, "series", 10**6, 5e-7), {"terms_or_n": 7},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecords:
    # The records are NamedTuples: immutable, without a __dict__, with the
    # eq, hash, repr, _fields and _replace a NamedTuple gives them.
    def test_setting_a_field_raises(self, name):
        cls, values, _ = RECORDS[name]
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, cls._fields[0])
        assert not hasattr(record, "__dict__")

    def test_equality_hash_and_repr_are_the_namedtuples(self, name):
        cls, values, change = RECORDS[name]
        record, names = cls(*values), cls._fields
        assert record == cls(**dict(zip(names, values)))
        assert hash(record) == hash(tuple(values))
        assert record._asdict() == dict(zip(names, values))
        assert repr(record) == f"{name}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        changed = record._replace(**change)
        assert changed != record and hash(changed) != hash(record)
        assert tuple(changed) == tuple(change.get(n, v) for n, v in zip(names, values))
