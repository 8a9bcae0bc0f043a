"""Batched sweeps against the point-by-point routes they replace.

Sweeps of enough eq12, eq15 or eq18 points refine every point's
quadrature together (``integral_forms.I_minus_many``, ``I_plus_many``,
``fermi_dirac_many``), and eq15 sums its eta panels at once
(``rhs_eq15_many``); each must agree with the scalar route at every
point, evaluation counts and convergence included.  The quadratures'
rows come from the scalar kernels' own forms, so their values and error
estimates are the scalar route's to the bit; ``rhs_eq15`` takes a single
point's etas from the sum ``eta_many`` runs per block, so a sweep's every
report field is ``verify``'s.
"""

import cmath
import functools
import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from eulerlab import core_numerics
from eulerlab import identity_engine as engine
from eulerlab import integral_forms
from eulerlab.core_numerics import (
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
)
from eulerlab.errors import DomainError, IntegrandError
from eulerlab.identity_engine import SkippedPoint, VerificationReport, grid, verify
from eulerlab.integral_forms import (
    I_minus,
    I_minus_many,
    I_plus,
    I_plus_many,
    rhs_eq15,
    rhs_eq15_many,
)

from conftest import fermi_dirac_kernel, kernel_value, minus_kernel, plus_kernel

QUAD_TOL = 1e-9  # what eq15's default tolerance asks of its quadrature

# (scalar kernel, the family whose rows the batch evaluates, domain edge)
KERNELS = {
    "plus": (plus_kernel, integral_forms._PLUS, -3.0),
    "minus": (minus_kernel, integral_forms._MINUS, -2.0),
    "fermi_dirac": (fermi_dirac_kernel, integral_forms._FERMI_DIRAC, 0.0),
}

# identity -> (scalar quadrature, its batch, lowest Re(s) of a test sweep)
QUADRATURES = {
    "eq12": ("I_minus", "I_minus_many", 0.0),
    "eq15": ("I_plus", "I_plus_many", 0.0),
    "eq18": ("fermi_dirac", "fermi_dirac_many", 0.5),
}


def assert_same_quadrature(batched, scalar):
    assert batched.evaluations == scalar.evaluations
    assert batched.converged == scalar.converged
    assert batched.abs_error_estimate == scalar.abs_error_estimate
    assert batched.value == scalar.value


def raw_scalar(s):
    # the single-integral ladder on the raw plus kernel over (0, T)
    return integrate_semi_infinite(
        functools.partial(plus_kernel, s), QUAD_TOL, s.real + 1.0
    )


def raw_batch(points):
    # the batched ladder on the raw plus kernel, one row per point
    return integrate_semi_infinite_many(
        integral_forms._PLUS.rows, points, QUAD_TOL, [s.real + 1.0 for s in points]
    )


def per_point_with_tail(finite, tail, tol):
    # the tail rule as the batch applied it row by row, on a finite result
    return QuadratureResult(
        finite.value,
        finite.abs_error_estimate + tail,
        finite.evaluations,
        finite.converged and tail < 0.1 * tol,
    )


def per_point_many(f, params, tol, hints):
    # integrate_semi_infinite_many with per-point bookkeeping: a truncation
    # per hint, then each row's result rebuilt with its tail
    params = np.asarray(params, dtype=complex)
    cuts = [core_numerics._truncation(tol, p) for p in hints]
    if len(cuts) != len(params):
        raise ValueError("need one decay exponent hint per parameter")
    results = [None] * len(params)
    for T in sorted({cut[0] for cut in cuts}):
        rows = [i for i, cut in enumerate(cuts) if cut[0] == T]
        finite_tols = np.array([cuts[i][2] for i in rows])
        values, estimates, evals, converged = core_numerics._tanh_sinh_rows(
            f, params[rows], 0.0, T, finite_tols
        )
        for i, *finite in zip(rows, values.tolist(), estimates.tolist(),
                              evals.tolist(), converged.tolist()):
            results[i] = per_point_with_tail(QuadratureResult(*finite), cuts[i][1], tol)
    return results


def bits(result):
    # every field of a quadrature result, floats as hex, with its type
    return (
        result.value.real.hex(), result.value.imag.hex(),
        result.abs_error_estimate.hex(), result.evaluations, result.converged,
        tuple(type(getattr(result, name)) for name in result.__dataclass_fields__),
    )


def complex_bits(z):
    return (type(z), z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("family", sorted(KERNELS))
class TestRows:
    def test_matches_scalar_kernel_on_every_branch(self, family):
        scalar, batch, edge = KERNELS[family]
        # offsets from the domain edge, real and complex
        s = edge + np.array([3.5 + 1j, 0.5 + 0.3j, 5.0 + 0j, 1.8 + 0j,
                             0.02 + 1j, 0.3 + 0j, 1.7 + 1.7j, 2.2 + 0j])
        t = np.array([1e-279, 1e-250, 1e-6, 0.3, 0.4999, 0.5, 1.0, 39.0, 40.0, 40.5, 55.0, 70.0])
        values = batch.rows(s, t)
        assert values.shape == (len(t), len(s))
        for i, ti in enumerate(t):
            for j, sj in enumerate(s):
                assert values[i, j] == scalar(sj, ti)

    @pytest.mark.parametrize("offset", [0.02 + 1j, 0.0101 + 1j])
    def test_folded_power_stays_finite_at_the_deepest_nodes(self, family, offset):
        # t**s alone overflows here next to the edge of the plus and minus
        # families; their folded powers t**(s+2) and t**(s+1) do not
        _, batch, edge = KERNELS[family]
        values = batch.rows(np.array([edge + offset]), np.array([1e-279]))
        assert np.isfinite(values).all()

    def test_property_rows_are_the_kernel_at_ladder_nodes(self, family):
        # Real s takes float_power, the C library's pow that float ** calls,
        # complex s numpy's exp, against cmath's.  Equal, not bit for bit:
        # the sign of a zero part may differ, as Python's complex-by-float
        # product adds a signed zero to each part; the ladder's sums add +0.0
        # from level 0 on, so their bits agree.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scalar, batch, edge = KERNELS[family]
        offset = st.floats(integral_forms._SUBTRACT_BELOW, 8.0)
        point = st.builds(complex, offset.map(lambda d: edge + d),
                          st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0))

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(point, min_size=1, max_size=4), st.integers(0, 6),
                          st.sampled_from([50.0, 60.0, 120.0, 750.0]))
        def check(points, level, T):
            x = np.concatenate([side[0][: side[3]] for side in core_numerics._level_sides(level, 0.0, T)])
            with np.errstate(all="ignore"):
                values = batch.rows(np.array(points), x)
            expected = [[scalar(s, xi) for s in points] for xi in x.tolist()]
            assert values.tolist() == expected

        check()

    def test_property_grid_blocks_are_the_kernel(self, family):
        # Grid-shaped blocks of 64 or more complex points, sharing their real
        # and imaginary parts, form the complex powers from the distinct
        # parts (core_numerics._complex_powers); Im = 0 and -0.0 columns take
        # float_power.  The nodes run below t = 0.5 and past t = 40.  The
        # minus form's far blocks, Re(s) about 102.5 on (0, 1000), reach past
        # t = 709.78 and put the real part of s log t above 708, where the
        # block takes the complex exp of the whole argument.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scalar, batch, edge = KERNELS[family]
        parts = st.floats(-3.0, 3.0).filter(lambda y: y != 0.0)

        @hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
        @hypothesis.given(
            st.lists(st.floats(integral_forms._SUBTRACT_BELOW, 8.0), min_size=8, max_size=10,
                     unique=True),
            st.lists(parts, min_size=8, max_size=10, unique=True),
            st.integers(0, 3), st.sampled_from([50.0, 120.0, 1000.0]),
            st.booleans() if family == "minus" else st.just(False),
        )
        def check(offsets, ims, level, T, far):
            res = [102.5 + 0.006 * d if far else edge + d for d in offsets]
            points = np.array([complex(x, y) for x in res for y in [0.0, -0.0, *ims]])
            sides = core_numerics._level_sides(level, 0.0, 1000.0 if far else T)
            x = np.concatenate([side[0][: side[3]] for side in sides])
            complex_points = len(res) * len(ims)
            assert complex_points >= core_numerics._FACTOR_MIN_ROWS
            assert 2 * (len(res) + len(ims)) <= complex_points
            assert x.min() < 0.5 and x.max() > 40.0
            assert not far or 708.0 < max(res) * math.log(x.max()) < 708.39
            values = batch.rows(points, x)
            expected = [[scalar(s, xi) for s in points.tolist()] for xi in x.tolist()]
            assert values.tolist() == expected

        check()

    def test_rejects_non_positive_t(self, family):
        with pytest.raises(ValueError):
            KERNELS[family][1].rows(np.array([0.5]), np.array([0.0, 1.0]))


def test_complex_powers_past_708_are_cmaths_exp():
    # numpy's exp, the C library's cexp, rounds exp(Re) cos(Im) otherwise than
    # cmath's exp where the real part passes 708.39, CPython's
    # CM_LOG_LARGE_DOUBLE, log(DBL_MAX / 4) (there cmath's takes exp(Re - 1)
    # and scales both parts by e); a grid block and one-row blocks with such
    # arguments round every element as cmath's exp does, and the minus rows
    # at nodes in (997, 1000), every argument in (708.3964, 709.7827], are
    # its kernel's bits
    s = np.array([complex(x, y) for x in np.linspace(102.6, 102.74, 8)
                  for y in np.linspace(-3.0, 3.0, 10)])
    band = np.array([997.1, 998.0, 999.0, 999.5, 999.9887, 999.999])
    logs = np.log(np.array([0.3, 500.0, 999.0, 999.99, *band]))
    e = np.zeros(len(logs))
    arguments = s.real[None, :] * np.log(band)[:, None]
    assert (arguments > 708.3964).all() and (arguments <= 709.7827).all()
    assert len(s) >= core_numerics._FACTOR_MIN_ROWS
    expected = np.array([[cmath.exp(p * log) for p in s.tolist()] for log in logs.tolist()])
    assert (np.exp(s[None, :] * logs[:, None]) != expected).any()  # numpy's own rule parts
    kernel = np.array([[kernel_value(integral_forms._MINUS.kernel(p), t) for p in s.tolist()]
                       for t in band.tolist()])
    assert (kernel.real != 0.0).all() and (kernel.imag != 0.0).all()
    for j in [slice(None), *([j] for j in range(len(s)))]:
        values = core_numerics._complex_powers(s[j], e, logs)
        assert values.view(np.int64).tolist() == expected[:, j].view(np.int64).tolist()
        rows = integral_forms._MINUS.rows(s[j], band)
        assert rows.view(np.int64).tolist() == kernel[:, j].view(np.int64).tolist()


class TestPastLogLargeDouble:
    # The minus form's nodes in (997, 1000) at Re(s) 102.6-102.74 put every
    # power's argument past log(DBL_MAX / 4) and below the overflow of t**s.
    RES = np.linspace(102.6, 102.74, 8)

    def test_rows_at_a_level_zero_node_of_0_1000(self):
        s, t = 102.6 + 0.5j, 999.9887
        assert integral_forms._MINUS.rows(np.array([s]), np.array([t]))[0, 0] == (
            minus_kernel(s, t))

    @pytest.mark.parametrize("family", ["plus", "minus", "fermi_dirac"])
    @pytest.mark.parametrize("tol", [1e-9, 1e-300, 10.0])
    def test_no_route_sums_such_a_node(self, family, tol):
        # a truncation T at which the tail bound's T**(Re(s) + shift + 1)
        # stays finite keeps the power at T, its largest, below the band
        f = {"plus": integral_forms._PLUS, "minus": integral_forms._MINUS,
             "fermi_dirac": integral_forms._FERMI_DIRAC}[family]
        largest = 0.0
        for real in np.arange(0.0, 130.0, 0.25).tolist():
            try:
                T = core_numerics._truncation(tol, real + f.shift)[0]
            except DomainError:
                continue
            largest = max(largest, (real + f.offsets[f.form(T)[0]]) * math.log(T))
        assert 690.0 < largest < core_numerics._LOG_LARGE_DOUBLE

    def test_ladder_summing_such_nodes_is_the_scalar_ladder(self):
        # The finite ladders over (997, 1000) sum such nodes at every level.
        points = np.array([complex(x, y) for x in self.RES for y in (0.5, -2.0)])
        for tol in (1e-130, 1e-135):
            batched = core_numerics._tanh_sinh_rows(
                integral_forms._MINUS.rows, points, 997.0, 1000.0, np.full(len(points), tol))
            for s, *row in zip(points.tolist(), *(column.tolist() for column in batched)):
                scalar = integrate_finite(integral_forms._MINUS.kernel(s), 997.0, 1000.0, tol)
                assert_same_quadrature(QuadratureResult(*row), scalar)


def test_minus_rows_past_the_overflow_of_e_to_the_t():
    # e**t overflows from t = 709.78, where the minus kernel takes e**(-t/2)
    # twice; Re(s) about 100 keeps the values normal
    s = np.array([100.0 + 0j, 102.4 + 0j, 60.0 + 0j, 100.0 + 3j])
    t = np.array([709.7827128933841, 709.79, 710.0, 720.3, 745.5, 800.0, 999.0])
    values = integral_forms._MINUS.rows(s, t)
    for i, ti in enumerate(t):
        for j, sj in enumerate(s):
            expected = minus_kernel(sj, ti)
            assert abs(expected) > 1e-300
            assert values[i, j] == expected


class TestBatchedLadder:
    def test_property_batch_equals_scalar_per_point(self):
        hypothesis = pytest.importorskip("hypothesis")
        pytest.importorskip("mpmath")
        st = hypothesis.strategies
        point = st.builds(
            complex,
            st.floats(-2.98, 3.0, exclude_min=True),
            st.floats(0.0, 2.0),
        )

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(point, min_size=1, max_size=6))
        def check(points):
            for s, batched in zip(points, raw_batch(points)):
                assert_same_quadrature(batched, raw_scalar(s))

        check()

    def test_against_mpmath_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        points = [0.5 + 1j, -2.5 + 0.7j, 2.25 + 0j, -0.75 + 1.9j]
        for s, result in zip(points, I_plus_many(points, QUAD_TOL)):
            z = mpmath.mpc(s.real, s.imag)
            exact = mpmath.gamma(z + 2) * (
                mpmath.altzeta(z + 2) + (1 - 2 * mpmath.altzeta(z + 1)) / (z + 1)
            )
            assert result.converged
            assert abs(result.value - complex(exact)) <= 1e-8

    def test_minus_rows_past_the_overflow_of_e_to_the_t_match_the_scalar_ladder(self):
        # from about Re(s) = 102 the truncation point passes t = 709.78,
        # where e**t overflows; these rows reach nodes beyond it
        points = [103.0, 103.5, 104.0]
        assert all(core_numerics._truncation(QUAD_TOL, s + 1.0)[0] > 710.0 for s in points)
        for s, batched in zip(points, I_minus_many(points, QUAD_TOL)):
            assert_same_quadrature(batched, I_minus(s, QUAD_TOL))

    def test_row_unconverged_at_max_level_beside_converged_rows(self):
        # next to the domain edge the tail at t -> 0 is never resolved
        points = [0.5 + 0.5j, -2.985 + 0.2j, 1.0 + 0j]
        edge = raw_scalar(points[1])
        assert not edge.converged
        # the ladder leaves early only on convergence, so this one walked
        # every level
        assert not integrate_finite(
            lambda t: plus_kernel(points[1], t), 0.0, 50.0, QUAD_TOL
        ).converged
        for s, batched in zip(points, raw_batch(points)):
            assert_same_quadrature(batched, raw_scalar(s))

    def test_nan_past_a_rows_truncation_is_not_summed(self):
        # The upper side stops after its first two negligible nodes at
        # t >= 1 (x < 50 - 1e-7); the nodes beyond, closer to T = 50, are
        # evaluated by the batch but never summed.
        def scalar(t, p=1.0):
            return math.nan if t > 50.0 - 1e-10 else p * math.exp(-t)

        nan_nodes = []

        def rows(params, x):
            beyond = x > 50.0 - 1e-10
            nan_nodes.append(int(beyond.sum()))
            return np.where(beyond[:, None], np.nan, params * np.exp(-x)[:, None])

        batched = integrate_semi_infinite_many(rows, [1.0, 2.0], 1e-9, [0.0, 0.0])
        assert sum(nan_nodes) > 0
        for p, result in zip((1.0, 2.0), batched):
            expected = integrate_semi_infinite(lambda t: scalar(t, p), 1e-9, 0.0)
            assert result.evaluations == expected.evaluations
            assert abs(result.value - p) <= 1e-9

    def test_nan_at_a_summed_node_raises(self):
        # the midpoint x = T/2 is the first node every row sums
        def rows(params, x):
            values = params * np.exp(-x)[:, None]
            values[(x == 25.0)[:, None] & (params.real > 1.5)] = np.nan
            return values

        with pytest.raises(IntegrandError, match="x=25.0"):
            integrate_semi_infinite_many(rows, [1.0, 2.0], 1e-9, [0.0, 0.0])
        with pytest.raises(IntegrandError, match="x=25.0"):
            integrate_semi_infinite(
                lambda t: math.nan if t == 25.0 else math.exp(-t), 1e-9, 0.0
            )

    def test_rows_with_different_truncation_points(self):
        # decay exponents past ~5 push T beyond 50 for tol 1e-9 (T = 60
        # here), and the values reach 1e3
        points = [0.5 + 0j, 5.5 + 0.5j, 6.0 + 0j]
        for s, batched in zip(points, I_plus_many(points, QUAD_TOL)):
            assert_same_quadrature(batched, I_plus(s, QUAD_TOL))


class TestBatchBookkeeping:
    # (points, decay exponent hints, tolerance) on the raw plus kernel
    CASES = {
        "repeated hints": (
            [0.5 + 1j, 0.5 + 0.2j, 1.5 + 0j, 0.5 + 0j, 1.5 + 2j, -1.0 + 0.5j],
            [1.5, 1.5, 2.5, 1.5, 2.5, 0.0],
            QUAD_TOL,
        ),
        "two truncation points": (
            [0.5 + 0j, 5.5 + 0.5j, 6.0 + 0j, 0.25 + 1j], [1.5, 6.5, 7.0, 1.25], QUAD_TOL
        ),
        "nan hints": (
            [0.5 + 0j, 0.5 + 1j, 1.0 + 0j, 2.0 + 0j],
            [math.nan, 1.5, float("nan"), math.nan],
            QUAD_TOL,
        ),
        "empty": ([], [], QUAD_TOL),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_point_bookkeeping_bit_for_bit(self, case):
        points, hints, tol = self.CASES[case]
        batched = integrate_semi_infinite_many(integral_forms._PLUS.rows, points, tol, hints)
        expected = per_point_many(integral_forms._PLUS.rows, points, tol, hints)
        assert [bits(r) for r in batched] == [bits(r) for r in expected]

    def test_case_premises(self):
        cuts = [core_numerics._truncation(QUAD_TOL, p) for p in self.CASES["two truncation points"][1]]
        assert len({T for T, _, _ in cuts}) == 2
        points, hints, tol = self.CASES["nan hints"]
        results = integrate_semi_infinite_many(integral_forms._PLUS.rows, points, tol, hints)
        assert [math.isnan(r.abs_error_estimate) for r in results] == [True, False, True, True]
        assert [r.converged for r in results] == [False, True, False, False]

    def test_one_truncation_per_distinct_hint_in_order(self, monkeypatch):
        seen = []
        original = core_numerics._truncation

        def counting(tol, p):
            seen.append(p)
            return original(tol, p)

        monkeypatch.setattr(core_numerics, "_truncation", counting)
        points, hints, _ = self.CASES["repeated hints"]
        integrate_semi_infinite_many(integral_forms._PLUS.rows, points, QUAD_TOL, hints)
        assert seen == [1.5, 2.5, 0.0]

    @pytest.mark.parametrize("n_points", [3, 2, 5])
    def test_first_overflowing_hint_raises_also_for_a_length_mismatch(self, n_points):
        points = [0.5 + 0j] * n_points
        hints = [1.5, 500.0, 400.0]
        for many in (integrate_semi_infinite_many, per_point_many):
            with pytest.raises(DomainError, match=r"decay exponent 500\.0$"):
                many(integral_forms._PLUS.rows, points, QUAD_TOL, hints)

    def test_length_mismatch_raises_value_error(self):
        for many in (integrate_semi_infinite_many, per_point_many):
            with pytest.raises(ValueError, match="one decay exponent hint per parameter"):
                many(integral_forms._PLUS.rows, [0.5 + 0j] * 3, QUAD_TOL, [1.5, 1.5])
            with pytest.raises(ValueError, match="one decay exponent hint per parameter"):
                many(integral_forms._PLUS.rows, [], QUAD_TOL, [1.5])

    @pytest.mark.parametrize("name, edge", [("I_plus", -3.0), ("I_minus", -2.0), ("fermi_dirac", 0.0)])
    def test_mixed_subtracted_and_plain_points_keep_their_order(self, name, edge):
        single = getattr(integral_forms, name)
        many = getattr(integral_forms, name + "_many")
        tol = 1e-9
        # within _SUBTRACT_BELOW of the edge a point takes the scalar route
        offsets = [3.5 + 1j, 0.3 + 0.2j, 2.0 + 0.3j, 0.1 + 0j, 4.5 + 0j, 0.44 + 1j]
        points = [edge + d for d in offsets]
        near = [d.real < integral_forms._SUBTRACT_BELOW for d in offsets]
        batch = iter(many([s for s, n in zip(points, near) if not n], tol))
        expected = [single(s, tol) if n else next(batch) for s, n in zip(points, near)]
        assert [bits(r) for r in many(points, tol)] == [bits(r) for r in expected]

    @pytest.mark.parametrize("name, edge", [("I_plus", -3.0), ("I_minus", -2.0), ("fermi_dirac", 0.0)])
    def test_point_past_the_edge_raises_the_scalar_error(self, name, edge):
        with pytest.raises(DomainError) as scalar:
            getattr(integral_forms, name)(edge + 0.005, 1e-9)
        with pytest.raises(DomainError) as batched:
            getattr(integral_forms, name + "_many")([edge + 2.0, edge + 0.2, edge + 0.005, edge + 1.0], 1e-9)
        assert str(batched.value) == str(scalar.value)


def per_point_is_generic(s):
    # the scalar rule for a point of rhs_eq15's eta panel
    return s.real > -3.0 and all(
        abs(s - point) >= integral_forms._EXPANSION_RADIUS for point in (-1.0, -2.0)
    )


class TestRhsPanelMask:
    RADIUS = integral_forms._EXPANSION_RADIUS

    def check(self, monkeypatch, points):
        # rhs_eq15_many against rhs_eq15 at every point, bit for bit, and the
        # points it hands to the scalar route against the scalar rule: all of
        # a one-point list
        scalar = []

        def recording(s):
            scalar.append(s)
            return rhs_eq15(s)

        try:
            expected = [complex_bits(rhs_eq15(p)) for p in points]
        except DomainError as exc:
            with monkeypatch.context() as m:
                m.setattr(integral_forms, "rhs_eq15", recording)
                with pytest.raises(DomainError) as got:
                    rhs_eq15_many(points)
            assert str(got.value) == str(exc)
            return
        with monkeypatch.context() as m:
            m.setattr(integral_forms, "rhs_eq15", recording)
            values = rhs_eq15_many(points)
        assert [complex_bits(v) for v in values] == expected
        assert scalar == [complex(p) for p in points
                          if len(points) == 1 or not per_point_is_generic(complex(p))]

    def test_property_mask_equals_scalar_rule(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        r = self.RADIUS
        # on, just inside and just outside the expansion circles
        scale = st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0])
        circle = st.builds(
            lambda center, angle, k: complex(center + k * r * math.cos(angle), k * r * math.sin(angle)),
            st.sampled_from([-1.0, -2.0]), st.floats(0.0, 2.0 * math.pi), scale,
        )
        axis = st.builds(
            lambda center, sign, k: center + sign * k * r,
            st.sampled_from([-1.0, -2.0]), st.sampled_from([1.0, -1.0, 1j, -1j]), scale,
        )
        exact = st.sampled_from([-1.0 + 0j, -2.0 + 0j, complex(-1.0, -0.0), -1, -2])
        edge = st.builds(complex, st.floats(-3.0 - 1e-12, -2.9999), st.floats(-2.0, 2.0))
        plain = st.builds(complex, st.floats(-2.99, 3.0), st.floats(-2.0, 2.0))
        point = st.one_of(circle, axis, exact, edge, plain)

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(point, min_size=1, max_size=12))
        def check(points):
            self.check(monkeypatch, points)

        check()

    def test_cases(self, monkeypatch):
        r = self.RADIUS
        points = [-1.0, -2.0, -1.0 + r, -1.0 - r, complex(-1.0, r), complex(-2.0, -r),
                  -2.0 + 0.99999999 * r, -2.0 + 1.00000001 * r, -1.0 + 5e-5j,
                  -3.0 + 1e-12, 0.5 + 1j, 2.0, complex(-1.5, 0.3)]
        self.check(monkeypatch, points)
        # the panel and the scalar route both take some of these points
        assert 0 < sum(map(per_point_is_generic, map(complex, points))) < len(points)
        self.check(monkeypatch, [])
        self.check(monkeypatch, [0.5, -3.0 + 0j, 1.0])

    @pytest.mark.parametrize("point", [0.5 + 1j, -1.0 + 0.3 * RADIUS * 1j, -3.5 + 1j])
    def test_one_point_is_rhs_eq15(self, monkeypatch, point):
        # a generic point, one within the expansion radius of -1, and one
        # outside the domain: one rhs_eq15 call, its bits or its error
        scalar = []

        def recording(s):
            scalar.append(s)
            return rhs_eq15(s)

        monkeypatch.setattr(integral_forms, "rhs_eq15", recording)
        try:
            expected = complex_bits(rhs_eq15(point))
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                rhs_eq15_many([point])
            assert str(got.value) == str(exc)
        else:
            assert [complex_bits(v) for v in rhs_eq15_many([point])] == [expected]
        assert scalar == [point]


class TestRhsPanel:
    def test_matches_scalar_route(self):
        points = [complex(-2.4 + 0.37 * k, 0.13 * k) for k in range(15)]
        assert rhs_eq15_many(points) == [rhs_eq15(s) for s in points]

    def test_points_near_minus_one_take_the_expansion(self, monkeypatch):
        scalar = []
        original = integral_forms.rhs_eq15

        def counting(s):
            scalar.append(s)
            return original(s)

        monkeypatch.setattr(integral_forms, "rhs_eq15", counting)
        near = -1.0 + 5e-5j
        values = rhs_eq15_many([0.5, near, 1.5 + 1j])
        assert scalar == [near]
        monkeypatch.undo()
        assert values[1] == rhs_eq15(near)


class TestSmallSweeps:
    """Below _BATCH_MIN_POINTS the *_many routes run their scalar route."""

    @pytest.mark.parametrize("token", sorted(QUADRATURES))
    def test_below_the_threshold_each_point_takes_the_scalar_route(self, monkeypatch, token):
        single_name, many_name, _ = QUADRATURES[token]
        single, many = getattr(integral_forms, single_name), getattr(integral_forms, many_name)
        # points on both sides of _SUBTRACT_BELOW above the edge, one of them real
        edge = {"eq12": -2.0, "eq15": -3.0, "eq18": 0.0}[token]
        points = [complex(edge + 0.2 + 0.3 * k, 0.2 * k)
                  for k in range(integral_forms._BATCH_MIN_POINTS - 1)]
        expected = {n: [bits(single(s, QUAD_TOL)) for s in points[:n]] for n in (1, 2, len(points))}
        calls = []

        def counting(s, tol):
            calls.append(s)
            return single(s, tol)

        def refuse(*args):
            raise AssertionError("batch called")

        monkeypatch.setattr(integral_forms, single_name, counting)
        monkeypatch.setattr(integral_forms, "integrate_semi_infinite_many", refuse)
        for n, results in expected.items():
            calls.clear()
            assert [bits(r) for r in many(points[:n], QUAD_TOL)] == results
            assert calls == points[:n]

    def test_a_lone_rhs_point_is_summed_by_the_sum(self, monkeypatch):
        expected = [complex_bits(rhs_eq15(s)) for s in (0.5 + 1j, -2.5 + 0.3j)]
        calls = []
        for name in ("_eta_sum", "eta_many"):
            original = getattr(integral_forms, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(integral_forms, name, counting)
        assert [complex_bits(v) for v in rhs_eq15_many([0.5 + 1j])] == expected[:1]
        assert calls == ["_eta_sum"]
        calls.clear()
        assert [complex_bits(v) for v in rhs_eq15_many([0.5 + 1j, -2.5 + 0.3j])] == expected
        assert calls == ["eta_many"]


def grid_matches_verify(entries):
    for entry in entries:
        if isinstance(entry, SkippedPoint):
            continue
        single = verify(entry.id, entry.s, entry.tol)
        fields = ("lhs", "rhs", "abs_err", "rel_err", "passed", "evaluations")
        assert [getattr(entry, f) for f in fields] == [getattr(single, f) for f in fields]


class TestBatchedSweep:
    # the first Re(s) of eq12's and eq18's sweeps sits within
    # _SUBTRACT_BELOW of the edge, where the batch takes the scalar route
    @pytest.mark.parametrize("token, re_lo", [("eq15", -2.5), ("eq12", -1.95), ("eq18", 0.05)])
    def test_grid_reports_match_verify(self, token, re_lo):
        entries = grid(token, (re_lo, 3.0, 0.35), (0.0, 2.0, 0.65))
        assert sum(isinstance(e, VerificationReport) for e in entries) >= integral_forms._BATCH_MIN_POINTS
        grid_matches_verify(entries)

    # (identity, re range, im range, a node the rows pass, whether points
    # within _SUBTRACT_BELOW of the edge are mixed in) of a sweep that crosses
    # every branch of its kernel's form: a real row, nodes below t = 0.5 and
    # past t = 40 (the minus form's last branch starts at t = 709.78)
    BRANCH_SWEEPS = {
        "eq15": ("eq15", (-2.9, 3.0, 0.25), (0.0, 1.0, 0.5), 40.0, True),
        "eq12": ("eq12", (-1.9, 3.0, 0.25), (0.0, 1.0, 0.5), 40.0, True),
        "eq12 past e**t overflow": ("eq12", (100.0, 104.0, 0.2), (0.0, 1.0, 1.0),
                                    709.782712893384, False),
        "eq18": ("eq18", (0.05, 3.0, 0.25), (0.0, 1.0, 0.5), 40.0, True),
    }

    @pytest.mark.parametrize("sweep", sorted(BRANCH_SWEEPS))
    def test_sweep_across_every_branch_matches_verify(self, monkeypatch, sweep):
        token, re_range, im_range, far, near = self.BRANCH_SWEEPS[sweep]
        nodes = []
        many = integral_forms.integrate_semi_infinite_many

        def recording(rows, *args):
            def recorded(params, x):
                nodes.extend((x.min(), x.max()))
                return rows(params, x)

            return many(recorded, *args)

        monkeypatch.setattr(integral_forms, "integrate_semi_infinite_many", recording)
        entries = grid(token, re_range, im_range)
        reports = [e for e in entries if isinstance(e, VerificationReport)]
        assert len(reports) >= integral_forms._BATCH_MIN_POINTS
        assert any(e.s.imag == 0.0 for e in reports) and any(e.s.imag for e in reports)
        assert min(nodes) < 0.5 and max(nodes) > far
        edge = {"eq15": -3.0, "eq12": -2.0, "eq18": 0.0}[token]
        assert any(e.s.real - edge < integral_forms._SUBTRACT_BELOW for e in reports) == near
        grid_matches_verify(entries)

    def test_registry_points_match_verify(self):
        grid_matches_verify(engine.verify_all({"eq15": 1e-8}))

    def test_grid_point_within_expansion_radius_of_minus_one(self):
        entries = grid("eq15", (-1.00005, 0.25 * integral_forms._BATCH_MIN_POINTS, 0.25), (0.0, 0.0, 1.0))
        assert len(entries) >= integral_forms._BATCH_MIN_POINTS
        assert entries[0].s == -1.00005 + 0j
        assert entries[0].rhs == rhs_eq15(-1.00005)
        grid_matches_verify(entries)

    def test_sweep_calls_each_batched_route_once(self, monkeypatch):
        calls = []
        for name in ("I_plus", "I_plus_many", "rhs_eq15", "rhs_eq15_many"):
            original = getattr(integral_forms, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(integral_forms, name, counting)
        entries = grid("eq15", (0.0, 0.25 * (integral_forms._BATCH_MIN_POINTS - 1), 0.25), (0.0, 0.0, 1.0))
        assert len(entries) == integral_forms._BATCH_MIN_POINTS
        assert sorted(calls) == ["I_plus_many", "rhs_eq15_many"]
        calls.clear()
        # one point: I_plus_many runs I_plus, and rhs_eq15_many runs rhs_eq15
        verify("eq15", 0.5 + 1j)
        assert sorted(calls) == ["I_plus", "I_plus_many", "rhs_eq15", "rhs_eq15_many"]

    @pytest.mark.parametrize("token", sorted(QUADRATURES))
    def test_quadrature_batches_from_the_threshold_on(self, monkeypatch, token):
        # the sweep calls the *_many route, which runs the batch below it
        # (integrate_semi_infinite_many) from _BATCH_MIN_POINTS points on
        single, _, re_lo = QUADRATURES[token]
        many = "integrate_semi_infinite_many"
        calls = []
        for name in (single, many):
            original = getattr(integral_forms, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(integral_forms, name, counting)
        n = integral_forms._BATCH_MIN_POINTS
        below = grid(token, (re_lo, re_lo + 0.25 * (n - 2), 0.25), (0.0, 0.0, 1.0))
        assert len(below) == integral_forms._BATCH_MIN_POINTS - 1
        assert calls == [single] * len(below)
        calls.clear()
        at = grid(token, (re_lo, re_lo + 0.25 * (n - 1), 0.25), (0.0, 0.0, 1.0))
        assert len(at) == integral_forms._BATCH_MIN_POINTS
        assert calls == [many]
        grid_matches_verify(below + at)

    def test_sweep_below_the_batch_size_runs_its_quadrature_point_by_point(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("batched route called")

        # below _BATCH_MIN_POINTS the quadrature runs point by point (eq15's rhs
        # batches from two points on), and the points the sweep one point longer
        # shares with it get the same reports
        n = integral_forms._BATCH_MIN_POINTS
        with monkeypatch.context() as m:
            m.setattr(integral_forms, "integrate_semi_infinite_many", refuse)
            below = grid("eq15", (-2.9, -2.9 + 0.55 * (n - 2), 0.55), (0.3, 0.3, 1.0))
        assert len(below) == n - 1
        at = grid("eq15", (-2.9, -2.9 + 0.55 * (n - 1), 0.55), (0.3, 0.3, 1.0))
        assert [engine.report_to_dict(e) for e in below] == [
            engine.report_to_dict(e) for e in at[:-1]]
        grid_matches_verify(below)

    @pytest.mark.parametrize("count", [1, 2, 3, 10])
    def test_eq15_rhs_batches_from_two_points(self, monkeypatch, count):
        # rhs_eq15_many runs rhs_eq15, and so _eta_sum, at a lone point, and
        # sums more by eta_many
        calls = []
        for name in ("_eta_sum", "eta_many"):
            original = getattr(integral_forms, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(integral_forms, name, counting)
        entries = grid("eq15", (-2.9, -2.9 + 0.55 * (count - 1), 0.55), (0.3, 0.3, 1.0))
        assert len(entries) == count
        assert calls == ["_eta_sum" if count == 1 else "eta_many"]
        grid_matches_verify(entries)

    @pytest.mark.parametrize("token", sorted(QUADRATURES))
    def test_failing_batch_gives_the_point_by_point_error(self, monkeypatch, token):
        # a sweep long enough to batch; the batch below the *_many route fails
        single_name, _, re_lo = QUADRATURES[token]
        ranges = ((re_lo, re_lo + 3.5, 0.25), (0.0, 0.0, 1.0))
        bad = engine._grid_points(*ranges)[3]
        original = getattr(integral_forms, single_name)

        def batch(*args):
            raise IntegrandError("batch failed")

        def single(s, tol):
            if s == bad:
                raise IntegrandError(f"failed at s = {s}")
            return original(s, tol)

        assert len(engine._grid_points(*ranges)) >= integral_forms._BATCH_MIN_POINTS
        monkeypatch.setattr(integral_forms, "integrate_semi_infinite_many", batch)
        monkeypatch.setattr(integral_forms, single_name, single)
        with pytest.raises(IntegrandError, match=re.escape(f"failed at s = {bad}")):
            grid(token, *ranges)

    def test_concurrent_sweeps_see_only_their_own_batch(self):
        # Each thread sweeps the same points at its own tolerance; a batch
        # leaking between threads would put one tolerance's values and
        # evaluation counts into another's reports.
        ranges = ((-2.0, 2.0, 0.5), (0.0, 1.0, 1.0))
        tols = (1e-6, 1e-8, 1e-10, 1e-7, 1e-9, 1e-11)
        expected = {tol: grid("eq15", *ranges, tol=tol) for tol in tols}
        got = {}

        def sweep(tol):
            got[tol] = [
                e if isinstance(e, SkippedPoint) else replace(e, elapsed=0.0)
                for e in grid("eq15", *ranges, tol=tol)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(tol,)) for tol in tols]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for tol in tols:
            assert got[tol] == [
                e if isinstance(e, SkippedPoint) else replace(e, elapsed=0.0)
                for e in expected[tol]
            ]
