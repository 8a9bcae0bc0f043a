"""Batched sweeps against the point-by-point routes they replace.

Sweeps of enough eq12, eq15 or eq18 points refine every point's
quadrature together (``integral_forms.I_minus_many``, ``I_plus_many``,
``fermi_dirac_many``), and eq15 sums its eta panels at once
(``rhs_eq15_many``); each must agree with the scalar route at every
point, evaluation counts and convergence included.
"""

import functools
import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from eulerlab import identity_engine as engine
from eulerlab import integral_forms
from eulerlab.core_numerics import (
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
)
from eulerlab.errors import IntegrandError
from eulerlab.identity_engine import SkippedPoint, VerificationReport, grid, verify
from eulerlab.integral_forms import (
    I_plus,
    I_plus_many,
    fermi_dirac_integrand,
    fermi_dirac_integrand_array,
    reduced_integrand_minus,
    reduced_integrand_minus_array,
    reduced_integrand_plus,
    reduced_integrand_plus_array,
    rhs_eq15,
    rhs_eq15_many,
)

QUAD_TOL = 1e-9  # what eq15's default tolerance asks of its quadrature

# (scalar kernel, array kernel, domain edge) per reduced family
KERNELS = {
    "plus": (reduced_integrand_plus, reduced_integrand_plus_array, -3.0),
    "minus": (reduced_integrand_minus, reduced_integrand_minus_array, -2.0),
    "fermi_dirac": (fermi_dirac_integrand, fermi_dirac_integrand_array, 0.0),
}

# identity -> (scalar quadrature, its batch, lowest Re(s) of a test sweep)
QUADRATURES = {
    "eq12": ("I_minus", "I_minus_many", 0.0),
    "eq15": ("I_plus", "I_plus_many", 0.0),
    "eq18": ("fermi_dirac", "fermi_dirac_many", 0.5),
}


def assert_same_quadrature(batched, scalar, scale=1.0):
    # scale: the size of the values, for points where they are large
    assert batched.evaluations == scalar.evaluations
    assert batched.converged == scalar.converged
    assert abs(batched.abs_error_estimate - scalar.abs_error_estimate) <= 1e-13 * scale
    assert abs(batched.value - scalar.value) <= 1e-13 * scale


def raw_scalar(s):
    # the single-integral ladder on the raw plus kernel over (0, T)
    return integrate_semi_infinite(
        functools.partial(reduced_integrand_plus, s), QUAD_TOL, s.real + 1.0
    )


def raw_batch(points):
    # the batched ladder on the raw plus kernel, one row per point
    return integrate_semi_infinite_many(
        reduced_integrand_plus_array, points, QUAD_TOL, [s.real + 1.0 for s in points]
    )


@pytest.mark.parametrize("family", sorted(KERNELS))
class TestArrayKernel:
    def test_matches_scalar_kernel_on_every_branch(self, family):
        scalar, array, edge = KERNELS[family]
        # offsets from the domain edge, real and complex
        s = edge + np.array([3.5 + 1j, 0.5 + 0.3j, 5.0 + 0j, 1.8 + 0j,
                             0.02 + 1j, 0.3 + 0j, 1.7 + 1.7j, 2.2 + 0j])
        t = np.array([1e-279, 1e-250, 1e-6, 0.3, 0.4999, 0.5, 1.0, 39.0, 40.0, 40.5, 55.0, 70.0])
        values = array(s, t)
        assert values.shape == (len(t), len(s))
        for i, ti in enumerate(t):
            for j, sj in enumerate(s):
                expected = scalar(sj, ti)
                assert abs(values[i, j] - expected) <= 1e-15 * max(1.0, abs(expected))

    @pytest.mark.parametrize("offset", [0.02 + 1j, 0.0101 + 1j])
    def test_folded_power_stays_finite_at_the_deepest_nodes(self, family, offset):
        # t**s alone overflows here next to the edge of the plus and minus
        # families; their folded powers t**(s+2) and t**(s+1) do not
        _, array, edge = KERNELS[family]
        values = array(np.array([edge + offset]), np.array([1e-279]))
        assert np.isfinite(values).all()

    def test_rejects_non_positive_t(self, family):
        with pytest.raises(ValueError):
            KERNELS[family][1](np.array([0.5]), np.array([0.0, 1.0]))


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

    def test_row_unconverged_at_max_level_beside_converged_rows(self):
        # next to the domain edge the tail at t -> 0 is never resolved
        points = [0.5 + 0.5j, -2.985 + 0.2j, 1.0 + 0j]
        edge = raw_scalar(points[1])
        assert not edge.converged
        # the ladder leaves early only on convergence, so this one walked
        # every level
        assert not integrate_finite(
            lambda t: reduced_integrand_plus(points[1], t), 0.0, 50.0, QUAD_TOL
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
            scalar = I_plus(s, QUAD_TOL)
            assert_same_quadrature(batched, scalar, max(1.0, abs(scalar.value)))


class TestRhsPanel:
    def test_matches_scalar_route(self):
        points = [complex(-2.4 + 0.37 * k, 0.13 * k) for k in range(15)]
        for s, value in zip(points, rhs_eq15_many(points)):
            assert abs(value - rhs_eq15(s)) <= 1e-13

    def test_points_near_minus_one_take_the_expansion(self, monkeypatch):
        limits = []
        original = integral_forms._rhs_eq15_limit

        def counting(point):
            limits.append(point)
            return original(point)

        monkeypatch.setattr(integral_forms, "_rhs_eq15_limit", counting)
        near = -1.0 + 5e-5j
        values = rhs_eq15_many([0.5, near, 1.5 + 1j])
        assert limits == [-1.0]
        monkeypatch.undo()
        assert values[1] == rhs_eq15(near)


def grid_matches_verify(entries):
    for entry in entries:
        if isinstance(entry, SkippedPoint):
            continue
        single = verify(entry.id, entry.s, entry.tol)
        assert (entry.evaluations, entry.passed) == (single.evaluations, single.passed)
        assert abs(entry.lhs - single.lhs) <= 1e-13
        assert abs(entry.rhs - single.rhs) <= 1e-13


class TestBatchedSweep:
    # the first Re(s) of eq12's and eq18's sweeps sits within
    # _SUBTRACT_BELOW of the edge, where the batch takes the scalar route
    @pytest.mark.parametrize("token, re_lo", [("eq15", -2.5), ("eq12", -1.95), ("eq18", 0.05)])
    def test_grid_reports_match_verify(self, token, re_lo):
        entries = grid(token, (re_lo, 3.0, 0.35), (0.0, 2.0, 0.65))
        assert sum(isinstance(e, VerificationReport) for e in entries) >= engine._BATCH_MIN_POINTS
        grid_matches_verify(entries)

    def test_registry_points_match_verify(self):
        grid_matches_verify(engine.verify_all({"eq15": 1e-8}))

    def test_grid_point_within_expansion_radius_of_minus_one(self):
        entries = grid("eq15", (-1.00005, 1.2, 0.25), (0.0, 0.0, 1.0))
        assert len(entries) >= engine._BATCH_MIN_POINTS
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
        entries = grid("eq15", (0.0, 1.75, 0.25), (0.0, 0.0, 1.0))
        assert len(entries) == engine._BATCH_MIN_POINTS
        assert sorted(calls) == ["I_plus_many", "rhs_eq15_many"]
        calls.clear()
        verify("eq15", 0.5 + 1j)
        assert sorted(calls) == ["I_plus", "rhs_eq15"]

    @pytest.mark.parametrize("token", sorted(QUADRATURES))
    def test_quadrature_batches_from_the_threshold_on(self, monkeypatch, token):
        single, many, re_lo = QUADRATURES[token]
        calls = []
        for name in (single, many):
            original = getattr(integral_forms, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(integral_forms, name, counting)
        below = grid(token, (re_lo, re_lo + 1.5, 0.25), (0.0, 0.0, 1.0))
        assert len(below) == engine._BATCH_MIN_POINTS - 1
        assert calls == [single] * len(below)
        calls.clear()
        at = grid(token, (re_lo, re_lo + 1.75, 0.25), (0.0, 0.0, 1.0))
        assert len(at) == engine._BATCH_MIN_POINTS
        assert calls == [many]
        grid_matches_verify(below + at)

    def test_sweep_below_the_batch_size_runs_point_by_point(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("batched route called")

        monkeypatch.setattr(integral_forms, "I_plus_many", refuse)
        monkeypatch.setattr(integral_forms, "rhs_eq15_many", refuse)
        entries = grid("eq15", (0.0, 1.5, 0.25), (0.0, 0.0, 1.0))
        assert len(entries) == engine._BATCH_MIN_POINTS - 1
        grid_matches_verify(entries)

    @pytest.mark.parametrize("token", sorted(QUADRATURES))
    def test_failing_batch_gives_the_point_by_point_error(self, monkeypatch, token):
        single_name, many_name, re_lo = QUADRATURES[token]
        ranges = ((re_lo, re_lo + 2.0, 0.25), (0.0, 0.0, 1.0))
        bad = engine._grid_points(*ranges)[3]
        original = getattr(integral_forms, single_name)

        def batch(points, tol):
            raise IntegrandError("batch failed")

        def single(s, tol):
            if s == bad:
                raise IntegrandError(f"failed at s = {s}")
            return original(s, tol)

        monkeypatch.setattr(integral_forms, many_name, batch)
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
