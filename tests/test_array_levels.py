"""Array levels of the batched ladder against the node-by-node walk.

``integrate_semi_infinite_many`` evaluates every refinement level of
many integrals as one array call per side (``_rows_level``).  Every such
level must visit, count and sum the nodes the scalar walk does: same
evaluations and verdicts, values within rounding, and the same rules for
non-finite values and unresolved tails.
"""

import functools
import math

import numpy as np
import pytest

from eulerlab import core_numerics
from eulerlab.core_numerics import (
    MAX_LEVEL,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
)
from eulerlab.errors import IntegrandError
from eulerlab.integral_forms import (
    I_minus,
    reduced_integrand_minus,
    reduced_integrand_plus,
    reduced_integrand_plus_array,
)

QUAD_TOL = 1e-9  # what the eq12/eq15/eq18 default tolerances ask of their quadrature


def rows_of(scalar):
    # the array form of scalar(p, x), node by node
    def rows(params, x):
        return np.array([[scalar(q, xi) for q in params] for xi in x], dtype=complex)

    return rows


def one_row(rows, p, a, b, tol):
    # the batched ladder of the array form rows on the one row p
    values, estimates, evals, converged = core_numerics._tanh_sinh_rows(
        rows, np.array([p], dtype=complex), a, b, np.array([tol])
    )
    return core_numerics.QuadratureResult(
        complex(values[0]), float(estimates[0]), int(evals[0]), bool(converged[0])
    )


class TestArrayLevels:
    def test_deep_point_takes_array_levels(self):
        # the raw plus kernel next to its edge takes the batched ladder to
        # its deepest levels, as it takes the walk
        s = complex(-3.0 + 0.02, 0.5)
        level_sizes = []

        def recording_rows(params, x):
            level_sizes.append(len(x))
            return reduced_integrand_plus_array(params, x)

        batched, = integrate_semi_infinite_many(recording_rows, [s], QUAD_TOL, [s.real + 1.0])
        plain = integrate_semi_infinite(
            functools.partial(reduced_integrand_plus, s), QUAD_TOL, s.real + 1.0
        )
        assert max(level_sizes) >= len(core_numerics._nodes(6))
        assert batched.evaluations == plain.evaluations > 0
        assert batched.converged == plain.converged
        assert abs(batched.value - plain.value) <= 1e-13


class TestSummationOrder:
    @pytest.mark.parametrize("level", [6, 8, 10, 12])
    @pytest.mark.parametrize("params", [[3.0], [3.0, -2.0, 0.5]])
    def test_level_sums_are_the_walks_bit_for_bit(self, level, params):
        # Contributions of about 1e10 cancel between the two sides, so
        # any other order of addition (a pairwise sum) changes the low
        # digits.  The kernel's array form performs the same IEEE
        # operations, so only the order could make a difference.
        def kernel(p, x):
            return p * (x - 0.5) * 1e10 + 1.0

        def rows(ps, x):
            return (ps.real[None, :] * (x[:, None] - 0.5) * 1e10 + 1.0).astype(complex)

        thresh = np.full(len(params), 1e-15)
        sums, counts, tails = core_numerics._rows_level(
            rows, np.array(params, dtype=complex), 0.0, 1.0, level, thresh
        )
        for i, p in enumerate(params):
            walked = core_numerics._walk_level(lambda x: kernel(p, x), 0.0, 1.0, level, 1e-15)
            assert (sums[i], counts[i], tails[i]) == walked


def _nan_in(lo: float, hi: float):
    # scalar and array forms of x**p e**-x, NaN on the window (lo, hi); on
    # (0, 50) with p = -0.95 the ladder runs to MAX_LEVEL
    def scalar(p, x):
        return math.nan if lo < x < hi else x**p * math.exp(-x)

    def rows(params, x):
        values = np.power.outer(x, params.real) * np.exp(-x)[:, None]
        values[(x > lo) & (x < hi)] = np.nan
        return values.astype(complex)

    return scalar, rows


class TestNonFiniteNodes:
    def test_nan_at_a_summed_node_of_an_array_level_raises(self):
        # (25.1, 25.9) holds no node of levels 0-5; level 6 has its
        # t = 1/64 node there, which every walk sums
        scalar, rows = _nan_in(25.1, 25.9)
        with pytest.raises(IntegrandError):
            integrate_finite(lambda x: scalar(-0.95, x), 0.0, 50.0, 1e-10)
        with pytest.raises(IntegrandError):
            one_row(rows, -0.95, 0.0, 50.0, 1e-10)

    def test_nan_past_the_truncation_is_not_summed(self):
        # The upper side stops after two negligible contributions at
        # t >= 1 (x < 50 - 1e-7); array levels still evaluate the nodes
        # beyond, closer to 50.
        scalar, rows = _nan_in(50.0 - 1e-10, 50.0)
        nan_nodes = []

        def counting_rows(params, x):
            nan_nodes.append(int((x > 50.0 - 1e-10).sum()))
            return rows(params, x)

        marked = one_row(counting_rows, -0.95, 0.0, 50.0, 1e-10)
        plain = integrate_finite(lambda x: scalar(-0.95, x), 0.0, 50.0, 1e-10)
        assert sum(nan_nodes) > 0
        assert marked.evaluations == plain.evaluations
        assert marked.converged == plain.converged
        assert abs(marked.value - plain.value) <= 1e-13


class TestUnresolvedTail:
    def test_minus_kernel_next_to_its_edge_stays_unconverged(self):
        # the ladder on the raw kernel, which I_minus no longer takes there
        s = complex(-1.95)
        kernel = functools.partial(reduced_integrand_minus, s)
        result = integrate_semi_infinite(kernel, QUAD_TOL, s.real + 1.0)
        T, _, finite_tol = core_numerics._truncation(QUAD_TOL, s.real + 1.0)
        marked = one_row(rows_of(reduced_integrand_minus), s, 0.0, T, finite_tol)
        assert not result.converged and not marked.converged
        assert result.evaluations == marked.evaluations
        # a level's side that runs out of nodes while still carrying mass
        # leaves an unresolved tail; the estimate covers the largest
        tail = max(
            core_numerics._walk_level(
                lambda t: reduced_integrand_minus(s, t), 0.0, T, level, finite_tol * 1e-3
            )[2]
            for level in range(MAX_LEVEL + 1)
        )
        assert tail > QUAD_TOL
        assert result.abs_error_estimate >= tail

    def test_tail_found_only_on_array_levels_is_kept(self):
        # x**-0.97 keeps every level's lower side above the threshold down
        # to the last node; the factor 1e6 below x = 1e-276 reaches only
        # the last nodes of levels 6 and deeper, whose tails then exceed
        # every shallower level's
        def kernel(p, x):
            return x**p.real * (1e6 if x < 1e-276 else 1.0)

        def rows(ps, x):
            boost = np.where(x < 1e-276, 1e6, 1.0)[:, None]
            return (np.power.outer(x, ps.real) * boost).astype(complex)

        tails = [
            core_numerics._walk_level(lambda x: kernel(-0.97 + 0j, x), 0.0, 1.0, level, 1e-13)[2]
            for level in range(MAX_LEVEL + 1)
        ]
        assert max(tails[6:]) > 10.0 * max(tails[:6])
        marked = one_row(rows, -0.97, 0.0, 1.0, 1e-10)
        plain = integrate_finite(lambda x: kernel(-0.97 + 0j, x), 0.0, 1.0, 1e-10)
        assert not marked.converged and not plain.converged
        assert marked.evaluations == plain.evaluations
        assert marked.abs_error_estimate >= max(tails)
        assert marked.abs_error_estimate == pytest.approx(plain.abs_error_estimate, rel=1e-12)

    def test_minus_kernel_next_to_its_edge_converges_by_subtraction(self):
        mpmath = pytest.importorskip("mpmath")
        result = I_minus(-1.95, QUAD_TOL)
        z = mpmath.mpf(-1.95)
        exact = mpmath.gamma(z + 2) * (mpmath.zeta(z + 2) - 1 / (z + 1))
        assert result.converged
        assert result.evaluations < 1000
        assert abs(result.value - complex(exact)) <= QUAD_TOL
