"""Array levels of the batched ladder against the node-by-node walk.

``integrate_semi_infinite_many`` evaluates every refinement level of
many integrals as one array call per side (``_rows_level``).  Every such
level must visit, count and sum the nodes the scalar walk does: same
evaluations and verdicts, values within rounding, and the same rules for
non-finite values and unresolved tails.

Past level 0 a level evaluates each side only as far as its rows reach
(twice the nodes the side summed at the level before, less 1), and
walks the rows with no stop there again over the whole side.  Its
results must be those of evaluating every side whole, to the bit: the
reference below is that whole-side ladder.
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
from eulerlab import identity_engine, integral_forms
from eulerlab.errors import IntegrandError
from eulerlab.integral_forms import (
    I_minus,
)

from conftest import minus_kernel, plus_kernel

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
            return integral_forms._PLUS.rows(params, x)

        batched, = integrate_semi_infinite_many(recording_rows, [s], QUAD_TOL, [s.real + 1.0])
        plain = integrate_semi_infinite(
            functools.partial(plus_kernel, s), QUAD_TOL, s.real + 1.0
        )
        assert max(level_sizes) >= len(core_numerics._nodes(6)[0])
        assert batched.evaluations == plain.evaluations > 0
        assert batched.converged == plain.converged
        assert batched.value == plain.value


class TestSummationOrder:
    @pytest.mark.parametrize("level", [6, 8, 10, 12])
    @pytest.mark.parametrize("params", [[3.0], [3.0, -2.0, 0.5], [0.25 * k - 2.0 for k in range(20)]])
    def test_level_sums_are_the_walks_bit_for_bit(self, level, params):
        # Contributions of about 1e10 cancel between the two sides, so
        # any other order of addition (a pairwise sum) changes the low
        # digits.  The kernel's array form performs the same IEEE
        # operations, so only the order could make a difference.  Blocks
        # of 1, 3 and 20 rows: one row and few accumulate, more reduce.
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
        kernel = functools.partial(minus_kernel, s)
        result = integrate_semi_infinite(kernel, QUAD_TOL, s.real + 1.0)
        T, _, finite_tol = core_numerics._truncation(QUAD_TOL, s.real + 1.0)
        marked = one_row(rows_of(minus_kernel), s, 0.0, T, finite_tol)
        assert not result.converged and not marked.converged
        assert result.evaluations == marked.evaluations
        # a level's side that runs out of nodes while still carrying mass
        # leaves an unresolved tail; the estimate covers the largest
        tail = max(
            core_numerics._walk_level(
                lambda t: minus_kernel(s, t), 0.0, T, level, finite_tol * 1e-3
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


# --- the whole-side ladder, as it was before reach: the reference ---------

def whole_walk_side(f, params, x, w, t, h, thresh, inside):
    n = len(x)
    valid = int(inside.argmin()) if not inside.all() else n
    fx = np.asarray(f(params, x[:valid]), dtype=complex)
    contrib = w[:valid, None] * fx
    mag = np.abs(contrib) * h
    small = (mag < thresh) & (t[:valid, None] >= 1.0)
    pair = small[1:] & small[:-1]
    paired = pair.any(axis=0)
    summed = np.where(paired, pair.argmax(axis=0) + 2, valid)
    kept = np.arange(valid)[:, None] < summed
    bad = kept & ~np.isfinite(fx)
    if bad.any():
        node = int(bad.any(axis=1).argmax())
        raise IntegrandError(f"integrand invalid: non-finite value at x={float(x[node])!r}")
    last = core_numerics._abs(contrib[-1]) * h
    open_rows = ~paired & (valid == n) & (last >= thresh)
    return np.where(kept, contrib, 0.0), summed, np.where(open_rows, last, 0.0)


def whole_rows_level(f, params, a, b, level, thresh):
    h = 0.5 ** level
    halfspan = 0.5 * (b - a)
    delta, weight, t = core_numerics._nodes(level)
    w = halfspan * weight
    x_hi = b - halfspan * delta
    x_lo = a + halfspan * delta
    lo = slice(1 if level == 0 else 0, None)
    inside_hi = (x_hi < b) & (x_hi > a)
    inside_lo = (x_lo > a) & (x_lo < b)
    sums = np.zeros(len(params), dtype=complex)
    counts = np.zeros(len(params), dtype=np.int64)
    tails = np.zeros(len(params))
    block = max(1, core_numerics._BLOCK_ELEMENTS // (2 * len(delta)))
    for start in range(0, len(params), block):
        rows = slice(start, start + block)
        p, th = params[rows], thresh[rows]
        with np.errstate(all="ignore"):
            hi = whole_walk_side(f, p, x_hi, w, t, h, th, inside_hi)
            lo_side = whole_walk_side(f, p, x_lo[lo], w[lo], t[lo], h, th, inside_lo[lo])
        walk = np.zeros((len(delta), 2, len(p)), dtype=complex)
        walk[: len(hi[0]), 0] = hi[0]
        walk[lo.start : lo.start + len(lo_side[0]), 1] = lo_side[0]
        sums[rows] = np.add.accumulate(walk.reshape(-1, len(p)), axis=0)[-1]
        counts[rows] = hi[1] + lo_side[1]
        tails[rows] = np.maximum(hi[2], lo_side[2])
    return sums, counts, tails


def whole_tanh_sinh_rows(f, params, a, b, tols):
    rows = len(params)
    thresh = tols * 1e-3
    total = np.zeros(rows, dtype=complex)
    estimate = np.full(rows, math.inf)
    evals = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    unresolved = np.zeros(rows)
    active = np.arange(rows)
    for level in range(MAX_LEVEL + 1):
        h = 0.5 ** level
        level_sum, counts, tails = whole_rows_level(f, params[active], a, b, level, thresh[active])
        evals[active] += counts
        unresolved[active] = np.maximum(unresolved[active], tails)
        previous = total[active]
        current = level_sum * h if level == 0 else 0.5 * previous + level_sum * h
        total[active] = current
        if level >= 1:
            estimate[active] = core_numerics._abs(current - previous)
            if level >= 2:
                done = (estimate[active] <= tols[active]) & (unresolved[active] == 0.0)
                converged[active[done]] = True
                active = active[~done]
        if not len(active):
            break
    stuck = unresolved > 0.0
    estimate[stuck] = np.maximum(estimate[stuck], unresolved[stuck])
    return total, estimate, evals, converged


def bits(results):
    # every field of each result, floats as their exact hex form
    return [
        (r.value.real.hex(), r.value.imag.hex(), r.abs_error_estimate.hex(),
         r.evaluations, r.converged)
        for r in results
    ]


def reached_and_whole(monkeypatch, rows, params, tol, hints):
    # integrate_semi_infinite_many with reach, and with every side whole
    reached = integrate_semi_infinite_many(rows, params, tol, hints)
    with monkeypatch.context() as patch:
        patch.setattr(core_numerics, "_tanh_sinh_rows", whole_tanh_sinh_rows)
        whole = integrate_semi_infinite_many(rows, params, tol, hints)
    return reached, whole


def batched_points(family, re_range, im_range):
    # the points of a grid that the family's batch takes (see _reduced_many)
    points = identity_engine._grid_points(re_range, im_range)
    return [s for s in points if s.real - family.edge >= integral_forms._SUBTRACT_BELOW]


# grid_eq15's sweep without its seeded shift: 111 x 21 points
BENCHMARK_GRID = ((-2.5, 3.0, 0.05), (0.0, 2.0, 0.1))

# (family, re range, im range, quadrature tolerance) of each grid
GRIDS = {
    "eq15 benchmark": (integral_forms._PLUS, *BENCHMARK_GRID, QUAD_TOL),
    "eq15 benchmark tol 1e-11": (integral_forms._PLUS, *BENCHMARK_GRID, 1e-11),
    "eq15 values to 3e6": (integral_forms._PLUS, (3.0, 9.5, 0.1), (0.0, 3.0, 0.5), QUAD_TOL),
    "eq12 edge to 10": (integral_forms._MINUS, (-1.55, 10.0, 0.05), (0.0, 2.0, 0.25), QUAD_TOL),
    "eq18 edge to 10": (
        integral_forms._FERMI_DIRAC, (0.45, 10.0, 0.05), (0.0, 2.0, 0.25), 1e-10
    ),
}


def _comb() -> np.ndarray:
    # the nodes of levels 0-2 on (0, 50) with t >= 1
    return np.concatenate([
        side[0][side[2] >= 1.0]
        for level in range(3)
        for side in core_numerics._level_sides(level, 0.0, 50.0)
    ])


def _comb_panel():
    # x**p e**-x on (0, 50), 1e-40 times smaller at every node of levels
    # 0-2 with t >= 1, where each side then stops after two such nodes.
    # Level 3's nodes are all between them: a side reaches 7 nodes, and
    # rows stop before, across and past the reach.  The hints, all 0,
    # truncate every row at T = 50.
    comb = _comb()

    def rows(params, x):
        values = np.power.outer(x, params.real) * np.exp(-x)[:, None]
        values[np.isin(x, comb)] *= 1e-40
        return values.astype(complex)

    params = np.linspace(-0.5, 8.0, 46)
    return rows, params, 1e-10, [0.0] * len(params)


class TestReach:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_grid_matches_whole_sides_bit_for_bit(self, monkeypatch, grid):
        family, re_range, im_range, tol = GRIDS[grid]
        points = batched_points(family, re_range, im_range)
        hints = [s.real + family.shift for s in points]
        reached, whole = reached_and_whole(monkeypatch, family.rows, points, tol, hints)
        assert len(points) > 300
        assert bits(reached) == bits(whole)

    def test_grid_is_the_same_at_any_block_size(self, monkeypatch):
        # blocks of 2**11 elements against _BLOCK_ELEMENTS: the block size
        # sets the speed alone
        family = integral_forms._PLUS
        points = batched_points(family, *BENCHMARK_GRID)
        hints = [s.real + family.shift for s in points]
        default = integrate_semi_infinite_many(family.rows, points, QUAD_TOL, hints)
        assert core_numerics._BLOCK_ELEMENTS > 1 << 11
        monkeypatch.setattr(core_numerics, "_BLOCK_ELEMENTS", 1 << 11)
        small = integrate_semi_infinite_many(family.rows, points, QUAD_TOL, hints)
        assert bits(small) == bits(default)

    def test_grid_evaluates_fewer_elements(self, monkeypatch):
        # the benchmark grid: the same summed evaluations from at least 35%
        # fewer integrand elements (nodes x points)
        family = integral_forms._PLUS
        points = batched_points(family, *BENCHMARK_GRID)
        hints = [s.real + family.shift for s in points]
        elements = []

        def counting_rows(params, x):
            elements.append(len(params) * len(x))
            return family.rows(params, x)

        reached = integrate_semi_infinite_many(counting_rows, points, QUAD_TOL, hints)
        reached_elements, elements[:] = sum(elements), []
        with monkeypatch.context() as patch:
            patch.setattr(core_numerics, "_tanh_sinh_rows", whole_tanh_sinh_rows)
            whole = integrate_semi_infinite_many(counting_rows, points, QUAD_TOL, hints)
        assert sum(r.evaluations for r in reached) == sum(r.evaluations for r in whole)
        assert reached_elements <= 0.65 * sum(elements)

    def test_rows_past_their_reach_take_the_second_pass(self, monkeypatch):
        comb_rows, params, tol, hints = _comb_panel()
        walks, block = [], []
        walk_side = core_numerics._walk_side

        def rows(p, x):
            # one call per block, before its sides' walks
            block[:] = p.real.tolist()
            return comb_rows(p, x)

        def recording_walk_side(fx, side, h, thresh, out):
            walked = walk_side(fx, side, h, thresh, out)
            # a side is its level's step and its first node
            walks.append(((h, float(side[0][0])), side[3], len(fx),
                          list(block), walked[0].tolist(), walked[2]))
            return walked

        monkeypatch.setattr(core_numerics, "_walk_side", recording_walk_side)
        reached, whole = reached_and_whole(monkeypatch, rows, params, tol, hints)
        assert bits(reached) == bits(whole)
        # where rows were left open at their reach, the second pass finds
        # some of them stopping by the pair across it (reach - 1, reach)
        # and others later
        opened = {(side, p): reach for side, valid, reach, ps, _, open_rows in walks
                  for p, is_open in zip(ps, open_rows) if is_open}
        again = [summed - opened[side, p] for side, valid, reach, ps, counts, _ in walks
                 if reach == valid for p, summed in zip(ps, counts) if (side, p) in opened]
        assert len(opened) >= 10
        assert 1 in again and max(again) > 1

    def test_negative_zero_parts_match_whole_sides(self, monkeypatch):
        # A reached walk drops the whole walk's trailing +0.0 entries, so a
        # level sum's zero part may keep a sign the whole walk loses; the
        # ladder's totals are +0.0 from level 0 on either way.
        rows, params, tol, hints = _comb_panel()

        def negative_zero_rows(ps, x):
            values = rows(ps, x)
            values.imag = -0.0
            return values

        reached, whole = reached_and_whole(monkeypatch, negative_zero_rows, params, tol, hints)
        assert bits(reached) == bits(whole)
        assert all(r.value.imag.hex() == "0x0.0p+0" for r in reached)

    def test_unconverged_minus_row_matches_whole_sides(self, monkeypatch):
        # the raw minus kernel next to its edge runs out of levels with an
        # unresolved tail, beside rows that converge
        points = [-1.95, -1.5 + 0.5j, 0.5, 3.0 + 1.0j]
        hints = [complex(s).real + 1.0 for s in points]
        reached, whole = reached_and_whole(
            monkeypatch, integral_forms._MINUS.rows, points, QUAD_TOL, hints
        )
        assert not reached[0].converged and all(r.converged for r in reached[1:])
        assert bits(reached) == bits(whole)

    def test_power_rows_past_their_reach_get_their_whole_side_values(self, monkeypatch):
        # The comb panel as a PowerRows form.  Rows with no stop within
        # their reach walk the whole side again, from a table the second
        # pass extends to the side's last node; the whole-side ladder calls
        # the form at every node.
        _, params, tol, hints = _comb_panel()
        comb = set(_comb().tolist())

        def form(x):
            return 0, math.exp(-x), 1e-40 if x in comb else 1.0, 1.0

        rows = core_numerics.PowerRows(form, (0.0,))
        read = []
        row_table = core_numerics._row_table

        def recording_row_table(form, level, a, b, lo, x, n):
            read.append((level, lo, n, core_numerics._level_sides(level, a, b)[lo][3]))
            return row_table(form, level, a, b, lo, x, n)

        monkeypatch.setattr(core_numerics, "_row_table", recording_row_table)
        reached, whole = reached_and_whole(monkeypatch, rows, params, tol, hints)
        assert bits(reached) == bits(whole)
        # a side past level 0 read to its rows' reach, then whole
        assert any(
            level > 0 and n == valid and (level, lo, True) in {(*r[:2], r[2] < valid) for r in read[:i]}
            for i, (level, lo, n, valid) in enumerate(read)
        )
