"""Quadrature primitives with explicit error control.

All routines are pure functions of their arguments and are safe to call
concurrently.  Finite intervals are handled by tanh-sinh (double
exponential) quadrature, which tolerates integrable endpoint
singularities (powers of logarithms, algebraic blow-up with exponent
above -1).  Semi-infinite integrals of exponentially decaying integrands
are truncated at an analytically bounded tail.  Non-convergence is
reported in the result, never raised.

Both ladders read a level's nodes, weights and stopping index from one
cache (``_level_sides``).  ``integrate_finite`` walks each level node by
node, one side after the other.  A ``PowerKernel``, x**e_k times factors
free of its parameter, is formed at each node by one expression, its
factors read from a bounded cache of tables (one per level and interval)
up to level 5 and computed at the node past it.  Many integrals of one
family (``integrate_semi_infinite_many``) take every level as points x
nodes arrays, with the walk's evaluations, truncation, order of addition
and verdict, so rows of the walk's integrand values give its results to
the bit.  ``PowerRows``, the PowerKernels of a family
as rows, read the same factors from tables of their own, built by the
same function over the nodes a sweep reaches, and form a block's powers
from its distinct real and imaginary parts.  Past level 0 a side reaches
twice the nodes it summed the level before, less one, and rows with no
stop there walk it again, whole.  It truncates once per distinct decay
hint and adds the tail bounds to its result arrays, so each row's
result, tail included, is built once.  An endpoint singularity whose
exponent is close to -1 exhausts the ladder; callers that know its
leading power subtract it and pass the regular remainder on (0, 1) as
``integrate_semi_infinite``'s ``near``.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from itertools import chain, repeat, zip_longest
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, IntegrandError

Integrand = Callable[[float], complex]
# f(params, x) -> the (len(x), len(params)) values of one integrand per
# parameter, at the nodes x shared by every row.
RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

MAX_LEVEL = 12          # finest trapezoid step in the transformed variable is 2**-12
_T_CAP = 6.3            # node offsets underflow beyond |t| ~ 6.2
_HALF_PI = math.pi / 2.0


def _dict_init(cls):
    # cls, a frozen dataclass without defaults, with an __init__ that fills
    # __dict__ in one update; dataclass's sets each field through
    # object.__setattr__ (QuadratureResult 0.87 against 0.60 us a record,
    # VerificationReport 2.3 against 1.1 us).  Made from source text, as
    # dataclasses makes its __init__.
    names = [field.name for field in dataclasses.fields(cls)]
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    self.__dict__.update({', '.join(f'{n}={n}' for n in names)})", namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = namespace["__init__"]
    return cls


@_dict_init
@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a numerical integration.

    ``converged`` guarantees ``abs_error_estimate <= tol`` for the
    tolerance the producing call received.
    """

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


# --------------------------------------------------------------------------
# tanh-sinh node tables
#
# Canonical nodes for the map x = mid + halfspan * tanh((pi/2) sinh t).
# For t > 0 we store the offset from the endpoint, delta = 1 - tanh(u),
# computed as 2 e^(-2u) / (1 + e^(-2u)) so that nodes retain full
# relative accuracy arbitrarily close to the endpoints, and the weight
# (pi/2) cosh(t) / cosh(u)^2 = (pi/2) cosh(t) delta (2 - delta).
# Level 0 uses step h=1 and stores k = 0, 1, 2, ...; level L >= 1 uses
# step 2**-L and stores odd k only (the even nodes are reused).
# Each level's table is built on first use and cached.
# --------------------------------------------------------------------------

# Offsets below this floor are dropped: they would push algebraic
# endpoint singularities with exponents near -1 into overflow while
# carrying weights ~1e-276.  Truncating here can only matter for
# exponents within ~0.1 of -1, and that case is detected by the
# unresolved-tail accounting in integrate_finite.
_DELTA_FLOOR = 1e-280


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (delta, weight, t) of the level's nodes, as arrays
    h = 0.5 ** level
    ks = range(0, int(_T_CAP / h) + 1) if level == 0 else range(1, int(_T_CAP / h) + 1, 2)
    deltas, weights, ts = [], [], []
    for k in ks:
        t = k * h
        u = _HALF_PI * math.sinh(t)
        s2 = math.exp(-2.0 * u)
        delta = 2.0 * s2 / (1.0 + s2)
        if delta < _DELTA_FLOOR:
            break
        deltas.append(delta)
        weights.append(_HALF_PI * math.cosh(t) * delta * (2.0 - delta))
        ts.append(t)
    return np.array(deltas), np.array(weights), np.array(ts)


class PowerKernel(NamedTuple):
    """x -> x**exponents[k] * f1 * f2 / d for x > 0, where (k, f1, f2, d) = form(x).

    integrate_finite forms it at each node by one expression (``_walk_level``).
    form does not depend on the parameter s of the exponents s + c_k, and
    must not raise for any x > 0: integrate_finite tabulates it.
    """

    form: Callable[[float], tuple]
    exponents: tuple[complex, ...]


class PowerRows(NamedTuple):
    """The RowIntegrand of PowerKernel(form, s + offsets) at each parameter s.

    Called as f(params, x) it evaluates form at x; the batched ladder
    reads the factors from tables instead (``_row_table``).
    """

    form: Callable[[float], tuple]
    offsets: tuple[float, ...]

    def __call__(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.values(s, x, _factor_array(self.form, x.tolist()))

    def values(self, s: np.ndarray, x: np.ndarray, factors: np.ndarray) -> np.ndarray:
        # The kernel at every (x[i], s[j]) from the factors (log x, k, f1, f2, d)
        # at each node, with the node walk's operations, so every value equals
        # the walk's (but for the sign of a zero part, which no ladder sum
        # keeps): float_power is the C library's pow, as float ** is.
        logs, k, f1, f2, d = factors
        e = np.array(self.offsets)[k.astype(np.intp)]  # each node's exponent offset
        values = _complex_powers(s, e, logs)
        real = s.imag == 0.0
        if real.any():
            values[:, real] = np.float_power(x[:, None], s.real[real] + e[:, None])
        # times f1, times f2, over d, each part on its own, as a complex-by-real
        # product and quotient take them
        parts = values.view(float).reshape(*values.shape, 2)
        parts *= f1[:, None, None]
        parts *= f2[:, None, None]
        parts /= d[:, None, None]
        return values


# Rows from which a block's complex powers may be formed from its distinct
# real and imaginary parts (_complex_powers); sorting out the parts of fewer
# costs more than it can save.  Past CPython's CM_LOG_LARGE_DOUBLE,
# log(DBL_MAX / 4), cmath.exp takes exp(Re - 1) and scales both parts by e.
_FACTOR_MIN_ROWS, _LOG_LARGE_DOUBLE = 64, math.log(np.finfo(float).max / 4.0)


def _complex_powers(s: np.ndarray, e: np.ndarray, logs: np.ndarray) -> np.ndarray:
    # exp((s + e) log x) at each node's (e, log x) for each complex s, rounded
    # as cmath.exp rounds it.  Up to a real part of 708 numpy's complex exp,
    # the C library's cexp, is exp(Re) times cos(Im) and sin(Im) part by part;
    # from the complex exp of a zero-imaginary argument and of a zero-real one
    # these are its exp and sincos.  So where a block's rows share few distinct
    # parts, each factor is taken once per node and distinct part.
    if len(s) >= _FACTOR_MIN_ROWS:
        re, re_at = np.unique(s.real, return_inverse=True)
        im, im_at = np.unique(s.imag, return_inverse=True)
        if 2 * (len(re) + len(im)) <= len(s):
            scale = np.zeros((len(logs), len(re)), dtype=complex)
            np.multiply(re + e[:, None], logs[:, None], out=scale.real)
            if scale.real.max(initial=-math.inf) <= 708.0:
                scale = np.take(np.exp(scale, out=scale).real, re_at, axis=1)
                phase = np.zeros((len(logs), len(im)), dtype=complex)
                np.multiply(im, logs[:, None], out=phase.imag)
                values = np.take(np.exp(phase, out=phase), im_at, axis=1)
                values.real *= scale
                values.imag *= scale
                return values
    values = s + e[:, None]
    values *= logs[:, None]
    large = values.real > _LOG_LARGE_DOUBLE
    values.real[large] -= 1.0
    np.exp(values, out=values)
    values.view(float).reshape(*values.shape, 2)[large] *= math.e
    return values


def _factors(form, xs: list[float]):
    # (log x, k, f1, f2, d) at each x in turn, with math: the kernel factors of both ladders
    return ((math.log(x), *form(x)) for x in xs)


def _factor_array(form, xs: list[float]) -> np.ndarray:
    # _factors at xs as a (5, len(xs)) array
    flat = np.fromiter(chain.from_iterable(_factors(form, xs)), float, 5 * len(xs))
    return flat.reshape(-1, 5).T


def _store(tables: dict, key, table, size: Callable, cap: int) -> None:
    # tables[key] = table, the newest; the oldest go while the held sizes pass cap
    tables.pop(key, None)
    tables[key] = table
    held = sum(map(size, list(tables.values())))
    for old in list(tables):  # a snapshot: another thread may insert meanwhile
        if held <= cap:
            break
        gone = tables.pop(old, None)
        held -= 0 if gone is None else size(gone)


@functools.lru_cache(maxsize=2 * (MAX_LEVEL + 1))
def _level_sides(level: int, a: float, b: float) -> tuple[tuple, tuple]:
    # (nodes, weights, t, valid, walk) of the hi and lo side of a level on (a, b):
    # arrays whose first valid nodes lie inside, and the lists of those nodes,
    # weights and t for the node walk, which would take 15% longer converting
    # them per call; the cache holds two ladders
    halfspan = 0.5 * (b - a)
    delta, weight, t = _nodes(level)
    w = halfspan * weight
    x_hi = b - halfspan * delta
    # Level 0's first node (t = 0) is the midpoint, visited once.
    lo = 1 if level == 0 else 0
    x_lo = (a + halfspan * delta)[lo:]
    valid = [int(inside.argmin()) if not inside.all() else len(inside)
             for inside in ((x_hi < b) & (x_hi > a), (x_lo > a) & (x_lo < b))]
    return tuple((xs, ws, ts, n, [v[:n].tolist() for v in (xs, ws, ts)])
                 for xs, ws, ts, n in ((x_hi, w, t, valid[0]), (x_lo, w[lo:], t[lo:], valid[1])))


# (form, level <= 5, where registry and near-edge ladders end, a, b) -> per side,
# (log x, k, f1, f2, d) at the nodes inside (a, b).  The oldest go past 2,560
# nodes, 0.16 KB each (``eulerlab all`` and edge verifies hold 1,941).
_TABLE_LEVELS, _TABLE_NODES, _tables = 5, 2560, {}


def _table(form, level: int, a: float, b: float) -> tuple[list, list]:
    table = _tables.get(key := (form, level, a, b))
    if table is None:  # built whole before a concurrent caller can see it
        table = tuple(list(_factors(form, walk[0])) for *_, walk in _level_sides(level, a, b))
        _store(_tables, key, table, lambda sides: sum(map(len, sides)), _TABLE_NODES)
    return table


def _walk_level(
    f: Integrand, a: float, b: float, level: int, thresh: float
) -> tuple[complex, int, float]:
    """One ladder level walked node by node, the hi side first.

    Each side stops before its first node outside the interval, or
    after the second of two consecutive contributions below thresh at
    t >= 1.  Returns (level sum, nodes summed, unresolved tail): the
    tail is the last contribution (times h) of a side that ran out of
    nodes while still above thresh (an endpoint singularity too strong
    for the node range, so the sum misses real mass), else 0.  A
    PowerKernel's factors come from _table up to _TABLE_LEVELS, and from
    its form at the node past it.
    """
    h = 0.5 ** level
    kernel = isinstance(f, PowerKernel)
    if kernel:
        tables = _table(f.form, level, a, b) if level <= _TABLE_LEVELS else None
        e, exp = f.exponents, cmath.exp
        real = e[0].imag == 0.0
        e = [p.real for p in e] if real else e
    walked, tail, inf = [], 0.0, math.inf
    for lo, (nodes, _, _, _, (xs, ws, ts)) in enumerate(_level_sides(level, a, b)):
        factors = repeat(None)
        if kernel:
            factors = tables[lo] if tables else _factors(f.form, xs)
        contribs, small, last = [], 0, 0.0
        for x, w, t, entry in zip(xs, ws, ts, factors):
            if entry is None:
                fx = f(x)
            else:
                lx, k, f1, f2, d = entry
                fx = (x ** e[k] if real else exp(e[k] * lx)) * f1 * f2 / d
            contrib = w * fx
            last = abs(contrib) * h
            if not last < inf and not cmath.isfinite(fx):  # else w * fx overflowed
                raise IntegrandError(f"integrand invalid: non-finite value at x={x!r}")
            contribs.append(contrib)
            if last < thresh and t >= 1.0:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        else:  # no stop: the side's nodes inside (a, b) ran out
            if len(contribs) == len(nodes) and last >= thresh:
                tail = max(tail, last)
        walked.append(contribs)
    # Add in the order of the nodes, hi before lo (level 0's midpoint is
    # hi's alone); adding 0.0 leaves a sum that starts at +0 unchanged.
    hi, lo = walked
    level_sum = 0.0 + 0.0j
    for c_hi, c_lo in zip_longest(hi, lo if level else [0.0, *lo], fillvalue=0.0):
        level_sum += c_hi
        level_sum += c_lo
    return level_sum, len(hi) + len(lo), tail


# Nodes x rows of a block of the batched ladder: _BLOCK_ELEMENTS // (2 r)
# rows, where r is the most nodes a side of them reaches (past level 0,
# 2 c - 1 for c summed at the level before: each level halves the step).
# Each complex working array stays at 512 KB or less, one row's whole
# sides at level 12 included.  No result depends on it.  Against 2**13, the
# eq15, eq12 and eq18 sweeps of scripts/sweep_cost.py took 1.04-1.39 of the
# time at 2**11, and 0.88-1.03 at 2**14 to 2**16 in 21 alternating rounds,
# which do not order those three.
_BLOCK_ELEMENTS = 1 << 15


def _abs(z: np.ndarray) -> np.ndarray:
    # abs() of each element, the C library's hypot of its parts; numpy's
    # complex abs, 8x faster, can differ from it in the last bit
    return np.hypot(z.real, z.imag)


# (form, level, a, b, side) -> the factors (log x, k, f1, f2, d) of PowerRows at
# the first nodes of a side of the batched ladder, as far as its rows have
# reached, as a (5, nodes) array.  The oldest go past 2**16 nodes, 40 B each:
# the 111 x 21 eq15 sweep reaches 183, a ladder to level 12 about 11,000.
_ROW_TABLE_NODES, _row_tables = 1 << 16, {}


def _row_table(form, level: int, a: float, b: float, lo: int, x: np.ndarray, n: int):
    # the factors at x[:n] (or more), the nodes of the side
    table = _row_tables.get(key := (form, level, a, b, lo), np.empty((5, 0)))
    if (have := table.shape[1]) < n:  # extended whole before a concurrent caller can see it
        table = np.concatenate((table, _factor_array(form, x[have:n].tolist())), axis=1)
        _store(_row_tables, key, table, lambda factors: factors.shape[1], _ROW_TABLE_NODES)
    return table


def _walk_side(
    fx: np.ndarray, side: tuple, h: float, thresh: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A side's first reach (2 <= reach <= valid) nodes for a block of rows.

    fx holds the rows' integrand values at the reach nodes.  Mirrors the
    per-side walk of _walk_level: a side stops before its first node
    outside the interval, or after the second of two consecutive
    contributions below thresh at t >= 1.  Writes the contributions to
    out, zero past each row's stop, and returns the count of summed
    nodes, the unresolved tail (the last contribution (times h) of a row
    that ran out of nodes while still above thresh, else 0) and the rows
    left open: no stop within reach < valid.  The tail is abs()'s
    magnitude (_abs).  The stop test takes numpy's, so a stop could move
    only for a contribution within an ulp of thresh.
    """
    x, w, t, valid, _ = side
    reach = len(fx)
    contrib = np.multiply(w[:reach, None], fx, out=out)
    mag = np.abs(contrib) * h
    small = (mag < thresh) & (t[:reach, None] >= 1.0)
    pair = small[1:] & small[:-1]
    paired = pair.any(axis=0)
    summed = np.where(paired, pair.argmax(axis=0) + 2, reach)
    last = _abs(contrib[-1]) * h
    tail = np.where(~paired & (reach == len(x)) & (last >= thresh), last, 0.0)
    np.copyto(contrib, 0.0, where=np.arange(reach)[:, None] >= summed)
    return summed, tail, ~paired & (reach < valid)


def _check_finite(x: np.ndarray, fx: np.ndarray, summed: np.ndarray) -> None:
    # IntegrandError at the first node x with a non-finite value a row summed
    bad = (np.arange(len(fx))[:, None] < summed) & ~np.isfinite(fx)
    if bad.any():
        node = int(bad.any(axis=1).argmax())
        raise IntegrandError(f"integrand invalid: non-finite value at x={float(x[node])!r}")


def _blocks(reach: np.ndarray | None, rows: np.ndarray, valid: list[int]):
    # (rows, hi reach, lo reach) of each block of a level: whole sides
    # without reach, else the rows in order of reach where there is more
    # than one block
    tops = valid if reach is None else reach.max(axis=1).tolist()
    step = max(1, _BLOCK_ELEMENTS // (2 * max(tops)))
    if reach is None or step >= len(rows):
        for start in range(0, len(rows), step):
            yield rows[start : start + step], *tops
        return
    need = reach.max(axis=0)
    order = np.argsort(-need)
    start = 0
    while start < len(order):
        block = order[start : start + max(1, _BLOCK_ELEMENTS // (2 * int(need[order[start]])))]
        start += len(block)
        yield rows[block], *reach[:, block].max(axis=1).tolist()


def _rows_level(
    f: RowIntegrand,
    params: np.ndarray,
    a: float,
    b: float,
    level: int,
    thresh: np.ndarray,
    sides: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ladder level for every row of params, as arrays.

    Evaluates the nodes of each side for a block of rows in one call of
    f, applies _walk_level's per-side truncation with array operations
    (_walk_side), so a row sums and counts exactly the nodes the
    node-by-node walk visits, adds them in the same order, and raises
    IntegrandError only for a non-finite value at one of them.  sides,
    if given, holds each row's nodes summed per side (hi, lo) at the
    level before, which set its reach, and gets this level's.  Returns
    arrays (level sums, nodes summed, unresolved tails).
    """
    h = 0.5 ** level
    walks = _level_sides(level, a, b)
    lo = 1 if level == 0 else 0
    valid = [walks[0][3], walks[1][3]]
    rows = np.arange(len(params))
    reach = (np.minimum(2 * sides - 1, np.array(valid)[:, None])
             if sides is not None and level > 0 else None)
    sums, tails = np.zeros(len(rows), dtype=complex), np.zeros(len(rows))
    counts = np.zeros((2, len(rows)), dtype=np.int64) if sides is None else sides
    while len(rows):
        tops = valid if reach is None else reach.max(axis=1).tolist()
        tables = [
            _row_table(f.form, level, a, b, i, walk[0], top)
            for i, (walk, top) in enumerate(zip(walks, tops))
        ] if isinstance(f, PowerRows) else None
        open_rows = []
        for block, r_hi, r_lo in _blocks(reach, rows, valid):
            p, th = params[block], thresh[block]
            # Both sides' nodes in one evaluation, hi's first.
            x = np.concatenate((walks[0][0][:r_hi], walks[1][0][:r_lo]))
            # The walk's order: hi_i then lo_i, node by node.
            walk = np.zeros((max(r_hi, lo + r_lo), 2, len(p)), dtype=complex)
            with np.errstate(all="ignore"):
                if tables is None:
                    fx = np.asarray(f(p, x), dtype=complex)
                else:
                    fx = f.values(p, x, np.concatenate(
                        (tables[0][:, :r_hi], tables[1][:, :r_lo]), axis=1))
                hi = _walk_side(fx[:r_hi], walks[0], h, th, walk[:r_hi, 0])
                lo_side = _walk_side(fx[r_hi:], walks[1], h, th, walk[lo : lo + r_lo, 1])
            # numpy sums along the slow axis of an array one row after the
            # other, as the walk adds, and only along the fast axis pairwise:
            # so by a reduction, and for fewer than 8 rows, where a reduction
            # is slower (and one row's runs along the fast axis), by an
            # accumulation, which adds sequentially for any number of rows.
            flat = walk.reshape(-1, len(p))
            sums[block] = (np.add.reduce(flat, axis=0) if len(p) >= 8
                           else np.add.accumulate(flat, axis=0)[-1])
            # A non-finite summed value makes its row's sum non-finite.
            if not np.isfinite(sums[block]).all():
                _check_finite(walks[0][0], fx[:r_hi], hi[0])
                _check_finite(walks[1][0], fx[r_hi:], lo_side[0])
            counts[0, block], counts[1, block] = hi[0], lo_side[0]
            tails[block] = np.maximum(hi[1], lo_side[1])
            open_rows.append(block[hi[2] | lo_side[2]])
        # The second pass walks the rows left open whole.
        rows, reach = np.concatenate(open_rows), None
    return sums, counts[0] + counts[1], tails


def _tanh_sinh_rows(
    f: RowIntegrand, params: np.ndarray, a: float, b: float, tols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ladder of integrate_finite for many integrands over one interval.

    Row i integrates ``f(params[i], .)`` to ``tols[i]``; every level is
    one _rows_level call for the active rows.  Converged rows leave the
    ladder.  Returns arrays (values, error estimates, evaluations,
    converged).
    """
    rows = len(params)
    thresh = tols * 1e-3
    total = np.zeros(rows, dtype=complex)
    estimate = np.full(rows, math.inf)
    evals = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    unresolved = np.zeros(rows)
    active = np.arange(rows)
    sides = np.zeros((2, rows), dtype=np.int64)  # per active row, see _rows_level
    for level in range(MAX_LEVEL + 1):
        h = 0.5 ** level
        level_sum, counts, tails = _rows_level(
            f, params[active], a, b, level, thresh[active], sides
        )
        evals[active] += counts
        unresolved[active] = np.maximum(unresolved[active], tails)
        previous = total[active]
        current = level_sum * h if level == 0 else 0.5 * previous + level_sum * h
        total[active] = current
        if level >= 1:
            estimate[active] = _abs(current - previous)
            if level >= 2:
                done = (estimate[active] <= tols[active]) & (unresolved[active] == 0.0)
                converged[active[done]] = True
                active = active[~done]
                sides = sides[:, ~done]
        if not len(active):
            break
    stuck = unresolved > 0.0
    estimate[stuck] = np.maximum(estimate[stuck], unresolved[stuck])
    return total, estimate, evals, converged


def integrate_finite(f: Integrand, a: float, b: float, tol: float) -> QuadratureResult:
    """Integrate f over the open interval (a, b) by tanh-sinh quadrature.

    Endpoint singularities that are integrable (log powers, algebraic
    with exponent > -1) are handled by the double-exponential node
    clustering; f is never evaluated at a or b.  ``converged`` means two
    successive levels (from level 2 on) differed by at most tol, the
    error estimate.  A NaN or infinity from f raises IntegrandError;
    running out of levels returns ``converged=False`` with the last
    difference, raised to the largest unresolved tail.
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got ({a}, {b})")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    # Contributions below this are treated as tail and truncate the node walk.
    thresh = tol * 1e-3
    evals = 0
    total = 0.0 + 0.0j
    estimate = math.inf
    # Largest unresolved tail of any level; a sum that misses real mass
    # must not converge.
    unresolved = 0.0
    for level in range(MAX_LEVEL + 1):
        h = 0.5 ** level
        level_sum, level_evals, tail = _walk_level(f, a, b, level, thresh)
        evals += level_evals
        unresolved = max(unresolved, tail)
        previous = total
        total = level_sum * h if level == 0 else 0.5 * total + level_sum * h
        if level >= 1:
            estimate = abs(total - previous)
            if level >= 2 and estimate <= tol and unresolved == 0.0:
                return QuadratureResult(total, estimate, evals, True)
    return QuadratureResult(total, max(estimate, unresolved), evals, False)


def _tail_bound(T: float, p: float) -> float:
    # Bound on the tail of integrands decaying like e^(-t) t^p; e^-T T^(p+1)
    # goes through log space from T = 708, where e^-T leaves the normal range.
    power = T ** (p + 1.0)  # OverflowError where this overflows
    scale = math.exp(-T) * power if T < 708.0 else math.exp((p + 1.0) * math.log(T) - T)
    return scale * (1.0 + (p + 1.0) / T)


def _truncation(tol: float, p: float) -> tuple[float, float, float]:
    # (T, tail bound beyond T, tolerance left for the finite part (0, T))
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    T = 50.0
    try:
        while _tail_bound(T, p) >= 0.1 * tol and T < 1000.0:
            T += 10.0
        tail = _tail_bound(T, p)
    except OverflowError:
        raise DomainError(f"tail bound overflows for decay exponent {p!r}") from None
    return T, tail, tol - tail if tol > tail else tol


def _with_tail(estimate, converged, tail, tol):
    # (error estimate, verdict) over (0, inf) from those over (0, T) and the
    # tail bound beyond T: floats, or arrays of rows
    return estimate + tail, converged & (tail < 0.1 * tol)


def integrate_semi_infinite(
    f: Integrand, tol: float, decay_exponent_hint: float, near: Integrand | None = None
) -> QuadratureResult:
    """Integrate f over (0, inf) assuming f decays like e^(-t) t^p.

    The interval is truncated at the first T >= 50 where the analytic
    tail bound e^(-T) T^(p+1) (1 + (p+1)/T) clears tol/10; the bound is
    folded into the reported error estimate.  An integrable singularity
    at 0 is allowed.  Given near, the integral is near's over (0, 1) plus
    f's over (1, T), the two sharing the tolerance left for (0, T)
    equally, so the summed estimate meets it exactly when both converge:
    for an integrand whose singular part at 0 the caller has subtracted
    from near and integrated in closed form.  A decay exponent so large
    that the tail bound overflows double precision raises DomainError.
    """
    T, tail, finite_tol = _truncation(tol, decay_exponent_hint)
    if near is None:
        finite = integrate_finite(f, 0.0, T, finite_tol)
    else:
        parts = (integrate_finite(near, 0.0, 1.0, 0.5 * finite_tol),
                 integrate_finite(f, 1.0, T, 0.5 * finite_tol))
        finite = QuadratureResult(
            sum(p.value for p in parts), sum(p.abs_error_estimate for p in parts),
            sum(p.evaluations for p in parts), all(p.converged for p in parts))
    estimate, converged = _with_tail(finite.abs_error_estimate, finite.converged, tail, tol)
    return QuadratureResult(finite.value, estimate, finite.evaluations, converged)


def integrate_semi_infinite_many(
    f: RowIntegrand,
    params: Sequence[complex],
    tol: float,
    decay_exponent_hints: Sequence[float],
) -> list[QuadratureResult]:
    """``integrate_semi_infinite`` of one integrand family at many parameters.

    ``f(params, x)`` returns the (len(x), len(params)) values of the
    integrand for each parameter at the nodes x.  Row i of the result is
    the integral for ``params[i]`` with ``decay_exponent_hints[i]``;
    every row follows the single-integral ladder's rules and order of
    addition, so where f gives the single integrand's values bit for
    bit, it is ``integrate_semi_infinite``'s result to the bit (unless a
    contribution lies within an ulp of the stop threshold), and it
    raises the same errors.  Rows are refined together, in blocks of at
    most _BLOCK_ELEMENTS nodes x rows, so memory stays bounded at any
    refinement level.  The truncation runs once per distinct hint, and
    each row's result carries its tail bound.
    """
    params = np.asarray(params, dtype=complex)
    hints = list(decay_exponent_hints)
    # One truncation per distinct hint, in the order the hints come, so the
    # first hint to fail raises.  A NaN hint, equal to nothing, is found
    # again by identity in the list.
    index = {p: i for i, p in enumerate(dict.fromkeys(hints))}
    cuts = np.array([_truncation(tol, p) for p in index]).reshape(-1, 3)
    if len(hints) != len(params):
        raise ValueError("need one decay exponent hint per parameter")
    T, tail, finite_tol = cuts[[index[p] for p in hints]].T
    values = np.empty(len(params), dtype=complex)
    estimates, evals = np.empty(len(params)), np.empty(len(params), dtype=np.int64)
    converged = np.empty(len(params), dtype=bool)
    # Rows with the same truncation point share their nodes.
    for t in sorted(set(cuts[:, 0].tolist())):
        rows = T == t
        values[rows], estimates[rows], evals[rows], converged[rows] = _tanh_sinh_rows(
            f, params[rows], 0.0, t, finite_tol[rows]
        )
    estimates, converged = _with_tail(estimates, converged, tail, tol)
    return list(map(QuadratureResult, values.tolist(), estimates.tolist(),
                    evals.tolist(), converged.tolist()))

