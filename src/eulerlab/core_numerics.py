"""Quadrature and series-summation primitives with explicit error control.

All routines are pure functions of their arguments and are safe to call
concurrently.  Finite intervals are handled by tanh-sinh (double
exponential) quadrature, which tolerates integrable endpoint
singularities (powers of logarithms, algebraic blow-up with exponent
above -1).  Semi-infinite integrals of exponentially decaying integrands
are truncated at an analytically bounded tail.  Non-convergence is
reported in the result, never raised.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, IntegrandError

Integrand = Callable[[float], complex]

MAX_LEVEL = 12          # finest trapezoid step in the transformed variable is 2**-12
_T_CAP = 6.3            # node offsets underflow beyond |t| ~ 6.2
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a numerical integration.

    ``converged`` guarantees ``abs_error_estimate <= tol`` for the
    tolerance the producing call received.
    """

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of a series with the best available remainder bound.

    ``remainder_bound`` is the magnitude of the first omitted term for
    alternating series with decreasing terms, and ``None`` (unknown)
    otherwise.  ``converged`` is False when the term cap was reached
    before the tolerance.
    """

    value: complex
    terms_used: int
    remainder_bound: float | None
    converged: bool


class ProductIntegrand:
    """A unit-square integrand of the form f(x, y) = g(x*y).

    Integrands carrying this marker collapse exactly to a single
    integral: the double integral of g(x*y) over the open unit square
    equals the integral of g(u) * (-ln u) over (0, 1).
    """

    def __init__(self, g: Callable[[float], complex]):
        self.g = g

    def __call__(self, x: float, y: float) -> complex:
        return self.g(x * y)


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
# unresolved-tail accounting in _tanh_sinh.
_DELTA_FLOOR = 1e-280


@functools.cache
def _nodes(level: int) -> tuple[tuple[float, float], ...]:
    h = 0.5 ** level
    ks = range(0, int(_T_CAP / h) + 1) if level == 0 else range(1, int(_T_CAP / h) + 1, 2)
    nodes = []
    for k in ks:
        t = k * h
        u = _HALF_PI * math.sinh(t)
        s2 = math.exp(-2.0 * u)
        delta = 2.0 * s2 / (1.0 + s2)
        if delta < _DELTA_FLOOR:
            break
        weight = _HALF_PI * math.cosh(t) * delta * (2.0 - delta)
        nodes.append((delta, weight))
    return tuple(nodes)


def _check_finite(fx: complex, x: float) -> complex:
    z = complex(fx)
    if math.isfinite(z.real) and math.isfinite(z.imag):
        return fx
    raise IntegrandError(f"integrand invalid: non-finite value at x={x!r}")


def _tanh_sinh(
    f: Integrand,
    a: float,
    b: float,
    tol: float,
    max_level: int = MAX_LEVEL,
) -> tuple[complex, list[float], int, bool]:
    """Refine the tanh-sinh trapezoid sum until two levels agree within tol.

    Returns (value, per-level error estimates, evaluations, converged).
    The estimate at level L is |S_L - S_(L-1)|.
    """
    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # Contributions below this are treated as tail and truncate the node walk.
    thresh = tol * 1e-3
    evals = 0
    total = 0.0 + 0.0j
    estimates: list[float] = []
    converged = False
    # Set when a side runs out of nodes while its contributions are still
    # above the tail threshold (endpoint singularity too strong for the
    # node range); the sum then misses real mass and must not converge.
    unresolved = 0.0

    for level in range(max_level + 1):
        h = 0.5 ** level
        level_sum = 0.0 + 0.0j
        lo_done = hi_done = False
        lo_small = hi_small = 0
        lo_last = hi_last = 0.0
        for i, (delta, weight) in enumerate(_nodes(level)):
            t = (i if level == 0 else 2 * i + 1) * h
            w = halfspan * weight
            if not hi_done:
                x = b - halfspan * delta
                if x >= b or x <= a:
                    hi_done = True
                else:
                    contrib = w * _check_finite(f(x), x)
                    evals += 1
                    level_sum += contrib
                    hi_last = abs(contrib) * h
                    if hi_last < thresh and t >= 1.0:
                        hi_small += 1
                        if hi_small >= 2:
                            hi_done = True
                    else:
                        hi_small = 0
            if t > 0.0 and not lo_done:
                x = a + halfspan * delta
                if x <= a or x >= b:
                    lo_done = True
                else:
                    contrib = w * _check_finite(f(x), x)
                    evals += 1
                    level_sum += contrib
                    lo_last = abs(contrib) * h
                    if lo_last < thresh and t >= 1.0:
                        lo_small += 1
                        if lo_small >= 2:
                            lo_done = True
                    else:
                        lo_small = 0
            if lo_done and hi_done:
                break
        if not hi_done and hi_last >= thresh:
            unresolved = max(unresolved, hi_last)
        if not lo_done and lo_last >= thresh:
            unresolved = max(unresolved, lo_last)
        previous = total
        total = level_sum * h if level == 0 else 0.5 * total + level_sum * h
        if level >= 1:
            estimates.append(abs(total - previous))
            if level >= 2 and estimates[-1] <= tol and unresolved == 0.0:
                converged = True
                break
    if unresolved > 0.0 and estimates:
        estimates[-1] = max(estimates[-1], unresolved)
    return total, estimates, evals, converged


def integrate_finite(f: Integrand, a: float, b: float, tol: float) -> QuadratureResult:
    """Integrate f over the open interval (a, b) by tanh-sinh quadrature.

    Endpoint singularities that are integrable (log powers, algebraic
    with exponent > -1) are handled by the double-exponential node
    clustering; f is never evaluated at a or b.  ``converged`` means two
    successive refinement levels differed by at most tol.  A NaN or
    infinity from f raises IntegrandError; running out of refinement
    levels does not raise, it returns ``converged=False`` with the best
    estimate.
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got ({a}, {b})")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    value, estimates, evals, converged = _tanh_sinh(f, a, b, tol)
    estimate = estimates[-1] if estimates else math.inf
    return QuadratureResult(value, estimate, evals, converged)


def _tail_bound(T: float, p: float) -> float:
    # Bound on the tail of integrands decaying like e^(-t) t^p.
    return math.exp(-T) * T ** (p + 1.0) * (1.0 + (p + 1.0) / T)


def integrate_semi_infinite(
    f: Integrand, tol: float, decay_exponent_hint: float
) -> QuadratureResult:
    """Integrate f over (0, inf) assuming f decays like e^(-t) t^p.

    The interval is truncated at the first T >= 50 where the analytic
    tail bound e^(-T) T^(p+1) (1 + (p+1)/T) clears tol/10; the bound is
    folded into the reported error estimate.  An integrable singularity
    at 0 is allowed.  A decay exponent so large that the tail bound
    overflows double precision raises DomainError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    p = decay_exponent_hint
    T = 50.0
    try:
        while _tail_bound(T, p) >= 0.1 * tol and T < 1000.0:
            T += 10.0
        tail = _tail_bound(T, p)
    except OverflowError:
        raise DomainError(f"tail bound overflows for decay exponent {p!r}") from None
    finite = integrate_finite(f, 0.0, T, tol - tail if tol > tail else tol)
    return QuadratureResult(
        finite.value,
        finite.abs_error_estimate + tail,
        finite.evaluations,
        finite.converged and tail < 0.1 * tol,
    )


def integrate_unit_square(
    f: Callable[[float, float], complex], tol: float
) -> QuadratureResult:
    """Integrate f over the open unit square.

    A ProductIntegrand (f(x, y) = g(x*y)) is collapsed exactly to the
    single integral of g(u) (-ln u) on (0, 1).  Anything else is done by
    iterated tanh-sinh, x inside y; singularities are allowed on the
    boundary only.  Achievable tolerances are looser than in one
    dimension; requests below ~1e-6 may come back with converged=False.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(f, ProductIntegrand):
        g = f.g
        return integrate_finite(lambda u: g(u) * (-math.log(u)), 0.0, 1.0, tol)

    inner_tol = tol / 20.0
    outer_tol = 0.8 * tol
    inner_evals = 0
    inner_excess = 0.0

    def sliced(y: float) -> complex:
        nonlocal inner_evals, inner_excess
        value, estimates, evals, converged = _tanh_sinh(
            lambda x: f(x, y), 0.0, 1.0, inner_tol
        )
        inner_evals += evals
        if not converged and estimates:
            # Unconverged slices sit next to a boundary singularity; weight
            # their residual by the outer measure they can influence
            # (tanh-sinh outer weight <= ~150 * distance to the boundary).
            inner_excess += estimates[-1] * 150.0 * min(y, 1.0 - y)
        return value

    outer = integrate_finite(sliced, 0.0, 1.0, outer_tol)
    return QuadratureResult(
        outer.value,
        outer.abs_error_estimate + inner_tol + inner_excess,
        inner_evals,
        outer.converged and inner_excess <= 0.1 * tol,
    )


def sum_series(
    term: Callable[[int], complex],
    tol: float,
    max_terms: int,
    alternating: bool = False,
) -> SeriesResult:
    """Sum term(1) + term(2) + ... until |term(n)| < tol or the cap.

    The first term whose magnitude drops below tol is still included.
    With ``alternating`` set, the remainder bound is the magnitude of
    the first omitted term (valid for alternating series with
    monotonically decreasing term magnitudes); otherwise the remainder
    is unknown and reported as None.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    total: complex = 0.0
    n = 0
    converged = False
    while n < max_terms:
        n += 1
        t = term(n)
        total += t
        if abs(t) < tol:
            converged = True
            break
    bound = abs(term(n + 1)) if alternating else None
    return SeriesResult(total, n, bound, converged)


def refinement_history(
    f: Integrand, a: float, b: float, tol: float, max_level: int = MAX_LEVEL
) -> Sequence[float]:
    """Per-level error estimates of the tanh-sinh ladder (for diagnostics)."""
    _, estimates, _, _ = _tanh_sinh(f, a, b, tol, max_level)
    return estimates
