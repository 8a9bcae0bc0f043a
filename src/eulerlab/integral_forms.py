"""The two-parameter integral families and their exact 1D reductions.

The unit-square integrands (1-x)/(1 +- xy) * (-ln xy)**s collapse, via
u = xy, v = 1 - x followed by t = -ln u, to

    plus kernel:   t**s (t - 1 + e**-t) / (e**t + 1)
    minus kernel:  t**s (t - 1 + e**-t) / (e**t - 1)

over (0, inf).  Both share the numerator t - 1 + e**-t ~ t**2/2, which
is evaluated by series below t = 0.5 to avoid the catastrophic
cancellation a naive evaluation suffers near 0.  The right-hand-side
closed forms pair these with gamma/eta/zeta from
:mod:`eulerlab.special_functions`.

Next to a domain edge each family's kernel f(s, t) is t**(s+c) psi(t) near
0, with psi regular and Re(s+c) close to -1, which the tanh-sinh ladder
cannot resolve (c = 2, 1, -1 for the plus, minus and Fermi-Dirac
families).  Within ``_SUBTRACT_BELOW`` of the edge ``I_plus``,
``I_minus`` and ``fermi_dirac`` subtract that singular part and
integrate it in closed form (Davis & Rabinowitz, Methods of Numerical
Integration, 2.12):

    psi(0)/(s+c+1) + int_0^1 t**(s+c) (psi(t) - psi(0)) dt + int_1^T f(s, t) dt

The remainder behaves like t**(Re(s+c)+1) and is regular.  The subtracted
term is elementary (no gamma, zeta or eta), so the quadrature routes stay
independent of the closed forms they are checked against.
``I_plus_many``, ``I_minus_many`` and ``fermi_dirac_many`` evaluate every
level of a sweep as points x nodes arrays through each family's array
kernel.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constants import euler_gamma_series, ln_4_over_pi
from .core_numerics import (
    QuadratureResult,
    SeriesResult,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
    integrate_semi_infinite_split,
)
from .errors import DomainError
from .special_functions import (
    eta,
    eta_many,
    eta_prime,
    gamma,
    zeta_minus_pole,
)


class SignedKernel(enum.Enum):
    """Sign choice in the 1 +- xy denominator of the square integrands."""

    PLUS = "plus"
    MINUS = "minus"


# Exact limits of the plus-kernel family exist at s = -1 and s = -2;
# inside this radius of either point the bracket of the closed form
# cancels catastrophically and a first-order expansion is used instead.
_EXPANSION_RADIUS = 1e-4
_SLOPE_STEP = 1e-3

# Taylor coefficients of (e**-t - 1 + t) / (t**2/2): 2 (-1)**j / (j+2)!
_RESIDUAL_COEFFS = tuple(
    2.0 * (-1 if j % 2 else 1) / math.factorial(j + 2) for j in range(13)
)


def _power(t: float, s: complex) -> complex:
    # t**s for real t > 0 through the real logarithm
    if s.imag == 0.0:
        return t**s.real
    return cmath.exp(s * math.log(t))


def _residual_series(t: float) -> float:
    # (e**-t - 1 + t) / t**2, for t < 0.5
    acc = 0.0
    for c in reversed(_RESIDUAL_COEFFS):
        acc = acc * t + c
    return 0.5 * acc


def reduced_integrand_plus(s: complex, t: float) -> complex:
    """Integrand t**s (t - 1 + e**-t)/(e**t + 1) of the plus-kernel family.

    Behaves like t**(s+2)/4 as t -> 0, so it is integrable for
    Re(s) > -3.  Below t = 0.5 the numerator's t**2 scale is folded
    into the power so that neither factor over- or underflows at the
    deepest quadrature nodes.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    s = complex(s)
    if t < 0.5:
        return _power(t, s + 2.0) * _residual_series(t) / (math.exp(t) + 1.0)
    if t > 40.0:
        et = math.exp(-t)
        return _power(t, s) * (t - 1.0 + et) * et / (1.0 + et)
    return _power(t, s) * (math.expm1(-t) + t) / (math.exp(t) + 1.0)


def _power_array(t: np.ndarray, s: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    # _power(t[i], exponent[i, j]) in place, where column j belongs to the
    # parameter s[j]: real s takes the real power, as in _power
    real = s.imag == 0.0
    real_exponents = exponent.real[:, real]
    exponent *= np.log(t)[:, None]
    np.exp(exponent, out=exponent)
    exponent[:, real] = t[:, None] ** real_exponents
    return exponent


def _scale_rows(values: np.ndarray, factors: Sequence[np.ndarray], divisor: np.ndarray):
    # values[i, j] * factors[0][i] * ... / divisor[i] in place, scaling the
    # real and imaginary parts separately, as complex-by-real products and
    # quotients do
    parts = values.view(float).reshape(*values.shape, 2)
    for factor in factors:
        parts *= factor[:, None, None]
    parts /= divisor[:, None, None]
    return values


def _array_arguments(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=float)
    if not (t > 0.0).all():
        raise ValueError("t must be positive")
    return s, t


def reduced_integrand_plus_array(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """reduced_integrand_plus at every (t[i], s[j]), as a (len(t), len(s)) array.

    The same branches and operations as the scalar form, node by node:
    below t = 0.5 the power is the folded t**(s+2) (forming t**s t**2
    instead overflows at the deepest nodes), and real s takes the real
    power.  Only the elementwise exp, log and power of numpy may round
    differently from the math module's.
    """
    s, t = _array_arguments(s, t)
    small = t < 0.5
    large = t > 40.0
    with np.errstate(over="ignore"):
        et = np.exp(-t)
        num = np.where(large, t - 1.0 + et, np.expm1(-t) + t)
        num[small] = _residual_series(t[small])
        extra = np.where(large, et, 1.0)
        den = np.where(large, 1.0 + et, np.exp(t) + 1.0)
    power = _power_array(t, s, np.where(small[:, None], s + 2.0, s))
    return _scale_rows(power, (num, extra), den)


def reduced_integrand_minus(s: complex, t: float) -> complex:
    """Integrand t**s (t - 1 + e**-t)/(e**t - 1) of the minus-kernel family.

    Behaves like t**(s+1)/2 as t -> 0 (integrable for Re(s) > -2); the
    small-t branch mirrors the plus kernel's overflow-safe split.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    s = complex(s)
    if t < 0.5:
        return (
            _power(t, s + 1.0) * _residual_series(t) * (t / math.expm1(t))
        )
    return _power(t, s) * (math.expm1(-t) + t) / math.expm1(t)


def reduced_integrand_minus_array(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """reduced_integrand_minus at every (t[i], s[j]), as a (len(t), len(s)) array.

    The same branches and operations as the scalar form, as in
    ``reduced_integrand_plus_array``.
    """
    s, t = _array_arguments(s, t)
    small = t < 0.5
    with np.errstate(over="ignore"):
        em1 = np.expm1(t)
        num = np.expm1(-t) + t
        num[small] = _residual_series(t[small])
        # multiplying or dividing by 1.0 is exact: each branch keeps its
        # own operations
        ratio = np.where(small, t / em1, 1.0)
        den = np.where(small, 1.0, em1)
    power = _power_array(t, s, np.where(small[:, None], s + 1.0, s))
    return _scale_rows(power, (num, ratio), den)


def integrand_2d(kernel: SignedKernel, s: complex, x: float, y: float) -> complex:
    """(1-x)/(1 +- xy) * (-ln xy)**s on the open unit square."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError("x and y must lie in the open unit interval")
    s = complex(s)
    neg_log = -(math.log(x) + math.log(y))
    denom = 1.0 + x * y if kernel is SignedKernel.PLUS else 1.0 - x * y
    return (1.0 - x) / denom * _power(neg_log, s)


def fermi_dirac_integrand(s: complex, t: float) -> complex:
    """Integrand t**(s-1)/(e**t + 1) of the Fermi-Dirac-type integral.

    Above t = 40 it is formed as t**(s-1) e**-t / (1 + e**-t), which
    keeps e**t from overflowing at the far end of the range.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    s = complex(s)
    if t > 40.0:
        et = math.exp(-t)
        return _power(t, s - 1.0) * et / (1.0 + et)
    return _power(t, s - 1.0) / (math.exp(t) + 1.0)


def fermi_dirac_integrand_array(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """fermi_dirac_integrand at every (t[i], s[j]), as a (len(t), len(s)) array.

    The same branches and operations as the scalar form, as in
    ``reduced_integrand_plus_array``.
    """
    s, t = _array_arguments(s, t)
    large = t > 40.0
    with np.errstate(over="ignore"):
        et = np.exp(-t)
        extra = np.where(large, et, 1.0)
        den = np.where(large, 1.0 + et, np.exp(t) + 1.0)
    power = _power_array(t, s, np.repeat((s - 1.0)[None, :], len(t), axis=0))
    return _scale_rows(power, (extra,), den)


def _residual(t: float) -> float:
    # (e**-t - 1 + t) / t**2 for 0 < t < 1
    return _residual_series(t) if t < 0.5 else (math.expm1(-t) + t) / (t * t)


def _psi_plus(t: float) -> float:
    return _residual(t) / (math.exp(t) + 1.0)


def _psi_minus(t: float) -> float:
    # t / expm1(t) -> 1 as t -> 0, and t is never 0 at a node
    return _residual(t) * (t / math.expm1(t))


def _psi_fermi_dirac(t: float) -> float:
    return 1.0 / (math.exp(t) + 1.0)


class _Family(NamedTuple):
    edge: float  # the integral exists for Re(s) > edge
    shift: float  # the kernel decays like e**-t t**(Re(s) + shift)
    c: float  # on (0, 1) the kernel is t**(s+c) psi(t)
    psi: Callable[[float], float]  # regular at 0, where it tends to psi0
    psi0: float
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray]  # the kernel as an array


_PLUS = _Family(-3.0, 1.0, 2.0, _psi_plus, 0.25, reduced_integrand_plus_array)
_MINUS = _Family(-2.0, 1.0, 1.0, _psi_minus, 0.5, reduced_integrand_minus_array)
_FERMI_DIRAC = _Family(0.0, -1.0, -1.0, _psi_fermi_dirac, 0.5, fermi_dirac_integrand_array)

# Distance Re(s) - edge below which the singular part is subtracted.
# Measured by ``scripts/subtract_threshold.py`` (table in CHANGES.md): at
# 0.45 and below the subtracted route takes fewer evaluations in all
# three families, from 0.5 on the plain one.  The registry's and
# grid_eq15's points sit 0.5 and more from their edge and keep the
# plain route and its results.
_SUBTRACT_BELOW = 0.45


def _reduced(
    family: _Family, kernel: Callable[[complex, float], complex], s: complex, tol: float
) -> QuadratureResult:
    # the integral of kernel(s, .) over (0, inf), where kernel(s, t) is
    # t**(s + family.c) family.psi(t) on (0, 1)
    s = complex(s)
    if s.real <= family.edge + 0.01:
        raise DomainError(f"outside Re(s) > {family.edge:g}")
    far = functools.partial(kernel, s)
    if s.real - family.edge >= _SUBTRACT_BELOW:
        return integrate_semi_infinite(far, tol, s.real + family.shift)
    power, psi, psi0 = s + family.c, family.psi, family.psi0

    def near(t: float) -> complex:
        return _power(t, power) * (psi(t) - psi0)

    result = integrate_semi_infinite_split(near, far, tol, s.real + family.shift)
    return dataclasses.replace(result, value=psi0 / (power + 1.0) + result.value)


def _reduced_many(
    family: _Family, single: Callable[[complex, float], QuadratureResult],
    points: Sequence[complex], tol: float,
) -> list[QuadratureResult]:
    # single, the family's public scalar route, at every point (see
    # I_plus_many).  The callers pass it by its module-level name, so a
    # wrapper installed there, such as perfbench's tracer, sees its calls.
    s = [complex(p) for p in points]
    if any(p.real <= family.edge + 0.01 for p in s):
        raise DomainError(f"outside Re(s) > {family.edge:g}")
    batch = [p.real - family.edge >= _SUBTRACT_BELOW for p in s]
    plain = [p for p, b in zip(s, batch) if b]
    batched = iter(integrate_semi_infinite_many(
        family.rows, plain, tol, [p.real + family.shift for p in plain]
    ))
    return [next(batched) if b else single(p, tol) for p, b in zip(s, batch)]


def I_plus(s: complex, tol: float) -> QuadratureResult:
    """Quadrature of the plus-kernel reduced integrand over (0, inf).

    Within _SUBTRACT_BELOW of the edge Re(s) = -3 the singular part
    t**(s+2)/4 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_PLUS, reduced_integrand_plus, s, tol)


def I_minus(s: complex, tol: float) -> QuadratureResult:
    """Quadrature of the minus-kernel reduced integrand over (0, inf).

    Within _SUBTRACT_BELOW of the edge Re(s) = -2 the singular part
    t**(s+1)/2 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_MINUS, reduced_integrand_minus, s, tol)


def fermi_dirac(s: complex, tol: float) -> QuadratureResult:
    """Integral of t**(s-1)/(e**t + 1) over (0, inf); equals gamma(s) eta(s).

    Within _SUBTRACT_BELOW of the edge Re(s) = 0 the singular part
    t**(s-1)/2 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_FERMI_DIRAC, fermi_dirac_integrand, s, tol)


def I_plus_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """I_plus at every point, refined together over points x nodes arrays.

    Agrees with ``I_plus`` point by point (evaluation counts and
    convergence included) up to the rounding of numpy's elementwise
    functions; see ``core_numerics.integrate_semi_infinite_many``.
    Points within _SUBTRACT_BELOW of the edge take ``I_plus`` itself.
    """
    return _reduced_many(_PLUS, I_plus, points, tol)


def I_minus_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """I_minus at every point, refined together as ``I_plus_many`` does."""
    return _reduced_many(_MINUS, I_minus, points, tol)


def fermi_dirac_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """fermi_dirac at every point, refined together as ``I_plus_many`` does."""
    return _reduced_many(_FERMI_DIRAC, fermi_dirac, points, tol)


def _rhs_eq15_from_eta(s: complex, eta_s2: complex, eta_s1: complex) -> complex:
    bracket = eta_s2 + (1.0 - 2.0 * eta_s1) / (s + 1.0)
    return gamma(s + 2.0) * bracket


def _rhs_eq15_generic(s: complex) -> complex:
    return _rhs_eq15_from_eta(s, eta(s + 2.0), eta(s + 1.0))


def _rhs_eq15_is_generic(s: complex) -> bool:
    return s.real > -3.0 and all(
        abs(s - point) >= _EXPANSION_RADIUS for point in (-1.0, -2.0)
    )


def _rhs_eq15_limit(point: float) -> complex:
    if point == -1.0:
        # limit value eta(1) - 2 eta'(0) = ln 2 - ln(pi/2) = ln(4/pi)
        return eta(1.0) - 2.0 * eta_prime(0.0)
    # point == -2.0: limit value eta'(0) - 1/2 + 2 eta'(-1)
    return eta_prime(0.0) - 0.5 + 2.0 * eta_prime(-1.0)


def rhs_eq15(s: complex) -> complex:
    """Closed form gamma(s+2) [eta(s+2) + (1 - 2 eta(s+1))/(s+1)].

    The bracket has removable singularities at s = -1 and s = -2; the
    exact limits are returned there, and within 1e-4 of either point a
    first-order expansion around the limit replaces the generic route.
    """
    s = complex(s)
    if s.real <= -3.0:
        raise DomainError("outside Re(s) > -3")
    for point in (-1.0, -2.0):
        w = s - point
        dist = abs(w)
        if dist == 0.0:
            return _rhs_eq15_limit(point)
        if dist < _EXPANSION_RADIUS:
            direction = w / dist
            step = _SLOPE_STEP * direction
            slope = (
                _rhs_eq15_generic(point + step)
                - _rhs_eq15_generic(point - step)
            ) / (2.0 * step)
            return _rhs_eq15_limit(point) + w * slope
    return _rhs_eq15_generic(s)


def rhs_eq15_many(points: Sequence[complex]) -> list[complex]:
    """rhs_eq15 at every point, with both eta panels summed at once.

    Points at or within the expansion radius of -1 and -2 (and points
    outside the domain, which raise) take the scalar ``rhs_eq15``.
    """
    s = [complex(p) for p in points]
    generic = [_rhs_eq15_is_generic(p) for p in s]
    panel = [p for p, g in zip(s, generic) if g]
    etas = zip(
        eta_many([p + 2.0 for p in panel]).tolist(),
        eta_many([p + 1.0 for p in panel]).tolist(),
    )
    return [
        _rhs_eq15_from_eta(p, *next(etas)) if g else rhs_eq15(p)
        for p, g in zip(s, generic)
    ]


def rhs_eq12(s: complex) -> complex:
    """Closed form gamma(s+2) [zeta(s+2) - 1/(s+1)].

    The bracket is exactly the pole-removed zeta at s+2, so the limit
    point s = -1 (where the value is Euler's gamma) and its whole
    neighbourhood are served by the same ring-extrapolated route.
    """
    s = complex(s)
    if s.real <= -2.0:
        raise DomainError("outside Re(s) > -2")
    return gamma(s + 2.0) * zeta_minus_pole(s + 2.0)


def beukers_reduced(order: int, tol: float) -> QuadratureResult:
    """zeta(2) or zeta(3) by the 1D collapse of their square integrals.

    Any integrand g(xy) on the unit square integrates to
    int_0^1 g(u)(-ln u) du; the 1/(1-xy) and -ln(xy)/(2(1-xy)) kernels
    reduce this way to int (-ln u)/(1-u) and (1/2) int (-ln u)^2/(1-u).
    """
    if order == 2:
        return integrate_finite(
            lambda u: -math.log(u) / (1.0 - u), 0.0, 1.0, tol
        )
    if order == 3:
        return integrate_finite(
            lambda u: 0.5 * math.log(u) ** 2 / (1.0 - u), 0.0, 1.0, tol
        )
    raise ValueError("order must be 2 or 3")


def termwise_series_oracle(kernel: SignedKernel, n_terms: int) -> SeriesResult:
    """Partial sums of sum_n (+-1)**(n-1) (1/n - ln((n+1)/n)).

    Termwise integration of the geometric expansion of the square
    integrals produces exactly these series, so they are an independent
    route to the plus/minus kernel values at s = -1.  They are the
    ``constants`` series of ln(4/pi) and of Euler's gamma (bound unknown).
    """
    if kernel is SignedKernel.PLUS:
        series = ln_4_over_pi(n_terms, "series")
        bound = series.error_bound
    else:
        series, bound = euler_gamma_series(n_terms), None
    return SeriesResult(series.value, n_terms, bound, True)
