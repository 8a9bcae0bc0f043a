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
families; the edge is Re(s) = -1 - c).  psi is the kernel's form over
t**(s+c), so each kernel is stated once.  Within ``_SUBTRACT_BELOW`` of
the edge ``I_plus``, ``I_minus`` and ``fermi_dirac`` subtract that
singular part and integrate it in closed form (Davis & Rabinowitz,
Methods of Numerical Integration, 2.12):

    psi(0)/(s+c+1) + int_0^1 t**(s+c) (psi(t) - psi(0)) dt + int_1^T f(s, t) dt

The remainder behaves like t**(Re(s+c)+1) and is regular; it is
``integrate_semi_infinite``'s ``near``, and f its integrand over (1, T).
The subtracted term is elementary (no gamma, zeta or eta), so the
quadrature routes stay independent of the closed forms they are checked
against.  From ``_BATCH_MIN_POINTS`` points on, ``I_plus_many``,
``I_minus_many`` and ``fermi_dirac_many`` evaluate every level of a sweep
as points x nodes arrays built from tables of the same parameter-free form
of each kernel (``_Family.rows``), so each point's result is the scalar
route's to the bit.  ``rhs_eq15_many`` sums the etas of two points or more
in one ``eta_many`` call.  Below its batch size (two points for
``rhs_eq15_many``) each ``*_many`` route runs its scalar route at every
point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core_numerics import (
    PowerKernel,
    PowerRows,
    QuadratureResult,
    _abs,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
)
from .errors import DomainError
from .special_functions import (
    _EXPANSION_RADIUS,
    _eta_divided,
    _eta_sum,
    _gamma_many,
    _mul,
    _quot,
    eta,
    eta_many,
    gamma,
    zeta_minus_pole,
)

# Taylor coefficients of (e**-t - 1 + t) / (t**2/2): 2 (-1)**j / (j+2)!
_RESIDUAL_COEFFS = tuple(
    2.0 * (-1 if j % 2 else 1) / math.factorial(j + 2) for j in range(13)
)


def _residual_series(t: float) -> float:
    # (e**-t - 1 + t) / t**2, for t < 0.5: Horner's rule
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12 = _RESIDUAL_COEFFS
    acc = ((((((c12 * t + c11) * t + c10) * t + c9) * t + c8) * t + c7) * t + c6) * t
    return 0.5 * ((((((acc + c5) * t + c4) * t + c3) * t + c2) * t + c1) * t + c0)


def _plus_form(t: float) -> tuple[int, float, float, float]:
    # the plus kernel t**s (t - 1 + e**-t)/(e**t + 1) = t**(s + (0, 2)[k]) f1 f2 / d;
    # below t = 0.5 the numerator's t**2 scale is folded into the power, so that
    # neither factor over- or underflows at the deepest nodes
    if t < 0.5:
        return 1, _residual_series(t), 1.0, math.exp(t) + 1.0
    if t > 40.0:
        et = math.exp(-t)
        return 0, t - 1.0 + et, et, 1.0 + et
    return 0, math.expm1(-t) + t, 1.0, math.exp(t) + 1.0


def _minus_form(t: float) -> tuple[int, float, float, float]:
    # the minus kernel t**s (t - 1 + e**-t)/(e**t - 1) = t**(s + (0, 1)[k]) f1 f2 / d
    if t < 0.5:
        return 1, _residual_series(t), t / math.expm1(t), 1.0
    if t > 709.782712893384:  # e**t overflows, e**-t is below the normal range
        half = math.exp(-0.5 * t)
        return 0, (t - 1.0) * half, half, 1.0
    return 0, math.expm1(-t) + t, 1.0, math.expm1(t)


def _fermi_dirac_form(t: float) -> tuple[int, float, float, float]:
    # the Fermi-Dirac kernel t**(s-1)/(e**t + 1) = t**(s - 1) f1 f2 / d; above
    # t = 40 e**-t / (1 + e**-t), which keeps e**t from overflowing
    if t > 40.0:
        et = math.exp(-t)
        return 0, et, 1.0, 1.0 + et
    return 0, 1.0, 1.0, math.exp(t) + 1.0


class _Family(NamedTuple):
    shift: float  # the kernel decays like e**-t t**(Re(s) + shift)
    c: float  # on (0, 1) the kernel is t**(s+c) psi(t)
    psi0: float  # the limit of psi at 0
    form: Callable  # the kernel is t**(s + offsets[k]) f1 f2 / d, (k, f1, f2, d) = form(t)
    offsets: tuple[float, ...]

    @property
    def edge(self) -> float:  # the integral exists for Re(s) > edge
        return -1.0 - self.c

    def psi(self, t: float) -> float:
        # the kernel over t**(s+c), from its form: regular at 0
        k, f1, f2, d = self.form(t)
        return t ** (self.offsets[k] - self.c) * f1 * f2 / d

    def near(self, t: float) -> tuple[int, float, float, float]:
        # the form of t**(s+c) (psi(t) - psi0), the kernel subtracted on (0, 1)
        return 0, self.psi(t) - self.psi0, 1.0, 1.0

    def kernel(self, s: complex) -> PowerKernel:
        return PowerKernel(self.form, tuple(complex(s) + c for c in self.offsets))

    @property
    def rows(self) -> PowerRows:
        # the kernel at every (t[i], s[j]) as a (len(t), len(s)) array, each
        # value kernel(s[j]) at t[i] as the node walk forms it; the batched
        # ladder reads the form's factors from its tables
        return PowerRows(self.form, self.offsets)


_PLUS = _Family(1.0, 2.0, 0.25, _plus_form, (0.0, 2.0))
_MINUS = _Family(1.0, 1.0, 0.5, _minus_form, (0.0, 1.0))
_FERMI_DIRAC = _Family(-1.0, -1.0, 0.5, _fermi_dirac_form, (-1.0,))


# Distance Re(s) - edge below which the singular part is subtracted.
# Measured by ``scripts/subtract_threshold.py`` (table in CHANGES.md): at
# 0.45 and below the subtracted route takes fewer evaluations in all
# three families, from 0.5 on the plain one.  The registry's and
# grid_eq15's points sit 0.5 and more from their edge and keep the
# plain route and its results.
_SUBTRACT_BELOW = 0.45
DOMAIN_MARGIN = 0.01  # the quadrature routes refuse points this close above their edge


def _edge_reason(edge: float, s: complex) -> str | None:
    # why a quadrature route on Re(s) > edge refuses the point s, if it does
    if s.real <= edge:
        return f"outside Re(s) > {edge:g}"
    if s.real <= edge + DOMAIN_MARGIN:
        return f"within {DOMAIN_MARGIN:g} of the domain edge Re(s) = {edge:g}"
    if math.isinf(s.imag * math.log(2.0**-1022)):  # from |Im(s)| = 2.5e305 on
        return f"Im(s) ln t overflows near t = 0 at Im(s) = {s.imag:g}"


def _reduced(family: _Family, s: complex, tol: float) -> QuadratureResult:
    # the integral of the family's kernel at s over (0, inf)
    s = complex(s)
    if (reason := _edge_reason(family.edge, s)) is not None:
        raise DomainError(reason)
    far, hint = family.kernel(s), s.real + family.shift
    if s.real - family.edge >= _SUBTRACT_BELOW:
        return integrate_semi_infinite(far, tol, hint)
    power = s + family.c
    near = PowerKernel(family.near, (power,))  # t**power (psi(t) - psi0)
    result = integrate_semi_infinite(far, tol, hint, near)
    return dataclasses.replace(result, value=family.psi0 / (power + 1.0) + result.value)


# From this many points on, I_minus_many, I_plus_many and fermi_dirac_many run their
# batch.  Batched over scalar time (``scripts/batch_threshold.py --rounds 101``, from empty
# kernel tables, shared 2-core x86-64 VM, two runs, three families): 10 points
# 1.02-1.07, 11 1.00-1.11, 12 0.92-1.03, 13 0.86-1.03, 14 0.80-0.99, 16 0.75-0.85.
# It sets speed alone: each batch returns its scalar route's values to the bit.
_BATCH_MIN_POINTS = 14


def _reduced_many(
    family: _Family, single: Callable[[complex, float], QuadratureResult],
    points: Sequence[complex], tol: float,
) -> list[QuadratureResult]:
    # single, the family's public scalar route, at every point (see
    # I_plus_many).  The callers pass it by its module-level name, so a
    # wrapper installed there, such as perfbench's tracer, sees its calls.
    if len(points) < _BATCH_MIN_POINTS:
        return [single(p, tol) for p in points]
    s = np.asarray(points, dtype=complex)
    im = s.imag[abs(s.imag).argmax()].item()  # the largest in size
    if (reason := _edge_reason(family.edge, complex(s.real.min(), im))) is not None:
        raise DomainError(reason)
    batch = s.real - family.edge >= _SUBTRACT_BELOW
    plain = s[batch]
    batched = integrate_semi_infinite_many(
        family.rows, plain, tol, (plain.real + family.shift).tolist()
    )
    if batch.all():
        return batched
    batched = iter(batched)
    return [next(batched) if b else single(p, tol) for p, b in zip(s.tolist(), batch.tolist())]


def I_plus(s: complex, tol: float) -> QuadratureResult:
    """Quadrature of the plus-kernel reduced integrand over (0, inf).

    Within _SUBTRACT_BELOW of the edge Re(s) = -3 the singular part
    t**(s+2)/4 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_PLUS, s, tol)


def I_minus(s: complex, tol: float) -> QuadratureResult:
    """Quadrature of the minus-kernel reduced integrand over (0, inf).

    Within _SUBTRACT_BELOW of the edge Re(s) = -2 the singular part
    t**(s+1)/2 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_MINUS, s, tol)


def fermi_dirac(s: complex, tol: float) -> QuadratureResult:
    """Integral of t**(s-1)/(e**t + 1) over (0, inf); equals gamma(s) eta(s).

    Within _SUBTRACT_BELOW of the edge Re(s) = 0 the singular part
    t**(s-1)/2 at 0 is subtracted and integrated in closed form.
    """
    return _reduced(_FERMI_DIRAC, s, tol)


def I_plus_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """I_plus at every point, refined together over points x nodes arrays.

    Agrees with ``I_plus`` point by point to the bit, evaluation counts
    and convergence included: the rows are the scalar kernel's values;
    see ``core_numerics.integrate_semi_infinite_many``.  Points within
    _SUBTRACT_BELOW of the edge, and every point of fewer than
    _BATCH_MIN_POINTS, take ``I_plus`` itself.
    """
    return _reduced_many(_PLUS, I_plus, points, tol)


def I_minus_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """I_minus at every point, refined together as ``I_plus_many`` does."""
    return _reduced_many(_MINUS, I_minus, points, tol)


def fermi_dirac_many(points: Sequence[complex], tol: float) -> list[QuadratureResult]:
    """fermi_dirac at every point, refined together as ``I_plus_many`` does."""
    return _reduced_many(_FERMI_DIRAC, fermi_dirac, points, tol)


def _gamma_s2(s: complex) -> complex:
    # Gamma(s + 2) of eq12's and eq15's closed forms, its DomainError naming s too
    try:
        return gamma(s + 2.0)
    except DomainError as exc:
        raise DomainError(f"Gamma(s + 2) fails at s = {s}: {exc}") from None


# From this many generic points on eq15's rhs forms Gamma(s+2) and the bracket as
# arrays, with the same bits; batch/scalar time of gamma (scripts/batch_threshold.py,
# 61 rounds, shared 2-core VM): 128 points 1.07, 160 0.95, 192 0.81, 256 0.65.
_GAMMA_BATCH_MIN_POINTS = 160


def _rhs_eq15_panel(s: np.ndarray) -> list[complex]:
    # the closed form at points clear of -1, -2 and the edge, the etas at s + 2 and
    # s + 1 from one call: eta_many, or for one point the sum itself, which
    # eta_many's blocks sum alike (none is reflected) but does not check
    etas = (_eta_sum if len(s) == 1 else eta_many)(np.concatenate((s + 2.0, s + 1.0)))
    if not np.isfinite(etas).all():
        raise DomainError(f"eta is not finite at s + 2 or s + 1 for s among {s.tolist()}")
    if len(s) < _GAMMA_BATCH_MIN_POINTS:
        return [_gamma_s2(p) * (eta_s2 + (1.0 - 2.0 * eta_s1) / (p + 1.0))
                for p, eta_s2, eta_s1 in zip(s.tolist(), etas.tolist(), etas[len(s) :].tolist())]
    with np.errstate(all="ignore"):  # the same arithmetic as arrays, as CPython rounds it
        bracket = etas[: len(s)] + _quot(1.0 - _mul(2.0, etas[len(s) :]), s + 1.0)
        return _mul(_gamma_many(s, 2.0, _gamma_s2), bracket).tolist()


def rhs_eq15(s: complex) -> complex:
    """Closed form gamma(s+2) [eta(s+2) + (1 - 2 eta(s+1))/(s+1)].

    The bracket has removable singularities at s = -1 and s = -2.  Within
    _EXPANSION_RADIUS of either (the points included) the divided differences
    D_a(w) = [eta(a + w) - eta(a)] / w, with eta(0) = 1/2 and eta(-1) = 1/4,
    take it apart: Gamma(s+2) [eta(s+2) - 2 D_0(s+1)] near -1 and
    Gamma(s+3) [D_0(s+2) + (1/2 - 2 D_-1(s+2))/(s+1)] near -2.  Elsewhere
    the etas come from ``eta_many``'s sum, so each value is ``rhs_eq15_many``'s.
    """
    s = complex(s)
    if s.real <= _PLUS.edge:
        raise DomainError(f"outside Re(s) > {_PLUS.edge:g}")
    if abs(s + 1.0) < _EXPANSION_RADIUS:
        return _gamma_s2(s) * (eta(s + 2.0) - 2.0 * _eta_divided(0.0, s + 1.0))
    if abs(s + 2.0) < _EXPANSION_RADIUS:
        w = s + 2.0
        bracket = _eta_divided(0.0, w) + (0.5 - 2.0 * _eta_divided(-1.0, w)) / (s + 1.0)
        return gamma(s + 3.0) * bracket
    return _rhs_eq15_panel(np.array([s]))[0]


def rhs_eq15_many(points: Sequence[complex]) -> list[complex]:
    """rhs_eq15 at every point, to the bit, with one eta_many call for all.

    A single point takes the scalar ``rhs_eq15``, as do points at or within
    the expansion radius of -1 and -2 (and points outside the domain, which
    raise).
    """
    if len(points) < 2:
        return [rhs_eq15(p) for p in points]
    s = np.asarray(points, dtype=complex)
    near = np.minimum(_abs(s + 1.0), _abs(s + 2.0))
    generic = (s.real > _PLUS.edge) & (near >= _EXPANSION_RADIUS)
    panel = s[generic]
    values = iter(_rhs_eq15_panel(panel))
    return [next(values) if g else rhs_eq15(p) for p, g in zip(s.tolist(), generic.tolist())]


def rhs_eq12(s: complex) -> complex:
    """Closed form gamma(s+2) [zeta(s+2) - 1/(s+1)].

    The bracket is exactly the pole-removed zeta at s+2, so the limit
    point s = -1 (where the value is Euler's gamma) and its whole
    neighbourhood are served by ``zeta_minus_pole``'s divided difference.
    """
    s = complex(s)
    if s.real <= _MINUS.edge:
        raise DomainError(f"outside Re(s) > {_MINUS.edge:g}")
    return _gamma_s2(s) * zeta_minus_pole(s + 2.0)


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
