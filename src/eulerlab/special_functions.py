"""Gamma, the alternating zeta function, zeta, and their derivatives.

Gamma uses the 9-term Lanczos approximation (g = 7) on the right
half-plane and the reflection formula, with sin(pi s) reduced exactly,
elsewhere.  The alternating zeta function eta is summed by the
Euler-transformation double sum; zeta and its derivative are obtained
from eta through the factor 1 - 2**(1-s).
The pole of zeta at s = 1 is removed by ring extrapolation in
``zeta_minus_pole``.

The sum converges geometrically for every complex s, but in double
precision its rows cancel once the weights (k+1)**-s grow, so accuracy
falls with Re(s).  Absolute error of eta against mpmath (30 digits),
with 0 <= Im(s) <= 2 and the default options:

    Re(s) >= -1.5       about 1e-13
    [-2, -1.5)          below 1e-12
    [-3, -2)            about 1e-9
    [-4, -3)            about 5e-8

It also grows slowly with |Im(s)| (about 2e-11 at Im(s) = 60).  Below
Re(s) = -4 the sum would lose more (3e-6 on [-5, -4), no correct digits
below -7), so eta and zeta take the functional equation there, from
zeta(1 - s) where the sum is accurate.  Relative error of eta and zeta
against mpmath, same Im(s) range:

    [-10, -4)           about 3e-14
    [-50, -10)          below 1e-13
    [-170, -50)         below 2e-13

At large Im(s) the error follows that of zeta(1 - s): 1.4e-12 at
-5+455i, 4.3e-11 at -5+600i.  There eta and zeta raise DomainError
where the value or a factor of the functional equation overflows (real
s below about -218.5 for eta and -260 for zeta), and the derivatives
eta_prime and zeta_prime raise IllConditionedError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, IllConditionedError, PoleError

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
# Rows (outer terms) of the Euler-transformation table; max_terms limit.
_TABLE_SIZE = 128
# Points summed by one matrix product in eta_many.
_PANEL_POINTS = 128
# Below this real part the Euler-transform sum has lost too many digits
# (about 3e-6 absolute on [-5, -4)); eta and zeta take the functional
# equation there instead.
_REFLECT_BELOW = -4.0

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class EvalOptions:
    """Truncation controls for the eta/zeta series."""

    tol: float = 1e-13
    max_terms: int = _TABLE_SIZE

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")
        if self.max_terms > _TABLE_SIZE:
            raise ValueError(f"max_terms must be at most {_TABLE_SIZE}")


DEFAULT_OPTIONS = EvalOptions()


def _lanczos(s: complex) -> tuple[complex, complex, complex]:
    # (x, t, series) of Gamma(s) = sqrt(2 pi) t**(x + 1/2) e**-t series,
    # x = s - 1, t = x + g + 1/2, for Re(s) >= 1/2
    x = s - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + k)
    return x, x + _LANCZOS_G + 0.5, acc


def _log_gamma(s: complex) -> complex:
    # a logarithm of Gamma(s) for Re(s) >= 1/2, from the same Lanczos form
    x, t, acc = _lanczos(s)
    return 0.5 * math.log(_TWO_PI) + (x + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _sin_pi(s: complex) -> complex:
    # sin(pi s), with s reduced exactly by the integer nearest its real part
    m = round(s.real)
    value = cmath.sin(math.pi * (s - m))
    return -value if m % 2 else value


def gamma(s: complex) -> complex:
    """Gamma function for complex s; raises PoleError at 0, -1, -2, ...

    Where the Lanczos power t**(s - 1/2) alone overflows (on the real
    axis from about s = 142.25) it is combined with exp(-t) in log space.
    Where the reflection's Gamma(1 - s) overflows (real s below about
    -170.6) the reflection is divided in log space, so subnormal values
    down to about s = -177 are returned too.  Raises DomainError where
    Gamma overflows (real s above about 171.6, or |s| below about
    5.6e-309) or underflows to zero.
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError("pole of Gamma")
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        sine = _sin_pi(s)
        try:
            value = math.pi / (sine * gamma(1.0 - s))
        except DomainError:
            pass
        else:
            # a subnormal sine next to 0 leaves the quotient infinite
            if not cmath.isfinite(value):
                raise DomainError(f"Gamma overflows at s = {s}")
            return value
        # |ratio| goes into the exponent, so a subnormal result is rounded once
        ratio = math.pi / sine
        size = abs(ratio)
        value = ratio / size * cmath.exp(math.log(size) - _log_gamma(1.0 - s))
        if value == 0.0:
            raise DomainError(
                f"Gamma(1 - s) overflows in the reflection and Gamma(s) "
                f"underflows to zero at s = {s}"
            )
        return value
    x, t, acc = _lanczos(s)
    try:
        value = math.sqrt(_TWO_PI) * t ** (x + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        value = complex(math.nan)
    if cmath.isfinite(value):
        return value
    # The power alone overflowed (raising, or as inf turning the product
    # into nan); fold exp(-t) into it.
    try:
        value = math.sqrt(_TWO_PI) * cmath.exp((x + 0.5) * cmath.log(t) - t) * acc
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"Gamma overflows at s = {s}")
    return value


# --------------------------------------------------------------------------
# Euler-transformation sum for the alternating zeta function:
#
#   eta(s) = sum_{n>=0} 2**-(n+1) sum_{k=0..n} (-1)**k C(n,k) (k+1)**-s
#
# The scaled binomials 2**-(n+1) C(n,k) never exceed 1/2; the inner
# cancellation stays harmless only while the weights (k+1)**-s stay
# moderate (see the module docstring).  Outer terms decay like 2**-n.
# Row n of _SCALED_BINOMIALS holds the scaled binomials of outer term n,
# so one matrix-vector product gives every outer term at once.
# --------------------------------------------------------------------------

def _scaled_binomial_table(size: int) -> np.ndarray:
    table = np.zeros((size, size))
    table[0, 0] = 0.5
    for n in range(1, size):
        table[n, 1 : n + 1] = table[n - 1, :n]
        table[n, :n] += table[n - 1, :n]
        table[n] *= 0.5
    return table.astype(complex)


_SCALED_BINOMIALS = _scaled_binomial_table(_TABLE_SIZE)
_LOG_K1 = np.log(np.arange(1, _TABLE_SIZE + 1, dtype=float))  # log(k+1)
_SIGNS = np.where(np.arange(_TABLE_SIZE) % 2 == 0, 1.0, -1.0)  # (-1)**k


def _euler_transform(weights: np.ndarray, opts: EvalOptions) -> complex | np.ndarray:
    # Sum the outer terms up to and including the third of three
    # consecutive terms below tol (all of them if that never happens).
    # A (m, P) weight matrix sums each of its P columns by that rule.
    m = opts.max_terms
    terms = _SCALED_BINOMIALS[:m, :m] @ weights
    small = np.abs(terms) < opts.tol
    run = small[:-2] & small[1:-1] & small[2:]
    stop = np.where(run.any(axis=0), run.argmax(axis=0) + 3, m)
    if weights.ndim == 1:
        return complex(terms[: int(stop)].sum())
    return np.where(np.arange(m)[:, None] < stop, terms, 0.0).sum(axis=0)


def _alternating_powers(s: complex | np.ndarray, count: int) -> np.ndarray:
    # (-1)**k (k+1)**-s for k = 0..count-1, one column per s of an array
    if np.ndim(s):
        return _SIGNS[:count, None] * np.exp(-s * _LOG_K1[:count, None])
    return _SIGNS[:count] * np.exp(-s * _LOG_K1[:count])


def eta(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Alternating zeta function (entire); see the module docstring for accuracy.

    Below Re(s) = -4 it is (1 - 2**(1-s)) zeta(s) by the functional
    equation of zeta.
    """
    s = complex(s)
    if s.real < _REFLECT_BELOW:
        return _zeta_reflected(s, opts, eta_factor=True)
    return _euler_transform(_alternating_powers(s, opts.max_terms), opts)


def eta_many(points: Sequence[complex], opts: EvalOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """eta at every point as one array, by one matrix product per block.

    Each point keeps its own stopping rule, so the values agree with
    ``eta`` up to the rounding of the matrix product; points below
    Re(s) = -4 take the scalar ``eta``.  Points go through
    in blocks of _PANEL_POINTS, which keeps each working array of the
    sum near 256 KB however many points there are.
    """
    s = np.asarray(points, dtype=complex)
    values = np.empty(len(s), dtype=complex)
    reflected = s.real < _REFLECT_BELOW
    for i in np.flatnonzero(reflected):
        values[i] = eta(s[i], opts)
    summed = np.flatnonzero(~reflected)
    for start in range(0, len(summed), _PANEL_POINTS):
        block = summed[start : start + _PANEL_POINTS]
        values[block] = _euler_transform(_alternating_powers(s[block], opts.max_terms), opts)
    return values


def eta_prime(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Derivative of eta, by termwise differentiation of the same sum.

    Raises IllConditionedError below Re(s) = -4, where the sum cancels.
    """
    s = complex(s)
    _reject_cancelling_sum(s)
    m = opts.max_terms
    return _euler_transform(-_LOG_K1[:m] * _alternating_powers(s, m), opts)


def _eta_zeta_factor(s: complex) -> complex:
    # 1 - 2**(1-s), evaluated without cancellation near s = 1
    w = (1.0 - s) * _LN2
    if w.imag == 0.0:
        return -math.expm1(w.real)
    if abs(w) < 1e-4:
        return -(w + w * w / 2.0 + w * w * w / 6.0)
    return -(cmath.exp(w) - 1.0)


def _reject_bad_points(s: complex) -> None:
    if s == 1.0:
        raise PoleError("pole of zeta")
    # complex zeros of 1 - 2**(1-s) sit at s = 1 + 2 pi i k / ln 2, k != 0
    k = round(s.imag * _LN2 / _TWO_PI)
    if k != 0 and abs(s - (1.0 + 2j * math.pi * k / _LN2)) < 1e-6:
        raise IllConditionedError("ill-conditioned point")


def _reject_cancelling_sum(s: complex) -> None:
    if s.real < _REFLECT_BELOW:
        raise IllConditionedError(
            f"derivative not available below Re(s) = {_REFLECT_BELOW}: "
            f"the Euler-transform sum cancels at s = {s}"
        )


def _sin_pi_scaled(s: complex) -> tuple[float, complex]:
    # (g, b) with sin(pi s) = e**g b and |b| <= 2: s is reduced exactly
    # as in _sin_pi, and cosh and sinh of y = pi Im(s) give up their
    # common factor e**|y| / 2 to g, so a large |Im(s)| cannot overflow
    m = round(s.real)
    x, y = math.pi * (s.real - m), math.pi * s.imag
    decay = -2.0 * abs(y)
    b = complex(
        math.sin(x) * (1.0 + math.exp(decay)),
        math.cos(x) * math.copysign(-math.expm1(decay), y),
    )
    return abs(y) - _LN2, -b if m % 2 else b


def _zeta_reflected(s: complex, opts: EvalOptions, eta_factor: bool = False) -> complex:
    # zeta(s) = 2 (2 pi)**(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), times
    # 1 - 2**(1-s) (giving eta) with eta_factor.  (2 pi)**(s-1) Gamma(1-s)
    # and the sine's growth in Im(s) are combined in log space, where the
    # sine's e**(pi |Im(s)|/2) cancels Gamma's decay; the sine is reduced
    # exactly, so the trivial zeros at negative even s come out as 0.
    w = 1.0 - s
    g, sine = _sin_pi_scaled(0.5 * s)
    try:
        scale = cmath.exp((s - 1.0) * math.log(_TWO_PI) + _log_gamma(w) + g)
        value = 2.0 * scale * sine * zeta(w, opts)
        if eta_factor:
            value *= _eta_zeta_factor(s)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"{'eta' if eta_factor else 'zeta'} overflows at s = {s}")
    # adding 0.0 turns a trivial zero's -0.0 into 0.0
    return value + 0.0


def zeta(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Riemann zeta via eta(s) / (1 - 2**(1-s)); s = 1 is a pole.

    Below Re(s) = -4 it comes from zeta(1 - s) by the functional
    equation; DomainError where that overflows double precision.
    """
    s = complex(s)
    _reject_bad_points(s)
    if s.real < _REFLECT_BELOW:
        return _zeta_reflected(s, opts)
    return eta(s, opts) / _eta_zeta_factor(s)


def zeta_prime(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Derivative of zeta, from the differentiated eta/zeta product.

    Raises IllConditionedError below Re(s) = -4, like eta_prime.
    """
    s = complex(s)
    _reject_bad_points(s)
    _reject_cancelling_sum(s)
    f = _eta_zeta_factor(s)
    z = eta(s, opts) / f
    return (eta_prime(s, opts) - _LN2 * (1.0 - f) * z) / f


def zeta_minus_pole(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """zeta(s) - 1/(s-1), with the removable singularity at s = 1 filled.

    Inside |s-1| < 0.05 the direct difference is ill-conditioned, so the
    value is extrapolated from the analytic ring: a cubic through the
    four points at radii 0.05 and 0.1 on the ray through s (both
    directions), evaluated at |s-1|.  At s = 1 this returns the
    extrapolated limit itself.
    """
    s = complex(s)
    d = s - 1.0
    if abs(d) >= 0.05:
        return zeta(s, opts) - 1.0 / d
    direction = d / abs(d) if d != 0.0 else 1.0 + 0.0j
    radii = (-0.1, -0.05, 0.05, 0.1)
    points = [1.0 + r * direction for r in radii]
    values = [zeta(p, opts) - 1.0 / (p - 1.0) for p in points]
    target = abs(d)
    result = 0.0 + 0.0j
    for i, (ri, vi) in enumerate(zip(radii, values)):
        basis = 1.0
        for j, rj in enumerate(radii):
            if j != i:
                basis *= (target - rj) / (ri - rj)
        result += vi * basis
    return result
