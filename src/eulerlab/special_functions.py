"""Gamma, the alternating zeta function, zeta, and their derivatives.

Gamma uses the 9-term Lanczos approximation (g = 7) on the right
half-plane and the reflection formula, with sin(pi s) reduced exactly,
elsewhere.  The alternating zeta function eta is summed by the
Euler-transformation double sum; zeta and its derivative are obtained
from eta through the factor 1 - 2**(1-s).  ``zeta_minus_pole`` fills the
removable singularity at s = 1 with the divided difference
[eta(s) - ln 2] / (s - 1), itself an Euler-transform sum (``_eta_divided``).

Relative error of gamma against mpmath (30 digits): below 2e-14 for
|Re(s)| <= 10 and |Im(s)| <= 2, growing with |s| to below 4e-13 for
|Re(s)| up to 170 and below 6e-13 for |Im(s)| up to 300.

``_gamma_many`` runs gamma's Lanczos and reflection branches over arrays
with gamma's bits: it writes out CPython's complex product, _Py_c_quot
(branching on |Re b| >= |Im b|), _Py_c_pow (hypot, pow, atan2, exp, log),
cmath.exp and cmath.sin, as numpy's complex * and / round apart (FMA).
np.hypot, np.float_power, np.cos, np.sin, the complex np.exp and np.sin
(below 708.4, where cmath rescales), and atan2, exp and log as parts of the
complex np.log and np.exp give libm's bits; np.power, np.arctan2 and the
float np.exp and np.log do not.  Other paths of gamma (pole, c_powi, log
space) take gamma itself.  Python 3.14 changed mixed float/complex
arithmetic, moving signed zeros; the bit tests against gamma guard this.

The sum converges geometrically for every complex s, but in double
precision its rows cancel once the weights (k+1)**-s grow.  Each outer
term n is known only to a few ulps of its row's magnitude sum
noise_n = sum_k 2**-(n+1) C(n,k) |(k+1)**-s|, so the sum stops by that
scale: after three consecutive outer terms below
max(16 eps noise_n, 1e-15); no caller sets a tolerance or a term count.
The 128-row table is lower-triangular: where every |Im(s)| is at most 8
(where every sum seen stopped within 60 rows) a sum takes its first 64
rows, and the rest only if a point has not stopped in them; each point
sums the same floats in the same order as over the whole table.
Error |f - mpmath| / max(1, |mpmath|) against mpmath (30 digits), with
-2 <= Im(s) <= 2 and s within 0.05 of the pole s = 1 left out: the
worst seen on 1100 seeded points per band (500 of them from
scripts/eta_accuracy.py), rounded up.

    Re(s)          eta      zeta     eta'     zeta'
    [-4, -3)       2e-10    6e-12    4e-10    1e-11
    [-3, -2)       2e-11    1e-12    3e-11    2e-12
    [-2, -1.5)     6e-13    1e-13    3e-12    3e-13
    [-1.5, -1)     2e-13    3e-14    5e-13    8e-14
    [-1, -0.5)     4e-14    1e-14    8e-14    3e-14
    [-0.5, 0)      2e-14    5e-15    3e-14    1e-14
    [0, 0.5)       3e-15    2e-15    7e-15    4e-15
    [0.5, 10)      1e-15    4e-15    2e-15    7e-15

It grows with |Im(s)|, to about 1e-12 at Im(s) = 60; from about
Im(s) = 80 the 128 rows no longer reach the sum's limit (1e-8 at
Im(s) = 100).  Below Re(s) = -4 the sum loses about a digit per unit
of Re(s) (1e-9 on [-5, -4), 1e-6 on [-8, -7)), so eta and zeta take
the functional equation there, from zeta(1 - s) where the sum is
accurate.  Relative error of eta and zeta against mpmath, same Im(s)
range:

    [-10, -4)           below 2e-14
    [-50, -10)          below 1e-13
    [-170, -50)         below 3e-13

At large Im(s) the error follows that of zeta(1 - s): 1.4e-12 at
-5+455i, 4.3e-11 at -5+600i.  There eta and zeta raise DomainError
where the value or a factor of the functional equation overflows (real
s below about -218.5 for eta and -260 for zeta), and the derivatives
eta_prime and zeta_prime raise IllConditionedError.  Every function
raises DomainError for an argument or a value that is not finite.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .core_numerics import _LOG_LARGE_DOUBLE, _abs
from .errors import DomainError, IllConditionedError, PoleError

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
# Rows (outer terms) of the Euler-transformation table.
_TABLE_SIZE = 128
# Points summed by one matrix product in eta_many.
_PANEL_POINTS = 128
# Rows of the table's first stage, and the largest |Im(s)| at which sums
# start there: of 20,000 seeded eta and eta' sums with Re(s) in [-4, 10], all
# up to it stopped within 60 rows, and a third on |Im(s)| in [10, 20] did not.
_HEAD_ROWS = 64
_HEAD_MAX_IM = 8.0
# Below this real part the Euler-transform sum has lost too many digits
# (about 3e-6 absolute on [-5, -4)); eta and zeta take the functional
# equation there instead.
_REFLECT_BELOW = -4.0
_OVERFLOW_FROM = 3.7e307  # max float / log 128: past Re(s) or |Im(s)| here -s log(k+1) overflows
# Within this distance of a removable singularity filled by _eta_divided
# (zeta_minus_pole's at 1, eq15's bracket at -1 and -2), where the direct
# difference cancels: the divided differences hold to 1e-13 of mpmath up to it.
_EXPANSION_RADIUS = 0.05

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


def _finite(s: complex) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"non-finite argument s = {s}")
    return s


def _lanczos(s: complex) -> tuple[complex, complex, complex]:
    # (x, t, series) of Gamma(s) = sqrt(2 pi) t**(x + 1/2) e**-t series,
    # x = s - 1, t = x + g + 1/2, for Re(s) >= 1/2
    x = s - 1.0
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS_COEFFS
    acc = (c0 + c1 / (x + 1) + c2 / (x + 2) + c3 / (x + 3) + c4 / (x + 4)
           + c5 / (x + 5) + c6 / (x + 6) + c7 / (x + 7) + c8 / (x + 8))
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
    Where the reflection's Gamma(1 - s), sin(pi s) or their product
    overflows (real s below about -170.6, |Im(s)| above about 226, or
    Gamma(s) below about 1e-308 in size) the reflection is divided in
    log space, so subnormal values down to about s = -177 are returned
    too.  Raises DomainError where Gamma overflows (real s above
    about 171.6, or |s| below about 5.6e-309) or underflows to zero (for
    Re(s) near 1/2 from about |Im(s)| = 470).
    """
    s = _finite(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError("pole of Gamma")
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        try:
            product = _sin_pi(s) * gamma(1.0 - s)
        except (OverflowError, DomainError):  # sin(pi s) or Gamma(1 - s)
            product = complex(math.inf)
        if cmath.isfinite(product):
            value = math.pi / product
            # a subnormal sine next to 0 leaves the quotient infinite
            if not cmath.isfinite(value):
                raise DomainError(f"Gamma overflows at s = {s}")
            return value
        # A factor or their product overflowed.  sin(pi s) = e**g b; g
        # and |pi / b| go into the exponent, so a subnormal result is
        # rounded once.
        g, b = _sin_pi_scaled(s)
        ratio = math.pi / b
        size = abs(ratio)
        value = ratio / size * cmath.exp(math.log(size) - g - _log_gamma(1.0 - s))
        if value == 0.0:
            raise DomainError(
                f"Gamma(s) underflows to zero at s = {s}: the reflection's "
                f"Gamma(1 - s), sin(pi s) or their product overflows"
            )
        return value
    x, t, acc = _lanczos(s)
    try:
        value = math.sqrt(_TWO_PI) * t ** (x + 0.5) * cmath.exp(-t) * acc
    except (OverflowError, ZeroDivisionError):  # the latter where its phase is not finite
        value = complex(math.nan)
    if cmath.isfinite(value) and value != 0.0:
        return value
    # The power alone overflowed (raising, or as inf turning the product
    # into nan) or underflowed; fold exp(-t) into it.
    exponent = (x + 0.5) * cmath.log(t) - t
    try:
        value = math.sqrt(_TWO_PI) * cmath.exp(exponent) * acc
    except OverflowError:
        value = complex(math.inf)
    except ValueError:  # an infinite phase, from |Im(s)| near max float: the size decides
        value = complex(math.inf if exponent.real > 0.0 else 0.0)
    if not cmath.isfinite(value):
        raise DomainError(f"Gamma overflows at s = {s}")
    if value == 0.0:
        raise DomainError(f"Gamma underflows to zero at s = {s}")
    return value


def _join(re: np.ndarray, im: np.ndarray) -> np.ndarray:  # re + i im, exactly
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _mul(a, b) -> np.ndarray:
    # CPython's complex product (a float x enters as x + 0j), without numpy's FMA
    return _join(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _quot(a, b) -> np.ndarray:
    # CPython's _Py_c_quot, branching on |Re b| >= |Im b|; nan where it raises
    (ar, ai), (br, bi) = (a.real, a.imag), (b.real, b.imag)
    big = abs(br) >= abs(bi)
    p, q = np.where(big, br, bi), np.where(big, bi, br)
    ratio = q / p
    denom = p + q * ratio
    u, v = np.where(big, ar, ai), np.where(big, ai, ar)
    return _join((u + v * ratio) / denom, np.where(big, ai - ar * ratio, ai * ratio - ar) / denom)


def _gamma_many(points: Sequence[complex], shift=0.0, single: Callable = gamma) -> np.ndarray:
    """gamma(s + shift) at every point s, each value gamma's to the bit (see the
    module docstring); a point gamma treats otherwise takes single(s) there."""
    s = np.asarray(points, dtype=complex)
    z = s + shift if shift else s
    reflect = z.real < 0.5
    with np.errstate(all="ignore"):
        x = np.where(reflect, 1.0 - z, z) - 1.0  # gamma(1 - z) for the reflection
        acc = _LANCZOS_COEFFS[0]
        for k, c in enumerate(_LANCZOS_COEFFS[1:], 1):
            acc = acc + _quot(c, x + k)
        t, e = x + _LANCZOS_G + 0.5, x + 0.5
        # t**e as _Py_c_pow forms it.  Im(e) = 0 means Im(e), Im(t) and atan2 are
        # +0.0, so dividing by exp(0) and adding 0 log |t| keep the bits.
        size, at = _abs(t), np.log(t).imag
        turn = at * e.imag
        length = np.float_power(size, e.real) / np.exp(turn.astype(complex)).real
        phase = at * e.real + e.imag * np.log(size.astype(complex)).real
        power = _join(length * np.cos(phase), length * np.sin(phase))
        values = _mul(_mul(_mul(math.sqrt(_TWO_PI), power), np.exp(-t)), acc)
        powi = (e.imag == 0.0) & (e.real == np.floor(e.real)) & (abs(e.real) <= 100.0)
        ok = ~powi & (turn < _LOG_LARGE_DOUBLE) & np.isfinite(values) & (values != 0.0)
        # _sin_pi: sin(pi (z - m)), m the integer nearest Re(z), negated for odd m
        m = np.rint(z.real)
        w = _mul(math.pi, z - m)
        product = _mul(np.where(m % 2.0 == 0.0, np.sin(w), -np.sin(w)), values)
        quotient = _quot(math.pi, product)
        bent = ((abs(w.imag) <= _LOG_LARGE_DOUBLE) & np.isfinite(product) & (product != 0.0)
                & np.isfinite(quotient))
        pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
        ok &= np.isfinite(z) & ~pole & (~reflect | bent)
    values = np.where(reflect, quotient, values)
    for i in np.flatnonzero(~ok).tolist():
        values[i] = single(complex(s[i]))
    return values


# --------------------------------------------------------------------------
# Euler-transformation sum for the alternating zeta function:
#
#   eta(s) = sum_{n>=0} 2**-(n+1) sum_{k=0..n} (-1)**k C(n,k) (k+1)**-s
#
# The scaled binomials 2**-(n+1) C(n,k) never exceed 1/2; the inner
# cancellation stays harmless only while the weights (k+1)**-s stay
# moderate (see the module docstring).  Outer terms decay like 2**-n.
# Row n of _SCALED_BINOMIALS holds the scaled binomials of outer term n,
# so one matrix product gives the outer terms of any first rows from their
# weights alone, and one on |w_k| each term's rounding scale noise_n.
# --------------------------------------------------------------------------

# Where the rows cancel (Re(s) below about -0.5) a term below 16 ulps of
# noise_n is rounding noise, and every further row would only add more.
_NOISE_ULPS = 16.0 * np.finfo(float).eps
# Where they do not, noise_n shrinks with the terms, and rows below the
# last bit of the O(1) sum would still be added (costing an ulp in the
# reference Euler-gamma route).
_TERM_FLOOR = 1e-15


def _scaled_binomial_table(size: int) -> np.ndarray:
    table = np.zeros((size, size))
    table[0, 0] = 0.5
    for n in range(1, size):
        table[n, 1 : n + 1] = table[n - 1, :n]
        table[n, :n] += table[n - 1, :n]
        table[n] *= 0.5
    return table


_SCALED_BINOMIALS = _scaled_binomial_table(_TABLE_SIZE)
# The outer terms come from a complex product with a complex copy of the
# table: real products on the real and imaginary parts round differently,
# and leave the reference Euler-gamma and Glaisher routes an ulp or more
# further from their constants.
_COMPLEX_BINOMIALS = _SCALED_BINOMIALS.astype(complex)
_LOG_K1 = np.log(np.arange(1, _TABLE_SIZE + 1, dtype=float))  # log(k+1)
_SIGNS = np.where(np.arange(_TABLE_SIZE) % 2 == 0, 1.0, -1.0)  # (-1)**k


def _euler_transform(weights: np.ndarray, rest=None) -> complex | np.ndarray:
    # Sum the outer terms up to and including the third of three consecutive
    # small terms (all of them if that never happens), each column of a
    # (rows, P) weight matrix by itself.  weights may hold the first rows
    # only; rest(rows) gives the later rows' weights where a column needs them.
    rows = len(weights)
    terms = _COMPLEX_BINOMIALS[:rows, :rows] @ weights
    noise = _SCALED_BINOMIALS[:rows, :rows] @ np.abs(weights)
    while True:
        small = np.abs(terms) < np.maximum(_NOISE_ULPS * noise, _TERM_FLOOR)
        run = small[:-2] & small[1:-1] & small[2:]
        if (stopped := run.any(axis=0)).all() or len(terms) == _TABLE_SIZE:
            break
        weights = np.concatenate((weights, rest(slice(rows, None))))
        terms = np.concatenate((terms, _COMPLEX_BINOMIALS[rows:] @ weights))
        noise = np.concatenate((noise, _SCALED_BINOMIALS[rows:] @ np.abs(weights)))
    stop = np.where(stopped, run.argmax(axis=0) + 3, _TABLE_SIZE)
    if weights.ndim == 1:
        return complex(terms[: int(stop)].sum())
    return np.where(np.arange(len(terms))[:, None] < stop, terms, 0.0).sum(axis=0)


def _alternating_powers(s: complex | np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    # (-1)**k (k+1)**-s for the rows k, one column per s of an array
    if isinstance(s, np.ndarray):
        return _SIGNS[rows, None] * np.exp(-s * _LOG_K1[rows, None])
    return _SIGNS[rows] * np.exp(-s * _LOG_K1[rows])


def _eta_sum(s: complex | np.ndarray, weigh=None) -> complex | np.ndarray:
    # The sum with weights weigh(rows), by default _alternating_powers(s, rows), at a
    # point or array of points with Re(s) >= -4.  From _OVERFLOW_FROM on weights are 0
    # or nan (nan raises in the caller); numpy's warning is silenced there only.
    re, im = s.real, abs(s.imag)
    if isinstance(s, np.ndarray):
        re, im = max(re.tolist()), max(im.tolist())
    head = _HEAD_ROWS if im <= _HEAD_MAX_IM else _TABLE_SIZE
    quiet = max(re, im) >= _OVERFLOW_FROM
    weigh = weigh or (lambda rows: _alternating_powers(s, rows))
    with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
        return _euler_transform(weigh(slice(head)), weigh)


def _part_powers(re: np.ndarray, im: np.ndarray) -> Callable:
    # weigh(re_at, im_at, rows) = _alternating_powers(re[re_at] + i im[im_at], rows)
    # to the bit, from exp(-re log(k+1)) per real part and exp(-i im log(k+1)) per
    # imaginary part: with Re(s) >= -4 the real exponent stays below 20, and below
    # 708 numpy's complex exp is exp(Re) times cos(Im) and sin(Im) (core_numerics.
    # _complex_powers).  A zero phase's sign may differ; the signs' product makes it +0.
    scale = np.exp(np.outer(_LOG_K1, -re) + 0j).real
    phase = np.exp(-1j * np.outer(_LOG_K1, im))

    def weigh(re_at: np.ndarray, im_at: np.ndarray, rows: slice) -> np.ndarray:
        powers, factor = phase[rows][:, im_at], scale[rows][:, re_at]
        powers.real *= factor
        powers.imag *= factor
        return _SIGNS[rows, None] * powers
    return weigh


def _finite_value(name: str, s: complex, value: complex) -> complex:
    # the value of name at s, or DomainError where it overflowed
    if not cmath.isfinite(value):
        raise DomainError(f"{name} overflows at s = {s}")
    return value


def eta(s: complex) -> complex:
    """Alternating zeta function (entire); see the module docstring for accuracy.

    Below Re(s) = -4 it is (1 - 2**(1-s)) zeta(s) by the functional
    equation of zeta.
    """
    s = _finite(s)
    if s.real < _REFLECT_BELOW:
        return _zeta_reflected(s, eta_factor=True)
    return _finite_value("eta", s, _eta_sum(s))


def eta_many(points: Sequence[complex]) -> np.ndarray:
    """eta at every point as one array, by one matrix product per block.

    Each point keeps its own stopping rule, and its value is the same
    alone and among any points: a lone point is summed as two columns, as
    BLAS rounds a one-column product (gemv) otherwise than a wider one
    (gemm), which rounds each column alike.  Past _PANEL_POINTS points each
    distinct point is summed once, its weights formed per distinct real and
    imaginary part where points share few.  The values agree with ``eta``
    up to the rounding of the matrix product; points below Re(s) = -4 take
    the scalar ``eta``.  Blocks of _PANEL_POINTS keep each array in 256 KB.
    """
    s = np.asarray(points, dtype=complex)
    if not np.isfinite(s).all():
        raise DomainError(f"non-finite argument among s = {s[~np.isfinite(s)]}")
    values = np.empty(len(s), dtype=complex)
    reflected = s.real < _REFLECT_BELOW
    values[reflected] = [eta(p) for p in s[reflected].tolist()]
    summed = np.flatnonzero(~reflected)
    args, sums, columns, at, powers = s, values, summed, None, None
    if len(summed) > _PANEL_POINTS:
        re, re_at = np.unique(s[summed].real.view(np.int64), return_inverse=True)
        if len(re) < len(summed):  # else no two points are alike
            im, im_at = np.unique(s[summed].imag.view(np.int64), return_inverse=True)
            _, first, at = np.unique(re_at * len(im) + im_at, return_index=True,
                                     return_inverse=True)
            args, re_at, im_at = s[summed[first]], re_at[first], im_at[first]
            sums, columns = np.empty(len(first), dtype=complex), np.arange(len(first))
            if (2 * (len(re) + len(im)) <= len(first)
                    and max(args.real.max(), abs(args.imag).max()) < _OVERFLOW_FROM):
                powers = _part_powers(re.view(float), im.view(float))
    for start in range(0, len(columns), _PANEL_POINTS):
        block = columns[start : start + _PANEL_POINTS]
        block = block.repeat(2) if len(block) == 1 else block
        sums[block] = _eta_sum(args[block], powers and (
            lambda rows, b=block: powers(re_at[b], im_at[b], rows)))
    if at is not None:
        values[summed] = sums[at]
    if not np.isfinite(values).all():
        raise DomainError(f"eta overflows at s = {s[~np.isfinite(values)]}")
    return values


def eta_prime(s: complex) -> complex:
    """Derivative of eta, by termwise differentiation of the same sum.

    Raises IllConditionedError below Re(s) = -4, where the sum cancels.
    """
    s = _finite(s)
    _reject_cancelling_sum(s)
    return _finite_value("eta_prime", s, _eta_sum(
        s, lambda rows: -_LOG_K1[rows] * _alternating_powers(s, rows)))


def _eta_divided(a: float, w: complex) -> complex:
    # [eta(a + w) - eta(a)] / w for a = 1, 0 or -1, where the Euler transform gives
    # eta(a) exactly (ln 2, 1/2, 1/4; Sondow, Proc. AMS 120, 1994), and eta'(a) at
    # w = 0: the sum with weights (-1)**k (k+1)**-a ((k+1)**-w - 1) / w, their ratio
    # (e**x - 1) / x, x = -w log(k+1), from expm1 and 1 where x = 0.
    def weigh(rows: slice) -> np.ndarray:
        x = -w * _LOG_K1[rows]
        zero = x == 0.0
        x[zero] = 1.0
        ratio = np.where(zero, 1.0, np.expm1(x) / x)
        return -_LOG_K1[rows] * _alternating_powers(a, rows) * ratio
    return _eta_sum(a + w, weigh)


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


def _zeta_reflected(s: complex, eta_factor: bool = False) -> complex:
    # zeta(s) = 2 (2 pi)**(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), times
    # 1 - 2**(1-s) (giving eta) with eta_factor.  (2 pi)**(s-1) Gamma(1-s)
    # and the sine's growth in Im(s) are combined in log space, where the
    # sine's e**(pi |Im(s)|/2) cancels Gamma's decay; the sine is reduced
    # exactly, so the trivial zeros at negative even s come out as 0.
    w = 1.0 - s
    g, sine = _sin_pi_scaled(0.5 * s)
    try:
        scale = cmath.exp((s - 1.0) * math.log(_TWO_PI) + _log_gamma(w) + g)
        value = 2.0 * scale * sine * zeta(w)
        if eta_factor:
            value *= _eta_zeta_factor(s)
    except OverflowError:
        value = complex(math.inf)
    # adding 0.0 turns a trivial zero's -0.0 into 0.0
    return _finite_value("eta" if eta_factor else "zeta", s, value) + 0.0


def zeta(s: complex) -> complex:
    """Riemann zeta via eta(s) / (1 - 2**(1-s)); s = 1 is a pole.

    Below Re(s) = -4 it comes from zeta(1 - s) by the functional
    equation; DomainError where that overflows double precision.
    """
    s = _finite(s)
    _reject_bad_points(s)
    if s.real < _REFLECT_BELOW:
        return _zeta_reflected(s)
    return _finite_value("zeta", s, eta(s) / _eta_zeta_factor(s))


def zeta_prime(s: complex) -> complex:
    """Derivative of zeta, from the differentiated eta/zeta product.

    Raises IllConditionedError below Re(s) = -4, like eta_prime.
    """
    s = _finite(s)
    _reject_bad_points(s)
    _reject_cancelling_sum(s)
    f = _eta_zeta_factor(s)
    z = eta(s) / f
    return _finite_value("zeta_prime", s, (eta_prime(s) - _LN2 * (1.0 - f) * z) / f)


def zeta_minus_pole(s: complex) -> complex:
    """zeta(s) - 1/(s-1), with the removable singularity at s = 1 filled.

    Inside |s-1| < _EXPANSION_RADIUS, where the direct difference is
    ill-conditioned, w = s - 1 and z = -w ln 2 give 1 - 2**-w =
    w ln 2 (1 + z F), with F = (e**z - 1 - z) / z**2 by its Taylor series,
    and eta(s) = ln 2 + w D, with D = ``_eta_divided(1, w)``; the value is
    (D + ln(2)**2 F) / (ln 2 (1 + z F)), Euler's constant at s = 1.
    """
    s = _finite(s)
    w = s - 1.0
    if abs(w) >= _EXPANSION_RADIUS:
        return zeta(s) - 1.0 / w
    z = -w * _LN2
    f = sum(z**j / math.factorial(j + 2) for j in range(10))
    return (_eta_divided(1.0, w) + _LN2 * _LN2 * f) / (_LN2 * (1.0 + z * f))
