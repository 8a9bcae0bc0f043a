"""Named constants, each reachable through at least two independent routes.

Every route returns a ConstantEstimate carrying the method used, the
term count or limit index, and an error bound where one is known.  All
factorial-sized quantities are evaluated in log space; the hyperfactorial
sum is math.fsum's correctly rounded float, reached by exact extraction
without a list (_exact_sum), so the limit-route error is dominated by the
limit itself, not by rounding.  Each route caps its term count.

The long partial sums (Euler's gamma series, the Wallis log-product and
the ln(4/pi) series) are evaluated in blocks of at most _BLOCK terms, so
no temporary outgrows the cache.  The value is still the float that
``np.sum`` gives over the whole term array: numpy adds a contiguous array
pairwise, splitting at half the length rounded down to a multiple of 8,
and _pairwise_sum walks that same tree, sums each leaf of at most _BLOCK
terms with ``np.sum`` and adds the leaf sums back up in the tree's order.
Euler's gamma series and the Wallis log-product share one walk, which
takes ln(1 + 1/n) once a leaf.  Within a _memo_scope (``verify_all``
opens one for its call) the walk, euler_formula_gamma and glaisher_zeta
run once per arguments; outside one, every call computes afresh.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable, Iterator
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .special_functions import _eta_zeta_factor, eta_many, zeta, zeta_prime

METHODS = ("series", "limit_ratio", "closed_form", "zeta_route", "euler_formula")


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    method: str
    terms_or_n: int
    error_bound: float | None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


# 2**14 float64 terms, 128 KB a temporary, reused from leaf to leaf.  With
# glibc malloc, 256 KB temporaries of a route called on its own are mapped
# afresh for every leaf: about 4,800 page faults a 10**6-term sum, which
# then takes 2.5 times as long.
_BLOCK = 2**14


# (function, arguments) -> value, set only within a _memo_scope
_MEMO: ContextVar[dict] = ContextVar("eulerlab_constants_memo")


@contextlib.contextmanager
def _memo_scope() -> Iterator[None]:
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _once_per_scope(fn):
    # the lookup stays in this closure: routes share no library function through it
    @functools.wraps(fn)
    def once(*args, **kwargs):
        memo = _MEMO.get({})  # a throwaway dict outside a scope
        key = (fn, args, *kwargs.items())
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return once


@_once_per_scope
def _pairwise_sum(terms: Callable[[int, int], tuple], count: int) -> tuple[float, ...]:
    """float(np.sum(a)) for each array a of terms(1, count + 1), one leaf at a time.

    ``terms(lo, hi)`` returns arrays of the terms of n = lo, ..., hi - 1.
    """

    def node(lo: int, size: int) -> tuple[float, ...]:
        if size <= _BLOCK:
            return tuple(float(np.sum(a)) for a in terms(lo, lo + size))
        half = size // 2
        half -= half % 8
        return tuple(a + b for a, b in zip(node(lo, half), node(lo + half, size - half)))

    return node(1, count)


def _exact_sum(x: np.ndarray, scratch: np.ndarray) -> float:
    """math.fsum(x.tolist()) without the list; overwrites x and scratch.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): with max|x| < 2**e and len(x) <= 2**m, sigma = 2**(e + m + 1)
    splits x exactly into q = (x + sigma) - sigma, multiples of 2**(e+m-52)
    that np.sum adds exactly in any order, and x - q, which is split in turn.
    """
    partials = []
    big = float(np.abs(x, out=scratch).max(initial=0.0))
    if not 0.0 < big < 2.0**900:  # fsum's zero sign, inf, nan and errors
        return math.fsum(x.tolist())
    while big:
        e = math.frexp(big)[1] + math.frexp(x.size)[1] + 1
        if e < -1021:  # its unit 2**(e - 53) would underflow
            return math.fsum(partials + x[x != 0.0].tolist())
        sigma = math.ldexp(1.0, e)
        np.subtract(np.add(x, sigma, out=scratch), sigma, out=scratch)
        partials.append(float(np.sum(scratch)))
        x -= scratch
        big = float(np.abs(x, out=scratch).max())
    return math.fsum(partials)


def _log_terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    # 1/n and ln((n+1)/n) for n = lo, ..., hi - 1
    inv = np.arange(lo, hi, dtype=float)
    np.divide(1.0, inv, out=inv)
    return inv, np.log1p(inv)


def _alternate(terms: np.ndarray, lo: int) -> np.ndarray:
    # negate the terms of even n; the block starts at n = lo
    terms[lo % 2 :: 2] *= -1.0
    return terms


def _series_terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    # 1/n - ln((n+1)/n) (Euler's gamma) and (-1)**(n-1) ln((n+1)/n) (Wallis)
    inv, logs = _log_terms(lo, hi)
    return np.subtract(inv, logs, out=inv), _alternate(logs, lo)


def _ln_4_over_pi_terms(lo: int, hi: int) -> tuple[np.ndarray]:
    inv, logs = _log_terms(lo, hi)
    return (_alternate(np.subtract(inv, logs, out=logs), lo),)


def euler_gamma_series(n_terms: int) -> ConstantEstimate:
    """Partial sum of sum_n (1/n - ln((n+1)/n)); converges to Euler's gamma.

    The tail, below 1/(2N), is reported as the error bound; N <= 10**8.
    """
    if not 1 <= n_terms <= 10**8:
        raise ValueError("n_terms must lie in [1, 10**8]")
    value = _pairwise_sum(_series_terms, n_terms)[0]
    return ConstantEstimate(value, "series", n_terms, 0.5 / n_terms)


@_once_per_scope
def euler_formula_gamma(n_terms: int) -> ConstantEstimate:
    """Euler's gamma from ln(4/pi) + 2 sum_{n>=2} (-1)**n zeta(n)/(2**n n).

    Terms decay like 2**-n, so 50 terms already exhaust double
    precision; this is the library's reference route for gamma.  The
    zeta values come from one ``eta_many`` call, each as it is alone (N
    = 2 too).  Some are an ulp or two off the scalar ``zeta``, but for
    every N up to 200 the total is the float that scalar calls give; the
    tail of the error bound, an ulp-sensitive product, keeps the scalar
    ``zeta``.  N <= 10**3 (2**N overflows from N = 1024).
    """
    if not 2 <= n_terms <= 10**3:
        raise ValueError("n_terms must lie in [2, 10**3]")
    etas = eta_many([float(n) for n in range(2, n_terms + 1)]).real.tolist()
    total = math.log(4.0) - math.log(math.pi)
    for n, value in enumerate(etas, start=2):
        term = 2.0 * (value / _eta_zeta_factor(n)) / (2.0**n * n)
        total += term if n % 2 == 0 else -term
    tail = zeta(float(n_terms + 1)).real / (2.0**n_terms * (n_terms + 1))
    # 1e-13 covers the rounding of the zeta values
    return ConstantEstimate(total, "euler_formula", n_terms, tail + 1e-13)


def ln_4_over_pi(n_terms: int, method: str = "series") -> ConstantEstimate:
    """ln(4/pi) by its alternating series, or directly as ln 4 - ln pi.

    The series remainder is below the first omitted term; N <= 10**8.
    """
    if method == "closed_form":
        return ConstantEstimate(
            math.log(4.0) - math.log(math.pi), "closed_form", 1, 0.0
        )
    if method != "series":
        raise ValueError(f"unsupported method {method!r} for ln(4/pi)")
    if not 1 <= n_terms <= 10**8:
        raise ValueError("n_terms must lie in [1, 10**8]")
    (value,) = _pairwise_sum(_ln_4_over_pi_terms, n_terms)
    m = n_terms + 1.0
    bound = 1.0 / m - math.log1p(1.0 / m)
    return ConstantEstimate(value, "series", n_terms, bound)


def ln2_series(n_terms: int) -> ConstantEstimate:
    """Partial sum of the alternating harmonic series 1 - 1/2 + 1/3 - ...

    Converges to ln 2; the bound is the first omitted term, 1/(N+1).  All
    N terms are held in one array, so N <= 10**7.
    """
    if not 1 <= n_terms <= 10**7:
        raise ValueError("n_terms must lie in [1, 10**7]")
    terms = np.arange(1, n_terms + 1, dtype=float)
    np.divide(1.0, terms, out=terms)
    terms[1::2] *= -1.0
    # cumsum adds in order, so the value is bit for bit the term-by-term sum
    value = float(np.cumsum(terms, out=terms)[-1])
    return ConstantEstimate(value, "series", n_terms, 1.0 / (n_terms + 1))


def wallis_partial(n_factors: int) -> float:
    """Product of ((n+1)/n)**(-1)**(n-1) over n <= N <= 10**8; converges to pi/2."""
    if not 1 <= n_factors <= 10**8:
        raise ValueError("n_factors must lie in [1, 10**8]")
    return math.exp(_pairwise_sum(_series_terms, n_factors)[1])


def glaisher_limit(n: int) -> ConstantEstimate:
    """Hyperfactorial ratio 1^1 2^2 ... n^n / (n**(n^2/2+n/2+1/12) e**(-n^2/4)).

    Evaluated in log space as fsum(k ln(k/n)) + n^2/4 - (ln n)/12, which
    keeps the cancellation between the sum and the n^2/4 term exact; the sum
    is fsum's float, reached in two n-term arrays without a list (_exact_sum).
    The 10/n bound is empirical; the true approach is much faster.  Per-term
    log rounding across the n^2/4-scale cancellation leaves a floating point
    floor ~2.5e-16 n^2 that overtakes 10/n beyond n ~ 3e5; n <= 10**6.
    """
    if not 1 <= n <= 10**6:
        raise ValueError("n must lie in [1, 10**6]")
    k = np.arange(1, n + 1, dtype=float)
    terms = np.divide(k, n)
    np.log(terms, out=terms)
    terms *= k  # k ln(k/n), the same products in place
    log_ratio = _exact_sum(terms, k) + n * n / 4.0 - math.log(n) / 12.0
    bound = 10.0 / n + 2.5e-16 * n * n
    return ConstantEstimate(math.exp(log_ratio), "limit_ratio", n, bound)


@_once_per_scope
def glaisher_zeta() -> ConstantEstimate:
    """Glaisher-Kinkelin constant as exp(1/12 - zeta'(-1)); reference route."""
    value = math.exp(1.0 / 12.0 - zeta_prime(-1.0).real)
    return ConstantEstimate(value, "zeta_route", 1, 1e-9)


def stirling_ratio(n: int) -> float:
    """n! / (n**(n+1/2) e**-n) in log space, n <= 10**7; tends to sqrt(2 pi)."""
    if not 1 <= n <= 10**7:
        raise ValueError("n must lie in [1, 10**7]")
    return math.exp(math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n)
