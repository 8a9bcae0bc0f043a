"""Named constants, each reachable through at least two independent routes.

Every route returns a ConstantEstimate carrying the method used, the
term count or limit index, and an error bound where one is known.  All
factorial-sized quantities are evaluated in log space; the hyperfactorial
sum is accumulated with math.fsum so the limit-route error is dominated
by the limit itself, not by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import zeta, zeta_prime

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


def euler_gamma_series(n_terms: int) -> ConstantEstimate:
    """Partial sum of sum_n (1/n - ln((n+1)/n)); converges to Euler's gamma.

    The tail is below 1/(2N), which is reported as the error bound.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    n = np.arange(1, n_terms + 1, dtype=float)
    inv = 1.0 / n
    value = float(np.sum(inv - np.log1p(inv)))
    return ConstantEstimate(value, "series", n_terms, 0.5 / n_terms)


def euler_formula_gamma(n_terms: int) -> ConstantEstimate:
    """Euler's gamma from ln(4/pi) + 2 sum_{n>=2} (-1)**n zeta(n)/(2**n n).

    Terms decay like 2**-n, so 50 terms already exhaust double
    precision; this is the library's reference route for gamma.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be at least 2")
    total = math.log(4.0) - math.log(math.pi)
    for n in range(2, n_terms + 1):
        term = 2.0 * zeta(float(n)).real / (2.0**n * n)
        total += term if n % 2 == 0 else -term
    tail = zeta(float(n_terms + 1)).real / (2.0**n_terms * (n_terms + 1))
    # 1e-13 covers the rounding of the zeta values
    return ConstantEstimate(total, "euler_formula", n_terms, tail + 1e-13)


def ln_4_over_pi(n_terms: int, method: str = "series") -> ConstantEstimate:
    """ln(4/pi) by its alternating series, or directly as ln 4 - ln pi.

    The series remainder is bounded by the first omitted term.
    """
    if method == "closed_form":
        return ConstantEstimate(
            math.log(4.0) - math.log(math.pi), "closed_form", 1, 0.0
        )
    if method != "series":
        raise ValueError(f"unsupported method {method!r} for ln(4/pi)")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    n = np.arange(1, n_terms + 1, dtype=float)
    terms = 1.0 / n - np.log1p(1.0 / n)
    terms[1::2] *= -1.0
    value = float(np.sum(terms))
    m = n_terms + 1.0
    bound = 1.0 / m - math.log1p(1.0 / m)
    return ConstantEstimate(value, "series", n_terms, bound)


def ln2_series(n_terms: int) -> ConstantEstimate:
    """Partial sum of the alternating harmonic series 1 - 1/2 + 1/3 - ...

    Converges to ln 2; the bound is the first omitted term, 1/(N+1).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    n = np.arange(1, n_terms + 1, dtype=float)
    terms = 1.0 / n
    terms[1::2] *= -1.0
    # cumsum adds in order, so the value is bit for bit the term-by-term sum
    value = float(np.cumsum(terms)[-1])
    return ConstantEstimate(value, "series", n_terms, 1.0 / (n_terms + 1))


def wallis_partial(n_factors: int) -> float:
    """Partial product of ((n+1)/n)**(-1)**(n-1); converges to pi/2."""
    if n_factors < 1:
        raise ValueError("n_factors must be positive")
    n = np.arange(1, n_factors + 1, dtype=float)
    logs = np.log1p(1.0 / n)
    logs[1::2] *= -1.0
    return float(math.exp(np.sum(logs)))


def glaisher_limit(n: int) -> ConstantEstimate:
    """Hyperfactorial ratio 1^1 2^2 ... n^n / (n**(n^2/2+n/2+1/12) e**(-n^2/4)).

    Evaluated in log space as fsum(k ln(k/n)) + n^2/4 - (ln n)/12, which
    keeps the cancellation between the sum and the n^2/4 term exact.
    The 10/n bound is empirical; the true approach is much faster.  Per-term
    log rounding across the n^2/4-scale cancellation leaves a floating point
    floor ~2.5e-16 n^2 that overtakes 10/n beyond n ~ 3e5.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10**6:
        raise ValueError("n capped at 10**6")
    k = np.arange(1, n + 1, dtype=float)
    log_ratio = math.fsum(k * np.log(k / n)) + n * n / 4.0 - math.log(n) / 12.0
    bound = 10.0 / n + 2.5e-16 * n * n
    return ConstantEstimate(math.exp(log_ratio), "limit_ratio", n, bound)


def glaisher_zeta() -> ConstantEstimate:
    """Glaisher-Kinkelin constant as exp(1/12 - zeta'(-1)); reference route."""
    value = math.exp(1.0 / 12.0 - zeta_prime(-1.0).real)
    return ConstantEstimate(value, "zeta_route", 1, 1e-9)


def stirling_ratio(n: int) -> float:
    """n! / (n**(n+1/2) e**-n), in log space; converges to sqrt(2 pi)."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.exp(math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n)
