"""Shared reference values and small independent oracles.

The frozen constants below were cross-checked against high-precision
arbitrary-precision evaluation before being pinned; everything else in
the suite is recomputed through routes independent of the code paths
they check.

The oracles are the paper's identities in their literal forms:
``integrate_unit_square`` with ``integrand_2d`` integrates the double
integrals over the unit square as the paper states them, and
``sum_series`` sums a series term by term.  No route of the library
runs them (a literal square integral costs more than all of
``eulerlab all``), so they live here, where the tests check the exact
1D reductions and the ``constants`` series against them.

The reduced kernels have no scalar function in the library: the ladders
form a ``PowerKernel`` at their nodes.  ``kernel_value`` forms one at a
point by the same operations, and ``plus_kernel``, ``minus_kernel`` and
``fermi_dirac_kernel`` are the three families' kernels as functions of
(s, t).
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

from typing import Callable, NamedTuple

import pytest

from eulerlab import integral_forms
from eulerlab.core_numerics import PowerKernel, QuadratureResult, integrate_finite
from eulerlab.errors import DomainError

SRC = str(Path(__file__).resolve().parents[1] / "src")

# frozen reference constants (correctly rounded doubles)
EULER_GAMMA = 0.5772156649015329
GLAISHER_A = 1.2824271291006226
ZETA_3 = 1.2020569031595942
ZETA_PRIME_MINUS_1 = -0.16542114370045094
LN_4_OVER_PI = 0.24156447527049044

# closed form of the plus-kernel integral at s = -2:
# ln(pi^(1/2) A^6 / (2^(7/6) e))
EQ9_VALUE = (
    0.5 * math.log(math.pi)
    + 6.0 * math.log(GLAISHER_A)
    - 7.0 / 6.0 * math.log(2.0)
    - 1.0
)


def power(t: float, s: complex) -> complex:
    """t**s for real t > 0 through the real logarithm."""
    if s.imag == 0.0:
        return t**s.real
    return cmath.exp(s * math.log(t))


def kernel_value(kernel: PowerKernel, t: float) -> complex:
    """The kernel at t > 0, t**exponents[k] * f1 * f2 / d with (k, f1, f2, d) = form(t)."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    k, f1, f2, d = kernel.form(t)
    return power(t, kernel.exponents[k]) * f1 * f2 / d


def plus_kernel(s: complex, t: float) -> complex:
    """t**s (t - 1 + e**-t)/(e**t + 1), the plus-kernel family's integrand."""
    return kernel_value(integral_forms._PLUS.kernel(s), t)


def minus_kernel(s: complex, t: float) -> complex:
    """t**s (t - 1 + e**-t)/(e**t - 1), the minus-kernel family's integrand."""
    return kernel_value(integral_forms._MINUS.kernel(s), t)


def fermi_dirac_kernel(s: complex, t: float) -> complex:
    """t**(s-1)/(e**t + 1), the Fermi-Dirac-type integrand."""
    return kernel_value(integral_forms._FERMI_DIRAC.kernel(s), t)


def dirichlet_eta_partial(s: complex, n_terms: int) -> complex:
    """Direct alternating Dirichlet sum (valid oracle for Re(s) > 0)."""
    total = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        term = n ** (-s)
        total += term if n % 2 else -term
    return total


def central_difference(f, s: complex, h: float = 1e-5) -> complex:
    return (f(s + h) - f(s - h)) / (2.0 * h)


def integrand_2d(sign: int, s: complex, x: float, y: float) -> complex:
    """(1-x)/(1 + sign*xy) * (-ln xy)**s on the open unit square, sign = +1 or -1."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError("x and y must lie in the open unit interval")
    neg_log = -(math.log(x) + math.log(y))
    return (1.0 - x) / (1.0 + sign * x * y) * power(neg_log, complex(s))


def integrate_unit_square(
    f: Callable[[float, float], complex], tol: float
) -> QuadratureResult:
    """Integrate f over the open unit square by iterated tanh-sinh, x inside y.

    Singularities are allowed on the boundary only.  Achievable
    tolerances are looser than in one dimension; requests below ~1e-6
    may come back with converged=False.
    """
    inner_tol = tol / 20.0
    outer_tol = 0.8 * tol
    inner_evals = 0
    inner_excess = 0.0

    def sliced(y: float) -> complex:
        nonlocal inner_evals, inner_excess
        inner = integrate_finite(lambda x: f(x, y), 0.0, 1.0, inner_tol)
        inner_evals += inner.evaluations
        if not inner.converged:
            # Unconverged slices sit next to a boundary singularity; weight
            # their residual by the outer measure they can influence
            # (tanh-sinh outer weight <= ~150 * distance to the boundary).
            inner_excess += inner.abs_error_estimate * 150.0 * min(y, 1.0 - y)
        return inner.value

    outer = integrate_finite(sliced, 0.0, 1.0, outer_tol)
    return QuadratureResult(
        outer.value,
        outer.abs_error_estimate + inner_tol + inner_excess,
        inner_evals,
        outer.converged and inner_excess <= 0.1 * tol,
    )


class SeriesResult(NamedTuple):
    """Partial sum of a series and its remainder bound (None: unknown)."""

    value: complex
    terms_used: int
    remainder_bound: float | None
    converged: bool


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
    monotonically decreasing term magnitudes); otherwise it is None.
    ``converged`` is False when the cap was reached before the tolerance.
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


@pytest.fixture(scope="session")
def gamma_reference():
    from eulerlab.constants import euler_formula_gamma

    return euler_formula_gamma(50).value


def run_bounded(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` with 1 GiB of address space and a 60 s
    timeout, so a loop that never ends fails (MemoryError in the child,
    or TimeoutExpired here) instead of hanging the suite."""
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", limit + code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
