"""Shared reference values and small independent oracles.

The frozen constants below were cross-checked against high-precision
arbitrary-precision evaluation before being pinned; everything else in
the suite is recomputed through routes independent of the code paths
they check.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def dirichlet_eta_partial(s: complex, n_terms: int) -> complex:
    """Direct alternating Dirichlet sum (valid oracle for Re(s) > 0)."""
    total = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        term = n ** (-s)
        total += term if n % 2 else -term
    return total


def central_difference(f, s: complex, h: float = 1e-5) -> complex:
    return (f(s + h) - f(s - h)) / (2.0 * h)


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
