"""eulerlab: special functions and dual-route verification of the
classical identities around Euler's constant, ln(4/pi), the
Glaisher-Kinkelin constant, and the alternating zeta function."""

from types import ModuleType as _ModuleType

from .core_numerics import (
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
    integrate_semi_infinite_many,
)
from .constants import (
    ConstantEstimate,
    euler_formula_gamma,
    euler_gamma_series,
    glaisher_limit,
    glaisher_zeta,
    ln2_series,
    ln_4_over_pi,
    stirling_ratio,
    wallis_partial,
)
from .errors import (
    DomainError,
    EulerLabError,
    IllConditionedError,
    IntegrandError,
    PoleError,
)
from .identity_engine import (
    Identity,
    SkippedPoint,
    VerificationReport,
    all_passed,
    grid,
    list_identities,
    verify,
    verify_all,
)
from .integral_forms import (
    I_minus,
    I_plus,
    I_plus_many,
    beukers_reduced,
    fermi_dirac,
    rhs_eq12,
    rhs_eq15,
    rhs_eq15_many,
)
from .special_functions import (
    eta,
    eta_many,
    eta_prime,
    gamma,
    zeta,
    zeta_minus_pole,
    zeta_prime,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
