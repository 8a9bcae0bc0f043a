"""Registry binding each verifiable identity to two evaluation routes.

Every entry pairs a left-hand route with an algorithmically independent
right-hand route (the two self-checks of single functions excepted) and,
for parameterized identities, carries the points ``verify_all`` runs.
Reports are machine-readable and never raise on numeric disagreement;
pass/fail is decided by absolute error against the identity's
tolerance, and a route whose quadrature did not converge fails.  All
evaluation is deterministic: the random panels for the
functional-equation and product-relation checks are drawn from a fixed
seed.
"""

from __future__ import annotations

import contextvars
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import constants, core_numerics, integral_forms, special_functions
from .errors import DomainError, EulerLabError, PoleError

EXCLUSION_RADIUS = 1e-6
# Quadrature-backed routes keep a margin above the mathematical domain edge.
DOMAIN_MARGIN = 0.01
PANEL_SEED = 0x5EED

# A route gives (value, evaluations), or the QuadratureResult of a
# quadrature, whose convergence the verdict needs too.
RouteValue = tuple[complex, int] | core_numerics.QuadratureResult
Route = Callable[[complex | None, float], RouteValue]
# A route over many points at once: one route value per point.
BatchRoute = Callable[[Sequence[complex], float], list[RouteValue]]

# Below this many evaluable points a sweep runs its routes point by
# point.  Measured for eq15 on a shared 2-core x86-64 VM: a batch of one
# point costs 1.2-2.4 ms against 0.23-0.44 ms for the scalar routes, and
# the two break even at 8-10 points.
_BATCH_MIN_POINTS = 8


@dataclass(frozen=True)
class Identity:
    """One registry entry: what the identity states, and how to check it.

    ``lhs``/``rhs`` are the two routes; ``lhs_ops``/``rhs_ops`` name the
    operations each route calls directly (the audit surface for route
    independence); ``self_check`` marks the two single-function
    consistency relations whose sides necessarily share that function.
    ``points`` are the parameter values ``verify_all`` runs; an identity
    is parameterized exactly when it has them.  ``lhs_many``/``rhs_many``
    optionally compute the same two routes for many points at once;
    sweeps of enough points use them.
    """

    id: str
    description: str
    s_domain: float | None
    excluded_points: tuple[complex, ...]
    default_tol: float
    lhs_route: str
    rhs_route: str
    lhs_ops: tuple[str, ...]
    rhs_ops: tuple[str, ...]
    lhs: Route
    rhs: Route
    points: tuple[complex, ...] = ()
    self_check: bool = False
    lhs_many: BatchRoute | None = None
    rhs_many: BatchRoute | None = None

    @property
    def parameterized(self) -> bool:
        return bool(self.points)


@dataclass(frozen=True)
class VerificationReport:
    id: str
    s: complex | None
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float | None
    tol: float
    passed: bool
    lhs_route: str
    rhs_route: str
    evaluations: int
    elapsed: float


@dataclass(frozen=True)
class SkippedPoint:
    id: str
    s: complex
    reason: str


def _quad_tol(tol: float) -> float:
    return max(tol / 10.0, 1e-12)


def _gamma_reference(s: complex | None, tol: float) -> tuple[complex, int]:
    est = constants.euler_formula_gamma(50)
    return complex(est.value), est.terms_or_n


def _outcome(value: RouteValue) -> tuple[complex, int, bool]:
    # (value, evaluations, converged); only a quadrature can fail to converge
    if isinstance(value, core_numerics.QuadratureResult):
        return value.value, value.evaluations, value.converged
    return (*value, True)


def _closed_form(value: float) -> Route:
    value = complex(value)

    def route(s, tol):
        return value, 0

    return route


# --- route implementations (closed forms use _closed_form) -----------------

def _eq2_lhs(s, tol):
    return integral_forms.I_minus(-1.0, _quad_tol(tol))


def _eq3_lhs(s, tol):
    return integral_forms.I_plus(-1.0, _quad_tol(tol))


def _eq3_rhs(s, tol):
    return complex(constants.ln_4_over_pi(1, "closed_form").value), 0


def _eq4_lhs(s, tol):
    est = constants.euler_gamma_series(10**6)
    return complex(est.value), est.terms_or_n


def _eq6_lhs(s, tol):
    return integral_forms.beukers_reduced(2, _quad_tol(tol))


def _eq7_lhs(s, tol):
    return integral_forms.beukers_reduced(3, _quad_tol(tol))


def _eq7_rhs(s, tol):
    return special_functions.zeta(3.0), 0


def _eq9_lhs(s, tol):
    return integral_forms.I_plus(-2.0, _quad_tol(tol))


def _eq9_rhs(s, tol):
    ln_a = math.log(constants.glaisher_zeta().value)
    value = 0.5 * math.log(math.pi) + 6.0 * ln_a - 7.0 / 6.0 * math.log(2.0) - 1.0
    return complex(value), 0


def _eq10_lhs(s, tol):
    est = constants.glaisher_limit(10**5)
    return complex(est.value), est.terms_or_n


def _eq10_rhs(s, tol):
    return complex(constants.glaisher_zeta().value), 0


def _eq11_lhs(s, tol):
    est = constants.ln2_series(10**5)
    return complex(est.value), est.terms_or_n


def _eq12_lhs(s, tol):
    return integral_forms.I_minus(s, _quad_tol(tol))


def _eq12_rhs(s, tol):
    return integral_forms.rhs_eq12(s), 0


def _eq14_lhs(s, tol):
    # Richardson extrapolation in eps**2 of the symmetrized pole-removed
    # zeta at s = 1 +- {0.1, 0.05, 0.025}.
    zmp = special_functions.zeta_minus_pole
    e0, e1, e2 = (
        0.5 * (zmp(1.0 + eps) + zmp(1.0 - eps)) for eps in (0.1, 0.05, 0.025)
    )
    r1 = (4.0 * e1 - e0) / 3.0
    r2 = (4.0 * e2 - e1) / 3.0
    return (16.0 * r2 - r1) / 15.0, 6


def _eq15_lhs(s, tol):
    return integral_forms.I_plus(s, _quad_tol(tol))


def _eq15_rhs(s, tol):
    return integral_forms.rhs_eq15(s), 0


def _eq15_lhs_many(points, tol):
    return integral_forms.I_plus_many(points, _quad_tol(tol))


def _eq15_rhs_many(points, tol):
    return [(value, 0) for value in integral_forms.rhs_eq15_many(points)]


def _eq16_lhs(s, tol):
    if s == 0.0:
        # the recurrence form divides by s; the point is a Gamma pole anyway
        raise PoleError("pole of Gamma")
    return special_functions.gamma(s + 1.0) / s, 0


def _eq16_rhs(s, tol):
    return special_functions.gamma(s), 0


def _eq17_lhs(s, tol):
    return special_functions.eta(s), 0


def _eq17_rhs(s, tol):
    return (1.0 - 2.0 ** (1.0 - s)) * special_functions.zeta(s), 0


def _eq18_lhs(s, tol):
    return integral_forms.fermi_dirac(s, _quad_tol(tol))


def _eq18_rhs(s, tol):
    return special_functions.gamma(s) * special_functions.eta(s), 0


def _wallis_lhs(s, tol):
    return complex(constants.wallis_partial(10**6)), 10**6


def _stirling_lhs(s, tol):
    return complex(constants.stirling_ratio(10**5)), 10**5


# --- parameter points ------------------------------------------------------

def _range_values(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0.0:
        raise ValueError("step must be positive")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * step:
            break
        values.append(v)
        k += 1
    return values


def _grid_points(
    re_range: tuple[float, float, float], im_range: tuple[float, float, float]
) -> tuple[complex, ...]:
    # Row-major, re fastest.
    res = _range_values(*re_range)
    return tuple(complex(r, i) for i in _range_values(*im_range) for r in res)


def _seeded_panel(
    count: int,
    re_lo: float,
    re_hi: float,
    im_lo: float,
    im_hi: float,
    avoid: tuple[complex, ...],
    min_distance: float,
) -> list[complex]:
    rng = random.Random(PANEL_SEED)
    points: list[complex] = []
    while len(points) < count:
        s = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        if all(abs(s - a) >= min_distance for a in avoid):
            points.append(s)
    return points


def functional_equation_panel(count: int = 200) -> list[complex]:
    """Seeded panel for the Gamma functional equation, clear of poles."""
    return _seeded_panel(count, -3.0, 5.0, -3.0, 3.0, (0j, -1 + 0j, -2 + 0j, -3 + 0j), 0.25)


def product_relation_panel(count: int = 25) -> list[complex]:
    """Seeded panel for the eta/zeta product relation, clear of s = 1."""
    return _seeded_panel(count, -3.0, 5.0, -3.0, 3.0, (1 + 0j,), 0.25)


_REGISTRY: dict[str, Identity] = {
    ident.id: ident
    for ident in (
        Identity(
            "eq2",
            "Euler's constant as the minus-kernel integral at s = -1",
            None, (), 1e-9,
            "minus-kernel quadrature at s = -1",
            "geometrically convergent zeta series for Euler's constant",
            ("integral_forms.I_minus",),
            ("constants.euler_formula_gamma",),
            _eq2_lhs, _gamma_reference,
        ),
        Identity(
            "eq3",
            "ln(4/pi) as the plus-kernel integral at s = -1",
            None, (), 1e-9,
            "plus-kernel quadrature at s = -1",
            "closed form ln 4 - ln pi",
            ("integral_forms.I_plus",),
            ("constants.ln_4_over_pi",),
            _eq3_lhs, _eq3_rhs,
        ),
        Identity(
            "eq4",
            "Euler's formula linking gamma, ln(4/pi) and zeta(n)/(2^n n)",
            None, (), 2e-6,
            "harmonic-rate series sum_n (1/n - ln((n+1)/n)), 10^6 terms",
            "ln(4/pi) + 2 sum (-1)^n zeta(n)/(2^n n), 50 terms",
            ("constants.euler_gamma_series",),
            ("constants.euler_formula_gamma",),
            _eq4_lhs, _gamma_reference,
        ),
        Identity(
            "eq6",
            "zeta(2) as the unit-square integral of 1/(1-xy)",
            None, (), 1e-10,
            "reduced quadrature of (-ln u)/(1-u)",
            "closed form pi^2/6",
            ("integral_forms.beukers_reduced",),
            (),
            _eq6_lhs, _closed_form(math.pi**2 / 6.0),
        ),
        Identity(
            "eq7",
            "zeta(3) as half the unit-square integral of -ln(xy)/(1-xy)",
            None, (), 1e-10,
            "reduced quadrature of (-ln u)^2/(2(1-u))",
            "zeta(3) by the alternating-series continuation",
            ("integral_forms.beukers_reduced",),
            ("special_functions.zeta",),
            _eq7_lhs, _eq7_rhs,
        ),
        Identity(
            "eq9",
            "plus-kernel integral at s = -2 equals ln(pi^(1/2) A^6 / (2^(7/6) e))",
            None, (), 1e-8,
            "plus-kernel quadrature at s = -2",
            "closed form from ln A = 1/12 - zeta'(-1)",
            ("integral_forms.I_plus",),
            ("constants.glaisher_zeta",),
            _eq9_lhs, _eq9_rhs,
        ),
        Identity(
            "eq10_limit",
            "Glaisher-Kinkelin constant as its hyperfactorial limit ratio",
            None, (), 1e-3,
            "hyperfactorial ratio at n = 10^5",
            "exp(1/12 - zeta'(-1))",
            ("constants.glaisher_limit",),
            ("constants.glaisher_zeta",),
            _eq10_lhs, _eq10_rhs,
        ),
        Identity(
            "eq11",
            "alternating harmonic series equals ln 2",
            None, (), 1e-5,
            "alternating harmonic partial sum, 10^5 terms",
            "closed form ln 2",
            ("constants.ln2_series",),
            (),
            _eq11_lhs, _closed_form(math.log(2.0)),
        ),
        Identity(
            "eq12",
            "minus-kernel integral equals Gamma(s+2)[zeta(s+2) - 1/(s+1)]",
            -2.0, (-1.0 + 0.0j,), 1e-8,
            "minus-kernel quadrature",
            "Gamma(s+2) times pole-removed zeta at s+2",
            ("integral_forms.I_minus",),
            ("integral_forms.rhs_eq12", "special_functions.gamma",
             "special_functions.zeta_minus_pole"),
            _eq12_lhs, _eq12_rhs,
            points=_grid_points((-1.5, 3.0, 0.5), (0.0, 1.0, 1.0)),
        ),
        Identity(
            "eq14",
            "zeta(s) - 1/(s-1) tends to Euler's constant as s -> 1",
            None, (), 1e-6,
            "Richardson extrapolation of pole-removed zeta to s = 1",
            "geometrically convergent zeta series for Euler's constant",
            ("special_functions.zeta_minus_pole",),
            ("constants.euler_formula_gamma",),
            _eq14_lhs, _gamma_reference,
        ),
        Identity(
            "eq15",
            "plus-kernel integral equals Gamma(s+2)[eta(s+2) + (1-2 eta(s+1))/(s+1)]",
            -3.0, (-1.0 + 0.0j, -2.0 + 0.0j), 1e-8,
            "plus-kernel quadrature",
            "Gamma(s+2) times the eta bracket",
            ("integral_forms.I_plus",),
            ("integral_forms.rhs_eq15", "special_functions.gamma",
             "special_functions.eta", "special_functions.eta_prime"),
            _eq15_lhs, _eq15_rhs,
            points=_grid_points((-2.5, 3.0, 0.5), (0.0, 2.0, 1.0)),
            lhs_many=_eq15_lhs_many, rhs_many=_eq15_rhs_many,
        ),
        Identity(
            "eq16",
            "Gamma functional equation Gamma(s+1) = s Gamma(s)",
            None, (), 1e-12,
            "Gamma(s+1)/s",
            "Gamma(s)",
            ("special_functions.gamma",),
            ("special_functions.gamma",),
            _eq16_lhs, _eq16_rhs,
            points=tuple(functional_equation_panel()),
            self_check=True,
        ),
        Identity(
            "eq17",
            "eta(s) = (1 - 2^(1-s)) zeta(s)",
            None, (), 1e-11,
            "eta by the Euler-transformation sum",
            "(1 - 2^(1-s)) zeta(s)",
            ("special_functions.eta",),
            ("special_functions.zeta",),
            _eq17_lhs, _eq17_rhs,
            points=tuple(product_relation_panel()),
            self_check=True,
        ),
        Identity(
            "eq18",
            "integral of t^(s-1)/(e^t+1) equals Gamma(s) eta(s)",
            0.0, (), 1e-9,
            "Fermi-Dirac-type quadrature",
            "Gamma(s) eta(s)",
            ("integral_forms.fermi_dirac",),
            ("special_functions.gamma", "special_functions.eta"),
            _eq18_lhs, _eq18_rhs,
            points=(1 + 0j, 2 + 0j, 3.5 + 0j, 2 + 1j),
        ),
        Identity(
            "wallis",
            "alternating product of (n+1)/n factors converges to pi/2",
            None, (), 1e-6,
            "partial product, 10^6 factors",
            "closed form pi/2",
            ("constants.wallis_partial",),
            (),
            _wallis_lhs, _closed_form(math.pi / 2.0),
        ),
        Identity(
            "stirling",
            "n!/(n^(n+1/2) e^-n) converges to sqrt(2 pi)",
            None, (), 1e-4,
            "factorial ratio at n = 10^5",
            "closed form sqrt(2 pi)",
            ("constants.stirling_ratio",),
            (),
            _stirling_lhs, _closed_form(math.sqrt(2.0 * math.pi)),
        ),
    )
}


def list_identities() -> list[Identity]:
    """All registry entries in stable order."""
    return list(_REGISTRY.values())


def get_identity(token: str) -> Identity:
    try:
        return _REGISTRY[token]
    except KeyError:
        raise ValueError(f"unknown identity: {token!r}") from None


def _check_point(ident: Identity, s: complex) -> str | None:
    # Reason the point cannot be evaluated, or None if it can.
    if ident.s_domain is not None and s.real <= ident.s_domain + DOMAIN_MARGIN:
        return f"outside Re(s) > {ident.s_domain:g}"
    for point in ident.excluded_points:
        if abs(s - point) < EXCLUSION_RADIUS:
            return f"within exclusion radius of s = {point.real:g}"
    return None


def _effective_tol(ident: Identity, tol: float | None) -> float:
    effective_tol = ident.default_tol if tol is None else float(tol)
    if not effective_tol > 0.0:
        raise ValueError("tol must be positive")
    return effective_tol


def verify(
    token: str, s: complex | None = None, tol: float | None = None
) -> VerificationReport:
    """Evaluate both routes of one identity and report the comparison.

    Numeric disagreement never raises; it comes back as pass=False, as
    does a quadrature route that did not converge.
    Unknown tokens, missing/superfluous s, and domain violations raise.
    """
    ident = get_identity(token)
    if ident.parameterized and s is None:
        raise ValueError(f"identity {token} requires a parameter s")
    if not ident.parameterized and s is not None:
        raise ValueError(f"identity {token} is not parameterized")
    if s is not None:
        s = complex(s)
        reason = _check_point(ident, s)
        if reason is not None:
            raise DomainError(reason)
    effective_tol = _effective_tol(ident, tol)
    start = time.perf_counter()
    batched = (_BATCH.get() or {}).get((token, effective_tol, s))
    if batched is None:
        batched = ident.lhs(s, effective_tol), ident.rhs(s, effective_tol)
    (lhs, lhs_evals, lhs_ok), (rhs, rhs_evals, rhs_ok) = map(_outcome, batched)
    elapsed = time.perf_counter() - start
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) >= 1e-300 else None
    return VerificationReport(
        id=token,
        s=s,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_err=abs_err,
        rel_err=rel_err,
        tol=effective_tol,
        passed=abs_err <= effective_tol and lhs_ok and rhs_ok,
        lhs_route=ident.lhs_route,
        rhs_route=ident.rhs_route,
        evaluations=lhs_evals + rhs_evals,
        elapsed=elapsed,
    )


# Route values a sweep computed in one batch, keyed by (identity id, tol,
# s) and read by that sweep's own verify calls.  A context variable, so
# concurrent callers never see each other's batch.
_BATCH: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "eulerlab_route_batch", default=None
)


def _route_batch(ident: Identity, points: list[complex], tol: float | None):
    # The batch for _BATCH, or None where the sweep runs point by point.
    if ident.lhs_many is None or len(points) < _BATCH_MIN_POINTS:
        return None
    effective_tol = _effective_tol(ident, tol)
    try:
        lhs = ident.lhs_many(points, effective_tol)
        rhs = ident.rhs_many(points, effective_tol)
    except (EulerLabError, ArithmeticError):
        # The point-by-point loop raises the same error at its point.
        return None
    return {(ident.id, effective_tol, s): pair for s, pair in zip(points, zip(lhs, rhs))}


def _evaluate_points(
    ident: Identity, points: Sequence[complex], tol: float | None
) -> list[VerificationReport | SkippedPoint]:
    reasons = [_check_point(ident, s) for s in points]
    evaluable = [s for s, reason in zip(points, reasons) if reason is None]
    token = _BATCH.set(_route_batch(ident, evaluable, tol))
    try:
        return [
            verify(ident.id, s, tol) if reason is None
            else SkippedPoint(ident.id, s, reason)
            for s, reason in zip(points, reasons)
        ]
    finally:
        _BATCH.reset(token)


def grid(
    token: str,
    re_range: tuple[float, float, float],
    im_range: tuple[float, float, float],
    tol: float | None = None,
) -> list[VerificationReport | SkippedPoint]:
    """Sweep a rectangular grid of s values (row-major, re fastest).

    Points outside the identity's domain or inside an exclusion radius
    come back as SkippedPoint markers, not errors.
    """
    ident = get_identity(token)
    if not ident.parameterized:
        raise ValueError(f"identity {token} is not parameterized")
    return _evaluate_points(ident, _grid_points(re_range, im_range), tol)


def verify_all(
    tol_overrides: dict[str, float] | None = None,
) -> list[VerificationReport | SkippedPoint]:
    """Run every identity: point identities once, parameterized ones on
    their default points.  The aggregate passes iff every report does."""
    overrides = tol_overrides or {}
    for token in overrides:
        get_identity(token)
    entries: list[VerificationReport | SkippedPoint] = []
    for ident in list_identities():
        tol = overrides.get(ident.id)
        if ident.parameterized:
            entries.extend(_evaluate_points(ident, ident.points, tol))
        else:
            entries.append(verify(ident.id, None, tol))
    return entries


def all_passed(entries: Iterable[VerificationReport | SkippedPoint]) -> bool:
    return all(
        entry.passed for entry in entries if isinstance(entry, VerificationReport)
    )


# --- serialization ---------------------------------------------------------

def _complex_dict(z: complex | None) -> dict[str, float] | None:
    return None if z is None else {"re": z.real, "im": z.imag}


def report_to_dict(entry: VerificationReport | SkippedPoint) -> dict:
    """JSON-ready dict; elapsed is omitted so outputs stay byte-stable."""
    if isinstance(entry, SkippedPoint):
        return {
            "id": entry.id,
            "s": _complex_dict(entry.s),
            "skipped": True,
            "reason": entry.reason,
        }
    return {
        "id": entry.id,
        "s": _complex_dict(entry.s),
        "lhs": _complex_dict(entry.lhs),
        "rhs": _complex_dict(entry.rhs),
        "abs_err": entry.abs_err,
        "rel_err": entry.rel_err,
        "tol": entry.tol,
        "pass": entry.passed,
        "lhs_route": entry.lhs_route,
        "rhs_route": entry.rhs_route,
        "evaluations": entry.evaluations,
    }


def to_json(entries: Sequence[VerificationReport | SkippedPoint]) -> str:
    return json.dumps([report_to_dict(e) for e in entries], indent=2)


CSV_HEADER = "id,s_re,s_im,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tol,pass"


def to_csv(entries: Sequence[VerificationReport | SkippedPoint]) -> str:
    lines = [CSV_HEADER]
    for entry in entries:
        if isinstance(entry, SkippedPoint):
            lines.append(
                f"{entry.id},{entry.s.real!r},{entry.s.imag!r},,,,,,,,skipped"
            )
            continue
        s_re = "" if entry.s is None else repr(entry.s.real)
        s_im = "" if entry.s is None else repr(entry.s.imag)
        rel = "" if entry.rel_err is None else repr(entry.rel_err)
        lines.append(
            ",".join(
                [
                    entry.id,
                    s_re,
                    s_im,
                    repr(entry.lhs.real),
                    repr(entry.lhs.imag),
                    repr(entry.rhs.real),
                    repr(entry.rhs.imag),
                    repr(entry.abs_err),
                    rel,
                    repr(entry.tol),
                    "true" if entry.passed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
