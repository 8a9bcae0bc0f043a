"""Registry binding each verifiable identity to two evaluation routes.

Every entry pairs a left-hand route with an algorithmically independent
right-hand route (the test suite measures which library functions both
sides call) and, for parameterized identities, carries the points
``verify_all`` runs.
Reports are machine-readable and never raise on numeric disagreement;
pass/fail is decided by absolute error against the identity's
tolerance, and a route whose quadrature did not converge fails.  All
evaluation is deterministic: the random panels for the
functional-equation and product-relation checks are drawn from a fixed
seed.
"""

from __future__ import annotations

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
# Largest sweep ``grid`` accepts, and the most values one axis builds.
MAX_GRID_POINTS = 10**6

# A route value is (value, evaluations), or the QuadratureResult of a
# quadrature, whose convergence the verdict needs too.  A route takes a
# sequence of points (None for an identity without parameter) and gives
# one route value per point.
RouteValue = tuple[complex, int] | core_numerics.QuadratureResult
Route = Callable[[Sequence[complex | None], float], list[RouteValue]]

# From this many points on, the eq12, eq15 and eq18 quadratures run the
# batched ladder, and eq15's rhs its eta panel, instead of point by
# point.  Measured by ``scripts/batch_threshold.py`` on a shared 2-core
# x86-64 VM, scalar against batched per family: 1 point 0.2-0.4 ms
# against 0.9-2.0 ms, 6 points 1.1-1.3 times slower batched, 8 points
# 0.84-0.86, 16 points 0.51-0.53.  One threshold serves all three.
_BATCH_MIN_POINTS = 8


@dataclass(frozen=True)
class Identity:
    """One registry entry: what the identity states, and how to check it.

    ``lhs``/``rhs`` are the two routes.  ``points`` are the parameter
    values ``verify_all`` runs; an identity is parameterized exactly
    when it has them.
    """

    id: str
    description: str
    s_domain: float | None
    excluded_points: tuple[complex, ...]
    default_tol: float
    lhs_route: str
    rhs_route: str
    lhs: Route
    rhs: Route
    points: tuple[complex, ...] = ()

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


def _pointwise(route: Callable[[complex | None, float], RouteValue]) -> Route:
    # A route of one point, run at every point in turn.
    def routes(points, tol):
        return [route(s, tol) for s in points]

    return routes


def _gamma_reference(s: complex | None, tol: float) -> tuple[complex, int]:
    est = constants.euler_formula_gamma(50)
    return complex(est.value), est.terms_or_n


def _outcome(value: RouteValue) -> tuple[complex, int, bool]:
    # (value, evaluations, converged); only a quadrature can fail to converge
    if isinstance(value, core_numerics.QuadratureResult):
        return value.value, value.evaluations, value.converged
    return (*value, True)


def _closed_form(value: float) -> Route:
    return _pointwise(lambda s, tol: (complex(value), 0))


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


def _quadrature(points, tol, single, many):
    # The quadrature route single at each point, or its batch many from
    # _BATCH_MIN_POINTS points on.
    if len(points) >= _BATCH_MIN_POINTS:
        return many(points, _quad_tol(tol))
    return [single(s, _quad_tol(tol)) for s in points]


def _eq12_lhs(points, tol):
    return _quadrature(points, tol, integral_forms.I_minus, integral_forms.I_minus_many)


def _eq12_rhs(s, tol):
    return integral_forms.rhs_eq12(s), 0


def _eq14_lhs(s, tol):
    # Richardson extrapolation in eps**2 of the symmetrized pole-removed
    # zeta at s = 1 +- {0.1, 0.05, 0.025}.  In exact arithmetic this is
    # zeta_minus_pole(1.0): all six values lie on its ring cubic, so each
    # level returns the cubic's constant term.  The stack costs 12 zeta
    # calls against the ring's 4, and rounds to ...773 against ...772;
    # it stays because that ulp moves eq14's abs_err further from gamma.
    zmp = special_functions.zeta_minus_pole
    e0, e1, e2 = (
        0.5 * (zmp(1.0 + eps) + zmp(1.0 - eps)) for eps in (0.1, 0.05, 0.025)
    )
    r1 = (4.0 * e1 - e0) / 3.0
    r2 = (4.0 * e2 - e1) / 3.0
    return (16.0 * r2 - r1) / 15.0, 6


def _eq15_lhs(points, tol):
    return _quadrature(points, tol, integral_forms.I_plus, integral_forms.I_plus_many)


def _eq15_rhs(points, tol):
    if len(points) >= _BATCH_MIN_POINTS:
        values = integral_forms.rhs_eq15_many(points)
    else:
        values = map(integral_forms.rhs_eq15, points)
    return [(value, 0) for value in values]


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


def _eq18_lhs(points, tol):
    return _quadrature(points, tol, integral_forms.fermi_dirac, integral_forms.fermi_dirac_many)


def _eq18_rhs(s, tol):
    return special_functions.gamma(s) * special_functions.eta(s), 0


def _wallis_lhs(s, tol):
    return complex(constants.wallis_partial(10**6)), 10**6


def _stirling_lhs(s, tol):
    return complex(constants.stirling_ratio(10**5)), 10**5


# --- parameter points ------------------------------------------------------

def _range_values(lo: float, hi: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("range bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("step must be positive")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * step:
            break
        if k == MAX_GRID_POINTS:
            raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} points")
        values.append(v)
        k += 1
    return values


def _grid_points(
    re_range: tuple[float, float, float], im_range: tuple[float, float, float]
) -> tuple[complex, ...]:
    # Row-major, re fastest.
    res, ims = _range_values(*re_range), _range_values(*im_range)
    if len(res) * len(ims) > MAX_GRID_POINTS:
        raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} points")
    return tuple(complex(r, i) for i in ims for r in res)


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
            _pointwise(_eq2_lhs), _pointwise(_gamma_reference),
        ),
        Identity(
            "eq3",
            "ln(4/pi) as the plus-kernel integral at s = -1",
            None, (), 1e-9,
            "plus-kernel quadrature at s = -1",
            "closed form ln 4 - ln pi",
            _pointwise(_eq3_lhs), _pointwise(_eq3_rhs),
        ),
        Identity(
            "eq4",
            "Euler's formula linking gamma, ln(4/pi) and zeta(n)/(2^n n)",
            None, (), 2e-6,
            "harmonic-rate series sum_n (1/n - ln((n+1)/n)), 10^6 terms",
            "ln(4/pi) + 2 sum (-1)^n zeta(n)/(2^n n), 50 terms",
            _pointwise(_eq4_lhs), _pointwise(_gamma_reference),
        ),
        Identity(
            "eq6",
            "zeta(2) as the unit-square integral of 1/(1-xy)",
            None, (), 1e-10,
            "reduced quadrature of (-ln u)/(1-u)",
            "closed form pi^2/6",
            _pointwise(_eq6_lhs), _closed_form(math.pi**2 / 6.0),
        ),
        Identity(
            "eq7",
            "zeta(3) as half the unit-square integral of -ln(xy)/(1-xy)",
            None, (), 1e-10,
            "reduced quadrature of (-ln u)^2/(2(1-u))",
            "zeta(3) by the alternating-series continuation",
            _pointwise(_eq7_lhs), _pointwise(_eq7_rhs),
        ),
        Identity(
            "eq9",
            "plus-kernel integral at s = -2 equals ln(pi^(1/2) A^6 / (2^(7/6) e))",
            None, (), 1e-8,
            "plus-kernel quadrature at s = -2",
            "closed form from ln A = 1/12 - zeta'(-1)",
            _pointwise(_eq9_lhs), _pointwise(_eq9_rhs),
        ),
        Identity(
            "eq10_limit",
            "Glaisher-Kinkelin constant as its hyperfactorial limit ratio",
            None, (), 1e-3,
            "hyperfactorial ratio at n = 10^5",
            "exp(1/12 - zeta'(-1))",
            _pointwise(_eq10_lhs), _pointwise(_eq10_rhs),
        ),
        Identity(
            "eq11",
            "alternating harmonic series equals ln 2",
            None, (), 1e-5,
            "alternating harmonic partial sum, 10^5 terms",
            "closed form ln 2",
            _pointwise(_eq11_lhs), _closed_form(math.log(2.0)),
        ),
        Identity(
            "eq12",
            "minus-kernel integral equals Gamma(s+2)[zeta(s+2) - 1/(s+1)]",
            -2.0, (-1.0 + 0.0j,), 1e-8,
            "minus-kernel quadrature",
            "Gamma(s+2) times pole-removed zeta at s+2",
            _eq12_lhs, _pointwise(_eq12_rhs),
            points=_grid_points((-1.5, 3.0, 0.5), (0.0, 1.0, 1.0)),
        ),
        Identity(
            "eq14",
            "zeta(s) - 1/(s-1) tends to Euler's constant as s -> 1",
            None, (), 1e-6,
            "Richardson extrapolation of pole-removed zeta to s = 1",
            "geometrically convergent zeta series for Euler's constant",
            _pointwise(_eq14_lhs), _pointwise(_gamma_reference),
        ),
        Identity(
            "eq15",
            "plus-kernel integral equals Gamma(s+2)[eta(s+2) + (1-2 eta(s+1))/(s+1)]",
            -3.0, (-1.0 + 0.0j, -2.0 + 0.0j), 1e-8,
            "plus-kernel quadrature",
            "Gamma(s+2) times the eta bracket",
            _eq15_lhs, _eq15_rhs,
            points=_grid_points((-2.5, 3.0, 0.5), (0.0, 2.0, 1.0)),
        ),
        Identity(
            "eq16",
            "Gamma functional equation Gamma(s+1) = s Gamma(s)",
            None, (), 1e-12,
            "Gamma(s+1)/s",
            "Gamma(s)",
            _pointwise(_eq16_lhs), _pointwise(_eq16_rhs),
            points=tuple(functional_equation_panel()),
        ),
        Identity(
            "eq17",
            "eta(s) = (1 - 2^(1-s)) zeta(s)",
            None, (), 1e-11,
            "eta by the Euler-transformation sum",
            "(1 - 2^(1-s)) zeta(s)",
            _pointwise(_eq17_lhs), _pointwise(_eq17_rhs),
            points=tuple(product_relation_panel()),
        ),
        Identity(
            "eq18",
            "integral of t^(s-1)/(e^t+1) equals Gamma(s) eta(s)",
            0.0, (), 1e-9,
            "Fermi-Dirac-type quadrature",
            "Gamma(s) eta(s)",
            _eq18_lhs, _pointwise(_eq18_rhs),
            points=(1 + 0j, 2 + 0j, 3.5 + 0j, 2 + 1j),
        ),
        Identity(
            "wallis",
            "alternating product of (n+1)/n factors converges to pi/2",
            None, (), 1e-6,
            "partial product, 10^6 factors",
            "closed form pi/2",
            _pointwise(_wallis_lhs), _closed_form(math.pi / 2.0),
        ),
        Identity(
            "stirling",
            "n!/(n^(n+1/2) e^-n) converges to sqrt(2 pi)",
            None, (), 1e-4,
            "factorial ratio at n = 10^5",
            "closed form sqrt(2 pi)",
            _pointwise(_stirling_lhs), _closed_form(math.sqrt(2.0 * math.pi)),
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


def _check_point(ident: Identity, s: complex | None) -> str | None:
    # Reason the point cannot be evaluated, or None if it can (always for
    # the None of an identity without parameter).
    if ident.s_domain is not None and s.real <= ident.s_domain + DOMAIN_MARGIN:
        return f"outside Re(s) > {ident.s_domain:g}"
    for point in ident.excluded_points:
        if abs(s - point) < EXCLUSION_RADIUS:
            return f"within exclusion radius of s = {point.real:g}"
    return None


def _effective_tol(ident: Identity, tol: float | None) -> float:
    effective_tol = ident.default_tol if tol is None else float(tol)
    if not 0.0 < effective_tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return effective_tol


def _evaluate(
    ident: Identity, points: list[complex | None], tol: float
) -> list[tuple[tuple[RouteValue, RouteValue], float]]:
    # Both route values at each point, with the point's share of their
    # time.  Each route runs once over all the points.
    start = time.perf_counter()
    try:
        sides = list(zip(ident.lhs(points, tol), ident.rhs(points, tol)))
    except (EulerLabError, ArithmeticError):
        if len(points) == 1:
            raise
        # Point by point, so the error raised is the first failing point's,
        # as a verify call there raises it.
        sides = [pair for s in points for pair in zip(ident.lhs([s], tol), ident.rhs([s], tol))]
    elapsed = (time.perf_counter() - start) / len(points)
    return [(pair, elapsed) for pair in sides]


def _reports(
    ident: Identity, points: Sequence[complex | None], tol: float | None
) -> list[VerificationReport | SkippedPoint]:
    # One entry per point, in order, for grid and verify_all.  Points are
    # validated here once, tol only if some point is evaluable, and verify
    # makes each report from the point's route values.
    reasons = [_check_point(ident, s) for s in points]
    evaluable = [s for s, r in zip(points, reasons) if r is None]
    if evaluable:
        tol = _effective_tol(ident, tol)
    sides = iter(_evaluate(ident, evaluable, tol) if evaluable else ())
    return [
        verify(ident.id, s, tol, _sides=next(sides))
        if reason is None else SkippedPoint(ident.id, s, reason)
        for s, reason in zip(points, reasons)
    ]


def verify(
    token: str, s: complex | None = None, tol: float | None = None, *, _sides=None
) -> VerificationReport:
    """Evaluate both routes of one identity and report the comparison.

    Numeric disagreement never raises; it comes back as pass=False, as
    does a quadrature route that did not converge.
    Unknown tokens, missing/superfluous s, and domain violations raise.
    Every report of ``grid`` and ``verify_all`` is made here too: they
    pass ``_sides``, an entry of ``_evaluate`` at a point they checked.
    """
    ident = get_identity(token)
    if _sides is None:
        if ident.parameterized and s is None:
            raise ValueError(f"identity {token} requires a parameter s")
        if not ident.parameterized and s is not None:
            raise ValueError(f"identity {token} is not parameterized")
        s = None if s is None else complex(s)
        reason = _check_point(ident, s)
        if reason is not None:
            raise DomainError(reason)
        tol = _effective_tol(ident, tol)
        _sides, = _evaluate(ident, [s], tol)
    pair, elapsed = _sides
    (lhs, lhs_evals, lhs_ok), (rhs, rhs_evals, rhs_ok) = map(_outcome, pair)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) >= 1e-300 else None
    passed = abs_err <= tol and lhs_ok and rhs_ok
    return VerificationReport(
        ident.id, s, complex(lhs), complex(rhs), abs_err, rel_err, tol, passed,
        ident.lhs_route, ident.rhs_route, lhs_evals + rhs_evals, elapsed,
    )


def grid(
    token: str,
    re_range: tuple[float, float, float],
    im_range: tuple[float, float, float],
    tol: float | None = None,
) -> list[VerificationReport | SkippedPoint]:
    """Sweep a rectangular grid of s values (row-major, re fastest).

    Points outside the identity's domain or inside an exclusion radius
    come back as SkippedPoint markers, not errors.  A non-finite bound,
    or more than MAX_GRID_POINTS points, raises ValueError first.
    """
    ident = get_identity(token)
    if not ident.parameterized:
        raise ValueError(f"identity {token} is not parameterized")
    return _reports(ident, _grid_points(re_range, im_range), tol)


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
        entries.extend(_reports(ident, ident.points or (None,), overrides.get(ident.id)))
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


def _json_template(keys: tuple[str, ...]) -> str:
    return "  {\n" + ",\n".join(f'    "{key}": %s' for key in keys) + "\n  }"


# to_json writes report_to_dict's fixed shape through these templates:
# json.dumps(indent=2) runs the standard library's pure-Python encoder.
_JSON_REPORT = _json_template((
    "id", "s", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass",
    "lhs_route", "rhs_route", "evaluations",
))
_JSON_SKIPPED = _json_template(("id", "s", "skipped", "reason"))
_JSON_COMPLEX = '{\n      "re": %s,\n      "im": %s\n    }'
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(x: float | int | bool | None) -> str:
    # what json.dumps writes for one float, int, bool or None
    if isinstance(x, float):
        text = float.__repr__(x)
        return _JSON_SPECIAL.get(text, text)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    return int.__repr__(x)


def _json_complex(z: complex | None) -> str:
    if z is None:
        return "null"
    return _JSON_COMPLEX % (_json_scalar(z.real), _json_scalar(z.imag))


def to_json(entries: Sequence[VerificationReport | SkippedPoint]) -> str:
    """``json.dumps([report_to_dict(e) for e in entries], indent=2)``, byte for byte."""
    if not entries:
        return "[]"
    text = json.encoder.encode_basestring_ascii
    items = []
    for e in entries:
        if isinstance(e, SkippedPoint):
            items.append(
                _JSON_SKIPPED % (text(e.id), _json_complex(e.s), "true", text(e.reason))
            )
            continue
        items.append(_JSON_REPORT % (
            text(e.id), _json_complex(e.s), _json_complex(e.lhs), _json_complex(e.rhs),
            _json_scalar(e.abs_err), _json_scalar(e.rel_err), _json_scalar(e.tol),
            _json_scalar(e.passed), text(e.lhs_route), text(e.rhs_route),
            _json_scalar(e.evaluations),
        ))
    return "[\n" + ",\n".join(items) + "\n]"


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
