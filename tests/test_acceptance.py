"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 12 asserts first-order (halving) convergence for both
limit ratios at n in {1e3, 2e3, 1e4, 2e4}; the hyperfactorial ratio
actually converges at second order (its error quarters, reaching the
double-precision noise floor by n ~ 1e4), so that clause fails by
construction and is reported honestly rather than loosened.
"""

import json
import math
import time

import pytest

from eulerlab import identity_engine as engine
from eulerlab.cli import main as cli_main
from eulerlab.constants import (
    euler_formula_gamma,
    euler_gamma_series,
    glaisher_limit,
    glaisher_zeta,
    ln_4_over_pi,
    stirling_ratio,
)
from eulerlab.integral_forms import (
    I_minus,
    I_plus,
    beukers_reduced,
    fermi_dirac,
    rhs_eq12,
    rhs_eq15,
)
from eulerlab.special_functions import eta, eta_prime, gamma, zeta, zeta_minus_pole

from conftest import integrand_2d, integrate_unit_square


def _conclude(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def gamma_ref():
    return euler_formula_gamma(50).value


def test_criterion_01_euler_constant_integral(gamma_ref):
    start = time.perf_counter()
    quad_err = abs(I_minus(-1.0, 1e-10).value - gamma_ref)
    series_err = abs(euler_gamma_series(10**6).value - gamma_ref)
    elapsed = time.perf_counter() - start
    ok = quad_err <= 1e-9 and series_err <= 1e-6 and elapsed < 1.0
    assert _conclude(
        "criterion 01 (Euler constant, minus kernel)",
        ok,
        f"quad_err={quad_err:.2e}, series_err={series_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_ln_4_over_pi_integral():
    closed = math.log(4.0) - math.log(math.pi)
    quad_err = abs(I_plus(-1.0, 1e-10).value - closed)
    series = ln_4_over_pi(10**5)
    series_err = abs(series.value - closed)
    ok = quad_err <= 1e-9 and series_err <= series.error_bound
    assert _conclude(
        "criterion 02 (ln(4/pi), plus kernel)",
        ok,
        f"quad_err={quad_err:.2e}, series_err={series_err:.2e} <= {series.error_bound:.2e}",
    )


def test_criterion_03_hyperfactorial_evaluation():
    a_zeta = glaisher_zeta().value
    closed = (
        0.5 * math.log(math.pi)
        + 6.0 * math.log(a_zeta)
        - 7.0 / 6.0 * math.log(2.0)
        - 1.0
    )
    quad_err = abs(I_plus(-2.0, 1e-9).value - closed)
    route_gap = abs(a_zeta - glaisher_limit(10**5).value)
    ok = quad_err <= 1e-8 and route_gap < 1e-4
    assert _conclude(
        "criterion 03 (plus kernel at s = -2)",
        ok,
        f"quad_err={quad_err:.2e}, A route gap={route_gap:.2e}",
    )


def test_criterion_04_minus_kernel_grid(gamma_ref):
    worst = 0.0
    evaluated = 0
    for re_part in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        for im_part in (0.0, 1.0):
            s = complex(re_part, im_part)
            if s == -1.0:
                continue
            worst = max(worst, abs(I_minus(s, 1e-9).value - rhs_eq12(s)))
            evaluated += 1
    limit_err = abs(rhs_eq12(-1.0) - gamma_ref)
    ok = worst <= 1e-8 and limit_err <= 1e-8
    assert _conclude(
        "criterion 04 (minus-kernel closed-form grid)",
        ok,
        f"{evaluated} points, worst={worst:.2e}, limit point err={limit_err:.2e}",
    )


def test_criterion_05_plus_kernel_grid():
    worst = 0.0
    evaluated = 0
    for re_part in (-2.5, -2.25, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        for im_part in (0.0, 1.0, 2.0):
            s = complex(re_part, im_part)
            worst = max(worst, abs(I_plus(s, 1e-9).value - rhs_eq15(s)))
            evaluated += 1
    ok = worst <= 1e-8
    assert _conclude(
        "criterion 05 (plus-kernel half-plane grid)",
        ok,
        f"{evaluated} points, worst={worst:.2e}",
    )


def test_criterion_06_fermi_dirac_points():
    worst = max(
        abs(fermi_dirac(s, 1e-10).value - gamma(s) * eta(s))
        for s in (1.0, 2.0, 3.5, 2 + 1j)
    )
    ok = worst <= 1e-9
    assert _conclude(
        "criterion 06 (Fermi-Dirac-type integral)", ok, f"worst={worst:.2e}"
    )


def test_criterion_07_geometric_kernel_integrals():
    err2 = abs(beukers_reduced(2, 1e-11).value - math.pi**2 / 6.0)
    err3 = abs(beukers_reduced(3, 1e-11).value - zeta(3.0))
    direct = integrate_unit_square(lambda x, y: 1.0 / (1.0 - x * y), 1e-6)
    err2d = abs(direct.value - math.pi**2 / 6.0)
    ok = err2 <= 1e-10 and err3 <= 1e-10 and err2d <= 1e-5
    assert _conclude(
        "criterion 07 (zeta(2)/zeta(3) integrals)",
        ok,
        f"reduced2={err2:.2e}, reduced3={err3:.2e}, square={err2d:.2e}",
    )


def test_criterion_08_geometric_convergence_evidence():
    gap = abs(euler_formula_gamma(50).value - euler_formula_gamma(60).value)
    ok = gap < 1e-15
    assert _conclude(
        "criterion 08 (reference series stability)", ok, f"|N=50 - N=60|={gap:.2e}"
    )


def test_criterion_09_pole_limit_extrapolation(gamma_ref):
    e0, e1, e2 = (
        0.5 * (zeta_minus_pole(1.0 + eps) + zeta_minus_pole(1.0 - eps))
        for eps in (0.1, 0.05, 0.025)
    )
    r1 = (4.0 * e1 - e0) / 3.0
    r2 = (4.0 * e2 - e1) / 3.0
    extrapolated = (16.0 * r2 - r1) / 15.0
    err = abs(extrapolated - gamma_ref)
    ok = err <= 1e-6
    assert _conclude("criterion 09 (pole-limit Richardson)", ok, f"err={err:.2e}")


def test_criterion_10_seeded_panels():
    worst_fe = 0.0
    for s in engine.functional_equation_panel(200):
        lhs = gamma(s + 1.0)
        worst_fe = max(worst_fe, abs(lhs - s * gamma(s)) / abs(lhs))
    worst_prod = 0.0
    for s in engine.product_relation_panel(25):
        residual = abs(eta(s) - (1.0 - 2.0 ** (1.0 - s)) * zeta(s))
        worst_prod = max(worst_prod, residual)
    ok = worst_fe <= 1e-12 and worst_prod <= 1e-11
    assert _conclude(
        "criterion 10 (functional equation / product relation)",
        ok,
        f"gamma residual={worst_fe:.2e} @200 pts, product residual={worst_prod:.2e} @25 pts",
    )


def test_criterion_11_special_values():
    errs = (
        abs(eta(1.0) - math.log(2.0)),
        abs(eta(0.0) - 0.5),
        abs(eta(-1.0) - 0.25),
        abs(eta_prime(0.0) - 0.5 * math.log(math.pi / 2.0)),
    )
    ok = max(errs) <= 1e-12
    assert _conclude(
        "criterion 11 (alternating zeta special values)",
        ok,
        "errs=" + ", ".join(f"{e:.1e}" for e in errs),
    )


def test_criterion_12_limit_ratio_convergence_order():
    ns = (10**3, 2 * 10**3, 10**4, 2 * 10**4)
    a_ref = glaisher_zeta().value
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    glaisher_errs = [abs(glaisher_limit(n).value - a_ref) for n in ns]
    stirling_errs = [abs(stirling_ratio(n) - sqrt_2pi) for n in ns]

    def monotone(errors):
        return all(b < a for a, b in zip(errors, errors[1:]))

    def halves(errors):
        pairs = ((errors[0], errors[1]), (errors[2], errors[3]))
        return all(0.35 <= b / a <= 0.65 for a, b in pairs)

    agree = (
        abs(glaisher_limit(10**5).value - a_ref) <= 1e-3
        and abs(stirling_ratio(10**5) - sqrt_2pi) <= 1e-3
    )
    ok = (
        monotone(glaisher_errs)
        and halves(glaisher_errs)
        and monotone(stirling_errs)
        and halves(stirling_errs)
        and agree
    )
    detail = (
        "stirling ratios="
        + ",".join(f"{b/a:.3f}" for a, b in zip(stirling_errs, stirling_errs[1:]))
        + " hyperfactorial ratios="
        + ",".join(f"{b/a:.3f}" for a, b in zip(glaisher_errs, glaisher_errs[1:]))
        + f" agree@1e5={agree}"
    )
    conclusion = _conclude("criterion 12 (limit-ratio convergence order)", ok, detail)
    assert conclusion, (
        "the hyperfactorial ratio converges at second order (errors quarter, "
        "then hit the double-precision noise floor near n=1e4), so the "
        f"first-order halving clause cannot hold: {detail}"
    )


def test_criterion_13_square_vs_reduced():
    worst = 0.0
    for sign in (1, -1):
        for s in (0.0, 0.5, 1.0):
            square = integrate_unit_square(
                lambda x, y: integrand_2d(sign, s, x, y), 1e-6
            ).value
            reduced = (I_plus(s, 1e-9) if sign == 1 else I_minus(s, 1e-9)).value
            worst = max(worst, abs(square - reduced))
    ok = worst <= 1e-5
    assert _conclude(
        "criterion 13 (square vs reduced quadrature)", ok, f"worst={worst:.2e}"
    )


def test_criterion_14_cli_contract(capsys, tmp_path):
    code_all = cli_main(["all"])
    out_all = capsys.readouterr().out
    clean_pass = code_all == 0 and "result: PASS" in out_all

    code_override = cli_main(["all", "--tol-override", "eq10_limit=1e-12"])
    capsys.readouterr()
    override_fails = code_override == 1

    code_json = cli_main(["all", "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    json_ok = code_json == 0 and all(
        entry.get("skipped") or entry["pass"] for entry in payload
    )
    round_trip = all(
        float(repr(entry["abs_err"])) == entry["abs_err"]
        for entry in payload
        if not entry.get("skipped")
    )

    code_csv = cli_main(
        ["grid", "eq12", "--re=-1.5:1:0.5", "--im=0:0:1", "--format=csv"]
    )
    csv_text = capsys.readouterr().out
    rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
    csv_round_trip = code_csv == 0 and all(
        float(row[7]) <= float(row[9]) for row in rows if row[-1] != "skipped"
    )

    out_path = tmp_path / "all.json"
    code_out = cli_main(["all", "--format=json", f"--out={out_path}"])
    out_stream = capsys.readouterr().out
    out_matches = code_out == 0 and out_path.read_text(encoding="utf-8") == out_stream

    ok = clean_pass and override_fails and json_ok and round_trip and csv_round_trip and out_matches
    assert _conclude(
        "criterion 14 (CLI contract)",
        ok,
        f"all={code_all}, override={code_override}, json_ok={json_ok}, "
        f"round_trip={round_trip and csv_round_trip}, out_file={out_matches}",
    )
