"""Terminal front end: verify identities, sweep grids, evaluate functions.

Exit codes: 0 on success/pass, 1 when a verification fails or an
evaluation hits a pole, 2 on usage errors (unknown tokens, malformed
arguments, out-of-domain parameters, an --out PATH that cannot be
written).  Output goes to stdout; with --out PATH the identical bytes
are also written to the file.  Values in text output carry 15
significant digits; json/csv use full double precision and are
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import math
import re as _re
import sys

from . import constants, identity_engine, special_functions
from .errors import EulerLabError, IllConditionedError, PoleError
from .identity_engine import SkippedPoint, VerificationReport

_COMPLEX_RE = _re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

# Looked up on `special_functions` at call time, so wrappers installed
# on the module after import see the calls.
_EVAL_FUNCTIONS = ("eta", "eta_prime", "gamma", "zeta", "zeta_prime")


def _closed_form(value: float):
    return lambda n: constants.ConstantEstimate(value, "closed_form", 1, 0.0), None


# (name, method) -> (estimator of n, default n); a name's first method is
# its default.  Estimators look their routes up on `constants` at call
# time, so wrappers installed on the module after import see the calls.
_CONST_METHODS = {
    ("gamma", "euler_formula"): (lambda n: constants.euler_formula_gamma(n), 50),
    ("gamma", "series"): (lambda n: constants.euler_gamma_series(n), 10**6),
    ("ln4pi", "closed_form"): (lambda n: constants.ln_4_over_pi(n, "closed_form"), None),
    ("ln4pi", "series"): (lambda n: constants.ln_4_over_pi(n, "series"), 10**5),
    ("glaisher", "zeta_route"): (lambda n: constants.glaisher_zeta(), None),
    ("glaisher", "limit_ratio"): (lambda n: constants.glaisher_limit(n), 10**5),
    ("sqrt2pi", "closed_form"): _closed_form(math.sqrt(2.0 * math.pi)),
    ("sqrt2pi", "limit_ratio"): (
        lambda n: constants.ConstantEstimate(
            constants.stirling_ratio(n), "limit_ratio", n, 10.0 / n
        ),
        10**5,
    ),
    ("ln2", "closed_form"): _closed_form(math.log(2.0)),
    ("ln2", "series"): (lambda n: constants.ln2_series(n), 10**6),
}
_CONST_NAMES = tuple(dict.fromkeys(name for name, _ in _CONST_METHODS))


class UsageError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Parse RE, RE+IMi or RE-IMi (no spaces)."""
    match = _COMPLEX_RE.match(text.strip())
    if not match:
        raise UsageError(f"cannot parse complex literal {text!r}")
    re_part, im_part = match.groups()
    value = complex(float(re_part), float(im_part) if im_part else 0.0)
    if not cmath.isfinite(value):
        raise UsageError(f"complex literal {text!r} is not finite")
    return value


def parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"range must be numeric LO:HI:STEP, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"range must be finite LO:HI:STEP, got {text!r}")
    if step <= 0:
        raise UsageError("range STEP must be positive")
    return lo, hi, step


def fmt_real(v: float) -> str:
    return f"{v:.15g}"


def fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt_real(z.real)
    return f"{fmt_real(z.real)}{z.imag:+.15g}i"


def _report_text(entry: VerificationReport | SkippedPoint) -> str:
    if isinstance(entry, SkippedPoint):
        return f"{entry.id} s={fmt_complex(entry.s)} SKIPPED ({entry.reason})"
    s_part = "" if entry.s is None else f" s={fmt_complex(entry.s)}"
    verdict = "PASS" if entry.passed else "FAIL"
    return (
        f"{entry.id}{s_part} lhs={fmt_complex(entry.lhs)} rhs={fmt_complex(entry.rhs)}"
        f" abs_err={entry.abs_err:.3e} tol={entry.tol:.1e} {verdict}"
    )


def _verify_text(report: VerificationReport) -> str:
    lines = [
        f"id:          {report.id}",
    ]
    if report.s is not None:
        lines.append(f"s:           {fmt_complex(report.s)}")
    rel = "undefined" if report.rel_err is None else f"{report.rel_err:.3e}"
    lines += [
        f"lhs:         {fmt_complex(report.lhs)}   [{report.lhs_route}]",
        f"rhs:         {fmt_complex(report.rhs)}   [{report.rhs_route}]",
        f"abs_err:     {report.abs_err:.3e}",
        f"rel_err:     {rel}",
        f"tol:         {report.tol:.1e}",
        f"pass:        {'true' if report.passed else 'false'}",
        f"evaluations: {report.evaluations}",
        f"elapsed:     {report.elapsed:.3f}s",
    ]
    return "\n".join(lines) + "\n"


def _entries_output(entries, fmt: str) -> str:
    if fmt == "json":
        return identity_engine.to_json(entries) + "\n"
    if fmt == "csv":
        return identity_engine.to_csv(entries)
    return "\n".join(_report_text(e) for e in entries) + "\n"


def _summary_table(entries) -> str:
    stats: dict[str, list[int | float]] = {}
    skipped: dict[str, int] = {}
    for entry in entries:
        if isinstance(entry, SkippedPoint):
            skipped[entry.id] = skipped.get(entry.id, 0) + 1
            continue
        row = stats.setdefault(entry.id, [0, 0, 0.0])
        row[0] += 1
        row[1] += int(entry.passed)
        row[2] = max(row[2], entry.abs_err)
    lines = [f"{'identity':<12} {'reports':>7} {'passed':>7} {'skipped':>7} {'worst_abs_err':>14}"]
    for token, (total, passed, worst) in stats.items():
        lines.append(
            f"{token:<12} {total:>7} {passed:>7} {skipped.get(token, 0):>7} {worst:>14.3e}"
        )
    return "\n".join(lines)


def cmd_verify(args) -> tuple[int, str, str]:
    s = parse_complex(args.s) if args.s is not None else None
    report = identity_engine.verify(args.identity, s, args.tol)
    if args.format == "text":
        out = _verify_text(report)
    else:
        out = _entries_output([report], args.format)
    return (0 if report.passed else 1), out, ""


def cmd_grid(args) -> tuple[int, str, str]:
    entries = identity_engine.grid(
        args.identity, parse_range(args.re), parse_range(args.im), args.tol
    )
    out = _entries_output(entries, args.format)
    return (0 if identity_engine.all_passed(entries) else 1), out, ""


def cmd_eval(args) -> tuple[int, str, str]:
    s = parse_complex(args.s)
    try:
        value = getattr(special_functions, args.function)(s)
    except (PoleError, IllConditionedError) as exc:
        return 1, "", f"{exc}\n"
    if args.format != "text":
        record = {"function": args.function, "s": s, "value": complex(value)}
        return 0, identity_engine._record_output(record, args.format), ""
    return 0, fmt_complex(value) + "\n", ""


def _const_estimate(name: str, method: str | None, n: int | None):
    method = method or next(m for c, m in _CONST_METHODS if c == name)
    try:
        estimator, default_n = _CONST_METHODS[name, method]
    except KeyError:
        raise UsageError(f"invalid method {method!r} for constant {name!r}") from None
    return estimator(default_n if n is None else n)


def cmd_const(args) -> tuple[int, str, str]:
    est = _const_estimate(args.name, args.method, args.n)
    if args.format != "text":
        record = {"name": args.name, **dataclasses.asdict(est)}
        return 0, identity_engine._record_output(record, args.format), ""
    bound = "unknown" if est.error_bound is None else fmt_real(est.error_bound)
    out = (
        f"{args.name} = {fmt_real(est.value)}"
        f" (method={est.method}, n={est.terms_or_n}, bound={bound})\n"
    )
    return 0, out, ""


def _parse_overrides(pairs: list[str] | None) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs or []:
        token, _, value = pair.partition("=")
        if not value:
            raise UsageError(f"tol override must be ID=REAL, got {pair!r}")
        try:
            overrides[token] = float(value)
        except ValueError:
            raise UsageError(f"bad tolerance in override {pair!r}") from None
    return overrides


def cmd_all(args) -> tuple[int, str, str]:
    entries = identity_engine.verify_all(_parse_overrides(args.tol_override))
    ok = identity_engine.all_passed(entries)
    if args.format == "text":
        n_reports = sum(isinstance(e, VerificationReport) for e in entries)
        n_skipped = len(entries) - n_reports
        out = (
            _summary_table(entries)
            + "\n\n"
            + "\n".join(_report_text(e) for e in entries)
            + f"\n\nresult: {'PASS' if ok else 'FAIL'}"
            f" ({n_reports} reports, {n_skipped} skipped)\n"
        )
    else:
        out = _entries_output(entries, args.format)
    return (0 if ok else 1), out, ""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Verify classical constant/integral identities by dual numerical routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="also write the output stream to PATH")

    p_verify = sub.add_parser("verify", help="verify one identity")
    p_verify.add_argument("identity")
    p_verify.add_argument("--s", default=None, help="parameter as RE, RE+IMi or RE-IMi")
    p_verify.add_argument("--tol", type=float, default=None)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="verify a parameterized identity on a grid")
    p_grid.add_argument("identity")
    p_grid.add_argument("--re", required=True, metavar="LO:HI:STEP")
    p_grid.add_argument("--im", required=True, metavar="LO:HI:STEP")
    p_grid.add_argument("--tol", type=float, default=None)
    add_common(p_grid)
    p_grid.set_defaults(func=cmd_grid)

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    # argparse takes only -N and -N.N for negative numbers, not -0.5+1i or -1e-3
    p_eval._negative_number_matcher = _COMPLEX_RE
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("s", help="argument as RE, RE+IMi or RE-IMi")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_const = sub.add_parser("const", help="evaluate a named constant")
    p_const.add_argument("name", choices=_CONST_NAMES)
    p_const.add_argument("--method", default=None)
    p_const.add_argument("--n", type=int, default=None)
    add_common(p_const)
    p_const.set_defaults(func=cmd_const)

    p_all = sub.add_parser("all", help="run the full verification suite")
    p_all.add_argument("--tol-override", action="append", metavar="ID=REAL")
    add_common(p_all)
    p_all.set_defaults(func=cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, out, err = args.func(args)
    except (UsageError, EulerLabError, ValueError) as exc:
        print(exc, file=sys.stderr)
        if "unknown identity" in str(exc):
            tokens = ", ".join(i.id for i in identity_engine.list_identities())
            print(f"known identities: {tokens}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(out)
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
