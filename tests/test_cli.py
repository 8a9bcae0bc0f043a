import json
import math

import pytest

from eulerlab.cli import _CONST_METHODS, fmt_complex, main, parse_complex, parse_range

from conftest import EQ9_VALUE, EULER_GAMMA, GLAISHER_A, LN_4_OVER_PI, run_bounded

TRUE_CONSTANTS = {
    "gamma": EULER_GAMMA,
    "ln4pi": LN_4_OVER_PI,
    "glaisher": GLAISHER_A,
    "sqrt2pi": math.sqrt(2.0 * math.pi),
    "ln2": math.log(2.0),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("-3.5", -3.5 + 0j),
            ("-0.5+0.25i", -0.5 + 0.25j),
            ("2-1i", 2 - 1j),
            ("1e-3+2.5e-1i", 0.001 + 0.25j),
            (".5", 0.5 + 0j),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "2+i", "i", "1 + 2i", "2+3j", "abc"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_range(self):
        assert parse_range("-1.5:3:0.5") == (-1.5, 3.0, 0.5)
        with pytest.raises(ValueError):
            parse_range("1:2")
        with pytest.raises(ValueError):
            parse_range("1:2:0")

    def test_formatting(self):
        assert fmt_complex(0.6931471805599453 + 0j) == "0.693147180559945"
        assert fmt_complex(1.5 - 2.25j) == "1.5-2.25i"


class TestEval:
    def test_eta_at_one(self, capsys):
        code, out, _ = run(capsys, "eval", "eta", "1")
        assert code == 0
        assert out.strip() == "0.693147180559945"

    def test_zeta_at_two(self, capsys):
        code, out, _ = run(capsys, "eval", "zeta", "2")
        assert code == 0
        assert out.strip() == f"{math.pi**2 / 6.0:.15g}"

    def test_gamma_pole_exits_one(self, capsys):
        code, out, err = run(capsys, "eval", "gamma", "0")
        assert code == 1
        assert "pole of Gamma" in err

    def test_zeta_pole_exits_one(self, capsys):
        code, _, err = run(capsys, "eval", "zeta", "1")
        assert code == 1
        assert "pole of zeta" in err

    def test_complex_argument(self, capsys):
        code, out, _ = run(capsys, "eval", "gamma", "2+1i")
        assert code == 0
        assert "i" in out

    def test_malformed_argument(self, capsys):
        code, _, err = run(capsys, "eval", "eta", "2+i")
        assert code == 2

    def test_eta_below_minus_four(self, capsys):
        # eta(-8.5) = 3.19313332054213...; the cancelling sum printed 10.2269
        code, out, _ = run(capsys, "eval", "eta", "-8.5")
        assert code == 0
        assert out.strip() == "3.19313332054214"

    def test_derivative_below_minus_four_exits_one(self, capsys):
        code, _, err = run(capsys, "eval", "eta_prime", "-8.5")
        assert code == 1
        assert "Re(s) = -4" in err

    def test_gamma_at_large_imaginary_part(self, capsys):
        # sin(pi s) overflows here; this printed a traceback and exited 1
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "eval", "gamma", "0.2+300i", "--format=json")
        assert code == 0
        value = json.loads(out)["value"]
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(0.2, 300)))
        assert abs(complex(value["re"], value["im"]) - expected) <= 1e-12 * abs(expected)

    def test_gamma_underflow_exits_two(self, capsys):
        # this printed 0 and exited 0
        code, _, err = run(capsys, "eval", "gamma", "0.6+1000i")
        assert code == 2
        assert "underflows to zero" in err

    def test_eta_below_minus_two(self, capsys):
        # a fixed 1e-15 truncation kept summing rounding noise and
        # printed -0.0878411208008592, 8e-11 off
        code, out, _ = run(capsys, "eval", "eta", "-2.5")
        assert code == 0
        assert abs(float(out) - -0.0878411207213628) <= 1e-12

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "eta", "1", "--format=json")
        payload = json.loads(out)
        assert payload["function"] == "eta"
        assert abs(payload["value"]["re"] - math.log(2.0)) < 1e-14


class TestVerifyCommand:
    def test_eq9(self, capsys):
        code, out, _ = run(capsys, "verify", "eq9")
        assert code == 0
        assert "pass:        true" in out
        assert f"{EQ9_VALUE:.9g}"[:8] in out

    def test_eq15_complex_point(self, capsys):
        code, out, _ = run(capsys, "verify", "eq15", "--s=-0.5+0.25i")
        assert code == 0

    def test_domain_violation_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "eq15", "--s=-3.5")
        assert code == 2
        assert "outside Re(s) > -3" in err

    def test_unknown_identity_lists_tokens(self, capsys):
        code, _, err = run(capsys, "verify", "eq999")
        assert code == 2
        assert "eq15" in err and "stirling" in err

    def test_failing_tolerance_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "eq10_limit", "--tol=1e-12")
        assert code == 1
        assert "pass:        false" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "eq3", "--format=json")
        payload = json.loads(out)
        assert payload[0]["id"] == "eq3"
        assert payload[0]["pass"] is True


class TestGridCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "grid", "eq18", "--re=1:3:0.5", "--im=0:1:1", "--format=csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("id,s_re,s_im")
        assert len(lines) == 1 + 5 * 2

    def test_skip_row_marked(self, capsys):
        code, out, _ = run(capsys, "grid", "eq12", "--re=-1.5:1:0.5", "--im=0:0:1")
        assert code == 0
        assert "SKIPPED" in out

    def test_nonparameterized_exits_two(self, capsys):
        code, _, err = run(capsys, "grid", "eq2", "--re=0:1:1", "--im=0:0:1")
        assert code == 2

    def test_malformed_range_exits_two(self, capsys):
        code, _, err = run(capsys, "grid", "eq15", "--re=0:1", "--im=0:0:1")
        assert code == 2


class TestConstCommand:
    def test_gamma_series_bound(self, capsys):
        code, out, _ = run(
            capsys, "const", "gamma", "--method=series", "--n=1000000"
        )
        assert code == 0
        assert "bound=5e-07" in out

    def test_glaisher_zeta_route(self, capsys):
        code, out, _ = run(capsys, "const", "glaisher", "--method=zeta_route")
        assert code == 0
        # the text format prints 15 significant digits
        assert out.startswith("glaisher = ")
        value = float(out.split()[2])
        assert abs(value - GLAISHER_A) <= 1e-13

    def test_gamma_euler_formula(self, capsys):
        code, out, _ = run(
            capsys, "const", "gamma", "--method=euler_formula", "--n=50"
        )
        assert code == 0
        assert out.startswith("gamma = 0.577215664901533")

    def test_invalid_method_exits_two(self, capsys):
        code, _, err = run(capsys, "const", "ln2", "--method=limit_ratio")
        assert code == 2

    def test_invalid_name_exits_two(self, capsys):
        code, _, _ = run(capsys, "const", "tau")
        assert code == 2

    @pytest.mark.parametrize("name,method", list(_CONST_METHODS))
    def test_every_method_within_its_bound(self, capsys, name, method):
        code, out, _ = run(capsys, "const", name, f"--method={method}", "--format=json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method
        # closed forms report a zero bound; allow them rounding
        bound = max(payload["error_bound"], 1e-12)
        assert abs(payload["value"] - TRUE_CONSTANTS[name]) <= bound

    @pytest.mark.parametrize("name", list(TRUE_CONSTANTS))
    def test_first_method_is_default(self, capsys, name):
        first = next(m for c, m in _CONST_METHODS if c == name)
        assert run(capsys, "const", name) == run(capsys, "const", name, f"--method={first}")


class TestExitCodeMatrix:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["verify", "eq3"], 0),
            (["verify", "eq3", "--tol=1e-20"], 1),
            (["verify", "eq999"], 2),
            (["verify", "eq15"], 2),
            (["verify", "eq2", "--s=1"], 2),
            (["verify", "eq15", "--s=-3.5"], 2),
            (["verify", "eq12", "--s=-1"], 2),
            (["verify", "eq16", "--s=0"], 2),
            (["verify", "eq3", "--tol=-1"], 2),
            (["verify", "eq3", "--tol=0"], 2),
            (["grid", "eq18", "--re=1:2:1", "--im=0:0:1"], 0),
            (["grid", "eq18", "--re=1:2:1", "--im=0:0:1", "--tol=1e-20"], 1),
            (["grid", "eq2", "--re=0:1:1", "--im=0:0:1"], 2),
            (["grid", "eq15", "--re=bad", "--im=0:0:1"], 2),
            (["grid", "eq15", "--re=0:1:0.5"], 2),
            (["eval", "eta", "2"], 0),
            (["eval", "gamma", "-2"], 1),
            (["eval", "eta", "nope"], 2),
            (["eval", "sin", "1"], 2),
            (["const", "sqrt2pi"], 0),
            (["const", "sqrt2pi", "--method=series"], 2),
            (["const", "nope"], 2),
            (["const", "ln2", "--method=series", "--n=0"], 2),
            (["const", "gamma", "--method=series", "--n=0"], 2),
            (["const", "sqrt2pi", "--method=limit_ratio", "--n=0"], 2),
            (["eval", "gamma", "171.5"], 0),
            (["eval", "gamma", "172"], 2),
            (["eval", "gamma", "-170.5"], 0),
            (["eval", "gamma", "-171.5"], 0),
            (["eval", "gamma", "-190.5"], 2),
            (["eval", "eta", "-8.5"], 0),
            (["eval", "zeta", "-9"], 0),
            (["eval", "eta_prime", "-8.5"], 1),
            (["eval", "zeta_prime", "-5"], 1),
            (["verify", "eq16", "--s=172"], 2),
            (["verify", "eq18", "--s=180"], 2),
            (["eval", "gamma", "1e-320"], 2),
            (["verify", "eq16", "--s=1e-320", "--format=json"], 2),
            (["eval", "eta", "-0.5+0.25i"], 0),
            (["eval", "zeta", "-1e-3"], 0),
            (["eval", "eta", "--", "-0.5+0.25i"], 0),
            (["eval", "eta", "--bogus"], 2),
            (["eval", "gamma", "0.2+300i"], 0),
            (["eval", "gamma", "-3.3+240i"], 0),
            (["eval", "gamma", "0.6+1000i"], 2),
            (["verify", "eq16", "--s=0.2+300i"], 0),
            (["all", "--tol-override", "bad"], 2),
            (["all", "--tol-override", "eq999=1e-6"], 2),
            (["eval", "zeta", "1e999"], 2),
            (["eval", "eta", "-1e999"], 2),
            (["eval", "zeta", "1+1e999i"], 2),
            (["verify", "eq17", "--s=1e999"], 2),
        ],
    )
    def test_matrix(self, capsys, argv, expected):
        code = main(argv)
        capsys.readouterr()
        assert code == expected

    # A non-finite tolerance would stop the ladder at its first level and
    # pass any value.
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "eq3", "--tol={tol}"],
            ["grid", "eq18", "--re=1:2:1", "--im=0:0:1", "--tol={tol}"],
            ["all", "--tol-override", "eq3={tol}"],
        ],
    )
    def test_non_finite_tol(self, capsys, argv, tol):
        code = main([arg.format(tol=tol) for arg in argv])
        assert (code, capsys.readouterr().out) == (2, "")

    # Unbounded sweeps: a subprocess with capped memory and time, so that
    # a grid that never ends fails instead of hanging.
    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "eq15", "--re=nan:1:1", "--im=0:0:1"],
            ["grid", "eq15", "--re=0:inf:1", "--im=0:0:1"],
            ["grid", "eq15", "--re=0:1:1", "--im=0:0:nan"],
            ["grid", "eq12", "--re=0:1:1e-300", "--im=0:0:1"],
            ["grid", "eq15", "--re=0:1:0.001", "--im=0:1:0.001"],
        ],
    )
    def test_unbounded_grid(self, argv):
        code = "import sys\nfrom eulerlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        proc = run_bounded(code, *argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""


class TestOutOption:
    def test_stream_and_file_identical(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "eq3", "--format=json", f"--out={target}"
        )
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    def test_no_file_without_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "verify", "eq3")
        assert list(tmp_path.iterdir()) == []
