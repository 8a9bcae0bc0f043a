"""The subtracted route of the three reduced families next to their edges.

Within ``_SUBTRACT_BELOW`` of the domain edge, ``I_plus``, ``I_minus``
and ``fermi_dirac`` integrate t**(s+c) (psi(t) - psi(0)) over (0, 1)
and the kernel over (1, T), and add psi(0)/(s+c+1).  Every result there
must converge and agree with the mpmath closed form; farther out the
plain route and its evaluation counts are unchanged.
"""

import json
import math
import random

import pytest

from eulerlab import core_numerics, integral_forms
from eulerlab.identity_engine import verify
from eulerlab.integral_forms import (
    I_minus,
    I_plus,
    I_plus_many,
    fermi_dirac,
)

from conftest import fermi_dirac_kernel, minus_kernel, plus_kernel, power

QUAD_TOL = 1e-9  # what the eq12/eq15/eq18 default tolerances ask of their quadrature
THRESHOLD = integral_forms._SUBTRACT_BELOW

# route, family and scalar kernel of each reduced integral
FAMILIES = {
    "I_minus": (I_minus, integral_forms._MINUS, minus_kernel),
    "I_plus": (I_plus, integral_forms._PLUS, plus_kernel),
    "fermi_dirac": (fermi_dirac, integral_forms._FERMI_DIRAC, fermi_dirac_kernel),
}


def closed_form(mpmath, family: str, s: complex) -> complex:
    z = mpmath.mpc(s.real, s.imag)
    if family == "I_minus":
        value = mpmath.gamma(z + 2) * (mpmath.zeta(z + 2) - 1 / (z + 1))
    elif family == "I_plus":
        value = mpmath.gamma(z + 2) * (
            mpmath.altzeta(z + 2) + (1 - 2 * mpmath.altzeta(z + 1)) / (z + 1)
        )
    else:
        value = mpmath.gamma(z) * mpmath.altzeta(z)
    return complex(value)


def test_threshold_keeps_registry_and_grid_points_on_the_plain_route():
    # the nearest registry and grid_eq15 points sit 0.5 from their edge
    assert 0.0 < THRESHOLD < 0.5


class TestPsi:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_power_times_psi_is_the_kernel(self, family):
        _, f, kernel = FAMILIES[family]
        for s in (f.edge + 0.02 + 1j, f.edge + 0.3 + 0j):
            for t in (1e-200, 1e-6, 0.3, 0.4999, 0.5, 0.9):
                expected = kernel(s, t)
                got = power(t, s + f.c) * f.psi(t)
                assert abs(got - expected) <= 4e-15 * abs(expected)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_psi_tends_to_its_stated_value_at_zero(self, family):
        f = FAMILIES[family][1]
        assert abs(f.psi(1e-12) - f.psi0) <= 1e-12
        assert abs(f.psi(1e-300) - f.psi0) <= 1e-16


def _old_residual(t):
    # (e**-t - 1 + t) / t**2 for 0 < t < 1, as psi was stated by hand
    return integral_forms._residual_series(t) if t < 0.5 else (math.expm1(-t) + t) / (t * t)


# psi of each family as the subtracted route once stated it, beside the form
OLD_PSI = {
    "I_plus": lambda t: _old_residual(t) / (math.exp(t) + 1.0),
    "I_minus": lambda t: _old_residual(t) * (t / math.expm1(t)),
    "fermi_dirac": lambda t: 1.0 / (math.exp(t) + 1.0),
}


_RNG = random.Random(23)
BELOW_HALF = [1e-300, 1e-200, 1e-12, 1e-6, 0.4999, *(_RNG.uniform(1e-9, 0.5) for _ in range(400))]
FROM_HALF = [0.5, 0.9999, *(_RNG.uniform(0.5, 1.0) for _ in range(400))]


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestPsiFromTheForm:
    # psi(t) = t**(offsets[k] - c) f1 f2 / d, (k, f1, f2, d) = form(t): below
    # t = 0.5 the power is t**0.0 and the order of operations the old one;
    # from 0.5, pow(t, -2) and 1/t replace the old division by t * t and t,
    # which moves the plus psi by up to 2 ulps and the minus psi by up to 3
    def test_below_one_half_psi_is_the_old_psi_bit_for_bit(self, family):
        f = FAMILIES[family][1]
        assert [f.psi(t).hex() for t in BELOW_HALF] == [OLD_PSI[family](t).hex() for t in BELOW_HALF]

    def test_from_one_half_psi_is_within_three_ulps_of_the_old_psi(self, family):
        f, old = FAMILIES[family][1], OLD_PSI[family]
        if family == "fermi_dirac":  # t**0.0 is 1.0 on all of (0, 1)
            assert [f.psi(t).hex() for t in FROM_HALF] == [old(t).hex() for t in FROM_HALF]
        assert all(abs(f.psi(t) - old(t)) <= 3.0 * math.ulp(old(t)) for t in FROM_HALF)

    def test_from_one_half_psi_is_no_farther_from_mpmath_than_the_old_psi(self, family):
        # where psi moves more than 2 ulps from the old psi it moves closer to
        # the true value, and its largest error on [0.5, 1), in ulps of the
        # true value, is no larger
        mpmath = pytest.importorskip("mpmath")
        f, old = FAMILIES[family][1], OLD_PSI[family]
        with mpmath.workdps(40):
            def error(value, t):
                t = mpmath.mpf(t)
                residual = (mpmath.expm1(-t) + t) / t**2
                exact = {"I_plus": residual / (mpmath.exp(t) + 1),
                         "I_minus": residual * t / mpmath.expm1(t),
                         "fermi_dirac": 1 / (mpmath.exp(t) + 1)}[family]
                return abs(mpmath.mpf(value) - exact) / math.ulp(float(exact))

            new_errors = [error(f.psi(t), t) for t in FROM_HALF]
            old_errors = [error(old(t), t) for t in FROM_HALF]
        moved = [i for i, t in enumerate(FROM_HALF)
                 if abs(f.psi(t) - old(t)) > 2.0 * math.ulp(old(t))]
        assert family != "I_minus" or moved
        assert all(new_errors[i] < old_errors[i] for i in moved)
        assert max(new_errors) <= max(old_errors)


class TestSubtractedRoute:
    def test_property_converges_to_the_closed_form(self):
        hypothesis = pytest.importorskip("hypothesis")
        mpmath = pytest.importorskip("mpmath")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(
            st.sampled_from(sorted(FAMILIES)),
            st.floats(0.0101, THRESHOLD, exclude_max=True),
            st.floats(0.0, 2.0),
        )
        @hypothesis.example("I_minus", 0.0101, 10.0)
        @hypothesis.example("I_plus", 0.05, 7.5)
        @hypothesis.example("fermi_dirac", 0.2, 10.0)
        @hypothesis.example("fermi_dirac", 0.0101, 0.0)
        def check(family, above_edge, im):
            route, f, _ = FAMILIES[family]
            s = complex(f.edge + above_edge, im)
            result = route(s, QUAD_TOL)
            assert result.converged
            assert result.abs_error_estimate <= QUAD_TOL
            assert abs(result.value - closed_form(mpmath, family, s)) <= QUAD_TOL

        check()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_route_switches_at_the_threshold(self, family, monkeypatch):
        route, edge = FAMILIES[family][0], FAMILIES[family][1].edge
        calls = []
        semi_infinite = integral_forms.integrate_semi_infinite

        def counting(*args):
            calls.append(args)
            return semi_infinite(*args)

        def split(calls):
            # the calls that pass the subtracted part, near
            return [args for args in calls if len(args) == 4 and args[3] is not None]

        monkeypatch.setattr(integral_forms, "integrate_semi_infinite", counting)
        route(complex(edge + THRESHOLD - 1e-9, 0.5), QUAD_TOL)
        assert len(calls) == len(split(calls)) == 1
        route(complex(edge + THRESHOLD + 1e-9, 0.5), QUAD_TOL)
        assert len(calls) == 2 and len(split(calls)) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_no_gamma_zeta_or_eta_in_the_quadrature(self, family, monkeypatch):
        # the subtracted term is elementary, so the quadrature stays
        # independent of the closed form it is checked against
        def refuse(*args):
            raise AssertionError("special function called by a quadrature route")

        for name in ("gamma", "eta", "eta_many", "_eta_divided", "zeta_minus_pole"):
            monkeypatch.setattr(integral_forms, name, refuse)
        route, edge = FAMILIES[family][0], FAMILIES[family][1].edge
        assert route(complex(edge + 0.05, 1.0), QUAD_TOL).converged

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_no_quadrature_reaches_level_six_next_to_the_edge(self, family, monkeypatch):
        levels = []
        walk = core_numerics._walk_level

        def recording(f, a, b, level, thresh):
            levels.append(level)
            return walk(f, a, b, level, thresh)

        monkeypatch.setattr(core_numerics, "_walk_level", recording)
        route, edge = FAMILIES[family][0], FAMILIES[family][1].edge
        for d in (0.0101, 0.03, 0.09, 0.2, 0.4):
            for im in (0.0, 1.0, 2.0):
                assert route(complex(edge + d, im), QUAD_TOL).converged
        assert max(levels) <= 5


class TestUnchangedAwayFromTheEdge:
    def test_batch_equals_scalar_on_both_sides_of_the_threshold(self):
        points = [complex(-3.0 + d, im) for d in (0.0101, 0.2, THRESHOLD - 1e-9,
                                                  THRESHOLD, 0.5, 2.0)
                  for im in (0.0, 1.3)]
        for s, batched in zip(points, I_plus_many(points, QUAD_TOL)):
            scalar = I_plus(s, QUAD_TOL)
            assert batched.evaluations == scalar.evaluations
            assert batched.converged == scalar.converged
            assert abs(batched.value - scalar.value) <= 1e-13

    @pytest.mark.parametrize("token, s, evaluations", [
        ("eq2", None, 204),
        ("eq3", None, 135),
        ("eq9", None, 151),
        ("eq12", -1.5, 94),
        ("eq12", -1.5 + 1j, 172),
        ("eq15", -2.5, 172),
        ("eq15", -2.5 + 2j, 172),
    ])
    def test_evaluation_counts_of_the_plain_route(self, token, s, evaluations):
        # the counts before the subtracted route existed
        report = verify(token, s)
        assert report.passed
        assert report.evaluations == evaluations


class TestUnconvergedVerdict:
    def test_unconverged_quadrature_fails_the_verdict(self, monkeypatch):
        original = integral_forms.I_minus

        def unconverged(s, tol):
            return original(s, tol)._replace(converged=False)

        right = verify("eq12", -1.5)
        monkeypatch.setattr(integral_forms, "I_minus", unconverged)
        report = verify("eq12", -1.5)
        assert report.abs_err == right.abs_err <= report.tol
        assert not report.passed

    def test_cli_exits_one(self, monkeypatch, capsys):
        from eulerlab.cli import main

        original = integral_forms.fermi_dirac

        def unconverged(s, tol):
            return original(s, tol)._replace(converged=False)

        assert main(["verify", "eq18", "--s=2", "--format=json"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(integral_forms, "fermi_dirac", unconverged)
        assert main(["verify", "eq18", "--s=2", "--format=json"]) == 1
        entry, = json.loads(capsys.readouterr().out)
        assert entry["abs_err"] <= entry["tol"]
        assert entry["pass"] is False
