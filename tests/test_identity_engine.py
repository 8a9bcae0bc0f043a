import collections
import csv
import functools
import importlib
import inspect
import io
import json
import math
import sys
import threading
import time

import pytest

from eulerlab import constants, integral_forms, special_functions
from eulerlab import identity_engine as engine
from eulerlab.errors import DomainError, IntegrandError
from eulerlab.identity_engine import (
    SkippedPoint,
    VerificationReport,
    all_passed,
    grid,
    list_identities,
    to_csv,
    to_json,
    verify,
    verify_all,
)
from eulerlab.integral_forms import I_minus

from conftest import integrand_2d, integrate_unit_square, run_bounded

LIBRARY = ("constants", "core_numerics", "integral_forms", "special_functions")

# Library functions both routes of an identity call, where that is the
# point of the identity.  Every other identity shares none.
SHARED_BY_DESIGN = {
    # the functional equation relates gamma to itself
    "eq16": {"special_functions.gamma"},
    # zeta is eta divided by 1 - 2**(1-s)
    "eq17": {"special_functions.eta"},
    # the gamma reference sums zeta(n) and the lhs eta's divided difference:
    # they share the Euler-transform sum's private helpers, no public function
    "eq14": set(),
}


@pytest.fixture
def library_calls(monkeypatch):
    """Record the qualified name of every library function called.

    Modules that import a function by name hold their own binding, so
    every binding in every ``eulerlab`` module is replaced.
    """
    calls = set()

    def recording(qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.add(qualname)
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for layer in LIBRARY:
        module = importlib.import_module(f"eulerlab.{layer}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = recording(f"{layer}.{name}", fn)
    for modname, module in list(sys.modules.items()):
        if modname == "eulerlab" or modname.startswith("eulerlab."):
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    monkeypatch.setattr(module, name, wrappers[fn])
    return calls


class TestRegistry:
    def test_sixteen_entries_in_stable_order(self):
        ids = [ident.id for ident in list_identities()]
        assert ids == [
            "eq2", "eq3", "eq4", "eq6", "eq7", "eq9", "eq10_limit", "eq11",
            "eq12", "eq14", "eq15", "eq16", "eq17", "eq18", "wallis", "stirling",
        ]
        assert ids == [ident.id for ident in list_identities()]

    def test_half_plane_domains(self):
        by_id = {ident.id: ident for ident in list_identities()}
        assert by_id["eq15"].s_domain == -3.0
        assert by_id["eq12"].s_domain == -2.0
        assert by_id["eq18"].s_domain == 0.0

    def test_exclusions_confined_to_eq12_eq15(self):
        for ident in list_identities():
            if ident.excluded_points:
                assert ident.id in ("eq12", "eq15")
                assert set(ident.excluded_points) <= {-1 + 0j, -2 + 0j}

    def test_route_independence_metadata(self, library_calls):
        # Each side runs on its first point alone, then on all its points,
        # so eq15's scalar routes and its batch both count.
        for ident in list_identities():
            points = [s for s in ident.points if engine._check_point(ident, s) is None]
            called = []
            for route in (ident.lhs, ident.rhs):
                library_calls.clear()
                for batch in (points[:1], points) if points else ([None],):
                    route(batch, ident.default_tol)
                called.append(set(library_calls))
            shared = {f for f in called[0] & called[1] if not f.startswith("core_numerics.")}
            public = {f for f in shared if not f.split(".")[1].startswith("_")}
            if ident.id in SHARED_BY_DESIGN:
                assert public == SHARED_BY_DESIGN[ident.id], ident.id
            else:
                assert shared == set(), ident.id

    def test_default_points(self):
        by_id = {ident.id: ident for ident in list_identities()}
        parameterized = {token for token, i in by_id.items() if i.parameterized}
        assert parameterized == {"eq12", "eq15", "eq16", "eq17", "eq18"}
        assert by_id["eq16"].points == tuple(engine.functional_equation_panel())
        assert by_id["eq17"].points == tuple(engine.product_relation_panel())
        eq15 = grid("eq15", (-2.5, 3.0, 0.5), (0.0, 2.0, 1.0))
        assert by_id["eq15"].points == tuple(e.s for e in eq15)
        assert len(by_id["eq12"].points) == 10 * 2


class TestVerify:
    def test_eq3_passes_at_tight_tolerance(self):
        report = verify("eq3", tol=1e-9)
        assert report.passed
        assert report.abs_err == abs(report.lhs - report.rhs)
        assert report.tol == 1e-9

    def test_eq3_rhs_calls_ln_4_over_pi(self, monkeypatch):
        calls = []
        original = constants.ln_4_over_pi

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(constants, "ln_4_over_pi", counting)
        report = verify("eq3")
        assert calls == [(1, "closed_form")]
        assert report.rhs == complex(math.log(4.0) - math.log(math.pi))

    def test_eq15_midplane_point(self):
        report = verify("eq15", s=0.5)
        assert report.passed
        assert report.abs_err <= 1e-8

    def test_eq15_beyond_eq12_domain(self):
        report = verify("eq15", s=-2.5 + 0j)
        assert report.passed

    def test_eq16_recurrence_point(self):
        report = verify("eq16", s=2.5)
        assert report.passed
        assert report.abs_err <= 1e-12

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify("eq99")

    def test_parameter_arity(self):
        with pytest.raises(ValueError, match="requires a parameter"):
            verify("eq15")
        with pytest.raises(ValueError, match="not parameterized"):
            verify("eq2", s=1.0)

    def test_domain_violation(self):
        with pytest.raises(DomainError, match="outside"):
            verify("eq15", s=-3.5)

    def test_excluded_point(self):
        with pytest.raises(DomainError, match="exclusion"):
            verify("eq12", s=-1.0)

    def test_deterministic_reports(self):
        a = verify("eq15", s=0.5 + 1j)
        b = verify("eq15", s=0.5 + 1j)
        assert (a.lhs, a.rhs, a.abs_err, a.rel_err, a.passed) == (
            b.lhs, b.rhs, b.abs_err, b.rel_err, b.passed
        )


class TestGrid:
    def test_skips_excluded_point(self):
        entries = grid("eq12", (-1.5, 1.0, 0.5), (0.0, 0.0, 1.0))
        skipped = [e for e in entries if isinstance(e, SkippedPoint)]
        assert len(skipped) == 1
        assert skipped[0].s == -1 + 0j
        assert all(e.passed for e in entries if isinstance(e, VerificationReport))

    def test_row_major_re_fastest(self):
        entries = grid("eq18", (1.0, 2.0, 1.0), (0.0, 1.0, 1.0))
        points = [e.s for e in entries]
        assert points == [1 + 0j, 2 + 0j, 1 + 1j, 2 + 1j]

    def test_domain_points_marked_skipped(self):
        entries = grid("eq12", (-2.5, -1.5, 1.0), (0.0, 0.0, 1.0))
        assert isinstance(entries[0], SkippedPoint)
        assert "outside" in entries[0].reason

    @pytest.mark.parametrize("token, edge", [("eq12", -2.0), ("eq15", -3.0), ("eq18", 0.0)])
    def test_skip_reason_names_the_margin_above_the_edge(self, token, edge):
        entries = grid(token, (edge - 0.005, edge + 0.02, 0.0025), (0.5, 0.5, 1.0))
        outside = f"outside Re(s) > {edge:g}"
        margin = f"within 0.01 of the domain edge Re(s) = {edge:g}"
        reasons = [e.reason if isinstance(e, SkippedPoint) else None for e in entries]
        expected = [outside if e.s.real <= edge else margin if e.s.real <= edge + 0.01 else None
                    for e in entries]
        assert reasons == expected
        assert reasons.count(outside) >= 2 and reasons.count(margin) >= 3
        assert reasons.count(None) >= 3

    @pytest.mark.parametrize("token", ["eq12", "eq15", "eq18"])
    def test_points_whose_phase_overflows_are_skipped(self, token):
        # as verify refuses them; before, verify raised a bare ValueError
        entries = grid(token, (2.5, 3.0, 0.5), (-1e308, 0.0, 1e308))
        reasons = [e.reason if isinstance(e, SkippedPoint) else None for e in entries]
        assert reasons == ["Im(s) ln t overflows near t = 0 at Im(s) = -1e+308"] * 2 + [None] * 2

    def test_empty_surviving_set(self):
        entries = grid("eq12", (-5.0, -3.0, 1.0), (0.0, 0.0, 1.0))
        assert all(isinstance(e, SkippedPoint) for e in entries)

    def test_nonparameterized_rejected(self):
        with pytest.raises(ValueError, match="not parameterized"):
            grid("eq2", (0.0, 1.0, 1.0), (0.0, 0.0, 1.0))

    def test_skip_soundness(self):
        entries = grid("eq15", (-3.5, -0.5, 0.25), (0.0, 0.0, 1.0))
        for entry in entries:
            if isinstance(entry, VerificationReport):
                assert entry.s.real > -3.0
                assert abs(entry.s - (-1.0)) >= engine.EXCLUSION_RADIUS
                assert abs(entry.s - (-2.0)) >= engine.EXCLUSION_RADIUS

    @pytest.mark.parametrize("token, s", [
        ("eq12", 0.5 + 0.5j),
        ("eq15", -1.5 + 0.25j),
        ("eq16", 1.5 - 2j),
        ("eq17", -0.5 + 1j),
        ("eq18", 2.0 + 1j),
    ])
    def test_one_point_grid_equals_verify(self, token, s):
        entry, = grid(token, (s.real, s.real, 1.0), (s.imag, s.imag, 1.0))
        assert entry._replace(elapsed=0.0) == verify(token, s)._replace(elapsed=0.0)

    def test_sweep_raises_the_first_failing_points_error(self, monkeypatch):
        # lhs fails at a later point than rhs; the sweep raises what
        # verify raises at the first failing point, as point by point
        fermi_dirac, eta = integral_forms.fermi_dirac, special_functions.eta

        def lhs(s, tol):
            if s == 3 + 0j:
                raise IntegrandError(f"lhs failed at s = {s}")
            return fermi_dirac(s, tol)

        def rhs(s, *args):
            if s == 2 + 0j:
                raise DomainError(f"rhs failed at s = {s}")
            return eta(s, *args)

        monkeypatch.setattr(integral_forms, "fermi_dirac", lhs)
        monkeypatch.setattr(special_functions, "eta", rhs)
        with pytest.raises(DomainError, match=r"rhs failed at s = \(2\+0j\)"):
            verify("eq18", 2.0)
        with pytest.raises(DomainError, match=r"rhs failed at s = \(2\+0j\)"):
            grid("eq18", (1.0, 4.0, 1.0), (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("token, route", [
        ("eq12", "I_minus"), ("eq15", "I_plus"), ("eq18", "fermi_dirac"),
    ])
    def test_a_refusing_closed_form_runs_no_quadrature(self, token, route, monkeypatch):
        # Gamma underflows at Im(s) = 1e16: the closed form raises before the
        # quadrature runs, in verify and in a sweep's point-by-point fallback
        def refuse(*args):
            raise AssertionError(f"{route} ran at a point its closed form refuses")

        monkeypatch.setattr(integral_forms, route, refuse)
        monkeypatch.setattr(integral_forms, route + "_many", refuse)
        with pytest.raises(DomainError, match="underflows to zero"):
            verify(token, 0.5 + 1e16j)
        with pytest.raises(DomainError, match="underflows to zero"):
            grid(token, (0.5, 1.0, 0.5), (1e16, 1e16, 4.0))

    def test_every_sweep_report_is_made_by_verify(self, monkeypatch):
        # A sweep checks each point once and returns what verify made from
        # the batched route values, so counts read at verify see every report.
        made, checked = [], []
        verify_, check_point = engine.verify, engine._check_point
        monkeypatch.setattr(engine, "verify", lambda *a, **k: made.append(verify_(*a, **k)) or made[-1])
        monkeypatch.setattr(engine, "_check_point", lambda *a: checked.append(a) or check_point(*a))
        entries = grid("eq15", (-3.5, 2.5, 0.25), (0.0, 0.0, 1.0))
        reports = [e for e in entries if isinstance(e, VerificationReport)]
        assert len(reports) >= integral_forms._BATCH_MIN_POINTS
        assert len(checked) == len(entries) > len(reports)
        assert all(a is b for a, b in zip(made, reports)) and len(made) == len(reports)

    def test_a_bad_point_is_reported_before_a_bad_tol(self):
        with pytest.raises(DomainError):
            verify("eq15", s=-3.5, tol=-1.0)
        assert all(isinstance(e, SkippedPoint) for e in grid("eq15", (-4.0, -3.5, 0.5), (0.0, 0.0, 1.0), tol=-1.0))
        with pytest.raises(ValueError, match="tol must be positive"):
            grid("eq15", (-3.5, 0.5, 4.0), (0.0, 0.0, 1.0), tol=0.0)

    def test_unbounded_ranges_raise_before_any_point(self):
        # in a subprocess with capped memory and time: a sweep that never
        # ends fails instead of hanging
        proc = run_bounded(
            """
from eulerlab import identity_engine as engine

def evaluate(*args):
    raise AssertionError("a point was evaluated")

engine._evaluate = evaluate
nan, inf = float("nan"), float("inf")
for re_range, im_range in [
    ((nan, 1.0, 1.0), (0.0, 0.0, 1.0)),
    ((0.0, inf, 1.0), (0.0, 0.0, 1.0)),
    ((-inf, 1.0, 1.0), (0.0, 0.0, 1.0)),
    ((0.0, 1.0, 1.0), (0.0, 0.0, nan)),
    ((0.0, 1.0, 1e-300), (0.0, 0.0, 1.0)),
    ((0.0, 1.0, 0.001), (0.0, 1.0, 0.001)),
    ((2.5, 2.5, 1.0), (1e308, 1e308, 1.0)),
]:
    try:
        engine.grid("eq15", re_range, im_range)
    except ValueError as exc:
        print(exc)
    else:
        raise AssertionError(re_range, im_range)
"""
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == 4 * ["range bounds and step must be finite"] + 2 * [
            f"a grid holds at most {engine.MAX_GRID_POINTS} points"
        ] + ["step 1 is below the float spacing of the range 1e+308:1e+308"]

    def test_sweep_shares_the_routes_time_among_its_reports(self):
        start = time.perf_counter()
        entries = grid("eq12", (0.0, 1.0, 0.5), (0.0, 0.0, 1.0))
        wall = time.perf_counter() - start
        assert len({e.elapsed for e in entries}) == 1
        assert 0.0 < sum(e.elapsed for e in entries) <= wall


@pytest.fixture(scope="module")
def entries():
    return verify_all()


class TestVerifyAll:
    def test_every_report_passes(self, entries):
        assert all_passed(entries)
        failures = [
            e for e in entries if isinstance(e, VerificationReport) and not e.passed
        ]
        assert failures == []

    def test_report_count(self, entries):
        assert len(entries) >= 16
        tokens = {e.id for e in entries}
        assert tokens == {ident.id for ident in list_identities()}

    def test_runs_each_identity_on_its_points(self, entries):
        for ident in list_identities():
            got = [e.s for e in entries if e.id == ident.id]
            assert got == (list(ident.points) if ident.parameterized else [None])

    def test_eq11_shares_the_ln2_series(self):
        assert verify("eq11").lhs == constants.ln2_series(10**5).value

    def test_tol_override_fails_limit_route(self):
        report = verify("eq10_limit", tol=1e-12)
        assert not report.passed

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_all({"eq99": 1e-6})

    def test_serialization_byte_stable_across_runs(self, entries):
        again = verify_all()
        assert to_json(entries) == to_json(again)
        assert to_csv(entries) == to_csv(again)


@pytest.fixture
def shared_runs(monkeypatch):
    """Count the runs of the bodies ``verify_all`` shares among identities.

    Each body makes one call the others do not: the walk of the gamma and
    Wallis series takes its first leaf, euler_formula_gamma(N) its N - 1
    zeta values, glaisher_zeta its zeta'(-1).  The wrappers are installed
    where the bodies look the callees up, under the memo.
    """
    runs = collections.Counter()
    lock = threading.Lock()

    def count(attr, name):
        original = getattr(constants, attr)

        def counting(*args):
            key = name(*args)
            if key is not None:
                with lock:
                    runs[key] += 1
            return original(*args)

        monkeypatch.setattr(constants, attr, counting)

    count("_series_terms", lambda lo, hi: "walk" if lo == 1 else None)
    count("eta_many", lambda s: f"euler_formula_gamma({len(s) + 1})")
    count("zeta_prime", lambda s: "glaisher_zeta()")
    return runs


SHARED_ONCE = {"walk": 1, "euler_formula_gamma(50)": 1, "glaisher_zeta()": 1}


class TestSharedConstants:
    def test_verify_all_runs_each_shared_body_once_a_call(self, shared_runs):
        # eq4 and wallis share the walk, eq2, eq4 and eq14 the reference
        # gamma, eq9 and eq10 Glaisher's A
        verify_all()
        assert shared_runs == SHARED_ONCE
        verify_all()
        assert shared_runs == {key: 2 for key in SHARED_ONCE}

    def test_outside_verify_all_every_call_computes(self, shared_runs):
        for _ in range(2):
            constants.euler_gamma_series(10**6)
            constants.euler_formula_gamma(50)
            constants.glaisher_zeta()
        assert shared_runs == {key: 2 for key in SHARED_ONCE}

    def test_scope_ends_with_its_block(self):
        verify_all()
        assert constants._MEMO.get(None) is None
        with pytest.raises(RuntimeError):
            with constants._memo_scope():
                constants.glaisher_zeta()
                raise RuntimeError
        assert constants._MEMO.get(None) is None

    def test_concurrent_calls_keep_their_own_scope(self, entries, shared_runs):
        # more threads than cores, switching often: a memo shared between
        # them would run a body fewer times than there are calls
        count = 4
        barrier = threading.Barrier(count)
        texts = [None] * count

        def run(i):
            barrier.wait()
            texts[i] = to_json(verify_all())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert texts == [to_json(entries)] * count
        assert shared_runs == {key: count for key in SHARED_ONCE}


class TestThreeRouteConsistency:
    def test_euler_constant_routes_agree_pairwise(self, gamma_reference):
        quadrature = I_minus(-1.0, 1e-9).value
        series = constants.euler_gamma_series(10**6).value
        square = integrate_unit_square(
            lambda x, y: integrand_2d(-1, -1.0, x, y), 1e-6
        ).value
        for a, b in [(quadrature, series), (quadrature, square), (series, square)]:
            assert abs(a - b) <= 2e-5
        assert abs(quadrature - gamma_reference) <= 1e-9


def csv_text(text):
    # a text cell as RFC 4180 writes it: quoted where it holds a comma, a
    # quote, CR or LF, with each quote doubled
    return '"%s"' % text.replace('"', '""') if set(text) & set(',"\r\n') else text


def reference_to_csv(entries):
    # to_csv as it was written by hand, field by field, before the field
    # table, with its text cells quoted
    lines = ["id,s_re,s_im,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tol,pass"]
    for entry in entries:
        if isinstance(entry, SkippedPoint):
            lines.append(
                f"{csv_text(entry.id)},{entry.s.real!r},{entry.s.imag!r},,,,,,,,skipped"
            )
            continue
        s_re = "" if entry.s is None else repr(entry.s.real)
        s_im = "" if entry.s is None else repr(entry.s.imag)
        rel = "" if entry.rel_err is None else repr(entry.rel_err)
        lines.append(
            ",".join(
                [
                    csv_text(entry.id),
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


def odd_entries():
    # the odd entries of test_json_writer_matches_dumps
    return [
        VerificationReport(
            'q"\\\n\x01\u00e9\u2603', None, complex(math.nan, math.inf),
            complex(-math.inf, -0.0), math.nan, None, 5e-324, True,
            "tab\there", "\ud83d\ude00", 3, 0.0,
        ),
        SkippedPoint("eq15", complex(1e308, -0.0), 'within "radius"\\'),
        VerificationReport("eq12", 1 + 2j, 1j, 1 + 0j, 0.0, math.inf, 1e-8,
                           False, "", "", 0, 1.0),
    ]


def entries_strategy(hypothesis):
    # the entries of test_property_json_writer_matches_dumps
    st = hypothesis.strategies
    real = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -1e308]),
    )
    number = st.builds(complex, real, real)
    text = st.text(
        st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f'), max_size=8
    )
    report = st.builds(
        VerificationReport, text, st.none() | number, number, number, real,
        st.none() | real, real, st.booleans(), text, text,
        st.integers(0, 10**12), real,
    )
    skipped = st.builds(SkippedPoint, text, number, text)
    return st.lists(report | skipped, max_size=4)


class TestSerialization:
    def test_json_round_trip(self):
        entries = [verify("eq3"), verify("eq15", s=0.5 + 1j)]
        payload = json.loads(to_json(entries))
        assert len(payload) == 2
        first = payload[0]
        assert first["id"] == "eq3"
        assert first["s"] is None
        assert first["lhs"]["re"] == entries[0].lhs.real
        assert first["pass"] is True
        second = payload[1]
        assert second["s"] == {"re": 0.5, "im": 1.0}
        assert second["abs_err"] == entries[1].abs_err

    def test_json_byte_stable(self):
        a = to_json([verify("eq3"), verify("eq16", s=2.5)])
        b = to_json([verify("eq3"), verify("eq16", s=2.5)])
        assert a == b

    @staticmethod
    def dumps(entries):
        # the reference: what to_json writes, by the standard encoder
        return json.dumps([engine.report_to_dict(e) for e in entries], indent=2)

    def test_json_writer_matches_dumps(self):
        odd = [
            VerificationReport(
                'q"\\\n\x01\u00e9\u2603', None, complex(math.nan, math.inf),
                complex(-math.inf, -0.0), math.nan, None, 5e-324, True,
                "tab\there", "\ud83d\ude00", 3, 0.0,
            ),
            SkippedPoint("eq15", complex(1e308, -0.0), 'within "radius"\\'),
            VerificationReport("eq12", 1 + 2j, 1j, 1 + 0j, 0.0, math.inf, 1e-8,
                               False, "", "", 0, 1.0),
        ]
        for entries in ([], odd, verify_all()):
            assert to_json(entries) == self.dumps(entries)

    def test_property_json_writer_matches_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        real = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -1e308]),
        )
        number = st.builds(complex, real, real)
        text = st.text(
            st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f'), max_size=8
        )
        report = st.builds(
            VerificationReport, text, st.none() | number, number, number, real,
            st.none() | real, real, st.booleans(), text, text,
            st.integers(0, 10**12), real,
        )
        skipped = st.builds(SkippedPoint, text, number, text)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(report | skipped, max_size=4))
        def check(entries):
            assert to_json(entries) == self.dumps(entries)

        check()

    def test_csv_round_trip(self):
        entries = grid("eq12", (-1.5, 0.0, 0.5), (0.0, 0.0, 1.0))
        text = to_csv(entries)
        lines = text.strip().split("\n")
        assert lines[0] == engine.CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        reports = [e for e in entries if isinstance(e, VerificationReport)]
        data_rows = [r for r in rows if r[-1] != "skipped"]
        assert len(data_rows) == len(reports)
        for row, report in zip(data_rows, reports):
            assert row[0] == report.id
            assert float(row[1]) == report.s.real
            assert float(row[3]) == report.lhs.real
            assert float(row[7]) == report.abs_err
            assert row[10] == ("true" if report.passed else "false")
        skip_rows = [r for r in rows if r[-1] == "skipped"]
        assert len(skip_rows) == 1 and float(skip_rows[0][1]) == -1.0

    def test_csv_text_cells_are_quoted(self):
        # a comma, a quote or a line break in an id keeps the row's cells
        report = VerificationReport('a,b"c\nd', 1 + 2j, 1j, 1 + 0j, 0.0, None, 1e-8,
                                    True, "", "", 0, 0.0)
        header, row = csv.reader(io.StringIO(to_csv([report])))
        assert header == engine.CSV_HEADER.split(",")
        assert len(row) == len(header)
        assert row[0] == report.id

    def test_csv_writer_matches_the_hand_written_one(self):
        assert engine.CSV_HEADER == "id,s_re,s_im,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tol,pass"
        for entries in ([], odd_entries(), verify_all()):
            assert to_csv(entries) == reference_to_csv(entries)

    def test_property_csv_writer_matches_the_hand_written_one(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(entries_strategy(hypothesis))
        def check(entries):
            assert to_csv(entries) == reference_to_csv(entries)

        check()
