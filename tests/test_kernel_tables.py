"""The ladders' tables of PowerKernel forms.

A PowerKernel's parameter-free form is tabulated once per level and
interval, and the ladder forms each node's value from the table.  Every
result must equal, bit for bit, the ladder over the same kernel called
at every node, and over the explicit kernel bodies the forms replaced.
The batched ladder's PowerRows read tables of the same factors, built
by the same function over the nodes a sweep reaches.
"""

import math
import sys
import threading

import numpy as np
import pytest

from eulerlab import core_numerics, integral_forms
from eulerlab.core_numerics import MAX_LEVEL, PowerKernel, integrate_finite

from conftest import fermi_dirac_kernel, kernel_value, minus_kernel, plus_kernel, power, run_bounded


def _residual_series(t):
    return integral_forms._residual_series(t)


# The kernel bodies before they became forms, as the reference.
def reference_plus(s, t):
    if t < 0.5:
        return power(t, s + 2.0) * _residual_series(t) / (math.exp(t) + 1.0)
    if t > 40.0:
        et = math.exp(-t)
        return power(t, s) * (t - 1.0 + et) * et / (1.0 + et)
    return power(t, s) * (math.expm1(-t) + t) / (math.exp(t) + 1.0)


def reference_minus(s, t):
    # raises OverflowError from t = 709.78 on
    if t < 0.5:
        return power(t, s + 1.0) * _residual_series(t) * (t / math.expm1(t))
    return power(t, s) * (math.expm1(-t) + t) / math.expm1(t)


def reference_fermi_dirac(s, t):
    if t > 40.0:
        et = math.exp(-t)
        return power(t, s - 1.0) * et / (1.0 + et)
    return power(t, s - 1.0) / (math.exp(t) + 1.0)


# family, its kernel formed at a point (conftest), reference body
FAMILIES = {
    "I_plus": (integral_forms._PLUS, plus_kernel, reference_plus),
    "I_minus": (integral_forms._MINUS, minus_kernel, reference_minus),
    "fermi_dirac": (integral_forms._FERMI_DIRAC, fermi_dirac_kernel, reference_fermi_dirac),
}


def outcome(f, a, b, tol):
    # every bit of an integrate_finite result, or the error it raised
    try:
        r = integrate_finite(f, a, b, tol)
    except Exception as exc:  # the x named by IntegrandError included
        return type(exc).__name__, str(exc)
    return r.value.real.hex(), r.value.imag.hex(), r.abs_error_estimate.hex(), \
        r.evaluations, r.converged


def three_ways(family, part, s, a, b, tol):
    # the tabulated kernel, the kernel formed by conftest called at every
    # node, and the reference body called at every node
    f, public, reference = FAMILIES[family]
    if part == "near":
        exponent = s + f.c
        return [
            outcome(PowerKernel(f.near, (exponent,)), a, b, tol),
            outcome(lambda t: kernel_value(PowerKernel(f.near, (exponent,)), t), a, b, tol),
            outcome(lambda t: power(t, exponent) * (f.psi(t) - f.psi0), a, b, tol),
        ]
    return [
        outcome(f.kernel(s), a, b, tol),
        outcome(lambda t: public(s, t), a, b, tol),
        outcome(lambda t: reference(s, t), a, b, tol),
    ]


class TestTabulatedLadder:
    def test_property_equals_the_called_kernel_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(
            st.sampled_from(sorted(FAMILIES)),
            st.sampled_from(["near", "far from 0", "far from 1"]),
            st.floats(0.0101, 6.0),
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0)),
            st.floats(6.0, 12.0),
            st.floats(40.5, 400.0),
        )
        # past the overflow of the power: IntegrandError at the midpoint,
        # OverflowError at the first node
        @hypothesis.example("I_plus", "far from 0", 239.0, 1.0, 9.0, 40.0)
        @hypothesis.example("I_plus", "far from 0", 239.0, -0.0, 9.0, 40.0)
        @hypothesis.example("I_plus", "far from 1", 239.0, 1.0, 9.0, 40.0)
        def check(family, part, above_edge, im, digits, T):
            f = FAMILIES[family][0]
            s = complex(f.edge + above_edge, im)
            if part == "near":
                a, b = 0.0, 1.0
            else:
                # the plain route's reach of (0, T), or the split route's (1, T)
                a = 0.0 if part == "far from 0" else 1.0
                b = T
                if a == 0.0 and above_edge < integral_forms._SUBTRACT_BELOW:
                    s += integral_forms._SUBTRACT_BELOW
            tabulated, called, reference = three_ways(family, part, s, a, b, 10.0**-digits)
            assert tabulated == called == reference

        check()

    def test_each_tabulated_node_is_the_kernel_call_bit_for_bit(self):
        # on (x0 - ulp, x0 + ulp) only the level-0 midpoint x0 lies inside,
        # so the level sum is that one node's contribution
        cases = [(f, s) for f, _, _ in FAMILIES.values()
                 for s in (complex(f.edge + 1.3, 0.0), complex(f.edge + 0.7, -0.0),
                           complex(f.edge + 2.1, 1.7))]
        points = (1e-300, 1e-5, 0.3, 0.4999999, 0.5, 1.7, 39.9, 40.5, 300.0, 709.5, 709.9, 900.0)
        checked = 0
        for f, s in cases:
            kernels = [(f.kernel(s), points),
                       (PowerKernel(f.near, (s + f.c,)), [x for x in points if x < 1.0])]
            for kernel, xs in kernels:
                for x0 in xs:
                    a, b = math.nextafter(x0, 0.0), math.nextafter(x0, math.inf)
                    tabulated = core_numerics._walk_level(kernel, a, b, 0, 0.0)
                    called = core_numerics._walk_level(lambda x: kernel_value(kernel, x), a, b, 0, 0.0)
                    assert tabulated[1] == 1
                    assert [tabulated[0].real.hex(), tabulated[0].imag.hex()] == [
                        called[0].real.hex(), called[0].imag.hex()]
                    checked += 1
        assert checked == 9 * (len(points) + 5)

    def test_case_premises(self):
        # the explicit examples above raise the two errors
        assert three_ways("I_plus", "far", complex(236.0, 1.0), 0.0, 40.0, 1e-9)[0] == (
            "IntegrandError", "integrand invalid: non-finite value at x=20.0")
        assert three_ways("I_plus", "far", complex(236.0, 1.0), 1.0, 40.0, 1e-9)[0][0] == (
            "OverflowError")

    def test_ladder_to_max_level_keeps_the_tables_bounded(self):
        # next to the edge, without the subtraction, the ladder runs out of
        # levels; levels past _TABLE_LEVELS call the kernel's form at the node
        levels = []
        walk = core_numerics._walk_level

        def recording(f, a, b, level, thresh):
            levels.append(level)
            return walk(f, a, b, level, thresh)

        s = complex(-2.98, 0.5)
        kernel = integral_forms._PLUS.kernel(s)
        core_numerics._tables.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_numerics, "_walk_level", recording)
            result = outcome(kernel, 0.0, 1.0, 1e-12)
        assert max(levels) == MAX_LEVEL and result[-1] is False
        assert result == outcome(lambda t: reference_plus(s, t), 0.0, 1.0, 1e-12)
        tables = core_numerics._tables
        assert {level for _, level, _, _ in tables} == set(range(core_numerics._TABLE_LEVELS + 1))
        assert sum(len(hi) + len(lo) for hi, lo in tables.values()) <= core_numerics._TABLE_NODES

    def test_oldest_tables_go_past_the_node_cap(self):
        form = integral_forms._FERMI_DIRAC.form
        core_numerics._tables.clear()
        for T in range(50, 300, 10):
            core_numerics._table(form, core_numerics._TABLE_LEVELS, 0.0, float(T))
        held = sum(len(hi) + len(lo) for hi, lo in core_numerics._tables.values())
        assert 0 < held <= core_numerics._TABLE_NODES
        assert (form, core_numerics._TABLE_LEVELS, 0.0, 290.0) in core_numerics._tables
        assert (form, core_numerics._TABLE_LEVELS, 0.0, 50.0) not in core_numerics._tables

    def test_concurrent_builds_evict_without_error(self, monkeypatch):
        # threads switching often, each inserting and evicting tables while
        # the others iterate the cache
        form = integral_forms._FERMI_DIRAC.form
        monkeypatch.setattr(core_numerics, "_TABLE_NODES", 100)
        errors = []

        def build(offset):
            try:
                for T in range(50 + offset, 6000, 4):
                    core_numerics._table(form, 2, 0.0, float(T))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        held = sum(len(hi) + len(lo) for hi, lo in list(core_numerics._tables.values()))
        assert held <= core_numerics._TABLE_NODES + 4 * max(
            len(hi) + len(lo) for hi, lo in list(core_numerics._tables.values()))

    def test_no_table_is_built_at_import(self):
        code = ("import eulerlab, eulerlab.cli\n"
                "from eulerlab import core_numerics\n"
                "print(len(core_numerics._tables), len(core_numerics._row_tables))")
        child = run_bounded(code)
        assert (child.returncode, child.stdout.strip()) == (0, "0 0")

    def test_plain_callables_are_called_at_every_node(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.sqrt(x)

        result = integrate_finite(f, 0.0, 1.0, 1e-10)
        assert result.evaluations == len(calls)
        assert not any(key[0] is f for key in core_numerics._tables)


class TestRowTables:
    def test_a_sweep_tabulates_the_factors_it_reaches(self):
        # each table holds _factors at a prefix of its side's nodes, the
        # deep levels' far short of the whole side
        core_numerics._row_tables.clear()
        points = [complex(0.5 + 0.25 * i, 0.5 * j) for i in range(6) for j in range(4)]
        integral_forms.I_plus_many(points, 1e-9)
        tables = core_numerics._row_tables
        assert {key[1] for key in tables} == set(range(6))
        for (form, level, a, b, lo), table in tables.items():
            x = core_numerics._level_sides(level, a, b)[lo][0]
            n = table.shape[1]
            expected = np.array(list(core_numerics._factors(form, x[:n].tolist()))).T
            assert table.tolist() == expected.tolist()
        assert any(table.shape[1] < core_numerics._level_sides(level, a, b)[lo][3] / 2
                   for (_, level, a, b, lo), table in tables.items())

    def test_oldest_row_tables_go_past_the_node_cap(self, monkeypatch):
        form = integral_forms._FERMI_DIRAC.form
        monkeypatch.setattr(core_numerics, "_ROW_TABLE_NODES", 100)
        core_numerics._row_tables.clear()
        for T in range(50, 300, 10):
            x = core_numerics._level_sides(3, 0.0, float(T))[1][0]
            core_numerics._row_table(form, 3, 0.0, float(T), 1, x, 30)
        held = sum(table.shape[1] for table in core_numerics._row_tables.values())
        assert 0 < held <= 100
        assert (form, 3, 0.0, 290.0, 1) in core_numerics._row_tables
        assert (form, 3, 0.0, 50.0, 1) not in core_numerics._row_tables

    def test_concurrent_extensions_evict_without_error(self, monkeypatch):
        # threads switching often, each extending and evicting row tables
        # while the others read them; every table returned covers its nodes
        form = integral_forms._FERMI_DIRAC.form
        monkeypatch.setattr(core_numerics, "_ROW_TABLE_NODES", 100)
        errors = []

        def extend(offset):
            try:
                for T in range(50 + offset, 2000, 4):
                    x = core_numerics._level_sides(5, 0.0, float(T % 200 + 50))[1][0]
                    for n in (5, 20, 40):
                        table = core_numerics._row_table(form, 5, 0.0, float(T % 200 + 50), 1, x, n)
                        assert table.shape[1] >= n
                        assert table[0, :n].tolist() == [math.log(v) for v in x[:n].tolist()]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=extend, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = sum(table.shape[1] for table in list(core_numerics._row_tables.values()))
        assert held <= 100 + 4 * 40
