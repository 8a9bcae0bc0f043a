"""Per-layer spans for the traced benchmark run.

The tracer wraps every public function of the layer modules in a span
that records calls, inclusive seconds and self seconds (inclusive time
minus the time of the wrapped calls made inside it).  The wrappers are
installed from the benchmark's own files: no code of the library
changes.  Modules that import a function by name (``from .x import f``)
hold their own binding, so every binding of the original function in
every ``eulerlab`` module is replaced, not only the defining one.

Exact counts are read from return values at the same boundaries:
quadrature evaluations and unconverged results, series terms, constant
terms and report evaluations.  Spans are aggregated in memory per
function; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "identity_engine",
    "integral_forms",
    "core_numerics",
    "special_functions",
    "constants",
)

INTEGRANDS = ("reduced_integrand_plus", "reduced_integrand_minus")
SPECIAL = ("eta", "eta_prime", "zeta", "zeta_prime", "zeta_minus_pole", "gamma")
CONSTANTS = (
    "euler_formula_gamma",
    "euler_gamma_series",
    "glaisher_limit",
    "glaisher_zeta",
    "wallis_partial",
    "stirling_ratio",
)
INCLUSIVE = ("I_plus", "I_minus", "fermi_dirac", "rhs_eq15", "rhs_eq12")


def _count_quadrature(counts, args, result):
    counts["core_numerics.evaluations"] += result.evaluations
    counts["core_numerics.unconverged"] += not result.converged


def _count_series(counts, args, result):
    counts["core_numerics.sum_series.terms"] += result.terms_used


def _count_constant(counts, args, result):
    # ConstantEstimate carries its term count; the float-valued routes
    # (wallis_partial, stirling_ratio) take it as their first argument.
    terms = getattr(result, "terms_or_n", None)
    counts["constants.terms"] += args[0] if terms is None else terms


def _count_report(counts, args, result):
    counts["identity_engine.evaluations"] += result.evaluations


def _counter_for(layer: str, name: str):
    if layer == "core_numerics" and name == "integrate_finite":
        return _count_quadrature
    if layer == "core_numerics" and name == "sum_series":
        return _count_series
    if layer == "constants":
        return _count_constant
    if layer == "identity_engine" and name == "verify":
        return _count_report
    return None


class Tracer:
    """Installs span wrappers on the layer modules; ``uninstall`` restores them."""

    def __init__(self) -> None:
        # qualified name -> [calls, inclusive seconds, self seconds, depth]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn, count):
        span = self.spans.setdefault(qualname, [0, 0.0, 0.0, 0])
        children = self._children
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            span[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span[3] -= 1
                inner = children.pop()
                span[0] += 1
                # A recursive call (gamma's reflection) is already inside
                # the outer call's inclusive time.
                if not span[3]:
                    span[1] += elapsed
                span[2] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"eulerlab.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(
                        f"{layer}.{name}", obj, _counter_for(layer, name)
                    )
        for modname, module in list(sys.modules.items()):
            if modname != "eulerlab" and not modname.startswith("eulerlab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def take(self) -> tuple[dict[str, list], Counter]:
        """Return the spans and counts gathered since the last take, and reset."""
        spans = {k: v[:3] for k, v in self.spans.items()}
        counts = Counter(self.counts)
        for span in self.spans.values():
            span[:3] = [0, 0.0, 0.0]
        self.counts.clear()
        return spans, counts


def _span(spans, qualname):
    return spans.get(qualname, [0, 0.0, 0.0])


def layer_counts(spans, counts) -> dict[str, int]:
    """Machine-independent per-layer counts of one pass."""
    out = {
        "core_numerics.integrate_finite.calls": _span(spans, "core_numerics.integrate_finite")[0],
        "core_numerics.evaluations": counts["core_numerics.evaluations"],
        "core_numerics.unconverged": counts["core_numerics.unconverged"],
        "integral_forms.integrand.calls": sum(
            _span(spans, f"integral_forms.{n}")[0] for n in INTEGRANDS
        ),
        "constants.terms": counts["constants.terms"],
        "core_numerics.sum_series.calls": _span(spans, "core_numerics.sum_series")[0],
        "core_numerics.sum_series.terms": counts["core_numerics.sum_series.terms"],
        "identity_engine.verify.calls": _span(spans, "identity_engine.verify")[0],
        "identity_engine.evaluations": counts["identity_engine.evaluations"],
    }
    for name in SPECIAL:
        out[f"special_functions.{name}.calls"] = _span(spans, f"special_functions.{name}")[0]
    return out


def layer_seconds(spans) -> dict[str, float]:
    """Per-layer seconds of one pass (self time where the name says so)."""
    out = {
        "core_numerics.integrate_finite.self_s": _span(spans, "core_numerics.integrate_finite")[2],
        "integral_forms.integrand.self_s": sum(
            _span(spans, f"integral_forms.{n}")[2] for n in INTEGRANDS
        ),
        "core_numerics.sum_series.self_s": _span(spans, "core_numerics.sum_series")[2],
        "identity_engine.to_json.s": _span(spans, "identity_engine.to_json")[1],
        "cli.main.self_s": _span(spans, "cli.main")[2],
    }
    for name in INCLUSIVE:
        out[f"integral_forms.{name}.s"] = _span(spans, f"integral_forms.{name}")[1]
    for name in SPECIAL:
        out[f"special_functions.{name}.s"] = _span(spans, f"special_functions.{name}")[1]
    for name in CONSTANTS:
        out[f"constants.{name}.s"] = _span(spans, f"constants.{name}")[1]
    for name in ("verify", "grid", "verify_all"):
        out[f"identity_engine.{name}.self_s"] = _span(spans, f"identity_engine.{name}")[2]
    return out
