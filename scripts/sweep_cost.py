"""Time the batched quadrature ladder in two checkouts, in alternating calls.

Usage:

    python scripts/sweep_cost.py PARENT_DIR CHANGE_DIR [--rounds 30]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names, so that both sides share the interpreter, numpy and
BLAS.  The cases are four ``grid`` sweeps (the 111 x 21 eq15 sweep of
the ``grid_eq15`` benchmark workload, eq12 and eq18 sweeps from next to
their domain edges out to Re(s) = 4, and an eq12 sweep at Re(s) 100-104
whose ladders run to level 12) and registry-sized batches of the eq12,
eq15 and eq18 left-hand sides (``BATCHES``).  For each case each round times one call on each side,
alternating which side goes first; the script prints, per case, the
median over rounds of each side's milliseconds, the change/parent ratio
of the medians, and the share of rounds in which the change was
faster.  Timing the two sides in alternation within a round keeps the
load of a shared machine, which drifts over seconds, out of the ratio.

It also prints, per case and side, the integrand elements (nodes x
points) the family's ``rows`` evaluate in one call of the case, the
number of ``rows`` calls, of truncations (``core_numerics._truncation``
calls) and of ``QuadratureResult`` objects made: counts that do not
depend on the machine.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

# (identity, re range, im range) of each sweep
SWEEPS = {
    "grid eq15 111x21": ("eq15", (-2.5, 3.0, 0.05), (0.0, 2.0, 0.1)),
    "grid eq12 75x11": ("eq12", (-1.99, 4.0, 0.08), (0.0, 1.0, 0.1)),
    "grid eq18 80x11": ("eq18", (0.011, 4.0, 0.05), (0.0, 1.0, 0.1)),
    "grid eq12 deep 21x2": ("eq12", (100.0, 104.0, 0.2), (0.0, 1.0, 1.0)),
}
# Registry-sized batches: the left-hand sides of eq12 and eq15 over their
# default points, and of eq18 over 16 points, at or above
# identity_engine._BATCH_MIN_POINTS (its 4 default points run point by
# point).
BATCHES = {"eq12": None, "eq15": None, "eq18": [complex(0.5 * k, 0.5) for k in range(1, 17)]}


def load(checkout: Path, name: str):
    """checkout's eulerlab package, imported as package name."""
    package = checkout.resolve() / "src" / "eulerlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.identity_engine")


def cases(engine) -> dict:
    result = {
        case: (lambda args=args: engine.grid(*args)) for case, args in SWEEPS.items()
    }
    for token, points in BATCHES.items():
        ident = engine.get_identity(token)
        # the points a sweep evaluates: inside the domain, off the exclusions
        points = [s for s in points or ident.points if engine._check_point(ident, s) is None]
        result[f"batch {token} lhs ({len(points)} points)"] = (
            lambda ident=ident, points=points: ident.lhs(points, ident.default_tol)
        )
    return result


def counts(engine, call) -> tuple[int, int, int, int]:
    """(integrand elements, rows calls, truncations, quadrature results) of one call."""
    package = engine.__name__.rpartition(".")[0]
    forms = sys.modules[package + ".integral_forms"]
    numerics = sys.modules[package + ".core_numerics"]
    result = numerics.QuadratureResult
    count = [0, 0, 0, 0]
    saved_many = forms.integrate_semi_infinite_many
    saved_truncation, saved_init = numerics._truncation, result.__init__

    def counting(rows):
        def wrapped(params, x):
            count[0] += len(params) * len(x)
            count[1] += 1
            return rows(params, x)

        return wrapped

    def many(rows, *args):
        # the batched ladder, as every *_many route of integral_forms calls it
        return saved_many(counting(rows), *args)

    def truncation(*args):
        count[2] += 1
        return saved_truncation(*args)

    def init(*args, **kwargs):
        count[3] += 1
        saved_init(*args, **kwargs)

    try:
        forms.integrate_semi_infinite_many = many
        numerics._truncation, result.__init__ = truncation, init
        call()
    finally:
        forms.integrate_semi_infinite_many = saved_many
        numerics._truncation, result.__init__ = saved_truncation, saved_init
    return tuple(count)


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    engines = {
        "parent": load(args.parent, "eulerlab_parent"),
        "change": load(args.change, "eulerlab_change"),
    }
    calls = {side: cases(engine) for side, engine in engines.items()}
    print("| case | parent ms | change ms | change/parent | change faster "
          "| parent elements (calls) | change elements (calls) "
          "| parent truncations | change truncations | parent results | change results |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for case, parent_call in calls["parent"].items():
        change_call = calls["change"][case]
        made = {side: counts(engines[side], calls[side][case]) for side in engines}
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = [("parent", parent_call), ("change", change_call)]
            for side, call in order if i % 2 == 0 else order[::-1]:
                times[side].append(seconds(call) * 1e3)
        p, c = statistics.median(times["parent"]), statistics.median(times["change"])
        faster = sum(b < a for a, b in zip(times["parent"], times["change"])) / args.rounds
        print(f"| {case} | {p:.2f} | {c:.2f} | {c / p:.3f} | {faster:.0%} | "
              + " | ".join(f"{n[0]:,} ({n[1]})" for n in made.values()) + " | "
              + " | ".join(f"{n[k]:,}" for k in (2, 3) for n in made.values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
