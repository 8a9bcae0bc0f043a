"""Time the batched quadrature ladder in two checkouts, in alternating calls.

Usage:

    python scripts/sweep_cost.py PARENT_DIR CHANGE_DIR [--rounds 30]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names (``ab.load``).  The cases are four ``grid`` sweeps (the
111 x 21 eq15 sweep of the ``grid_eq15`` benchmark workload, eq12 and
eq18 sweeps from next to their domain edges out to Re(s) = 4, and an
eq12 sweep at Re(s) 100-104 whose ladders run to level 12) and
registry-sized batches of the eq12, eq15 and eq18 left-hand sides
(``BATCHES``).  For each case each round times one call on each side,
alternating which side goes first (``ab.alternate``); the script
prints, per case, the median over rounds of each side's milliseconds,
the change/parent ratio of the medians, and the share of rounds in
which the change was faster.

It also prints, per case and side, the integrand elements (nodes x
points) the family's rows evaluate in one call of the case and the
number of ``PowerRows.values`` calls (the path the timed rounds run),
and the numbers of truncations (``core_numerics._truncation`` calls)
and of ``QuadratureResult`` records made (``QuadratureResult.__new__``
calls, so both checkouts need its NamedTuple form): counts that do not
depend on the machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ab import alternate, compare, load

# (identity, re range, im range) of each sweep
SWEEPS = {
    "grid eq15 111x21": ("eq15", (-2.5, 3.0, 0.05), (0.0, 2.0, 0.1)),
    "grid eq12 75x11": ("eq12", (-1.99, 4.0, 0.08), (0.0, 1.0, 0.1)),
    "grid eq18 80x11": ("eq18", (0.011, 4.0, 0.05), (0.0, 1.0, 0.1)),
    "grid eq12 deep 21x2": ("eq12", (100.0, 104.0, 0.2), (0.0, 1.0, 1.0)),
}
# Registry-sized batches: the left-hand sides of eq12 and eq15 over their
# default points, and of eq18 over 16 points, at or above
# integral_forms._BATCH_MIN_POINTS (its 4 default points run point by
# point).
BATCHES = {"eq12": None, "eq15": None, "eq18": [complex(0.5 * k, 0.5) for k in range(1, 17)]}


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
    """(integrand elements, rows values calls, truncations, quadrature results) of one call."""
    numerics = sys.modules[engine.__name__.rpartition(".")[0] + ".core_numerics"]
    rows, result = numerics.PowerRows, numerics.QuadratureResult
    count = [0, 0, 0, 0]
    saved = rows.values, numerics._truncation, vars(result)["__new__"]

    def values(self, params, x, factors):
        count[0] += len(params) * len(x)
        count[1] += 1
        return saved[0](self, params, x, factors)

    def truncation(*args):
        count[2] += 1
        return saved[1](*args)

    def new(*args, **kwargs):
        count[3] += 1
        return saved[2](*args, **kwargs)

    try:
        rows.values, numerics._truncation = values, truncation
        result.__new__ = staticmethod(new)
        call()
    finally:
        rows.values, numerics._truncation, result.__new__ = saved
    return tuple(count)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    engines = {
        "parent": load(args.parent, "eulerlab_parent", "identity_engine"),
        "change": load(args.change, "eulerlab_change", "identity_engine"),
    }
    calls = {side: cases(engine) for side, engine in engines.items()}
    print("| case | parent ms | change ms | change/parent | change faster "
          "| parent elements (calls) | change elements (calls) "
          "| parent truncations | change truncations | parent results | change results |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for case in calls["parent"]:
        made = {side: counts(engines[side], calls[side][case]) for side in engines}
        times = alternate({side: calls[side][case] for side in engines}, args.rounds)
        p, c, ratio, faster = compare(times["parent"], times["change"])
        print(f"| {case} | {p * 1e3:.2f} | {c * 1e3:.2f} | {ratio:.3f} | {faster:.0%} | "
              + " | ".join(f"{n[0]:,} ({n[1]})" for n in made.values()) + " | "
              + " | ".join(f"{n[k]:,}" for k in (2, 3) for n in made.values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
