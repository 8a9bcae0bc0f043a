"""Cost of a sweep's quadratures point by point and batched, by sweep size.

Usage:

    python scripts/batch_threshold.py [--rounds 101] [--sizes 1,2,4,8,10,11,12,13,14,16]
        [--gamma-sizes 64,96,128,160,192,256]

Run from the repository root (``src/`` is put on the path).  For each
reduced family (``I_minus``, ``I_plus``, ``fermi_dirac``, at the
quadrature tolerance of eq12, eq15 and eq18) and each sweep size n, the
script takes the first n of a seeded sequence of points with Re(s)
between 0.5 and 5 above the family's edge and Im(s) in [0, 2].  Each
round times the scalar route at every point and the family's batch
over all of them, one right after the other, alternating which goes
first (``ab.alternate``).  The batch is called directly
(``core_numerics.integrate_semi_infinite_many`` on the family's rows),
since the ``*_many`` routes take the scalar route below the threshold.
Every timed call starts with the kernel tables of both ladders
(``core_numerics._tables`` and ``core_numerics._row_tables``) empty, as
a sweep in a fresh process does; timing the same points again with warm
tables would flatter the route that reads them.  The script prints, per family and size, the
median milliseconds of each, the batched/scalar ratio of the medians,
and the share of rounds in which the batch was faster.  The smallest n
from which the batch is cheaper in every family is where
``integral_forms._BATCH_MIN_POINTS`` belongs.  The next rows time
eq15's right-hand side, ``rhs_eq15`` at every point against
``rhs_eq15_many``, which sums every point's etas by one ``eta_many``
call from two points on (a lone point takes ``rhs_eq15`` itself), on
the I_plus points.  The last rows time scalar
``gamma`` at every point against ``special_functions._gamma_many`` over
all of them, at the sizes of ``--gamma-sizes``, on the points s + 2 of
the I_plus points (so Re(s + 2) lies between -0.5 and 4, both sides of
the reflection at 1/2): the smallest size from which the batch is the
cheaper is where ``integral_forms._GAMMA_BATCH_MIN_POINTS`` belongs.
Each pair gives the same values, so the thresholds set speed alone.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from ab import alternate, compare

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eulerlab import core_numerics, integral_forms, special_functions  # noqa: E402


def batch(family):
    # the family's batched ladder over points clear of _SUBTRACT_BELOW
    def many(points, tol):
        hints = [s.real + family.shift for s in points]
        return core_numerics.integrate_semi_infinite_many(family.rows, points, tol, hints)

    return many


# (name, scalar route, batched route, edge, quadrature tolerance of its
# identity's default tol, or None for a route without one); gamma's points
# lie 2 to the right of I_plus's, and it takes --gamma-sizes
FAMILIES = (
    ("I_minus", integral_forms.I_minus, batch(integral_forms._MINUS), -2.0, 1e-9),
    ("I_plus", integral_forms.I_plus, batch(integral_forms._PLUS), -3.0, 1e-9),
    ("fermi_dirac", integral_forms.fermi_dirac, batch(integral_forms._FERMI_DIRAC), 0.0, 1e-10),
    ("rhs_eq15", integral_forms.rhs_eq15, integral_forms.rhs_eq15_many, -3.0, None),
    ("gamma", special_functions.gamma, special_functions._gamma_many, -1.0, None),
)


def clear_tables() -> None:
    core_numerics._tables.clear()
    core_numerics._row_tables.clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=101)
    parser.add_argument("--sizes", default="1,2,4,8,10,11,12,13,14,16")
    parser.add_argument("--gamma-sizes", default="64,96,128,160,192,256")
    args = parser.parse_args(argv)
    print("| family | points | scalar ms | batched ms | batched/scalar | batch faster |")
    print("|---|---|---|---|---|---|")
    for name, single, many, edge, tol in FAMILIES:
        sizes = args.gamma_sizes if name == "gamma" else args.sizes
        for n in [int(n) for n in sizes.split(",")]:
            rng = random.Random(1)
            points = [
                complex(edge + rng.uniform(0.5, 5.0), rng.uniform(0.0, 2.0))
                for _ in range(n)
            ]
            tail = () if tol is None else (tol,)
            routes = {
                "scalar": lambda: [single(s, *tail) for s in points],
                "batched": lambda: many(points, *tail),
            }
            times = alternate(routes, args.rounds, before=clear_tables)
            scalar, batched, ratio, wins = compare(times["scalar"], times["batched"])
            print(f"| {name} | {n} | {scalar * 1e3:.2f} | {batched * 1e3:.2f} "
                  f"| {ratio:.2f} | {wins:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
