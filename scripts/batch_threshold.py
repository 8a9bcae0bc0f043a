"""Cost of a sweep's quadratures point by point and batched, by sweep size.

Usage:

    python scripts/batch_threshold.py [--repeats 7] [--sizes 1,4,8,16]

Run from the repository root (``src/`` is put on the path).  For each
reduced family (``I_minus``, ``I_plus``, ``fermi_dirac``, at the
quadrature tolerance of eq12, eq15 and eq18) and each sweep size n, the
script draws n seeded points with Re(s) between 0.5 and 5 above the
family's edge and Im(s) in [0, 2], and prints the median seconds of the
scalar route at every point and of the ``*_many`` batch over all of
them.  The smallest n from which the batch is cheaper in every family
is where ``identity_engine._BATCH_MIN_POINTS`` belongs.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eulerlab import integral_forms  # noqa: E402

# (name, edge, quadrature tolerance of its identity's default tol)
FAMILIES = (
    ("I_minus", -2.0, 1e-9),
    ("I_plus", -3.0, 1e-9),
    ("fermi_dirac", 0.0, 1e-10),
)


def median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--sizes", default="1,4,8,16")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    print("| family | points | scalar ms | batched ms | batched/scalar |")
    print("|---|---|---|---|---|")
    for name, edge, tol in FAMILIES:
        single = getattr(integral_forms, name)
        many = getattr(integral_forms, name + "_many")
        rng = random.Random(1)
        for n in sizes:
            points = [
                complex(edge + rng.uniform(0.5, 5.0), rng.uniform(0.0, 2.0))
                for _ in range(n)
            ]
            scalar = median_seconds(lambda: [single(s, tol) for s in points], args.repeats)
            batched = median_seconds(lambda: many(points, tol), args.repeats)
            print(f"| {name} | {n} | {scalar * 1e3:.2f} | {batched * 1e3:.2f} "
                  f"| {batched / scalar:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
