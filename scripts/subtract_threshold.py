"""Cost of the plain and the subtracted route next to each family's domain edge.

Usage:

    python scripts/subtract_threshold.py [--repeats 5] [--tol 1e-9]

Run from the repository root (``src/`` is put on the path).  For
``I_minus``, ``I_plus`` and ``fermi_dirac`` at d = Re(s) - edge in
DISTANCES and Im(s) in IMAGS, the script forces each route by setting
``integral_forms._SUBTRACT_BELOW`` (0 for the plain quadrature over
(0, T), infinity for the subtracted one) and prints, per family and d,
the evaluations and the median seconds summed over the Im(s) values,
and how many of those points each route leaves unconverged.  The
crossover of the two costs is where ``_SUBTRACT_BELOW`` belongs.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eulerlab import integral_forms  # noqa: E402

FAMILIES = (
    ("I_minus", integral_forms.I_minus, -2.0),
    ("I_plus", integral_forms.I_plus, -3.0),
    ("fermi_dirac", integral_forms.fermi_dirac, 0.0),
)
DISTANCES = (0.0101, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.6, 0.8, 1.0)
IMAGS = (0.0, 0.5, 1.0, 2.0)
ROUTES = (("plain", 0.0), ("subtracted", math.inf))


def measure(fn, s: complex, tol: float, repeats: int) -> tuple[int, float, bool]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(s, tol)
        times.append(time.perf_counter() - start)
    return result.evaluations, statistics.median(times), result.converged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    saved = integral_forms._SUBTRACT_BELOW
    print(f"evaluations and ms summed over Im(s) in {IMAGS}, tol {args.tol:g}; "
          "unconverged points in brackets")
    print("| family | d | plain evals | subtracted evals | plain ms | subtracted ms |")
    print("|---|---|---|---|---|---|")
    try:
        for name, fn, edge in FAMILIES:
            for d in DISTANCES:
                cells = {}
                for route, threshold in ROUTES:
                    integral_forms._SUBTRACT_BELOW = threshold
                    runs = [measure(fn, complex(edge + d, im), args.tol, args.repeats)
                            for im in IMAGS]
                    cells[route] = (
                        sum(r[0] for r in runs),
                        1e3 * sum(r[1] for r in runs),
                        sum(not r[2] for r in runs),
                    )
                (pe, pt, pu), (se, st, su) = cells["plain"], cells["subtracted"]
                print(f"| {name} | {d:g} | {pe} [{pu}] | {se} [{su}] | {pt:.2f} | {st:.2f} |")
    finally:
        integral_forms._SUBTRACT_BELOW = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
