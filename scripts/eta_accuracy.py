"""Worst error of eta, zeta and their derivatives, per Re(s) band, for two checkouts.

Usage:

    python scripts/eta_accuracy.py PARENT_DIR CHANGE_DIR

Both checkouts evaluate ``eta``, ``zeta``, ``eta_prime`` and
``zeta_prime`` at the same fixed, seeded points (POINTS_PER_BAND per
band of BANDS, Im(s) uniform in [-2, 2]), each in a fresh subprocess
importing that checkout's ``src/``.  A checkout whose special functions
still take truncation options (``EvalOptions``) is run twice: with the
library default, and with ``tol=1e-15, max_terms=128`` as its ``eval``
command used.  The oracle is mpmath at 30 digits.  The error of a
value is |f - oracle| / max(1, |oracle|): absolute where the value is
O(1), relative where it is large (zeta next to its pole at s = 1).

The script prints one markdown table per function: a row per band, a
column per checkout setting with the worst error, and the ratio of the
change to the parent's library default.  Needs mpmath; it is a
measuring tool, not a dependency of the library.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath

mpmath.mp.dps = 30

BANDS = (
    (-4.0, -3.0), (-3.0, -2.0), (-2.0, -1.5), (-1.5, -1.0), (-1.0, -0.5),
    (-0.5, 0.0), (0.0, 0.5), (0.5, 2.0), (2.0, 10.0),
)
POINTS_PER_BAND = 500
SEED = 0xE7A5
FUNCTIONS = ("eta", "zeta", "eta_prime", "zeta_prime")

ORACLES = {
    "eta": lambda s: mpmath.altzeta(s),
    "zeta": lambda s: mpmath.zeta(s),
    "eta_prime": lambda s: mpmath.diff(mpmath.altzeta, s),
    "zeta_prime": lambda s: mpmath.zeta(s, 1, 1),
}

# Runs inside the checkout's interpreter: reads [setting, points] as JSON
# on stdin, writes {function: [[re, im], ...]} as JSON on stdout.
_EVALUATE = """
import json, sys
from eulerlab import special_functions as sf
setting, points = json.load(sys.stdin)
args = () if setting == "default" else (sf.EvalOptions(tol=1e-15, max_terms=128),)
out = {}
for name in %r:
    f = getattr(sf, name)
    out[name] = [[v.real, v.imag] for v in (f(complex(*p), *args) for p in points)]
json.dump(out, sys.stdout)
""" % (FUNCTIONS,)


def band_points() -> dict[tuple[float, float], list[complex]]:
    rng = random.Random(SEED)
    points = {}
    for lo, hi in BANDS:
        band = []
        while len(band) < POINTS_PER_BAND:
            s = complex(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0))
            if abs(s - 1.0) >= 0.05:  # zeta's pole
                band.append(s)
        points[(lo, hi)] = band
    return points


def settings(checkout: Path) -> list[str]:
    text = (checkout / "src" / "eulerlab" / "special_functions.py").read_text()
    return ["default", "tol=1e-15"] if "class EvalOptions" in text else ["default"]


def evaluate(checkout: Path, setting: str, points: list[complex]) -> dict[str, list[complex]]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE],
        input=json.dumps([setting, [[p.real, p.imag] for p in points]]),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    values = json.loads(proc.stdout)
    return {name: [complex(*v) for v in values[name]] for name in FUNCTIONS}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    bands = band_points()
    flat = [s for band in bands.values() for s in band]
    oracle = {
        name: [complex(f(mpmath.mpc(s.real, s.imag))) for s in flat]
        for name, f in ORACLES.items()
    }
    columns = []  # (label, {function: [value per point]})
    for label, checkout in (("parent", parent), ("change", change)):
        for setting in settings(checkout):
            columns.append((f"{label} {setting}", evaluate(checkout, setting, flat)))
    for name in FUNCTIONS:
        print(f"\n{name}: worst |f - mpmath| / max(1, |mpmath|)\n")
        print("| Re(s) | " + " | ".join(label for label, _ in columns) + " | change / parent default |")
        print("|---|" + "---|" * (len(columns) + 1))
        start = 0
        for lo, hi in bands:
            stop = start + POINTS_PER_BAND
            worst = []
            for _, values in columns:
                worst.append(max(
                    abs(v - e) / max(1.0, abs(e))
                    for v, e in zip(values[name][start:stop], oracle[name][start:stop])
                ))
            start = stop
            ratio = worst[-1] / worst[0] if worst[0] else float("nan")
            cells = " | ".join(f"{w:.1e}" for w in worst)
            print(f"| [{lo:g}, {hi:g}) | {cells} | {ratio:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
