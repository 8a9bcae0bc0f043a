"""Byte-compare the CLI output of two eulerlab checkouts.

Usage:

    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

For each checkout the script runs the CLI from that checkout's ``src/``
in a fresh subprocess: ``all`` as text, json and csv; every ``const``
(name, method) pair with its default ``--n`` in the same three formats,
and the series routes at the ``--n`` of ``CONST_N`` as json;
``verify`` as json and csv at the points of ``VERIFY_POINTS``; the
grids of ``GRIDS`` as json and csv (csv does not go through the JSON
writer, so a grid that differs in json alone isolates the writer from
a value change); and ``eval`` of every
function at the points of ``EVAL_POINTS`` as json and csv.  It compares
stdout and the exit code of every command and exits 1 if any differ,
naming each differing command.
A refactor that must keep the numbers unchanged passes this check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

FORMATS = ("text", "json", "csv")

CONST_PAIRS = (
    ("gamma", "euler_formula"),
    ("gamma", "series"),
    ("ln4pi", "closed_form"),
    ("ln4pi", "series"),
    ("glaisher", "zeta_route"),
    ("glaisher", "limit_ratio"),
    ("sqrt2pi", "closed_form"),
    ("sqrt2pi", "limit_ratio"),
    ("ln2", "closed_form"),
    ("ln2", "series"),
)

# Term counts away from the defaults whose blocked sums (constants._BLOCK)
# cross leaf boundaries, and a prime n for the hyperfactorial sum.
CONST_N = (
    ("gamma", "series", 32769),
    ("gamma", "series", 65543),
    ("ln4pi", "series", 98305),
    ("glaisher", "limit_ratio", 99991),
)

# One interior point and one within 0.45 of the domain edge (where the
# quadratures subtract the endpoint singularity) per quadrature identity,
# and eq15 inside the expansion radius of its removable singularity.
VERIFY_POINTS = (
    ("eq12", "0.5+0.5i"),
    ("eq12", "-1.7+0.3i"),
    ("eq15", "0.5+1i"),
    ("eq15", "-2.8+0.7i"),
    ("eq15", "-1.00005"),
    ("eq18", "2+1i"),
    ("eq18", "0.2+0.5i"),
)

# One sweep per quadrature identity, each large enough for the batched
# routes.
GRIDS = (
    ("eq15", "--re=-2.5:3:0.5", "--im=0:2:1"),
    ("eq12", "--re=-1.5:3:0.5", "--im=0:1:1"),
    ("eq18", "--re=0.25:4:0.25", "--im=0:1:0.5"),
)

EVAL_FUNCTIONS = ("eta", "eta_prime", "gamma", "zeta", "zeta_prime")

# A complex point, a negative argparse takes as a number, and a positive
# integer.
EVAL_POINTS = ("0.5+1i", "-2.5", "3")

COMMANDS = (
    [["all", f"--format={fmt}"] for fmt in FORMATS]
    + [
        ["const", name, f"--method={method}", f"--format={fmt}"]
        for name, method in CONST_PAIRS
        for fmt in FORMATS
    ]
    + [
        ["const", name, f"--method={method}", f"--n={n}", "--format=json"]
        for name, method, n in CONST_N
    ]
    + [
        ["verify", token, f"--s={s}", f"--format={fmt}"]
        for token, s in VERIFY_POINTS
        for fmt in ("json", "csv")
    ]
    + [
        ["grid", token, re, im, f"--format={fmt}"]
        for token, re, im in GRIDS
        for fmt in ("json", "csv")
    ]
    + [
        ["eval", function, s, f"--format={fmt}"]
        for function in EVAL_FUNCTIONS
        for s in EVAL_POINTS
        for fmt in ("json", "csv")
    ]
)


def run(checkout: Path, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "eulerlab.cli", *argv],
        env=env,
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    differing = 0
    for command in COMMANDS:
        if run(parent, command) != run(change, command):
            differing += 1
            print(f"DIFF  {' '.join(command)}")
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
