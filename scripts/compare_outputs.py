"""Byte-compare the CLI output of two eulerlab checkouts.

Usage:

    python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

For each checkout the script runs the CLI from that checkout's ``src/``
in a fresh subprocess (``ab.run``): ``all`` as text, json and csv;
every ``const`` (name, method) pair with its default ``--n`` in the
same three formats, and the series routes at the ``--n`` of ``CONST_N``
as json; ``verify`` as json and csv at the points of ``VERIFY_POINTS``;
the grids of ``GRIDS`` as text, json and csv (csv does not go through
the JSON writer, so a grid that differs in json alone isolates the
writer from a value change); ``eval`` of every function at the points
of ``EVAL_POINTS`` as json and csv, and the (function, point) pairs of
``BRANCH_EVALS`` as json and csv; and the grid of ``STALLED_RANGE``,
whose step does not advance its axis: 160 commands.  It compares
stdout, stderr and the exit code of every command and exits 1 if any
differ, naming each differing command.
A refactor that must keep the numbers unchanged passes this check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import ab

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
# eq15 inside the expansion radius of each removable singularity, eq12
# within 0.05 of its own (where zeta_minus_pole fills it), eq15 within
# the 0.01 margin above its edge, which exits 2 naming the margin, and three
# points whose scalar ladders pass the kernel tables' last level (5): eq18
# and eq12 to level 9, eq15 to level 7.
VERIFY_POINTS = (
    ("eq12", "0.5+0.5i"),
    ("eq12", "-1.7+0.3i"),
    ("eq15", "0.5+1i"),
    ("eq15", "-2.8+0.7i"),
    ("eq15", "-1.00005"),
    ("eq15", "-1.99995+0.00003i"),
    ("eq12", "-0.98+0.01i"),
    ("eq15", "-2.995"),
    ("eq18", "2+1i"),
    ("eq18", "0.2+0.5i"),
    ("eq18", "1+40i"),
    ("eq12", "-1.5+25i"),
    ("eq15", "0.5+20i"),
)

# One sweep per quadrature identity, each large enough for the batched
# routes, and an eq17 sweep whose scalar eta and zeta sums start from
# the first stage of the Euler-transform table (|Im(s)| <= 8), and from
# the whole table above it.  The next three are dense enough for the
# batched ladder to take several blocks per level: the grid_eq15
# benchmark sweep, eq15 where its values reach 3e6, and eq18 from its
# domain edge.  Then a 9-point eq15 sweep, below the batch size, whose
# quadrature runs point by point.  The next is an eq15 sweep past
# integral_forms._GAMMA_BATCH_MIN_POINTS, whose Gamma(s + 2) runs as
# arrays: it holds the skipped points -1 and -2, the c_powi points (Im 0,
# half-integer s) that _gamma_many hands to scalar gamma, both sides of the
# reflection at Re(s + 2) = 1/2, and |Im(s)| up to 60.  Then eq18 sweeps
# of 13 and 14 points, on each side of integral_forms._BATCH_MIN_POINTS, and
# a one-point eq15 sweep, whose rhs is rhs_eq15's at its lone point.
GRIDS = (
    ("eq15", "--re=-2.5:3:0.5", "--im=0:2:1"),
    ("eq12", "--re=-1.5:3:0.5", "--im=0:1:1"),
    ("eq18", "--re=0.25:4:0.25", "--im=0:1:0.5"),
    ("eq17", "--re=-3:4:1", "--im=2:40:4"),
    ("eq15", "--re=-2.5:3:0.05", "--im=0:2:0.1"),
    ("eq15", "--re=3:9.5:0.1", "--im=0:3:0.5"),
    ("eq18", "--re=0.011:1.5:0.02", "--im=0:2:0.2"),
    ("eq15", "--re=-2.25:1.75:0.5", "--im=0.5:0.5:1"),
    ("eq15", "--re=-2.5:9.5:0.25", "--im=-60:60:10"),
    ("eq18", "--re=0.25:3.25:0.25", "--im=0:0:1"),
    ("eq18", "--re=0.25:3.5:0.25", "--im=0:0:1"),
    ("eq15", "--re=0.5:0.5:1", "--im=1:1:1"),
)

# A step below the float spacing of its bounds: the axis stops at once.
STALLED_RANGE = ("eq15", "--re=2.5:2.5:1", "--im=1e308:1e308:1")

EVAL_FUNCTIONS = ("eta", "eta_prime", "gamma", "zeta", "zeta_prime")

# A complex point, a negative argparse takes as a number, a positive
# integer, and two points whose eta sums start from the whole table.
EVAL_POINTS = ("0.5+1i", "-2.5", "3", "0.5+40i", "-3+70i")

# Branches of special_functions that no other command reaches: zeta and eta
# by the functional equation (_zeta_reflected, and its _log_gamma and
# _sin_pi_scaled), gamma's power folded with exp(-t) in log space (150) and
# its reflection divided in log space (-171.5, a subnormal value), and a
# derivative refused below its band, which exits 1.
BRANCH_EVALS = (
    ("zeta", "-6.5+1i"),
    ("eta", "-30"),
    ("gamma", "150"),
    ("gamma", "-171.5"),
    ("zeta_prime", "-5"),
)

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
        for fmt in FORMATS
    ]
    + [
        ["eval", function, s, f"--format={fmt}"]
        for function in EVAL_FUNCTIONS
        for s in EVAL_POINTS
        for fmt in ("json", "csv")
    ]
    + [
        ["eval", function, s, f"--format={fmt}"]
        for function, s in BRANCH_EVALS
        for fmt in ("json", "csv")
    ]
    + [["grid", *STALLED_RANGE]]
)


def run(checkout: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    proc = ab.run(checkout, ["-m", "eulerlab.cli", *argv], check=False)
    return proc.returncode, proc.stdout, proc.stderr


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
