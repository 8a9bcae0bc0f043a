"""Time eta's Euler-transform sum in two checkouts, in alternating calls.

Usage:

    python scripts/eta_cost.py PARENT_DIR CHANGE_DIR [--rounds 400] [--seed 13]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names (``ab.load``).  For each case below, each round times
one call of the case on each side, alternating which side goes first
(``ab.alternate``); the script prints, per case, the median over rounds
of each side's time, the change/parent ratio of the medians, and the
share of rounds in which the change was faster.

The cases are a block of 128 points through ``eta_many`` (one matrix
product per block), and scalar ``eta`` and ``eta_prime`` (the time per
call, over 16 points), each on seeded points with Re(s) in [-4, 10] and
|Im(s)| <= 2, where every sum stops within the table's first stage, and
|Im(s)| in [30, 60], where every sum starts from the whole table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ab import alternate, compare, load

BANDS = {"im<=2": (0.0, 2.0), "im30-60": (30.0, 60.0)}


def cases(module, seed: int) -> dict:
    # (call, number of evaluations it makes) per case
    rng = np.random.default_rng(seed)
    result = {}
    for band, (lo, hi) in BANDS.items():
        im = rng.uniform(lo, hi, 128) * rng.choice([-1.0, 1.0], 128)
        block = rng.uniform(-4.0, 10.0, 128) + 1j * im
        points = block[:16].tolist()
        result[f"eta_many[128] {band}"] = (lambda b=block: module.eta_many(b), 1)
        for f in (module.eta, module.eta_prime):
            result[f"{f.__name__} {band}"] = (lambda f=f, p=points: [f(s) for s in p], 16)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    calls = {side: cases(load(checkout, f"eulerlab_{side}", "special_functions"), args.seed)
             for side, checkout in (("parent", args.parent), ("change", args.change))}
    print("| case | parent us | change us | change/parent | change faster |")
    print("|---|---|---|---|---|")
    for case, (_, evaluations) in calls["parent"].items():
        sides = {side: calls[side][case][0] for side in calls}
        for call in sides.values():  # warm-up
            call()
        times = alternate(sides, args.rounds)
        p, c, ratio, faster = compare(times["parent"], times["change"])
        print(f"| {case} | {p / evaluations * 1e6:.1f} | {c / evaluations * 1e6:.1f} "
              f"| {ratio:.3f} | {faster:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
