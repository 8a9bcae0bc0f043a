"""Time eta's Euler-transform sum in two checkouts, in alternating calls.

Usage:

    python scripts/eta_cost.py PARENT_DIR CHANGE_DIR [--rounds 400] [--seed 13]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names (``ab.load``).  For each case below, each round times
one call of the case on each side, alternating which side goes first
(``ab.alternate``); the script prints, per case, the median over rounds
of each side's time, the change/parent ratio of the medians, and the
share of rounds in which the change was faster.

The cases are a block of 128 points through ``eta_many``, and scalar
``eta`` and ``eta_prime`` (the time per call, over 16 points), each on
seeded points with Re(s) in [-4, 10] and |Im(s)| <= 2, where every sum
stops within the table's first stage, and |Im(s)| in [30, 60], where
every sum starts from the whole table.  Then come the panels eq15's
right-hand side hands ``eta_many``: s + 2 and s + 1 at the 2,331 points
of the 111 x 21 sweep of the ``grid_eq15`` benchmark workload (4,662
arguments, 3,276 of them distinct, from 156 distinct real and 21
distinct imaginary parts), and at its first 2, 11 and 36 points (the
registry's eq15 panel has 72 arguments); and a repeat-free panel of
2,000 seeded points, which has nothing to share.

Per case and side the script also prints two counts that do not
depend on the machine, from one call: the complex exponentials taken
(elements of the complex arrays the module passes to ``np.exp``) and
the columns summed (points of every Euler-transform sum).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ab import alternate, compare, load

BANDS = {"im<=2": (0.0, 2.0), "im30-60": (30.0, 60.0)}
# the grid_eq15 workload's sweep, as identity_engine._grid_points builds it
SWEEP_RE, SWEEP_IM = -2.5 + 0.05 * np.arange(111), 0.1 * np.arange(21)


def sweep_panel(points: int) -> np.ndarray:
    # s + 2 and s + 1 at the sweep's first points, as rhs_eq15_many stacks them
    s = np.empty((len(SWEEP_IM), len(SWEEP_RE)), dtype=complex)
    s.real, s.imag = SWEEP_RE, SWEEP_IM[:, None]
    s = s.ravel()[:points]
    return np.concatenate((s + 2.0, s + 1.0))


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
    for points in (len(SWEEP_RE) * len(SWEEP_IM), 2, 11, 36):
        panel = sweep_panel(points)
        result[f"eta_many[{len(panel)}] sweep panel"] = (lambda p=panel: module.eta_many(p), 1)
    free = rng.uniform(-4.0, 10.0, 2000) + 1j * rng.uniform(-2.0, 2.0, 2000)
    result["eta_many[2000] repeat-free"] = (lambda p=free: module.eta_many(p), 1)
    return result


def counts(module, call) -> tuple[int, int]:
    # (complex exponentials, columns summed) of one call of a case
    seen = [0, 0]
    numpy, transform = module.np, module._euler_transform

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(numpy, name)

        def exp(self, x, *args, **kwargs):
            seen[0] += x.size if numpy.iscomplexobj(x) else 0
            return numpy.exp(x, *args, **kwargs)

    def counting_transform(weights, rest=None):
        seen[1] += weights.shape[1] if weights.ndim == 2 else 1
        return transform(weights, rest)

    module.np, module._euler_transform = CountingNumpy(), counting_transform
    try:
        call()
    finally:
        module.np, module._euler_transform = numpy, transform
    return seen[0], seen[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    modules = {side: load(checkout, f"eulerlab_{side}", "special_functions")
               for side, checkout in (("parent", args.parent), ("change", args.change))}
    calls = {side: cases(module, args.seed) for side, module in modules.items()}
    print("| case | parent us | change us | change/parent | change faster "
          "| exps parent | exps change | columns parent | columns change |")
    print("|---|---|---|---|---|---|---|---|---|")
    for case, (_, evaluations) in calls["parent"].items():
        sides = {side: calls[side][case][0] for side in calls}
        (p_exps, p_cols), (c_exps, c_cols) = (counts(modules[side], sides[side]) for side in sides)
        for call in sides.values():  # warm-up
            call()
        times = alternate(sides, args.rounds)
        p, c, ratio, faster = compare(times["parent"], times["change"])
        print(f"| {case} | {p / evaluations * 1e6:.1f} | {c / evaluations * 1e6:.1f} "
              f"| {ratio:.3f} | {faster:.0%} | {p_exps} | {c_exps} | {p_cols} | {c_cols} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
