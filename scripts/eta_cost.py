"""Time eta's Euler-transform sum in two checkouts, in alternating calls.

Usage:

    python scripts/eta_cost.py PARENT_DIR CHANGE_DIR [--rounds 400] [--seed 13]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names, so that both sides share the interpreter, numpy and
BLAS.  For each case below, each round times one call of the case on
each side, alternating which side goes first; the script prints, per
case, the median over rounds of each side's time, the change/parent
ratio of the medians, and the share of rounds in which the change was
faster.  Timing the two sides in alternation within a round keeps the
load of a shared machine, which drifts over seconds, out of the ratio.

The cases are a block of 128 points through ``eta_many`` (one matrix
product per block), and scalar ``eta`` and ``eta_prime`` (the time per
call, over 16 points), each on seeded points with Re(s) in [-4, 10] and
|Im(s)| <= 2, where every sum stops within the table's first stage, and
|Im(s)| in [30, 60], where every sum starts from the whole table.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BANDS = {"im<=2": (0.0, 2.0), "im30-60": (30.0, 60.0)}


def load(checkout: Path, name: str):
    """The special_functions module of checkout's eulerlab, as package name."""
    package = checkout.resolve() / "src" / "eulerlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.special_functions")


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


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    parent = cases(load(args.parent, "eulerlab_parent"), args.seed)
    change = cases(load(args.change, "eulerlab_change"), args.seed)
    print("| case | parent us | change us | change/parent | change faster |")
    print("|---|---|---|---|---|")
    for case, (parent_call, calls) in parent.items():
        change_call = change[case][0]
        parent_call(), change_call()  # warm-up
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = [("parent", parent_call), ("change", change_call)]
            for side, call in order if i % 2 == 0 else order[::-1]:
                times[side].append(seconds(call) / calls * 1e6)
        p, c = statistics.median(times["parent"]), statistics.median(times["change"])
        faster = sum(b < a for a, b in zip(times["parent"], times["change"])) / args.rounds
        print(f"| {case} | {p:.1f} | {c:.1f} | {c / p:.3f} | {faster:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
