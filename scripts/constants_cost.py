"""Time the long constants routes in two checkouts, in alternating calls.

Usage:

    python scripts/constants_cost.py PARENT_DIR CHANGE_DIR [--rounds 30] [--out FILE]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names (``sweep_cost.load``), so that both sides share the
interpreter, numpy and the allocator.  The cases (``CASES``) are the
constants routes that ``eulerlab all`` calls at their registry term
counts, two of them also at 10**6 terms, and one whole ``verify_all()``.  For each case each
round times one call on each side, alternating which side goes first;
the script prints, per case, the median over rounds of each side's
milliseconds, the change/parent ratio of the medians, and the share of
rounds in which the change was faster.  Timing the two sides in
alternation within a round keeps the load of a shared machine, which
drifts over seconds, out of the ratio.

Beside each median it prints the median count of minor page faults per
call (``ru_minflt`` of ``resource.getrusage(RUSAGE_SELF)`` around the
call): a temporary the allocator maps afresh faults once per page it
touches, so the count shows fresh temporaries whatever the machine's
speed.  With ``--out`` the rows are also written, under the key
``constants_cost``, into that JSON file (created if missing; its other
keys are kept).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from sweep_cost import load

# case -> (module, function, arguments)
CASES = {
    "glaisher_limit(10**5)": ("constants", "glaisher_limit", (10**5,)),
    "glaisher_limit(10**6)": ("constants", "glaisher_limit", (10**6,)),
    "ln2_series(10**5)": ("constants", "ln2_series", (10**5,)),
    "ln2_series(10**6)": ("constants", "ln2_series", (10**6,)),
    "euler_gamma_series(10**6)": ("constants", "euler_gamma_series", (10**6,)),
    "wallis_partial(10**6)": ("constants", "wallis_partial", (10**6,)),
    "verify_all()": ("identity_engine", "verify_all", ()),
}


def cases(checkout: Path, package: str) -> dict:
    load(checkout, package)
    result = {}
    for case, (module, function, args) in CASES.items():
        routine = getattr(importlib.import_module(f"{package}.{module}"), function)
        result[case] = functools.partial(routine, *args)
    return result


def measure(call) -> tuple[float, int]:
    """(milliseconds, minor page faults) of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    return elapsed * 1e3, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    calls = {
        "parent": cases(args.parent, "eulerlab_parent"),
        "change": cases(args.change, "eulerlab_change"),
    }
    rows = []
    print("| case | parent ms | change ms | change/parent | change faster "
          "| parent minor faults | change minor faults |")
    print("|---|---|---|---|---|---|---|")
    for case in CASES:
        for side in calls:  # one untimed call each: imports, caches, tables
            calls[side][case]()
        samples: dict[str, list[tuple[float, int]]] = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(measure(calls[side][case]))
        ms = {side: statistics.median(t for t, _ in s) for side, s in samples.items()}
        faults = {side: statistics.median(f for _, f in s) for side, s in samples.items()}
        faster = sum(
            c < p for (p, _), (c, _) in zip(samples["parent"], samples["change"])
        ) / args.rounds
        rows.append({
            "case": case,
            "parent_ms": ms["parent"],
            "change_ms": ms["change"],
            "change_over_parent": ms["change"] / ms["parent"],
            "change_faster_share": faster,
            "parent_minor_faults": faults["parent"],
            "change_minor_faults": faults["change"],
        })
        print(f"| {case} | {ms['parent']:.2f} | {ms['change']:.2f} | "
              f"{ms['change'] / ms['parent']:.3f} | {faster:.0%} | "
              f"{faults['parent']:g} | {faults['change']:g} |")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record["constants_cost"] = {"rounds": args.rounds, "rows": rows}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
