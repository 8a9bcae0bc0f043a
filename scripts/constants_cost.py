"""Time the long constants routes in two checkouts, in alternating calls.

Usage:

    python scripts/constants_cost.py PARENT_DIR CHANGE_DIR [--rounds 30] [--out FILE]

Both checkouts' ``src/eulerlab`` packages are loaded into one process
under two names (``ab.load``), so that both sides share the
interpreter, numpy and the allocator.  The cases (``CASES``) are the
constants routes that ``eulerlab all`` calls at their registry term
counts, two of them also at 10**6 terms, and one whole ``verify_all()``.
Each case calls its route alone, outside ``verify_all``'s memo, so a
route whose walk ``verify_all`` shares (``euler_gamma_series`` and
``wallis_partial``) shows what that walk costs a lone call.
For each case each round times one call on each side, alternating which
side goes first (``ab.alternate``); the script prints, per case, the
median over rounds of each side's milliseconds, the change/parent ratio
of the medians, and the share of rounds in which the change was faster.

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
import json
import resource
import statistics
import sys
from pathlib import Path

from ab import alternate, compare, load, seconds

# case -> (module, function, arguments)
CASES = {
    "glaisher_limit(10**5)": ("constants", "glaisher_limit", (10**5,)),
    "glaisher_limit(10**6)": ("constants", "glaisher_limit", (10**6,)),
    "ln2_series(10**5)": ("constants", "ln2_series", (10**5,)),
    "ln2_series(10**6)": ("constants", "ln2_series", (10**6,)),
    "euler_gamma_series(10**6)": ("constants", "euler_gamma_series", (10**6,)),
    "wallis_partial(10**6)": ("constants", "wallis_partial", (10**6,)),
    "euler_formula_gamma(50)": ("constants", "euler_formula_gamma", (50,)),
    "glaisher_zeta()": ("constants", "glaisher_zeta", ()),
    "verify_all()": ("identity_engine", "verify_all", ()),
}


def cases(checkout: Path, package: str) -> dict:
    return {case: functools.partial(getattr(load(checkout, package, module), function), *args)
            for case, (module, function, args) in CASES.items()}


def measure(call) -> tuple[float, int]:
    """(seconds, minor page faults) of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    elapsed = seconds(call)
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


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
        sides = {side: calls[side][case] for side in calls}
        for call in sides.values():  # one untimed call each: imports, caches, tables
            call()
        samples = alternate(sides, args.rounds, measure)
        times = {side: [t * 1e3 for t, _ in s] for side, s in samples.items()}
        faults = {side: statistics.median(f for _, f in s) for side, s in samples.items()}
        p, c, ratio, faster = compare(times["parent"], times["change"])
        rows.append({
            "case": case,
            "parent_ms": p,
            "change_ms": c,
            "change_over_parent": ratio,
            "change_faster_share": faster,
            "parent_minor_faults": faults["parent"],
            "change_minor_faults": faults["change"],
        })
        print(f"| {case} | {p:.2f} | {c:.2f} | {ratio:.3f} | {faster:.0%} | "
              f"{faults['parent']:g} | {faults['change']:g} |")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record["constants_cost"] = {"rounds": args.rounds, "rows": rows}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
