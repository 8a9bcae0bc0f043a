"""Per-identity error of `eulerlab all --format=json` against mpmath.

Usage:

    PYTHONPATH=src python -m eulerlab.cli all --format=json > new.json
    python scripts/oracle_errors.py old.json new.json

Each identity states that its two sides are equal, so one closed form,
evaluated by mpmath at 30 digits, is the oracle for both.  For every
identity the script prints the worst |lhs - oracle| and |rhs - oracle|
over its evaluated points, one column pair per JSON file.  For two
files it adds the ratio of the second's worst error to the first's and
the number of entries (matched by identity and point) whose
``evaluations`` or ``pass`` differ, so "only the values moved" reads
as a 0 in that column.  Any JSON list of reports works, ``grid`` output
included.  Needs mpmath; it is a measuring tool, not a dependency of
the library.
"""

from __future__ import annotations

import json
import sys

import mpmath

mpmath.mp.dps = 30
_A = mpmath.glaisher


def _eq9(s):
    return 0.5 * mpmath.log(mpmath.pi) + 6 * mpmath.log(_A) - mpmath.mpf(7) / 6 * mpmath.log(2) - 1


ORACLES = {
    "eq2": lambda s: mpmath.euler,
    "eq3": lambda s: mpmath.log(4 / mpmath.pi),
    "eq4": lambda s: mpmath.euler,
    "eq6": lambda s: mpmath.zeta(2),
    "eq7": lambda s: mpmath.zeta(3),
    "eq9": _eq9,
    "eq10_limit": lambda s: _A,
    "eq11": lambda s: mpmath.log(2),
    "eq12": lambda s: mpmath.gamma(s + 2) * (mpmath.zeta(s + 2) - 1 / (s + 1)),
    "eq14": lambda s: mpmath.euler,
    "eq15": lambda s: mpmath.gamma(s + 2)
    * (mpmath.altzeta(s + 2) + (1 - 2 * mpmath.altzeta(s + 1)) / (s + 1)),
    "eq16": lambda s: mpmath.gamma(s),
    "eq17": lambda s: mpmath.altzeta(s),
    "eq18": lambda s: mpmath.gamma(s) * mpmath.altzeta(s),
    "wallis": lambda s: mpmath.pi / 2,
    "stirling": lambda s: mpmath.sqrt(2 * mpmath.pi),
}


def worst_errors(entries: list[dict]) -> dict[str, tuple[float, float]]:
    """Identity id -> (worst lhs error, worst rhs error) against the oracle."""
    worst: dict[str, tuple[float, float]] = {}
    for entry in entries:
        if entry.get("skipped"):
            continue
        s = entry["s"]
        point = None if s is None else mpmath.mpc(s["re"], s["im"])
        exact = complex(ORACLES[entry["id"]](point))
        errs = [
            abs(complex(entry[side]["re"], entry[side]["im"]) - exact)
            for side in ("lhs", "rhs")
        ]
        old = worst.get(entry["id"], (0.0, 0.0))
        worst[entry["id"]] = (max(old[0], errs[0]), max(old[1], errs[1]))
    return worst


def changed_verdicts(old: list[dict], new: list[dict]) -> dict[str, int]:
    """Identity id -> entries whose evaluations or pass differ between the files.

    Entries are matched by (id, s); an entry present in only one file,
    or skipped in one and evaluated in the other, counts as differing.
    """
    def keyed(entries):
        return {
            (e["id"], None if e["s"] is None else (e["s"]["re"], e["s"]["im"])): e
            for e in entries
        }

    before, after = keyed(old), keyed(new)
    counts: dict[str, int] = {}
    for key in before.keys() | after.keys():
        a, b = before.get(key, {}), after.get(key, {})
        fields = ("skipped", "evaluations", "pass")
        counts[key[0]] = counts.get(key[0], 0) + any(a.get(f) != b.get(f) for f in fields)
    return counts


def _ratio(new: float, old: float) -> str:
    if old == 0.0:
        return "=" if new == 0.0 else "inf"
    return f"{new / old:.2f}"


def main(paths: list[str]) -> int:
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for path in paths:
        with open(path) as handle:
            files.append(json.load(handle))
    tables = [worst_errors(entries) for entries in files]
    header = ["identity"]
    for n in range(len(paths)):
        header += [f"lhs[{n}]", f"rhs[{n}]"]
    if len(paths) == 2:
        header += ["lhs ratio", "rhs ratio", "evals/pass changed"]
        changed = changed_verdicts(*files)
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for ident in tables[0]:
        row = [ident]
        for table in tables:
            row += [f"{err:.2g}" for err in table[ident]]
        if len(paths) == 2:
            row += [_ratio(new, old) for new, old in zip(tables[1][ident], tables[0][ident])]
            row.append(str(changed.get(ident, 0)))
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
