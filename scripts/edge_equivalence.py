"""Compare single ``verify`` calls of two eulerlab checkouts on the edge panel.

Usage:

    python scripts/edge_equivalence.py PARENT_DIR CHANGE_DIR [--seeds 1,7]

The points are those of the ``edge_panel`` benchmark workload for each
seed, read from CHANGE_DIR/perfbench/workloads.py (the file is imported,
not changed).  Each checkout runs ``identity_engine.verify`` at every
point in a fresh subprocess with its own ``src/`` on the path
(``ab.run``).  Per seed and identity the script prints the number of
points, how many changed their evaluation count, verdict or raised
error (a change that must keep the quadrature's work and verdicts prints
0 there), how many changed a bit of their lhs and of their rhs, and the
worst |delta lhs| and |delta rhs|.  When mpmath imports it adds the
oracle columns: per side the FAIL verdicts and the worst |lhs - mpmath
closed form| (the closed forms of the workload's own check), the same
for rhs, and the FAIL->PASS and PASS->FAIL counts.  It exits 1 if any
point changed.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

import ab

CHILD = r"""
import json, sys
from eulerlab import identity_engine
out = []
for token, re, im in json.load(sys.stdin):
    try:
        r = identity_engine.verify(token, complex(re, im))
    except Exception as exc:
        out.append({"error": f"{type(exc).__name__}: {exc}"})
    else:
        out.append({
            "lhs": [r.lhs.real, r.lhs.imag],
            "rhs": [r.rhs.real, r.rhs.imag],
            "passed": r.passed,
            "evaluations": r.evaluations,
        })
json.dump(out, sys.stdout)
"""


def _workloads(checkout: Path):
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def edge_points(checkout: Path, seed: int) -> list[tuple[str, complex]]:
    workloads = _workloads(checkout)
    # The panel only draws its points at construction; no library needed.
    panel = workloads.EdgePanel(types.SimpleNamespace(identity_engine=None), seed)
    return [call.args for call in panel.calls]


def run(checkout: Path, points: list[tuple[str, complex]]) -> list[dict]:
    stdin = json.dumps([[token, s.real, s.imag] for token, s in points])
    return json.loads(ab.run(checkout, ["-c", CHILD], stdin).stdout)


def _distance(a: dict, b: dict, side: str) -> float:
    return abs(complex(*a[side]) - complex(*b[side]))


def compare(points, parent: list[dict], change: list[dict], refs) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for (token, s), old, new in zip(points, parent, change):
        row = table.setdefault(token, dict.fromkeys(
            ("points", "changed", "lhs_changed", "rhs_changed", "lhs", "rhs", "old_fails", "new_fails",
             "old_oracle", "new_oracle", "old_rhs_oracle", "new_rhs_oracle",
             "fail_to_pass", "pass_to_fail"), 0))
        row["points"] += 1
        if "error" in old or "error" in new:
            row["changed"] += old != new
            continue
        row["changed"] += (old["evaluations"], old["passed"]) != (new["evaluations"], new["passed"])
        # JSON keeps every bit of a float, and the sign of a zero
        row["lhs_changed"] += old["lhs"] != new["lhs"]
        row["rhs_changed"] += old["rhs"] != new["rhs"]
        row["lhs"] = max(row["lhs"], _distance(old, new, "lhs"))
        row["rhs"] = max(row["rhs"], _distance(old, new, "rhs"))
        row["old_fails"] += not old["passed"]
        row["new_fails"] += not new["passed"]
        row["fail_to_pass"] += new["passed"] and not old["passed"]
        row["pass_to_fail"] += old["passed"] and not new["passed"]
        ref = refs(token, s)
        if ref is not None:
            row["old_oracle"] = max(row["old_oracle"], abs(complex(*old["lhs"]) - ref))
            row["new_oracle"] = max(row["new_oracle"], abs(complex(*new["lhs"]) - ref))
            row["old_rhs_oracle"] = max(row["old_rhs_oracle"], abs(complex(*old["rhs"]) - ref))
            row["new_rhs_oracle"] = max(row["new_rhs_oracle"], abs(complex(*new["rhs"]) - ref))
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,7", help="comma-separated seeds")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    refs = _workloads(change).References()
    oracle = refs.mp is not None
    changed = lhs_changed = 0
    header = ["seed", "identity", "points", "changed", "lhs changed", "rhs changed",
              "max abs dlhs",
              "max abs drhs"]
    if oracle:
        header += ["parent FAILs", "parent max abs(lhs - mpmath)", "change FAILs",
                   "change max abs(lhs - mpmath)", "parent max abs(rhs - mpmath)",
                   "change max abs(rhs - mpmath)", "FAIL->PASS", "PASS->FAIL"]
    print("| " + " | ".join(header) + " |")
    print("|---" * len(header) + "|")
    for seed in (int(s) for s in args.seeds.split(",")):
        points = edge_points(change, seed)
        table = compare(points, run(parent, points), run(change, points), refs)
        for token, row in sorted(table.items()):
            changed += row["changed"]
            lhs_changed += row["lhs_changed"]
            line = (f"| {seed} | {token} | {row['points']} | {row['changed']}"
                    f" | {row['lhs_changed']} | {row['rhs_changed']} | {row['lhs']:.2e}"
                    f" | {row['rhs']:.2e} |")
            if oracle:
                line += (f" {row['old_fails']} | {row['old_oracle']:.1e} | {row['new_fails']}"
                         f" | {row['new_oracle']:.1e} | {row['old_rhs_oracle']:.1e}"
                         f" | {row['new_rhs_oracle']:.1e} | {row['fail_to_pass']}"
                         f" | {row['pass_to_fail']} |")
            print(line)
    print(f"{changed} points changed evaluations, verdict or error")
    print(f"{lhs_changed} points changed a bit of their lhs")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
