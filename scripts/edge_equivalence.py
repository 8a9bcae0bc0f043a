"""Compare single ``verify`` calls of two eulerlab checkouts on the edge panel.

Usage:

    python scripts/edge_equivalence.py PARENT_DIR CHANGE_DIR [--seeds 1,7]

The points are those of the ``edge_panel`` benchmark workload for each
seed, read from CHANGE_DIR/perfbench/workloads.py (the file is imported,
not changed).  Each checkout runs ``identity_engine.verify`` at every
point in a fresh subprocess with its own ``src/`` on the path.  Per
seed and identity the script prints the number of points, how many
changed their evaluation count, verdict or raised error (a change that
must keep the quadrature's work and verdicts prints 0 there), and the
worst |delta lhs| and |delta rhs|.  It exits 1 if any point changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import types
from pathlib import Path

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


def edge_points(checkout: Path, seed: int) -> list[tuple[str, complex]]:
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    # The panel only draws its points at construction; no library needed.
    panel = workloads.EdgePanel(types.SimpleNamespace(identity_engine=None), seed)
    return [call.args for call in panel.calls]


def run(checkout: Path, points: list[tuple[str, complex]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps([[token, s.real, s.imag] for token, s in points]),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _distance(a: dict, b: dict, side: str) -> float:
    return abs(complex(*a[side]) - complex(*b[side]))


def compare(points, parent: list[dict], change: list[dict]) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for (token, _), old, new in zip(points, parent, change):
        row = table.setdefault(token, {"points": 0, "changed": 0, "lhs": 0.0, "rhs": 0.0})
        row["points"] += 1
        if "error" in old or "error" in new:
            row["changed"] += old != new
            continue
        row["changed"] += (old["evaluations"], old["passed"]) != (new["evaluations"], new["passed"])
        row["lhs"] = max(row["lhs"], _distance(old, new, "lhs"))
        row["rhs"] = max(row["rhs"], _distance(old, new, "rhs"))
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,7", help="comma-separated seeds")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    changed = 0
    print("seed  identity  points  changed  max|dlhs|  max|drhs|")
    for seed in (int(s) for s in args.seeds.split(",")):
        points = edge_points(change, seed)
        table = compare(points, run(parent, points), run(change, points))
        for token, row in sorted(table.items()):
            changed += row["changed"]
            print(f"{seed:>4}  {token:<8}  {row['points']:>6}  {row['changed']:>7}"
                  f"  {row['lhs']:9.2e}  {row['rhs']:9.2e}")
    print(f"{changed} points changed evaluations, verdict or error")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
