"""Run the benchmark on two checkouts in alternating pairs and summarise.

Usage:

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload grid_eq15 \\
        --seeds 1-10 --out BENCH.json [--seconds 30] [--trace 0]

For each seed the script runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

once in each checkout, one run at a time, alternating which side goes
first (the parent on odd seeds).  Each run compiles its checkout afresh:
it reads and writes no bytecode but in an empty directory of its own
(``PYTHONPYCACHEPREFIX``, with ``PYTHONDONTWRITEBYTECODE``), so neither
side imports bytecode an earlier run left in its checkout.  That holds
for numpy and the standard library too, which makes ``setup_s`` larger
than a run in a fresh checkout reads.  Every run's info and result
lines are appended to the ``runs`` of the JSON file given as ``--out``
(created if missing, so several workloads can share one file), and
``summary`` is recomputed from all untraced runs in it: per workload and
end-to-end metric of BENCHMARK.json, the parent's median and
interquartile range, the change's median, their ratio, and the number
of pairs the change wins (ties count for neither side).  The summary is
also printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    with tempfile.TemporaryDirectory() as cache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache),
        )
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"info": info["info"], "result": result}


def _quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    summary: dict = {}
    untraced = [r for r in runs if r["trace"] == 0]
    for workload in sorted({r["workload"] for r in untraced}):
        pairs: dict[int, dict] = {}
        for r in untraced:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {seed: p for seed, p in pairs.items() if len(p) == 2}
        metrics = {}
        for spec in end_to_end:
            name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
            parent = [p["parent"][name]["value"] for p in pairs.values()]
            change = [p["change"][name]["value"] for p in pairs.values()]
            if not parent:
                continue
            metrics[name] = {
                "parent_median": statistics.median(parent),
                "parent_iqr": _quartile_gap(parent),
                "change_median": statistics.median(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
        summary[workload] = {"pairs": len(pairs), "metrics": metrics}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    sides = {"parent": args.parent, "change": args.change}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            run = _run(sides[side], args.workload, seed, args.seconds, args.trace)
            record["runs"].append(
                {"side": side, "workload": args.workload, "seed": seed, "trace": args.trace, **run}
            )
            print(f"{args.workload} seed {seed} {side}: correct={run['result']['correct']}",
                  file=sys.stderr)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    record["summary"] = summarise(record["runs"], spec["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
