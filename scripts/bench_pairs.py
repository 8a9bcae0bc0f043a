"""Run the benchmark on two checkouts in alternating pairs and summarise.

Usage:

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload grid_eq15 \\
        --seeds 1-10 --out BENCH.json [--seconds 30] [--trace 0]

For each seed the script runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

once in each checkout, one run at a time, alternating which side goes
first (the parent on odd seeds).  Each run compiles its checkout afresh:
it reads bytecode only from a directory made for its pair
(``PYTHONPYCACHEPREFIX``) and writes none (``PYTHONDONTWRITEBYTECODE``),
so neither side imports bytecode an earlier run left in its checkout.
Before the pair runs, that directory is seeded by running
``perfbench/setup_probe.py`` in each checkout with bytecode writes on,
and the bytecode of the checkouts' own sources is then removed: both
sides read the same compiled numpy and standard library, as a fresh
checkout reads numpy's installed bytecode, and compile eulerlab and the
benchmark.  Every run's info and result lines are appended to the
``runs`` of the JSON file given as ``--out`` (created if missing, its
other keys kept, so several workloads and scripts can share one file),
and ``summary`` is recomputed from all untraced runs in it: per workload and
end-to-end metric of BENCHMARK.json, the parent's median and
interquartile range, the change's median, their ratio, and the number
of pairs the change wins (ties count for neither side).  The summary is
also printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _seed_prefix(prefix: str, checkouts) -> None:
    # Bytecode of what set-up imports, but for the checkouts' own sources.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for checkout in checkouts:
        subprocess.run(
            [sys.executable, "perfbench/setup_probe.py", "src"], cwd=checkout,
            capture_output=True, text=True, check=True, env=dict(env, PYTHONPYCACHEPREFIX=prefix),
        )
        root = Path(checkout).resolve()
        shutil.rmtree(Path(prefix, root.relative_to(root.anchor)), ignore_errors=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
         prefix: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=prefix),
    )
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"info": info["info"], "result": result}


def run_pair(sides: dict[str, Path], workload: str, seed: int, seconds: float,
             trace: int) -> dict[str, dict]:
    """Both sides' runs of one seed, the parent first on odd seeds, in one seeded prefix."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    with tempfile.TemporaryDirectory() as prefix:
        _seed_prefix(prefix, sides.values())
        return {side: _run(sides[side], workload, seed, seconds, trace, prefix) for side in order}


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

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", [])
    sides = {"parent": args.parent, "change": args.change}
    for seed in args.seeds:
        for side, run in run_pair(sides, args.workload, seed, args.seconds, args.trace).items():
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
