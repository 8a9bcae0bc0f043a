"""eulerlab benchmark: one closed-loop caller per workload, no threads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_eq15 --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's own ``src/``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run (see perfbench/README.md).  The line before it
records the environment and the exact per-pass counts.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Share of a traced run's seconds spent on untraced passes, the base of
# trace.overhead_ratio.
UNTRACED_SHARE = 1.0 / 3.0
# Seconds one calibration sample takes on the host the benchmark was
# sized on (2-core VM, 2.1 GHz) when it runs at full speed; see Calibration.
CALIBRATION_REF_S = 1.5e-3
# Seconds of unit calls between calibration samples.
CALIBRATION_EVERY_S = 0.1


def _isolate_environment() -> None:
    # Grids must take the serial path, and numpy must not start BLAS
    # threads; set-up probes inherit the same environment.
    os.environ.pop("EULERLAB_MAX_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Calibration:
    """A fixed, program-independent mix of work, timed to track host speed.

    The host's speed drifts by up to 1.7x over tens of seconds while CPU
    time keeps tracking wall time, so timed calls are bracketed by
    calibration samples and their times are scaled by CALIBRATION_REF_S
    over the samples' mean.  The mix resembles the library's: complex
    powers and exponentials in a Python loop, and a vectorised numpy
    reduction.  A sample is the mean of three repetitions.
    """

    def __init__(self, numpy) -> None:
        self.log1p = numpy.log1p
        self.vector = numpy.linspace(1e-3, 1.0, 200_000)

    def sample(self) -> float:
        s = 0.3 + 0.7j
        start = time.perf_counter()
        for _ in range(3):
            acc = 0j
            for k in range(1, 1500):
                t = k * 1e-3
                acc += cmath.exp(s * math.log(t)) * (math.expm1(-t) + t) / (math.exp(t) + 1.0)
            float(self.log1p(self.vector).sum())
        return (time.perf_counter() - start) / 3.0

    def factor(self, before: float, after: float) -> float:
        return 2.0 * CALIBRATION_REF_S / (before + after)


def _measure_setup(calibration: Calibration) -> tuple[list[float], list[float], list[float]]:
    """Import and table seconds of fresh interpreters, and their speed factors."""
    imports, tables, factors = [], [], []
    before = calibration.sample()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            cwd=ROOT,
            env=os.environ,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        after = calibration.sample()
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        tables.append(probe["tables_s"])
        factors.append(calibration.factor(before, after))
        before = after
    return imports, tables, factors


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Phase:
    """Passes of one workload: call latencies, pass times, distinct outputs.

    Consecutive unit calls are grouped until they add up to
    CALIBRATION_EVERY_S, and each group is bracketed by calibration
    samples; ``scaled_*`` are the measured times multiplied by their
    group's speed factor (see Calibration).  Grouping keeps short calls
    from running right after a calibration sample has evicted caches.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.latencies: list[float] = []
        self.scaled_latencies: list[float] = []
        self.pass_times: list[float] = []
        self.scaled_pass_times: list[float] = []
        self.outputs: list = []
        self._distinct: dict = {}

    def run(self, workload, seconds: float, min_passes: int, after_pass=None) -> None:
        deadline = time.perf_counter() + seconds
        before = self.calibration.sample()
        while len(self.pass_times) < min_passes or time.perf_counter() < deadline:
            results, group, scaled = [], [], 0.0
            for i, call in enumerate(workload.calls):
                start = time.perf_counter()
                results.append(call())
                group.append(time.perf_counter() - start)
                if sum(group) < CALIBRATION_EVERY_S and i + 1 < len(workload.calls):
                    continue
                after = self.calibration.sample()
                factor = self.calibration.factor(before, after)
                before = after
                self.latencies += group
                self.scaled_latencies += [t * factor for t in group]
                scaled += sum(group) * factor
                group = []
            if after_pass is not None:
                after_pass()
            self.pass_times.append(sum(self.latencies[-len(results):]))
            self.scaled_pass_times.append(scaled)
            # Keep one copy of each distinct output, so memory stays flat.
            output = tuple(results)
            self.outputs.append(self._distinct.setdefault(output, output))


def _median_scaled(values, factors) -> float:
    return statistics.median(v * f for v, f in zip(values, factors))


def _end_to_end(timed: Phase, per_output, setup, peak_rss_mb: float) -> dict:
    """The --trace 0 metrics, times scaled to the reference host speed."""
    imports, tables, factors = setup
    attempted = sum(c.items for c in per_output)
    failed = sum(c.failed for c in per_output)
    fail_verdicts = sum(c.fail_verdicts for c in per_output)
    rates = [c.items / t for c, t in zip(per_output, timed.scaled_pass_times)]
    return {
        "setup_s": (_median_scaled([a + b for a, b in zip(imports, tables)], factors), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(timed.scaled_latencies), "ms"),
        "call_p90_ms": (1e3 * _percentile(timed.scaled_latencies, 90), "ms"),
        "pass_rate": ((attempted - failed - fail_verdicts) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(timed: Phase, untraced: Phase, per_pass, setup, base) -> tuple[dict, bool]:
    """The --trace 1 metrics, and whether the traced counts agree.

    Counts come from the first traced pass and must repeat on every
    traced pass and match the untraced outputs; seconds are medians over
    traced passes, scaled like the end-to-end times.
    """
    from tracing import layer_counts, layer_seconds

    imports, tables, factors = setup
    counts = [layer_counts(spans, c) for spans, c in per_pass]
    agree = (
        all(c == counts[0] for c in counts)
        and counts[0]["identity_engine.evaluations"] == base.evaluations
    )
    seconds = [
        {k: v * scaled / measured for k, v in layer_seconds(spans).items()}
        for (spans, _), scaled, measured in zip(
            per_pass, timed.scaled_pass_times, timed.pass_times
        )
    ]
    values: dict[str, float] = dict(counts[0])
    for name in seconds[0]:
        values[name] = statistics.median(s[name] for s in seconds)
    eta_calls = values["special_functions.eta.calls"]
    values["special_functions.eta.us_per_call"] = (
        1e6 * values["special_functions.eta.s"] / eta_calls if eta_calls else 0.0
    )
    values["identity_engine.json_diff_entries"] = base.json_diff_entries
    values["setup.import_s"] = _median_scaled(imports, factors)
    values["setup.tables_s"] = _median_scaled(tables, factors)
    values["trace.overhead_ratio"] = statistics.median(
        timed.scaled_pass_times
    ) / statistics.median(untraced.scaled_pass_times)
    return {name: (v, _unit(name)) for name, v in sorted(values.items())}, agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eulerlab" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'eulerlab'} not found; run from a checkout", file=sys.stderr)
        return 2
    _isolate_environment()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, References

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    import numpy

    calibration = Calibration(numpy)
    setup = _measure_setup(calibration)

    sys.path.insert(0, str(SRC))
    import eulerlab
    from eulerlab import cli, identity_engine  # noqa: F401  (loads every layer)

    if not Path(eulerlab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: eulerlab came from {eulerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](eulerlab, args.seed)
    warmup = Phase(calibration)
    warmup.run(workload, 0.0, 1)
    untraced = Phase(calibration)
    timed = Phase(calibration)
    per_pass: list = []
    if args.trace:
        from tracing import Tracer

        untraced.run(workload, args.seconds * UNTRACED_SHARE, 1)
        tracer = Tracer()
        tracer.install()
        try:
            timed.run(
                workload,
                args.seconds * (1.0 - UNTRACED_SHARE),
                2,
                after_pass=lambda: per_pass.append(tracer.take()),
            )
        finally:
            tracer.uninstall()
    else:
        timed.run(workload, args.seconds, workload.min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below runs outside the timed phase.
    refs = References()
    reference_output = warmup.outputs[0]
    checked = {}
    for output in [reference_output, *timed.outputs]:
        if output not in checked:
            checked[output] = workload.check(output, refs)
    per_output = [checked[o] for o in timed.outputs]
    base = checked[reference_output]
    consistent = all(o == reference_output for o in untraced.outputs + timed.outputs)
    if args.trace:
        metrics, agree = _per_layer(timed, untraced, per_pass, setup, base)
        consistent = consistent and agree
    else:
        metrics = _end_to_end(timed, per_output, setup, peak_rss_mb)
    failed = sum(c.failed for c in per_output)

    imports, tables, _ = setup
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": refs.version,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(timed.pass_times),
        "calls": len(timed.latencies),
        "per_pass": {
            "items": base.items,
            "evaluations": base.evaluations,
            "fail_verdicts": base.fail_verdicts,
            "json_diff_entries": base.json_diff_entries,
        },
        "unscaled": {
            "setup_s": statistics.median(a + b for a, b in zip(imports, tables)),
            "pass_s_median": statistics.median(timed.pass_times),
            "call_p50_ms": 1e3 * statistics.median(timed.latencies),
            "call_p90_ms": 1e3 * _percentile(timed.latencies, 90),
            "speed_factor_median": statistics.median(
                s / t for s, t in zip(timed.scaled_latencies, timed.latencies)
            ),
        },
        "consistent": consistent,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": sum(c.items for c in per_output),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
