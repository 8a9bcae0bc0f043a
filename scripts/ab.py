"""What the measuring scripts share: two sides timed alternately, and checkouts run.

``load`` imports a checkout's ``src/eulerlab`` under another package
name, so that two checkouts share one interpreter, numpy and BLAS.
``alternate`` times one call of each side per round, reversing which
goes first every other round: the load of a shared machine, which
drifts over seconds, stays out of the ratio.  ``compare`` reduces two
sides' times to their medians, the ratio of the medians and the share
of rounds the second side won.  ``run`` runs Python in a fresh
subprocess with a checkout's ``src/`` on the path.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable


def load(checkout: Path, name: str, module: str):
    """The module ``module`` of checkout's eulerlab, imported (once) as package name.

    A name already holding another checkout's package is refused, so that
    one side is never timed against itself.
    """
    package = checkout.resolve() / "src" / "eulerlab"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py", submodule_search_locations=[str(package)]
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    elif list(sys.modules[name].__path__) != [str(package)]:
        raise ValueError(f"{name} is already {sys.modules[name].__path__[0]}, not {package}")
    return importlib.import_module(f"{name}.{module}")


def seconds(call: Callable) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def alternate(calls: dict[str, Callable], rounds: int, measure=seconds, before=None) -> dict:
    """Each side's ``measure(call)`` per round, the first side first in even rounds.

    ``before``, if given, runs untimed ahead of every timed call.
    """
    samples: dict[str, list] = {side: [] for side in calls}
    order = list(calls.items())
    for i in range(rounds):
        for side, call in order if i % 2 == 0 else order[::-1]:
            if before is not None:
                before()
            samples[side].append(measure(call))
    return samples


def compare(first: list[float], second: list[float]) -> tuple[float, float, float, float]:
    """(median of first, median of second, second/first, share of rounds second was lower)."""
    a, b = statistics.median(first), statistics.median(second)
    return a, b, b / a, sum(y < x for x, y in zip(first, second)) / len(first)


def run(checkout: Path, argv: list[str], stdin: str = "", check: bool = True):
    """``python argv`` in a fresh subprocess with checkout's ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *argv], input=stdin.encode(), env=env,
                          capture_output=True, check=check)
