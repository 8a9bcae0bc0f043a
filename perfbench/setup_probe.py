"""Time eulerlab's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR

Prints one JSON line: ``import_s``, the time of ``import eulerlab`` from
SRC_DIR (numpy included), and ``tables_s``, the lazily built tables:
the binomial rows behind the first ``eta`` call and the node tables of
every tanh-sinh refinement level, built by one quadrature that cannot
converge and so walks the whole ladder.
"""

import json
import math
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import eulerlab

    imported = time.perf_counter()
    if not Path(eulerlab.__file__).resolve().is_relative_to(src):
        print(f"eulerlab imported from {eulerlab.__file__}, not {src}", file=sys.stderr)
        return 2
    eulerlab.eta(0.5 + 1j)
    eulerlab.integrate_finite(math.sqrt, 0.0, 1.0, 1e-300)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "tables_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
