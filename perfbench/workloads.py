"""The benchmark's workloads: inputs made from a seed, one pass, the check.

Each workload is a closed loop with one caller.  ``calls`` lists the
unit calls of one pass; each returns its output as a hashable key, so
that the harness can time every call, check each distinct pass output
once and confirm that every pass returned the same thing.  ``check``
takes the tuple of one pass's keys and runs outside the timed phase.

* ``registry``: ``eulerlab all --format=json`` in-process; the unit call
  is one ``all``.  The input is fixed, so the seed is unused.  Checked
  against the committed golden output within each identity's ``tol``.
* ``grid_eq15``: one 111 x 21 sweep of eq15; the unit call is the whole
  sweep.  The seed shifts the grid's origin by less than one step.
* ``edge_panel``: single ``verify`` calls next to the domain edges of
  eq12, eq15 and eq18; the unit call is one ``verify``.

Seeded items are checked by the dual-route verdict and, when mpmath is
importable, against mpmath closed forms of the right-hand sides.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_all.json")


@dataclass
class Checked:
    """What one pass's outputs amount to.

    ``items`` counts evaluated reports (skipped points excluded, raised
    errors included).  ``failed`` counts items that raised or disagree
    with the reference; ``fail_verdicts`` counts honest FAIL verdicts,
    whose right-hand side matches the reference.
    """

    items: int
    failed: int
    fail_verdicts: int
    evaluations: int
    json_diff_entries: int = 0


class References:
    """mpmath closed forms of the seeded right-hand sides, or None without mpmath."""

    def __init__(self) -> None:
        try:
            import mpmath
        except ImportError:
            self.mp = None
            self.version = "unavailable"
        else:
            self.mp = mpmath.mp.clone()
            self.mp.dps = 20
            self.version = mpmath.__version__
        self._cache: dict[tuple[str, complex], complex] = {}

    def __call__(self, token: str, s: complex) -> complex | None:
        if self.mp is None:
            return None
        key = (token, s)
        if key not in self._cache:
            mp = self.mp
            z = mp.mpc(s.real, s.imag)
            if token == "eq12":
                value = mp.gamma(z + 2) * (mp.zeta(z + 2) - 1 / (z + 1))
            elif token == "eq15":
                value = mp.gamma(z + 2) * (
                    mp.altzeta(z + 2) + (1 - 2 * mp.altzeta(z + 1)) / (z + 1)
                )
            elif token == "eq18":
                value = mp.gamma(z) * mp.altzeta(z)
            else:
                raise ValueError(f"no reference for {token}")
            self._cache[key] = complex(value)
        return self._cache[key]


def _report_key(engine, entry) -> tuple:
    if isinstance(entry, engine.SkippedPoint):
        return ("skipped", entry.id, entry.s, entry.reason)
    return (
        "report", entry.id, entry.s, entry.lhs, entry.rhs, entry.tol,
        entry.passed, entry.evaluations,
    )


def _check_seeded(keys, refs: References) -> Checked:
    items = failed = fail_verdicts = evaluations = 0
    for key in keys:
        if key[0] == "skipped":
            continue
        items += 1
        if key[0] == "error":
            failed += 1
            continue
        _, token, s, lhs, rhs, tol, passed, evals = key
        evaluations += evals
        ref = refs(token, s)
        ok = passed == (abs(lhs - rhs) <= tol)
        if ref is not None:
            ok = ok and abs(rhs - ref) <= tol
            ok = ok and (not passed or abs(lhs - ref) <= 2.0 * tol)
        if not ok:
            failed += 1
        elif not passed:
            fail_verdicts += 1
    return Checked(items, failed, fail_verdicts, evaluations)


class Registry:
    """``eulerlab all --format=json``, what ``eulerlab all`` users wait for."""

    name = "registry"
    min_passes = 5

    def __init__(self, el, seed: int) -> None:
        self.cli = el.cli
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.calls = [self._all]

    def _all(self):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["all", "--format=json"])
        except Exception as exc:  # a leaked exception fails the pass, not the run
            return ("error", f"{type(exc).__name__}: {exc}")
        return (code, buf.getvalue())

    def check(self, output, refs: References) -> Checked:
        expected = sum(not e.get("skipped") for e in self.golden)
        try:
            (code, text), = output
            entries = json.loads(text) if code in (0, 1) else None
        except (TypeError, ValueError):
            entries = None
        if not isinstance(entries, list) or len(entries) != len(self.golden):
            return Checked(expected, expected, 0, 0, len(self.golden))
        items = failed = fail_verdicts = evaluations = diff = 0
        for got, want in zip(entries, self.golden):
            diff += got != want
            if want.get("skipped"):
                failed += got != want
                continue
            items += 1
            try:
                evaluations += got["evaluations"]
                passed = got["pass"]
                tol = want["tol"]
                ok = (
                    (got["id"], got["s"], got["tol"]) == (want["id"], want["s"], tol)
                    and all(
                        abs(complex(got[k]["re"], got[k]["im"])
                            - complex(want[k]["re"], want[k]["im"])) <= tol
                        for k in ("lhs", "rhs")
                    )
                )
            except (KeyError, TypeError):
                ok = False
            if not ok:
                failed += 1
            elif not passed:
                fail_verdicts += 1
        flagged = sum(not e.get("skipped") and not e.get("pass") for e in entries)
        if code != (1 if flagged else 0):
            failed = items
        return Checked(items, failed, fail_verdicts, evaluations, diff)


class GridEq15:
    """A dense eq15 sweep, 111 x 21 points (Re -2.5..3 step 0.05, Im 0..2 step 0.1)."""

    name = "grid_eq15"
    min_passes = 3
    STEPS = (0.05, 0.1)

    def __init__(self, el, seed: int) -> None:
        self.engine = el.identity_engine
        rng = random.Random(seed)
        shift_re = rng.uniform(0.0, self.STEPS[0])
        shift_im = rng.uniform(0.0, self.STEPS[1])
        self.re_range = (-2.5 + shift_re, 3.0 + shift_re, self.STEPS[0])
        self.im_range = (0.0 + shift_im, 2.0 + shift_im, self.STEPS[1])
        self.calls = [self._sweep]

    def _sweep(self):
        try:
            entries = self.engine.grid("eq15", self.re_range, self.im_range)
        except Exception as exc:  # a leaked exception fails the pass, not the run
            return (("error", "eq15", None, f"{type(exc).__name__}: {exc}"),)
        return tuple(_report_key(self.engine, e) for e in entries)

    def check(self, output, refs: References) -> Checked:
        keys, = output
        return _check_seeded(keys, refs)


class EdgePanel:
    """Single ``verify`` calls near the domain edges of eq12, eq15 and eq18.

    Re(s) - edge is stratified over (0.0101, 0.4] and Im(s) over [0, 2],
    60 points per identity, so every seed puts the same share of points
    in the deep-ladder zone next to the edge (Re(s) - edge below about
    0.09, ~20% of the panel).  Points within about 0.03 of the edge end
    FAIL with unconverged quadrature: that defect is kept visible.
    """

    name = "edge_panel"
    min_passes = 2
    EDGES = (("eq12", -2.0), ("eq15", -3.0), ("eq18", 0.0))
    PER_IDENTITY = 60
    NEAR, FAR = 0.0101, 0.4

    def __init__(self, el, seed: int) -> None:
        self.engine = el.identity_engine
        rng = random.Random(seed)
        n = self.PER_IDENTITY
        points = []
        for token, edge in self.EDGES:
            ims = [2.0 * (j + rng.random()) / n for j in range(n)]
            rng.shuffle(ims)
            for j in range(n):
                d = self.NEAR + (self.FAR - self.NEAR) * (j + rng.random()) / n
                points.append((token, complex(edge + d, ims[j])))
        rng.shuffle(points)
        self.calls = [functools.partial(self._verify, token, s) for token, s in points]

    def _verify(self, token: str, s: complex):
        try:
            report = self.engine.verify(token, s)
        except Exception as exc:  # a raised error is a failed item
            return ("error", token, s, f"{type(exc).__name__}: {exc}")
        return _report_key(self.engine, report)

    def check(self, output, refs: References) -> Checked:
        return _check_seeded(output, refs)


WORKLOADS = {w.name: w for w in (Registry, GridEq15, EdgePanel)}
