"""The measuring scripts against this checkout, without timing.

The scripts in ``scripts/`` reach private names of the library
(``core_numerics._tables``, ``_row_tables`` and ``_truncation``,
``integral_forms._SUBTRACT_BELOW``, ``identity_engine._check_point``)
and of the benchmark's workloads.  Each is imported here and builds its
cases, so a rename that would break one fails the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import ab  # noqa: E402
import batch_threshold  # noqa: E402
import bench_pairs  # noqa: E402
import compare_outputs  # noqa: E402
import constants_cost  # noqa: E402
import edge_equivalence  # noqa: E402
import eta_cost  # noqa: E402
import subtract_threshold  # noqa: E402
import sweep_cost  # noqa: E402

from eulerlab import identity_engine  # noqa: E402

# this checkout's package under a second name, as the A/B scripts load a side
PACKAGE = "eulerlab_scripts_check"


def test_sweep_cost_builds_and_counts_its_cases():
    engine = ab.load(ROOT, PACKAGE, "identity_engine")
    cases = sweep_cost.cases(engine)
    assert len(cases) == len(sweep_cost.SWEEPS) + len(sweep_cost.BATCHES)
    # the eq18 batch: 16 points through the batched ladder's row tables
    elements, calls, truncations, results = sweep_cost.counts(
        engine, cases["batch eq18 lhs (16 points)"])
    assert elements > 0 and calls > 0 and truncations > 0 and results >= 16


def test_load_refuses_a_name_holding_another_checkout(tmp_path):
    ab.load(ROOT, PACKAGE, "identity_engine")
    (tmp_path / "src" / "eulerlab").mkdir(parents=True)
    (tmp_path / "src" / "eulerlab" / "__init__.py").write_text("")
    with pytest.raises(ValueError, match="is already"):
        ab.load(tmp_path, PACKAGE, "identity_engine")


def test_eta_and_constants_cost_build_their_cases():
    module = ab.load(ROOT, PACKAGE, "special_functions")
    cases = eta_cost.cases(module, 13)
    assert [evaluations for _, evaluations in cases.values()] == [1, 16, 16] * 2 + [1] * 5
    # the sweep panel is rhs_eq15_many's at the grid_eq15 workload's points: its
    # 3,276 distinct arguments are summed from 128 rows x 177 distinct parts
    points = identity_engine._grid_points((-2.5, 3.0, 0.05), (0.0, 2.0, 0.1))
    stacked = [p + 2.0 for p in points] + [p + 1.0 for p in points]
    assert eta_cost.sweep_panel(len(points)).tobytes() == np.array(stacked).tobytes()
    assert eta_cost.counts(module, cases["eta_many[4662] sweep panel"][0]) == (22656, 3276)
    assert eta_cost.counts(module, cases["eta_many[4] sweep panel"][0]) == (256, 4)
    assert list(constants_cost.cases(ROOT, PACKAGE)) == list(constants_cost.CASES)


def test_batch_threshold_runs_one_round(capsys):
    # gamma against _gamma_many included, at its own sizes
    assert batch_threshold.main(["--rounds", "1", "--sizes", "1", "--gamma-sizes", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(" | ")[0] for row in rows] == [
        f"| {name}" for name, *_ in batch_threshold.FAMILIES]


def test_subtract_threshold_names_the_threshold():
    # it forces each route by setting this module constant
    assert 0.0 < subtract_threshold.integral_forms._SUBTRACT_BELOW < 1.0
    assert all(callable(route) for _, route, _ in subtract_threshold.FAMILIES)


def test_compare_outputs_runs_160_commands():
    assert len(compare_outputs.COMMANDS) == 160


def test_edge_equivalence_draws_the_edge_panel():
    assert len(edge_equivalence.edge_points(ROOT, 1)) == 180


def test_bench_pairs_reads_seed_ranges():
    assert bench_pairs._seeds("1-10") == list(range(1, 11))
    assert bench_pairs._seeds("7") == [7]


def test_bench_pairs_runs_each_side_without_its_bytecode(monkeypatch, tmp_path):
    # a pair's runs read one prefix seeded with numpy's and the standard
    # library's bytecode, hold none of the checkouts' own, and write none
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    library = Path("usr/lib/python3/numpy/__pycache__/__init__.cpython-311.pyc")
    own = Path("src/eulerlab/__pycache__/constants.cpython-311.pyc")
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        if argv[1:] == ["perfbench/setup_probe.py", "src"]:
            assert "PYTHONDONTWRITEBYTECODE" not in env
            for path in (prefix / library, prefix / cwd.resolve().relative_to("/") / own):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(b"bytecode")
            return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")
        assert argv[1] == "perfbench/run.py"
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        files = sorted(path.relative_to(prefix) for path in prefix.rglob("*") if path.is_file())
        seen.append((cwd, prefix, files))
        lines = [json.dumps({"info": {"workload": "w"}}), json.dumps({"correct": True})]
        return subprocess.CompletedProcess(argv, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for seed in (1, 2):
        runs = bench_pairs.run_pair(sides, "w", seed, 1.0, 0)
        assert list(runs) == (["parent", "change"] if seed % 2 else ["change", "parent"])
        assert all(r == {"info": {"workload": "w"}, "result": {"correct": True}}
                   for r in runs.values())
    assert [cwd.name for cwd, _, _ in seen] == ["parent", "change", "change", "parent"]
    for pair in (seen[:2], seen[2:]):
        (_, prefix, files), (_, other, other_files) = pair
        assert prefix == other and files == other_files == [library]
    assert seen[0][1] != seen[2][1]
    assert not any(prefix.exists() for _, prefix, _ in seen)


def test_bench_pairs_keeps_the_other_keys_of_its_out_file(monkeypatch, tmp_path, capsys):
    # constants_cost.py writes its rows into the same BENCH file first
    names = [spec["name"] for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    result = {"correct": True, "metrics": {name: {"value": 1.0} for name in names}}
    monkeypatch.setattr(bench_pairs, "run_pair", lambda sides, *args: {
        side: {"info": {}, "result": result} for side in sides})
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"constants_cost": {"rows": []}}))
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", "w", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["constants_cost"] == {"rows": []}
    assert len(record["runs"]) == 4 and record["summary"]["w"]["pairs"] == 2


def test_oracle_scripts_cover_their_functions():
    pytest.importorskip("mpmath")
    import eta_accuracy
    import oracle_errors

    assert set(oracle_errors.ORACLES) == {i.id for i in identity_engine.list_identities()}
    assert [len(band) for band in eta_accuracy.band_points().values()] == [
        eta_accuracy.POINTS_PER_BAND] * len(eta_accuracy.BANDS)
