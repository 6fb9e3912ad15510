"""Tests of the benchmark itself: output checks, declared metrics, tracer.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import TRACED, Tracer, is_patched  # noqa: E402

from pmcsphere.grid import HarmonicField, SphericalGrid, analyze  # noqa: E402
from pmcsphere.serialize import (  # noqa: E402
    affine_to_dict,
    field_to_dict,
    write_json,
)
from pmcsphere.affine import AffineFunction  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def _solve_output(tmp_path, perturb):
    """pmc solve outputs for H = 3, whose solution is the radius-2/3 sphere."""
    tmp_path.mkdir()
    L = 8
    grid = SphericalGrid(L)
    target = tmp_path / "target.json"
    write_json(field_to_dict(analyze(np.full((grid.n_theta, grid.n_phi), 3.0), grid)),
               str(target))
    coeffs = (2.0 / 3.0) * analyze(grid.xyz, grid).coeffs
    coeffs[2, 3, L + 1] += perturb
    out = tmp_path / "out"
    out.mkdir()
    write_json(field_to_dict(HarmonicField(coeffs)), str(out / "solution.json"))
    write_json(affine_to_dict(AffineFunction(np.zeros(3))), str(out / "affine.json"))
    write_json({"status": "converged", "conformality_l2": 0.0, "mc_l2": 0.0,
                "area": 4 * np.pi * (2 / 3) ** 2}, str(out / "report.json"))
    op = {"kind": "solve", "target": str(target), "L": L,
          "expect_area": 4 * np.pi * (2 / 3) ** 2}
    return op, str(out)


def test_solve_check_rejects_one_perturbed_coefficient(tmp_path):
    op, out = _solve_output(tmp_path / "exact", perturb=0.0)
    assert checks.check_solve(op, 0, out)[0] == []
    op, out = _solve_output(tmp_path / "perturbed", perturb=1e-4)
    fails, _ = checks.check_solve(op, 0, out)
    assert any("H_target + ell" in f for f in fails)
    assert checks.check_solve(op, 1, out)[0] == ["exit code 1"]


def _verify_ops(tmp_path, scale):
    rng = np.random.default_rng(0)
    grid_gen, grid_out = SphericalGrid(48), SphericalGrid(24)
    field, r = inputs.verify_immersion(rng, 1, grid_gen, grid_out)
    path = tmp_path / f"immersion_{scale}.json"
    write_json(field_to_dict(HarmonicField(scale * field.coeffs)), str(path))
    return [{"id": 0, "kind": "verify", "degree": 1, "radius": r,
             "argv": ["verify", "--immersion", str(path), "--L", "24"]}]


@pytest.mark.parametrize("scale,failed", [(1.0, 0), (1.01, 1)])
def test_worker_counts_wrong_verify_output_as_failed(tmp_path, scale, failed):
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps({"ops": _verify_ops(tmp_path, scale)}))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    "--ops", str(ops), "--work", str(tmp_path / "work"),
                    "--result", str(result), "--passes", "1"],
                   check=True, timeout=120)
    res = json.loads(result.read_text())
    assert (res["attempted"], res["failed"]) == (1, failed)
    if failed:
        assert "area" in res["failures"][0]["reason"]


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    out = _run_bench(ROOT, "--workload", "families", "--seed", "1",
                     "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m for m in DECLARED[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower")
    table = {line.split()[0] for line in out.stdout.splitlines()
             if len(line.split()) == 3 and line.split()[0] in declared}
    assert table == set(declared)


def test_layer_predictions_cover_every_per_layer_metric():
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)
    named = [m for row in layers["predictions"] for m in row["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in DECLARED["per_layer"])
    workloads = {w["name"] for w in DECLARED["workloads"]}
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    for row in layers["predictions"]:
        assert set(row["on"]) | set(row["no_change_on"]) <= workloads
        assert not set(row["on"]) & set(row["no_change_on"])
        assert set(row["moves"]) <= e2e


def test_tracer_records_calls_made_through_imported_names_and_restores():
    import pmcsphere.geometry as geometry
    import pmcsphere.solver as solver

    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in TRACED}
    original_solve = np.linalg.solve
    grid = SphericalGrid(8)
    F = geometry.ImmersionField(analyze(grid.xyz, grid), grid)
    with Tracer() as tracer:
        assert is_patched()
        geometry.verify(F, grid)
        solver.gauge_basis(F.field.coeffs, grid)
        np.linalg.solve(np.eye(2), np.ones(2))  # not from solver: not recorded
    assert not is_patched()
    assert np.linalg.solve is original_solve
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    assert solver.synthesize_jet is sys.modules["pmcsphere.grid"].synthesize_jet
    summary = tracer.summary()
    # verify computes the forms twice; gauge_basis synthesizes through its
    # own imported name, which patching pmcsphere.grid alone would miss
    assert summary["calls"]["geometry.fundamental_forms"] == 2
    assert summary["calls"]["solver.gauge_basis"] == 1
    parents = {tracer.spans[s[3]][0] for s in tracer.spans
               if s[0] == "grid.synthesize_jet" and s[3] >= 0}
    assert "solver.gauge_basis" in parents
    assert summary["calls"]["solver.linalg_solve"] == 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [("cli.cli_dispatch", 0.0, 10.0, -1, 0),
                    ("solver.solve_pmc", 1.0, 9.0, 0, 0),
                    ("grid.analyze", 2.0, 3.0, 1, 0),
                    ("grid.analyze", 4.0, 6.0, 1, 0)]
    s = tracer.summary()["self_s"]
    assert s["cli.cli_dispatch"] == 2.0
    assert s["solver.solve_pmc"] == 5.0
    assert s["grid.analyze"] == 3.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(tmp_path, "--workload", "families", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
