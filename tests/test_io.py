"""Tests for serialization, OBJ export, manifests and the CLI."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsphere.affine import AffineFunction
from pmcsphere.cli import cli_dispatch
from pmcsphere.errors import InputError
from pmcsphere.grid import HarmonicField, SphericalGrid, analyze, synthesize
from pmcsphere.planar import DiskGrid, enneper_blowdown
from pmcsphere.serialize import (
    affine_from_dict,
    affine_to_dict,
    dumps,
    export_obj,
    field_from_dict,
    field_to_dict,
    load_field,
    write_json,
)


def random_field(L, ncomp=1, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((ncomp, L + 1, 2 * L + 1))
    for l in range(L + 1):
        coeffs[:, l, L - l : L + l + 1] = rng.standard_normal((ncomp, 2 * l + 1))
    return HarmonicField(coeffs)


def write_field(field, path):
    write_json(field_to_dict(field), path)


def test_field_json_roundtrip(tmp_path):
    f = random_field(6, ncomp=3, seed=1)
    d = field_to_dict(f)
    f2 = field_from_dict(json.loads(dumps(d)))
    assert np.array_equal(f2.coeffs, f.coeffs)
    path = tmp_path / "field.json"
    write_field(f, path)
    f3 = load_field(str(path))
    assert np.array_equal(f3.coeffs, f.coeffs)


@st.composite
def sparse_fields(draw):
    """1- or 3-component fields of degree <= 8 with a few nonzero coefficients."""
    ncomp = draw(st.sampled_from([1, 3]))
    L = draw(st.integers(0, 8))
    coeffs = np.zeros((ncomp, L + 1, 2 * L + 1))
    entries = draw(st.lists(st.tuples(
        st.integers(0, ncomp - 1), st.integers(0, L), st.integers(-L, L),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=12))
    for c, l, m, v in entries:
        if abs(m) <= l:
            coeffs[c, l, L + m] = v
    return HarmonicField(coeffs)


@given(sparse_fields())
def test_field_json_roundtrip_bit_exact(f):
    f2 = field_from_dict(json.loads(dumps(field_to_dict(f))))
    assert f2.coeffs.shape == f.coeffs.shape
    # bit-exact; a -0.0 coefficient is omitted like any zero and reads as +0.0
    assert f2.coeffs.tobytes() == (f.coeffs + 0.0).tobytes()


def test_missing_triples_are_zero():
    d = {"components": 1, "L": 2, "coeffs": [[0, 1, 0, 2.5]]}
    f = field_from_dict(d)
    assert f.coeffs[0, 1, 2] == 2.5
    assert np.count_nonzero(f.coeffs) == 1


def test_affine_json_roundtrip():
    a = AffineFunction([0.25, -1.5, 1e-17])
    a2 = affine_from_dict(json.loads(dumps(affine_to_dict(a))))
    assert np.array_equal(a2.b, a.b)


def test_dumps_deterministic_17_digits():
    x = 0.1 + 0.2
    s1, s2 = dumps({"v": x}), dumps({"v": x})
    assert s1 == s2
    assert float(json.loads(s1)["v"]) == x


def test_obj_sphere_counts_and_watertight(tmp_path):
    L = 8
    g = SphericalGrid(L)
    field = analyze(g.xyz, g)
    path = tmp_path / "sphere.obj"
    export_obj(field, str(path), g)
    lines = path.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == (L + 1) * (2 * L + 2) + 2
    # watertight: every edge shared by exactly two faces
    edge_count = {}
    for fl in faces:
        ids = [int(tok) for tok in fl.split()[1:]]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            edge_count[frozenset((a, b))] = edge_count.get(frozenset((a, b)), 0) + 1
    assert set(edge_count.values()) == {2}
    V, F = len(verts), len(faces)
    E = len(edge_count)
    assert V - E + F == 2  # Euler characteristic of the sphere


def test_obj_disk_counts(tmp_path):
    g = DiskGrid(1.0, n_r=10, n_phi=12)
    P = enneper_blowdown(1.0, g)
    path = tmp_path / "disk.obj"
    export_obj(P, str(path))
    lines = path.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 10 * 12
    assert len(faces) == 9 * 12


def test_obj_vertex_roundtrip_bitwise(tmp_path):
    L = 6
    g = SphericalGrid(L)
    field = analyze(1.1 * g.xyz, g)
    path = tmp_path / "s.obj"
    export_obj(field, str(path), g)
    vals = synthesize(field, g)
    read = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            read.append([float(tok) for tok in line.split()[1:]])
    read = np.array(read[: g.n_theta * g.n_phi])
    expected = vals.reshape(3, -1).T
    assert np.array_equal(read, expected)


def test_unwritable_path_raises():
    g = DiskGrid(1.0, n_r=6, n_phi=8)
    P = enneper_blowdown(1.0, g)
    with pytest.raises(InputError):
        export_obj(P, "/nonexistent-dir/out.obj")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def constant_field(value, L=4):
    c = np.zeros((1, L + 1, 2 * L + 1))
    c[0, 0, L] = value * np.sqrt(4 * np.pi)
    return HarmonicField(c)


def x3_plus_two_field(L=4):
    g = SphericalGrid(L)
    return analyze(2.0 + g.xyz[2], g)


def test_thread_cap_overrides_blas_variables(monkeypatch):
    from pmcsphere import _apply_thread_cap

    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.setenv(var, "4")
    monkeypatch.delenv("PMC_THREADS", raising=False)
    _apply_thread_cap()
    assert all(os.environ[var] == "4" for var in blas_vars)
    monkeypatch.setenv("PMC_THREADS", "1")
    _apply_thread_cap()
    assert all(os.environ[var] == "1" for var in blas_vars)


def test_thread_cap_reaches_openblas():
    """Importing pmcsphere.cli under PMC_THREADS = 1 leaves the loaded
    OpenBLAS on 1 thread, although OPENBLAS_NUM_THREADS asks for 2."""
    import pmcsphere

    script = textwrap.dedent("""
        import ctypes
        import pmcsphere.cli
        try:
            with open("/proc/self/maps") as fh:
                libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        except OSError:
            libs = set()
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    print(fn())
                    raise SystemExit
        print("none")
    """)
    src = os.path.dirname(os.path.dirname(pmcsphere.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PMC_THREADS="1", OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    if out == "none":
        pytest.skip("numpy does not use OpenBLAS here")
    assert out == "1"


def test_cli_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["solve", "--nonsense"])
    assert exc.value.code == 1


def test_cli_missing_file_exits_1(tmp_path):
    code = cli_dispatch(["verify", "--immersion", str(tmp_path / "nope.json")])
    assert code == 1


def test_cli_solve_hopf(tmp_path, capsys):
    h_path = tmp_path / "const2.json"
    write_field(constant_field(2.0), h_path)
    out = tmp_path / "out"
    code = cli_dispatch([
        "solve", "--h-target", str(h_path), "--L", "8", "--steps", "2",
        "--out-dir", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "converged" in captured
    for name in ("solution.json", "affine.json", "report.json", "manifest.json"):
        assert (out / name).exists()
    affine = json.loads((out / "affine.json").read_text())
    assert np.linalg.norm(affine["b"]) < 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["diagnostics"]["status"] == "converged"


def test_cli_balance_prints_expected(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    write_field(x3_plus_two_field(), h_path)
    code = cli_dispatch(["balance", "--h", str(h_path), "--weight", "round",
                         "--L", "12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "b = (" in out
    nums = out.splitlines()[0].split("(")[1].rstrip(")").split(",")
    b = np.array([float(v) for v in nums])
    assert np.max(np.abs(b - np.array([0, 0, -1.0]))) < 1e-8
    assert "H_rep = 3" in out


def test_cli_verify_ellipsoid(tmp_path, capsys):
    g = SphericalGrid(8)
    vals = g.xyz.copy()
    vals[2] *= 1.2
    path = tmp_path / "ellipsoid.json"
    write_field(analyze(vals, g), path)
    code = cli_dispatch(["verify", "--immersion", str(path), "--L", "24"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["gauss_identity"]) < 1e-6


def test_cli_example_and_export(tmp_path):
    out = tmp_path / "ex"
    code = cli_dispatch(["example", "--family", "enneper", "--param", "1.0",
                         "--radius", "1.5", "--out-dir", str(out)])
    assert code == 0
    objs = list(out.glob("*.obj"))
    assert len(objs) == 1
    assert (out / "manifest.json").exists()

    g = SphericalGrid(6)
    sphere_path = tmp_path / "sphere.json"
    write_field(analyze(g.xyz, g), sphere_path)
    obj_path = tmp_path / "sphere.obj"
    code = cli_dispatch(["export-obj", "--in", str(sphere_path),
                         "--out", str(obj_path), "--L", "6"])
    assert code == 0
    assert obj_path.exists()


def test_cli_outputs_byte_deterministic(tmp_path, capsys):
    """Every JSON output but the manifest is byte-identical across runs."""
    h_path = tmp_path / "h.json"
    write_field(x3_plus_two_field(), h_path)
    g = SphericalGrid(8)
    vals = g.xyz.copy()
    vals[2] *= 1.2
    f_path = tmp_path / "ellipsoid.json"
    write_field(analyze(vals, g), f_path)
    commands = {
        "balance": ["balance", "--h", str(h_path), "--weight", "round",
                    "--L", "12"],
        "solve": ["solve", "--h-target", str(h_path), "--L", "8",
                  "--steps", "2"],
        "verify": ["verify", "--immersion", str(f_path), "--L", "16"],
    }
    expected = {"balance": ["affine.json", "balanced.json"],
                "solve": ["solution.json", "affine.json", "report.json"],
                "verify": ["report.json"]}
    for command, argv in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / command / run
            assert cli_dispatch(argv + ["--out-dir", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert names == sorted(expected[command])
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    capsys.readouterr()


def test_cli_solve_refuses_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    """A solve whose Gauss-Newton step cannot fit in memory (1 MiB; a step
    at L = 16 needs about 2.9 MB) exits 1 before any work and writes no
    outputs."""
    from pmcsphere import solver

    monkeypatch.setattr(solver, "_physical_memory_bytes", lambda: 1 << 20)
    h_path = tmp_path / "const2.json"
    write_field(constant_field(2.0), h_path)
    out = tmp_path / "out"
    code = cli_dispatch([
        "solve", "--h-target", str(h_path), "--L", "16", "--out-dir", str(out),
    ])
    assert code == 1
    assert not (out / "solution.json").exists()
    assert "physical memory" in capsys.readouterr().err


def test_cli_solve_stall_exit_2(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    write_field(x3_plus_two_field(), h_path)
    out = tmp_path / "out"
    # an unattainable tolerance forces the stall path
    code = cli_dispatch([
        "solve", "--h-target", str(h_path), "--L", "6", "--steps", "1",
        "--tol", "1e-30", "--out-dir", str(out),
    ])
    assert code == 2
    # partial outputs and the manifest are still written in the stall case
    assert (out / "manifest.json").exists()
    assert (out / "solution.json").exists()
    # no Gauss-Newton step decreases the residual of the round start enough
    report = json.loads((out / "report.json").read_text())
    assert report["stall_reason"] == "line_search_exhausted"
