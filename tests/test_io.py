"""Tests for serialization, OBJ export, manifests and the CLI."""

import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsphere.affine import AffineFunction
from pmcsphere.cli import _build_parser, cli_dispatch
from pmcsphere.errors import InputError
from pmcsphere.grid import HarmonicField, SphericalGrid, analyze, synthesize, synthesize_at
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


@pytest.mark.parametrize("text, entry", [
    ('[[0, 0, 0, 2.0], [0, 1, 0, NaN]]', "[0, 1, 0, nan]"),
    ('[[0, 1, 0, 1e400]]', "[0, 1, 0, inf]"),
    ('[[0, 1.9, 0, 0.1]]', "[0, 1.9, 0, 0.1]"),
    ('[[0, true, 0, 0.1]]', "[0, True, 0, 0.1]"),
    ('[[0, 0, 0, 1.0], [0, 1, 0], [0, 1, 0, NaN]]', "[0, 1, 0]"),
    ('[[0, 0, 0, 1.0], 5, [0, 1, 0, 0.1]]', "5"),
    ('[[0, 0, 0, 1.0], [0, 1, 0, "0.5"]]', "[0, 1, 0, '0.5']"),
    ('[[0, 1, 0, 1.0], [0, 10' + '0' * 400 + ', 0, 1.0]]', "[0, 1" + "0" * 400),
], ids=["nan_value", "overflowing_value", "non_integral_index", "boolean_index",
        "ragged_row", "non_list_row", "string_value", "overflowing_index"])
def test_field_loader_rejects_entry(text, entry):
    """json accepts NaN and reads 1e400 as inf; int() truncates 1.9 and takes
    true as 1; a row may be short or no list, a value a string or an integer
    no float holds.  The loader rejects each, naming the first bad entry."""
    data = json.loads('{"components": 1, "L": 2, "coeffs": %s}' % text)
    with pytest.raises(InputError, match=r"bad coefficient entry: " + re.escape(entry)):
        field_from_dict(data)


def test_affine_json_roundtrip():
    a = AffineFunction([0.25, -1.5, 1e-17])
    a2 = affine_from_dict(json.loads(dumps(affine_to_dict(a))))
    assert np.array_equal(a2.b, a.b)


def test_dumps_deterministic_17_digits():
    x = 0.1 + 0.2
    s1, s2 = dumps({"v": x}), dumps({"v": x})
    assert s1 == s2
    assert float(json.loads(s1)["v"]) == x
    flat = [3, x, -0.0, "a", True, None, np.float64(1e-300)]
    assert dumps(flat) == '[3, 0.30000000000000004, -0, "a", true, null, 1e-300]'


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


def _reference_obj(vals, poles=()):
    """OBJ text by the line-by-line rule: one formatted float per vertex
    coordinate and one ``vid`` per face corner."""
    n_rows, n_cols = vals.shape[1:]
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}"
             for x, y, z in np.vstack([vals.reshape(3, -1).T, *poles])]

    def vid(i, j):
        return i * n_cols + (j % n_cols) + 1

    north, south = n_rows * n_cols + 1, n_rows * n_cols + 2
    if poles:
        lines += [f"f {north} {vid(0, j + 1)} {vid(0, j)}" for j in range(n_cols)]
    lines += [f"f {vid(i, j)} {vid(i, j + 1)} {vid(i + 1, j + 1)} {vid(i + 1, j)}"
              for i in range(n_rows - 1) for j in range(n_cols)]
    if poles:
        lines += [f"f {south} {vid(n_rows - 1, j)} {vid(n_rows - 1, j + 1)}"
                  for j in range(n_cols)]
    return "\n".join(lines) + "\n"


def test_obj_bytes_match_line_by_line_writer(tmp_path):
    P = enneper_blowdown(0.7, DiskGrid(2.0, n_r=12, n_phi=10))
    export_obj(P, str(tmp_path / "disk.obj"))
    assert (tmp_path / "disk.obj").read_text() == _reference_obj(P.F)

    g = SphericalGrid(7)
    field = analyze(np.array([1.0, 1.3, 0.8])[:, None, None] * g.xyz + 0.1, g)
    export_obj(field, str(tmp_path / "sphere.obj"), g)
    poles = [synthesize_at(field, theta, 0.0)[:, 0] for theta in (0.0, np.pi)]
    expected = _reference_obj(synthesize(field, g), poles)
    assert (tmp_path / "sphere.obj").read_text() == expected


def test_obj_non_finite_vertex_raises(tmp_path):
    P = enneper_blowdown(1.0, DiskGrid(1.0, n_r=6, n_phi=8))
    P.F[1, 2, 3] = np.nan
    with pytest.raises(InputError, match="non-finite float nan"):
        export_obj(P, str(tmp_path / "bad.obj"))


def test_write_json_refusal_leaves_no_file(tmp_path):
    """A value dumps refuses raises before the file is opened: no empty file
    is left behind."""
    path = tmp_path / "report.json"
    with pytest.raises(InputError, match="non-finite float nan"):
        write_json({"r": float("nan")}, str(path))
    assert not path.exists()


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
    """A usage error exits 1 before any file is read: an unknown flag, and
    --steps, which solve does not take: its first stage is always the whole
    step to s = 1."""
    for argv in (["solve", "--nonsense"],
                 ["solve", "--h-target", "missing.json", "--steps", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(argv)
        assert exc.value.code == 1
    assert "unrecognized arguments: --steps 2" in capsys.readouterr().err


def test_cli_dispatches_in_one_process_are_independent(tmp_path, capsys):
    """One process, one parser: each dispatch reads only its own arguments
    and defaults, across subcommands, an input error and a usage error."""
    h_path = tmp_path / "h.json"
    write_field(x3_plus_two_field(), h_path)
    parser = _build_parser()
    balance = ["balance", "--h", str(h_path), "--weight", "round"]
    assert cli_dispatch(balance + ["--L", "6", "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_dispatch(["verify", "--immersion", str(tmp_path / "nope.json")]) == 1
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["verify", "--L", "6"])
    assert exc.value.code == 1
    assert cli_dispatch(balance + ["--out-dir", str(tmp_path / "b")]) == 0
    assert cli_dispatch(balance) == 0
    for out, L in (("a", 6), ("b", 24)):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config"] == {"L": L, "weight": "round"}
        assert json.loads((tmp_path / out / "balanced.json").read_text())["L"] == L
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "h.json"]
    assert "H_rep = 3" in capsys.readouterr().out.splitlines()[-1]
    assert _build_parser() is parser


def test_cli_missing_file_exits_1(tmp_path):
    code = cli_dispatch(["verify", "--immersion", str(tmp_path / "nope.json")])
    assert code == 1


def test_cli_solve_hopf(tmp_path, capsys):
    h_path = tmp_path / "const2.json"
    write_field(constant_field(2.0), h_path)
    out = tmp_path / "out"
    code = cli_dispatch([
        "solve", "--h-target", str(h_path), "--L", "8", "--out-dir", str(out),
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


@pytest.mark.parametrize("flags", [
    ["--family", "enneper", "--param", "abc"],
    ["--family", "enneper", "--param", "nan"],
    ["--family", "enneper", "--param", "inf"],
    ["--family", "odd", "--param", "1", "--blowdown", "nan"],
    ["--family", "enneper", "--param", "0.5", "--radius", "inf"],
])
def test_cli_example_rejects_bad_numbers(tmp_path, capsys, flags):
    """A non-numeric or non-finite --param, --blowdown or --radius exits 1
    with an error line naming the flag, and writes no out-dir."""
    out = tmp_path / "ex"
    assert cli_dispatch(["example", *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[-2] in err
    assert not out.exists()


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
        "solve": ["solve", "--h-target", str(h_path), "--L", "8"],
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
    at L = 16 needs about 1.5 MB) exits 1 before any work and writes no
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


def test_cli_refuses_degree_whose_legendre_table_exceeds_memory(tmp_path, monkeypatch,
                                                               capsys):
    """At L = 200 the Gauss-Newton step alone (207 MB) fits in a physical
    memory that the step and the grid's Legendre table (130 MB) together do
    not: solve and verify both exit 1 before any grid is built, and write no
    outputs."""
    from pmcsphere import solver

    L = 200
    step_alone = 8 * 128 * (5 * (L + 1) ** 2 + 3)
    have = step_alone + 8 * (L + 1) ** 3
    assert step_alone < have < solver._step_bytes(L)
    monkeypatch.setattr(solver, "_physical_memory_bytes", lambda: have)

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(SphericalGrid, "__init__", no_grid)
    h_path, f_path = tmp_path / "h.json", tmp_path / "f.json"
    write_field(constant_field(2.0), h_path)
    write_field(random_field(4, ncomp=3), f_path)
    for i, argv in enumerate([["solve", "--h-target", str(h_path)],
                              ["verify", "--immersion", str(f_path)]]):
        out = tmp_path / f"out{i}"
        assert cli_dispatch(argv + ["--L", str(L), "--out-dir", str(out)]) == 1
        assert not out.exists()
        assert "physical memory" in capsys.readouterr().err


def test_cli_balance_and_export_obj_refuse_beyond_physical_memory(tmp_path, monkeypatch,
                                                                 capsys):
    """With 1 MiB of physical memory, balance and export-obj at L = 64 exit 1
    with the refusal before any grid is built, and write no outputs, as
    verify does at the same degree."""
    from pmcsphere import solver

    monkeypatch.setattr(solver, "_physical_memory_bytes", lambda: 1 << 20)

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(SphericalGrid, "__init__", no_grid)
    h_path, f_path = tmp_path / "h.json", tmp_path / "f.json"
    write_field(constant_field(2.0), h_path)
    write_field(random_field(4, ncomp=3), f_path)
    out = tmp_path / "out"
    for argv in (["balance", "--h", str(h_path), "--weight", "round",
                  "--out-dir", str(out)],
                 ["export-obj", "--in", str(f_path), "--out", str(out)],
                 ["verify", "--immersion", str(f_path), "--out-dir", str(out)]):
        assert cli_dispatch(argv + ["--L", "64"]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: degree L = 64 needs about")


def test_cli_out_dir_that_is_a_file_exits_1_before_any_work(tmp_path, monkeypatch,
                                                            capsys):
    """Every command that writes outputs exits 1 with an error line, before
    any solve, when --out-dir names an existing regular file, which it
    leaves unchanged.  An out-dir that cannot be created once the work is
    done (its parent is a file) exits 1 the same way."""
    import pmcsphere.cli as cli

    def no_solve(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "solve_pmc", no_solve)
    h_path, f_path = tmp_path / "h.json", tmp_path / "f.json"
    write_field(constant_field(2.0), h_path)
    write_field(random_field(4, ncomp=3), f_path)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory\n")
    for argv in (["solve", "--h-target", str(h_path), "--L", "6"],
                 ["verify", "--immersion", str(f_path), "--L", "8"],
                 ["balance", "--h", str(h_path), "--weight", "round", "--L", "8"],
                 ["example", "--family", "enneper", "--param", "0.5"]):
        assert cli_dispatch(argv + ["--out-dir", str(blocker)]) == 1
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_bytes() == b"not a directory\n"
    argv = ["verify", "--immersion", str(f_path), "--L", "8",
            "--out-dir", str(blocker / "sub")]
    assert cli_dispatch(argv) == 1
    assert "error: cannot write outputs" in capsys.readouterr().err
    assert blocker.read_bytes() == b"not a directory\n"


def test_cli_solve_stall_exit_2(tmp_path, capsys):
    h_path = tmp_path / "h.json"
    write_field(x3_plus_two_field(), h_path)
    out = tmp_path / "out"
    # an unattainable tolerance forces the stall path
    code = cli_dispatch([
        "solve", "--h-target", str(h_path), "--L", "6", "--tol", "1e-30",
        "--out-dir", str(out),
    ])
    assert code == 2
    # partial outputs and the manifest are still written in the stall case
    assert (out / "manifest.json").exists()
    assert (out / "solution.json").exists()
    # no stage meets the tolerance, so halving runs down to MIN_STEP
    report = json.loads((out / "report.json").read_text())
    assert report["stall_reason"] == "min_step"
    assert not any(e["converged"] for e in report["step_log"])


def test_cli_solve_nan_target_exits_1_before_solving(tmp_path, monkeypatch, capsys):
    """A NaN target coefficient, and a non-finite --tol on a valid target,
    are input errors: exit 1 with the cause named, before any solve, and no
    outputs."""
    import pmcsphere.cli as cli

    def no_solve(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(cli, "solve_pmc", no_solve)
    nan_path, valid_path = tmp_path / "nan.json", tmp_path / "valid.json"
    nan_path.write_text('{"components": 1, "L": 0, "coeffs": [[0, 0, 0, NaN]]}')
    write_field(x3_plus_two_field(), valid_path)
    for i, (h_path, extra, message) in enumerate([
        (nan_path, [], "bad coefficient entry: [0, 0, 0, nan]"),
        (valid_path, ["--tol", "inf"], "tol must be finite"),
        (valid_path, ["--tol", "nan"], "tol must be finite"),
    ]):
        out = tmp_path / f"out{i}"
        code = cli_dispatch(["solve", "--h-target", str(h_path), *extra,
                             "--out-dir", str(out)])
        assert code == 1
        assert not out.exists()
        assert message in capsys.readouterr().err
