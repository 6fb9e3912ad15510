"""Output checks for benchmark operations.

Each check runs after its operation's timed span and returns a list of
failure reasons, empty when the output is right.  The tolerances are the
ones the acceptance suite and ``tests/test_planar.py`` assert, or, where no
test pins one, a bound the seed commit meets with a stated margin.
"""

from __future__ import annotations

import json
import os

import numpy as np

FOUR_PI = 4.0 * np.pi

SOLVE_TOL = 1e-8            # conformality_l2 and mc_l2: the solver's --tol
H_MATCH_TOL = 1e-6          # |H(F) - (H_target + ell)|: acceptance criterion 2
AREA_REL_TOL = 1e-8         # closed-form areas (seed readings <= 1e-13)
VERIFY_CONF_TOL = 1e-6      # conformality_sup
VERIFY_OBSTRUCTION_TOL = 1e-6  # seed reads <= 7.1e-7 on z^2 inputs, seeds 0-36
# Gauss identity and Gauss-Bonnet residuals against 8 pi (1 - d), 4 pi (d - 1).
# Unbranched inputs read <= 1e-13.  On branched inputs a node 1e-6 from a
# branch point has |F_theta x F_phi| near the singular-node threshold, and its
# curvature sample is mostly rounding: the seed reads up to 3.2e-3 there
# (z^2 inputs, seeds 0-36).
CURVATURE_TOL = 1e-8
CURVATURE_TOL_BRANCHED = 1e-2
PLANAR_TOL = 1e-9           # max_abs_H, max_conformality: tests/test_planar.py
TC_REL_TOL = 0.01           # total curvature: acceptance criterion 5


def check_solve(op, rc, out_dir):
    """Exit code, status, residuals and recovered H of a ``pmc solve``.

    Returns (failures, report) so the caller can read the solver counts.
    """
    from pmcsphere.affine import AffineFunction
    from pmcsphere.geometry import ImmersionField, fundamental_forms
    from pmcsphere.grid import SphericalGrid, synthesize
    from pmcsphere.serialize import load_field

    if rc != 0:
        return [f"exit code {rc}"], None
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    fails = []
    if report["status"] != "converged":
        fails.append(f"status {report['status']}")
    for key in ("conformality_l2", "mc_l2"):
        if not report[key] <= SOLVE_TOL:
            fails.append(f"{key} {report[key]:.3e} > {SOLVE_TOL:g}")
    grid = SphericalGrid(op["L"])
    field = load_field(os.path.join(out_dir, "solution.json"))
    with open(os.path.join(out_dir, "affine.json")) as fh:
        ell = AffineFunction(np.asarray(json.load(fh)["b"], dtype=float))
    H = fundamental_forms(ImmersionField(field, grid)).mean_curvature
    H_target = synthesize(load_field(op["target"]).truncated(grid.L), grid)
    err = float(np.nanmax(np.abs(H - (H_target + ell.evaluate(grid)))))
    if not err <= H_MATCH_TOL:
        fails.append(f"|H - (H_target + ell)| {err:.3e} > {H_MATCH_TOL:g}")
    if "expect_area" in op:
        rel = abs(report["area"] / op["expect_area"] - 1.0)
        if not rel <= AREA_REL_TOL:
            fails.append(f"area off by {rel:.3e} (relative)")
    return fails, report


def check_verify(op, rc, stdout):
    """Closed-form identities of a surface covering a round sphere d times."""
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(stdout)
    d, r = op["degree"], op["radius"]
    fails = []
    if not report["conformality_sup"] <= VERIFY_CONF_TOL:
        fails.append(f"conformality_sup {report['conformality_sup']:.3e}")
    obstruction = float(np.linalg.norm(report["obstruction"]))
    if not obstruction <= VERIFY_OBSTRUCTION_TOL:
        fails.append(f"|obstruction| {obstruction:.3e}")
    area = FOUR_PI * d * r * r
    if not abs(report["area"] / area - 1.0) <= AREA_REL_TOL:
        fails.append(f"area {report['area']!r} != 4 pi d r^2 = {area!r}")
    tol = CURVATURE_TOL if d == 1 else CURVATURE_TOL_BRANCHED
    for key, want in (("gauss_identity", 2 * FOUR_PI * (1 - d)),
                      ("gauss_bonnet_residual", FOUR_PI * (d - 1))):
        if not abs(report[key] - want) <= tol:
            fails.append(f"{key} {report[key]!r} != {want!r} (tol {tol:g})")
    return fails


def _obj_counts(path):
    verts = faces = 0
    with open(path) as fh:
        for line in fh:
            verts += line.startswith("v ")
            faces += line.startswith("f ")
    return verts, faces


def check_family(op, rc, out_dir, total_curv, scan, n_r, n_phi):
    """``pmc example`` summary and mesh, total curvature and branch points."""
    from pmcsphere.planar import richardson_limit

    if rc != 0:
        return [f"exit code {rc}"]
    fails = []
    names = os.listdir(out_dir)
    summary_name = next(n for n in names
                        if n.endswith(".json") and n != "manifest.json")
    with open(os.path.join(out_dir, summary_name)) as fh:
        summary = json.load(fh)
    for key in ("max_abs_H", "max_conformality"):
        if not summary[key] <= PLANAR_TOL:
            fails.append(f"{key} {summary[key]:.3e} > {PLANAR_TOL:g}")
    obj = os.path.join(out_dir, summary_name[:-5] + ".obj")
    if _obj_counts(obj) != (n_r * n_phi, (n_r - 1) * n_phi):
        fails.append(f"OBJ counts {_obj_counts(obj)}")

    limit = richardson_limit(op["radii"], total_curv)
    multiple = round(limit / FOUR_PI)
    planar_limit = op["t"] == 0.0
    if (abs(limit - multiple * FOUR_PI) > TC_REL_TOL * abs(limit)
            or abs(total_curv[-1] - limit) > TC_REL_TOL * abs(limit)
            or (multiple == 0) != planar_limit):
        fails.append(f"total curvature {limit!r} is not a multiple of 4 pi")

    orders = [bp.order for bp in scan.points]
    if op["family"] == "odd" or (op["family"] == "enneper" and not planar_limit):
        if orders or scan.unresolved:
            fails.append(f"regular surface has branch candidates {orders}")
    elif planar_limit:
        # tests/test_planar.py pins one point of order 2 (Enneper) and
        # 2(k+1) - 1 (even family).  A candidate the fitter leaves unresolved
        # is counted by planar.branch_resolved_frac, not here.
        want = 2 if op["family"] == "enneper" else 2 * (op["k"] + 1) - 1
        if len(orders) + len(scan.unresolved) != 1 or any(o != want for o in orders):
            fails.append(f"branch orders {orders} (unresolved "
                         f"{len(scan.unresolved)}), expected one of order {want}")
    return fails
