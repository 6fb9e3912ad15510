"""Tests for the gauge-fixed Gauss-Newton continuation solver."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsphere.errors import DataError
from pmcsphere.geometry import ImmersionField, fundamental_forms, obstruction_vector
from pmcsphere.grid import (
    HarmonicField,
    SphericalGrid,
    analyze,
    integrate,
    synthesize,
)
from pmcsphere import solver
from pmcsphere.serialize import dumps
from pmcsphere.solver import (
    CENTER_TOL,
    ContinuationState,
    SolverConfig,
    StepFailure,
    _area_center,
    _jvp,
    _ladder,
    _linearization,
    _projected_cg,
    _rebase,
    _residual_vector,
    _round_start,
    _step_bytes,
    _vjp,
    _workspace,
    affine_insolvability_check,
    gauge_basis,
    gauge_projected_step,
    normal_variation_operator,
    residual,
    solve_pmc,
)
from test_acceptance import _mobius_reparametrize


def based_sphere_coeffs(grid):
    ws = _workspace(grid)
    return _rebase(analyze(grid.xyz, grid).coeffs.copy(), ws)


def centered_radii(field, grid):
    """Distance of surface points from the area centroid (gauge-neutral)."""
    vals = synthesize(field, grid)
    forms = fundamental_forms(ImmersionField(field, grid))
    aw = forms.area_weight
    total = integrate(np.ones_like(aw), grid, aw)
    c = np.array([integrate(vals[k], grid, aw) for k in range(3)]) / total
    return np.sqrt(np.sum((vals - c[:, None, None]) ** 2, axis=0))


def acceptance_target(grid, seed, eps):
    """H = 2 + eps * Y / sup|Y|, Y a random harmonic of degree 1..3, drawn as
    the acceptance suite draws its targets."""
    rng = np.random.default_rng(seed)
    L = grid.L
    c = np.zeros((1, L + 1, 2 * L + 1))
    for l in range(1, 4):
        c[0, l, L - l : L + l + 1] = rng.standard_normal(2 * l + 1)
    pert = synthesize(HarmonicField(c), grid)
    return 2.0 + eps * pert / np.max(np.abs(pert))


def invariant_scalars(field, grid):
    """Gauge-invariant summary: area, int |A|^2 and H deciles by area."""
    F = ImmersionField(field, grid)
    forms = fundamental_forms(F)
    aw = forms.area_weight
    area = integrate(np.ones_like(aw), grid, aw)
    intA2 = integrate(np.nan_to_num(forms.norm2_A), grid, aw)
    H = forms.mean_curvature.ravel()
    w = (aw * grid.w).ravel()
    order = np.argsort(H)
    cdf = np.cumsum(w[order]) / np.sum(w)
    deciles = np.interp(np.linspace(0.05, 0.95, 10), cdf, H[order])
    return area, intA2, deciles


def test_residual_zero_at_based_sphere():
    g = SphericalGrid(12)
    coeffs = based_sphere_coeffs(g)
    H2 = np.full((g.n_theta, g.n_phi), 2.0)
    r = residual(HarmonicField(coeffs), np.zeros(3), H2, g)
    assert r.shape == (5 * _workspace(g).n_nodes,)
    assert np.linalg.norm(r) < 1e-8


def test_residual_wrong_radius_floor():
    """Radius-2 sphere against H = 2: the mean-curvature block is bounded
    below (the chart-free residual is the unit vector field, L2 norm
    sqrt(4 pi))."""
    g = SphericalGrid(12)
    ws = _workspace(g)
    coeffs = _rebase(2.0 * analyze(g.xyz, g).coeffs, ws)
    H2 = np.full((g.n_theta, g.n_phi), 2.0)
    r = residual(HarmonicField(coeffs), np.zeros(3), H2, g)
    nn = ws.n_nodes
    mc_block = np.linalg.norm(r[2 * nn : 5 * nn])
    assert mc_block >= 0.5 * np.sqrt(4 * np.pi)


def test_rebase_rejects_degenerate_base_frame():
    """Without m = +-1 content, F_u and F_v vanish at the base point: the
    rigid motion is undefined, and _rebase says so instead of returning NaN
    coefficients."""
    g = SphericalGrid(8)
    coeffs = analyze(g.xyz, g).coeffs.copy()
    coeffs[:, :, [g.L - 1, g.L + 1]] = 0.0
    with pytest.raises(DataError, match="degenerate frame"):
        _rebase(coeffs, _workspace(g))


def test_residual_depends_only_on_sum():
    """(H, b) and the shifted pair with the same H + ell give one residual."""
    g = SphericalGrid(10)
    coeffs = based_sphere_coeffs(g)
    H = 2.0 + 0.1 * g.xyz[2] ** 2
    b1 = np.array([0.0, 0.0, -2.0])    # ell = 2 - 2 x3
    m = 1.0 - g.xyz[2]                 # normalized shift
    b2 = np.array([0.0, 0.0, -1.0])    # ell = 1 - x3 ; H + m + ell2 == H + ell1
    r1 = residual(HarmonicField(coeffs), b1, H, g)
    r2 = residual(HarmonicField(coeffs), b2, H + m, g)
    assert np.max(np.abs(r1 - r2)) < 1e-9


def test_residual_rejects_nonpositive_h():
    g = SphericalGrid(8)
    coeffs = based_sphere_coeffs(g)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    H[0, 0] = -0.5
    with pytest.raises(DataError):
        residual(HarmonicField(coeffs), np.zeros(3), H, g)


def perturbed_sphere_linearization():
    """An L = 8 sphere perturbed off round, with b != 0 and a non-constant
    target: (linearization, coeffs, b, H, grid, workspace)."""
    g = SphericalGrid(8)
    ws = _workspace(g)
    vals = g.xyz * (1.0 + 0.1 * g.xyz[0] * g.xyz[2])[None]
    coeffs = _rebase(analyze(vals, g).coeffs.copy(), ws)
    b = np.array([0.2, -0.1, 0.3])
    H = (2.0 + 0.2 * g.xyz[2] + 0.1 * g.xyz[0] ** 2).ravel()
    return _linearization(coeffs, b, H, g, ws), coeffs, b, H, g, ws


def jacobian_columns(lin, grid, ws):
    """The dense Jacobian, column by column from J e_j (a test reference)."""
    eye = np.eye(ws.n_unknowns)
    return np.stack([_jvp(lin, e, grid, ws) for e in eye], axis=1)


def test_jacobian_matches_centred_differences():
    """J v (on every unit vector) and J^T w (on every unit row vector) equal
    centred differences of the pointwise residual rows, on a perturbed
    sphere with b != 0."""
    lin, coeffs, b, H, g, ws = perturbed_sphere_linearization()
    rows = 5 * ws.n_nodes
    x0, h = ws.pack(coeffs, b), 1e-5
    fd = np.empty((rows, x0.size))
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        rp = _residual_vector(*ws.unpack(x0 + step), H, g, ws)
        rm = _residual_vector(*ws.unpack(x0 - step), H, g, ws)
        fd[:, j] = (rp - rm)[:rows] / (2 * h)
    J = jacobian_columns(lin, g, ws)
    assert np.max(np.abs(J - fd)) <= 1e-8
    JT = np.stack([_vjp(lin, e, g, ws) for e in np.eye(rows)])
    assert np.max(np.abs(JT - fd)) <= 1e-8


@given(L=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_jacobian_products_are_adjoint(L, seed):
    """<J v, w> = <v, J^T w> at a random state, for random v and w."""
    g = SphericalGrid(L)
    ws = _workspace(g)
    rng = np.random.default_rng(seed)
    x = ws.pack(analyze(g.xyz, g).coeffs, np.zeros(3))
    x += 0.05 * rng.standard_normal(x.size)
    coeffs, b = ws.unpack(x)
    H = 2.0 + 0.1 * rng.standard_normal(ws.n_nodes)
    lin = _linearization(coeffs, b, H, g, ws)
    v = rng.standard_normal(ws.n_unknowns)
    w = rng.standard_normal(5 * ws.n_nodes)
    Jv, JTw = _jvp(lin, v, g, ws), _vjp(lin, w, g, ws)
    assert abs(Jv @ w - v @ JTw) <= 1e-12 * np.linalg.norm(Jv) * np.linalg.norm(w)


def sector_basis(pre, q, n):
    """Dense columns U_q of sector q >= 0 from the preconditioner's packed
    indices and weights."""
    d = int(np.count_nonzero(np.any(pre.weight[q] != 0, axis=1)))
    U = np.zeros((n, d), dtype=complex)
    for j in range(d):
        np.add.at(U[:, j], pre.index[q, j], pre.weight[q, j])
    return U


def test_sector_blocks_match_round_normal_matrix():
    """The meridian-built sector blocks equal U^H A0 U of the dense round
    normal matrix, the sectors q and -q together form a unitary basis, the
    stored trace (the source of the step's base damping) is trace(A0), and
    solve applies the real matrix (P + shift + lam)^-1, P = sum_q U B_q U^H."""
    g = SphericalGrid(8)
    ws = _workspace(g)
    pre = ws.sectors
    lin0 = _linearization(analyze(g.xyz, g).coeffs, np.zeros(3),
                          np.full(ws.n_nodes, 2.0), g, ws)
    J0 = jacobian_columns(lin0, g, ws)
    A0 = J0.T @ J0
    assert abs(pre.trace - np.trace(A0)) <= 1e-12 * np.trace(A0)
    n = ws.n_unknowns
    Us = [sector_basis(pre, q, n) for q in range(g.L + 2)]
    for q, U in enumerate(Us):
        d = U.shape[1]
        V = pre.vectors[q, :d, :d]
        block = V @ np.diag(pre.values[q, :d]) @ V.conj().T
        dense = U.conj().T @ A0 @ U
        assert np.max(np.abs(block - dense)) <= 1e-12 * np.max(np.abs(dense))
    U_all = np.concatenate(Us + [U.conj() for U in Us[1:]], axis=1)
    assert U_all.shape == (n, n)
    assert np.max(np.abs(U_all.conj().T @ U_all - np.eye(n))) < 1e-13
    # the preconditioner applies U blockdiag(B_q + shift + lam)^-1 U^H
    r = np.random.default_rng(0).standard_normal(n)
    terms = [U @ (U.conj().T @ A0 @ U) @ U.conj().T for U in Us]
    P = terms[0] + sum(t + t.conj() for t in terms[1:])
    assert np.max(np.abs(P.imag)) < 1e-10 * np.max(np.abs(P.real))
    for lam in (0.0, 1e3 * pre.shift):
        x = pre.solve(r, lam)
        defect = (P.real + (pre.shift + lam) * np.eye(n)) @ x - r
        assert np.linalg.norm(defect) < 1e-10 * np.linalg.norm(r)


def kkt_reference(state, H, g, lam_factor=1e-12):
    """The damped KKT update solved densely from J's columns (a reference
    for the matrix-free solve), with the step's own damping."""
    ws = _workspace(g)
    lin = _linearization(state.coeffs, state.b, H.ravel(), g, ws)
    basis = gauge_basis(state.coeffs, g, ws)
    J = jacobian_columns(lin, g, ws)
    n, G = ws.n_unknowns, basis.matrix
    lam = lam_factor * ws.sectors.trace / n
    K = np.block([[J.T @ J + lam * np.eye(n), G], [G.T, np.zeros((9, 9))]])
    r0 = state.residual[: 5 * ws.n_nodes]
    rhs = np.concatenate([-(J.T @ r0), basis.rhs])
    krylov = _projected_cg(lin, basis, _vjp(lin, r0, g, ws), lam, g, ws)
    return np.linalg.solve(K, rhs)[:n], krylov


def test_krylov_update_matches_dense_kkt():
    """At L = 12 the projected-CG update equals the dense KKT solution to
    1e-9 (relative), at the round start against target 103 (eps = 0.1) and
    at a noisy state against 2 + x3."""
    g = SphericalGrid(12)
    ws = _workspace(g)
    rng = np.random.default_rng(4)
    round_start = _round_start(g, SolverConfig(degree=12))
    x = ws.pack(round_start, np.zeros(3)) + 1e-3 * rng.uniform(-1, 1, ws.n_unknowns)
    noisy, b_noisy = ws.unpack(x)
    noisy = _rebase(noisy, ws)
    for coeffs, b, H in ((round_start, np.zeros(3), acceptance_target(g, 103, 0.1)),
                         (noisy, b_noisy, 2.0 + g.xyz[2])):
        state = ContinuationState(
            s=1.0, coeffs=coeffs, b=b,
            residual=_residual_vector(coeffs, b, H.ravel(), g, ws),
        )
        dense, (krylov, iters) = kkt_reference(state, H, g)
        assert 1 <= iters <= 40
        assert np.linalg.norm(krylov - dense) <= 1e-9 * np.linalg.norm(dense)


def test_pack_unpack_roundtrip():
    g = SphericalGrid(6)
    ws = _workspace(g)
    x = np.random.default_rng(1).standard_normal(ws.n_unknowns)
    coeffs, b = ws.unpack(x)
    assert np.array_equal(ws.pack(coeffs, b), x)
    # entries with |m| > l stay zero
    assert np.count_nonzero(coeffs) == x.size - 3


def test_workspace_cache_one_entry_per_degree():
    """Repeated solves at one degree reuse one workspace."""
    solver._workspaces.clear()
    g = SphericalGrid(6)
    for _ in range(2):
        solve_pmc(np.full((g.n_theta, g.n_phi), 2.0),
                  SolverConfig(degree=6, steps=1))
    assert len(solver._workspaces) == 1


def test_gauge_basis_independent():
    g = SphericalGrid(10)
    coeffs = based_sphere_coeffs(g)
    basis = gauge_basis(coeffs, g)
    assert basis.matrix.shape[1] == 9
    assert basis.gram_condition < 1e10


def test_step_basin_of_attraction():
    """Noise 1e-3 at the round sphere, H = 2: residual < 1e-8 within 10
    Gauss-Newton iterations."""
    g = SphericalGrid(12)
    ws = _workspace(g)
    rng = np.random.default_rng(5)
    coeffs = based_sphere_coeffs(g)
    valid = np.zeros_like(coeffs, dtype=bool)
    for l in range(g.L + 1):
        valid[:, l, g.L - l : g.L + l + 1] = True
    coeffs = _rebase(coeffs + 1e-3 * rng.uniform(-1, 1, coeffs.shape) * valid, ws)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState(
        s=1.0, coeffs=coeffs, b=np.zeros(3),
        residual=_residual_vector(coeffs, np.zeros(3), H.ravel(), g, ws),
    )
    for _ in range(10):
        if state.residual_norm < 1e-8:
            break
        state = gauge_projected_step(state, H, g)
    assert state.residual_norm < 1e-8


def test_accepted_full_step_evaluates_residual_twice(monkeypatch):
    """A step accepted at alpha = 1 evaluates the residual at the trial
    point and at the re-based iterate; the start residual comes from the
    state."""
    g = SphericalGrid(10)
    ws = _workspace(g)
    rng = np.random.default_rng(5)
    x = ws.pack(based_sphere_coeffs(g), np.zeros(3))
    coeffs = _rebase(ws.unpack(x + 1e-3 * rng.uniform(-1, 1, x.size))[0], ws)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState(
        s=1.0, coeffs=coeffs, b=np.zeros(3),
        residual=_residual_vector(coeffs, np.zeros(3), H.ravel(), g, ws),
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return _residual_vector(*args)

    monkeypatch.setattr(solver, "_residual_vector", counted)
    new = gauge_projected_step(state, H, g)
    assert len(calls) == 2
    assert new.residual_norm < 1e-2 * state.residual_norm
    assert new.residual_norm == np.linalg.norm(new.residual)


def test_step_zero_update_at_solution():
    g = SphericalGrid(10)
    ws = _workspace(g)
    coeffs = based_sphere_coeffs(g)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState(
        s=1.0, coeffs=coeffs, b=np.zeros(3),
        residual=_residual_vector(coeffs, np.zeros(3), H.ravel(), g, ws),
    )
    try:
        new = gauge_projected_step(state, H, g)
        assert np.linalg.norm(new.last_update) < 1e-6
    except StepFailure:
        pass  # no strict decrease available at a machine-precision solution


def test_step_update_orthogonal_to_gauge():
    """A full step is orthogonal to the rigid motions and cancels the
    linearized area center, both to 1e-10 relative to the update, at L = 10
    and L = 16."""
    rng = np.random.default_rng(2)
    for L in (10, 16):
        g = SphericalGrid(L)
        ws = _workspace(g)
        coeffs = based_sphere_coeffs(g)
        valid = np.zeros_like(coeffs, dtype=bool)
        for l in range(g.L + 1):
            valid[:, l, g.L - l : g.L + l + 1] = True
        coeffs = _rebase(coeffs + 2e-3 * rng.uniform(-1, 1, coeffs.shape) * valid, ws)
        H = np.full((g.n_theta, g.n_phi), 2.0)
        state = ContinuationState(
            s=1.0, coeffs=coeffs, b=np.zeros(3),
            residual=_residual_vector(coeffs, np.zeros(3), H.ravel(), g, ws),
        )
        basis = gauge_basis(coeffs, g, ws)
        new = gauge_projected_step(state, H, g)
        delta = new.last_update
        scale = 1e-10 * np.linalg.norm(delta)
        # orthogonal to the 3 translations and 3 rotations
        assert np.max(np.abs(basis.matrix[:, :6].T @ delta)) < scale
        # the linearized centering holds: C . delta = -c
        _, C = _area_center(coeffs, g, ws)
        assert np.linalg.norm(basis.center) > 1e-6
        assert np.max(np.abs(C @ delta + basis.center)) < scale


def test_solve_hopf_constant_two():
    g = SphericalGrid(12)
    res = solve_pmc(np.full((g.n_theta, g.n_phi), 2.0),
                    SolverConfig(degree=12, steps=4))
    assert res.status == "converged"
    radii = centered_radii(res.field, g)
    assert np.max(np.abs(radii - 1.0)) < 1e-7
    assert np.linalg.norm(res.affine.b) < 1e-8


def test_solve_constant_four_gives_half_sphere():
    g = SphericalGrid(12)
    res = solve_pmc(np.full((g.n_theta, g.n_phi), 4.0),
                    SolverConfig(degree=12, steps=4))
    assert res.status == "converged"
    radii = centered_radii(res.field, g)
    assert np.max(np.abs(radii - 0.5)) < 1e-7
    assert np.linalg.norm(res.affine.b) < 1e-8


def test_solve_h_two_plus_x3_exact_family():
    """H = 2 + x3 balances to the constant 3 with b = (0,0,-1): the
    radius-2/3 sphere, an exact closed-form solution family."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + g.xyz[2], SolverConfig(degree=12, steps=5))
    assert res.status == "converged"
    assert np.max(np.abs(res.affine.b - np.array([0, 0, -1.0]))) < 1e-8
    radii = centered_radii(res.field, g)
    assert np.max(np.abs(radii - 2.0 / 3.0)) < 1e-7


def test_solve_reports_and_postconditions():
    g = SphericalGrid(16)
    rng = np.random.default_rng(3)
    c = np.zeros((1, 17, 33))
    for l in range(1, 4):
        c[0, l, 16 - l : 16 + l + 1] = rng.standard_normal(2 * l + 1)
    pert = synthesize(HarmonicField(c), g)
    H = 2.0 + 0.08 * pert / np.max(np.abs(pert))
    res = solve_pmc(H, SolverConfig(degree=16))
    assert res.status == "converged"
    rep = res.report
    assert rep["conformality_l2"] < 1e-8 and rep["mc_l2"] < 1e-8
    assert rep["mc_sup"] < 1e-6
    assert np.linalg.norm(rep["obstruction_h_plus_ell"]) < 1e-6
    # H of the output equals target + ell pointwise
    forms = fundamental_forms(ImmersionField(res.field, g))
    ell = res.affine.evaluate(g)
    assert np.nanmax(np.abs(forms.mean_curvature - (H + ell))) < 1e-6
    # returned b agrees with the balanced representative at the solution
    from pmcsphere.affine import canonical_representative

    _, ell_can = canonical_representative(H, forms.area_weight, g)
    assert np.max(np.abs(ell_can.b - res.affine.b)) < 1e-6


def test_solver_outputs_satisfy_obstruction_identity():
    """Solver outputs are conformal immersions: the obstruction integrals of
    (H_F, dV_F) vanish -- the numerical shadow of the divergence constraint."""
    g = SphericalGrid(12)
    rng = np.random.default_rng(8)
    c = np.zeros((1, 13, 25))
    for l in range(1, 3):
        c[0, l, 12 - l : 12 + l + 1] = rng.standard_normal(2 * l + 1)
    pert = synthesize(HarmonicField(c), g)
    H = 2.0 + 0.1 * pert / np.max(np.abs(pert))
    res = solve_pmc(H, SolverConfig(degree=12))
    forms = fundamental_forms(ImmersionField(res.field, g))
    v = obstruction_vector(
        np.nan_to_num(forms.mean_curvature), forms.area_weight, g
    )
    assert np.linalg.norm(v) < 1e-6


def test_monotone_residual_history():
    """Within each continuation stage the accepted norms strictly decrease;
    stage boundaries re-evaluate against a new target.  The history splits
    into stages by each stage's logged Gauss-Newton count (the noise-free
    round start needs no iteration at s = 0)."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=12, steps=2))
    hist, log = res.report["residual_history"], res.state.step_log
    assert log and all(e["converged"] for e in log) and log[-1]["s"] == 1.0
    start = 0
    for e in log:
        stage = hist[start : start + e["newton_iters"]]
        if stage:
            assert stage[-1] == e["residual"]
            assert np.all(np.diff(stage) < 0)
        start += e["newton_iters"]
    # iterations of the final polish and the canonicalization follow
    assert 0 < start <= len(hist)


def test_predictor_corrector_step_count():
    """Secant prediction and step doubling: H = 2 + 0.5 x3 from steps = 10
    takes at most 15 Gauss-Newton steps (31 with ten fixed stages of two),
    and still lands on the radius-0.8 sphere."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=12, steps=10))
    assert res.status == "converged"
    assert len(res.report["residual_history"]) <= 15
    log = res.state.step_log
    assert log[0]["ds"] == 0.0 and log[0]["newton_iters"] == 0
    assert log[1]["ds"] == 0.1 and max(e["ds"] for e in log) > 0.1
    assert abs(res.report["area"] - 4 * np.pi * 0.64) < 1e-7


def test_gauge_invariance_two_seeds():
    """Same target from different noise seeds: identical gauge-invariant
    scalars (area, int |A|^2, H deciles)."""
    g = SphericalGrid(16)
    H = 2.0 + 0.1 * g.xyz[2] + 0.05 * (g.xyz[0] ** 2 - g.xyz[1] ** 2)
    outs = []
    for seed in (1, 2):
        cfg = SolverConfig(degree=16, noise_amplitude=1e-2, noise_seed=seed, steps=5)
        res = solve_pmc(H, cfg)
        assert res.status == "converged"
        outs.append(invariant_scalars(res.field, g))
    (a1, i1, d1), (a2, i2, d2) = outs
    assert abs(a1 - a2) < 1e-6
    assert abs(i1 - i2) < 1e-6
    assert np.max(np.abs(d1 - d2)) < 1e-6


def test_class_invariance_shifted_target():
    """Adding the normalized affine 1 - x3 to H = 2 + x3 gives the constant 3;
    both targets produce the same surface and the returned ells differ by
    exactly the added affine function."""
    g = SphericalGrid(12)
    res_a = solve_pmc(2.0 + g.xyz[2], SolverConfig(degree=12, steps=5))
    res_b = solve_pmc(np.full((g.n_theta, g.n_phi), 3.0),
                      SolverConfig(degree=12, steps=5))
    assert res_a.status == res_b.status == "converged"
    (a1, i1, d1) = invariant_scalars(res_a.field, g)
    (a2, i2, d2) = invariant_scalars(res_b.field, g)
    assert abs(a1 - a2) < 1e-6 and abs(i1 - i2) < 1e-6
    assert np.max(np.abs(d1 - d2)) < 1e-6
    ell_diff = res_a.affine.evaluate(g) - res_b.affine.evaluate(g)
    m = 1.0 - g.xyz[2]
    assert np.max(np.abs(ell_diff - m)) < 1e-7


def one_step_stages(monkeypatch):
    """One Gauss-Newton step per correction, and a final rung that stalls
    once its step in s falls below 0.6."""
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(solver, "MIN_STEP", 0.6)


def test_stall_reports_partial_state(monkeypatch):
    one_step_stages(monkeypatch)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.9 * g.xyz[2], SolverConfig(degree=8, steps=1))
    assert res.status == "stalled"
    assert res.report["status"] == "stalled"
    assert "stall_diagnostics" in res.report
    # the one-iteration stage at ds = 1 fails, and ds = 0.5 is below MIN_STEP
    assert res.report["stall_reason"] == "min_step"


def test_stall_report_scans_branches_once(monkeypatch):
    """A stall at a conformal iterate fills both the verify entries and the
    stall diagnostics from one branch scan."""
    from pmcsphere import geometry

    scan, calls = geometry.detect_branch_points, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(geometry, "detect_branch_points", counted)
    monkeypatch.setattr(solver, "detect_branch_points", counted)
    one_step_stages(monkeypatch)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.9 * g.xyz[2], SolverConfig(degree=8, steps=1))
    rep = res.report
    assert res.status == "stalled" and rep["conformality_sup"] <= 1e-6
    assert len(calls) == 1
    assert rep["unresolved_singular_points"] == (
        rep["stall_diagnostics"]["unresolved_singular_points"]
    )
    assert [bp["order"] for bp in rep["branch_points"]] == [
        bp["order"] for bp in rep["stall_diagnostics"]["branch_points"]
    ]


def test_stall_report_serializable(monkeypatch):
    """A stall at a non-conformal iterate reports the mean-curvature
    residual as null with its reason, and the report serializes."""
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=8, noise_amplitude=0.05))
    rep = res.report
    assert res.status == "stalled"
    # one iteration cannot correct the noisy start at s = 0
    assert rep["stall_reason"] == "iteration_cap"
    assert rep["conformality_sup"] > 1e-6
    assert rep["mc_l2"] is None and rep["mc_sup"] is None
    assert "not conformal" in rep["mc_unavailable"]
    assert "wall_time" not in rep
    assert json.loads(dumps(rep))["mc_l2"] is None


def test_stall_reason_non_conformal(monkeypatch):
    """A solve that meets its residual tolerance but not the sup-norm
    conformality gate stalls as "non_conformal"."""
    monkeypatch.setattr(solver, "CONFORMALITY_TOL", 0.0)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=8, steps=2))
    assert res.status == res.report["status"] == "stalled"
    assert res.report["stall_reason"] == "non_conformal"
    assert all(e["converged"] for e in res.report["step_log"])


def test_ladder_schedule():
    assert [_ladder(L) for L in (8, 12, 16, 24, 32)] == [
        [8], [12], [12, 16], [12, 24], [12, 32]
    ]


def _solve_counting_steps(H, config):
    """solve_pmc, with the degree of every Gauss-Newton step recorded."""
    step, degrees = solver.gauge_projected_step, []

    def counted(state, H_values, grid):
        degrees.append(grid.L)
        return step(state, H_values, grid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "gauge_projected_step", counted)
        return solve_pmc(H, config), degrees


@pytest.fixture(scope="module")
def ladder_vs_direct():
    """L = 16 solves of acceptance target 103 (eps = 0.1) and of 2 + x3, by
    the ladder 12 -> 16 and by the single-degree path."""
    g = SphericalGrid(16)
    out = {}
    for name, H in (("103", acceptance_target(g, 103, 0.1)), ("2+x3", 2.0 + g.xyz[2])):
        ladder, degrees = _solve_counting_steps(H, SolverConfig(degree=16))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "COARSEST_DEGREE", 16)
            direct = solve_pmc(H, SolverConfig(degree=16))
        out[name] = (H, ladder, degrees, direct)
    return out


def _center_norm(field):
    g = SphericalGrid(field.degree)
    return np.linalg.norm(_area_center(field.coeffs, g, _workspace(g))[0])


def test_ladder_matches_single_degree_solution(ladder_vs_direct):
    for H, ladder, _, direct in ladder_vs_direct.values():
        assert ladder.status == direct.status == "converged"
        assert _center_norm(ladder.field) <= CENTER_TOL
        assert _center_norm(direct.field) <= CENTER_TOL
        assert {e["degree"] for e in ladder.report["step_log"]} == {12, 16}
        assert {e["degree"] for e in direct.report["step_log"]} == {16}
        assert np.max(np.abs(ladder.field.coeffs - direct.field.coeffs)) < 1e-10
        assert np.max(np.abs(ladder.affine.b - direct.affine.b)) < 1e-10


def test_ladder_takes_few_top_degree_steps(ladder_vs_direct):
    """The single-degree path takes 10 Gauss-Newton steps at L = 16 on
    target 103; the ladder takes at most 1 there, after the degree-12
    steps, and opens the L = 16 rung with a logged correction at ds = 0."""
    _, ladder, degrees, _ = ladder_vs_direct["103"]
    assert degrees.count(16) <= 1
    assert degrees == sorted(degrees) and set(degrees) == {12, 16}
    log = ladder.report["step_log"]
    assert sum(e["newton_iters"] for e in log if e["degree"] == 12) == degrees.count(12)
    assert [e["ds"] for e in log if e["degree"] == 16][0] == 0.0


def test_polish_centers_without_stall(ladder_vs_direct):
    """A state that meets tol / 2 but is off center by more than CENTER_TOL
    (a converged solve composed with a boost of |v| = 1e-9) is polished to
    a converged, centered state."""
    H, ladder, _, _ = ladder_vs_direct["103"]
    g = SphericalGrid(16)
    ws = _workspace(g)
    v = 1e-9 * np.array([0.6, -0.48, 0.64])
    boosted = _mobius_reparametrize(ladder.field, g, g, v, np.eye(3)).coeffs
    coeffs = _rebase(boosted, ws)
    b = ladder.affine.b
    state = ContinuationState(
        s=1.0, coeffs=coeffs, b=b,
        residual=_residual_vector(coeffs, b, H.ravel(), g, ws),
    )
    config = SolverConfig(degree=16)
    assert state.residual_norm <= 0.5 * config.tol
    assert _center_norm(HarmonicField(coeffs)) > CENTER_TOL
    polished, reason = solver._newton_to_tol(state, H, g, 0.5 * config.tol,
                                             center=True)
    assert reason is None
    assert len(polished.newton_log) >= 1
    assert polished.residual_norm <= 0.5 * config.tol
    assert _center_norm(HarmonicField(polished.coeffs)) <= CENTER_TOL


def test_bad_coarse_rung_is_harmless(ladder_vs_direct, monkeypatch):
    """At COARSEST_DEGREE = 8 the degree-8 truncation floor of target 103 is
    above the stage tolerance: the coarse rung ends at its first failed
    stage, L = 16 continues from the last accepted s, and the solve
    converges to the same solution."""
    H, _, _, direct = ladder_vs_direct["103"]
    monkeypatch.setattr(solver, "COARSEST_DEGREE", 8)
    res = solve_pmc(H, SolverConfig(degree=16))
    assert res.status == "converged"
    log = res.report["step_log"]
    coarse = [e for e in log if e["degree"] == 8]
    assert not coarse[-1]["converged"] and all(e["converged"] for e in coarse[:-1])
    opening = log[len(coarse)]
    assert opening["degree"] == 16 and opening["ds"] == 0.0
    assert opening["s"] == coarse[-2]["s"] < 1.0
    assert np.max(np.abs(res.field.coeffs - direct.field.coeffs)) < 1e-8
    assert np.max(np.abs(res.affine.b - direct.affine.b)) < 1e-8


def test_nonpositive_truncation_skips_its_rung(monkeypatch):
    """A positive node-valued L = 16 target whose degree-12 truncation dips
    below zero (the Gibbs undershoot of a step) is solved at L = 16 only."""
    g = SphericalGrid(16)
    H = 1e-3 + (g.xyz[2] > 0)
    coarse = SphericalGrid(12)
    assert np.min(H) > 0
    assert np.min(synthesize(analyze(H, g).truncated(12), coarse)) < 0
    one_step_stages(monkeypatch)
    res = solve_pmc(H, SolverConfig(degree=16, steps=1))
    assert {e["degree"] for e in res.report["step_log"]} == {16}


def test_target_unresolved_at_degree_12_skips_its_rung(monkeypatch):
    """A target whose coefficient norm above degree 12 exceeds tol is solved
    at L = 16 only; one whose norm there is below tol keeps the degree-12
    rung."""
    one_step_stages(monkeypatch)
    config = SolverConfig(degree=16, steps=1)
    for tail, degrees in ((1e-6, {16}), (1e-10, {12, 16})):
        c = np.zeros((1, 17, 33))
        c[0, 0, 16] = 2.0 * np.sqrt(4.0 * np.pi)
        c[0, 14, 16] = tail
        res = solve_pmc(HarmonicField(c), config)
        assert {e["degree"] for e in res.report["step_log"]} == degrees


def test_newton_log_one_record_per_step(ladder_vs_direct):
    """report["newton_log"] has one record per accepted Gauss-Newton step
    (as many as residual_history), in step order, and the L = 16 solve's
    projected-CG steps take 1..40 iterations each."""
    _, ladder, degrees, _ = ladder_vs_direct["103"]
    log = ladder.report["newton_log"]
    assert len(log) == len(ladder.report["residual_history"]) == len(degrees)
    assert [e["degree"] for e in log] == degrees
    assert [e["residual"] for e in log] == ladder.report["residual_history"]
    for e in log:
        assert set(e) == {"degree", "residual", "alpha", "halvings", "damping_retries",
                          "linear_solver", "linear_iters"}
        assert e["alpha"] == 0.5 ** e["halvings"]
        assert e["linear_solver"] == "krylov" and 1 <= e["linear_iters"] <= 40
    assert json.loads(dumps(ladder.report))["newton_log"] == log


def test_truncation_floor_named():
    """Target 103 (eps = 0.1) at L = 12 stalls in the line search with its
    top degrees above tol / 2 and no branch point: the stall reads
    "truncation_floor" and suggests a degree above 12."""
    g = SphericalGrid(12)
    res = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=12))
    assert res.status == "stalled"
    assert res.report["stall_reason"] == "truncation_floor"
    diag = res.report["stall_diagnostics"]
    assert diag["branch_points"] == [] and diag["unresolved_singular_points"] == []
    top = diag["top_degree_norms"]
    assert len(top) == 3 and np.linalg.norm(top) > 0.5 * SolverConfig().tol
    assert diag["suggested_degree"] > 12
    fine = SphericalGrid(diag["suggested_degree"])
    res = solve_pmc(acceptance_target(fine, 103, 0.1),
                    SolverConfig(degree=diag["suggested_degree"]))
    assert res.status == "converged"


def test_workspace_holds_no_dense_tables():
    """After an L = 16 solve the degree-16 workspace holds no
    n_nodes x n_modes array: the step is matrix-free."""
    g = SphericalGrid(16)
    res = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=16))
    assert 16 in {e["degree"] for e in res.report["newton_log"]}
    ws = solver._workspaces[16]
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(ws.sectors).values() if isinstance(v, np.ndarray)]
    assert arrays
    big = ws.n_nodes * ws.n_modes
    assert all(a.size < big for a in arrays)


def test_step_bytes_bounds_traced_first_step():
    """The memory model behind the solve refusal exceeds the traced
    allocation peak of a first Gauss-Newton step at L = 16 (the step that
    also builds the sector preconditioner)."""
    g = SphericalGrid(16)
    ws = _workspace(g)
    ws.__dict__.pop("sectors", None)
    H = acceptance_target(g, 103, 0.1)
    coeffs = _round_start(g, SolverConfig(degree=16))
    state = ContinuationState(s=1.0, coeffs=coeffs, b=np.zeros(3),
                              residual=_residual_vector(coeffs, np.zeros(3), H.ravel(), g, ws))
    tracemalloc.start()
    try:
        gauge_projected_step(state, H, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _step_bytes(16)


def test_normal_variation_operator_eigenfunctions():
    g = SphericalGrid(16)
    F = ImmersionField.from_values(g.xyz, g)
    for i in range(3):
        out = normal_variation_operator(F, g.xyz[i])
        assert np.nanmax(np.abs(out)) < 1e-9
    out = normal_variation_operator(F, np.ones((g.n_theta, g.n_phi)))
    assert np.nanmax(np.abs(out + 2.0)) < 1e-9


def test_normal_variation_fd_consistency():
    """Directional derivative of the computed H under F -> F + eps f N
    matches the operator (calibrated prefactor: 1), eps = 1e-5, tol 1e-4."""
    g = SphericalGrid(16)
    F = ImmersionField.from_values(g.xyz, g)
    N = fundamental_forms(F).normal
    c = np.zeros((1, 17, 33))
    c[0, 2, 16] = 0.7
    c[0, 3, 16 + 1] = 0.4
    f = synthesize(HarmonicField(c), g)
    eps = 1e-5
    Hp = fundamental_forms(
        ImmersionField.from_values(g.xyz + eps * f[None] * N, g)
    ).mean_curvature
    Hm = fundamental_forms(
        ImmersionField.from_values(g.xyz - eps * f[None] * N, g)
    ).mean_curvature
    fd = (Hp - Hm) / (2 * eps)
    op = normal_variation_operator(F, f)
    scale = np.nanmax(np.abs(op))
    assert np.nanmax(np.abs(fd - op)) < 1e-4 * max(1.0, scale)


def test_affine_insolvability_floors():
    g = SphericalGrid(16)
    ones = np.ones((g.n_theta, g.n_phi))
    assert affine_insolvability_check(g, ones) < 1e-12
    assert abs(affine_insolvability_check(g) - np.sqrt(4 * np.pi / 3)) < 1e-8
    v = affine_insolvability_check(g, g.xyz[0] + g.xyz[1])
    assert abs(v - np.sqrt(8 * np.pi / 3)) < 1e-8
