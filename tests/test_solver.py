"""Tests for the gauge-fixed Gauss-Newton continuation solver."""

import gc
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
    _MultipletPreconditioner,
    _area_center,
    _center_gradient,
    _jvp,
    _linearization,
    _projected_cg,
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
from test_geometry import _count_calls


def based_sphere_coeffs(grid):
    return analyze(grid.xyz, grid).coeffs.copy()


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
    assert r.shape == (5 * _workspace(g.L).n_nodes,)
    assert np.linalg.norm(r) < 1e-8


def test_residual_wrong_radius_floor():
    """Radius-2 sphere against H = 2: the mean-curvature block is bounded
    below (the chart-free residual is the unit vector field, L2 norm
    sqrt(4 pi))."""
    g = SphericalGrid(12)
    ws = _workspace(g.L)
    coeffs = 2.0 * analyze(g.xyz, g).coeffs
    H2 = np.full((g.n_theta, g.n_phi), 2.0)
    r = residual(HarmonicField(coeffs), np.zeros(3), H2, g)
    nn = ws.n_nodes
    mc_block = np.linalg.norm(r[2 * nn : 5 * nn])
    assert mc_block >= 0.5 * np.sqrt(4 * np.pi)


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


def test_residual_rejects_nan_h():
    """A NaN node of H fails the positivity check instead of giving NaN
    rows."""
    g = SphericalGrid(8)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    H[3, 4] = np.nan
    with pytest.raises(DataError, match="positive"):
        residual(HarmonicField(based_sphere_coeffs(g)), np.zeros(3), H, g)


def test_solve_rejects_nan_target_before_any_step(monkeypatch):
    """A node-valued target with one NaN node raises DataError before the
    continuation starts."""
    def no_start(*args):
        raise AssertionError("the continuation started")

    monkeypatch.setattr(solver, "_round_start", no_start)
    g = SphericalGrid(8)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    H[3, 4] = np.nan
    with pytest.raises(DataError, match="positive"):
        solve_pmc(H, SolverConfig(degree=8))


def perturbed_sphere_linearization():
    """An L = 8 sphere perturbed off round, with b != 0 and a non-constant
    target: (linearization, coeffs, b, H, workspace)."""
    g = SphericalGrid(8)
    ws = _workspace(g.L)
    vals = g.xyz * (1.0 + 0.1 * g.xyz[0] * g.xyz[2])[None]
    coeffs = analyze(vals, g).coeffs
    b = np.array([0.2, -0.1, 0.3])
    H = (2.0 + 0.2 * g.xyz[2] + 0.1 * g.xyz[0] ** 2).ravel()
    state = ContinuationState.at(1.0, coeffs, b, H)
    return _linearization(state), coeffs, b, H, ws


def jacobian_columns(lin, ws):
    """The dense Jacobian, column by column from J e_j (a test reference)."""
    eye = np.eye(ws.n_unknowns)
    return np.stack([_jvp(lin, e, ws) for e in eye], axis=1)


def test_jacobian_matches_centred_differences():
    """J v (on every unit vector) and J^T w (on every unit row vector) equal
    centred differences of the pointwise residual rows, on a perturbed
    sphere with b != 0."""
    lin, coeffs, b, H, ws = perturbed_sphere_linearization()
    rows = 5 * ws.n_nodes
    x0, h = ws.pack(coeffs, b), 1e-5
    fd = np.empty((rows, x0.size))
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        rp = ContinuationState.at(1.0, *ws.unpack(x0 + step), H).residual
        rm = ContinuationState.at(1.0, *ws.unpack(x0 - step), H).residual
        fd[:, j] = (rp - rm)[:rows] / (2 * h)
    J = jacobian_columns(lin, ws)
    assert np.max(np.abs(J - fd)) <= 1e-8
    JT = np.stack([_vjp(lin, e, ws) for e in np.eye(rows)])
    assert np.max(np.abs(JT - fd)) <= 1e-8


@given(L=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_jacobian_products_are_adjoint(L, seed):
    """<J v, w> = <v, J^T w> at a random state, for random v and w."""
    g = SphericalGrid(L)
    ws = _workspace(L)
    rng = np.random.default_rng(seed)
    x = ws.pack(analyze(g.xyz, g).coeffs, np.zeros(3))
    x += 0.05 * rng.standard_normal(x.size)
    coeffs, b = ws.unpack(x)
    H = 2.0 + 0.1 * rng.standard_normal(ws.n_nodes)
    lin = _linearization(ContinuationState.at(1.0, coeffs, b, H))
    v = rng.standard_normal(ws.n_unknowns)
    w = rng.standard_normal(5 * ws.n_nodes)
    Jv, JTw = _jvp(lin, v, ws), _vjp(lin, w, ws)
    assert abs(Jv @ w - v @ JTw) <= 1e-12 * np.linalg.norm(Jv) * np.linalg.norm(w)


@pytest.mark.parametrize("L, top_defect", [(8, 0.02), (16, 0.007)])
def test_multiplet_blocks_match_round_normal_matrix(L, top_defect):
    """In the coupled basis the dense round normal matrix A0 is block-diagonal,
    with the preconditioner's closed-form block B_j for every m of each
    j <= L, each block to 1e-12 of its own scale; at the top multiplet
    j = L + 1, which the grid does not keep invariant, it is within
    top_defect of the block.  The coupling basis is unitary, A0's
    only null values are the nine gauge directions in j = 1, and solve
    applies the real matrix P^-1, P = U^H blockdiag(B_j) U with the j = 1
    block lifted to sigma I."""
    g = SphericalGrid(L)
    ws = _workspace(g.L)
    pre = ws.preconditioner
    n = ws.n_unknowns
    lin0 = _linearization(ContinuationState.at(1.0, analyze(g.xyz, g).coeffs, np.zeros(3),
                                               np.full(ws.n_nodes, 2.0)))
    J0 = jacobian_columns(lin0, ws)
    A0 = J0.T @ J0
    # rows of U: the coupled coefficients of each unit vector, per state
    # (j, slot, m); solve keeps m >= -1, and a real vector's coefficient at
    # -m is (-1)^(m + lam + 1 - j) conj(that at m), (-1)^m for b
    half = pre.coupled(np.eye(n)).transpose(3, 1, 0, 2)
    j, slot, m = np.meshgrid(np.arange(L + 2), np.arange(4), np.arange(-L - 1, L + 2),
                             indexing="ij")
    sign = (-1.0) ** (m + slot + (slot == 3))
    full = np.concatenate([sign[..., :L] * half[..., :2:-1].conj(), half],
                          axis=-1).reshape(n, -1)
    states = np.flatnonzero(np.any(full != 0, axis=0))
    U = full[:, states].T
    assert U.shape == (n, n)
    assert np.max(np.abs(U @ U.conj().T - np.eye(n))) < 1e-13
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) < 1e-13
    j, slot, m = j.ravel()[states], slot.ravel()[states], m.ravel()[states]
    same = (j[:, None] == j[None]) & (m[:, None] == m[None])

    def blockdiag(blocks):
        return np.where(same, blocks[j[:, None], slot[:, None], slot[None]], 0.0)

    dense = U @ A0 @ U.conj().T
    defect = np.abs(dense - blockdiag(pre.blocks))
    low = (j[:, None] <= L) & (j[None] <= L)
    assert np.max(defect[low]) <= 1e-12 * np.max(np.abs(A0))
    # each closed-form block B_j on its own scale
    for jj in range(L + 1):
        scale = max(np.max(np.abs(pre.blocks[jj])), 1.0)
        assert np.max(defect[same & (j[:, None] == jj)]) <= 1e-12 * scale
    top = pre.blocks[L + 1, 0, 0].real
    assert np.max(defect[~low]) <= top_defect * top
    # nine null values, all in the three j = 1 field slots
    values, vectors = np.linalg.eigh(A0)
    null = np.abs(values) < 1e-9 * values[-1]
    assert np.count_nonzero(null) == 9
    gauge = (j == 1) & (slot < 3)
    assert np.allclose(np.linalg.norm(U[gauge] @ vectors[:, null], axis=0), 1.0, atol=1e-9)
    # j = 1 holds one nonzero value, sigma at b: the lifted value
    e_b = np.eye(4)[3]
    assert np.max(np.abs(pre.blocks[1] - pre.lifted * np.outer(e_b, e_b))) <= 1e-12 * pre.lifted
    # solve applies P^-1 with the j = 1 block sigma I
    blocks = pre.blocks.copy()
    blocks[1] = pre.lifted * np.eye(4)
    P = U.conj().T @ blockdiag(blocks) @ U
    assert np.max(np.abs(P.imag)) < 1e-10 * np.max(np.abs(P.real))
    r = np.random.default_rng(0).standard_normal(n)
    defect = P.real @ pre.solve(r) - r
    assert np.linalg.norm(defect) < 1e-10 * np.linalg.norm(r)


def kkt_reference(state):
    """The KKT update solved densely from J's columns (a reference for the
    matrix-free solve)."""
    ws = state.ws
    lin = _linearization(state)
    basis = gauge_basis(state)
    J = jacobian_columns(lin, ws)
    n, G = ws.n_unknowns, basis.matrix
    K = np.block([[J.T @ J, G], [G.T, np.zeros((9, 9))]])
    r0 = state.residual[: 5 * ws.n_nodes]
    rhs = np.concatenate([-(J.T @ r0), basis.rhs])
    krylov = _projected_cg(lin, basis, _vjp(lin, r0, ws), ws)
    return np.linalg.solve(K, rhs)[:n], krylov


def test_krylov_update_matches_dense_kkt():
    """At L = 12 the projected-CG update equals the dense KKT solution to
    1e-9 (relative), at the round start against target 103 (eps = 0.1) and
    at a noisy state against 2 + x3."""
    g = SphericalGrid(12)
    ws = _workspace(g.L)
    rng = np.random.default_rng(4)
    round_start = _round_start(g.L, SolverConfig(degree=12))
    x = ws.pack(round_start, np.zeros(3)) + 1e-3 * rng.uniform(-1, 1, ws.n_unknowns)
    noisy, b_noisy = ws.unpack(x)
    for coeffs, b, H in ((round_start, np.zeros(3), acceptance_target(g, 103, 0.1)),
                         (noisy, b_noisy, 2.0 + g.xyz[2])):
        state = ContinuationState.at(1.0, coeffs, b, H)
        dense, (krylov, iters) = kkt_reference(state)
        assert 1 <= iters <= 40
        assert np.linalg.norm(krylov - dense) <= 1e-9 * np.linalg.norm(dense)


def test_pack_unpack_roundtrip():
    ws = _workspace(6)
    x = np.random.default_rng(1).standard_normal(ws.n_unknowns)
    coeffs, b = ws.unpack(x)
    assert np.array_equal(ws.pack(coeffs, b), x)
    # entries with |m| > l stay zero
    assert np.count_nonzero(coeffs) == x.size - 3


def test_workspace_cache_one_entry_per_degree():
    """Repeated solves at one degree build its workspace once."""
    _workspace.cache_clear()
    g = SphericalGrid(6)
    for _ in range(2):
        solve_pmc(np.full((g.n_theta, g.n_phi), 2.0),
                  SolverConfig(degree=6))
    info = _workspace.cache_info()
    assert info.misses == info.currsize == 1 and info.hits > 0


def test_gauge_basis_independent():
    g = SphericalGrid(10)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, based_sphere_coeffs(g), np.zeros(3), H)
    basis = gauge_basis(state)
    assert basis.matrix.shape[1] == 9
    assert basis.gram_condition < 1e10


def test_step_basin_of_attraction():
    """Noise 1e-3 at the round sphere, H = 2: residual < 1e-8 within 10
    Gauss-Newton iterations."""
    g = SphericalGrid(12)
    rng = np.random.default_rng(5)
    coeffs = based_sphere_coeffs(g)
    valid = np.zeros_like(coeffs, dtype=bool)
    for l in range(g.L + 1):
        valid[:, l, g.L - l : g.L + l + 1] = True
    coeffs = coeffs + 1e-3 * rng.uniform(-1, 1, coeffs.shape) * valid
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
    for _ in range(10):
        if state.residual_norm < 1e-8:
            break
        state = gauge_projected_step(state, H)
    assert state.residual_norm < 1e-8


def count_transforms(monkeypatch):
    """Calls of synthesize_jet and of its adjoint, wherever the package
    binds them (analyze included)."""
    import pmcsphere.grid as grid_module

    calls = {"synthesize_jet": 0, "synthesize_jet_adjoint": 0}
    for name in calls:
        original = getattr(grid_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (grid_module, solver):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_accepted_full_step_evaluates_residual_once(monkeypatch):
    """A step accepted at alpha = 1 evaluates the iterate once, at the trial
    point, which becomes the new state; the start residual, the Jacobian and
    the gauge columns read the state's evaluation.  The step synthesizes
    one jet per CG product, one for the CG start and one for the
    evaluation: linear_iters + 2."""
    g = SphericalGrid(10)
    ws = _workspace(g.L)
    rng = np.random.default_rng(5)
    x = ws.pack(based_sphere_coeffs(g), np.zeros(3))
    coeffs = ws.unpack(x + 1e-3 * rng.uniform(-1, 1, x.size))[0]
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
    calls, at = [], ContinuationState.at.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return at(cls, *args, **kwargs)

    monkeypatch.setattr(ContinuationState, "at", classmethod(counted))
    transforms = count_transforms(monkeypatch)
    new = gauge_projected_step(state, H)
    assert len(calls) == 1
    assert new.newton_log[-1]["alpha"] == 1.0
    assert transforms["synthesize_jet"] == new.newton_log[-1]["linear_iters"] + 2
    assert new.residual_norm < 1e-2 * state.residual_norm
    assert new.residual_norm == np.linalg.norm(new.residual)


def test_preconditioner_build_evaluates_nothing(monkeypatch):
    """The preconditioner's blocks are closed forms in j: building it at
    L = 16 evaluates no state and runs neither transform."""
    calls, at = [], ContinuationState.at.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return at(cls, *args, **kwargs)

    monkeypatch.setattr(ContinuationState, "at", classmethod(counted))
    transforms = count_transforms(monkeypatch)
    pre = _MultipletPreconditioner(_workspace(16))
    assert pre.blocks.shape == (18, 4, 4)
    assert calls == []
    assert transforms == {"synthesize_jet": 0, "synthesize_jet_adjoint": 0}


def test_polish_center_check_runs_no_transform(monkeypatch):
    """The polish's center check reads the state's evaluation: at a met
    target (the based round sphere, H = 2) it runs neither transform."""
    g = SphericalGrid(10)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, based_sphere_coeffs(g), np.zeros(3), H)
    assert np.linalg.norm(_area_center(state)[0]) <= CENTER_TOL
    calls = count_transforms(monkeypatch)
    done, reason = solver._newton_to_tol(state, H, 1e-8, center=True)
    assert done is state and reason is None
    assert calls == {"synthesize_jet": 0, "synthesize_jet_adjoint": 0}


def test_cg_failure_is_its_own_stall_reason(monkeypatch):
    """Off the solution (the round sphere against H = 2 + x3 / 2, whose step
    takes 11 CG iterations), projected CG capped at one iteration fails, and
    Gauss-Newton stops with "krylov_failure" at the state it started from,
    not with "line_search_exhausted"."""
    g = SphericalGrid(8)
    H = (2.0 + 0.5 * g.xyz[2]).ravel()
    state = ContinuationState.at(1.0, based_sphere_coeffs(g), np.zeros(3), H)
    monkeypatch.setattr(solver, "KRYLOV_MAX_ITERS", 1)
    lin = _linearization(state)
    delta, iters = _projected_cg(lin, gauge_basis(state),
                                 _vjp(lin, state.residual, state.ws), state.ws)
    assert delta is None and iters == 1
    with pytest.raises(StepFailure) as failure:
        gauge_projected_step(state, H)
    assert failure.value.reason == "krylov_failure"
    done, reason = solver._newton_to_tol(state, H, 1e-8)
    assert done is state and reason == "krylov_failure"
    assert state.newton_log == []


def test_step_zero_update_at_solution():
    g = SphericalGrid(10)
    coeffs = based_sphere_coeffs(g)
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
    ws = state.ws
    try:
        new = gauge_projected_step(state, H)
        update = ws.pack(new.coeffs, new.b) - ws.pack(coeffs, np.zeros(3))
        assert np.linalg.norm(update) < 1e-6
    except StepFailure:
        pass  # no strict decrease available at a machine-precision solution


def test_step_update_orthogonal_to_gauge():
    """A full step is orthogonal to the rigid motions and cancels the
    linearized area center, both to 1e-10 relative to the update, at L = 10
    and L = 16; its l = 0 coefficients (the translations) do not move, to
    1e-13 relative."""
    rng = np.random.default_rng(2)
    for L in (10, 16):
        g = SphericalGrid(L)
        coeffs = based_sphere_coeffs(g)
        valid = np.zeros_like(coeffs, dtype=bool)
        for l in range(g.L + 1):
            valid[:, l, g.L - l : g.L + l + 1] = True
        coeffs = coeffs + 2e-3 * rng.uniform(-1, 1, coeffs.shape) * valid
        H = np.full((g.n_theta, g.n_phi), 2.0)
        state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
        basis = gauge_basis(state)
        new = gauge_projected_step(state, H)
        ws = state.ws
        delta = ws.pack(new.coeffs, new.b) - ws.pack(coeffs, np.zeros(3))
        assert new.newton_log[-1]["alpha"] == 1.0
        assert np.max(np.abs(new.coeffs[:, 0] - coeffs[:, 0])) <= (
            1e-13 * np.linalg.norm(delta))
        scale = 1e-10 * np.linalg.norm(delta)
        # orthogonal to the 3 translations and 3 rotations
        assert np.max(np.abs(basis.matrix[:, :6].T @ delta)) < scale
        # the linearized centering holds: C . delta = -c
        _, C = _center_gradient(state)
        assert np.linalg.norm(basis.center) > 1e-6
        assert np.max(np.abs(C @ delta[:-3] + basis.center)) < scale


def test_step_accepted_at_branched_double_cover():
    """The map z -> z^2 of the north chart, a sphere covering the unit sphere
    twice with branch points at both poles, solves H = 2 up to its L = 24
    truncation.  A step there is accepted and lowers the residual: no
    frame at the north pole is needed to place the iterate."""
    g = SphericalGrid(24)
    x = g.xyz
    P = (x[0] + 1j * x[1]) ** 2
    A, B = (1 + x[2]) ** 2, (1 - x[2]) ** 2
    coeffs = analyze(np.stack([2 * P.real, 2 * P.imag, A - B]) / (A + B), g).coeffs
    H = np.full((g.n_theta, g.n_phi), 2.0)
    state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
    new = gauge_projected_step(state, H)
    assert new.residual_norm < state.residual_norm
    assert new.newton_log[-1]["residual"] == new.residual_norm


def test_solve_hopf_constant_two():
    g = SphericalGrid(12)
    res = solve_pmc(np.full((g.n_theta, g.n_phi), 2.0),
                    SolverConfig(degree=12))
    assert res.status == "converged"
    radii = centered_radii(res.field, g)
    assert np.max(np.abs(radii - 1.0)) < 1e-7
    assert np.linalg.norm(res.affine.b) < 1e-8


def test_solve_constant_four_gives_half_sphere():
    g = SphericalGrid(12)
    res = solve_pmc(np.full((g.n_theta, g.n_phi), 4.0),
                    SolverConfig(degree=12))
    assert res.status == "converged"
    radii = centered_radii(res.field, g)
    assert np.max(np.abs(radii - 0.5)) < 1e-7
    assert np.linalg.norm(res.affine.b) < 1e-8


def test_solve_h_two_plus_x3_exact_family():
    """H = 2 + x3 balances to the constant 3 with b = (0,0,-1): the
    radius-2/3 sphere, an exact closed-form solution family."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + g.xyz[2], SolverConfig(degree=12))
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
    into stages by each stage's logged Gauss-Newton count."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=12))
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


def test_direct_stage_step_count():
    """The first stage is the target itself (ds = 1): H = 2 + 0.5 x3 takes
    at most 6 Gauss-Newton steps (5 measured) in one stage from the round
    sphere, and lands on the radius-0.8 sphere."""
    g = SphericalGrid(12)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=12))
    assert res.status == "converged"
    assert len(res.report["residual_history"]) <= 6
    assert [(e["s"], e["ds"]) for e in res.state.step_log] == [(1.0, 1.0)]
    assert abs(res.report["area"] - 4 * np.pi * 0.64) < 1e-7


def test_halving_fallback_recovers(monkeypatch):
    """With 4 Gauss-Newton steps per stage, H = 2 + 0.5 x3 at L = 8 fails
    its stages at ds = 1 and 0.5; each restarts from the round sphere, and
    stages of ds = 0.25 then reach s = 1 on the solution of the unpatched
    solve."""
    g = SphericalGrid(8)
    H = 2.0 + 0.5 * g.xyz[2]
    direct = solve_pmc(H, SolverConfig(degree=8))
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 4)
    res = solve_pmc(H, SolverConfig(degree=8))
    assert direct.status == res.status == "converged"
    stages = [(e["s"], e["ds"], e["converged"]) for e in res.report["step_log"]]
    assert stages[:2] == [(1.0, 1.0, False), (0.5, 0.5, False)]
    assert stages[2:] == [(s, 0.25, True) for s in (0.25, 0.5, 0.75, 1.0)]
    assert np.max(np.abs(res.field.coeffs - direct.field.coeffs)) < 1e-8


def test_gauge_invariance_two_seeds():
    """Same target from different noise seeds: identical gauge-invariant
    scalars (area, int |A|^2, H deciles)."""
    g = SphericalGrid(16)
    H = 2.0 + 0.1 * g.xyz[2] + 0.05 * (g.xyz[0] ** 2 - g.xyz[1] ** 2)
    outs = []
    for seed in (1, 2):
        cfg = SolverConfig(degree=16, noise_amplitude=1e-2, noise_seed=seed)
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
    res_a = solve_pmc(2.0 + g.xyz[2], SolverConfig(degree=12))
    res_b = solve_pmc(np.full((g.n_theta, g.n_phi), 3.0),
                      SolverConfig(degree=12))
    assert res_a.status == res_b.status == "converged"
    (a1, i1, d1) = invariant_scalars(res_a.field, g)
    (a2, i2, d2) = invariant_scalars(res_b.field, g)
    assert abs(a1 - a2) < 1e-6 and abs(i1 - i2) < 1e-6
    assert np.max(np.abs(d1 - d2)) < 1e-6
    ell_diff = res_a.affine.evaluate(g) - res_b.affine.evaluate(g)
    m = 1.0 - g.xyz[2]
    assert np.max(np.abs(ell_diff - m)) < 1e-7


def one_step_stages(monkeypatch):
    """One Gauss-Newton step per stage or polish, and a continuation that
    stalls once its step in s falls below 0.6."""
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(solver, "MIN_STEP", 0.6)


def test_stall_reports_partial_state(monkeypatch):
    one_step_stages(monkeypatch)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.9 * g.xyz[2], SolverConfig(degree=8))
    assert res.status == "stalled"
    assert res.report["status"] == "stalled"
    assert "stall_diagnostics" in res.report
    # the one-iteration stage at ds = 1 fails, and ds = 0.5 is below MIN_STEP
    assert res.report["stall_reason"] == "min_step"


def test_stall_report_scans_branches_once(monkeypatch):
    """A stall at a conformal iterate is reported by one verify: one branch
    scan and one conformality residual fill the report, and the stall
    diagnostics copy neither branch list."""
    from pmcsphere import geometry

    scans = _count_calls(monkeypatch, geometry, "detect_branch_points")
    conformality = _count_calls(monkeypatch, geometry, "conformality_residual")
    one_step_stages(monkeypatch)
    g = SphericalGrid(8)
    res = solve_pmc(2.0 + 0.9 * g.xyz[2], SolverConfig(degree=8))
    rep = res.report
    assert res.status == "stalled" and rep["conformality_sup"] <= 1e-6
    assert scans == conformality == {None: 1}
    assert rep["unresolved_singular_points"] == [] and rep["branch_points"] == []
    assert set(rep["stall_diagnostics"]) == {"top_degree_norms", "suggested_degree"}


def test_verify_and_solve_report_evaluate_conformality_once(monkeypatch):
    """A verify and a converged solve's report each evaluate the home-chart
    conformality residual once: the gate, the branch scan, mc_residual and
    conformality_l2 read ImmersionField.conformality.  A converged report
    carries the scan's unresolved_singular_points, as verify does."""
    from pmcsphere import geometry

    conformality = _count_calls(monkeypatch, geometry, "conformality_residual")
    scans = _count_calls(monkeypatch, geometry, "detect_branch_points")
    g = SphericalGrid(8)
    geometry.verify(ImmersionField(analyze(g.xyz, g), g))
    assert conformality == scans == {None: 1}
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=8))
    assert res.status == "converged"
    assert conformality == scans == {None: 2}
    assert res.report["unresolved_singular_points"] == []
    assert res.report["mc_l2"] is not None


def test_stall_report_serializable(monkeypatch):
    """A stall at a non-conformal iterate reports the mean-curvature
    residual as null with its reason, and the report serializes."""
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
    g = SphericalGrid(8)
    config = SolverConfig(degree=8, tol=0.2, noise_amplitude=0.05)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], config)
    rep = res.report
    assert res.status == "stalled"
    # the loose stage accepts one step from the noisy start, and one polish
    # step cannot correct it
    assert [e["converged"] for e in rep["step_log"]] == [True]
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
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=8))
    assert res.status == res.report["status"] == "stalled"
    assert res.report["stall_reason"] == "non_conformal"
    assert all(e["converged"] for e in res.report["step_log"])


@pytest.mark.parametrize("L", [8, 12, 16, 24])
def test_ladder_schedule(L):
    """A solve above COARSEST_DEGREE logs its degree-12 guess and its own
    stages; at or below it, its own stages only."""
    g = SphericalGrid(L)
    res = solve_pmc(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=L))
    assert res.status == "converged"
    degrees = {8: {8}, 12: {12}, 16: {12, 16}, 24: {12, 24}}[L]
    assert {e["degree"] for e in res.report["step_log"]} == degrees


def _solve_counting_steps(H, config):
    """solve_pmc, with the degree of every Gauss-Newton step recorded."""
    step, degrees = solver.gauge_projected_step, []

    def counted(state, H_values, eta):
        degrees.append(state.ws.L)
        return step(state, H_values, eta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "gauge_projected_step", counted)
        return solve_pmc(H, config), degrees


@pytest.fixture(scope="module")
def ladder_vs_direct():
    """L = 16 solves of acceptance target 103 (eps = 0.1) and of 2 + x3,
    seeded by the degree-12 guess (the ladder) and by the single-degree
    path."""
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
    state = ContinuationState.at(1.0, field.coeffs, np.zeros(3),
                                 np.full(_workspace(field.degree).n_nodes, 2.0))
    return np.linalg.norm(_area_center(state)[0])


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
    """The single-degree path takes 4 Gauss-Newton steps at L = 16 on
    target 103; seeded by the degree-12 guess, the solve takes at most 1
    there, after the degree-12 steps, in one L = 16 stage at s = 1."""
    _, ladder, degrees, _ = ladder_vs_direct["103"]
    assert degrees.count(16) <= 1
    assert degrees == sorted(degrees) and set(degrees) == {12, 16}
    log = ladder.report["step_log"]
    assert sum(e["newton_iters"] for e in log if e["degree"] == 12) == degrees.count(12)
    assert [(e["s"], e["ds"]) for e in log if e["degree"] == 16] == [(1.0, 1.0)]


def test_polish_centers_without_stall(ladder_vs_direct):
    """A state that meets tol / 2 but is off center by more than CENTER_TOL
    (a converged solve composed with a boost of |v| = 1e-9) is polished to
    a converged, centered state."""
    H, ladder, _, _ = ladder_vs_direct["103"]
    g = SphericalGrid(16)
    v = 1e-9 * np.array([0.6, -0.48, 0.64])
    boosted = _mobius_reparametrize(ladder.field, g, g, v, np.eye(3)).coeffs
    coeffs = boosted
    b = ladder.affine.b
    state = ContinuationState.at(1.0, coeffs, b, H)
    config = SolverConfig(degree=16)
    assert state.residual_norm <= 0.5 * config.tol
    assert _center_norm(HarmonicField(coeffs)) > CENTER_TOL
    polished, reason = solver._newton_to_tol(state, H, 0.5 * config.tol, center=True)
    assert reason is None
    assert len(polished.newton_log) >= 1
    assert polished.residual_norm <= 0.5 * config.tol
    assert _center_norm(HarmonicField(polished.coeffs)) <= CENTER_TOL


def test_bad_coarse_rung_is_harmless(ladder_vs_direct, monkeypatch):
    """At COARSEST_DEGREE = 8 the degree-8 truncation floor of target 103 is
    above the stage tolerance, so the coarse solve fails.  Its last iterate
    still starts the L = 16 stage at s = 1, which takes at most 2 steps (1
    measured; 4 from the round sphere) to the same solution."""
    H, _, _, direct = ladder_vs_direct["103"]
    monkeypatch.setattr(solver, "COARSEST_DEGREE", 8)
    res, degrees = _solve_counting_steps(H, SolverConfig(degree=16))
    assert res.status == "converged"
    log = [(e["degree"], e["s"], e["ds"], e["converged"]) for e in res.report["step_log"]]
    assert log == [(8, 1.0, 1.0, False), (16, 1.0, 1.0, True)]
    assert degrees.count(16) <= 2
    assert np.max(np.abs(res.field.coeffs - direct.field.coeffs)) < 1e-8
    assert np.max(np.abs(res.affine.b - direct.affine.b)) < 1e-8


def test_failed_guess_seeds_the_stage(monkeypatch):
    """With 4 Gauss-Newton steps per stage, the degree-12 guess for
    H = 2 + 0.5 x3 fails, and the L = 16 stage at s = 1 from its last
    iterate converges in at most 2 steps (1 measured), with no halving."""
    g = SphericalGrid(16)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 4)
    res, degrees = _solve_counting_steps(2.0 + 0.5 * g.xyz[2], SolverConfig(degree=16))
    assert res.status == "converged"
    log = [(e["degree"], e["s"], e["ds"], e["converged"]) for e in res.report["step_log"]]
    assert log == [(12, 1.0, 1.0, False), (16, 1.0, 1.0, True)]
    assert degrees.count(16) <= 2
    assert abs(res.report["area"] - 4 * np.pi * 0.64) < 1e-7


def test_failed_stage_from_guess_halves_from_round_sphere(monkeypatch):
    """With 2 Gauss-Newton steps per stage, the stage from the failed guess
    fails too, and the next stage is (s 0.5, ds 0.5) from the exact round
    sphere, whose residual is that of the round sphere against H_0.5."""
    g = SphericalGrid(16)
    H = 2.0 + 0.5 * g.xyz[2]
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
    starts = []
    stage = solver._stage

    def recorded(trial, H_vals, ds, tol):
        starts.append(trial.residual_norm)
        return stage(trial, H_vals, ds, tol)

    monkeypatch.setattr(solver, "_stage", recorded)
    res = solve_pmc(H, SolverConfig(degree=16))
    log = [(e["degree"], e["s"], e["ds"], e["converged"]) for e in res.report["step_log"]]
    assert log[:2] == [(12, 1.0, 1.0, False), (16, 1.0, 1.0, False)]
    assert log[2][:3] == (16, 0.5, 0.5)
    round_half = ContinuationState.at(0.5, _round_start(16), np.zeros(3),
                                      solver._homotopy(0.5, H))
    assert starts[2] == round_half.residual_norm


def test_hard_target_seeded_by_failed_guess():
    """Target 103 at eps = 1.5, L = 32: the degree-12 guess fails, the
    L = 32 stage from it takes at most 2 Gauss-Newton steps (5 from the
    round sphere), and b and the area agree with the single-degree solve
    within 1e-8."""
    g = SphericalGrid(32)
    H = acceptance_target(g, 103, 1.5)
    res, degrees = _solve_counting_steps(H, SolverConfig(degree=32))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "COARSEST_DEGREE", 32)
        direct = solve_pmc(H, SolverConfig(degree=32))
    assert res.status == direct.status == "converged"
    assert [(e["degree"], e["converged"]) for e in res.report["step_log"]] == [
        (12, False), (32, True)]
    assert degrees.count(32) <= 2
    assert np.max(np.abs(res.affine.b - direct.affine.b)) < 1e-8
    assert abs(res.report["area"] - direct.report["area"]) < 1e-8 * direct.report["area"]


def test_nonpositive_truncation_skips_its_rung(monkeypatch):
    """A positive node-valued L = 16 target of degree 12 whose values on the
    degree-12 grid dip below zero is solved at L = 16 only.  H = 1 - 1.01 k,
    k the normalized degree-12 reproducing kernel at an L = 12 node: its
    coefficient norm above degree 12 is rounding, so the tail rule keeps
    the coarse guess, and the positivity rule skips it."""
    g, coarse = SphericalGrid(16), SphericalGrid(12)
    x0 = coarse.xyz[:, 6, 5]
    kernel = (2.0 * np.arange(13) + 1.0) / (4.0 * np.pi)
    k = (np.polynomial.legendre.legval(np.einsum("ctp,c->tp", g.xyz, x0), kernel)
         / np.polynomial.legendre.legval(1.0, kernel))
    H = 1.0 - 1.01 * k
    config = SolverConfig(degree=16)
    assert np.min(H) > 0
    assert np.linalg.norm(analyze(H, g).coeffs[:, 13:]) <= config.tol
    assert np.min(synthesize(analyze(H, g).truncated(12), coarse)) < 0
    one_step_stages(monkeypatch)
    res = solve_pmc(H, config)
    assert {e["degree"] for e in res.report["step_log"]} == {16}


def test_target_unresolved_at_degree_12_skips_its_rung(monkeypatch):
    """A target whose coefficient norm above degree 12 exceeds tol is solved
    at L = 16 only; one whose norm there is below tol keeps the degree-12
    guess."""
    one_step_stages(monkeypatch)
    config = SolverConfig(degree=16)
    for tail, degrees in ((1e-6, {16}), (1e-10, {12, 16})):
        c = np.zeros((1, 17, 33))
        c[0, 0, 16] = 2.0 * np.sqrt(4.0 * np.pi)
        c[0, 14, 16] = tail
        res = solve_pmc(HarmonicField(c), config)
        assert {e["degree"] for e in res.report["step_log"]} == degrees


def test_newton_log_one_record_per_step(ladder_vs_direct):
    """report["newton_log"] has one record per accepted Gauss-Newton step
    (as many as residual_history), in step order, its conformality and
    mean-curvature block norms combine to the residual, its forcing term
    lies in [FORCING_MIN, FORCING_MAX], and the L = 16 solve's projected-CG
    steps take 1..15 iterations each."""
    _, ladder, degrees, _ = ladder_vs_direct["103"]
    log = ladder.report["newton_log"]
    assert len(log) == len(ladder.report["residual_history"]) == len(degrees)
    assert [e["degree"] for e in log] == degrees
    assert [e["residual"] for e in log] == ladder.report["residual_history"]
    for e in log:
        assert set(e) == {"degree", "residual", "residual_conformality", "residual_mc",
                          "alpha", "halvings", "linear_iters", "forcing"}
        assert solver.FORCING_MIN <= e["forcing"] <= solver.FORCING_MAX
        blocks = np.hypot(e["residual_conformality"], e["residual_mc"])
        assert abs(blocks - e["residual"]) <= 1e-15 * e["residual"]
        assert e["alpha"] == 0.5 ** e["halvings"]
        assert 1 <= e["linear_iters"] <= 15
    assert json.loads(dumps(ladder.report))["newton_log"] == log


def _projected_rho(lin, basis, g, ws, x):
    """The projected residual of the KKT update x in the preconditioner's
    norm, as projected CG measures it: r = J^T J x + g stripped of its
    range-of-G part, then r . P^-1 r."""
    pre, G = ws.preconditioner, basis.matrix
    PG = pre.solve(G)
    r = _vjp(lin, _jvp(lin, x, ws), ws) + g
    r = r - G @ np.linalg.solve(G.T @ PG, PG.T @ r)
    return r @ pre.solve(r)


def test_projected_cg_stops_at_each_steps_forcing_term():
    """Every step of the L = 16 solve of target 103 (eps = 0.1) ran projected
    CG at its record's forcing term: re-run from the step's state at that
    eta, CG takes the record's iteration count and leaves a projected
    residual of at most eta times the one at its particular solution."""
    g = SphericalGrid(16)
    step, calls = solver.gauge_projected_step, []

    def recorded(state, H_values, eta):
        calls.append((state, eta))
        return step(state, H_values, eta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "gauge_projected_step", recorded)
        res = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=16))
    log = res.report["newton_log"]
    assert res.status == "converged" and len(calls) == len(log) >= 4
    for (state, eta), e in zip(calls, log):
        assert e["forcing"] == eta
        ws, lin, basis = state.ws, _linearization(state), gauge_basis(state)
        g_vec = _vjp(lin, state.residual, ws)
        delta, iters = _projected_cg(lin, basis, g_vec, ws, eta)
        assert iters == e["linear_iters"]
        PG = ws.preconditioner.solve(basis.matrix)
        x0 = PG @ np.linalg.solve(basis.matrix.T @ PG, basis.rhs)
        rel = np.sqrt(_projected_rho(lin, basis, g_vec, ws, delta)
                      / _projected_rho(lin, basis, g_vec, ws, x0))
        assert rel <= eta


@pytest.mark.parametrize("L", [24, 48, 96])
def test_final_step_cg_count_does_not_grow_with_degree(L):
    """On target 103 (eps = 0.1) the solve takes 5 Gauss-Newton steps at
    L = 24, 48 and 96, and its final step at most 15 projected-CG
    iterations: the preconditioner is exact off the gauge directions and
    below the top multiplet at every degree."""
    res = solve_pmc(acceptance_target(SphericalGrid(L), 103, 0.1), SolverConfig(degree=L))
    log = res.report["newton_log"]
    assert res.status == "converged" and len(log) == 5
    assert log[-1]["linear_iters"] <= 15


def test_forcing_terms_cut_baseline_cg():
    """Target 103 (eps = 0.1) at L = 24 takes 5 Gauss-Newton steps and at
    most 20 projected-CG iterations in all: 16 measured with each step
    stopped at its forcing term, 41 with every step solved to 1e-10."""
    res = solve_pmc(acceptance_target(SphericalGrid(24), 103, 0.1), SolverConfig(degree=24))
    log = res.report["newton_log"]
    assert res.status == "converged" and len(log) == 5
    assert sum(e["linear_iters"] for e in log) <= 20


def test_truncation_floor_named():
    """Target 103 (eps = 0.1) at L = 12 stalls in the line search at a
    conformal iterate with its top degrees above tol / 2 and no branch
    point: the stall reads "truncation_floor" and suggests a degree above
    12."""
    g = SphericalGrid(12)
    res = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=12))
    rep = res.report
    assert res.status == "stalled"
    assert rep["stall_reason"] == "truncation_floor"
    assert rep["conformality_sup"] <= 1e-6
    assert rep["branch_points"] == [] and rep["unresolved_singular_points"] == []
    diag = rep["stall_diagnostics"]
    top = diag["top_degree_norms"]
    assert len(top) == 3 and np.linalg.norm(top) > 0.5 * SolverConfig().tol
    assert diag["suggested_degree"] > 12
    fine = SphericalGrid(diag["suggested_degree"])
    res = solve_pmc(acceptance_target(fine, 103, 0.1),
                    SolverConfig(degree=diag["suggested_degree"]))
    assert res.status == "converged"


def test_resolved_branch_point_is_reported_and_blocks_truncation_floor(monkeypatch):
    """With the branch scan stubbed to find one resolved branch point, the
    L = 12 stall of target 103 (eps = 0.1) reports the point's entry and a
    null Codazzi norm with its reason, and stays "line_search_exhausted":
    a stall near a branch point is not read as a truncation floor."""
    from pmcsphere import geometry
    from pmcsphere.grid import ChartPoint

    G = np.array([1.0, 1j, 0.0])
    point = geometry.BranchPoint(ChartPoint("north", 0.25 - 0.5j), 2, G, 0.01)
    monkeypatch.setattr(geometry, "detect_branch_points",
                        lambda F: geometry.BranchScan(points=[point]))
    g = SphericalGrid(12)
    rep = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=12)).report
    assert rep["stall_reason"] == "line_search_exhausted"
    assert rep["branch_points"] == [{
        "chart": "north", "z": [0.25, -0.5], "order": 2,
        "G": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        "null_defect": 0.0, "fit_residual": 0.01,
    }]
    assert rep["unresolved_singular_points"] == []
    assert rep["codazzi_norm"] is None
    assert "1 branch point(s) and 0 unresolved" in rep["codazzi_unavailable"]
    assert json.loads(dumps(rep))["branch_points"] == rep["branch_points"]


def test_workspace_holds_no_dense_tables():
    """After an L = 16 solve the degree-16 workspace holds no
    n_nodes x n_modes array: the step is matrix-free."""
    g = SphericalGrid(16)
    res = solve_pmc(acceptance_target(g, 103, 0.1), SolverConfig(degree=16))
    assert 16 in {e["degree"] for e in res.report["newton_log"]}
    ws = _workspace(16)
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(ws.preconditioner).values() if isinstance(v, np.ndarray)]
    assert arrays
    big = ws.n_nodes * ws.n_modes
    assert all(a.size < big for a in arrays)


@pytest.mark.parametrize("L", [16, 48, 96])
def test_step_bytes_bounds_traced_first_step(L):
    """The memory model behind the solve and verify refusal exceeds the
    traced allocation peak of building the degree's workspace (its grid's
    Legendre table included) and taking a first Gauss-Newton step (the step
    that also builds the preconditioner) at L = 16, 48 and 96."""
    H = acceptance_target(SphericalGrid(L), 103, 0.1)
    _workspace.cache_clear()
    tracemalloc.start()
    try:
        coeffs = _round_start(L, SolverConfig(degree=L))
        state = ContinuationState.at(1.0, coeffs, np.zeros(3), H)
        gauge_projected_step(state, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _step_bytes(L)


def test_repeated_solves_keep_memory_flat():
    """Five L = 12 solves in one process: the traced size after the fifth
    is within 16 KB of the size after the first, so no solve (or state kept
    with its evaluation) holds on to an earlier one's arrays."""
    g = SphericalGrid(12)
    H = 2.0 + 0.1 * g.xyz[2] + 0.05 * (g.xyz[0] ** 2 - g.xyz[1] ** 2)
    sizes = []
    tracemalloc.start()
    try:
        for _ in range(5):
            assert solve_pmc(H, SolverConfig(degree=12)).status == "converged"
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[-1] - sizes[0] < 16 * 1024


def test_degree_sweep_retains_one_solve():
    """Solves of target 103 (eps = 0.1) at L = 32, 40 and 48 in one process
    retain, after gc, within 2 % of the traced size a lone L = 48 solve
    retains from an empty cache (2.6 MB): only the workspaces of the two
    most recent degrees stay.  A cache that kept every degree would retain
    5.3 MB."""
    targets = {L: acceptance_target(SphericalGrid(L), 103, 0.1) for L in (32, 40, 48)}

    def retained(degrees):
        _workspace.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for L in degrees:
                assert solve_pmc(targets[L], SolverConfig(degree=L)).status == "converged"
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    lone = retained([48])
    assert retained([32, 40, 48]) < 1.02 * lone


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
