"""
Gauge-fixed Gauss-Newton continuation for prescribed mean curvature.

Solves for a conformal immersion F: S^2 -> R^3 and an affine parameter b such
that the mean curvature of F equals H_target + ell_b, following the straight
homotopy H_s = (1-s) 2 + s H_target from the round sphere with a secant
predictor and an adaptive step in s, coarse to fine: the path is followed at
degree COARSEST_DEGREE and finished at the requested degree.

The residual is 5 * n_nodes pointwise rows, quadrature-weighted so that the
Euclidean norm is an L2 norm: conformality q1 = g_tt - g_pp/sin^2 and
q2 = 2 g_tp / sin (2 rows/node, geometry.conformality_defect, the formula
behind every conformality residual), and the mean-curvature residual
(1/4)(Lap_round F + (H + ell_b) n/sin), n = F_t x F_p (3 rows/node,
geometry.mc_residual_global, the chart residual divided by the positive chart
factor).  Each iterate is evaluated once (ContinuationState.at): one jet
synthesis of (F_t, F_p, Lap F) and geometry.first_order_forms, the one place
that forms g and n, give both blocks, and the state keeps F_t, F_p, n, |n|
and N, from which the Jacobian and the area center are read with no further
synthesis.  The base point has no rows: each accepted iterate is re-based by
an ambient rigid motion (_rebase) so that F(p0) = 0, the normal at the north
pole p0 is e3 and the frame there lies along e1.

The Jacobian is exact and never formed: J v is one jet synthesis of v times
pointwise coefficients (_linearization), J^T w the adjoint synthesis; each
costs O(L^3).  Updates solve damped least-squares normal equations with a
halving line search, under 9 linear constraints: orthogonal to the 3
translations and 3 ambient rotations, and cancelling the linearized area
center, grad c . delta = -c.  The solver is projected conjugate gradients in
the constraints' null space (_projected_cg), preconditioned by the round
sphere's normal matrix A0 split into its 2L + 3 charge sectors
(_SectorPreconditioner, O(L^4) once per degree), exact off the gauge: a
step takes at most 11 iterations at every L from 16 to 128 on target 103
(eps = 0.1).  The base damping is lam0 = 1e-12 trace(A0) / n.  Each
accepted step appends a newton_log record: the residual and its conformality
and mean-curvature block norms, the step length, the damping and the CG
iteration count.

Everything a step needs at one degree (grid, packing, row weights and the
sector preconditioner) is that degree's _Workspace, a pure function of L.
The functions that take a state find it from the state's coefficients
(ContinuationState.ws): ContinuationState.at(s, coeffs, b, H_values),
gauge_basis(state) and gauge_projected_step(state, H_values) take no grid.
A process keeps the workspaces of its two most recent degrees, the two rungs
of a solve; a degree solved again after eviction builds its workspace again.

Solutions come in a 3-parameter family (the affine indeterminacy of the
curvature class, realized as boost reparametrizations).  The centering rows
keep every iterate near the Mobius-centered member (area center
c = int p dV / int dV = 0), and the final polish runs until |c| <= CENTER_TOL,
so results do not depend on the starting noise or the path.  |b| is smoothed
as sqrt(|b|^2 + eps^2) - eps (eps = 1e-12) inside the solve; the returned
AffineFunction uses the exact norm.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .affine import AffineFunction
from .errors import ConfigurationError, ConformalityError, DataError
from .geometry import (
    CONFORMALITY_TOL,
    ImmersionField,
    branch_scan_report,
    conformality_defect,
    conformality_residual,
    detect_branch_points,
    first_order_forms,
    fundamental_forms,
    jet_derivatives,
    mc_residual,
    mc_residual_global,
    metric_derivatives,
    obstruction_vector,
    verify,
)
from .grid import (
    FOUR_PI,
    HarmonicField,
    SphericalGrid,
    analyze,
    chart_area_factors,
    integrate,
    synthesize,
    synthesize_jet,
    synthesize_jet_adjoint,
)

B_NORM_SMOOTHING = 1e-12
LINE_SEARCH_FACTOR = 0.5    # step-length factor per line-search halving
MAX_HALVINGS = 20
COARSEST_DEGREE = 12        # first rung of the coarse-to-fine degree ladder
CENTER_TOL = 1e-10          # |area center| of a converged solve
KRYLOV_TOL = 1e-10          # relative residual at which projected CG stops
KRYLOV_MAX_ITERS = 100      # projected CG iterations before the damping rises
MAX_NEWTON_ITERS = 30       # Gauss-Newton steps per correction or polish
MIN_STEP = 1.0 / 160.0      # smallest step in s of the final rung before a stall


@dataclass(frozen=True)
class SolverConfig:
    degree: int = 24
    tol: float = 1e-8
    steps: int = 10             # initial step count: the first step in s is 1/steps
    noise_amplitude: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf or self.steps < 1:
            raise ConfigurationError("tol must be finite and > 0, and steps >= 1")


@dataclass
class ContinuationState:
    """An iterate and its one evaluation against the H of its next step."""

    s: float
    coeffs: np.ndarray          # (3, L+1, 2L+1)
    b: np.ndarray               # (3,)
    residual: np.ndarray        # the 5 * n_nodes rows
    evaluation: dict            # ft, fp, h_total = H + ell_b, cross, cross_norm, normal
    step_log: list = dataclass_field(default_factory=list)
    newton_log: list = dataclass_field(default_factory=list)  # one record per step
    last_update: np.ndarray = None  # accepted raw update, before re-basing

    @classmethod
    def at(cls, s, coeffs, b, H_values, **logs):
        """The iterate (s, coeffs, b), evaluated once against node values of
        H: the residual rows, and the evaluation flat over the nodes.  |b| in
        ell_b is smoothed to sqrt(|b|^2 + eps^2) - eps."""
        ws, eps = _workspace(coeffs.shape[1] - 1), B_NORM_SMOOTHING
        grid = ws.grid
        jet = synthesize_jet(HarmonicField(coeffs), grid, which=("ft", "fp", "lap"))
        p = first_order_forms([jet["ft"], jet["fp"]])
        q1, q2 = conformality_defect(p["g"], grid.sin_theta[:, None])
        ell = float(np.sqrt(np.dot(b, b) + eps * eps) - eps) + b @ ws.xyz_flat
        h_total = np.ravel(H_values) + ell
        h_grid = h_total.reshape(grid.n_theta, grid.n_phi)
        rmc = mc_residual_global(jet["lap"], p["cross"], h_grid, grid).reshape(3, -1)
        rows = [q1.ravel() * ws.conf_row_w, q2.ravel() * ws.conf_row_w,
                (rmc * ws.mc_row_w).ravel()]
        ev = {k: v.reshape(*v.shape[:-2], -1) for k, v in {**jet, **p}.items()
              if k in ("ft", "fp", "cross", "cross_norm", "normal")}
        return cls(s, coeffs, b, np.concatenate(rows), dict(ev, h_total=h_total), **logs)

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual))

    @property
    def ws(self) -> "_Workspace":
        """The workspace of the iterate's degree, looked up, not held: a
        kept state does not keep an evicted degree's preconditioner."""
        return _workspace(self.coeffs.shape[1] - 1)


@dataclass(frozen=True)
class GaugeBasis:
    """The 9 constraint columns of the KKT step, unit-norm and not
    orthogonalized (the solve needs only their full rank): 3 translations
    and 3 ambient rotations, then the gradients of the 3 area-center
    components.  An update delta obeys matrix.T @ delta = rhs: it is
    orthogonal to the rigid motions and cancels the linearized center."""

    matrix: np.ndarray          # (n_unknowns, 9)
    rhs: np.ndarray             # (9,): 0 on the rigid columns, -c / |grad c|
    center: np.ndarray          # (3,) area center c
    gram_condition: float


@dataclass(frozen=True)
class SolveResult:
    field: HarmonicField
    affine: AffineFunction
    report: dict
    state: ContinuationState
    status: str                 # "converged" | "stalled"
    wall_time: float


class StepFailure(RuntimeError):
    """A Gauss-Newton step could not decrease the residual."""


# ----------------------------------------------------------------------
# workspace: packing, pole weights and the per-degree preconditioner
# ----------------------------------------------------------------------

class _Workspace:
    def __init__(self, L: int):
        self.L = L
        self.grid = grid = SphericalGrid(L)
        self.n_nodes = grid.n_theta * grid.n_phi
        # unknowns are ordered by component, then l = 0..L, m = -l..l;
        # mode i multiplies coeffs[c, mode_l[i], mode_col[i]]
        self.mode_l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        self.mode_col = L + np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
        self.n_modes = self.mode_l.size

        # pole-frame weights: F(p0) from m = 0, (F_u, F_v)(p0) from m = +-1
        ls = np.arange(L + 1)
        self.pole_value_w = np.sqrt((2 * ls + 1) / FOUR_PI)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = -np.sqrt((2 * ls + 1.0) * ls * (ls + 1.0) / (8 * np.pi))
        alpha[0] = 0.0
        self.pole_deriv_w = 2.0 * alpha  # F_u = 2 dF/dtheta at phi = 0

        self.sqrt_w = np.sqrt(grid.w).ravel()
        self.sin_flat = np.repeat(grid.sin_theta, grid.n_phi)
        self.xyz_flat = grid.xyz.reshape(3, -1)
        # home-chart conformal factor mu^{-2}: the row weights below make the
        # Euclidean norm of each block equal to the L2 norm of the
        # stereographic-chart residuals F_z.F_z and mc_residual
        mu2inv = np.repeat(chart_area_factors(grid, "home"), grid.n_phi)
        self.conf_row_w = 0.25 * mu2inv * self.sqrt_w
        self.mc_row_w = mu2inv * self.sqrt_w
        self.n_unknowns = 3 * self.n_modes + 3

    @cached_property
    def sectors(self) -> "_SectorPreconditioner":
        return _SectorPreconditioner(self)

    # -- packing ---------------------------------------------------------

    def pack(self, coeffs: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([coeffs[:, self.mode_l, self.mode_col].ravel(), b])

    def unpack(self, x: np.ndarray):
        coeffs = np.zeros((3, self.L + 1, 2 * self.L + 1))
        coeffs[:, self.mode_l, self.mode_col] = x[:-3].reshape(3, self.n_modes)
        return coeffs, x[-3:].copy()

    # -- pole frame -------------------------------------------------------

    def pole_frame(self, coeffs: np.ndarray):
        L = self.L
        F0 = coeffs[:, :, L] @ self.pole_value_w
        Fu = coeffs[:, :, L + 1] @ self.pole_deriv_w
        Fv = coeffs[:, :, L - 1] @ self.pole_deriv_w
        return F0, Fu, Fv


@lru_cache(maxsize=2)
def _workspace(L: int) -> _Workspace:
    """The workspace of degree L, a pure function of L.  A solve has at most
    two rungs, so the two most recent degrees stay built."""
    return _Workspace(L)


# ----------------------------------------------------------------------
# residual
# ----------------------------------------------------------------------

def residual(F, b, H_target_values, grid: SphericalGrid) -> np.ndarray:
    """Stacked solver residual for an immersion, affine vector and target H:
    the 5 * n_nodes pointwise rows (2 conformality, then 3 mean-curvature
    rows per node).  The base point has no rows; the solver fixes it by
    re-basing each iterate.

    ``F`` may be a 3-component HarmonicField or an ImmersionField.  Raises
    on H_target + ell <= 0 anywhere (outside the solvable regime).
    """
    if isinstance(F, ImmersionField):
        F = F.field
    ws = _workspace(grid.L)
    H_flat = np.asarray(H_target_values, dtype=float).ravel()
    if H_flat.size != ws.n_nodes:
        raise ConfigurationError("H_target values do not match the grid")
    if not np.all(H_flat > 0):
        raise DataError("H_target must be positive everywhere")
    coeffs = F.truncated(grid.L).coeffs if F.degree != grid.L else F.coeffs
    return ContinuationState.at(1.0, coeffs, np.asarray(b, dtype=float), H_flat).residual


# ----------------------------------------------------------------------
# Jacobian (exact, evaluated via the linear jet map)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Linearization:
    """Pointwise coefficients of the Jacobian of the 5 * n_nodes rows of
    ContinuationState.at: for an update (dF, db), row block r is
    sum_c t[r, c] dF_t^c + p[r, c] dF_p^c, plus lap * Lap dF^c on block 2 + c
    and sum_j b[r - 2, j] db_j on blocks 2..4."""

    t: np.ndarray               # (5, 3, n_nodes)
    p: np.ndarray               # (5, 3, n_nodes)
    lap: np.ndarray             # (n_nodes,)
    b: np.ndarray               # (3, 3, n_nodes)


def _linearization(state: ContinuationState) -> _Linearization:
    """The Jacobian's coefficients at the state, read from its evaluation."""
    ev, b, ws = state.evaluation, state.b, state.ws
    ft, fp = ev["ft"], ev["fp"]
    sin = ws.sin_flat
    cw = ws.conf_row_w
    mw = 0.25 * ws.mc_row_w     # row weight times the 1/4 of r_mc
    hw = mw * ev["h_total"] / sin
    # d(F_t x F_p) per unit change of F_t and of F_p along e_c: [c, a, node]
    e = np.eye(3)[:, :, None]
    dn_t = np.cross(e, fp[None], axis=1)
    dn_p = np.cross(ft[None], e, axis=1)
    t = np.stack([2.0 * cw * ft, 2.0 * cw * fp / sin, *(hw * dn_t.transpose(1, 0, 2))])
    p = np.stack([-2.0 * cw * fp / sin**2, 2.0 * cw * ft / sin,
                  *(hw * dn_p.transpose(1, 0, 2))])
    # b columns: d(H + ell_b)/db_j = b_j / sqrt(|b|^2 + eps^2) + x_j
    wn = ev["cross"] / sin
    dell = b[:, None] / np.sqrt(b @ b + B_NORM_SMOOTHING**2) + ws.xyz_flat
    return _Linearization(t=t, p=p, lap=mw, b=mw * wn[:, None] * dell[None])


def _jvp(lin: _Linearization, v, ws) -> np.ndarray:
    """J v from one jet synthesis of the coefficient part of v."""
    coeffs, db = ws.unpack(v)
    jet = synthesize_jet(HarmonicField(coeffs), ws.grid, which=("ft", "fp", "lap"))
    dft, dfp, dlap = (jet[k].reshape(3, -1) for k in ("ft", "fp", "lap"))
    out = np.einsum("rcn,cn->rn", lin.t, dft) + np.einsum("rcn,cn->rn", lin.p, dfp)
    out[2:] += lin.lap * dlap + np.einsum("ajn,j->an", lin.b, db)
    return out.ravel()


def _vjp(lin: _Linearization, w, ws) -> np.ndarray:
    """J^T w from one adjoint jet synthesis."""
    w = w.reshape(5, -1)
    coeffs = synthesize_jet_adjoint({
        "ft": np.einsum("rcn,rn->cn", lin.t, w),
        "fp": np.einsum("rcn,rn->cn", lin.p, w),
        "lap": lin.lap * w[2:],
    }, ws.grid)
    return ws.pack(coeffs, np.einsum("ajn,an->j", lin.b, w[2:]))


# ----------------------------------------------------------------------
# preconditioner: the round sphere's normal matrix in its charge sectors
# ----------------------------------------------------------------------

class _SectorPreconditioner:
    """Block-diagonal approximation P of J^T J from the round sphere.

    The round sphere's normal matrix A0 (H = 2, b = 0) commutes with the
    generator of "ambient rotation about e3 and shift phi -> phi - alpha",
    exactly for the grid's own rotations.  Its eigenvectors, the charge-q
    vectors v_s (x) Q_{l,|k|}(theta) e^{i k phi} with q = k + s (v_{+-1} =
    (e1 +- i e2) / sqrt 2 for F1 +- i F2, v_0 = e3), and b along v_q, split A0
    into 2L + 3 blocks B_q, q = -(L+1)..L+1.  J0 maps a charge-q vector to
    rows that are e^{i q phi} times the rotation R_phi of their phi = 0 values,
    so B_q = n_phi * M_q^H M_q, with M_q the rows of J0 on the phi = 0
    meridian: O(L) rows and columns per sector.  B_{-q} = conj(B_q), so only
    q >= 0 is stored.  Each block is eigendecomposed once per degree.  A0 is
    null on the nine real gauge directions (3 translations, 3 rotations, 3
    boosts), the three lowest eigenvectors of sectors 0 and 1 (-1 mirrors 1).
    Projected CG keeps off them, so solve lifts those six values to the
    smallest other one and applies (B_q + lam)^-1 for the step's damping lam.
    """

    def __init__(self, ws):
        grid, L, nm = ws.grid, ws.L, ws.n_modes
        round_lin = _linearization(ContinuationState.at(
            0.0, analyze(grid.xyz, grid).coeffs, np.zeros(3), np.full(ws.n_nodes, 2.0)))
        meridian = np.arange(grid.n_theta) * grid.n_phi
        t0, p0 = round_lin.t[:, :, meridian], round_lin.p[:, :, meridian]
        lap0, b0 = round_lin.lap[meridian], round_lin.b[:, :, meridian]
        r2 = 1.0 / np.sqrt(2.0)
        spin = {1: np.array([r2, 1j * r2, 0.0]), -1: np.array([r2, -1j * r2, 0.0]),
                0: np.array([0.0, 0.0, 1.0])}

        sectors = []    # per q >= 0: packed indices and weights of U_q, and M_q
        for q in range(L + 2):
            idx, wts, cols = [], [], []
            for s_, v in spin.items():
                k = q - s_
                am = abs(k)
                if am > L:
                    continue
                ls = np.arange(am, L + 1)
                # Q_{l,|k|} e^{ikphi} = (Y_{l,|k|} + i sgn(k) Y_{l,-|k|}) / sqrt 2
                slots = [(0, 1.0)] if k == 0 else [(am, r2), (-am, 1j * np.sign(k) * r2)]
                i, w = np.zeros((ls.size, 4), dtype=int), np.zeros((ls.size, 4), dtype=complex)
                for j, (c, (m, u)) in enumerate(product(np.flatnonzero(v), slots)):
                    i[:, j] = c * nm + ls * ls + ls + m
                    w[:, j] = v[c] * u
                idx.append(i)
                wts.append(w)
                # meridian jet of each column: f_t = dQ, f_p = i k Q, Lap = -l(l+1) Q
                qq, dq = grid._theta_tables[:, am, :, am:]  # [t, l]
                col = (np.einsum("rcn,c,nl->rnl", t0, v, dq)
                       + np.einsum("rcn,c,nl->rnl", p0, v, 1j * k * qq))
                col[2:] += np.einsum("n,c,nl->cnl", lap0, v, -ls * (ls + 1.0) * qq)
                cols.append(col.reshape(5 * grid.n_theta, -1))
            if q <= 1:
                v = spin[q]
                nz = np.flatnonzero(v)
                i, w = np.zeros((1, 4), dtype=int), np.zeros((1, 4), dtype=complex)
                i[0, : nz.size], w[0, : nz.size] = 3 * nm + nz, v[nz]
                idx.append(i)
                wts.append(w)
                col = np.zeros((5, grid.n_theta), dtype=complex)
                col[2:] = np.einsum("ajn,j->an", b0, v)
                cols.append(col.reshape(-1, 1))
            M = np.concatenate(cols, axis=1)
            sectors.append((np.concatenate(idx), np.concatenate(wts),
                            grid.n_phi * (M.conj().T @ M)))

        nq, D = len(sectors), max(len(B) for *_, B in sectors)
        self.index = np.zeros((nq, D, 4), dtype=int)
        self.weight = np.zeros((nq, D, 4), dtype=complex)
        # eigenpairs of each block; padding: infinite values, zero vectors
        self.values = np.full((nq, D), np.inf)
        self.vectors = np.zeros((nq, D, D), dtype=complex)
        # trace(A0) over all 2L + 3 sectors: q and -q share a trace
        traces = [np.trace(B).real for *_, B in sectors]
        self.trace = 2.0 * sum(traces) - traces[0]
        for q, (i, w, B) in enumerate(sectors):
            d = len(B)
            self.index[q, :d], self.weight[q, :d] = i, w
            self.values[q, :d], self.vectors[q, :d, :d] = np.linalg.eigh(B)
        self.lifted = min(self.values[:2, 3:].min(), self.values[2:].min())
        self.spectrum = self.values.copy()      # values stays the raw spectrum
        self.spectrum[:2, :3] = self.lifted
        # P^-1 r = sum_q U_q B_q^-1 U_q^H r = Re(term 0) + 2 Re(sum of terms q > 0)
        self.fold = np.where(np.arange(nq) == 0, 1.0, 2.0)[:, None, None]
        self.n = ws.n_unknowns

    def solve(self, r: np.ndarray, lam: float) -> np.ndarray:
        """(P + lam I)^-1 r for r of shape (n,) or (n, k), gauge values lifted."""
        r2 = r.reshape(self.n, -1)
        z = np.einsum("qdj,qdjk->qdk", self.weight.conj(), r2[self.index])
        # V^H z without a conjugated copy of V
        vz = np.conj(self.vectors.transpose(0, 2, 1) @ np.conj(z))
        y = self.vectors @ (vz / (self.spectrum + lam)[..., None])
        contrib = (np.real(self.weight[..., None] * y[:, :, None, :])
                   * self.fold[..., None]).reshape(-1, r2.shape[1])
        out = np.stack([np.bincount(self.index.ravel(), weights=col, minlength=self.n)
                        for col in contrib.T], axis=1)
        return out.reshape(r.shape)


# ----------------------------------------------------------------------
# gauge basis and projected step
# ----------------------------------------------------------------------

def _area_center(state: ContinuationState):
    """Center c = int p dV / int dV of the induced area measure on the domain
    sphere (dV = |n| / sin dsigma, |n| from the state's evaluation), and
    dc/d|n| at each node (3, n_nodes).  Pointwise: no transform."""
    ws = state.ws
    w = ws.grid.w.ravel() / ws.sin_flat
    area = state.evaluation["cross_norm"]
    total = w @ area
    c = ws.xyz_flat @ (w * area) / total
    return c, (ws.xyz_flat - c[:, None]) * (w / total)


def _center_gradient(state: ContinuationState):
    """The area center c and its exact gradient (3, 3 n_modes) in the packed
    coefficients (c does not depend on b): d|n| = (F_p x N).dF_t +
    (N x F_t).dF_p, so the gradient is one adjoint jet synthesis."""
    c, dc_darea = _area_center(state)
    ws = state.ws
    ft, fp, N = (state.evaluation[k] for k in ("ft", "fp", "normal"))
    # rows (k, a): d c_k through F_t and F_p of component a
    grad = synthesize_jet_adjoint({
        "ft": (dc_darea[:, None] * np.cross(fp, N, axis=0)[None]).reshape(9, -1),
        "fp": (dc_darea[:, None] * np.cross(N, ft, axis=0)[None]).reshape(9, -1),
    }, ws.grid)[:, ws.mode_l, ws.mode_col]                       # (9, n_modes)
    return c, grad.reshape(3, -1)


def gauge_basis(state: ContinuationState) -> GaugeBasis:
    """Translations, ambient rotations and area-center gradients at the
    state's immersion, as unit coefficient-space columns, with the center."""
    ws = state.ws
    G = np.zeros((ws.n_unknowns, 9))
    # translations: a constant shift of one component (its l = 0 mode)
    G[np.arange(3) * ws.n_modes, np.arange(3)] = np.sqrt(FOUR_PI)
    # ambient rotations omega x F about the axes e_k
    modes = ws.pack(state.coeffs, np.zeros(3))[:-3].reshape(3, -1)
    for k, e in enumerate(np.eye(3)):
        G[:-3, 3 + k] = np.cross(e, modes, axis=0).ravel()
    center, dc = _center_gradient(state)
    G[:-3, 6:] = dc.T
    norms = np.linalg.norm(G, axis=0)
    G /= norms
    sv = np.linalg.svd(G, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond >= 1e10:
        raise ConfigurationError(
            f"gauge directions degenerate (condition {cond:.2e})"
        )
    rhs = np.concatenate([np.zeros(6), -center]) / norms
    return GaugeBasis(matrix=G, rhs=rhs, center=center, gram_condition=cond)


def _rebase(coeffs):
    """Ambient rigid motion fixing the base point: after it, F(p0) = 0, the
    normal at p0 is e3 and F_u(p0) points along e1 (p0 the north pole).
    Raises DataError when F_u x F_v vanishes at p0."""
    ws = _workspace(coeffs.shape[1] - 1)
    _, Fu, Fv = ws.pole_frame(coeffs)
    n = np.cross(Fu, Fv)
    nn = np.linalg.norm(n)
    if nn < 1e-14:
        raise DataError("degenerate frame at the base point")
    N = n / nn
    u = Fu / np.linalg.norm(Fu)
    R = np.stack([u, np.cross(N, u), N])
    out = np.einsum("dc,clm->dlm", R, coeffs)
    F0r, _, _ = ws.pole_frame(out)
    out[:, 0, ws.L] -= F0r * np.sqrt(FOUR_PI)
    return out


def _projected_cg(lin, basis, g, lam, ws):
    """Solve the damped, gauge-constrained normal equations
    [J^T J + lam I, G; G^T, 0] [delta; mu] = [-g; rhs] (g = J^T r) without
    forming J: projected preconditioned CG (Gould, Hribar & Nocedal 2001)
    with the constraint preconditioner [P + lam I, G; G^T, 0], P the sector
    blocks of the round sphere (_SectorPreconditioner).

    The particular solution x0 = P^-1 G S^-1 rhs (S = G^T P^-1 G, 9 x 9)
    meets the constraints; CG then runs in their null space, each residual
    projected by P^-1 (I - G S^-1 G^T P^-1) and stripped of its range-of-G
    part.  Each iteration costs one J v and one J^T w.  Returns (delta,
    iterations); delta is None when CG does not reach KRYLOV_TOL within
    KRYLOV_MAX_ITERS iterations."""
    pre, G = ws.sectors, basis.matrix
    PG = pre.solve(G, lam)
    S_inv = np.linalg.inv(G.T @ PG)

    def project(res):
        v = S_inv @ (PG.T @ res)
        return res - G @ v, pre.solve(res, lam) - PG @ v

    def normal(v):
        return _vjp(lin, _jvp(lin, v, ws), ws) + lam * v

    x = PG @ (S_inv @ basis.rhs)
    res, y = project(normal(x) + g)
    rho = res @ y
    stop = KRYLOV_TOL**2 * rho
    p = -y
    for it in range(KRYLOV_MAX_ITERS):
        if rho <= stop:
            return x, it
        Ap = normal(p)
        curvature = p @ Ap
        if curvature <= 0.0:
            return None, it
        alpha = rho / curvature
        x += alpha * p
        res, y = project(res + alpha * Ap)
        rho, rho_old = res @ y, rho
        p = -y + (rho / rho_old) * p
    return (x if rho <= stop else None), KRYLOV_MAX_ITERS


def gauge_projected_step(state: ContinuationState, H_values) -> ContinuationState:
    """One damped Gauss-Newton update under the gauge constraints.

    Solves the KKT system of the damped normal equations subject to
    G^T delta = rhs (gauge_basis: no rigid motion, and the linearized area
    center cancelled) matrix-free by projected CG, then line-searches with
    halving factor LINE_SEARCH_FACTOR.  The damping starts at
    1e-12 trace(A0) / n and rises after a failed linear solve or line
    search; raises StepFailure when no decrease is found.  The state must
    have been evaluated against H_values; the Jacobian and the gauge columns
    read its evaluation, and each trial point is evaluated once.
    Appends one record to the state's newton_log.
    """
    ws = state.ws
    n0 = state.residual_norm
    lin = _linearization(state)
    basis = gauge_basis(state)
    g = _vjp(lin, state.residual, ws)
    lam = 1e-12 * ws.sectors.trace / ws.n_unknowns

    x0 = ws.pack(state.coeffs, state.b)
    linear_iters = 0
    for attempt in range(4):
        delta, iters = _projected_cg(lin, basis, g, lam, ws)
        linear_iters += iters
        if delta is not None:
            alpha = 1.0
            for halvings in range(MAX_HALVINGS + 1):
                coeffs_try, b_try = ws.unpack(x0 + alpha * delta)
                if ContinuationState.at(state.s, coeffs_try, b_try,
                                        H_values).residual_norm < n0:
                    new = ContinuationState.at(
                        state.s, _rebase(coeffs_try), b_try, H_values,
                        step_log=state.step_log, newton_log=state.newton_log,
                        last_update=alpha * delta,
                    )
                    n_conf = 2 * ws.n_nodes
                    new.newton_log.append({
                        "degree": ws.L, "residual": new.residual_norm,
                        "residual_conformality": float(np.linalg.norm(new.residual[:n_conf])),
                        "residual_mc": float(np.linalg.norm(new.residual[n_conf:])),
                        "alpha": alpha, "halvings": halvings, "damping_retries": attempt,
                        "damping": float(lam), "linear_solver": "krylov",
                        "linear_iters": linear_iters,
                    })
                    return new
                alpha *= LINE_SEARCH_FACTOR
        lam *= 1e4
    raise StepFailure(f"no residual decrease from {n0:.3e}")


# ----------------------------------------------------------------------
# continuation driver
# ----------------------------------------------------------------------

def _round_start(L, config):
    grid = _workspace(L).grid
    coeffs = analyze(grid.xyz, grid).coeffs.copy()
    if config.noise_amplitude > 0:
        rng = np.random.default_rng(config.noise_seed)
        valid = np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None]
        noise = rng.uniform(-1, 1, size=coeffs.shape) * config.noise_amplitude
        coeffs = coeffs + noise * valid
    return _rebase(coeffs)


def _newton_to_tol(state, H_values, target, center=False):
    """Gauss-Newton until the residual norm is at most ``target`` and, with
    ``center``, the area center is at most CENTER_TOL from 0.

    Returns (state, None) on success, else the last accepted state and the
    stall reason: "line_search_exhausted" or "iteration_cap".
    """
    def met():
        return state.residual_norm <= target and not (
            center and np.linalg.norm(_area_center(state)[0]) > CENTER_TOL
        )

    for _ in range(MAX_NEWTON_ITERS):
        if met():
            return state, None
        try:
            state = gauge_projected_step(state, H_values)
        except StepFailure:
            return state, "line_search_exhausted"
    return state, None if met() else "iteration_cap"


def _homotopy(s, H_vals):
    return (1.0 - s) * 2.0 + s * H_vals


def _ladder(L: int) -> list:
    """Degrees of the coarse-to-fine solve: [COARSEST_DEGREE, L], or [L]
    when L <= COARSEST_DEGREE."""
    return [COARSEST_DEGREE, L] if L > COARSEST_DEGREE else [L]


def _rung_start(state, H_vals, L, config):
    """The first rung starts from the round sphere at s = 0; a later rung
    starts from the previous rung's state, zero-padded to degree L."""
    if state is None:
        coeffs, b, s = _round_start(L, config), np.zeros(3), 0.0
        logs = {}
    else:
        coeffs = _rebase(HarmonicField(state.coeffs).truncated(L).coeffs)
        b, s = state.b.copy(), state.s
        logs = dict(step_log=state.step_log, newton_log=state.newton_log)
    return ContinuationState.at(s, coeffs, b, _homotopy(s, H_vals), **logs)


def _continue(state, H_vals, config, final):
    """Predictor-corrector continuation on one rung, from state.s to s = 1.

    Corrects ``state`` at its own s (logged with ds = 0), then advances s:
    each stage starts from the secant extrapolation of the last two accepted
    states and is corrected by Gauss-Newton to 10 tol.  The first step is
    1 / config.steps; it doubles after a stage that converged in at most two
    iterations.  On the final rung a failed stage halves the step, and the
    solve stalls once it falls below MIN_STEP; on a coarse rung a
    failed stage ends the rung.  Returns (last accepted state, stall reason
    or None).
    """
    ws = state.ws

    def correct(trial, ds):
        n_before = len(trial.newton_log)
        trial, reason = _newton_to_tol(trial, _homotopy(trial.s, H_vals), 10.0 * config.tol)
        iters = len(trial.newton_log) - n_before
        trial.step_log.append(
            {"degree": ws.L, "s": trial.s, "ds": ds, "converged": reason is None,
             "residual": trial.residual_norm, "newton_iters": iters}
        )
        return trial, reason, iters

    state, reason, _ = correct(state, 0.0)
    if reason is not None:
        return state, reason
    s, ds = state.s, 1.0 / config.steps
    x = ws.pack(state.coeffs, state.b)
    previous = None  # (s, x) of the accepted state before (s, x)
    while s < 1.0 - 1e-14:
        s_next = min(1.0, s + ds)
        ds = s_next - s
        if previous is None:
            coeffs, b = state.coeffs.copy(), state.b.copy()
        else:
            # secant predictor through the last two accepted states
            s_prev, x_prev = previous
            coeffs, b = ws.unpack(x + ds / (s - s_prev) * (x - x_prev))
            coeffs = _rebase(coeffs)
        trial = ContinuationState.at(s_next, coeffs, b, _homotopy(s_next, H_vals),
                                     step_log=state.step_log,
                                     newton_log=state.newton_log)
        trial, reason, iters = correct(trial, ds)
        if reason is None:
            previous = (s, x)
            state, s = trial, s_next
            x = ws.pack(state.coeffs, state.b)
            if iters <= 2:
                ds *= 2.0
            continue
        if not final:
            return state, reason
        ds /= 2.0
        if ds < MIN_STEP:
            return state, "min_step"
    return state, None


def _step_bytes(L: int) -> int:
    """Bytes a Gauss-Newton step holds at degree L, modeled on its largest
    arrays: the sector preconditioner's complex blocks, held twice while the
    first step at a degree inverts them, and about 120 arrays the length of
    the node count or of the unknowns (the linearization, the jets, the
    gauge columns, their preconditioned copies and the CG vectors).  The
    model exceeds the traced peak of a first step from L = 16 up (by 25 %
    at L = 16 and 57 % at L = 48)."""
    n_nodes = 2 * (L + 1) ** 2
    n_unknowns = 3 * (L + 1) ** 2 + 3
    return 2 * 16 * (L + 2) * (3 * L + 3) ** 2 + 8 * 120 * (n_nodes + n_unknowns)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def solve_pmc(H_target, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Continuation solve of the prescribed mean curvature problem.

    ``H_target`` is a scalar HarmonicField (degree <= config.degree) or node
    values on the solver grid; it must be positive everywhere.  Returns the
    immersion, the normalized affine function ell, and a verification
    report.  On a stall the partial state is returned with status "stalled",
    the report's "stall_reason" and branch diagnostics.

    The homotopy is followed coarse to fine over the degrees of
    ``_ladder(config.degree)`` (``_continue`` on each).  A coarse rung
    solves the target truncated to its degree.  It is skipped when the
    target's coefficient norm above that degree exceeds config.tol or the
    truncation is not positive; else its last accepted state, zero-padded,
    starts the final rung at the same s.  Only config.degree is polished, to
    tol / 2 and an area center of at most CENTER_TOL.

    Raises ConfigurationError, before any work, when one Gauss-Newton step
    at config.degree would need more bytes than the physical memory.
    """
    t_start = time.perf_counter()
    need, have = _step_bytes(config.degree), _physical_memory_bytes()
    if need > have:
        raise ConfigurationError(
            f"a Gauss-Newton step at L = {config.degree} needs about "
            f"{need / 1e9:.2f} GB, more than the {have / 1e9:.2f} GB of "
            "physical memory"
        )
    grid = _workspace(config.degree).grid
    if isinstance(H_target, HarmonicField):
        if H_target.degree > grid.L:
            raise ConfigurationError("H_target degree exceeds solver degree")
        H_vals = synthesize(H_target.truncated(grid.L), grid)
    else:
        H_vals = np.asarray(H_target, dtype=float)
        if H_vals.shape != (grid.n_theta, grid.n_phi):
            raise ConfigurationError("H_target values do not match solver grid")
    if not np.all(H_vals > 0):
        raise DataError("H_target must be positive everywhere")

    rungs = _ladder(grid.L)
    if len(rungs) > 1 and not isinstance(H_target, HarmonicField):
        H_target = analyze(H_vals, grid)
    state = None
    for L in rungs:
        final = L == grid.L
        rung_H = H_vals
        if not final:
            # a coarse rung pays off only on a target it resolves
            if np.linalg.norm(H_target.coeffs[:, L + 1:]) > config.tol:
                continue
            rung_H = synthesize(H_target.truncated(L), _workspace(L).grid)
            if not np.all(rung_H > 0):
                continue
        state = _rung_start(state, rung_H, L, config)
        state, reason = _continue(state, rung_H, config, final)

    if reason is None:
        # final polish; row weighting makes the norm the chart-form L2 norm,
        # so driving it to tol/2 bounds both reported block residuals by tol
        state, reason = _newton_to_tol(state, H_vals, 0.5 * config.tol, center=True)

    field = HarmonicField(state.coeffs)
    affine = AffineFunction(state.b)
    F = ImmersionField(field, grid)
    report = _solution_report(F, affine, H_vals, grid, reason, config.tol)
    report["residual_history"] = [e["residual"] for e in state.newton_log]
    report["step_log"] = list(state.step_log)
    report["newton_log"] = list(state.newton_log)
    return SolveResult(
        field=field,
        affine=affine,
        report=report,
        state=state,
        status=report["status"],
        wall_time=time.perf_counter() - t_start,
    )


def _spectral_tail(coeffs, tol):
    """Truncation diagnostic of an iterate: the coefficient norms of its top
    three degrees, the degree at which a geometric decay fitted over the
    upper half of the spectrum brings their joint norm below both tol / 2
    and the rounding level 1e3 eps |coeffs|, and whether it exceeds both
    now (a truncation floor)."""
    L = coeffs.shape[1] - 1
    per_degree = np.linalg.norm(coeffs, axis=(0, 2))
    top = per_degree[max(L - 2, 0):]
    tail = np.linalg.norm(top)
    rounding = 1e3 * np.finfo(float).eps * np.linalg.norm(coeffs)
    floor = max(0.5 * tol, rounding)
    ls = np.arange(L // 2, L + 1)
    ls = ls[per_degree[ls] > rounding]
    rate = np.polyfit(ls, np.log(per_degree[ls]), 1)[0] if ls.size >= 2 else 0.0
    if tail <= floor:
        suggested = L
    elif rate < 0:
        suggested = L + int(np.ceil(np.log(floor / tail) / rate))
    else:
        suggested = 2 * L
    return top.tolist(), suggested, bool(tail > floor)


def _solution_report(F, affine, H_vals, grid, stall_reason, tol):
    """Verification report of a solve; a solve that met its residual
    tolerance but not the conformality gate stalls as "non_conformal".  A
    line-search stall whose branch scan finds nothing while the iterate's
    top degrees carry more than tol / 2 (and more than rounding) stalls as
    "truncation_floor": the degree cannot resolve the solution."""
    report = verify(F, scan_branches=False)
    if stall_reason is None and report["conformality_sup"] > CONFORMALITY_TOL:
        stall_reason = "non_conformal"
    status = "converged" if stall_reason is None else "stalled"
    if status != "converged":
        # a stall may come from branch-point formation; scan once, with the
        # conformality gate relaxed to the iterate's own defect.  Within the
        # default gate this scan is the one verify would run.
        diag = {"note": "possible branch-point formation"}
        try:
            gate = max(CONFORMALITY_TOL, 2.0 * report["conformality_sup"])
            found = branch_scan_report(detect_branch_points(F, conformality_tol=gate))
        except Exception as err:
            diag["branch_scan_error"] = str(err)
        else:
            if report["conformality_sup"] <= CONFORMALITY_TOL:
                report.update(found)
            diag["branch_points"] = [
                {key: bp[key] for key in ("chart", "z", "order")}
                for bp in found["branch_points"]
            ]
            diag["unresolved_singular_points"] = list(found["unresolved_singular_points"])
        diag["top_degree_norms"], diag["suggested_degree"], floor_hit = (
            _spectral_tail(F.field.coeffs, tol))
        if (stall_reason == "line_search_exhausted" and floor_hit
                and diag.get("branch_points") == []
                and diag["unresolved_singular_points"] == []):
            stall_reason = "truncation_floor"
            diag["note"] = ("truncation floor: the top degrees carry more than "
                            "tol / 2; solve at the suggested degree")
    ell = affine.evaluate(grid)
    conf = conformality_residual(F)
    report["conformality_l2"] = float(
        np.sqrt(integrate(np.abs(np.nan_to_num(conf)) ** 2, grid))
    )
    try:
        mc = mc_residual(F, H_vals + ell)
        mag2 = np.einsum("ctp,ctp->tp", mc, mc)
        report["mc_l2"] = float(np.sqrt(integrate(np.nan_to_num(mag2), grid)))
        report["mc_sup"] = float(np.nanmax(np.sqrt(mag2)))
    except ConformalityError as err:
        # the chart residual is defined for conformal iterates only
        report["mc_l2"] = report["mc_sup"] = None
        report["mc_unavailable"] = str(err)
    forms = fundamental_forms(F)
    report["obstruction_h_plus_ell"] = obstruction_vector(
        H_vals + ell, forms.area_weight, grid
    ).tolist()
    report["affine_b"] = affine.b.tolist()
    report["status"] = status
    if status != "converged":
        report["stall_reason"] = stall_reason
        report["stall_diagnostics"] = diag
    return report


# ----------------------------------------------------------------------
# linearization utilities
# ----------------------------------------------------------------------

def normal_variation_operator(F: ImmersionField, f_values) -> np.ndarray:
    """-Lap_gamma f - |A|^2 f: the normal-variation linearization of H.

    Lap_gamma is the Laplace-Beltrami operator of the induced metric
    (lambda^{-2} times the flat chart Laplacian in conformal charts); the
    finite-difference calibration of the prefactor is unity: d/dt of the
    computed H under F -> F + t f N equals this operator's output.
    """
    f_values = np.asarray(f_values, dtype=float)
    ff = analyze(f_values, F.grid)
    fj = synthesize_jet(ff, F.grid, which=("ft", "fp", "ftt", "ftp", "fpp"))
    d1, d2 = jet_derivatives(F.jet("ft", "fp", "ftt", "ftp", "fpp"))
    ginv = F.pointwise["ginv"]
    _, _, Gamma = metric_derivatives(d1, d2, ginv)

    # Lap_gamma f = g^{ab} (d_a d_b f - Gamma^c_ab d_c f)
    fd1, fd2 = jet_derivatives({k: v[0] for k, v in fj.items()})
    lap = sum(ginv[a][b] * (fd2[a][b] - sum(Gamma[c][a][b] * fd1[c] for c in (0, 1)))
              for a in (0, 1) for b in (0, 1))
    return -lap - F.pointwise["A2"] * f_values


def affine_insolvability_check(grid: SphericalGrid, ell_values=None) -> float:
    """Least-squares residual floor of (-Lap - 2) f = ell on the unit sphere.

    The operator annihilates exactly the degree-1 harmonics, so the floor is
    the L2 norm of the degree-1 part of ell: sqrt(4 pi / 3) for ell = 1 + x3.
    """
    if ell_values is None:
        ell_values = 1.0 + grid.xyz[2]
    ell = analyze(np.asarray(ell_values, dtype=float), grid)
    c = ell.coeffs[0]
    L = grid.L
    deg1 = c[1, L - 1 : L + 2]
    return float(np.linalg.norm(deg1))
