"""
Gauge-fixed Gauss-Newton continuation for prescribed mean curvature.

Solves for a conformal immersion F: S^2 -> R^3 and an affine parameter b such
that the mean curvature of F equals H_target + ell_b by one continuation
at the requested degree along the straight homotopy H_s = (1-s) 2 +
s H_target from the round sphere: its first stage is the target itself
(s = 1), and only where a stage fails does the step in s halve.  The first
stage starts from a guess by nested iteration: a solve at s = 1 of the
target truncated to COARSEST_DEGREE, zero-padded whether it converged or not.

The residual is 5 * n_nodes pointwise rows, quadrature-weighted so that the
Euclidean norm is an L2 norm: conformality q1 = g_tt - g_pp/sin^2 and
q2 = 2 g_tp / sin (2 rows/node, geometry.conformality_defect, the formula
behind every conformality residual), and 4 times the mean-curvature residual
(1/4)(Lap_round F + (H + ell_b) n/sin), n = F_t x F_p (3 rows/node,
geometry.mc_residual_global, the chart residual divided by the positive chart
factor).  The weights are uniform, so the norm is rotation-invariant, and
it bounds the L2 norms of the chart residuals, whose chart factor is at
most 4.  Each iterate is evaluated once (ContinuationState.at): one jet
synthesis of (F_t, F_p, Lap F) and geometry.first_order_forms, the one place
that forms g and n, give both blocks, and the state keeps F_t, F_p, n, |n|
and N, from which the Jacobian and the area center are read with no further
synthesis.  No row fixes the placement in space: the step's constraints do.

The Jacobian is exact and never formed: J v is one jet synthesis of v times
pointwise coefficients (_linearization), J^T w the adjoint synthesis; each
costs O(L^3).  Updates solve the undamped least-squares normal equations
with a halving line search, under 9 linear constraints: orthogonal to the 3
translations and 3 ambient rotations, and cancelling the linearized area
center, grad c . delta = -c.  The translation columns are the l = 0 modes,
so no update moves them: F keeps the round-measure mean of its start (0 for
the round sphere).  The rotation columns keep each update free of
first-order rotation.  So the start and the path alone place a solution in
space, and the surface is determined up to a rigid motion.  The solver is
projected conjugate gradients in the constraints' null space
(_projected_cg), preconditioned by the round sphere's normal matrix A0,
which splits by total angular momentum j into blocks of at most 4
(_MultipletPreconditioner: closed forms in rho = (j (j + 1) - 2)^2 and
tau = (j (j + 1))^2 - 4, O(L^2) per apply), exact off the gauge and below
the top multiplet (1.6 % off at L = 8): a step takes at most 9 iterations
at every L from 16 to 128 on target 103 (eps = 0.1).
Each accepted step appends a newton_log record: the residual and its
conformality and mean-curvature block norms, the step length, the halving
count and the CG iteration count.

Everything a step needs at one degree (grid, packing, row weights and the
preconditioner) is that degree's _Workspace, a pure function of L.
The functions that take a state find it from the state's coefficients
(ContinuationState.ws): ContinuationState.at(s, coeffs, b, H_values),
gauge_basis(state) and gauge_projected_step(state, H_values) take no grid.
A process keeps the workspaces of its two most recent degrees, a solve's and
its guess's; a degree solved again after eviction builds its workspace again.

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

import numpy as np

from .affine import AffineFunction
from .errors import ConfigurationError, ConformalityError, DataError
from .geometry import (
    CONFORMALITY_TOL,
    ImmersionField,
    conformality_defect,
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
    integrate,
    synthesize,
    synthesize_jet,
    synthesize_jet_adjoint,
)

B_NORM_SMOOTHING = 1e-12
LINE_SEARCH_FACTOR = 0.5    # step-length factor per line-search halving
MAX_HALVINGS = 20
COARSEST_DEGREE = 12        # degree of the coarse solve that seeds a finer one
CENTER_TOL = 1e-10          # |area center| of a converged solve
KRYLOV_TOL = 1e-10          # relative residual at which projected CG stops
KRYLOV_MAX_ITERS = 100      # projected CG iterations before a step fails
MAX_NEWTON_ITERS = 30       # Gauss-Newton steps per stage or polish
MIN_STEP = 1.0 / 160.0      # smallest step in s before a stall


@dataclass(frozen=True)
class SolverConfig:
    degree: int = 24
    tol: float = 1e-8
    noise_amplitude: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ConfigurationError("tol must be finite and > 0")


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
    """A Gauss-Newton step could not decrease the residual; ``reason`` is the
    stall reason it ends a solve with: "krylov_failure" (projected CG did not
    converge) or "line_search_exhausted" (no trial point decreased it)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# workspace: packing and the per-degree preconditioner
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
        self.sqrt_w = np.sqrt(grid.w).ravel()
        self.sin_flat = np.repeat(grid.sin_theta, grid.n_phi)
        self.xyz_flat = grid.xyz.reshape(3, -1)
        # uniform row weights keep the norm rotation-invariant; it bounds the
        # L2 norms of the stereographic-chart residuals F_z.F_z =
        # (1/4) mu^-2 (q1 - i q2) e^{-+2i phi} and mu^-2 r_mc, as mu^-2 <= 4
        self.conf_row_w = self.sqrt_w
        self.mc_row_w = 4.0 * self.sqrt_w
        self.n_unknowns = 3 * self.n_modes + 3

    @cached_property
    def preconditioner(self) -> "_MultipletPreconditioner":
        return _MultipletPreconditioner(self)

    # -- packing ---------------------------------------------------------

    def pack(self, coeffs: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([coeffs[:, self.mode_l, self.mode_col].ravel(), b])

    def unpack(self, x: np.ndarray):
        coeffs = np.zeros((3, self.L + 1, 2 * self.L + 1))
        coeffs[:, self.mode_l, self.mode_col] = x[:-3].reshape(3, self.n_modes)
        return coeffs, x[-3:].copy()


@lru_cache(maxsize=2)
def _workspace(L: int) -> _Workspace:
    """The workspace of degree L, a pure function of L.  A solve works at
    two degrees at most, so the two most recent stay built."""
    return _Workspace(L)


# ----------------------------------------------------------------------
# residual
# ----------------------------------------------------------------------

def residual(F, b, H_target_values, grid: SphericalGrid) -> np.ndarray:
    """Stacked solver residual for an immersion, affine vector and target H:
    the 5 * n_nodes pointwise rows (2 conformality, then 3 mean-curvature
    rows per node).  No row fixes the immersion's placement in space; the
    step's gauge constraints keep it.

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
# preconditioner: the round sphere's normal matrix by total angular momentum
# ----------------------------------------------------------------------

def _clebsch_gordan(L, j, m):
    """<j + d, m - s; 1, s | j, m> (Condon-Shortley phase) as [d + 1, s + 1, ...]
    for d, s in -1, 0, 1 and integer arrays j, m; zero where the coupling or
    the degree j + d <= L does not exist."""
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in (-1, 0, 1):
            l = j + d
            if d == -1:     # j = l + 1
                rows = [(l - m) * (l - m + 1) / ((2 * l + 1) * (2 * l + 2)),
                        (l - m + 1) * (l + m + 1) / ((2 * l + 1) * (l + 1.0)),
                        (l + m) * (l + m + 1) / ((2 * l + 1) * (2 * l + 2))]
                signs = (1, 1, 1)
            elif d == 0:    # j = l
                rows = [(l - m) * (l + m + 1) / (2 * l * (l + 1.0)),
                        m * m / (l * (l + 1.0)),
                        (l + m) * (l - m + 1) / (2 * l * (l + 1.0))]
                signs = (1, np.sign(m), -1)
            else:           # j = l - 1
                rows = [(l + m + 1) * (l + m) / (2 * l * (2 * l + 1.0)),
                        (l - m) * (l + m) / (l * (2 * l + 1.0)),
                        (l - m) * (l - m + 1) / (2 * l * (2 * l + 1.0))]
                signs = (1, -1, 1)
            for s, (r, sign) in enumerate(zip(rows, signs), start=-1):
                ok = ((abs(m) <= j) & (abs(m - s) <= l) & (l <= L)
                      & (abs(l - 1) <= j))
                out.append(np.where(ok, sign * np.sqrt(np.where(ok, r, 0.0)), 0.0))
    return np.stack(out).reshape(3, 3, *np.broadcast(j, m).shape)


class _MultipletPreconditioner:
    """Block-diagonal P = J0^T J0 of the round sphere, by total angular momentum.

    With uniform row weights the round sphere's normal matrix A0 (H = 2,
    b = 0) is invariant under rotations.  The Cartesian-component
    coefficients of F couple to the vector harmonics Y^lam_{jm} = sum_s
    <lam, m - s; 1, s | j, m> Y_lam^{m-s} e_s (Hill 1954; Edmonds 1957), lam in
    j - 1, j, j + 1, and b to e_m in j = 1.  A0 is one block B_j per j, 3 x 3
    (4 x 4 at j = 1) and the same for every m.  A0 is diagonal on the unit
    fields r Y_jm, grad Y_jm and r x grad Y_jm: rho = (j (j + 1) - 2)^2, the
    squared Jacobi operator -Lap - 2, on the normal one and
    tau = (j (j + 1))^2 - 4 on both tangential ones.  Slot j is r x grad Y_jm;
    slots j -+ 1 rotate (r Y_jm, grad Y_jm) by cos^2 = j / (2 j + 1).  In j = 1
    rho = tau = 0: the field slots are A0's null space (per m: a translation,
    a rotation and a boost), and B_1 = sigma e_b e_b^H, sigma = 4 pi / 3.
    Projected CG keeps off those nine gauge directions, so solve lifts their
    value to sigma, which makes the j = 1 block sigma I.  The top multiplet
    j = L + 1 is not invariant on the grid: its rows reach degree L + 1, past
    the quadrature, and m = +-(L + 1) alias on the longitude grid.  P keeps
    the formula there, within 1.6 % of A0 at L = 8 and 0.6 % at L = 16.

    An apply is O(L^2): real to complex harmonics, Cartesian to spherical
    components, the coupling, one B_j^-1 per j, and back.  The
    coupled coefficients are held as [slot, j, m + 1, k], slot lam - j + 1
    and 3 for b, zero where no state exists, for m >= -1 only: a real
    vector's coefficient at -m is +-conj of the one at m, and the states
    m >= -1 reach the complex harmonics of orders K = m - s >= -2 only.
    """

    def __init__(self, ws):
        self.L = L = ws.L
        # the spherical basis e_s, s = -1, 0, 1 (row s + 1):
        # e_{+-1} = -+(e1 +- i e2) / sqrt 2, e_0 = e3
        h = np.sqrt(0.5)
        self.spherical = np.array([[h, -1j * h, 0.0], [0.0, 0.0, 1.0], [-h, -1j * h, 0.0]])
        # complex harmonics from packed real modes a (a zero appended at
        # n_modes): f^0 = a_0, f^K = (a_K - i a_-K) / sqrt 2, f^-K = (-1)^K conj(f^K).
        # f[l + 1, K + 2], l = -1..L+2 and K = -2..L+2, is the sum over p of
        # phase[p, K + 2] a[source[p, l + 1, K + 2]], from the modes (l, +-|K|)
        l, K = np.arange(-1, L + 3)[:, None], np.arange(-2, L + 3)
        self.source = np.where((abs(K) <= l) & (l <= L),
                               l * l + l + np.stack([abs(K), -abs(K)])[:, None], ws.n_modes)
        sign = np.where(K < 0, (-1.0) ** abs(K), 1.0) * np.where(K == 0, 1.0, h)
        self.phase = np.stack([sign, -1j * np.sign(K) * sign])[..., None]
        # and back: the packed mode (l, m) is Re(target_phase f^|m|)
        m = ws.mode_col - L
        self.target = ws.mode_l * (L + 1) + abs(m)
        self.target_phase = np.where(m == 0, 1.0, np.where(m > 0, 1.0, 1j) * 2 * h)[:, None]
        # [d + 1, s + 1, j, m + 1, 1]: m >= -1, a trailing axis for the columns
        js = np.arange(L + 2)
        self.coupling = _clebsch_gordan(L, js[:, None], np.arange(-1, L + 2)[None])[..., None]

        j = js.astype(float)
        rho, tau = (j * (j + 1) - 2) ** 2, (j * (j + 1)) ** 2 - 4
        self.blocks = blocks = np.zeros((L + 2, 4, 4))
        blocks[:, 0, 0] = (j * rho + (j + 1) * tau) / (2 * j + 1)
        blocks[:, 1, 1] = tau
        blocks[:, 2, 2] = ((j + 1) * rho + j * tau) / (2 * j + 1)
        blocks[:, 0, 2] = blocks[:, 2, 0] = np.sqrt(j * (j + 1)) * (tau - rho) / (2 * j + 1)
        blocks[1, 3, 3] = self.lifted = FOUR_PI / 3
        # zero in a slot that holds no state (no coupling at m = 0)
        held = np.any(self.coupling[:, :, :, 1, 0] != 0, axis=1).T      # [j, slot]
        blocks[:, :3, :3] *= held[:, :, None] & held[:, None]
        # solve's blocks: j = 1 lifted to sigma I, and a unit diagonal where a
        # slot holds no state (its coefficients are 0)
        solve_blocks = blocks.copy()
        solve_blocks[1] = self.lifted * np.eye(4)
        diag = np.arange(4)
        solve_blocks[:, diag, diag] += solve_blocks[:, diag, diag] == 0
        self.inverse = np.linalg.inv(solve_blocks)

    def coupled(self, r: np.ndarray) -> np.ndarray:
        """Coupled coefficients [slot, j, m + 1, k], m >= -1, of packed real
        vectors r (n, k)."""
        L, k = self.L, r.shape[1]
        modes = np.concatenate([r[:-3].reshape(3, -1, k), np.zeros((3, 1, k))], axis=1)
        f = np.take(modes, self.source[0], axis=1) * self.phase[0]
        f += np.take(modes, self.source[1], axis=1) * self.phase[1]
        # spherical components g_s = conj(e_s) . f, each shifted so that
        # h[s, l + 1, m + 1] = g_s[l, m - s]
        g = (self.spherical.conj() @ f.reshape(3, -1)).reshape(f.shape)
        del f       # keeps the 9-column solve's peak down
        h = np.stack([g[s, :, 2 - s:L + 5 - s] for s in range(3)])
        del g
        u = np.zeros((4, L + 2, L + 3, k), dtype=complex)
        for d in range(3):
            u[d] = (self.coupling[d] * h[:, d:d + L + 2]).sum(axis=0)
        u[3, 1, :3] = self.spherical.conj() @ r[-3:]
        return u

    def uncoupled(self, u: np.ndarray) -> np.ndarray:
        """The packed real vectors (n, k) of coupled coefficients: the inverse
        of coupled."""
        L, k = self.L, u.shape[-1]
        h = np.zeros((3, L + 4, L + 3, k), dtype=complex)
        for d in range(3):
            h[:, d:d + L + 2] += self.coupling[d] * u[d]
        g = np.stack([h[s, 1:L + 2, s:L + 1 + s] for s in range(3)])   # K = 0..L
        del h
        f = (self.spherical.T @ g.reshape(3, -1)).reshape(3, -1, k)
        del g
        modes = (np.take(f, self.target, axis=1) * self.target_phase).real
        return np.concatenate([modes.reshape(-1, k), (self.spherical.T @ u[3, 1, :3]).real])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """P^-1 r for r of shape (n,) or (n, k), gauge values lifted."""
        u = self.coupled(r.reshape(len(r), -1))
        y = np.einsum("jab,bjx->ajx", self.inverse, u.reshape(4, self.L + 2, -1))
        return self.uncoupled(y.reshape(u.shape)).reshape(r.shape)


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


def _projected_cg(lin, basis, g, ws):
    """Solve the gauge-constrained normal equations
    [J^T J, G; G^T, 0] [delta; mu] = [-g; rhs] (g = J^T r) without forming
    J: projected preconditioned CG (Gould, Hribar & Nocedal 2001) with the
    constraint preconditioner [P, G; G^T, 0], P the round sphere's normal
    matrix by total angular momentum (_MultipletPreconditioner).  There is
    no damping: J^T J is positive definite on the constraints' null space
    wherever that space meets J's null space (the nine gauge directions at
    the round sphere) only in 0, and the curvature guard ends CG where it
    does not.

    The particular solution x0 = P^-1 G S^-1 rhs (S = G^T P^-1 G, 9 x 9)
    meets the constraints; CG then runs in their null space, each residual
    projected by P^-1 (I - G S^-1 G^T P^-1) and stripped of its range-of-G
    part.  Each iteration costs one J v and one J^T w.  Returns (delta,
    iterations); delta is None when CG does not reach KRYLOV_TOL within
    KRYLOV_MAX_ITERS iterations."""
    pre, G = ws.preconditioner, basis.matrix
    PG = pre.solve(G)
    S_inv = np.linalg.inv(G.T @ PG)

    def project(res):
        v = S_inv @ (PG.T @ res)
        return res - G @ v, pre.solve(res) - PG @ v

    def normal(v):
        return _vjp(lin, _jvp(lin, v, ws), ws)

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
    """One Gauss-Newton update under the gauge constraints.

    Solves the KKT system of the undamped normal equations subject to
    G^T delta = rhs (gauge_basis: no rigid motion, and the linearized area
    center cancelled) matrix-free by projected CG, then line-searches with
    halving factor LINE_SEARCH_FACTOR, at most MAX_HALVINGS times.  Raises
    StepFailure when CG fails or no trial point decreases the residual.  The
    state must have been evaluated against H_values; the Jacobian and the
    gauge columns read its evaluation, each trial point is evaluated once,
    and the accepted trial is the new state.  Appends one record to the
    state's newton_log.
    """
    ws = state.ws
    n0 = state.residual_norm
    lin = _linearization(state)
    delta, linear_iters = _projected_cg(lin, gauge_basis(state),
                                        _vjp(lin, state.residual, ws), ws)
    if delta is None:
        raise StepFailure("krylov_failure", f"projected CG failed at residual {n0:.3e}")
    x0 = ws.pack(state.coeffs, state.b)
    alpha = 1.0
    for halvings in range(MAX_HALVINGS + 1):
        new = ContinuationState.at(state.s, *ws.unpack(x0 + alpha * delta), H_values,
                                   step_log=state.step_log, newton_log=state.newton_log)
        if new.residual_norm < n0:
            n_conf = 2 * ws.n_nodes
            new.newton_log.append({
                "degree": ws.L, "residual": new.residual_norm,
                "residual_conformality": float(np.linalg.norm(new.residual[:n_conf])),
                "residual_mc": float(np.linalg.norm(new.residual[n_conf:])),
                "alpha": alpha, "halvings": halvings, "linear_iters": linear_iters,
            })
            return new
        alpha *= LINE_SEARCH_FACTOR
    raise StepFailure("line_search_exhausted", f"no residual decrease from {n0:.3e}")


# ----------------------------------------------------------------------
# continuation driver
# ----------------------------------------------------------------------

def _round_start(L, config=None):
    """The round sphere at degree L, with the config's start noise if given."""
    grid = _workspace(L).grid
    coeffs = analyze(grid.xyz, grid).coeffs.copy()
    if config is not None and config.noise_amplitude > 0:
        rng = np.random.default_rng(config.noise_seed)
        valid = np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None]
        noise = rng.uniform(-1, 1, size=coeffs.shape) * config.noise_amplitude
        coeffs = coeffs + noise * valid
    return coeffs


def _newton_to_tol(state, H_values, target, center=False):
    """Gauss-Newton until the residual norm is at most ``target`` and, with
    ``center``, the area center is at most CENTER_TOL from 0.

    Returns (state, None) on success, else the last accepted state and the
    stall reason: a StepFailure's ("krylov_failure" or
    "line_search_exhausted") or "iteration_cap".
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
        except StepFailure as err:
            return state, err.reason
    return state, None if met() else "iteration_cap"


def _homotopy(s, H_vals):
    return (1.0 - s) * 2.0 + s * H_vals


def _stage(trial, H_vals, ds, tol):
    """Gauss-Newton from ``trial`` against H_s at its s, to 16 tol: on a
    residual spread evenly over the sphere the uniform row norm reads
    sqrt(80 / 31) = 1.61 times the chart-form norm.  Appends one step_log
    record.  Returns (last accepted state, stall reason or None)."""
    n_before = len(trial.newton_log)
    trial, reason = _newton_to_tol(trial, _homotopy(trial.s, H_vals), 16.0 * tol)
    trial.step_log.append({"degree": trial.ws.L, "s": trial.s, "ds": ds,
                           "converged": reason is None, "residual": trial.residual_norm,
                           "newton_iters": len(trial.newton_log) - n_before})
    return trial, reason


def _coarse_guess(H_target, H_vals, config):
    """The last iterate, converged or not, of a solve at s = 1 from the round
    sphere of the target truncated to COARSEST_DEGREE (nested iteration).
    None at config.degree <= COARSEST_DEGREE, and on a target it does not
    resolve: a norm above that degree over config.tol, or a truncation <= 0."""
    if config.degree <= COARSEST_DEGREE:
        return None
    if not isinstance(H_target, HarmonicField):
        H_target = analyze(H_vals, _workspace(config.degree).grid)
    if np.linalg.norm(H_target.coeffs[:, COARSEST_DEGREE + 1:]) > config.tol:
        return None
    coarse_H = synthesize(H_target.truncated(COARSEST_DEGREE),
                          _workspace(COARSEST_DEGREE).grid)
    if not np.all(coarse_H > 0):
        return None
    start = ContinuationState.at(1.0, _round_start(COARSEST_DEGREE, config),
                                 np.zeros(3), coarse_H)
    return _stage(start, coarse_H, 1.0, config.tol)[0]


def _continue(start, H_vals, tol):
    """Continuation at start's degree to s = 1: the first stage is ds = 1
    from ``start``.  Where a stage fails, ds halves and the next stage
    starts from the last accepted state, at first the exact round sphere
    at s = 0; the solve stalls once ds falls below MIN_STEP.  Returns (last
    accepted state, stall reason or None)."""
    state, reason = _stage(start, H_vals, 1.0, tol)
    if reason is None:
        return state, None
    logs = dict(step_log=start.step_log, newton_log=start.newton_log)
    state = ContinuationState.at(0.0, _round_start(start.ws.L), np.zeros(3),
                                 _homotopy(0.0, H_vals), **logs)
    ds = 0.5
    while ds >= MIN_STEP:
        s_next = min(1.0, state.s + ds)
        ds = s_next - state.s
        trial = ContinuationState.at(s_next, state.coeffs.copy(), state.b.copy(),
                                     _homotopy(s_next, H_vals), **logs)
        trial, reason = _stage(trial, H_vals, ds, tol)
        if reason is None:
            state = trial
            if state.s == 1.0:
                return state, None
        else:
            ds /= 2.0
    return state, "min_step"


def _step_bytes(L: int) -> int:
    """Bytes that work at degree L holds: the grid's Legendre table, 16 (L + 1)^3
    (Q and dQ/dtheta as [n, m, node, l]), and a Gauss-Newton step modeled as
    128 arrays the length of the node count or of the unknowns: the
    linearization, the jets, the gauge columns, their preconditioned copies
    with the preconditioner's complex coefficients, and the CG vectors.  The
    preconditioner it builds on a first step holds O(L^2) numbers.  The
    model exceeds the traced peak of building the workspace and taking a
    first step from L = 16 up (by 7 % at L = 16, 21 % at 48 and 20 % at
    96), and that of a verify at degree L (7.1 MB traced against 14 MB
    modeled at L = 48, 35 against 63 MB at L = 96)."""
    n_nodes = 2 * (L + 1) ** 2
    n_unknowns = 3 * (L + 1) ** 2 + 3
    return 16 * (L + 1) ** 3 + 8 * 128 * (n_nodes + n_unknowns)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(L: int) -> None:
    """Raise ConfigurationError when work at degree L would need more bytes
    (_step_bytes) than the physical memory: a solve, or a verify, balance or
    OBJ export, which build the same grid and fewer node arrays.  Call it
    before building the degree's grid."""
    need, have = _step_bytes(L), _physical_memory_bytes()
    if need > have:
        raise ConfigurationError(
            f"degree L = {L} needs about {need / 1e9:.2f} GB, more than the "
            f"{have / 1e9:.2f} GB of physical memory"
        )


def solve_pmc(H_target, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Continuation solve of the prescribed mean curvature problem.

    ``H_target`` is a scalar HarmonicField (degree <= config.degree) or node
    values on the solver grid; it must be positive everywhere.  Returns the
    immersion, the normalized affine function ell, and a report: geometry.verify
    of the immersion and the solve's own entries.  On a stall the partial
    state is returned with status "stalled", the report's "stall_reason" and
    its "stall_diagnostics" (the top degrees' norms and a suggested degree).

    One continuation at config.degree (``_continue``) first solves the
    target itself and halves its step in s where that fails.  Its first
    stage starts from the ``_coarse_guess``, zero-padded, or from the round
    sphere where no guess runs; the config's start noise perturbs only the
    round sphere that starts the solve.  The end is polished to tol / 2 and
    an area center of at most CENTER_TOL.

    Raises ConfigurationError, before any work, when config.degree would
    need more bytes than the physical memory (check_memory).
    """
    t_start = time.perf_counter()
    check_memory(config.degree)
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

    guess = _coarse_guess(H_target, H_vals, config)
    if guess is None:
        start = ContinuationState.at(1.0, _round_start(grid.L, config), np.zeros(3), H_vals)
    else:
        start = ContinuationState.at(1.0, HarmonicField(guess.coeffs).truncated(grid.L).coeffs,
                                     guess.b.copy(), H_vals, step_log=guess.step_log,
                                     newton_log=guess.newton_log)
    state, reason = _continue(start, H_vals, config.tol)

    if reason is None:
        # final polish; the row norm is at least the chart-form L2 norm, so
        # driving it to tol/2 bounds both reported block residuals by tol
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
    """verify(F) and the solve's own entries.  A solve that met its residual
    tolerance but not the conformality gate stalls as "non_conformal".  A
    line-search stall whose iterate verify scanned (a conformal one) and
    found neither a branch point nor an unresolved singular point, while
    its top degrees carry more than tol / 2 (and more than rounding), stalls
    as "truncation_floor": the degree cannot resolve the solution."""
    report = verify(F)
    if stall_reason is None and report["conformality_sup"] > CONFORMALITY_TOL:
        stall_reason = "non_conformal"
    status = "converged" if stall_reason is None else "stalled"
    if status != "converged":
        top, suggested, floor_hit = _spectral_tail(F.field.coeffs, tol)
        diag = {"top_degree_norms": top, "suggested_degree": suggested}
        # an unscanned (non-conformal) report holds null, not []
        if (stall_reason == "line_search_exhausted" and floor_hit
                and report["branch_points"] == []
                and report["unresolved_singular_points"] == []):
            stall_reason = "truncation_floor"
    ell = affine.evaluate(grid)
    report["conformality_l2"] = float(
        np.sqrt(integrate(np.abs(np.nan_to_num(F.conformality)) ** 2, grid))
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
