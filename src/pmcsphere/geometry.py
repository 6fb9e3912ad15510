"""
Differential geometry of immersions F: S^2 -> R^3.

Fundamental forms are assembled pointwise from exact spectral derivatives of
the (band-limited) component fields in grid coordinates (theta, phi) by one
kernel, pointwise_forms, which every curvature of the package reads; all
reported scalars (H, K, |A|^2, area element) are parametrization-invariant.
Chart-coordinate quantities (conformal factor, conformality and
mean-curvature residuals, branch fits) use the stereographic charts.

Sign conventions: N follows F_theta x F_phi and is flipped globally (together
with A and H) if H < 0 at the node maximizing |F|^2, so the unit sphere has
H = 2, K = 1 with the outward normal.  The second fundamental form is
A_ab = -<d2F/dx^a dx^b, N>.

The mean-curvature equation is encoded chart-free as

    r_mc = (1/4) * (Lap_round F + H * (F_theta x F_phi) / sin(theta)),

whose chart expression is mu^{-2} r_mc = F_{zbar z} + (i/2) H (Fbar_z x F_z);
the calibration constant relative to the conventional literature form
F_{zbar z} = i H (Fbar_z x F_z) is therefore MC_CONVENTION_CONSTANT = -1/2,
fixed by requiring a zero residual on the unit sphere with H = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigurationError, ConformalityError, DataError
from .grid import (
    FOUR_PI,
    NORTH,
    SOUTH,
    ChartPoint,
    HarmonicField,
    SphericalGrid,
    analyze,
    chart_area_factors,
    chart_gradient_from_jet,
    conformal_gradients,
    integrate,
    per_node_home_values,
    synthesize_jet,
)

MC_CONVENTION_CONSTANT = -0.5
SINGULAR_CROSS_THRESHOLD = 1e-12
IMMERSION_EPSILON = 1e-8
CONFORMALITY_TOL = 1e-6        # sup |F_z . F_z| gate of the chart residuals
BRANCH_THRESHOLD_FACTOR = 1e-4  # branch candidates: |F_z| below this * median
BRANCH_MAX_ORDER = 6            # branch fits try orders k = 1..BRANCH_MAX_ORDER
BRANCH_FIT_TOL = 0.1            # largest relative residual of a branch fit


class ImmersionField:
    """An immersion given by three harmonic component fields on a grid.

    Chart gradients, derivative jets and fundamental forms are computed
    lazily and cached; the object is immutable.
    """

    def __init__(self, field: HarmonicField, grid: SphericalGrid):
        if field.n_components != 3:
            raise ConfigurationError("an immersion needs exactly 3 components")
        if field.degree > grid.L:
            raise ConfigurationError(
                f"field degree {field.degree} exceeds grid degree {grid.L}"
            )
        self.field = field
        self.grid = grid
        self._jets: dict = {}
        self._fz: dict = {}
        self._fz_home = None
        self._conf_home = None
        self._forms = None

    @classmethod
    def from_values(cls, values: np.ndarray, grid: SphericalGrid):
        return cls(analyze(values, grid), grid)

    def jet(self, *keys):
        missing = tuple(k for k in keys if k not in self._jets)
        if missing:
            self._jets.update(synthesize_jet(self.field, self.grid, which=missing))
        return {k: self._jets[k] for k in keys}

    def chart_gradient(self, chart: str) -> np.ndarray:
        """Cached F_z per chart, shape (3, n_theta, n_phi); NaN when masked.

        Taken from the cached (F_theta, F_phi) jet."""
        if chart not in self._fz:
            jet = self.jet("ft", "fp")
            self._fz[chart] = chart_gradient_from_jet(
                jet["ft"], jet["fp"], self.grid, chart
            )
        return self._fz[chart]

    def chart_gradient_home(self) -> np.ndarray:
        """Cached F_z in each node's home chart."""
        if self._fz_home is None:
            self._fz_home = per_node_home_values(
                self.chart_gradient(NORTH), self.chart_gradient(SOUTH), self.grid
            )
        return self._fz_home

    @property
    def is_regular(self) -> bool:
        """Immersion flag: min over nodes of |F_z|^2 above IMMERSION_EPSILON."""
        fz = self.chart_gradient_home()
        fz2 = np.einsum("ctp,ctp->tp", fz, np.conj(fz)).real
        return bool(np.nanmin(fz2) > IMMERSION_EPSILON)


@dataclass(frozen=True)
class FundamentalForms:
    """Per-node first/second fundamental forms and derived curvatures.

    gamma and second_form hold the (theta, phi) grid-coordinate components
    [[g_tt, g_tp], [g_tp, g_pp]]; conformal_factor is lambda^2 = 2 F_z.Fbar_z
    in each node's home stereographic chart.  area_weight is the ratio of the
    induced to the round area element, sqrt(det gamma)/sin(theta).  Singular
    nodes (|F_theta x F_phi| below threshold) carry NaN and are flagged.
    """

    gamma: np.ndarray          # (2, 2, n_theta, n_phi)
    normal: np.ndarray         # (3, n_theta, n_phi)
    second_form: np.ndarray    # (2, 2, n_theta, n_phi)
    mean_curvature: np.ndarray
    gauss_curvature: np.ndarray
    norm2_A: np.ndarray
    conformal_factor: np.ndarray
    area_weight: np.ndarray
    singular: np.ndarray       # boolean mask of flagged nodes
    orientation_flipped: bool


def _dot(x, y):
    return np.einsum("ctp,ctp->tp", x, y)


def pointwise_forms(d1, d2):
    """The pointwise geometry of an immersion from d1[a] = F_a and
    d2[a][b] = F_ab (each (3, n, m)) in any two coordinates: the metric g,
    det_g, ginv (from the raw det_g), the normal N = n/|n| and cross_norm =
    |n| for n = F_0 x F_1, A[a][b] = -<F_ab, N>, and H, K and A2 = |A|^2,
    NaN on the nodes of the mask singular = |n| <= SINGULAR_CROSS_THRESHOLD.
    """
    g01 = _dot(d1[0], d1[1])
    g = [[_dot(d1[0], d1[0]), g01], [g01, _dot(d1[1], d1[1])]]
    det_g = g[0][0] * g[1][1] - g01 ** 2
    n = np.cross(d1[0], d1[1], axis=0)
    W = np.sqrt(_dot(n, n))
    singular = W <= SINGULAR_CROSS_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        ginv01 = -g01 / det_g
        ginv = [[g[1][1] / det_g, ginv01], [ginv01, g[0][0] / det_g]]
        N = n / W
    A01 = -_dot(d2[0][1], N)
    A = [[-_dot(d2[0][0], N), A01], [A01, -_dot(d2[1][1], N)]]

    det_g_safe = np.where(singular, 1.0, det_g)
    H = (g[1][1] * A[0][0] - 2 * g[0][1] * A[0][1] + g[0][0] * A[1][1]) / det_g_safe
    K = (A[0][0] * A[1][1] - A[0][1] * A[0][1]) / det_g_safe
    # |A|^2 = tr((g^-1 A)^2) = H^2 - 2K
    A2 = H * H - 2 * K
    for arr in (H, K, A2):
        arr[singular] = np.nan
    return {"g": g, "det_g": det_g, "ginv": ginv, "normal": N, "cross_norm": W,
            "A": A, "H": H, "K": K, "A2": A2, "singular": singular}


def jet_derivatives(jet: dict):
    """(d1, d2) of pointwise_forms from a grid jet ft..fpp of F."""
    return ([jet["ft"], jet["fp"]],
            [[jet["ftt"], jet["ftp"]], [jet["ftp"], jet["fpp"]]])


def metric_derivatives(d1, d2, ginv):
    """dg[c][a][b] = d_c g_ab and the Christoffel symbols
    Gamma[d][a][b] = Gamma^d_ab of the induced metric."""
    dg = [[[_dot(d2[c][a], d1[b]) + _dot(d1[a], d2[c][b]) for b in (0, 1)]
           for a in (0, 1)] for c in (0, 1)]
    Gamma = [[[0.5 * sum(ginv[d][c] * (dg[a][c][b] + dg[b][c][a] - dg[c][a][b])
                         for c in (0, 1))
               for b in (0, 1)] for a in (0, 1)] for d in (0, 1)]
    return dg, Gamma


def fundamental_forms(F: ImmersionField) -> FundamentalForms:
    """First and second fundamental forms, curvatures and area weight of F
    (computed once per immersion, then cached on F)."""
    if F._forms is not None:
        return F._forms
    p = pointwise_forms(*jet_derivatives(F.jet("ft", "fp", "ftt", "ftp", "fpp")))

    # global orientation fix: outward normal where |F|^2 is maximal
    vals = F.jet("f")["f"]
    r2 = np.einsum("ctp,ctp->tp", vals, vals)
    flat = np.argmax(np.where(p["singular"], -np.inf, r2))
    i0, j0 = np.unravel_index(flat, r2.shape)
    flipped = bool(p["H"][i0, j0] < 0)
    sgn = -1.0 if flipped else 1.0

    fz = F.chart_gradient_home()
    lam2 = 2.0 * np.einsum("ctp,ctp->tp", fz, np.conj(fz)).real

    area_weight = p["cross_norm"] / F.grid.sin_theta[:, None]
    F._forms = FundamentalForms(
        gamma=np.array(p["g"]),
        normal=sgn * p["normal"],
        second_form=sgn * np.array(p["A"]),
        mean_curvature=sgn * p["H"],
        gauss_curvature=p["K"],
        norm2_A=p["A2"],
        conformal_factor=lam2,
        area_weight=area_weight,
        singular=p["singular"],
        orientation_flipped=flipped,
    )
    return F._forms


# ----------------------------------------------------------------------
# residuals of the structure equations
# ----------------------------------------------------------------------

def conformality_residual(F: ImmersionField, chart="home") -> np.ndarray:
    """F_z . F_z per node (zero iff the parametrization is conformal); the
    home-chart residual is computed once per immersion, then cached on F."""
    if chart != "home":
        fz = F.chart_gradient(chart)
        return _dot(fz, fz)
    if F._conf_home is None:
        fz = F.chart_gradient_home()
        F._conf_home = _dot(fz, fz)
    return F._conf_home


def mc_residual(F: ImmersionField, H_target: np.ndarray) -> np.ndarray:
    """Calibrated mean-curvature residual F_{zbar z} + (i/2) H (Fbar_z x F_z).

    Requires a conformal parametrization (sup |F_z . F_z| within
    CONFORMALITY_TOL); raises ConformalityError carrying the offending
    sup-norm otherwise.  Returns a real (3, n_theta, n_phi) array in each
    node's home chart (F_{zbar z} and i Fbar_z x F_z are both real): the
    chart-free residual times mu^{-2}.
    """
    conf = conformality_residual(F)
    sup = float(np.nanmax(np.abs(conf)))
    if sup > CONFORMALITY_TOL:
        raise ConformalityError(sup)
    H_target = np.asarray(H_target, dtype=float)

    r_global = mc_residual_global(F, H_target)
    factor = chart_area_factors(F.grid, "home")[:, None]
    return factor[None, :, :] * r_global


def mc_residual_global(F: ImmersionField, H_target: np.ndarray) -> np.ndarray:
    """Chart-free residual (1/4)(Lap_round F + H (F_theta x F_phi)/sin theta).

    Equals mu^2 times the chart residual in either stereographic chart;
    real-valued; vanishes iff F is a conformal immersion of mean curvature
    H_target in the chart orientation.
    """
    jet = F.jet("ft", "fp", "lap")
    cross = np.cross(jet["ft"], jet["fp"], axis=0)
    wn = cross / F.grid.sin_theta[None, :, None]
    return 0.25 * (jet["lap"] + H_target[None, :, :] * wn)


def _gauss_identity(forms: FundamentalForms, grid: SphericalGrid):
    """(int |A|^2 dV, Gauss identity residual) from computed forms."""
    intA2 = integrate(np.nan_to_num(forms.norm2_A), grid, forms.area_weight)
    intH2 = integrate(np.nan_to_num(forms.mean_curvature**2), grid, forms.area_weight)
    return intA2, intA2 - intH2 + 2.0 * FOUR_PI


def gauss_identity_residual(F: ImmersionField) -> float:
    """int |A|^2 dV - int H^2 dV + 8 pi (zero for every immersed sphere)."""
    return _gauss_identity(fundamental_forms(F), F.grid)[1]


def codazzi_residual(F: ImmersionField) -> float:
    """L2 norm of the 1-form div(A - H gamma) in the induced metric.

    Analytically zero for any immersion into flat space; the computed value
    measures rounding plus (for non-band-limited F) truncation.  All
    derivatives up to third order are evaluated pointwise from exact
    spectral tables of F, so no tensor component is re-expanded; g, N and
    A come from pointwise_forms.  Meaningless on a branched immersion: the
    integrand grows without bound near a branch point (1.1 to 2e8 on z^2
    and z^3 maps at L = 48, at most 2e-14 on unbranched spheres).
    """
    jet = F.jet(
        "ft", "fp", "ftt", "ftp", "fpp", "fttt", "fttp", "ftpp", "fppp"
    )
    d1, d2 = jet_derivatives(jet)
    p = pointwise_forms(d1, d2)
    g, ginv, N, W, A = (p[k] for k in ("g", "ginv", "normal", "cross_norm", "A"))
    dg, Gamma = metric_derivatives(d1, d2, ginv)
    d3 = {
        (0, 0, 0): jet["fttt"], (0, 0, 1): jet["fttp"],
        (0, 1, 1): jet["ftpp"], (1, 1, 1): jet["fppp"],
    }

    def third(a, b, c):
        return d3[tuple(sorted((a, b, c)))]

    dn = [np.cross(d2[c][0], d1[1], axis=0) + np.cross(d1[0], d2[c][1], axis=0)
          for c in (0, 1)]
    dN = [(dn[c] - N * _dot(N, dn[c])[None]) / W for c in (0, 1)]

    dA = [[[-_dot(third(c, a, b), N) - _dot(d2[a][b], dN[c]) for b in (0, 1)]
           for a in (0, 1)] for c in (0, 1)]

    dginv = [[[-sum(ginv[a][e] * dg[c][e][f] * ginv[f][b]
                    for e in (0, 1) for f in (0, 1))
               for b in (0, 1)] for a in (0, 1)] for c in (0, 1)]

    H = sum(ginv[a][b] * A[a][b] for a in (0, 1) for b in (0, 1))
    dH = [sum(dginv[c][a][b] * A[a][b] + ginv[a][b] * dA[c][a][b]
              for a in (0, 1) for b in (0, 1)) for c in (0, 1)]

    T = [[A[a][b] - H * g[a][b] for b in (0, 1)] for a in (0, 1)]
    dT = [[[dA[c][a][b] - dH[c] * g[a][b] - H * dg[c][a][b] for b in (0, 1)]
           for a in (0, 1)] for c in (0, 1)]

    div = []
    for b in (0, 1):
        acc = 0.0
        for a in (0, 1):
            for c in (0, 1):
                cov = dT[a][c][b]
                cov = cov - sum(Gamma[d][a][c] * T[d][b] for d in (0, 1))
                cov = cov - sum(Gamma[d][a][b] * T[c][d] for d in (0, 1))
                acc = acc + ginv[a][c] * cov
        div.append(acc)

    norm2 = sum(ginv[a][b] * div[a] * div[b] for a in (0, 1) for b in (0, 1))
    area_weight = W / F.grid.sin_theta[:, None]
    return float(np.sqrt(integrate(norm2, F.grid, area_weight)))


def obstruction_vector(H_values: np.ndarray, area_weight: np.ndarray,
                       grid: SphericalGrid) -> np.ndarray:
    """v_j = int <grad x_j, grad H> dV for the three conformal gradients.

    The gradients and pairing use the round metric (the integrand is the
    metric-independent pairing V(H) = dH(V)); the volume element is
    area_weight times the round element.  Vanishes for the (H, dV) data of
    any immersion.
    """
    H_values = np.asarray(H_values, dtype=float)
    if not np.all(np.isfinite(H_values)):
        raise DataError("obstruction_vector: non-finite H values")
    hf = analyze(H_values, grid)
    jet = synthesize_jet(hf, grid, which=("ft", "fp"))
    vt, vp = conformal_gradients(grid)
    pairing = vt * jet["ft"] + vp * jet["fp"]
    return np.array([integrate(pairing[j], grid, area_weight) for j in range(3)])


# ----------------------------------------------------------------------
# branch points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    """A resolved branch point F_z ~ (z - q)^k G with G.G = 0, G(q) != 0."""

    location: ChartPoint
    order: int
    leading_coefficient: np.ndarray  # complex 3-vector G(q)
    fit_residual: float

    @property
    def null_defect(self) -> float:
        """|G.G| / |G|^2, small for a genuine conformal branch point."""
        G = self.leading_coefficient
        return float(abs(G @ G) / (np.linalg.norm(G) ** 2))


@dataclass(frozen=True)
class BranchScan:
    points: list
    unresolved: list = dataclass_field(default_factory=list)


def _branch_model_residual(z, Fz, q, k):
    """Least-squares fit of Fz ~ (z-q)^k (G0 + G1 (z-q) + G2 conj(z-q))."""
    dz = z - q
    cols = np.stack([dz**k, dz ** (k + 1), dz**k * np.conj(dz)], axis=1)
    scale = np.maximum(np.abs(cols).max(axis=0), 1e-300)
    sol, *_ = np.linalg.lstsq(cols / scale, Fz, rcond=None)
    fit = (cols / scale) @ sol
    res = np.linalg.norm(Fz - fit)
    G0 = sol[0] / scale[0]
    return res, G0


def _refine_location(z, Fz, q0, k, spacing):
    """Shrinking grid search for the branch location minimizing the fit."""
    q, half = q0, 2.0 * spacing
    for _ in range(7):
        grid_pts = [
            q + (a + 1j * b) * half / 2 for a in (-1, 0, 1) for b in (-1, 0, 1)
        ]
        res = [_branch_model_residual(z, Fz, p, k)[0] for p in grid_pts]
        q = grid_pts[int(np.argmin(res))]
        half /= 3.0
    return q


def fit_branch_point(z: np.ndarray, Fz: np.ndarray, q0: complex):
    """Fit a branch model on a sample patch; returns (k, q, G0, rel_residual).

    All orders k = 1..BRANCH_MAX_ORDER are fitted.  Models with k below the
    true order also fit (with a vanishing leading coefficient), so the
    reported order is the largest k whose residual is within a small factor
    of the best fit; returns None if even the best fit exceeds
    BRANCH_FIT_TOL.
    """
    z = np.asarray(z, dtype=complex).ravel()
    Fz = np.asarray(Fz, dtype=complex).reshape(z.size, -1)
    norm = np.linalg.norm(Fz)
    if norm == 0:
        return None
    rms = norm / np.sqrt(z.size)
    spacing = np.median(np.abs(np.diff(np.sort_complex(z)))) + 1e-30
    patch_radius = float(np.abs(z - q0).max())
    acceptable = []
    for k in range(1, BRANCH_MAX_ORDER + 1):
        q = _refine_location(z, Fz, q0, k, spacing)
        res, G0 = _branch_model_residual(z, Fz, q, k)
        rel = res / norm
        # a model of order below the true one fits exactly but with a
        # negligible leading coefficient; demand the k-th term to matter
        # at the patch scale
        significant = np.linalg.norm(G0) * patch_radius**k >= 0.1 * rms
        if rel <= BRANCH_FIT_TOL and significant:
            acceptable.append((k, q, G0, float(rel)))
    if not acceptable:
        return None
    return max(acceptable, key=lambda item: item[0])


def _scan_branch_candidates(absfz, threshold):
    """Grid local minima of |F_z| below a threshold (ties allowed)."""
    below = absfz <= threshold
    if not below.any():
        return []
    local_min = np.ones_like(below)
    shifted = np.roll(absfz, 1, axis=1), np.roll(absfz, -1, axis=1)
    local_min &= (absfz <= shifted[0]) & (absfz <= shifted[1])
    interior_up = absfz[1:] <= absfz[:-1]
    interior_dn = absfz[:-1] <= absfz[1:]
    local_min[1:] &= interior_up
    local_min[:-1] &= interior_dn
    cand = np.argwhere(below & local_min)
    return [tuple(ij) for ij in cand]


def branch_scan(absfz, cluster_radius, patch_at) -> BranchScan:
    """The candidate -> cluster -> fit -> classify loop of sphere and disk.

    ``absfz`` is |F_z| on the caller's node array.  Candidates are its local
    minima below BRANCH_THRESHOLD_FACTOR * median |F_z|, visited by increasing
    |F_z| (ties in row-major node order); one within ``cluster_radius`` of
    an already kept candidate is dropped.  ``patch_at(ij)`` returns the
    candidate's (chart label, chart coordinates z, F_z samples of shape
    (3,) + z.shape, NaN on unusable nodes).  Each kept candidate is fitted
    over the 96 nearest usable nodes; a fit worse than 10% of the local
    |F_z| norm, or one that is not a conformal branch point (G.G ~ 0,
    G != 0), is reported as an unresolved singular point.
    """
    candidates = _scan_branch_candidates(
        absfz, BRANCH_THRESHOLD_FACTOR * float(np.median(absfz))
    )
    kept = []
    for ij in sorted(candidates, key=lambda ij: absfz[ij]):
        z0 = patch_at(ij)[1][ij]
        if all(abs(z0 - zk) > cluster_radius for _, zk in kept):
            kept.append((ij, z0))

    points, unresolved = [], []
    for ij, z0 in kept:
        chart, zc, fz = patch_at(ij)
        dist = np.abs(zc - z0)
        dist[~np.isfinite(fz).all(axis=0)] = np.inf
        idx = np.argsort(dist.ravel())[:96]
        samples = fz.reshape(3, -1)[:, idx].T
        fit = fit_branch_point(zc.ravel()[idx], samples, z0)
        if fit is not None:
            k, q, G0, rel = fit
            bp = BranchPoint(ChartPoint(chart, complex(q)), k, G0, rel)
            if bp.null_defect < 1e-6 and np.linalg.norm(G0) > 1e-6:
                points.append(bp)
                continue
        unresolved.append(ChartPoint(chart, complex(z0)))
    return BranchScan(points=points, unresolved=unresolved)


def detect_branch_points(F: ImmersionField,
                         conformality_tol: float = CONFORMALITY_TOL) -> BranchScan:
    """Locate and classify branch points of a conformal map of the sphere.

    Runs ``branch_scan`` on |F_z| in each node's home chart, fitting
    F_z ~ (z - q)^k G over k in 1..BRANCH_MAX_ORDER in the candidate's home
    chart.
    """
    conf = conformality_residual(F)
    sup = float(np.nanmax(np.abs(conf)))
    if sup > conformality_tol:
        raise ConformalityError(sup)

    fz_home = F.chart_gradient_home()
    absfz = np.sqrt(np.einsum("ctp,ctp->tp", fz_home, np.conj(fz_home)).real)
    home = F.grid.home_chart()
    patches = {c: (c, F.grid.chart_z(c), F.chart_gradient(c)) for c in (NORTH, SOUTH)}
    return branch_scan(absfz, 0.25, lambda ij: patches[home[ij[0]]])


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------

def verify(F: ImmersionField, scan_branches=True) -> dict:
    """Assemble the verification report for an immersion on its grid;
    codazzi_norm means nothing on a branched immersion (codazzi_residual)."""
    grid = F.grid
    forms = fundamental_forms(F)
    area = integrate(np.ones_like(forms.area_weight), grid, forms.area_weight)
    intA2, gauss_identity = _gauss_identity(forms, grid)
    intK = integrate(np.nan_to_num(forms.gauss_curvature), grid, forms.area_weight)
    obstruction = obstruction_vector(
        np.nan_to_num(forms.mean_curvature), forms.area_weight, grid
    )
    conf = conformality_residual(F)
    report = {
        "area": area,
        "intA2": intA2,
        "gauss_identity": gauss_identity,
        "codazzi_norm": codazzi_residual(F),
        "obstruction": obstruction.tolist(),
        "branch_points": [],
        "gauss_bonnet_residual": intK - FOUR_PI,
        "conformality_sup": float(np.nanmax(np.abs(conf))),
        "mc_convention_constant": MC_CONVENTION_CONSTANT,
    }
    if scan_branches and report["conformality_sup"] <= CONFORMALITY_TOL:
        report.update(branch_scan_report(detect_branch_points(F)))
    return report


def branch_scan_report(scan: BranchScan) -> dict:
    """The ``branch_points`` and ``unresolved_singular_points`` report
    entries of a sphere branch scan."""
    return {
        "branch_points": [
            {
                "chart": bp.location.chart,
                "z": [bp.location.z.real, bp.location.z.imag],
                "order": bp.order,
                "G": [[g.real, g.imag] for g in bp.leading_coefficient],
                "null_defect": bp.null_defect,
                "fit_residual": bp.fit_residual,
            }
            for bp in scan.points
        ],
        "unresolved_singular_points": [
            {"chart": p.chart, "z": [p.z.real, p.z.imag]} for p in scan.unresolved
        ],
    }
