"""
Differential geometry of immersions F: S^2 -> R^3.

Fundamental forms are assembled pointwise from exact spectral derivatives of
the (band-limited) component fields in grid coordinates (theta, phi) by one
kernel, pointwise_forms, which every curvature of the package reads; its
first-order part, first_order_forms (g, g^-1, n = F_theta x F_phi, |n|, N),
runs from F_a alone and is the one place that forms n, for the solver's
residual and Jacobian too.  An ImmersionField runs the kernel once, and all
but the branch fits read that evaluation: the chart residual F_z . F_z and
lambda^2 = 2|F_z|^2 come from the metric (conformality_defect), and F_z is
formed only where the fits need chart coordinates.  Its home-chart F_z . F_z
is computed once per immersion (ImmersionField.conformality) and gates
mc_residual, the branch scan and verify.  All reported scalars (H, K,
|A|^2, area element) are parametrization-invariant.  verify is the one
report of an immersion: on a conformal map it scans for branch points, and
it reports codazzi_norm as null when the scan finds a branch point or an
unresolved singular point.

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
from functools import cached_property

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

    Derivative jets, the kernel's evaluation on them, the fundamental forms,
    the home-chart F_z . F_z and each chart's F_z are computed lazily, once;
    the object is immutable.
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

    @cached_property
    def pointwise(self) -> dict:
        """pointwise_forms of the (theta, phi) jet up to second order."""
        jet = self.jet("ft", "fp", "ftt", "ftp", "fpp")
        return pointwise_forms(*jet_derivatives(jet))

    @cached_property
    def forms(self) -> "FundamentalForms":
        """The fundamental forms, read from ``pointwise``."""
        p = self.pointwise
        # global orientation fix: outward normal where |F|^2 is maximal
        vals = self.jet("f")["f"]
        r2 = np.einsum("ctp,ctp->tp", vals, vals)
        flat = np.argmax(np.where(p["singular"], -np.inf, r2))
        i0, j0 = np.unravel_index(flat, r2.shape)
        flipped = bool(p["H"][i0, j0] < 0)
        sgn = -1.0 if flipped else 1.0
        (g_tt, _), (_, g_pp) = p["g"]
        sin = self.grid.sin_theta[:, None]
        mu2inv = chart_area_factors(self.grid, "home")[:, None]
        return FundamentalForms(
            gamma=np.array(p["g"]),
            normal=sgn * p["normal"],
            second_form=sgn * np.array(p["A"]),
            mean_curvature=sgn * p["H"],
            gauss_curvature=p["K"],
            norm2_A=p["A2"],
            conformal_factor=0.5 * mu2inv * (g_tt + g_pp / sin**2),
            area_weight=p["cross_norm"] / sin,
            singular=p["singular"],
            orientation_flipped=flipped,
        )

    @cached_property
    def conformality(self) -> np.ndarray:
        """conformality_residual in each node's home chart."""
        return conformality_residual(self)

    @cached_property
    def conformality_sup(self) -> float:
        """sup |F_z . F_z| over the nodes, the quantity CONFORMALITY_TOL gates."""
        return float(np.nanmax(np.abs(self.conformality)))

    @property
    def is_regular(self) -> bool:
        """Immersion flag: min |F_z|^2 = lambda^2/2 over nodes > IMMERSION_EPSILON."""
        return bool(np.nanmin(0.5 * self.forms.conformal_factor) > IMMERSION_EPSILON)


@dataclass(frozen=True)
class FundamentalForms:
    """Per-node first/second fundamental forms and derived curvatures.

    gamma and second_form hold the (theta, phi) grid-coordinate components
    [[g_tt, g_tp], [g_tp, g_pp]]; conformal_factor is lambda^2 = 2 F_z.Fbar_z
    = (1/2) mu^-2 (g_tt + g_pp/sin^2) in each node's home chart.  area_weight
    is the ratio of the induced to the round area element, sqrt(det gamma)/
    sin(theta).  Singular nodes (|n| below threshold) carry NaN and are
    flagged.
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


def first_order_forms(d1):
    """The pointwise geometry of an immersion from d1[a] = F_a alone (each
    (3, n, m)) in any two coordinates: the metric g, det_g, ginv (from the
    raw det_g), the normal cross = n = F_0 x F_1, cross_norm = |n|, N = n/|n|
    and the mask singular = |n| <= SINGULAR_CROSS_THRESHOLD.  The one place
    that forms F_0 x F_1.
    """
    g01 = _dot(d1[0], d1[1])
    g = [[_dot(d1[0], d1[0]), g01], [g01, _dot(d1[1], d1[1])]]
    det_g = g[0][0] * g[1][1] - g01 ** 2
    n = np.cross(d1[0], d1[1], axis=0)
    W = np.sqrt(_dot(n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ginv01 = -g01 / det_g
        ginv = [[g[1][1] / det_g, ginv01], [ginv01, g[0][0] / det_g]]
        N = n / W
    return {"g": g, "det_g": det_g, "ginv": ginv, "cross": n, "normal": N,
            "cross_norm": W, "singular": W <= SINGULAR_CROSS_THRESHOLD}


def pointwise_forms(d1, d2):
    """first_order_forms of d1 and, from d2[a][b] = F_ab, the second form
    A[a][b] = -<F_ab, N> and H, K and A2 = |A|^2, NaN on the singular nodes.
    """
    p = first_order_forms(d1)
    g, N, singular = p["g"], p["normal"], p["singular"]
    A01 = -_dot(d2[0][1], N)
    A = [[-_dot(d2[0][0], N), A01], [A01, -_dot(d2[1][1], N)]]

    det_g_safe = np.where(singular, 1.0, p["det_g"])
    H = (g[1][1] * A[0][0] - 2 * g[0][1] * A[0][1] + g[0][0] * A[1][1]) / det_g_safe
    K = (A[0][0] * A[1][1] - A[0][1] * A[0][1]) / det_g_safe
    # |A|^2 = tr((g^-1 A)^2) = H^2 - 2K
    A2 = H * H - 2 * K
    for arr in (H, K, A2):
        arr[singular] = np.nan
    p.update(A=A, H=H, K=K, A2=A2)
    return p


def jet_derivatives(jet: dict):
    """(d1, d2) of pointwise_forms from a grid jet ft..fpp of F."""
    return ([jet["ft"], jet["fp"]],
            [[jet["ftt"], jet["ftp"]], [jet["ftp"], jet["fpp"]]])


def metric_derivatives(d1, d2, ginv):
    """dg[c][a][b] = d_c g_ab, dginv[c][a][b] = d_c g^ab and the Christoffel
    symbols Gamma[d][a][b] = Gamma^d_ab of the induced metric."""
    dg = [[[_dot(d2[c][a], d1[b]) + _dot(d1[a], d2[c][b]) for b in (0, 1)]
           for a in (0, 1)] for c in (0, 1)]
    dginv = [[[-sum(ginv[a][e] * dg[c][e][f] * ginv[f][b]
                    for e in (0, 1) for f in (0, 1))
               for b in (0, 1)] for a in (0, 1)] for c in (0, 1)]
    Gamma = [[[0.5 * sum(ginv[d][c] * (dg[a][c][b] + dg[b][c][a] - dg[c][a][b])
                         for c in (0, 1))
               for b in (0, 1)] for a in (0, 1)] for d in (0, 1)]
    return dg, dginv, Gamma


def fundamental_forms(F: ImmersionField) -> FundamentalForms:
    """First and second fundamental forms, curvatures and area weight of F
    (computed once per immersion, then cached on F)."""
    return F.forms


# ----------------------------------------------------------------------
# residuals of the structure equations
# ----------------------------------------------------------------------

def conformality_residual(F: ImmersionField, chart="home") -> np.ndarray:
    """F_z . F_z per node in a stereographic chart (zero iff the
    parametrization is conformal), read from the metric:
    (1/4) mu^-2 e^{-+2i phi} (q1 - i q2) with (q1, q2) = conformality_defect,
    - in the north chart and + in the south.  "home" takes each theta-row's
    home chart (ImmersionField.conformality caches it); nodes masked in a
    chart are NaN."""
    grid = F.grid
    rows = grid.home_chart() if chart == "home" else np.full(grid.n_theta, chart)
    phase = np.exp(np.where(rows == NORTH, -2j, 2j)[:, None] * grid.phi)
    q1, q2 = conformality_defect(F.pointwise["g"], grid.sin_theta[:, None])
    conf = 0.25 * chart_area_factors(grid, chart)[:, None] * phase * (q1 - 1j * q2)
    if chart != "home":
        conf[~grid.chart_mask(chart)] = np.nan
    return conf


def mc_residual(F: ImmersionField, H_target: np.ndarray) -> np.ndarray:
    """Calibrated mean-curvature residual F_{zbar z} + (i/2) H (Fbar_z x F_z).

    Requires a conformal parametrization (sup |F_z . F_z| within
    CONFORMALITY_TOL); raises ConformalityError carrying the offending
    sup-norm otherwise.  Returns a real (3, n_theta, n_phi) array in each
    node's home chart (F_{zbar z} and i Fbar_z x F_z are both real): the
    chart-free residual times mu^{-2}.
    """
    if F.conformality_sup > CONFORMALITY_TOL:
        raise ConformalityError(F.conformality_sup)
    r_global = mc_residual_global(F.jet("lap")["lap"], F.pointwise["cross"],
                                  np.asarray(H_target, float), F.grid)
    return chart_area_factors(F.grid, "home")[None, :, None] * r_global


def conformality_defect(g, sin):
    """(q1, q2) = (g_tt - g_pp / sin^2, 2 g_tp / sin) of the metric g in
    (theta, phi), zero iff conformal: F_z . F_z = (1/4) mu^-2 e^{-+2i phi}
    (q1 - i q2) in a stereographic chart.  sin = sin theta broadcasts."""
    (g_tt, g_tp), (_, g_pp) = g
    return g_tt - g_pp / sin**2, 2.0 * g_tp / sin


def mc_residual_global(lap, n, H_target, grid: SphericalGrid) -> np.ndarray:
    """Chart-free residual (1/4)(Lap_round F + H n / sin theta) from the
    node arrays lap = Lap_round F and n = F_theta x F_phi (first_order_forms),
    each (3, n_theta, n_phi).

    Equals mu^2 times the chart residual in either stereographic chart;
    real-valued; vanishes iff F is a conformal immersion of mean curvature
    H_target in the chart orientation.
    """
    return 0.25 * (lap + H_target[None, :, :] * (n / grid.sin_theta[None, :, None]))


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
    spectral tables of F, so no tensor component is re-expanded; g, N, A
    and H come from the immersion's one pointwise_forms evaluation (H read
    as 0 on its singular nodes, as verify reads it for the obstruction).
    Meaningless at a branch point: the integrand grows without bound as a
    node nears one (1.1 to 7e7 on z^2 and z^3 maps with branch points 1e-6
    from a node at L = 48, at most 2e-14 on unbranched spheres), so verify
    reports null when its scan finds one.  With no node near the branch
    point it reads rounding: on band-limited jets the identity holds
    wherever n != 0.
    """
    jet = F.jet("ft", "fp", "ftt", "ftp", "fpp", "fttt", "fttp", "ftpp", "fppp")
    d1, d2 = jet_derivatives(jet)
    p = F.pointwise
    g, ginv, N, W, A = (p[k] for k in ("g", "ginv", "normal", "cross_norm", "A"))
    H = np.nan_to_num(p["H"])
    dg, dginv, Gamma = metric_derivatives(d1, d2, ginv)

    def third(a, b, c):  # F_abc, coordinate 0 = theta ("t"), 1 = phi ("p")
        return jet["f" + "".join("tp"[i] for i in sorted((a, b, c)))]

    dn = [np.cross(d2[c][0], d1[1], axis=0) + np.cross(d1[0], d2[c][1], axis=0)
          for c in (0, 1)]
    dN = [(dn[c] - N * _dot(N, dn[c])[None]) / W for c in (0, 1)]

    dA = [[[-_dot(third(c, a, b), N) - _dot(d2[a][b], dN[c]) for b in (0, 1)]
           for a in (0, 1)] for c in (0, 1)]

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
    return float(np.sqrt(integrate(norm2, F.grid, F.forms.area_weight)))


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


def _branch_model_fits(z, Fz, q, k):
    """Least-squares fits of Fz ~ (z-q)^k (G0 + G1 (z-q) + G2 conj(z-q)),
    one per entry of ``q`` and ``k`` broadcast together; returns the
    residual norms and the G0 of each.

    All fits are one stacked solve by SVD pseudo-inverse with lstsq's
    default cutoff (eps * n_samples * s_max), so a rank-deficient patch
    gets lstsq's minimum-norm answer.
    """
    q, k = np.broadcast_arrays(q, k)
    dz = z - q[..., None]
    kk = k[..., None]
    cols = np.stack([dz**kk, dz ** (kk + 1), dz**kk * np.conj(dz)], axis=-1)
    scale = np.maximum(np.abs(cols).max(axis=-2, keepdims=True), 1e-300)
    a = cols / scale
    sol = np.linalg.pinv(a, rcond=np.finfo(float).eps * max(a.shape[-2:])) @ Fz
    res = np.linalg.norm(Fz - a @ sol, axis=(-2, -1))
    return res, sol[..., 0, :] / scale[..., 0]


def _refine_locations(z, Fz, q0, k, spacing):
    """Shrinking grid searches, one per order in ``k``, for the branch
    location minimizing each order's fit; every round fits all orders'
    3 x 3 trial points in one stacked solve."""
    offsets = np.array([a + 1j * b for a in (-1, 0, 1) for b in (-1, 0, 1)])
    q, half = np.full(k.shape, complex(q0)), 2.0 * spacing
    for _ in range(7):
        trial = q[:, None] + offsets * half / 2
        res, _ = _branch_model_fits(z, Fz, trial, k[:, None])
        q = trial[np.arange(k.size), np.argmin(res, axis=1)]
        half /= 3.0
    return q


def fit_branch_point(z: np.ndarray, Fz: np.ndarray, q0: complex):
    """Fit a branch model on a sample patch; returns (k, q, G0, rel_residual).

    All orders k = 1..BRANCH_MAX_ORDER are fitted together: each of the 7
    rounds of the location search is one stacked solve over every order's
    3 x 3 trial points, and the final fits at the chosen locations one more,
    8 solves per patch.  Models with k below the true order also fit (with
    a vanishing leading coefficient), so the reported order is the largest
    k whose fit is within BRANCH_FIT_TOL and whose leading term matters at
    the patch scale; returns None if no order qualifies.
    """
    z = np.asarray(z, dtype=complex).ravel()
    Fz = np.asarray(Fz, dtype=complex).reshape(z.size, -1)
    norm = np.linalg.norm(Fz)
    if norm == 0:
        return None
    rms = norm / np.sqrt(z.size)
    spacing = _median(np.abs(np.diff(np.sort_complex(z)))) + 1e-30
    patch_radius = float(np.abs(z - q0).max())
    orders = np.arange(1, BRANCH_MAX_ORDER + 1)
    q = _refine_locations(z, Fz, q0, orders, spacing)
    res, G0 = _branch_model_fits(z, Fz, q, orders)
    acceptable = []
    for k, qk, rel, G0k in zip(orders.tolist(), q.tolist(), (res / norm).tolist(), G0):
        # a model of order below the true one fits exactly but with a
        # negligible leading coefficient; demand the k-th term to matter
        # at the patch scale
        significant = np.linalg.norm(G0k) * patch_radius**k >= 0.1 * rms
        if rel <= BRANCH_FIT_TOL and significant:
            acceptable.append((k, qk, G0k, rel))
    if not acceptable:
        return None
    return max(acceptable, key=lambda item: item[0])


def _median(a):
    """np.median of all of a (finite), bit for bit, without the numpy.ma
    import that np.median makes on first use: the mean of the two middle
    order statistics (one for an odd size)."""
    a = np.ravel(a)
    lo, hi = (a.size - 1) // 2, a.size // 2
    return np.mean(np.partition(a, [lo, hi])[lo:hi + 1])


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


def branch_scan(absfz, cluster_radius, chart_at, fz_of) -> BranchScan:
    """The candidate -> cluster -> fit -> classify loop of sphere and disk.

    ``absfz`` is |F_z| on the caller's node array.  Candidates are its local
    minima below BRANCH_THRESHOLD_FACTOR * median |F_z|, visited by increasing
    |F_z| (ties in row-major node order); one within ``cluster_radius`` of
    an already kept candidate is dropped.  ``chart_at(ij)`` returns the
    candidate's chart label and chart coordinates z of every node;
    ``fz_of(label)`` the chart's F_z samples of shape (3,) + z.shape, NaN on
    unusable nodes, asked for kept candidates only.  Each kept candidate is
    fitted over the 96 nearest usable nodes by ``fit_branch_point``, whose
    location search runs all orders in one batched solve per round; a
    fit worse than 10% of the local |F_z| norm, or one that is not a
    conformal branch point (G.G ~ 0, G != 0), is reported as an
    unresolved singular point.
    """
    candidates = _scan_branch_candidates(
        absfz, BRANCH_THRESHOLD_FACTOR * float(_median(absfz))
    )
    kept = []
    for ij in sorted(candidates, key=lambda ij: absfz[ij]):
        z0 = chart_at(ij)[1][ij]
        if all(abs(z0 - zk) > cluster_radius for _, zk in kept):
            kept.append((ij, z0))

    points, unresolved = [], []
    for ij, z0 in kept:
        chart, zc = chart_at(ij)
        fz = fz_of(chart)
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


def detect_branch_points(F: ImmersionField) -> BranchScan:
    """Locate and classify branch points of a conformal map of the sphere.

    Raises ConformalityError when sup |F_z . F_z| exceeds CONFORMALITY_TOL:
    the fits assume G.G = 0.  Runs ``branch_scan`` on |F_z| =
    sqrt(lambda^2 / 2) in each node's home chart, fitting F_z ~ (z - q)^k G
    over k in 1..BRANCH_MAX_ORDER in the candidate's home chart; a chart's
    F_z is formed only for the fits.
    """
    if F.conformality_sup > CONFORMALITY_TOL:
        raise ConformalityError(F.conformality_sup)
    absfz = np.sqrt(0.5 * F.forms.conformal_factor)
    home = F.grid.home_chart()
    z = {c: F.grid.chart_z(c) for c in (NORTH, SOUTH)}
    return branch_scan(absfz, 0.25, lambda ij: (home[ij[0]], z[home[ij[0]]]),
                       F.chart_gradient)


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------

def verify(F: ImmersionField) -> dict:
    """Assemble the verification report for an immersion on its grid.

    On a conformal F (conformality_sup within CONFORMALITY_TOL) the branch
    scan runs first and fills branch_points and unresolved_singular_points;
    when either is non-empty, codazzi_norm is null with a codazzi_unavailable
    reason (codazzi_residual is unbounded there).  A non-conformal F is not
    scanned: its branch_points and unresolved_singular_points are None.
    """
    grid = F.grid
    forms = fundamental_forms(F)
    scan = detect_branch_points(F) if F.conformality_sup <= CONFORMALITY_TOL else None
    branched = scan is not None and bool(scan.points or scan.unresolved)
    area = integrate(np.ones_like(forms.area_weight), grid, forms.area_weight)
    intA2, gauss_identity = _gauss_identity(forms, grid)
    intK = integrate(np.nan_to_num(forms.gauss_curvature), grid, forms.area_weight)
    obstruction = obstruction_vector(
        np.nan_to_num(forms.mean_curvature), forms.area_weight, grid
    )
    report = {
        "area": area,
        "intA2": intA2,
        "gauss_identity": gauss_identity,
        "codazzi_norm": None if branched else codazzi_residual(F),
        "obstruction": obstruction.tolist(),
        "branch_points": None if scan is None else [
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
        "gauss_bonnet_residual": intK - FOUR_PI,
        "conformality_sup": F.conformality_sup,
        "mc_convention_constant": MC_CONVENTION_CONSTANT,
        "unresolved_singular_points": None if scan is None else [
            {"chart": p.chart, "z": [p.z.real, p.z.imag]} for p in scan.unresolved
        ],
    }
    if branched:
        report["codazzi_unavailable"] = (
            f"the branch scan found {len(scan.points)} branch point(s) and "
            f"{len(scan.unresolved)} unresolved singular point(s); the Codazzi "
            "integrand is unbounded near a branch point"
        )
    return report
