"""
Spectral atlas of the unit sphere.

The sphere is discretized on a Gauss-Legendre x uniform longitude grid and
scalar fields are represented by real, orthonormal spherical-harmonic
coefficients (unit L2 norm over the sphere).  Colatitude theta runs from the
north pole (theta = 0) southwards; Gauss-Legendre nodes never include the
poles, so 1/sin(theta) is finite at every node.

Conventions
-----------
 * Basis functions: Y_{l,0} = Q_{l,0}(cos theta),
   Y_{l,m} = sqrt(2) Q_{l,|m|}(cos theta) * cos(m phi)  for m > 0,
   Y_{l,m} = sqrt(2) Q_{l,|m|}(cos theta) * sin(|m| phi) for m < 0,
   where Q_{l,m} is the associated Legendre function normalized so that
   int Y^2 dOmega = 1 (Condon-Shortley phase included).
 * Quadrature weights sum to 4*pi; products of harmonics with total degree
   <= 2L integrate exactly.
 * Two stereographic charts: north chart z = tan(theta/2) e^{i phi}
   (excludes the south pole), south chart z = cot(theta/2) e^{-i phi}
   (excludes the north pole).  On the overlap z_south = 1 / z_north.
   Nodes within ``POLE_MASK_RADIUS`` of a chart's excluded pole are masked
   in that chart; every node is unmasked in at least one chart.

Derivatives of band-limited fields are evaluated pointwise from tables of
theta-derivatives of Q_{l,m} (obtained from the Legendre ODE), so first,
second and third derivatives are exact for band-limited input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, ConfigurationError, DataError

FOUR_PI = 4.0 * np.pi
POLE_MASK_RADIUS = 0.1

NORTH = "north"
SOUTH = "south"


@dataclass(frozen=True)
class ChartPoint:
    """A point in one stereographic chart."""

    chart: str
    z: complex

    def to_other_chart(self) -> "ChartPoint":
        """Transition rule z -> 1/z between the two sphere charts."""
        if self.chart not in (NORTH, SOUTH):
            raise ConfigurationError(f"no transition from chart {self.chart!r}")
        if self.z == 0:
            raise ChartDomainError("transition undefined at the chart origin")
        other = SOUTH if self.chart == NORTH else NORTH
        return ChartPoint(other, 1.0 / self.z)


class HarmonicField:
    """Scalar or 3-vector field stored as real spherical-harmonic coefficients.

    Parameters
    ----------
    coeffs : ndarray, shape (ncomp, L+1, 2L+1)
        Real coefficients; coeffs[c, l, m + L] multiplies Y_{l,m}.
        Entries with |m| > l must be zero.
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 2:
            coeffs = coeffs[None]
        if coeffs.ndim != 3 or coeffs.shape[0] not in (1, 3):
            raise ConfigurationError(
                f"coeffs must have shape (1 or 3, L+1, 2L+1); got {coeffs.shape}"
            )
        L = coeffs.shape[1] - 1
        if coeffs.shape[2] != 2 * L + 1:
            raise ConfigurationError(
                f"coeffs shape {coeffs.shape} inconsistent with degree {L}"
            )
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @classmethod
    def zeros(cls, n_components: int, degree: int) -> "HarmonicField":
        return cls(np.zeros((n_components, degree + 1, 2 * degree + 1)))

    def component(self, c: int) -> "HarmonicField":
        return HarmonicField(self.coeffs[c][None])

    def truncated(self, degree: int) -> "HarmonicField":
        """Zero-pad or truncate to the given degree."""
        L_old, L_new = self.degree, degree
        out = np.zeros((self.n_components, L_new + 1, 2 * L_new + 1))
        L = min(L_old, L_new)
        out[:, : L + 1, L_new - L : L_new + L + 1] = self.coeffs[
            :, : L + 1, L_old - L : L_old + L + 1
        ]
        return HarmonicField(out)


def _gauss_legendre_colatitude(n: int):
    """GL nodes/weights in x = cos(theta), ordered north to south."""
    x, w = np.polynomial.legendre.leggauss(n)
    order = np.argsort(-x)
    return x[order], w[order]


def _alp_tables(L: int, x: np.ndarray):
    """Normalized associated Legendre tables Q[m][l - m, node].

    Q_{l,m}(x) = N_{l,m} P_l^m(x) with int_{-1}^{1} Q^2 dx = 1/(2 pi), built
    by the standard stable three-term recurrence (Condon-Shortley phase).
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    tables = []
    qmm = np.full_like(x, 1.0 / np.sqrt(FOUR_PI))
    for m in range(L + 1):
        if m > 0:
            qmm = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * qmm
        block = np.empty((L + 1 - m, x.size))
        block[0] = qmm
        if m < L:
            block[1] = np.sqrt(2 * m + 3.0) * x * qmm
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            block[l - m] = a * (x * block[l - m - 1] - b * block[l - m - 2])
        tables.append(block)
    return tables


def _alp_theta_derivatives(L, Q, x, sin_theta, order=3):
    """Tables of d^n Q_{l,m}/d theta^n for n = 1..order via the Legendre ODE."""
    cot = x / sin_theta
    inv_s2 = 1.0 / sin_theta**2
    dQ, d2Q, d3Q = [], [], []
    for m in range(L + 1):
        ls = np.arange(m, L + 1)[:, None].astype(float)
        lam = ls * (ls + 1.0)
        block = Q[m]
        prev = np.zeros_like(block)
        prev[1:] = block[:-1]  # Q_{l-1,m}, zero when l-1 < m
        c = np.sqrt(np.maximum(0.0, (ls**2 - m * m) * (2 * ls + 1) / (2 * ls - 1)))
        d1 = (ls * x * block - c * prev) / sin_theta
        dQ.append(d1)
        if order >= 2:
            pot = lam - m * m * inv_s2
            d2 = -cot * d1 - pot * block
            d2Q.append(d2)
        if order >= 3:
            d3 = (
                -cot * d2
                + inv_s2 * d1
                - pot * d1
                - 2.0 * m * m * (x / sin_theta**3) * block
            )
            d3Q.append(d3)
    return dQ, d2Q, d3Q


class SphericalGrid:
    """Gauss-Legendre x uniform pseudospectral grid of degree L.

    Immutable after construction; (L+1) colatitude nodes, (2L+2) longitudes,
    quadrature weights summing to 4*pi.
    """

    def __init__(self, degree: int):
        if degree < 1:
            raise ConfigurationError("grid degree must be >= 1")
        self.L = int(degree)
        L = self.L
        self.x_gl, self.w_gl = _gauss_legendre_colatitude(L + 1)
        self.theta = np.arccos(self.x_gl)
        self.n_theta = L + 1
        self.n_phi = 2 * L + 2
        self.delta_phi = 2.0 * np.pi / self.n_phi
        self.phi = self.delta_phi * np.arange(self.n_phi)
        self.w = np.outer(self.w_gl, np.full(self.n_phi, self.delta_phi))
        self.sin_theta = np.sin(self.theta)
        self.cos_theta = self.x_gl

        st = self.sin_theta[:, None]
        self.xyz = np.stack(
            [
                st * np.cos(self.phi)[None, :],
                st * np.sin(self.phi)[None, :],
                np.broadcast_to(self.cos_theta[:, None], (self.n_theta, self.n_phi)),
            ]
        )

        m = np.arange(L + 1)
        self._cos_m = np.cos(np.outer(m, self.phi))
        self._sin_m = np.sin(np.outer(m, self.phi))

        self._Q = _alp_tables(L, self.x_gl)
        self._dQ, self._d2Q, self._d3Q = _alp_theta_derivatives(
            L, self._Q, self.x_gl, self.sin_theta
        )
        # the transforms sum over m in one batched product: the n-th theta
        # derivative tables zero-padded to [n, m, l, node] (zero where
        # l < m), and the p-th phi-derivatives of sqrt(2) cos(m phi) and
        # sqrt(2) sin(m phi) as [p, (cos, sin), m, longitude] (1 and 0 at
        # m = 0)
        # (the ragged lists become views into the padded tables)
        self._theta_tables = np.zeros((4, L + 1, L + 1, L + 1))
        for n, tab in enumerate((self._Q, self._dQ, self._d2Q, self._d3Q)):
            for k in range(L + 1):
                self._theta_tables[n, k, k:] = tab[k]
        self._Q, self._dQ, self._d2Q, self._d3Q = (
            [padded[k, k:] for k in range(L + 1)] for padded in self._theta_tables
        )
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))[:, None]
        c, s, mm = scale * self._cos_m, scale * self._sin_m, m[:, None]
        self._azimuthal_tables = np.stack([
            (c, s), (-mm * s, mm * c), (-mm**2 * c, -mm**2 * s), (mm**3 * s, -mm**3 * c)
        ])

    # ------------------------------------------------------------------
    # charts
    # ------------------------------------------------------------------

    def chart_mask(self, chart: str) -> np.ndarray:
        """Boolean (n_theta, n_phi) mask of nodes usable in the chart."""
        if chart == NORTH:
            ok = (np.pi - self.theta) > POLE_MASK_RADIUS
        elif chart == SOUTH:
            ok = self.theta > POLE_MASK_RADIUS
        else:
            raise ConfigurationError(f"unknown chart {chart!r}")
        return np.broadcast_to(ok[:, None], (self.n_theta, self.n_phi)).copy()

    def home_chart(self) -> np.ndarray:
        """Per-theta-row chart assignment: north on the upper hemisphere."""
        return np.where(self.theta <= np.pi / 2, NORTH, SOUTH)

    def chart_z(self, chart: str) -> np.ndarray:
        """Complex stereographic coordinate of every node in the chart."""
        if chart == NORTH:
            return np.tan(self.theta / 2)[:, None] * np.exp(1j * self.phi)[None, :]
        if chart == SOUTH:
            with np.errstate(divide="ignore"):
                rho = 1.0 / np.tan(self.theta / 2)
            return rho[:, None] * np.exp(-1j * self.phi)[None, :]
        raise ConfigurationError(f"unknown chart {chart!r}")


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

_AZIMUTHAL_POWERS = {
    "f": 0, "ft": 0, "ftt": 0, "fttt": 0,
    "fp": 1, "ftp": 1, "fttp": 1,
    "fpp": 2, "ftpp": 2,
    "fppp": 3,
    "lap": 0,
}
_THETA_TABLE = {
    "f": 0, "fp": 0, "fpp": 0, "fppp": 0, "lap": 0,
    "ft": 1, "ftp": 1, "ftpp": 1,
    "ftt": 2, "fttp": 2,
    "fttt": 3,
}


def synthesize_jet(field: HarmonicField, grid: SphericalGrid, which=("f",)):
    """Evaluate a band-limited field and requested derivatives at all nodes.

    ``which`` may contain "f", "ft", "fp", "ftt", "ftp", "fpp", "fttt",
    "fttp", "ftpp", "fppp" (theta/phi derivatives) and "lap" (the
    Laplace-Beltrami operator, applied in coefficient space).  Returns a dict
    of arrays with shape (ncomp, n_theta, n_phi).  All outputs are exact for
    band-limited input up to rounding.
    """
    if field.degree > grid.L:
        raise ConfigurationError(
            f"field degree {field.degree} exceeds grid degree {grid.L}"
        )
    Lf = field.degree
    # [c, m, l]: the cos(m phi) coefficients, and the sin(m phi) ones (m >= 1;
    # the m = 0 row meets the vanishing sin(0 phi) factors below)
    ca = field.coeffs[:, :, Lf:].transpose(0, 2, 1)
    cb = field.coeffs[:, :, Lf::-1].transpose(0, 2, 1)
    lam = -np.arange(Lf + 1) * (np.arange(Lf + 1) + 1.0)
    out = {}
    for key in which:
        tab = grid._theta_tables[_THETA_TABLE[key]][: Lf + 1, : Lf + 1]  # [m, l, t]
        az_a, az_b = grid._azimuthal_tables[_AZIMUTHAL_POWERS[key]]
        wa, wb = (ca, cb) if key != "lap" else (ca * lam, cb * lam)
        # theta profiles [c, t, m], then the sum over m against the longitudes
        out[key] = (np.einsum("mlt,cml->ctm", tab, wa) @ az_a[: Lf + 1]
                    + np.einsum("mlt,cml->ctm", tab, wb) @ az_b[: Lf + 1])
    return out


def synthesize_jet_adjoint(jet: dict, grid: SphericalGrid) -> np.ndarray:
    """Adjoint of ``synthesize_jet`` at the grid's degree.

    ``jet`` maps keys of ``synthesize_jet`` to node arrays of shape
    (ncomp, n_theta, n_phi) (or (ncomp, n_nodes)), any number of components.
    Returns coefficients a of shape (ncomp, L+1, 2L+1), zero where |m| > l,
    with sum_k <synthesize_jet(f, grid, jet.keys())[k], jet[k]> = <f, a> in
    the Euclidean products of node values and of coefficients, for every
    field f of degree L.  No quadrature weights enter: ``analyze`` is the
    weighted projection, this is the transpose.
    """
    L = grid.L
    lam = -np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    ca = cb = 0.0
    for key, vals in jet.items():
        vals = np.asarray(vals, dtype=float)
        vals = vals.reshape(vals.shape[0], grid.n_theta, grid.n_phi)
        tab = grid._theta_tables[_THETA_TABLE[key]]
        az_a, az_b = grid._azimuthal_tables[_AZIMUTHAL_POWERS[key]]
        pa = np.einsum("mlt,ctm->cml", tab, vals @ az_a.T)
        pb = np.einsum("mlt,ctm->cml", tab, vals @ az_b.T)
        if key == "lap":
            pa, pb = pa * lam, pb * lam
        ca, cb = ca + pa, cb + pb
    coeffs = np.zeros((ca.shape[0], L + 1, 2 * L + 1))
    coeffs[:, :, L:] = ca.transpose(0, 2, 1)
    coeffs[:, :, L - 1 :: -1] = cb[:, 1:].transpose(0, 2, 1)
    return coeffs


def synthesize(field: HarmonicField, grid: SphericalGrid) -> np.ndarray:
    """Node values of a band-limited field; shape (ncomp, n_theta, n_phi).

    Scalar fields (one component) are returned as (n_theta, n_phi).
    """
    vals = synthesize_jet(field, grid, which=("f",))["f"]
    return vals[0] if field.n_components == 1 else vals


def analyze(values: np.ndarray, grid: SphericalGrid) -> HarmonicField:
    """Project node values onto harmonics of degree <= L by quadrature.

    Exact inverse of ``synthesize`` on band-limited fields; otherwise the
    least-squares/quadrature projection.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataError("analyze: input values contain non-finite entries")
    squeeze = values.ndim == 2
    if squeeze:
        values = values[None]
    if values.shape[1:] != (grid.n_theta, grid.n_phi):
        raise ConfigurationError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_theta}, {grid.n_phi})"
        )
    L = grid.L
    nc = values.shape[0]
    # azimuthal projections: (nc, n_theta, L+1)
    vc = np.einsum("ctp,mp->ctm", values, grid._cos_m) * grid.delta_phi
    vs = np.einsum("ctp,mp->ctm", values, grid._sin_m) * grid.delta_phi
    coeffs = np.zeros((nc, L + 1, 2 * L + 1))
    wgl = grid.w_gl
    for m in range(L + 1):
        scale = 1.0 if m == 0 else np.sqrt(2.0)
        proj = grid._Q[m] * wgl[None, :]  # (nl, n_theta)
        coeffs[:, m:, L + m] = scale * np.einsum("lt,ct->cl", proj, vc[:, :, m])
        if m > 0:
            coeffs[:, m:, L - m] = scale * np.einsum("lt,ct->cl", proj, vs[:, :, m])
    return HarmonicField(coeffs)


def synthesize_at(field: HarmonicField, theta, phi) -> np.ndarray:
    """Evaluate a field at arbitrary points (theta, phi); shape (ncomp, npts)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    Q = _alp_tables(field.degree, np.cos(theta))
    Lf = field.degree
    vals = np.zeros((field.n_components, theta.size))
    for m in range(Lf + 1):
        ca = field.coeffs[:, m : Lf + 1, Lf + m]
        profA = np.einsum("cl,lt->ct", ca, Q[m])
        if m == 0:
            vals += profA
            continue
        cb = field.coeffs[:, m : Lf + 1, Lf - m]
        profB = np.einsum("cl,lt->ct", cb, Q[m])
        vals += np.sqrt(2.0) * (
            profA * np.cos(m * phi)[None, :] + profB * np.sin(m * phi)[None, :]
        )
    return vals


def integrate(values: np.ndarray, grid: SphericalGrid, weight=None) -> float:
    """Quadrature of ``values`` (optionally against an area-weight field)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataError("integrate: non-finite values")
    integrand = values * grid.w
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if not np.all(np.isfinite(weight)):
            raise DataError("integrate: non-finite weight")
        integrand = integrand * weight
    return float(np.sum(integrand))


# ----------------------------------------------------------------------
# chart-coordinate derivatives
# ----------------------------------------------------------------------

def chart_gradient_from_jet(ft, fp, grid: SphericalGrid, chart: str) -> np.ndarray:
    """F_z from (theta, phi) derivatives by the exact stereographic chain
    rule; nodes masked in the chart are NaN."""
    theta = grid.theta[:, None]
    half = theta / 2
    if chart == NORTH:
        phase = np.exp(-1j * grid.phi)[None, :]
        fz = 0.5 * phase * (2 * np.cos(half) ** 2 * ft - 1j / np.tan(half) * fp)
    elif chart == SOUTH:
        phase = np.exp(1j * grid.phi)[None, :]
        fz = 0.5 * phase * (-2 * np.sin(half) ** 2 * ft + 1j * np.tan(half) * fp)
    else:
        raise ConfigurationError(f"unknown chart {chart!r}")
    fz[..., ~grid.chart_mask(chart)] = np.nan
    return fz


def chart_gradient(field, grid: SphericalGrid, chart: str, nodes=None) -> np.ndarray:
    """Complex chart derivative F_z = (F_u - i F_v)/2 at grid nodes.

    ``field`` may be a HarmonicField or an array of node values (which is
    first projected onto harmonics of degree <= L).  Nodes masked in the
    chart are returned as NaN.  If ``nodes`` is given as an index pair
    (i_idx, j_idx), only those nodes are returned, and requesting a masked
    node raises ChartDomainError.
    """
    if not isinstance(field, HarmonicField):
        field = analyze(field, grid)
    jet = synthesize_jet(field, grid, which=("ft", "fp"))
    fz = chart_gradient_from_jet(jet["ft"], jet["fp"], grid, chart)
    if field.n_components == 1:
        fz = fz[0]
    if nodes is not None:
        i_idx, j_idx = nodes
        if not np.all(grid.chart_mask(chart)[i_idx, j_idx]):
            raise ChartDomainError(
                f"requested node(s) are masked in the {chart} chart"
            )
        return fz[..., i_idx, j_idx]
    return fz


def conformal_gradients(grid: SphericalGrid):
    """Round-metric gradients of the coordinate functions x_j at every node.

    Returns (vt, vp), each of shape (3, n_theta, n_phi): the theta and phi
    components of grad x_j = dx_j/dtheta d_theta + dx_j/dphi / sin^2 d_phi,
    the conformal vector fields of the sphere.  The derivative of a field f
    along grad x_j is vt[j] * f_theta + vp[j] * f_phi.
    """
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    cp, sp = np.cos(grid.phi)[None, :], np.sin(grid.phi)[None, :]
    shape = (grid.n_theta, grid.n_phi)
    vt = np.stack([ct * cp, ct * sp, np.broadcast_to(-st, shape)])
    vp = np.stack([-sp / st, cp / st, np.zeros(shape)])
    return vt, vp


def chart_area_factors(grid: SphericalGrid, chart: str) -> np.ndarray:
    """Conformal factor mu^{-2} with flat chart metric = mu^2 * round metric.

    Satisfies F_{zbar z} = (mu^{-2} / 4) * Laplace_round F in the chart.
    One value per theta-row; chart "home" takes each row's home chart.
    """
    if chart == "home":
        return np.where(grid.home_chart() == NORTH,
                        chart_area_factors(grid, NORTH), chart_area_factors(grid, SOUTH))
    if chart == NORTH:
        return 4.0 * np.cos(grid.theta / 2) ** 4
    if chart == SOUTH:
        return 4.0 * np.sin(grid.theta / 2) ** 4
    raise ConfigurationError(f"unknown chart {chart!r}")


def per_node_home_values(north: np.ndarray, south: np.ndarray, grid: SphericalGrid):
    """Merge two chart arrays picking each theta-row's home chart.

    Arrays must have trailing shape (n_theta, n_phi); broadcasting applies
    to leading axes.
    """
    home_north = (grid.home_chart() == NORTH)[:, None]
    return np.where(home_north, north, south)
