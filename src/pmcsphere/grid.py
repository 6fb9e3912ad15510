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

Derivatives of band-limited fields are evaluated pointwise, so first,
second and third derivatives are exact for band-limited input up to
rounding.  One table holds Q_{l,m} and dQ_{l,m}/dtheta (from the Legendre
ODE) at the nodes, zero-padded to [n, m, node, l] with n in {0, 1}: each
order m is a ready (node, l) matrix.  phi-derivatives scale and swap the
cos/sin profiles of each order, and the Laplacian weights degree l by
-l(l+1).  The second and third theta-derivatives are not tabled: they are
per-row combinations of those, from the round Laplacian
f_tt = lap f - cot f_t - f_pp / sin^2 and its derivatives (``_expansion``).

The table serves one transform pair: ``synthesize_jet`` (one batched
product per table level, then one product over m per key) and its
transpose ``synthesize_jet_adjoint``.  ``analyze`` is the adjoint applied to
the quadrature-weighted values.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] (nodes ascending), built
    once per n; its arrays are shared by every caller, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre_colatitude(n: int):
    """GL nodes/weights in x = cos(theta), ordered north to south."""
    x, w = _gauss_legendre(n)
    order = np.argsort(-x)
    return x[order], w[order]


def _legendre_tables(L: int, x: np.ndarray, derivatives: bool = True) -> np.ndarray:
    """Normalized associated Legendre functions and, with ``derivatives``,
    their first theta-derivative, zero-padded to [n, m, node, l]: entry
    [n, m, t, l] is d^n Q_{l,m} / d theta^n at x[t] = cos(theta), and zero
    where l < m.  Each order m is a ready (node, l) matrix.

    Q_{l,m}(x) = N_{l,m} P_l^m(x) with int_{-1}^{1} Q^2 dx = 1/(2 pi), built
    by the standard stable three-term recurrence in l for every order m at
    once (Condon-Shortley phase).  The derivative comes from the Legendre
    ODE and needs sin(theta) > 0; Q alone holds at the poles too.  The
    recurrence carries two [m, node] rows; each degree l is written into
    the table in place, rows m <= l only, so the zero padding stays untouched.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    out = np.zeros((2 if derivatives else 1, L + 1, x.size, L + 1))
    m = np.arange(L + 1.0)[:, None]
    # the diagonal: Q_{m,m} = -sqrt((2m + 1) / 2m) sin(theta) Q_{m-1,m-1}
    diag = np.empty((L + 1, x.size))
    diag[0] = 1.0 / np.sqrt(FOUR_PI)
    diag[1:] = -np.sqrt((2 * m[1:] + 1) / (2.0 * m[1:])) * s
    diag = np.cumprod(diag, axis=0)
    # Q_{l-2,m} and Q_{l-1,m} as [m, node], zero where m exceeds the degree
    older, old = np.zeros((L + 1, x.size)), np.zeros((L + 1, x.size))
    for l in range(L + 1):
        q = older           # Q_{l,m} overwrites Q_{l-2,m}, rows m <= l
        q[l] = diag[l]
        if l > 0:
            q[l - 1] = np.sqrt(2 * l + 1.0) * x * old[l - 1]
            mm = m[: l - 1]
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - mm**2))
            b = np.sqrt(((l - 1.0) ** 2 - mm**2) / (4.0 * (l - 1.0) ** 2 - 1.0))
            q[: l - 1] = a * (x * old[: l - 1] - b * q[: l - 1])
        out[0, : l + 1, :, l] = q[: l + 1]
        if derivatives:
            mm = m[: l + 1]
            c = np.sqrt(np.maximum(0.0, (l * l - mm * mm) * (2 * l + 1) / (2 * l - 1)))
            # old[l] is zero: Q_{l-1,l} does not exist
            out[1, : l + 1, :, l] = (l * x * q[: l + 1] - c * old[: l + 1]) / s
        older, old = old, q
    return out


def _azimuthal_basis(L: int, phi: np.ndarray):
    """sqrt(2) cos(m phi) and sqrt(2) sin(m phi) as [(cos, sin), m, longitude]
    (1 and 0 at m = 0)."""
    m = np.arange(L + 1)[:, None]
    scale = np.where(m == 0, 1.0, np.sqrt(2.0))
    return scale * np.stack([np.cos(m * phi), np.sin(m * phi)])


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

        # the Legendre table [n, m, node, l] and the azimuthal basis
        # [(cos, sin), m, longitude]
        self._theta_tables = _legendre_tables(L, self.x_gl)
        self._azimuthal_table = _azimuthal_basis(L, self.phi)

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

# base keys: (theta level n, Laplacian-weighted, order p of the phi-derivative)
_JET_TERMS = {
    "f": (0, 0, 0), "fp": (0, 0, 1), "fpp": (0, 0, 2), "fppp": (0, 0, 3),
    "ft": (1, 0, 0), "ftp": (1, 0, 1), "ftpp": (1, 0, 2),
    "lap": (0, 1, 0),
}


def _expansion(key: str, grid: SphericalGrid):
    """A jet key as [(term, weight)]: the key's node values are the sum of
    each term's values times its weight, 1 or one value per theta-row.

    The second and third theta-derivatives follow from the round Laplacian,
    lap f = f_tt + cot f_t + f_pp / sin^2, and its derivatives."""
    if key in _JET_TERMS:
        return [(_JET_TERMS[key], 1.0)]
    sin, cos = grid.sin_theta[:, None, None], grid.cos_theta[:, None, None]
    cot, csc2 = cos / sin, 1.0 / sin**2
    if key == "ftt":
        return [((0, 1, 0), 1.0), ((1, 0, 0), -cot), ((0, 0, 2), -csc2)]
    if key == "fttp":
        return [((0, 1, 1), 1.0), ((1, 0, 1), -cot), ((0, 0, 3), -csc2)]
    # f_ttt = (lap f)_t - cot f_tt + (f_t - f_tpp) / sin^2 + 2 cos f_pp / sin^3,
    # with f_tt substituted
    if key == "fttt":
        return [((1, 1, 0), 1.0), ((0, 1, 0), -cot), ((1, 0, 0), cot**2 + csc2),
                ((1, 0, 2), -csc2), ((0, 0, 2), 3.0 * cot * csc2)]
    raise ConfigurationError(f"unknown jet key {key!r}")


def _phi_derivative(profile: np.ndarray, p: int, m: np.ndarray) -> np.ndarray:
    """The p-th phi-derivative of [..., (cos, sin), m] coefficient profiles:
    a cos(m phi) + b sin(m phi) -> m (b cos(m phi) - a sin(m phi))."""
    if p == 0:
        return profile
    scale = m**p * (-1.0) ** (p // 2)
    if p % 2:
        return profile[..., ::-1, :] * np.stack([scale, -scale])
    return profile * scale


def _degree_weights(L: int) -> np.ndarray:
    """The round Laplacian's eigenvalues -l(l+1), l = 0..L."""
    l = np.arange(L + 1.0)
    return -l * (l + 1.0)


def _levels(terms: dict):
    """Per table level n that the terms read, the weightings they read it
    with (0 plain, 1 Laplacian-weighted), as [(n, [w, ...])]."""
    need = {(n, w) for ts in terms.values() for (n, w, _), _ in ts}
    return [(n, ws) for n in (0, 1) if (ws := [w for w in (0, 1) if (n, w) in need])]


def synthesize_jet(field: HarmonicField, grid: SphericalGrid, which=("f",)):
    """Evaluate a band-limited field and requested derivatives at all nodes.

    ``which`` may contain "f", "ft", "fp", "ftt", "ftp", "fpp", "fttt",
    "fttp", "ftpp", "fppp" (theta/phi derivatives) and "lap" (the
    Laplace-Beltrami operator, applied in coefficient space).  Returns a dict
    of arrays with shape (ncomp, n_theta, n_phi).  All outputs are exact for
    band-limited input up to rounding.

    The coefficients of each order m, cos and sin columns per component,
    meet each table level the keys need in one batched product: Q for "f",
    "fp", "fpp", "fppp" and "lap", dQ/dtheta for "ft", "ftp" and "ftpp", the
    Laplacian-weighted columns stacked beside the plain ones.  The
    phi-derivatives scale and swap those profiles order by order, and each
    key is one product over m against the azimuthal basis.  "ftt", "fttp"
    and "fttt" are per-row combinations of the profiles (``_expansion``).
    """
    if field.degree > grid.L:
        raise ConfigurationError(
            f"field degree {field.degree} exceeds grid degree {grid.L}"
        )
    Lf, nc, M, nt = field.degree, field.n_components, field.degree + 1, grid.n_theta
    terms = {key: _expansion(key, grid) for key in which}
    # [m, l, (cos, sin), component]; the m = 0 sin column meets sin(0 phi) = 0
    coeffs = np.zeros((M, M, 2, nc))
    coeffs[:, :, 0] = field.coeffs[:, :, Lf:].transpose(2, 1, 0)
    coeffs[1:, :, 1] = field.coeffs[:, :, Lf - 1 :: -1].transpose(2, 1, 0)
    lam = _degree_weights(Lf)[:, None, None]
    m = np.arange(M, dtype=float)
    profiles = {}       # (n, w, p) -> [component, theta, (cos, sin), m]
    for n, weighted in _levels(terms):
        stacked = np.stack([coeffs * lam if w else coeffs for w in weighted], axis=2)
        prof = grid._theta_tables[n, :M, :, :M] @ stacked.reshape(M, M, -1)
        prof = np.ascontiguousarray(
            prof.reshape(M, nt, len(weighted), 2, nc).transpose(2, 4, 1, 3, 0))
        profiles.update(((n, w, 0), v) for w, v in zip(weighted, prof))

    def term(t):
        if t not in profiles:
            profiles[t] = _phi_derivative(profiles[t[:2] + (0,)], t[2], m)
        return profiles[t]

    az = grid._azimuthal_table[:, :M].reshape(2 * M, grid.n_phi)
    out = {}
    for key, ts in terms.items():
        total = sum(w * term(t) for t, w in ts) if len(ts) > 1 else term(ts[0][0])
        out[key] = (total.reshape(nc * nt, 2 * M) @ az).reshape(nc, nt, grid.n_phi)
    return out


def synthesize_jet_adjoint(jet: dict, grid: SphericalGrid) -> np.ndarray:
    """Adjoint of ``synthesize_jet`` at the grid's degree.

    ``jet`` maps keys of ``synthesize_jet`` to node arrays of shape
    (ncomp, n_theta, n_phi) (or (ncomp, n_nodes)), any number of components.
    Returns coefficients a of shape (ncomp, L+1, 2L+1), zero where |m| > l,
    with sum_k <synthesize_jet(f, grid, jet.keys())[k], jet[k]> = <f, a> in
    the Euclidean products of node values and of coefficients, for every
    field f of degree L.  No quadrature weights enter here: ``analyze``
    applies this transpose to the values times the weights.

    The stages of ``synthesize_jet`` transposed, in reverse: each key's
    values meet the azimuthal basis in one product; its terms' row weights
    and transposed phi-derivatives (d/dphi is antisymmetric) sum those
    profiles into their (level, weighting) groups; each table level meets
    its groups in one batched product.
    """
    L, M, nt = grid.L, grid.L + 1, grid.n_theta
    terms = {key: _expansion(key, grid) for key in jet}
    levels = _levels(terms)
    nc = np.shape(next(iter(jet.values())))[0]
    m = np.arange(M, dtype=float)
    az = grid._azimuthal_table.reshape(2 * M, grid.n_phi)
    acc = {n: np.zeros((len(ws), nc, nt, 2, M)) for n, ws in levels}
    groups = {(n, w): acc[n][i] for n, ws in levels for i, w in enumerate(ws)}
    for key, vals in jet.items():
        vals = np.asarray(vals, dtype=float).reshape(nc * nt, grid.n_phi)
        prof = (vals @ az.T).reshape(nc, nt, 2, M)
        for (n, w, p), weight in terms[key]:
            groups[n, w] += weight * _phi_derivative(prof, p, -m)  # (-m)^p: transpose
    lam = _degree_weights(L)[:, None, None]
    coeffs = 0.0        # [m, l, (cos, sin), component]
    for n, weighted in levels:
        stacked = acc[n].transpose(4, 2, 0, 3, 1).reshape(M, nt, -1)
        prof = grid._theta_tables[n].transpose(0, 2, 1) @ stacked
        parts = prof.reshape(M, M, len(weighted), 2, nc)
        for i, w in enumerate(weighted):
            coeffs = coeffs + (parts[:, :, i] * lam if w else parts[:, :, i])
    out = np.zeros((nc, L + 1, 2 * L + 1))
    out[:, :, L:] = coeffs[:, :, 0].transpose(2, 1, 0)
    out[:, :, L - 1 :: -1] = coeffs[1:, :, 1].transpose(2, 1, 0)
    return out


def synthesize(field: HarmonicField, grid: SphericalGrid) -> np.ndarray:
    """Node values of a band-limited field; shape (ncomp, n_theta, n_phi).

    Scalar fields (one component) are returned as (n_theta, n_phi).
    """
    vals = synthesize_jet(field, grid, which=("f",))["f"]
    return vals[0] if field.n_components == 1 else vals


def analyze(values: np.ndarray, grid: SphericalGrid) -> HarmonicField:
    """Project node values onto harmonics of degree <= L by quadrature.

    The weighted adjoint of synthesis: synthesize_jet_adjoint of the values
    times the quadrature weights.  Exact inverse of ``synthesize`` on
    band-limited fields; otherwise the least-squares/quadrature projection.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataError("analyze: input values contain non-finite entries")
    stacked = values if values.ndim == 3 else values[None]
    # checked here: the adjoint reshapes, so a transposed array would pass
    if stacked.shape[1:] != (grid.n_theta, grid.n_phi):
        raise ConfigurationError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_theta}, {grid.n_phi})"
        )
    return HarmonicField(synthesize_jet_adjoint({"f": stacked * grid.w}, grid))


def synthesize_at(field: HarmonicField, theta, phi) -> np.ndarray:
    """Evaluate a field at arbitrary points (theta, phi); shape (ncomp, npts)."""
    theta, phi = (np.ravel(a).astype(float) for a in np.broadcast_arrays(theta, phi))
    L = field.degree
    tab = _legendre_tables(L, np.cos(theta), derivatives=False)[0]  # [m, point, l]
    az = _azimuthal_basis(L, phi)                               # [(cos, sin), m, point]
    # [(cos, sin), c, m, l]; the m = 0 sin row meets sin(0 phi) = 0
    coeffs = np.stack([field.coeffs[:, :, L:], field.coeffs[:, :, L::-1]])
    coeffs = coeffs.transpose(0, 1, 3, 2)
    return np.einsum("mpl,scml,smp->cp", tab, coeffs, az, optimize=True)


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


def chart_gradient(field: HarmonicField, grid: SphericalGrid, chart: str,
                   nodes=None) -> np.ndarray:
    """Complex chart derivative F_z = (F_u - i F_v)/2 of a HarmonicField at
    grid nodes.

    Nodes masked in the chart are returned as NaN.  If ``nodes`` is given as
    an index pair (i_idx, j_idx), only those nodes are returned, and
    requesting a masked node raises ChartDomainError.
    """
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
