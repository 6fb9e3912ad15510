"""
Explicit minimal immersions of planar domains.

Each family is stored as a holomorphic triple (h1, h2, h3) with

    F = (Re h1, Im h2, Re h3),   F_z = (h1'/2, -i h2'/2, h3'/2),

so derivatives are evaluated in closed form and conformality F_z . F_z = 0
holds identically.  The blow-down parameter t interpolates between the full
surface (t = 1) and its branched planar limit (t = 0); t < 0 gives the
reflected family.

Families
--------
One closed form of order k >= 1 and base power a, with p = 2k + a and
q = k + a:
    x1 = Re(t^{2k} z^a/a - z^p/p),
    x2 = Im(t^{2k} z^a/a + z^p/p),
    x3 = t^k Re(2 z^q/q).
The odd family has a = 1, and enneper_blowdown(t) is its k = 1 member; the
even family (a 2-fold branched cover) has a = 2.

Total curvature is reported as the classical quantized integral
int (-K) dA (equal to |A|^2/2 pointwise on minimal surfaces), which tends to
4*pi times an integer: 0 for the plane, 4*pi for the Enneper surface, 4*pi*k
for the order-k families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import BranchScan, branch_scan, pointwise_forms
from .grid import _gauss_legendre

EVEN_COVER_MULTIPLICITY = 2


@dataclass(frozen=True)
class DiskGrid:
    """Polar quadrature grid on the disk |z| <= R.

    Gauss-Legendre nodes in radius, uniform angles; weights include the
    polar Jacobian r and sum to pi R^2.
    """

    radius: float
    n_r: int = 64
    n_phi: int = 64

    def __post_init__(self):
        if self.radius <= 0 or self.n_r < 2 or self.n_phi < 4:
            raise ConfigurationError("bad disk grid parameters")
        x, w = _gauss_legendre(self.n_r)
        r = self.radius * (x + 1) / 2
        wr = self.radius / 2 * w
        phi = 2 * np.pi / self.n_phi * np.arange(self.n_phi)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", r[:, None] * np.exp(1j * phi)[None, :])
        object.__setattr__(
            self, "w", (wr * r)[:, None] * np.full(self.n_phi, 2 * np.pi / self.n_phi)
        )


def _holomorphic_triple(family: str, k: int, t: float, z):
    """(h, h', h'') of the family at z, each a triple of complex arrays:
    h = (t^{2k} z^a/a - z^p/p, t^{2k} z^a/a + z^p/p, t^k (2/q) z^q)."""
    if family not in ("enneper", "odd", "even"):
        raise ConfigurationError(f"unknown family {family!r}")
    if family == "enneper":
        k = 1
    if k < 1:
        raise ConfigurationError("family order k must be >= 1")
    a = 2 if family == "even" else 1
    p, q = 2 * k + a, k + a
    t = float(t)
    t2k, c = t ** (2 * k), t**k * (2.0 / q)

    base, tail = t2k * z**a / a, z**p / p
    h = (base - tail, base + tail, c * z**q)
    base, tail = t2k * z ** (a - 1), z ** (p - 1)
    dh = (base - tail, base + tail, c * q * z ** (q - 1))
    # the t^{2k} term of h'' is t^{2k} (a - 1) z^(a - 2): zero at a = 1
    base, tail = (t2k if a == 2 else 0.0), (p - 1) * z ** (p - 2)
    d2h = (base - tail, base + tail, c * q * (q - 1) * z ** (q - 2))
    return h, dh, d2h


class PlanarImmersion:
    """A closed-form minimal immersion evaluated with exact derivatives."""

    def __init__(self, family: str, k: int, t: float, grid: DiskGrid):
        self.family = family
        self.k = int(k)
        self.t = float(t)
        self.grid = grid
        h, d1, d2 = _holomorphic_triple(family, k, t, grid.z)
        self.F = np.stack([h[0].real, h[1].imag, h[2].real])
        self.Fz = np.stack([d1[0] / 2, -1j * d1[1] / 2, d1[2] / 2])
        self.Fzz = np.stack([d2[0] / 2, -1j * d2[1] / 2, d2[2] / 2])
        # real-coordinate jets from the holomorphic data
        Fuu, Fuv = 2 * self.Fzz.real, -2 * self.Fzz.imag
        self.forms = pointwise_forms([2 * self.Fz.real, -2 * self.Fz.imag],
                                     [[Fuu, Fuv], [Fuv, -Fuu]])

    @property
    def mean_curvature(self):
        return self.forms["H"]

    @property
    def gauss_curvature(self):
        return self.forms["K"]

    @property
    def area_element(self):
        """sqrt(det gamma) relative to du dv (the polar r is in the weights)."""
        return self.forms["cross_norm"]

    def conformality_residual(self):
        return np.einsum("crp,crp->rp", self.Fz, self.Fz)

    @property
    def cover_multiplicity(self) -> int:
        return EVEN_COVER_MULTIPLICITY if self.family == "even" else 1


def enneper_blowdown(t: float, grid: DiskGrid) -> PlanarImmersion:
    """Blow-down family of the Enneper surface; t=1 is the classical surface,
    t=0 the 3-fold branched cover of the plane."""
    return PlanarImmersion("enneper", 1, t, grid)


def weierstrass_family(kind: str, k: int, grid: DiskGrid, t: float = 1.0) -> PlanarImmersion:
    """Odd or even minimal family of order k (t = blow-down parameter)."""
    if kind not in ("odd", "even"):
        raise ConfigurationError("kind must be 'odd' or 'even'")
    return PlanarImmersion(kind, k, t, grid)


def variation_field_check(t: float, grid: DiskGrid, h: float = 1e-5) -> float:
    """Sup deviation of (E_{t+h} - E_{t-h})/(2h) from (2tu, 2tv, u^2 - v^2)."""
    plus = enneper_blowdown(t + h, grid).F
    minus = enneper_blowdown(t - h, grid).F
    fd = (plus - minus) / (2 * h)
    u, v = grid.z.real, grid.z.imag
    X = np.stack([2 * t * u, 2 * t * v, u**2 - v**2])
    return float(np.max(np.abs(fd - X)))


def total_curvature(P: PlanarImmersion, radii, per_cover: bool = False) -> np.ndarray:
    """Quantized total curvature int_{|z|<=R} (-K) dA for each cutoff R.

    The integrand is rebuilt on a radius-adapted grid per cutoff; values are
    nondecreasing in R (K <= 0 on minimal surfaces) and approach a multiple
    of 4*pi.  With ``per_cover`` the value is divided by the family's cover
    multiplicity.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(np.diff(radii) <= 0) and radii.size > 1:
        raise ConfigurationError("radii must be increasing")
    out = np.empty(radii.size)
    for i, R in enumerate(radii):
        g = DiskGrid(R, n_r=max(160, int(6 * R)), n_phi=max(48, P.grid.n_phi))
        Q = PlanarImmersion(P.family, P.k, P.t, g)
        dens = -Q.gauss_curvature * Q.area_element
        out[i] = float(np.sum(np.nan_to_num(dens) * g.w))
    if per_cover:
        out = out / P.cover_multiplicity
    return out


def richardson_limit(radii, values) -> float:
    """R -> infinity limit assuming an R^{-2} tail, from the two largest R."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size < 2:
        raise ConfigurationError("need at least two radii")
    x1, x2 = radii[-2] ** -2, radii[-1] ** -2
    v1, v2 = values[-2], values[-1]
    return float((v2 * x1 - v1 * x2) / (x1 - x2))


def detect_branch_points_planar(P: PlanarImmersion) -> BranchScan:
    """Branch detection on the disk: the sphere's ``branch_scan`` on the one
    chart "disk", clustering within 0.15 R."""
    absfz = np.sqrt(np.einsum("crp,crp->rp", P.Fz, np.conj(P.Fz)).real)
    return branch_scan(absfz, 0.15 * P.grid.radius, lambda ij: ("disk", P.grid.z),
                       lambda chart: P.Fz)
