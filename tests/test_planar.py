"""Tests for the explicit minimal families, blow-downs and total curvature."""

import numpy as np
import pytest

from pmcsphere.errors import ConfigurationError
from pmcsphere.planar import (
    DiskGrid,
    detect_branch_points_planar,
    enneper_blowdown,
    richardson_limit,
    total_curvature,
    variation_field_check,
    weierstrass_family,
)


def test_disk_weights_sum():
    for R in (1.0, 7.5):
        g = DiskGrid(R, n_r=48, n_phi=40)
        assert abs(np.sum(g.w) - np.pi * R**2) < 1e-10 * np.pi * R**2


def test_enneper_point_value():
    g = DiskGrid(2.0, n_r=8, n_phi=8)
    P = enneper_blowdown(1.0, g)
    h1, h2, h3 = 1 - 1 / 3, (1 + 1 / 3), 1  # at z = 1: t^2 z - z^3/3 etc.
    # closed-form check at z = 1 + 0j via the holomorphic triple
    z = 1.0 + 0.0j
    x = np.array([(z - z**3 / 3).real, (z + z**3 / 3).imag, (z**2).real])
    assert np.allclose(x, [2 / 3, 0.0, 1.0])
    # and on the evaluated grid at the node closest to z = 1
    idx = np.unravel_index(np.argmin(np.abs(g.z - 1.0)), g.z.shape)
    z0 = g.z[idx]
    expected = np.array(
        [(z0 - z0**3 / 3).real, (z0 + z0**3 / 3).imag, (z0**2).real]
    )
    assert np.allclose(P.F[:, idx[0], idx[1]], expected, atol=1e-14)


def test_blowdown_t0_is_planar():
    g = DiskGrid(1.5, n_r=24, n_phi=24)
    P = enneper_blowdown(0.0, g)
    assert np.max(np.abs(P.F[2])) == 0.0


def test_minimality_all_families():
    g = DiskGrid(2.0, n_r=20, n_phi=20)
    rng = np.random.default_rng(0)
    surfaces = [enneper_blowdown(t, g) for t in (-1.0, 0.3, 1.0)]
    surfaces += [weierstrass_family("odd", k, g) for k in (1, 2)]
    surfaces += [weierstrass_family("even", k, g) for k in (1, 2)]
    for P in surfaces:
        H = np.nan_to_num(P.mean_curvature)
        sample = rng.choice(H.ravel(), size=200, replace=False)
        assert np.max(np.abs(sample)) < 1e-9
        assert np.max(np.abs(P.conformality_residual())) < 1e-9


def test_variation_field():
    g = DiskGrid(1.5, n_r=16, n_phi=16)
    assert variation_field_check(0.0, g) < 1e-9
    assert variation_field_check(1.0, g) < 1e-9
    # parity: X(t) and X(-t) differ by negated first two components
    u, v = g.z.real, g.z.imag
    for t in (0.4,):
        Xp = np.stack([2 * t * u, 2 * t * v, u**2 - v**2])
        Xm = np.stack([-2 * t * u, -2 * t * v, u**2 - v**2])
        assert np.allclose(Xp[:2], -Xm[:2]) and np.allclose(Xp[2], Xm[2])


def test_odd_k1_is_classical_enneper():
    g = DiskGrid(1.0, n_r=12, n_phi=12)
    P = weierstrass_family("odd", 1, g)
    E = enneper_blowdown(1.0, g)
    assert np.max(np.abs(P.F - E.F)) < 1e-14
    # and order k: (Re(z - z^p/p), Im(z + z^p/p), Re(2 z^(k+1)/(k+1))), p = 2k+1
    z = g.z
    for k in (1, 2):
        p = 2 * k + 1
        expected = np.stack([(z - z**p / p).real, (z + z**p / p).imag,
                             (2.0 / (k + 1) * z ** (k + 1)).real])
        assert np.max(np.abs(weierstrass_family("odd", k, g).F - expected)) < 1e-14


def test_even_k1_x3_formula():
    g = DiskGrid(1.2, n_r=10, n_phi=10)
    for k in (1, 2):
        P = weierstrass_family("even", k, g)
        expected = (2.0 / (k + 2) * g.z ** (k + 2)).real
        assert np.max(np.abs(P.F[2] - expected)) < 1e-13


def test_total_curvature_enneper():
    g = DiskGrid(1.0, n_r=16, n_phi=16)
    P = enneper_blowdown(1.0, g)
    vals = total_curvature(P, [50.0])
    four_pi = 4 * np.pi
    assert four_pi - 0.05 < vals[0] <= four_pi
    # closed form: 4 pi R^2 / (1 + R^2)
    assert abs(vals[0] - four_pi * 2500 / 2501) < 1e-6


def test_total_curvature_plane_zero():
    g = DiskGrid(1.0, n_r=16, n_phi=16)
    P = enneper_blowdown(0.0, g)
    vals = total_curvature(P, [50.0])
    assert vals[0] == 0.0


def test_total_curvature_monotone_and_quantized():
    g = DiskGrid(1.0, n_r=16, n_phi=16)
    P = weierstrass_family("odd", 2, g)
    radii = np.array([20.0, 35.0, 50.0])
    vals = total_curvature(P, radii)
    assert np.all(np.diff(vals) > 0)
    limit = richardson_limit(radii, vals)
    assert abs(vals[-1] - limit) < 0.01 * limit
    multiple = round(limit / (4 * np.pi))
    assert multiple >= 1
    assert abs(limit - multiple * 4 * np.pi) < 0.01 * limit


def test_total_curvature_per_cover():
    g = DiskGrid(1.0, n_r=12, n_phi=16)
    P = weierstrass_family("even", 1, g)
    full = total_curvature(P, [30.0])
    per = total_curvature(P, [30.0], per_cover=True)
    assert np.allclose(full, 2 * per)


def test_blowdown_uniform_convergence_bound():
    """sup_{|z|<=1} |E_t - E_0| <= C t with C frozen at sqrt(2) (measured)."""
    g = DiskGrid(1.0, n_r=24, n_phi=24)
    E0 = enneper_blowdown(0.0, g).F
    for t in (0.5, 0.25, 0.1, 0.01):
        Et = enneper_blowdown(t, g).F
        dev = np.max(np.sqrt(np.sum((Et - E0) ** 2, axis=0)))
        assert dev <= 1.41422 * t


def test_branch_detection_enneper_blowdown_limit():
    g = DiskGrid(1.0, n_r=48, n_phi=48)
    P = enneper_blowdown(0.0, g)
    scan = detect_branch_points_planar(P)
    assert len(scan.points) == 1 and not scan.unresolved
    bp = scan.points[0]
    assert bp.order == 2
    assert abs(bp.location.z) < 1e-6
    assert bp.null_defect < 1e-6
    G = bp.leading_coefficient
    # F_z = -(z^2/2)(1, i, 0) for the planar limit
    assert np.allclose(G, [-0.5, -0.5j, 0.0], atol=1e-6)


def test_branch_detection_enneper_limit_on_example_grid():
    """The planar Enneper limit on the 96 x 96 disk of radius 2 that
    ``pmc example`` uses: ties in |F_z| on the innermost ring must not
    move the fit off its best start node."""
    P = enneper_blowdown(0.0, DiskGrid(2.0, n_r=96, n_phi=96))
    scan = detect_branch_points_planar(P)
    assert len(scan.points) == 1 and not scan.unresolved
    bp = scan.points[0]
    assert bp.order == 2
    assert abs(bp.location.z) < 1e-6
    assert np.allclose(bp.leading_coefficient, [-0.5, -0.5j, 0.0], rtol=0, atol=1e-6)


def test_branch_detection_even_family_limit_orders():
    """Blow-down limits of the even family have F_z exponent 2(k+1)-1."""
    g = DiskGrid(1.0, n_r=48, n_phi=48)
    for k in (1, 2):
        P = weierstrass_family("even", k, g, t=0.0)
        scan = detect_branch_points_planar(P)
        assert len(scan.points) == 1
        assert scan.points[0].order == 2 * (k + 1) - 1


def test_branch_detection_regular_surface_empty():
    g = DiskGrid(1.0, n_r=32, n_phi=32)
    P = enneper_blowdown(1.0, g)
    scan = detect_branch_points_planar(P)
    assert scan.points == [] and scan.unresolved == []


def test_bad_family_raises():
    g = DiskGrid(1.0, n_r=8, n_phi=8)
    with pytest.raises(ConfigurationError):
        weierstrass_family("spiral", 1, g)
    with pytest.raises(ConfigurationError):
        weierstrass_family("odd", 0, g)
