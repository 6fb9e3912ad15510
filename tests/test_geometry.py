"""Tests for fundamental forms, structure-equation residuals, obstruction."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pmcsphere.geometry as geometry
import pmcsphere.grid as grid_module
from pmcsphere.errors import ConformalityError
from pmcsphere.grid import FOUR_PI, HarmonicField, SphericalGrid, integrate
from pmcsphere.planar import DiskGrid
from pmcsphere.geometry import (
    ImmersionField,
    codazzi_residual,
    conformality_residual,
    detect_branch_points,
    fundamental_forms,
    gauss_identity_residual,
    mc_residual,
    obstruction_vector,
    verify,
)
from pmcsphere.solver import SolverConfig, solve_pmc
from test_acceptance import _mobius_reparametrize, band_limited_target


def round_sphere(grid, radius=1.0):
    return ImmersionField.from_values(radius * grid.xyz, grid)


def ellipsoid(grid, a=1.0, c=1.2):
    vals = grid.xyz.copy()
    vals[0] *= a
    vals[1] *= a
    vals[2] *= c
    return ImmersionField.from_values(vals, grid)


def perturbed_sphere(grid, seed, amplitude=0.1, max_degree=6):
    """F = (1 + band-limited perturbation) * (unit sphere), sup <= amplitude."""
    rng = np.random.default_rng(seed)
    L = grid.L
    coeffs = np.zeros((1, L + 1, 2 * L + 1))
    for l in range(1, max_degree + 1):
        coeffs[0, l, L - l : L + l + 1] = rng.standard_normal(2 * l + 1)
    from pmcsphere.grid import synthesize

    rho = synthesize(HarmonicField(coeffs), grid)
    rho *= amplitude / max(1e-12, np.max(np.abs(rho)))
    return ImmersionField.from_values((1.0 + rho)[None] * grid.xyz, grid)


def test_unit_sphere_forms():
    g = SphericalGrid(16)
    forms = fundamental_forms(round_sphere(g))
    assert np.nanmax(np.abs(forms.mean_curvature - 2.0)) < 1e-8
    assert np.nanmax(np.abs(forms.gauss_curvature - 1.0)) < 1e-8
    nrm = np.einsum("ctp,ctp->tp", forms.normal, forms.normal)
    assert np.nanmax(np.abs(nrm - 1.0)) < 1e-12
    # lambda^2 equals the stereographic round factor in each node's home chart
    rho_n = np.tan(g.theta / 2)[:, None]
    rho_s = 1.0 / np.tan(g.theta / 2)[:, None]
    lam_n = 4.0 / (1 + rho_n**2) ** 2
    lam_s = 4.0 / (1 + rho_s**2) ** 2
    expected = np.where((g.theta <= np.pi / 2)[:, None], lam_n, lam_s)
    assert np.nanmax(np.abs(forms.conformal_factor - expected)) < 1e-8
    # gamma positive definite at all nodes
    det = (
        forms.gamma[0, 0] * forms.gamma[1, 1] - forms.gamma[0, 1] ** 2
    )
    assert np.all(det > 0) and np.all(forms.gamma[0, 0] > 0)


def test_sphere_scaling():
    g = SphericalGrid(12)
    for r in (0.5, 2.0):
        forms = fundamental_forms(round_sphere(g, radius=r))
        assert np.nanmax(np.abs(forms.mean_curvature - 2.0 / r)) < 1e-8
        assert np.nanmax(np.abs(forms.gauss_curvature - 1.0 / r**2)) < 1e-8


def test_scaling_covariance_floating_point():
    g = SphericalGrid(12)
    F1 = perturbed_sphere(g, seed=4, amplitude=0.08)
    r = 2.0
    F2 = ImmersionField(HarmonicField(r * F1.field.coeffs), g)
    f1, f2 = fundamental_forms(F1), fundamental_forms(F2)
    assert np.nanmax(np.abs(f2.mean_curvature - f1.mean_curvature / r)) < 1e-12 * (
        np.nanmax(np.abs(f1.mean_curvature)) / r
    ) + 1e-13
    assert np.nanmax(np.abs(f2.gauss_curvature - f1.gauss_curvature / r**2)) < 1e-12
    a1 = integrate(np.ones_like(f1.area_weight), g, f1.area_weight)
    a2 = integrate(np.ones_like(f2.area_weight), g, f2.area_weight)
    assert abs(a2 - r**2 * a1) < 1e-12 * a2


def test_ellipsoid_curvatures_closed_form():
    """Spheroid (a, a, c): meridian curvature ac/W^3, parallel c/(aW),
    W^2 = a^2 cos^2 theta + c^2 sin^2 theta."""
    a, c = 1.0, 1.2
    g = SphericalGrid(24)
    forms = fundamental_forms(ellipsoid(g, a, c))
    W = np.sqrt(a**2 * g.cos_theta**2 + c**2 * g.sin_theta**2)[:, None]
    H_exact = a * c / W**3 + c / (a * W)
    K_exact = c**2 / W**4
    assert np.nanmax(np.abs(forms.mean_curvature - H_exact)) < 1e-6
    assert np.nanmax(np.abs(forms.gauss_curvature - K_exact)) < 1e-6


def test_pointwise_gauss_equation():
    g = SphericalGrid(16)
    for seed in range(5):
        F = perturbed_sphere(g, seed=seed)
        forms = fundamental_forms(F)
        resid = forms.norm2_A - forms.mean_curvature**2 + 2 * forms.gauss_curvature
        assert np.nanmax(np.abs(resid)) < 1e-8


def test_gauss_bonnet_and_identity_for_random_immersions():
    g = SphericalGrid(48)
    for seed in range(20):
        F = perturbed_sphere(g, seed=100 + seed)
        forms = fundamental_forms(F)
        intK = integrate(np.nan_to_num(forms.gauss_curvature), g, forms.area_weight)
        assert abs(intK - FOUR_PI) < 1e-7
        assert abs(gauss_identity_residual(F)) < 1e-6


def test_gauss_identity_examples():
    g = SphericalGrid(24)
    assert abs(gauss_identity_residual(round_sphere(g))) < 1e-8
    assert abs(gauss_identity_residual(ellipsoid(g))) < 1e-6
    # degree-4 perturbation: (1 + 0.05 Y_42) * sphere
    c = np.zeros((1, 25, 49))
    c[0, 4, 24 + 2] = 0.05
    from pmcsphere.grid import synthesize

    rho = synthesize(HarmonicField(c), g)
    F = ImmersionField.from_values((1 + rho)[None] * g.xyz, g)
    assert abs(gauss_identity_residual(F)) < 1e-6


def test_codazzi_residual():
    g48 = SphericalGrid(48)
    assert codazzi_residual(round_sphere(g48)) < 1e-7
    assert codazzi_residual(ellipsoid(g48)) < 1e-5
    c = np.zeros((1, 49, 97))
    c[0, 4, 48 + 2] = 0.05
    from pmcsphere.grid import synthesize

    rho = synthesize(HarmonicField(c), g48)
    F = ImmersionField.from_values((1 + rho)[None] * g48.xyz, g48)
    assert codazzi_residual(F) < 1e-5


def test_conformality_residual_round_and_stretched():
    g = SphericalGrid(24)
    resid = conformality_residual(round_sphere(g))
    assert np.nanmax(np.abs(resid)) < 1e-9
    # theta-stretch destroys conformality
    theta_s = g.theta + 0.1 * np.sin(g.theta)
    vals = np.stack(
        [
            np.sin(theta_s)[:, None] * np.cos(g.phi)[None, :],
            np.sin(theta_s)[:, None] * np.sin(g.phi)[None, :],
            np.broadcast_to(np.cos(theta_s)[:, None], (g.n_theta, g.n_phi)).copy(),
        ]
    )
    F = ImmersionField.from_values(vals, g)
    assert np.nanmax(np.abs(conformality_residual(F))) > 1e-3


def test_conformality_transition_factor():
    """North/south residuals relate by (dz_n/dz_s)^2 = z_n^4 on the overlap."""
    g = SphericalGrid(16)
    F = perturbed_sphere(g, seed=9, amplitude=0.1)
    rn = conformality_residual(F, chart="north")
    rs = conformality_residual(F, chart="south")
    zn = g.chart_z("north")
    band = np.abs(g.theta - np.pi / 2) < 0.4
    lhs = rs[band, :]
    rhs = (rn * zn**4)[band, :]
    scale = np.nanmax(np.abs(lhs))
    assert np.nanmax(np.abs(lhs - rhs)) < 1e-8 * max(1.0, scale)


def test_mc_residual_calibration():
    g = SphericalGrid(16)
    H2 = np.full((g.n_theta, g.n_phi), 2.0)
    resid = mc_residual(round_sphere(g), H2)
    assert not np.iscomplexobj(resid)
    assert np.nanmax(np.abs(resid)) < 1e-8
    # radius-r sphere with H = 2/r
    r = 1.7
    resid = mc_residual(round_sphere(g, radius=r), H2 / r)
    assert np.nanmax(np.abs(resid)) < 1e-8


def test_mc_residual_wrong_h_floor():
    g = SphericalGrid(16)
    F = round_sphere(g)
    H = 2.0 + 0.1 * g.xyz[2]
    resid = mc_residual(F, H)
    forms = fundamental_forms(F)
    lam2_max = np.nanmax(forms.conformal_factor)
    sup = np.nanmax(np.sqrt(np.einsum("ctp,ctp->tp", resid, np.conj(resid)).real))
    assert sup >= 0.01 * lam2_max


def test_mc_residual_precondition():
    """On a non-conformal parametrization mc_residual and the branch scan
    raise ConformalityError with the sup-norm, and verify reports no scan."""
    g = SphericalGrid(16)
    theta_s = g.theta + 0.1 * np.sin(g.theta)
    vals = np.stack(
        [
            np.sin(theta_s)[:, None] * np.cos(g.phi)[None, :],
            np.sin(theta_s)[:, None] * np.sin(g.phi)[None, :],
            np.broadcast_to(np.cos(theta_s)[:, None], (g.n_theta, g.n_phi)).copy(),
        ]
    )
    F = ImmersionField.from_values(vals, g)
    with pytest.raises(ConformalityError) as err:
        mc_residual(F, np.full((g.n_theta, g.n_phi), 2.0))
    assert err.value.sup_norm > 1e-3
    with pytest.raises(ConformalityError) as err:
        detect_branch_points(F)
    assert err.value.sup_norm == F.conformality_sup > 1e-3
    report = verify(F)
    assert report["branch_points"] is None and report["unresolved_singular_points"] is None


def test_obstruction_vector_examples():
    g = SphericalGrid(24)
    ones = np.ones((g.n_theta, g.n_phi))
    # constant H: exactly zero up to quadrature
    v = obstruction_vector(2.0 * ones, ones, g)
    assert np.max(np.abs(v)) < 1e-12
    # H = 2 + x3, round weight: v = (0, 0, 8 pi / 3)
    v = obstruction_vector(2.0 + g.xyz[2], ones, g)
    assert np.max(np.abs(v - np.array([0, 0, 8 * np.pi / 3]))) < 1e-8


def test_obstruction_requires_conformal_parametrization():
    """The vanishing uses conformal Killing fields of the induced metric; a
    radial graph is not conformally parametrized, so the same integrals are
    O(amplitude^3) instead of zero.  (Solver outputs, which are conformal,
    vanish to 1e-8; see the solver and acceptance suites.)"""
    g = SphericalGrid(32)
    norms = []
    for amp in (0.1, 0.05):
        F = perturbed_sphere(g, seed=105, amplitude=amp)
        forms = fundamental_forms(F)
        v = obstruction_vector(
            np.nan_to_num(forms.mean_curvature), forms.area_weight, g
        )
        norms.append(np.linalg.norm(v))
    assert norms[0] > 1e-3
    assert norms[1] < 0.25 * norms[0]


def test_detect_branch_points_round_sphere_empty():
    g = SphericalGrid(16)
    scan = detect_branch_points(round_sphere(g))
    assert scan.points == [] and scan.unresolved == []


def _reference_fit_branch_point(z, Fz, q0):
    """fit_branch_point with one lstsq per order and trial point: the
    looped reference that the batched search must reproduce."""
    def model(q, k):
        dz = z - q
        cols = np.stack([dz**k, dz ** (k + 1), dz**k * np.conj(dz)], axis=1)
        scale = np.maximum(np.abs(cols).max(axis=0), 1e-300)
        sol, *_ = np.linalg.lstsq(cols / scale, Fz, rcond=None)
        return np.linalg.norm(Fz - (cols / scale) @ sol), sol[0] / scale[0]

    norm = np.linalg.norm(Fz)
    rms = norm / np.sqrt(z.size)
    spacing = np.median(np.abs(np.diff(np.sort_complex(z)))) + 1e-30
    patch_radius = float(np.abs(z - q0).max())
    acceptable = []
    for k in range(1, geometry.BRANCH_MAX_ORDER + 1):
        q, half = q0, 2.0 * spacing
        for _ in range(7):
            trial = [q + (a + 1j * b) * half / 2 for a in (-1, 0, 1) for b in (-1, 0, 1)]
            q = trial[int(np.argmin([model(p, k)[0] for p in trial]))]
            half /= 3.0
        res, G0 = model(q, k)
        significant = np.linalg.norm(G0) * patch_radius**k >= 0.1 * rms
        if res / norm <= geometry.BRANCH_FIT_TOL and significant:
            acceptable.append((k, q, G0, res / norm))
    return max(acceptable, key=lambda item: item[0]) if acceptable else None


def _assert_same_fit(z, Fz, q0):
    got, ref = geometry.fit_branch_point(z, Fz, q0), _reference_fit_branch_point(z, Fz, q0)
    assert (got is None) == (ref is None)
    if ref is None:
        return
    spacing = np.median(np.abs(np.diff(np.sort_complex(z))))
    assert got[0] == ref[0]
    assert abs(got[1] - ref[1]) <= 1e-12 * spacing
    assert np.linalg.norm(got[2] - ref[2]) <= 1e-9 * np.linalg.norm(ref[2])
    assert abs(got[3] - ref[3]) <= 1e-9 * ref[3]


@pytest.mark.parametrize("chart", ["disk", "sphere"])
def test_batched_branch_fit_matches_looped_lstsq(chart):
    """F_z = (z - q)^k G + noise with q off-node, k = 1..6, on the 96 nodes
    nearest q: the batched fit picks the looped fit's order and location."""
    if chart == "disk":
        zs = DiskGrid(1.0, n_r=32, n_phi=32).z.ravel()
        q = 0.31 + 0.17j
    else:
        zs = SphericalGrid(24).chart_z("north").ravel()
        q = 0.42 - 0.23j
    idx = np.argsort(np.abs(zs - q))[:96]
    z, q0 = zs[idx], zs[idx[0]]
    rng = np.random.default_rng(7)
    G = np.array([1.0, 1j, 0.0]) * (0.8 - 0.3j)
    for k in range(1, geometry.BRANCH_MAX_ORDER + 1):
        Fz = (z - q)[:, None] ** k * G
        noise = rng.standard_normal(Fz.shape) + 1j * rng.standard_normal(Fz.shape)
        Fz = Fz + 1e-6 * np.linalg.norm(Fz) / np.sqrt(Fz.size) * noise
        assert geometry.fit_branch_point(z, Fz, q0)[0] == k
        _assert_same_fit(z, Fz, q0)


def test_branch_fit_rank_deficient_patch_matches_lstsq():
    """Samples on a line through q make the columns (z-q)^(k+1) and
    (z-q)^k conj(z-q) parallel at q: the batched pseudo-inverse must give
    lstsq's minimum-norm answer there, not an error."""
    q = 0.2 + 0.1j
    z = q + np.exp(0.3j) * np.linspace(-0.2, 0.2, 96)
    G = np.array([1.0, 1j, 0.0])
    noise = np.random.default_rng(3).standard_normal((96, 3))
    for k in (1, 3):
        Fz = (z - q)[:, None] ** k * G
        Fz = Fz + 1e-6 * np.linalg.norm(Fz) / np.sqrt(Fz.size) * noise
        a_res, a_G0 = geometry._branch_model_fits(z, Fz, q, k)
        dz = z - q
        cols = np.stack([dz**k, dz ** (k + 1), dz**k * np.conj(dz)], axis=1)
        scale = np.abs(cols).max(axis=0)
        sol, _, rank, _ = np.linalg.lstsq(cols / scale, Fz, rcond=None)
        assert rank == 2
        assert abs(a_res / np.linalg.norm(Fz - (cols / scale) @ sol) - 1) <= 1e-9
        assert np.allclose(a_G0, sol[0] / scale[0], rtol=1e-9, atol=0)
        _assert_same_fit(z, Fz, q)


def test_fundamental_forms_cached_per_immersion():
    F = ellipsoid(SphericalGrid(12))
    assert fundamental_forms(F) is fundamental_forms(F)


def test_verify_takes_chart_gradients_from_the_cached_jet(monkeypatch):
    """One verify synthesizes four jets (F up to second order, F itself,
    the third-order terms and the obstruction's H) and no chart gradient
    of its own; the cached chart gradients equal grid.chart_gradient's."""
    g = SphericalGrid(12)
    F = perturbed_sphere(g, seed=3)
    calls = {"synthesize_jet": 0, "chart_gradient": 0}
    for name in calls:
        original = getattr(grid_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (grid_module, geometry):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    verify(F)
    assert calls == {"synthesize_jet": 4, "chart_gradient": 0}
    monkeypatch.undo()
    for chart in ("north", "south"):
        assert np.array_equal(F.chart_gradient(chart),
                              grid_module.chart_gradient(F.field, g, chart),
                              equal_nan=True)


def _count_calls(monkeypatch, module, name, key=lambda *args: None):
    """Wrap module.name; returns a dict counting its calls per key(*args)."""
    calls, original = {}, getattr(module, name)

    def counted(*args, **kwargs):
        k = key(*args)
        calls[k] = calls.get(k, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_evaluates_the_kernel_once_and_chart_gradients_only_for_fits(
        monkeypatch):
    """A verify runs pointwise_forms once: the forms, the conformality
    residual, the branch scan's |F_z| and Codazzi read that one evaluation.
    An unbranched scan forms no chart gradient; a branched one forms each
    chart's F_z at most once, for its fits."""
    kernel = _count_calls(monkeypatch, geometry, "pointwise_forms")
    fz = _count_calls(monkeypatch, geometry, "chart_gradient_from_jet",
                      key=lambda ft, fp, grid, chart: chart)
    report = verify(round_sphere(SphericalGrid(12), radius=1.5))
    assert report["conformality_sup"] <= geometry.CONFORMALITY_TOL  # scan ran
    assert report["codazzi_norm"] < 1e-12
    assert kernel == {None: 1} and fz == {}

    kernel.clear()
    report = verify(branched_z2_sphere(SphericalGrid(24)))
    assert len(report["branch_points"]) + len(report["unresolved_singular_points"]) == 2
    assert kernel == {None: 1}
    assert fz and all(n == 1 for n in fz.values())


def _reference_conformality(F, chart):
    """F_z . F_z and lambda^2 = 2 |F_z|^2 from the chart gradients F_z;
    "home" takes each row's home chart."""
    if chart == "home":
        north = (F.grid.home_chart() == "north")[:, None]
        fz = np.where(north, F.chart_gradient("north"), F.chart_gradient("south"))
    else:
        fz = F.chart_gradient(chart)
    dot = np.einsum("ctp,ctp->tp", fz, fz)
    return dot, 2.0 * np.einsum("ctp,ctp->tp", fz, np.conj(fz)).real


@pytest.mark.parametrize("L", [16, 48])
def test_chart_free_conformality_matches_chart_gradients(L):
    """The metric's conformality residual (1/4) mu^-2 e^{-+2i phi}(q1 - i q2)
    equals F_z . F_z of the chart gradients in the home, north and south
    charts, NaN on the same nodes, to 1e-13 of the chart's max lambda^2; the
    conformal factor equals 2 |F_z|^2 to 1e-14 relative.  On a radially
    perturbed and a stretched sphere, neither of them conformal."""
    g = SphericalGrid(L)
    for F in (perturbed_sphere(g, seed=5), ellipsoid(g, a=1.3, c=0.7)):
        for chart in ("home", "north", "south"):
            ref, lam2 = _reference_conformality(F, chart)
            conf = conformality_residual(F, chart)
            assert np.array_equal(np.isnan(conf), np.isnan(ref))
            ok = ~np.isnan(ref)
            assert np.max(np.abs(conf[ok] - ref[ok])) <= 1e-13 * np.nanmax(lam2)
        _, lam2 = _reference_conformality(F, "home")
        assert np.max(np.abs(fundamental_forms(F).conformal_factor / lam2 - 1)) <= 1e-14


def _rotation(w):
    """Rotation by the angle |w| about the axis w (Rodrigues' formula)."""
    K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    th = np.linalg.norm(w)
    # sin(th)/th and (1 - cos th)/th^2, finite at th = 0
    s1, s2 = np.sinc(th / np.pi), 0.5 * np.sinc(th / (2 * np.pi)) ** 2
    return np.eye(3) + s1 * K + s2 * (K @ K)


@given(L=st.integers(6, 12), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.01, 0.2), max_degree=st.integers(1, 4),
       w=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
       shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
def test_verify_scalars_invariant_under_rigid_motion(L, seed, amplitude, max_degree,
                                                     w, shift):
    """An ambient rotation plus a translation of a perturbed sphere leaves the
    verify scalars unchanged.  Over 300 random cases of this space the largest
    differences were 1.2e-14 (area), 1.4e-14 (intA2), 2.1e-14 (Gauss
    identity), 1.6e-15 (Codazzi) and 7.2e-15 (|obstruction|); each bound
    below is at least 10x that."""
    g = SphericalGrid(L)
    F = perturbed_sphere(g, seed, amplitude=amplitude, max_degree=max_degree)
    coeffs = np.einsum("dc,clm->dlm", _rotation(np.array(w)), F.field.coeffs)
    coeffs[:, 0, L] += np.array(shift) * np.sqrt(FOUR_PI)
    a, b = verify(F), verify(ImmersionField(HarmonicField(coeffs), g))
    for key, tol in (("area", 1e-12), ("intA2", 1e-12), ("gauss_identity", 1e-12),
                     ("codazzi_norm", 1e-13)):
        assert abs(a[key] - b[key]) < tol, key
    va, vb = np.linalg.norm(a["obstruction"]), np.linalg.norm(b["obstruction"])
    assert abs(va - vb) < 1e-13


@pytest.fixture(scope="module")
def conformal_spheres():
    """Two converged L = 12 solves (acceptance targets 101 and 102, eps =
    0.05): conformal immersions that are not round."""
    g = SphericalGrid(12)
    fields = []
    for seed in (101, 102):
        res = solve_pmc(band_limited_target(g, seed, 0.05), SolverConfig(degree=12))
        assert res.status == "converged"
        fields.append(res.field)
    return g, fields


@given(index=st.integers(0, 1), v=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
       w=st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
def test_verify_scalars_invariant_under_mobius_reparametrization(conformal_spheres,
                                                                 index, v, w):
    """A rotation composed with a boost (|v| <= 0.1) of the domain of a
    conformal immersion leaves the verify scalars unchanged.  Over 900
    random cases of this space (boost length uniform in [0, 0.1]) the
    largest differences were 7.1e-15 (area), 2.1e-13 (intA2), 2.1e-14
    (Gauss identity), 1.9e-15 (Codazzi) and 5.3e-13 (|obstruction|); each
    bound below is at least 10x that.  The composition is re-projected at
    L = 12, so the differences grow with |v|: at |v| <= 0.3 intA2 moved by
    up to 7.4e-7."""
    g, fields = conformal_spheres
    v = np.array(v)
    v /= max(1.0, np.linalg.norm(v) / 0.1)
    F = fields[index]
    moved = _mobius_reparametrize(F, g, g, v, _rotation(np.array(w)))
    a, b = verify(ImmersionField(F, g)), verify(ImmersionField(moved, g))
    for key, tol in (("area", 1e-13), ("intA2", 3e-12), ("gauss_identity", 3e-13),
                     ("codazzi_norm", 2e-14)):
        assert abs(a[key] - b[key]) < tol, key
    va, vb = np.linalg.norm(a["obstruction"]), np.linalg.norm(b["obstruction"])
    assert abs(va - vb) < 1e-11


def test_immersion_regular_flag():
    g = SphericalGrid(12)
    assert round_sphere(g).is_regular
    # collapsing the surface toward a point drops |F_z|^2 below the floor
    tiny = ImmersionField(HarmonicField(1e-5 * round_sphere(g).field.coeffs), g)
    assert not tiny.is_regular


def branched_z2_sphere(grid):
    """The map z -> z^2 of the north chart as a sphere S^2 -> S^2, rotated so
    that its branch point lies 1e-6 from a node (and its second one at the
    antipode): the node's |F_z| is small enough for the scan to find it."""
    node = grid.xyz[:, grid.L // 3, 5]
    tangent = np.cross(node, [0.0, 0.0, 1.0])
    q = node + 1e-6 * tangent / np.linalg.norm(tangent)
    return z2_sphere_branched_at(q / np.linalg.norm(q), grid)


def z2_sphere_branched_at(q, grid):
    """z -> z^2 as a sphere S^2 -> S^2, rotated so that its branch points
    are the unit vector q and its antipode."""
    # the rotation taking q to e3, about the axis q x e3
    axis = np.cross(q, [0.0, 0.0, 1.0])
    R = _rotation(np.arcsin(np.linalg.norm(axis)) * axis / np.linalg.norm(axis))
    x = np.einsum("dc,ctp->dtp", R, grid.xyz)
    P = (x[0] + 1j * x[1]) ** 2
    A, B = (1 + x[2]) ** 2, (1 - x[2]) ** 2
    return ImmersionField.from_values(np.stack([2 * P.real, 2 * P.imag, A - B]) / (A + B),
                                      grid)


def test_verify_codazzi_null_on_branched_sphere():
    """On a branched z -> z^2 sphere the scan finds its singular points, and
    verify reports codazzi_norm as null with its reason, in the key's usual
    place, instead of the unbounded integral."""
    F = branched_z2_sphere(SphericalGrid(24))
    report = verify(F)
    assert report["conformality_sup"] <= geometry.CONFORMALITY_TOL
    found = len(report["branch_points"]) + len(report["unresolved_singular_points"])
    assert found == 2
    assert report["codazzi_norm"] is None
    assert "2 unresolved singular point(s)" in report["codazzi_unavailable"]
    assert list(report)[3] == "codazzi_norm"
    assert list(report)[-1] == "codazzi_unavailable"
    assert codazzi_residual(F) > 1e-3   # 0.03; unbranched spheres read <= 2e-14
    unbranched = verify(round_sphere(SphericalGrid(24)))
    assert unbranched["codazzi_norm"] < 1e-12 and "codazzi_unavailable" not in unbranched


def test_codazzi_holds_on_branched_sphere_without_singular_node():
    """Codazzi is an identity of the band-limited jets wherever n != 0, so it
    does not see branching as such.  With the z^2 map's branch points midway
    between nodes, no node is singular, Gauss-Bonnet reads the map's degree
    (int K dA = 8 pi) and codazzi_residual reads rounding (7.4e-15 at
    L = 32).  The large value on branched_z2_sphere comes only from its two
    nodes 1e-6 from the branch points."""
    g = SphericalGrid(32)
    i = g.L // 3
    theta, phi = 0.5 * (g.theta[i] + g.theta[i + 1]), 5.5 * g.delta_phi
    q = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    F = z2_sphere_branched_at(q, g)
    assert not F.pointwise["singular"].any()
    report = verify(F)
    assert abs(report["gauss_bonnet_residual"] - 4.0 * np.pi) < 1e-8
    assert codazzi_residual(F) < 1e-13


def test_branch_scans_do_not_import_numpy_ma():
    """The scan's threshold and the fit's node spacing are medians taken
    without np.median, which imports numpy.ma (about 1 MB and 11 ms) on
    first use: after a verify that scans and fits the branched z^2 sphere,
    and a planar scan of the Enneper t = 0 limit, a fresh process has not
    loaded numpy.ma."""
    script = textwrap.dedent("""
        import sys
        from pmcsphere.geometry import verify
        from pmcsphere.grid import SphericalGrid
        from pmcsphere.planar import DiskGrid, detect_branch_points_planar, enneper_blowdown
        from test_geometry import branched_z2_sphere

        report = verify(branched_z2_sphere(SphericalGrid(24)))
        scan = detect_branch_points_planar(enneper_blowdown(0.0, DiskGrid(1.0, 48, 48)))
        found = len(report["branch_points"]) + len(report["unresolved_singular_points"])
        print(found, len(scan.points), "numpy.ma" in sys.modules)
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    path = [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert out.stdout.split() == ["2", "1", "False"]


def test_verify_scan_flag_is_keyword_only():
    """verify takes the immersion alone: a stray positional argument (a
    grid, say) raises."""
    g = SphericalGrid(8)
    with pytest.raises(TypeError):
        verify(round_sphere(g), g)


def test_verify_report_keys():
    g = SphericalGrid(16)
    report = verify(round_sphere(g))
    for key in (
        "area",
        "intA2",
        "gauss_identity",
        "codazzi_norm",
        "obstruction",
        "branch_points",
        "mc_convention_constant",
    ):
        assert key in report
    assert abs(report["area"] - FOUR_PI) < 1e-8
    assert abs(report["intA2"] - 2 * FOUR_PI) < 1e-8
    assert report["mc_convention_constant"] == -0.5
