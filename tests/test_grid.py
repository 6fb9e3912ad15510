"""Tests for the spectral sphere grid: transforms, charts, quadrature."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsphere.errors import ChartDomainError, ConfigurationError, DataError
from pmcsphere.grid import (
    FOUR_PI,
    ChartPoint,
    HarmonicField,
    SphericalGrid,
    analyze,
    chart_gradient,
    integrate,
    synthesize,
    synthesize_at,
    synthesize_jet,
    synthesize_jet_adjoint,
    _gauss_legendre,
)
from pmcsphere.planar import DiskGrid


def random_field(L, ncomp=1, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((ncomp, L + 1, 2 * L + 1))
    for l in range(L + 1):
        coeffs[:, l, L - l : L + l + 1] = amplitude * rng.standard_normal(
            (ncomp, 2 * l + 1)
        )
    return HarmonicField(coeffs)


def test_grid_counts_and_weight_sum():
    for L in (4, 16, 48):
        g = SphericalGrid(L)
        assert g.w.shape == (L + 1, 2 * L + 2)
        assert abs(np.sum(g.w) - FOUR_PI) < 1e-12 * FOUR_PI


def test_gauss_legendre_rule_built_once_per_n():
    """Sphere and disk grids read one memoized, read-only rule per n,
    bit-identical to leggauss."""
    x, w = np.polynomial.legendre.leggauss(13)
    order = np.argsort(-x)
    g = SphericalGrid(12)
    assert np.array_equal(g.x_gl, x[order]) and np.array_equal(g.w_gl, w[order])
    d = DiskGrid(2.5, n_r=13, n_phi=8)
    r = 2.5 * (x + 1) / 2
    assert np.array_equal(d.r, r)
    assert np.array_equal(d.w, (2.5 / 2 * w * r)[:, None] * np.full(8, 2 * np.pi / 8))

    rule = _gauss_legendre(13)
    assert _gauss_legendre(13) is rule
    for a in rule:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    misses = _gauss_legendre.cache_info().misses
    DiskGrid(1.0, n_r=13)
    SphericalGrid(12)
    assert _gauss_legendre.cache_info().misses == misses


def test_constant_field_synthesis():
    g = SphericalGrid(8)
    f = HarmonicField.zeros(1, 8)
    c = f.coeffs.copy()
    c[0, 0, 8] = 1.0
    vals = synthesize(HarmonicField(c), g)
    assert np.allclose(vals, 1.0 / np.sqrt(FOUR_PI), atol=1e-14)


def test_single_mode_is_cos_theta():
    """The (l=1, m=0) basis function is proportional to cos(theta)."""
    g = SphericalGrid(8)
    c = np.zeros((1, 9, 17))
    c[0, 1, 8] = 1.0
    vals = synthesize(HarmonicField(c), g)
    expected = np.sqrt(3.0 / FOUR_PI) * g.cos_theta[:, None]
    assert np.allclose(vals, np.broadcast_to(expected, vals.shape), atol=1e-13)


def test_roundtrip_random_fields():
    g = SphericalGrid(16)
    for seed in range(100):
        f = random_field(16, seed=seed)
        f2 = analyze(synthesize(f, g), g)
        assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-10


@given(L=st.integers(1, 12), data=st.data(), ncomp=st.sampled_from([1, 3]),
       log_amplitude=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_synthesize_analyze_roundtrip_property(L, data, ncomp, log_amplitude, seed):
    """A field of degree d <= L survives synthesize then analyze on the
    degree-L grid, and its node values survive analyze then synthesize.
    Over 300 random cases of this space the largest relative errors were
    5.2e-15 (coefficients) and 1.0e-14 (values); the bounds are 19x and
    20x that."""
    d = data.draw(st.integers(0, L))
    f = random_field(d, ncomp=ncomp, seed=seed, amplitude=10.0**log_amplitude)
    g = SphericalGrid(L)
    values = synthesize(f, g)
    f2 = analyze(values, g)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(f2.coeffs - f.truncated(L).coeffs)) <= 1e-13 * scale
    assert np.max(np.abs(synthesize(f2, g) - values)) <= 2e-13 * np.max(np.abs(values))


JET_KEYS = ("f", "ft", "fp", "lap", "ftt", "ftp", "fpp", "fttt", "fttp", "ftpp", "fppp")


def reference_theta_tables(grid):
    """Q_{l,m} and its first three theta-derivatives at the grid's nodes as
    [n, m, l, node], zero where l < m: Q and dQ/dtheta from the grid's
    table, the second and third derivatives from the Legendre ODE
    (the grid derives those from the Laplacian instead)."""
    x, s = grid.cos_theta, grid.sin_theta
    q, d1 = grid._theta_tables.transpose(0, 1, 3, 2)
    m = np.arange(grid.L + 1.0)[:, None, None]
    l = np.arange(grid.L + 1.0)[None, :, None]
    pot = l * (l + 1.0) - m * m / s**2
    d2 = -x / s * d1 - pot * q
    d3 = -x / s * d2 + (1.0 / s**2 - pot) * d1 - 2.0 * m * m * x / s**3 * q
    return np.stack([q, d1, d2, d3])


def synthesize_jet_by_order(field, grid, which):
    """Reference synthesis, one order m at a time from the rows l >= m of
    the padded Legendre-ODE tables (the loop the batched transform replaced)."""
    tables = reference_theta_tables(grid)
    theta = {"f": 0, "fp": 0, "fpp": 0, "fppp": 0, "lap": 0, "ft": 1, "ftp": 1,
             "ftpp": 1, "ftt": 2, "fttp": 2, "fttt": 3}
    power = {"f": 0, "ft": 0, "ftt": 0, "fttt": 0, "fp": 1, "ftp": 1, "fttp": 1,
             "fpp": 2, "ftpp": 2, "fppp": 3, "lap": 0}
    Lf, nc = field.degree, field.n_components
    out = {k: np.zeros((nc, grid.n_theta, grid.n_phi)) for k in which}
    for m in range(Lf + 1):
        ls = np.arange(m, Lf + 1)
        ca = field.coeffs[:, m:, Lf + m].T
        cb = field.coeffs[:, m:, Lf - m].T
        c, s = np.cos(m * grid.phi), np.sin(m * grid.phi)
        scale = 1.0 if m == 0 else np.sqrt(2.0)
        for key in which:
            tab = tables[theta[key], m, m : Lf + 1]
            lam = -(ls * (ls + 1.0))[:, None] if key == "lap" else 1.0
            az_a, az_b = [(c, s), (-m * s, m * c), (-m * m * c, -m * m * s),
                          (m**3 * s, -(m**3) * c)][power[key]]
            out[key] += scale * (np.einsum("tc,p->ctp", tab.T @ (lam * ca), az_a)
                                 + np.einsum("tc,p->ctp", tab.T @ (lam * cb), az_b))
    return out


def test_synthesize_jet_matches_order_by_order_reference():
    """The batched synthesis equals the order-by-order loop to rounding
    (summation order differs: 1e-13 of the largest value), also for a field
    of lower degree than the grid."""
    for L, Lf in ((1, 1), (7, 4), (16, 16), (32, 29)):
        g = SphericalGrid(L)
        f = random_field(Lf, ncomp=3, seed=L)
        jet = synthesize_jet(f, g, which=JET_KEYS)
        ref = synthesize_jet_by_order(f, g, JET_KEYS)
        for k in JET_KEYS:
            assert np.max(np.abs(jet[k] - ref[k])) <= 1e-13 * np.max(np.abs(ref[k]))


@pytest.mark.parametrize("L", [16, 32])
def test_derived_theta_derivatives_match_legendre_ode_reference(L):
    """ftt, fttp and fttt, per-row combinations of the Laplacian and lower
    derivatives, equal the order-by-order synthesis from the Legendre-ODE
    table to 1e-13 of the sup, on a field with coefficients ~ l^-2.  Seen:
    at most 9.1e-16 at L = 16, 1.1e-15 at L = 32 and 1.8e-15 at L = 128."""
    keys = ("ftt", "fttp", "fttt")
    g = SphericalGrid(L)
    f = random_field(L, ncomp=3, seed=40 + L)
    decay = np.maximum(np.arange(L + 1.0), 1.0) ** -2
    f = HarmonicField(f.coeffs * decay[None, :, None])
    jet = synthesize_jet(f, g, which=keys)
    ref = synthesize_jet_by_order(f, g, keys)
    for k in keys:
        assert np.max(np.abs(jet[k] - ref[k])) <= 1e-13 * np.max(np.abs(ref[k]))


def analyze_by_order(values, grid):
    """Reference quadrature projection, one order m at a time (the loop that
    analysis as the weighted adjoint replaced)."""
    L = grid.L
    q = reference_theta_tables(grid)[0]
    values = values.reshape(-1, grid.n_theta, grid.n_phi)
    coeffs = np.zeros((values.shape[0], L + 1, 2 * L + 1))
    for m in range(L + 1):
        scale = 1.0 if m == 0 else np.sqrt(2.0)
        proj = q[m, m:] * grid.w_gl[None, :]                        # (nl, n_theta)
        vc = values @ np.cos(m * grid.phi) * grid.delta_phi        # (nc, n_theta)
        vs = values @ np.sin(m * grid.phi) * grid.delta_phi
        coeffs[:, m:, L + m] = scale * np.einsum("lt,ct->cl", proj, vc)
        if m > 0:
            coeffs[:, m:, L - m] = scale * np.einsum("lt,ct->cl", proj, vs)
    return coeffs


def test_analyze_matches_order_by_order_reference():
    """analyze, the weighted adjoint of synthesis, equals the order-by-order
    quadrature on random node values (not band-limited) to 1e-13 of the
    largest coefficient, for one and for three components."""
    rng = np.random.default_rng(9)
    for L in (1, 7, 16, 32):
        g = SphericalGrid(L)
        for shape in ((g.n_theta, g.n_phi), (3, g.n_theta, g.n_phi)):
            values = rng.standard_normal(shape)
            ref = analyze_by_order(values, g)
            got = analyze(values, g).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_analyze_rejects_transposed_values():
    """A transposed array has the grid's size but not its shape."""
    g = SphericalGrid(8)
    vals = np.ones((g.n_theta, g.n_phi))
    with pytest.raises(ConfigurationError):
        analyze(vals.T, g)
    with pytest.raises(ConfigurationError):
        analyze(np.stack([vals.T] * 3), g)


def test_synthesize_at_nodes_and_poles():
    """At the grid nodes synthesize_at equals synthesize; at the poles
    (theta = 0 and pi, the vertices export_obj writes) it equals
    sum_l c_{l,0} sqrt((2l + 1) / 4 pi) (+-1)^l."""
    for L in (1, 7, 16):
        g = SphericalGrid(L)
        f = random_field(L, ncomp=3, seed=20 + L)
        th = np.repeat(g.theta, g.n_phi)
        ph = np.tile(g.phi, g.n_theta)
        at = synthesize_at(f, th, ph).reshape(3, g.n_theta, g.n_phi)
        ref = synthesize(f, g)
        assert np.max(np.abs(at - ref)) <= 1e-13 * np.max(np.abs(ref))
        ls = np.arange(L + 1)
        for theta, sign in ((0.0, 1.0), (np.pi, -1.0)):
            pole = f.coeffs[:, :, L] @ (np.sqrt((2 * ls + 1) / FOUR_PI) * sign**ls)
            got = synthesize_at(f, theta, 0.0)[:, 0]
            assert np.max(np.abs(got - pole)) <= 1e-13 * np.max(np.abs(pole))


@given(L=st.integers(1, 12), keys=st.sets(st.sampled_from(JET_KEYS), min_size=1),
       ncomp=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_synthesize_jet_adjoint_property(L, keys, ncomp, seed):
    """<synthesize_jet(f)[k], w[k]> summed over keys equals <f, adjoint(w)>,
    and the adjoint vanishes on the entries with |m| > l."""
    rng = np.random.default_rng(seed)
    g = SphericalGrid(L)
    f = random_field(L, ncomp=ncomp, seed=seed)
    w = {k: rng.standard_normal((f.n_components, g.n_theta, g.n_phi)) for k in keys}
    jet = synthesize_jet(f, g, which=tuple(keys))
    lhs = sum(np.sum(jet[k] * w[k]) for k in keys)
    adj = synthesize_jet_adjoint(w, g)
    scale = sum(np.linalg.norm(jet[k]) * np.linalg.norm(w[k]) for k in keys)
    assert abs(lhs - np.sum(f.coeffs * adj)) <= 1e-13 * scale
    invalid = np.abs(np.arange(-L, L + 1))[None, :] > np.arange(L + 1)[:, None]
    assert np.all(adj[:, invalid] == 0.0)
    # any component count, with flattened nodes: nine stacked arrays
    many = {k: rng.standard_normal((9, g.n_theta * g.n_phi)) for k in keys}
    adj_many = synthesize_jet_adjoint(many, g)
    one = synthesize_jet_adjoint({k: v[-1:] for k, v in many.items()}, g)
    assert np.allclose(adj_many[-1:], one, rtol=0.0, atol=1e-12 * np.max(np.abs(one)))


def test_analyze_constant_and_cos_theta():
    g = SphericalGrid(10)
    c = analyze(np.ones((g.n_theta, g.n_phi)), g).coeffs[0]
    nz = np.argwhere(np.abs(c) > 1e-12)
    assert nz.tolist() == [[0, 10]]

    vals = np.broadcast_to(g.cos_theta[:, None], (g.n_theta, g.n_phi))
    c = analyze(vals, g).coeffs[0]
    nz = np.argwhere(np.abs(c) > 1e-12)
    assert nz.tolist() == [[1, 10]]


def test_aliasing_bounded_by_tail_norm():
    """Analysis of a pure degree-(L+1..L+3) field returns only aliasing error,
    bounded by the discrete norm of the tail (Bessel, exact discrete
    orthonormality of retained modes)."""
    L = 12
    g = SphericalGrid(L)
    tail = random_field(L + 3, seed=3)
    c = tail.coeffs.copy()
    c[:, : L + 1, :] = 0.0  # keep only degrees L+1..L+3
    tail = HarmonicField(c)
    fine = SphericalGrid(2 * L)
    vals = synthesize(tail.truncated(2 * L), fine)
    # exact projection onto degree <= L on the fine grid is zero
    exact = analyze(vals, fine).coeffs[0, : L + 1, :]
    exact_window = exact[:, (2 * L) - L : (2 * L) + L + 1]
    assert np.max(np.abs(exact_window)) < 1e-10

    coarse_vals = synthesize(tail.truncated(L + 3), SphericalGrid(L + 3))
    coarse_vals = synthesize_at_grid(tail, g)
    alias = analyze(coarse_vals, g).coeffs
    tail_disc = np.sqrt(integrate(coarse_vals**2, g))
    assert np.sqrt(np.sum(alias**2)) <= tail_disc + 1e-12


def synthesize_at_grid(field, grid):
    """Evaluate a (possibly higher-degree) field pointwise on another grid."""
    th = np.repeat(grid.theta, grid.n_phi)
    ph = np.tile(grid.phi, grid.n_theta)
    return synthesize_at(field, th, ph)[0].reshape(grid.n_theta, grid.n_phi)


def test_quadrature_exactness_gram():
    """Products of harmonics with total degree <= 2L integrate to their Gram
    values (sampled pairs)."""
    L = 16
    g = SphericalGrid(L)
    rng = np.random.default_rng(7)
    for _ in range(50):
        l1, l2 = rng.integers(0, L + 1, size=2)
        m1 = rng.integers(-l1, l1 + 1) if l1 else 0
        m2 = rng.integers(-l2, l2 + 1) if l2 else 0
        c1 = np.zeros((1, L + 1, 2 * L + 1))
        c1[0, l1, L + m1] = 1.0
        c2 = np.zeros((1, L + 1, 2 * L + 1))
        c2[0, l2, L + m2] = 1.0
        prod = synthesize(HarmonicField(c1), g) * synthesize(HarmonicField(c2), g)
        val = integrate(prod, g)
        expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(val - expected) < 1e-10


def test_integrate_moments():
    g = SphericalGrid(12)
    ones = np.ones((g.n_theta, g.n_phi))
    assert abs(integrate(ones, g) - FOUR_PI) < 1e-10
    x3 = g.xyz[2]
    assert abs(integrate(x3, g)) < 1e-10
    assert abs(integrate(x3**2, g) - FOUR_PI / 3) < 1e-9


def test_spectral_derivatives_vs_finite_differences():
    """Spectral d/dtheta, d/dphi agree with centered differences (off-grid
    evaluation oracle, step 1e-5)."""
    L = 16
    g = SphericalGrid(L)
    h = 1e-5
    # probe at a few interior nodes
    probes = [(3, 5), (8, 0), (12, 19)]
    for seed in range(20):
        f = random_field(L, seed=100 + seed)
        jet = synthesize_jet(f, g, which=("ft", "fp"))
        for (i, j) in probes:
            th, ph = g.theta[i], g.phi[j]
            ft_fd = (
                synthesize_at(f, th + h, ph)[0, 0]
                - synthesize_at(f, th - h, ph)[0, 0]
            ) / (2 * h)
            fp_fd = (
                synthesize_at(f, th, ph + h)[0, 0]
                - synthesize_at(f, th, ph - h)[0, 0]
            ) / (2 * h)
            assert abs(jet["ft"][0, i, j] - ft_fd) < 1e-6
            assert abs(jet["fp"][0, i, j] - fp_fd) < 1e-6


def test_second_third_theta_derivative_tables():
    """Second and third theta-derivatives, derived from the Laplacian, match
    finite differences."""
    L = 12
    g = SphericalGrid(L)
    f = random_field(L, seed=11)
    jet = synthesize_jet(f, g, which=("ftt", "fttt"))
    h = 1e-4
    i, j = 5, 3
    th, ph = g.theta[i], g.phi[j]
    stencil = [synthesize_at(f, th + k * h, ph)[0, 0] for k in (-2, -1, 0, 1, 2)]
    ftt_fd = (stencil[1] - 2 * stencil[2] + stencil[3]) / h**2
    fttt_fd = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h**3)
    assert abs(jet["ftt"][0, i, j] - ftt_fd) < 1e-5
    assert abs(jet["fttt"][0, i, j] - fttt_fd) < 1e-2 * max(1, abs(fttt_fd))


def test_laplacian_eigenvalue():
    g = SphericalGrid(10)
    c = np.zeros((1, 11, 21))
    c[0, 4, 10 + 2] = 1.0
    f = HarmonicField(c)
    jet = synthesize_jet(f, g, which=("f", "lap"))
    assert np.allclose(jet["lap"], -20.0 * jet["f"], atol=1e-11)


def test_chart_transition_rule():
    g = SphericalGrid(8)
    zn = g.chart_z("north")
    zs = g.chart_z("south")
    interior = (g.theta > 0.3) & (g.theta < np.pi - 0.3)
    assert np.allclose(zs[interior], 1.0 / zn[interior], atol=1e-12)
    p = ChartPoint("north", 0.5 + 0.25j)
    q = p.to_other_chart()
    assert q.chart == "south"
    assert abs(q.z - 1.0 / (0.5 + 0.25j)) < 1e-15


def test_chart_gradient_constant_field():
    g = SphericalGrid(8)
    f = HarmonicField.zeros(1, 8)
    c = f.coeffs.copy()
    c[0, 0, 8] = 2.3
    fz = chart_gradient(HarmonicField(c), g, "north")
    mask = g.chart_mask("north")
    assert np.nanmax(np.abs(fz[mask])) < 1e-12


def test_chart_gradient_consistency_on_overlap():
    """North/south chart gradients agree through F_zs = -zn^2 F_zn."""
    g = SphericalGrid(16)
    f = random_field(16, seed=5)
    fzn = chart_gradient(f, g, "north")
    fzs = chart_gradient(f, g, "south")
    zn = g.chart_z("north")
    band = (np.abs(g.theta - np.pi / 2) < 0.4)[:, None] & np.ones(
        (1, g.n_phi), dtype=bool
    )
    lhs = fzs[band]
    rhs = (-(zn**2) * fzn)[band]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def _smooth_window(t):
    """C-infinity transition, 1 for t <= 0 and 0 for t >= 1."""
    def sig(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out
    s1, s2 = sig(1 - t), sig(t)
    return s1 / (s1 + s2 + 1e-300)


def test_chart_gradient_re_z_field():
    """A windowed copy of Re(z) has F_z = 1/2 on the window interior,
    verified against a chart-coordinate finite-difference oracle (step 1e-5,
    agreement < 1e-6).  The 1/2 value itself is limited by the window's
    spectral truncation; the bound below is frozen from the oracle run."""
    L = 48
    g = SphericalGrid(L)
    theta = g.theta[:, None]
    t = (np.broadcast_to(theta, (g.n_theta, g.n_phi)) - 0.7) / 1.9
    window = _smooth_window(t.copy())
    vals = np.tan(theta / 2) * np.cos(g.phi)[None, :] * window
    field = analyze(vals, g)
    fz = chart_gradient(field, g, "north")
    inner = theta[:, 0] < 0.7
    assert np.max(np.abs(fz[inner, :] - 0.5)) < 1e-4

    # finite-difference oracle in chart coordinates
    h = 1e-5
    for (i, j) in [(4, 3), (10, 11)]:
        z0 = g.chart_z("north")[i, j]
        def value_at(z):
            th = 2 * np.arctan(abs(z))
            ph = np.angle(z) % (2 * np.pi)
            return synthesize_at(field, th, ph)[0, 0]
        fu = (value_at(z0 + h) - value_at(z0 - h)) / (2 * h)
        fv = (value_at(z0 + 1j * h) - value_at(z0 - 1j * h)) / (2 * h)
        assert abs(fz[i, j] - 0.5 * (fu - 1j * fv)) < 1e-6


def test_round_embedding_is_conformal():
    g = SphericalGrid(16)
    f = analyze(g.xyz, g)
    fz = np.stack([chart_gradient(f.component(c), g, "north") for c in range(3)])
    mask = g.chart_mask("north")
    resid = np.einsum("ctp,ctp->tp", fz, fz)
    assert np.nanmax(np.abs(resid[mask])) < 1e-9


def test_masked_node_access_raises():
    g = SphericalGrid(32)
    f = random_field(32, seed=1)
    south_rows = np.where(np.pi - g.theta <= 0.1)[0]
    assert south_rows.size > 0
    with pytest.raises(ChartDomainError):
        chart_gradient(f, g, "north", nodes=([south_rows[0]], [0]))


def test_every_node_unmasked_somewhere():
    for L in (8, 32, 64):
        g = SphericalGrid(L)
        assert np.all(g.chart_mask("north") | g.chart_mask("south"))


def test_degree_mismatch_raises():
    g = SphericalGrid(8)
    f = random_field(12, seed=1)
    with pytest.raises(ConfigurationError):
        synthesize(f, g)


def test_non_finite_values_raise():
    g = SphericalGrid(8)
    vals = np.ones((g.n_theta, g.n_phi))
    vals[0, 0] = np.nan
    with pytest.raises(DataError):
        analyze(vals, g)
