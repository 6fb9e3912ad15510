"""Tests for normalized affine functions and the balanced representative."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pmcsphere.affine import (
    AffineFunction,
    canonical_representative,
    class_membership,
)
from pmcsphere.grid import SphericalGrid


def test_evaluate_zero_vector():
    g = SphericalGrid(8)
    assert np.allclose(AffineFunction(np.zeros(3)).evaluate(g), 0.0)


def test_evaluate_unit_z():
    g = SphericalGrid(8)
    vals = AffineFunction([0, 0, 1.0]).evaluate(g)
    expected = 1.0 + g.cos_theta[:, None]
    assert np.allclose(vals, np.broadcast_to(expected, vals.shape), atol=1e-14)
    # zero exactly at the south pole
    p = np.array([0.0, 0.0, -1.0])
    assert AffineFunction([0, 0, 1.0]).evaluate_at_points(p) == 0.0


def test_nonnegativity_random_vectors():
    g = SphericalGrid(32)
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        assert AffineFunction(b).evaluate(g).min() >= -1e-12


def test_canonical_representative_already_balanced():
    g = SphericalGrid(16)
    ones = np.ones((g.n_theta, g.n_phi))
    H = 2.0 * ones
    H_rep, ell = canonical_representative(H, ones, g)
    assert np.linalg.norm(ell.b) < 1e-12
    assert np.allclose(H_rep, H)


def test_canonical_representative_h_plus_x3():
    g = SphericalGrid(16)
    ones = np.ones((g.n_theta, g.n_phi))
    H = 2.0 + g.xyz[2]
    H_rep, ell = canonical_representative(H, ones, g)
    assert np.max(np.abs(ell.b - np.array([0, 0, -1.0]))) < 1e-8
    assert np.max(np.abs(H_rep - 3.0)) < 1e-8


def test_canonical_representative_linearity():
    g = SphericalGrid(16)
    ones = np.ones((g.n_theta, g.n_phi))
    H = 2.0 + 0.3 * g.xyz[0] + 0.4 * g.xyz[1]
    H_rep, ell = canonical_representative(H, ones, g)
    assert np.max(np.abs(ell.b - np.array([-0.3, -0.4, 0.0]))) < 1e-8
    assert np.max(np.abs(H_rep - 2.5)) < 1e-8


def test_canonical_representative_idempotent():
    g = SphericalGrid(16)
    rng = np.random.default_rng(3)
    weight = 1.0 + 0.2 * g.xyz[2] ** 2
    H = 2.0 + 0.5 * g.xyz[0] - 0.2 * g.xyz[2] + 0.1 * g.xyz[1] * g.xyz[2]
    H_rep, ell = canonical_representative(H, weight, g)
    H_rep2, ell2 = canonical_representative(H_rep, weight, g)
    assert np.linalg.norm(ell2.b) < 1e-10
    assert np.max(np.abs(H_rep2 - H_rep)) < 1e-10


def _rotation_matrix(axis, angle):
    axis = np.asarray(axis) / np.linalg.norm(axis)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def test_so3_equivariance():
    """Rotating H and the weight rotates b: b(H o R^T, w o R^T) = R b(H, w)."""
    g = SphericalGrid(20)
    rng = np.random.default_rng(7)

    def h_func(p):
        return 2.0 + 0.4 * p[0] - 0.25 * p[2] + 0.15 * p[0] * p[1]

    def w_func(p):
        return 1.0 + 0.3 * p[2] ** 2 + 0.1 * p[1]

    xyz = g.xyz
    _, ell = canonical_representative(h_func(xyz), w_func(xyz), g)
    for _ in range(10):
        R = _rotation_matrix(rng.standard_normal(3), rng.uniform(0, np.pi))
        xyz_rot = np.einsum("dc,ctp->dtp", R.T, xyz)
        _, ell_rot = canonical_representative(h_func(xyz_rot), w_func(xyz_rot), g)
        assert np.max(np.abs(ell_rot.b - R @ ell.b)) < 1e-8


def test_min_h_rep_at_least_min_h():
    g = SphericalGrid(16)
    ones = np.ones((g.n_theta, g.n_phi))
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.standard_normal(3) * 0.3
        H = 2.0 + np.einsum("c,ctp->tp", c, g.xyz) + 0.1 * g.xyz[2] ** 2
        H_rep, _ = canonical_representative(H, ones, g)
        assert H_rep.min() >= H.min() - 1e-12


def test_class_membership_identity():
    g = SphericalGrid(12)
    H1 = 2.0 + 0.3 * g.xyz[2] ** 2
    ell = class_membership(H1, H1, g)
    assert ell is not None and np.linalg.norm(ell.b) < 1e-12


def test_class_membership_normalized_shift():
    g = SphericalGrid(12)
    H1 = 2.0 + 0.3 * g.xyz[2] ** 2
    H2 = H1 + (1.0 - g.xyz[2])
    ell = class_membership(H1, H2, g)
    assert ell is not None
    assert np.max(np.abs(ell.b - np.array([0, 0, -1.0]))) < 1e-10


def test_class_membership_rejects_unnormalized():
    g = SphericalGrid(12)
    H1 = 2.0 + 0.3 * g.xyz[2] ** 2
    H2 = H1 + (2.0 - g.xyz[2])  # constant != |b|
    assert class_membership(H1, H2, g) is None
    H3 = H1 + 0.2 * g.xyz[0] * g.xyz[1]  # not affine at all
    assert class_membership(H1, H3, g) is None


@given(L=st.integers(4, 12), log_norm=st.floats(-3.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_affine_function_invariants_property(L, log_norm, seed):
    """ell_b = |b| + b.x is nonnegative, vanishes at -b/|b|, is recovered by
    class_membership from H + ell_b, and is SO(3)-equivariant:
    ell_{Rb}(R p) = ell_b(p).  Over 300 random cases of this space the
    largest errors relative to |b| were 0 (negative part), 4.3e-16 (value
    at -b/|b|), 2.2e-14 (recovered b) and 1.7e-15 (equivariance); the
    bounds are at least 23x that, and 1e-14 for the negative part."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(3)
    b *= 10.0**log_norm / np.linalg.norm(b)
    nb = np.linalg.norm(b)
    g = SphericalGrid(L)
    ell = AffineFunction(b)
    assert ell.evaluate(g).min() >= -1e-14 * nb
    assert abs(ell.evaluate_at_points(-b / nb)) <= 1e-14 * nb
    H = 2.0 + 0.3 * g.xyz[0] * g.xyz[1]
    found = class_membership(H, H + ell.evaluate(g), g)
    assert found is not None and np.max(np.abs(found.b - b)) <= 1e-12 * nb
    R = _rotation_matrix(rng.standard_normal(3), rng.uniform(0, np.pi))
    p = rng.standard_normal((20, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    moved = AffineFunction(R @ b).evaluate_at_points(p @ R.T)
    assert np.max(np.abs(moved - ell.evaluate_at_points(p))) <= 1e-13 * nb
