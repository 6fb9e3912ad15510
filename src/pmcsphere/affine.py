"""
Normalized affine functions ell = a + b.x with a = |b|.

These span the 3-parameter indeterminacy of the prescribed-mean-curvature
class: ell >= 0 on the sphere with equality only at -b/|b|, and the gradients
of the linear parts are exactly the conformal gradient fields of the round
sphere.  The canonical representative of a class under a given volume weight
is the unique member whose obstruction integrals vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .grid import FOUR_PI, SphericalGrid, integrate
from .geometry import obstruction_vector

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class AffineFunction:
    """ell(p) = |b| + b . p on the unit sphere."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(3)
        if not np.all(np.isfinite(b)):
            raise DataError("affine vector must be finite")
        object.__setattr__(self, "b", b)
        self.b.setflags(write=False)

    @property
    def constant(self) -> float:
        return float(np.linalg.norm(self.b))

    def evaluate(self, grid: SphericalGrid) -> np.ndarray:
        """Node values |b| + b . p over the grid."""
        return self.constant + np.einsum("c,ctp->tp", self.b, grid.xyz)

    def evaluate_at_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.constant + points @ self.b


def _moment_matrix(area_weight: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """M_jk = int <grad x_j, grad x_k> dV = int (delta_jk - x_j x_k) dV."""
    M = np.empty((3, 3))
    for j in range(3):
        for k in range(j, 3):
            integrand = -grid.xyz[j] * grid.xyz[k]
            if j == k:
                integrand = integrand + 1.0
            M[j, k] = M[k, j] = integrate(integrand, grid, area_weight)
    return M


def canonical_representative(H_values: np.ndarray, area_weight: np.ndarray,
                             grid: SphericalGrid):
    """Balanced representative of [H] under the given volume weight.

    Solves M b = -v with M the conformal-gradient Gram matrix and v the
    obstruction vector of H, then returns (H + ell values, AffineFunction).
    Constants never enter the obstruction, so the result is exactly the
    member of the class with vanishing obstruction under this weight.
    """
    H_values = np.asarray(H_values, dtype=float)
    area_weight = np.asarray(area_weight, dtype=float)
    if np.any(area_weight < 0) or not np.any(area_weight > 0):
        raise DataError("area weight must be nonnegative and not identically 0")
    M = _moment_matrix(area_weight, grid)
    if np.linalg.cond(M) > CONDITION_LIMIT:
        raise ConfigurationError(
            "volume weight too degenerate: non-unique balanced representative"
        )
    v = obstruction_vector(H_values, area_weight, grid)
    b = np.linalg.solve(M, -v)
    ell = AffineFunction(b)
    return H_values + ell.evaluate(grid), ell


def class_membership(H1_values: np.ndarray, H2_values: np.ndarray,
                     grid: SphericalGrid, tol: float = 1e-8):
    """AffineFunction with H2 = H1 + ell if one exists, else None.

    Least-squares fit of H2 - H1 against span{1, x1, x2, x3} (round L2
    inner products); membership requires both a small fit residual and the
    normalization constant = |vector part|.
    """
    diff = np.asarray(H2_values, dtype=float) - np.asarray(H1_values, dtype=float)
    c0 = integrate(diff, grid) / FOUR_PI
    b = np.array(
        [integrate(diff * grid.xyz[j], grid) / (FOUR_PI / 3.0) for j in range(3)]
    )
    fit = c0 + np.einsum("c,ctp->tp", b, grid.xyz)
    residual = np.sqrt(integrate((diff - fit) ** 2, grid) / FOUR_PI)
    if residual > tol or abs(c0 - np.linalg.norm(b)) > tol:
        return None
    return AffineFunction(b)
