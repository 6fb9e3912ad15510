"""Spectral toolkit for conformal immersions of S^2 with prescribed mean
curvature: harmonic analysis on the sphere, immersion geometry and its
structure-equation residuals, explicit minimal families, and a gauge-fixed
Gauss-Newton continuation solver.

PMC_THREADS, when set, caps BLAS-level parallelism.  BLAS reads its thread
variables when numpy is first imported, so the cap is applied here, before
any submodule imports numpy.
"""

import os as _os


def _apply_thread_cap():
    """PMC_THREADS, when set, overrides the BLAS thread variables."""
    cap = _os.environ.get("PMC_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[var] = cap


_apply_thread_cap()

from .affine import AffineFunction, canonical_representative, class_membership
from .errors import (
    ChartDomainError,
    ConfigurationError,
    ConformalityError,
    DataError,
    InputError,
)
from .geometry import (
    BranchPoint,
    BranchScan,
    FundamentalForms,
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
from .grid import (
    ChartPoint,
    HarmonicField,
    SphericalGrid,
    analyze,
    chart_gradient,
    integrate,
    synthesize,
    synthesize_at,
)
from .planar import (
    DiskGrid,
    PlanarImmersion,
    detect_branch_points_planar,
    enneper_blowdown,
    richardson_limit,
    total_curvature,
    variation_field_check,
    weierstrass_family,
)
from .solver import (
    ContinuationState,
    GaugeBasis,
    SolveResult,
    SolverConfig,
    affine_insolvability_check,
    gauge_basis,
    gauge_projected_step,
    normal_variation_operator,
    residual,
    solve_pmc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
