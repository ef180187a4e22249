"""Spectral toolkit for the 2D hyperviscous Navier-Stokes equations on the torus.

Certified sparse-annulus lattice searches, divergence-free Fourier fields with
exact convolution oracles, a smooth amplitude cutoff, a prepared-equation
pseudo-spectral solver with cone diagnostics, and restricted-operator
(spatial averaging) checks.
"""

__version__ = "0.1.0"

from .lattice import (
    AnnulusFamily,
    GapRecord,
    SparseAnnulus,
    StripStats,
    annulus_points,
    find_sparse_annulus,
    is_representable,
    min_pairwise_distance,
    record_gaps,
    representable_sieve,
    strip_statistics,
)
from .spectral import (
    CutoffFamily,
    FourierField,
    SpectralParams,
    apply_A_power,
    bilinear_B,
    inner_product,
    leray_project,
    power_gap_lower_bound,
    random_field,
    sobolev_norm,
    trilinear_b,
)
from .truncation import (
    DEFAULT_OUTER_RADIUS,
    CutoffProfile,
    apply_W,
    apply_W_prime,
    nonlinearity_F,
    nonlinearity_F_prime,
    nonlinearity_h2_bound,
    prepared_product,
    theta,
    theta_jacobian,
    w_image_h2_bound,
)
from .dynamics import (
    BlowUpError,
    ConeTrace,
    SimConfig,
    Trajectory,
    cone_report,
    evolve,
    evolve_pairs,
    perturbed_copy,
    rhs_prepared,
    step,
)
from .averaging import (
    AveragingReport,
    assemble_restricted_operator,
    averaging_trend,
    band_basis,
    cancellation_defect,
    check_averaging,
    draw_averaging_samples,
    restricted_norm,
    weak_restricted_operator,
)
