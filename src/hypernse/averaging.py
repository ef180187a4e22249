"""Restricted mid-band operators and the spatial averaging diagnostics.

The object of interest is the compression I F'(u) I of the linearized
nonlinearity to the band of eigenvalues [lambda_N - k, lambda_N + k], where I
is the band projector.  On a certified sparse annulus the band contains few
lattice modes, each carrying a single divergence-free direction, so the
compression is a small dense complex matrix indexed by those modes.

Two independent routes to the matrix are provided:

* :func:`assemble_restricted_operator` evaluates entries directly as a
  restricted convolution.  The input basis mode stays a single Fourier mode
  under the truncation derivative, so entry (r, c) only needs the coefficient
  of W(u) at the difference wavenumber, and the band gains come from
  truncation's one cutoff derivative.  Array arithmetic over the n x n grid
  of differences; no transforms, no dense grids, so it scales to mu = 1e6.
* :func:`weak_restricted_operator` materializes each basis mode as a field and
  pushes it through the full derivative machinery (truncation derivative,
  dealiased advection, half-inverse Laplacian), then reads band coefficients.
  Small truncations only; it is the cross-check oracle.

The truncation derivative is real-linear but not complex-linear wherever a
coefficient magnitude falls in the transition shell of the radial profile.
The matrix stores the complex-linear action, which is the whole story when
the sample u has no transition-magnitude coefficients on band modes; samples
drawn well below the annulus radius satisfy this automatically because W'
acts there as the identity on band modes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .lattice import SparseAnnulus, _points_with_norm_range, annulus_points
from .spectral import (
    CutoffFamily,
    FourierField,
    ModeProjector,
    SpectralParams,
    inner_product,
    project,
    random_field,
    sobolev_norm,
)
from .truncation import (
    _DEFAULT_PROFILE,
    CutoffProfile,
    _amplitude_scale,
    _theta_prime,
    apply_W,
    nonlinearity_F_prime,
)


@dataclass(frozen=True)
class AnnulusMode:
    """One band lattice mode: wavenumber j and its divergence-free direction.

    The projector onto divergence-free fields has rank one at each nonzero
    wavenumber; direction is the unit vector (-j2, j1)/|j| spanning its range.
    """

    j: tuple[int, int]
    direction: tuple[float, float]


@dataclass(frozen=True)
class AnnulusBasis:
    """Ordered divergence-free single-mode basis of a spectral band.

    modes are sorted lexicographically by wavenumber; conj_index[i] locates
    the mode at the negated wavenumber, recording the reality pairing.
    """

    lambda_N: int
    k: float
    M: int
    modes: tuple[AnnulusMode, ...]
    conj_index: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modes)


def annulus_basis(lambda_N: int, k: float, M: int) -> AnnulusBasis:
    """Build the band basis for eigenvalues in [lambda_N - k, lambda_N + k].

    M is the ambient truncation the band must fit inside (lambda_N + k <= M^2).
    An empty band yields an empty basis, not an error.
    """
    if lambda_N + k > M * M:
        raise ValueError(
            f"band [{lambda_N - k}, {lambda_N + k}] does not fit inside "
            f"truncation M={M} (M^2 = {M * M})"
        )
    pts = sorted(annulus_points(lambda_N, k))
    modes = []
    for (a, b) in pts:
        n = math.hypot(a, b)
        modes.append(AnnulusMode((a, b), (-b / n, a / n)))
    index = {m.j: i for i, m in enumerate(modes)}
    conj = tuple(index[(-a, -b)] for (a, b) in pts)
    return AnnulusBasis(lambda_N, float(k), M, tuple(modes), conj)


def _gather(c: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Coefficient pairs of the centered block c at the lattice points j, an
    integer array of shape (2, ...); zero beyond the block's truncation."""
    M = (c.shape[-1] - 1) // 2
    inside = np.all(np.abs(j) <= M, axis=0)
    out = np.zeros(j.shape, dtype=np.complex128)
    out[:, inside] = c[:, j[0, inside] + M, j[1, inside] + M]
    return out


def assemble_restricted_operator(
    u: FourierField,
    basis: AnnulusBasis,
    params: SpectralParams,
    profile: CutoffProfile | None = None,
) -> np.ndarray:
    """Dense matrix of the band compression of the linearized nonlinearity.

    Entry (r, c) is the coefficient of basis mode r in
    I F'(u) (basis mode c), with F(u) = A^{-1/2} B(W(u), W(u)).  Writing
    a = gain * d_c for the image of mode c under W'(u), delta = k_r - k_c,
    and w = W(u):

        entry = (1/|k_r|) * ( [a . i delta] (d_r . w_hat(delta))
                              + [w_hat(delta) . i k_c] (d_r . a) )

    All dots are plain bilinear sums, and gain = d_c . J(xi) d_c with xi the
    amplitude-scaled coefficient of u at k_c.  Entries are array arithmetic
    over the n x n grid of differences; u and w_hat are zero beyond u's
    truncation (a sample with exactly zero tail) and w_hat(0) = 0.
    """
    if len(basis) == 0:
        raise ValueError("basis is empty")
    k = np.array([m.j for m in basis.modes]).T
    d = np.array([m.direction for m in basis.modes]).T
    xi = _gather(u.coeffs * _amplitude_scale(params, u.M), k)
    a = np.sum(d * _theta_prime(xi, d.astype(np.complex128), profile), axis=0) * d
    delta = k[:, :, None] - k[:, None, :]
    wd = _gather(apply_W(u, params, profile).coeffs, delta)
    adv_of_w = (a[0] * delta[0] + a[1] * delta[1]) * 1j
    adv_of_mode = (wd[0] * k[0] + wd[1] * k[1]) * 1j
    d_r = d[:, :, None]
    entry = adv_of_w * (d_r[0] * wd[0] + d_r[1] * wd[1])
    entry += adv_of_mode * (d_r[0] * a[0] + d_r[1] * a[1])
    return entry / np.sqrt(k[0] * k[0] + k[1] * k[1])[:, None]


def field_from_coords(
    basis: AnnulusBasis, coords: np.ndarray, M: int
) -> FourierField:
    """Embed basis coordinates as a Fourier field at truncation M."""
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.shape != (len(basis),):
        raise ValueError("coordinate vector length does not match basis")
    c = np.zeros((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128)
    for z, mode in zip(coords, basis.modes):
        j1, j2 = mode.j
        if abs(j1) > M or abs(j2) > M:
            raise ValueError(f"mode {mode.j} exceeds truncation M={M}")
        c[0, j1 + M, j2 + M] += z * mode.direction[0]
        c[1, j1 + M, j2 + M] += z * mode.direction[1]
    return FourierField(M, c)


def coords_from_field(basis: AnnulusBasis, u: FourierField) -> np.ndarray:
    """Coordinates of the band part of u in the basis."""
    out = np.empty(len(basis), dtype=np.complex128)
    for i, mode in enumerate(basis.modes):
        uc = u.mode(mode.j)
        out[i] = uc[0] * mode.direction[0] + uc[1] * mode.direction[1]
    return out


def weak_restricted_operator(
    u: FourierField,
    basis: AnnulusBasis,
    params: SpectralParams,
    profile: CutoffProfile | None = None,
    dealias: str = "padded",
) -> np.ndarray:
    """Oracle assembly through the full field machinery.

    Each basis mode is materialized at u's truncation, pushed through the
    derivative of the truncated nonlinearity, and the band coefficients are
    read off.  Requires the band to fit inside u's truncation; intended for
    small cross-check scales only.
    """
    if len(basis) == 0:
        raise ValueError("basis is empty")
    profile = profile or _DEFAULT_PROFILE
    M = u.M
    if basis.lambda_N + basis.k > M * M:
        raise ValueError("band does not fit inside the sample truncation")
    n = len(basis)
    out = np.zeros((n, n), dtype=np.complex128)
    for c in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[c] = 1.0
        v = field_from_coords(basis, e, M)
        image = nonlinearity_F_prime(
            u, v, params, dealias=dealias, profile=profile
        )
        out[:, c] = coords_from_field(basis, image)
    return out


# ---------------------------------------------------------------------------
# operator norm

POWER_ITERATION_CAP = 5000


def restricted_norm(
    matrix: np.ndarray, tol: float = 1e-8, max_iter: int = POWER_ITERATION_CAP
) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    Deterministic start vector; relative tolerance on successive estimates.
    Raises RuntimeError if the cap is hit before the estimate settles.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    if m.size == 0 or not np.any(m):
        return 0.0
    n = m.shape[1]
    # fixed start with a mild ramp so symmetric matrices cannot trap it in
    # an eigenvector orthogonal to the top one
    x = np.ones(n, dtype=np.complex128) + np.arange(n) / max(n, 1)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(max_iter):
        y = m @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        z = m.conj().T @ y
        nz = np.linalg.norm(z)
        new_sigma = ny
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return float(new_sigma)
        sigma = new_sigma
        x = z / nz
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last estimate {sigma})"
    )


# ---------------------------------------------------------------------------
# cancellation

def cancellation_defect(
    phi: dict[tuple[int, int], complex],
    psi: dict[tuple[int, int], complex],
    window_points: tuple[tuple[int, int], ...],
) -> float:
    """Max band coefficient of band_project(phi * band_project(psi)).

    phi is a low-frequency scalar factor given by its Fourier coefficients;
    psi is a scalar field supported on the band lattice points.  The product
    coefficient at each band point p is the direct sum over phi's modes q of
    phi[q] psi[p - q].  On a certified sparse band whose separation exceeds
    phi's support radius the result is exactly zero: no difference of band
    points is reachable by a phi mode, so no term exists.
    """
    if not psi or not phi:
        return 0.0
    window = set(window_points)
    for p in psi:
        if p not in window:
            raise ValueError(f"psi mode {p} lies outside the band")
    if (0, 0) in phi:
        raise ValueError("phi must be mean-zero")
    defect = 0.0
    for (a, b) in window:
        coeff = sum(z * psi.get((a - q, b - r), 0j) for (q, r), z in phi.items())
        defect = max(defect, abs(coeff))
    return float(defect)


def random_cancellation_pair(
    band_points: tuple[tuple[int, int], ...],
    support_radius: float,
    rng: np.random.Generator,
) -> tuple[dict, dict]:
    """Random real low-frequency factor and band field for the defect check.

    phi gets conjugate-symmetric coefficients on 0 < |j| <= support_radius
    (a real scalar field); psi gets independent complex values on the band.
    """
    phi: dict[tuple[int, int], complex] = {}
    n_max = math.floor(support_radius * support_radius)
    for (a, b) in _points_with_norm_range(1, n_max).tolist():
        if (a, b) <= (0, 0):
            continue
        z = complex(rng.standard_normal(), rng.standard_normal())
        phi[(a, b)] = z
        phi[(-a, -b)] = z.conjugate()
    psi = {
        p: complex(rng.standard_normal(), rng.standard_normal())
        for p in band_points
    }
    return phi, psi


# ---------------------------------------------------------------------------
# the averaging report


@dataclass
class AveragingReport:
    """Findings of the averaging check on one certified annulus.

    sampled_norms pairs each u-sample id with the spectral norm of the
    assembled band compression; bound is the target (1/16) lambda_N^{-(3-2beta)/2};
    r = lambda_N^{s/2} is the low/high split radius of the mechanism;
    mechanism_tail is the empirical sup over samples of the high-mode tail
    norm of W(u), with tail_bound its guaranteed ceiling r^{-2} sup ||W(u)||_{H^2};
    product_factors are the per-sample values (1/r)||W(u)||_{H^2} entering the
    product-projection estimate (unknown absolute constant absorbed);
    dimension is the band basis size, one divergence-free mode per band
    lattice point.
    """

    lambda_N: int
    k: float
    beta: float
    s: float
    r: float
    dimension: int
    bound: float
    sampled_norms: list[tuple[int, float]]
    pass_flags: list[bool]
    mechanism_tail: float
    tail_bound: float
    product_factors: list[float]
    cancellation_defects: list[float]
    achieved_k_ratio: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if any(n < 0 for _, n in self.sampled_norms):
            raise ValueError("sampled norms must be nonnegative")

    @property
    def max_norm(self) -> float:
        return max((n for _, n in self.sampled_norms), default=0.0)

    @property
    def pass_fraction(self) -> float:
        if not self.pass_flags:
            return 1.0
        return sum(self.pass_flags) / len(self.pass_flags)

    def to_dict(self) -> dict:
        out = asdict(self)
        meta = out.pop("meta")
        out["pass_fraction"] = self.pass_fraction
        out["max_norm"] = self.max_norm
        return {**out, **meta}


def draw_averaging_samples(
    params: SpectralParams,
    n_samples: int,
    rng: np.random.Generator,
    M: int | None = None,
) -> list[FourierField]:
    """Sample fields for the averaging check, half small and half saturated.

    The first half is scaled inside the ball of radius rho in H^{3+epsilon}
    (where the truncation is the identity); the second half is scaled to
    10x - 1000x rho (where the truncation saturates).
    """
    if M is None:
        M = params.M
    s_norm = 3.0 + params.epsilon
    out = []
    for i in range(n_samples):
        u = random_field(M, rng, divergence_free=True, decay=s_norm + 1.0)
        norm = sobolev_norm(u, s_norm)
        if norm == 0.0:
            out.append(u)
            continue
        if i < (n_samples + 1) // 2:
            target = params.rho * rng.uniform(0.1, 0.9)
        else:
            target = params.rho * 10.0 ** rng.uniform(1.0, 3.0)
        out.append(u * (target / norm))
    return out


def check_averaging(
    u_samples: list[FourierField],
    annulus: SparseAnnulus,
    params: SpectralParams,
    profile: CutoffProfile | None = None,
    n_cancellation_pairs: int = 20,
    seed: int = 0,
) -> AveragingReport:
    """Assemble the band compression over samples and report the findings.

    The band is the annulus's projector window [lambda_N - k, lambda_N + k],
    which the sparse-annulus scan certified along with the annulus.
    Per-sample norm comparisons against the target bound are findings, not
    assertions.
    """
    profile = profile or _DEFAULT_PROFILE
    fam = CutoffFamily(annulus.lambda_N, annulus.lambda_next, annulus.half_width)
    basis_M = math.isqrt(int(fam.lambda_N + math.ceil(fam.k))) + 1
    basis = annulus_basis(fam.lambda_N, fam.k, basis_M)
    r = float(fam.lambda_N) ** (annulus.s / 2.0)
    bound = (1.0 / 16.0) * float(fam.lambda_N) ** (
        -(3.0 - 2.0 * params.beta) / 2.0
    )
    sampled_norms: list[tuple[int, float]] = []
    pass_flags: list[bool] = []
    tail_sup = 0.0
    h2_sup = 0.0
    product_factors: list[float] = []
    high = ModeProjector("above", r * r, 0.0)
    for i, u in enumerate(u_samples):
        mat = assemble_restricted_operator(u, basis, params, profile)
        norm = restricted_norm(mat)
        sampled_norms.append((i, float(norm)))
        pass_flags.append(bool(norm <= bound))
        w = apply_W(u, params, profile)
        tail = project(w, high)
        tail_sup = max(tail_sup, math.sqrt(inner_product(tail, tail)))
        h2 = sobolev_norm(w, 2.0)
        h2_sup = max(h2_sup, h2)
        product_factors.append(h2 / r)
    window_pts = tuple(m.j for m in basis.modes)
    rng = np.random.default_rng(seed)
    defects = []
    for _ in range(n_cancellation_pairs):
        phi, psi = random_cancellation_pair(window_pts, r, rng)
        defects.append(cancellation_defect(phi, psi, window_pts))
    return AveragingReport(
        lambda_N=fam.lambda_N,
        k=fam.k,
        beta=params.beta,
        s=annulus.s,
        r=r,
        dimension=len(basis),
        bound=bound,
        sampled_norms=sampled_norms,
        pass_flags=pass_flags,
        mechanism_tail=tail_sup,
        tail_bound=h2_sup / (r * r),
        product_factors=product_factors,
        cancellation_defects=defects,
        achieved_k_ratio=float(fam.k) / float(fam.lambda_N) ** annulus.s,
        meta={
            "mu": annulus.mu,
            # the scan returns no annulus whose window fails
            "window_certified": True,
            "window_min_separation": annulus.window_min_separation,
        },
    )


def averaging_trend(
    reports: list[AveragingReport],
) -> dict:
    """Log-log fit of the worst sampled norm against lambda_N across reports."""
    if len(reports) < 2:
        raise ValueError("need at least two reports for a trend")
    lam = np.array([r.lambda_N for r in reports], dtype=np.float64)
    worst = np.array([r.max_norm for r in reports], dtype=np.float64)
    if np.any(worst <= 0.0):
        raise ValueError("trend fit needs positive norms")
    slope, intercept = np.polyfit(np.log(lam), np.log(worst), 1)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "lambda_N": [int(x) for x in lam],
        "max_norms": [float(x) for x in worst],
    }
