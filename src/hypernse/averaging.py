"""Restricted mid-band operators and the spatial averaging diagnostics.

The object of interest is the compression I F'(u) I of the linearized
nonlinearity to the band of eigenvalues [lambda_N - k, lambda_N + k], where I
is the band projector.  On a certified sparse annulus the band contains few
lattice modes, each carrying a single divergence-free direction, so the
compression is a small dense complex matrix indexed by those modes.
:func:`band_basis` gives the band as two arrays: the modes' wavenumbers j
and their unit directions d, both of shape (2, n); j is the transpose of
lattice's (n, 2) int64 point array.  A coefficient block read at the band
differences j[:, :, None] - j[:, None, :] is the restricted convolution on
the band; the assembly and the cancellation check both read it so.

Two independent routes to the matrix are provided:

* :func:`assemble_restricted_operator` evaluates entries directly as a
  restricted convolution.  The input basis mode stays a single Fourier mode
  under the truncation derivative, so entry (r, c) only needs the coefficient
  of W(u) at the difference wavenumber, and the band gains come from
  truncation's one cutoff derivative.  Array arithmetic over the n x n grid
  of differences; no transforms, no dense grids, so it scales to mu = 1e6.
* :func:`weak_restricted_operator` pushes each basis mode through the
  derivative of the truncated nonlinearity (apply_W_prime, spectral's
  transform kernel, the half-inverse Laplacian) as two real fields, then
  reads the band coefficients.  Small truncations only; it is the
  cross-check oracle.

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
    FourierField,
    SpectralParams,
    _binary_exponent,
    _curl_product,
    _gather,
    random_field,
    sobolev_norm,
    wavenumbers,
)
from .truncation import (
    _amplitude_scale,
    _scaled_amplitude,
    _theta_prime,
    apply_W,
    apply_W_prime,
)


def band_basis(lambda_N: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The band of eigenvalues [lambda_N - k, lambda_N + k] as two arrays (j, d).

    j is the (2, n) int64 array of the band's lattice points in lexicographic
    order; d is the (2, n) float64 array of their unit directions
    (-j2, j1)/|j|, which span the range of the divergence-free projector at
    each mode.  The band is symmetric under j -> -j, so the negation of point
    i is point n - 1 - i.  An empty band gives n = 0, not an error.
    """
    j = annulus_points(lambda_N, k).T
    norm = np.sqrt(j[0] * j[0] + j[1] * j[1])
    return j, np.stack([-j[1] / norm, j[0] / norm])


def assemble_restricted_operator(
    u: FourierField, basis: tuple[np.ndarray, np.ndarray], params: SpectralParams
) -> np.ndarray:
    """Dense matrix of the band compression of the linearized nonlinearity.

    basis is band_basis's (j, d).  Entry (r, c) is the coefficient of basis
    mode r in I F'(u) (basis mode c), with F(u) = A^{-1/2} B(W(u), W(u)).
    Writing a = gain * d_c for the image of mode c under W'(u),
    delta = k_r - k_c, and w = W(u):

        entry = (1/|k_r|) * ( [a . i delta] (d_r . w_hat(delta))
                              + [w_hat(delta) . i k_c] (d_r . a) )

    All dots are plain bilinear sums, and gain = d_c . J(xi) d_c with xi the
    amplitude-scaled coefficient of u at k_c.  Entries are array arithmetic
    over the n x n grid of differences; u and w_hat are zero beyond u's
    truncation (a sample with exactly zero tail) and w_hat(0) = 0.
    """
    k, d = basis
    if k.shape[1] == 0:
        raise ValueError("basis is empty")
    xi = _gather(_scaled_amplitude(u.coeffs, _amplitude_scale(params, u.M)), k)
    a = np.sum(d * _theta_prime(xi, d.astype(np.complex128)), axis=0) * d
    delta = k[:, :, None] - k[:, None, :]
    wd = _gather(apply_W(u, params).coeffs, delta)
    adv_of_w = (a[0] * delta[0] + a[1] * delta[1]) * 1j
    adv_of_mode = (wd[0] * k[0] + wd[1] * k[1]) * 1j
    d_r = d[:, :, None]
    entry = adv_of_w * (d_r[0] * wd[0] + d_r[1] * wd[1])
    entry += adv_of_mode * (d_r[0] * a[0] + d_r[1] * a[1])
    return entry / np.sqrt(k[0] * k[0] + k[1] * k[1])[:, None]


def weak_restricted_operator(
    u: FourierField,
    basis: tuple[np.ndarray, np.ndarray],
    params: SpectralParams,
) -> np.ndarray:
    """Oracle assembly through the field machinery.

    Each basis mode e = d_c e^{i k_c x} of band_basis's (j, d) is pushed
    through the derivative of the truncated nonlinearity,
    A^{-1/2} [B(W'(u) e, W(u)) + B(W(u), W'(u) e)], and the band
    coefficients are read off.  W'(u) e is a single mode, not a real field,
    so it is split as a + i b into two real fields, each pushed through
    spectral._curl_product on its own: a = W'(u) applied to the real field
    (e + conj(e)) / 2, which at k_c is half of W'(u) e, and b, which holds
    -i a at k_c.  This needs W' only real-linear, as it is on the transition
    shell.  Requires every band point inside u's truncation; intended for
    small cross-check scales only.
    """
    j, d = basis
    n = j.shape[1]
    if n == 0:
        raise ValueError("basis is empty")
    M = u.M
    if np.any(np.abs(j) > M):
        raise ValueError("band does not fit inside the sample truncation")
    w = apply_W(u, params).coeffs

    def image(dw: FourierField) -> np.ndarray:
        return _gather(_curl_product(dw.coeffs, w) + _curl_product(w, dw.coeffs), j)

    # A^{-1/2} at the band points
    inv_sqrt = np.float64(j[0] * j[0] + j[1] * j[1]) ** -0.5
    out = np.zeros((n, n), dtype=np.complex128)
    for c in range(n):
        k_c = (int(j[0, c]), int(j[1, c]))
        a = apply_W_prime(u, FourierField.from_modes(M, {k_c: 0.5 * d[:, c]}), params)
        b = FourierField.from_modes(M, {k_c: -1j * a.mode(k_c)})
        img = image(a) + 1j * image(b)
        img *= inv_sqrt
        out[:, c] = img[0] * d[0] + img[1] * d[1]
    return out


# ---------------------------------------------------------------------------
# operator norm

POWER_ITERATION_CAP = 5000
POWER_ITERATION_TOL = 1e-8


def restricted_norm(matrix: np.ndarray) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    Deterministic start vector; relative tolerance POWER_ITERATION_TOL on
    successive estimates.  The iteration runs on m 2^-e, e the binary
    exponent of m's largest real or imaginary part, so the Gram step neither
    overflows nor underflows; scaling by a power of two is exact, so the
    iterates are those of m itself up to that factor.  Raises RuntimeError if
    POWER_ITERATION_CAP steps pass before the estimate settles.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    if m.size == 0 or not np.any(m):
        return 0.0
    e = _binary_exponent(m.view(np.float64))
    m = np.ldexp(m.view(np.float64), -e).view(np.complex128)
    n = m.shape[1]
    # fixed start with a mild ramp so symmetric matrices cannot trap it in
    # an eigenvector orthogonal to the top one
    x = np.ones(n, dtype=np.complex128) + np.arange(n) / max(n, 1)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(POWER_ITERATION_CAP):
        y = m @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        z = m.conj().T @ y
        nz = np.linalg.norm(z)
        new_sigma = ny
        if abs(new_sigma - sigma) <= POWER_ITERATION_TOL * new_sigma:
            return float(np.ldexp(new_sigma, e))
        sigma = new_sigma
        x = z / nz
    raise RuntimeError(
        f"power iteration did not converge in {POWER_ITERATION_CAP} steps "
        f"(last estimate {np.ldexp(sigma, e)})"
    )


# ---------------------------------------------------------------------------
# cancellation

def cancellation_defect(phi: np.ndarray, psi: np.ndarray, band: np.ndarray) -> float:
    """Max band coefficient of band_project(phi * band_project(psi)).

    band is band_basis's (2, n) j; phi is the half j2 >= 0, shape
    (2R+1, R+1), of the block |j|_inf <= R of a real, mean-zero,
    low-frequency scalar factor; psi holds one value per band point.
    The coefficient at band point p is sum_p' phi(p - p') psi(p'): phi gathered
    at the band differences, applied to psi, and zero on a certified band
    whose separation exceeds phi's support radius.  np.einsum, unlike a
    threaded BLAS product, sums in an order that ignores the thread count.
    """
    if phi[phi.shape[-1] - 1, 0] != 0:
        raise ValueError("phi must be mean-zero")
    if psi.shape != band.shape[1:]:
        raise ValueError(f"psi holds {psi.size} values for {band.shape[1]} band points")
    Phi = _gather(phi, band[:, :, None] - band[:, None, :])
    return float(np.abs(np.einsum("pq,q->p", Phi, psi)).max(initial=0.0))


def random_cancellation_pair(
    band: np.ndarray, support_radius: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random real low-frequency factor and band field for the defect check.

    phi is the half j2 >= 0 of the block |j|_inf <= R,
    R = isqrt(floor(support_radius^2)), of a real scalar field with
    coefficients on 0 < |j| <= support_radius and zero elsewhere, the layout
    of a field; psi holds an independent complex
    value per point of the (2, n) band.  The draws run over the positive
    modes of the disk in lexicographic order, real part then imaginary part,
    then over the band points in order.
    """
    n_max = math.floor(support_radius * support_radius)
    q = _points_with_norm_range(1, n_max)
    q = q[len(q) // 2 :]  # the set is symmetric and lexicographic: the j > 0
    R = math.isqrt(n_max)
    z = rng.standard_normal((len(q), 2)).view(np.complex128)[:, 0]
    phi = np.zeros((2 * R + 1, R + 1), dtype=np.complex128)
    # each drawn mode lands at q or, as its conjugate, at -q, whichever has
    # j2 >= 0; on the column j2 = 0 at both
    up, down = q[:, 1] >= 0, q[:, 1] <= 0
    phi[R + q[up, 0], q[up, 1]] = z[up]
    phi[R - q[down, 0], -q[down, 1]] = z[down].conj()
    psi = rng.standard_normal((band.shape[1], 2)).view(np.complex128)[:, 0]
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
) -> list[FourierField]:
    """Sample fields for the averaging check, half small and half saturated.

    The first half is scaled inside the ball of radius rho in H^{3+epsilon}
    (where the truncation is the identity); the second half is scaled to
    10x - 1000x rho (where the truncation saturates).
    """
    s_norm = 3.0 + params.epsilon
    out = []
    for i in range(n_samples):
        u = random_field(params.M, rng, divergence_free=True, decay=s_norm + 1.0)
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
    n_cancellation_pairs: int = 20,
    seed: int = 0,
) -> AveragingReport:
    """Assemble the band compression over samples and report the findings.

    The band is the annulus's projector window [lambda_N - k, lambda_N + k],
    which the sparse-annulus scan certified along with the annulus.
    Per-sample norm comparisons against the target bound are findings, not
    assertions.
    """
    lambda_N, k = annulus.lambda_N, annulus.half_width
    j, d = band_basis(lambda_N, k)
    r = float(lambda_N) ** (annulus.s / 2.0)
    bound = (1.0 / 16.0) * float(lambda_N) ** (-(3.0 - 2.0 * params.beta) / 2.0)
    sampled_norms: list[tuple[int, float]] = []
    pass_flags: list[bool] = []
    tail_sup = 0.0
    h2_sup = 0.0
    product_factors: list[float] = []
    for i, u in enumerate(u_samples):
        mat = assemble_restricted_operator(u, (j, d), params)
        norm = restricted_norm(mat)
        sampled_norms.append((i, float(norm)))
        pass_flags.append(bool(norm <= bound))
        w = apply_W(u, params)
        # the L^2 norm of the modes |j|^2 > r^2 of W(u); r >= 1 leaves j = 0 out
        tail = FourierField._wrap(w.M, w.coeffs * (wavenumbers(w.M)[2] > r * r))
        tail_sup = max(tail_sup, sobolev_norm(tail, 0.0))
        h2 = sobolev_norm(w, 2.0)
        h2_sup = max(h2_sup, h2)
        product_factors.append(h2 / r)
    rng = np.random.default_rng(seed)
    defects = []
    for _ in range(n_cancellation_pairs):
        phi, psi = random_cancellation_pair(j, r, rng)
        defects.append(cancellation_defect(phi, psi, j))
    return AveragingReport(
        lambda_N=lambda_N,
        k=k,
        beta=params.beta,
        s=annulus.s,
        r=r,
        dimension=j.shape[1],
        bound=bound,
        sampled_norms=sampled_norms,
        pass_flags=pass_flags,
        mechanism_tail=tail_sup,
        tail_bound=h2_sup / (r * r),
        product_factors=product_factors,
        cancellation_defects=defects,
        achieved_k_ratio=float(k) / float(lambda_N) ** annulus.s,
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
