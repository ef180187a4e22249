"""Smooth amplitude truncation of Fourier coefficients and the prepared nonlinearity.

The scalar cutoff is theta(xi) = xi * psi(|xi|) with psi a smooth step built
from the exp(-1/t) gluing: psi = 1 on [0, 1], psi = 0 beyond the outer radius
R, smooth and monotone between.  The identity region makes the truncation a
no-op on coefficients below the amplitude budget; R = DEFAULT_OUTER_RADIUS is
the largest value keeping sup |theta| <= 2, found numerically once and
certified by the test suite.  The prepared equation has one cutoff, with
these fixed radii: theta, W and W' all read it, as _PROFILE.

The field-level truncation is
    W(u) = sum_j (rho / |j|^{3+eps}) P_j theta_vec(|j|^{3+eps} u_hat[j] / rho) e^{ijx}
with theta_vec acting componentwise and P_j the divergence-free projection.
Componentwise this is the gain P_j u_hat[j] psi(|j|^{3+eps} |u_hat[j]| / rho),
and W computes it so, with the in-place gain that theta uses: W is exactly P
on the ball ||u||_{H^{3+eps}} <= rho, and its image is bounded in H^2
uniformly in u (w_image_h2_bound evaluates the coefficient tail sum for the
configured truncation).  A tiny rho may overflow the amplitude scale
|j|^{3+eps}/rho to inf: a nonzero coefficient there is beyond the outer
radius and truncated to 0, and a zero one stays 0 (for W' its amplitude is
exactly 0, not 0 * inf = NaN; _scaled_amplitude).

The Gateaux derivative of theta at xi is the real-linear map
    J(xi) h = psi(r) h + (psi'(r)/r) Re(conj(xi) h) xi,   r = |xi|,
identity for r <= 1 and zero from R on; W'(u) applies it mode- and
componentwise (the amplitude scales cancel), followed by P_j.  J is only
real-linear on the transition shell 1 < r < R; everywhere else it is a real
multiple of the identity and hence complex-linear.  J has one implementation,
the array helper _theta_prime: apply_W_prime, theta_jacobian and the band
gains of averaging.assemble_restricted_operator all evaluate it.

The quadratic term of the prepared equation, B(W(u), W(u)), is computed by
_prepared_half alone, on the half j2 >= 0 that a field holds (spectral);
prepared_product wraps it as a field, and the time loop of dynamics calls it
on its states.  Because W and the Leray projection act mode by mode, W is
computed on that half and the projected product formed there in one pass, on
the padded grid of the whole truncation, by the square of spectral's one
transform kernel, _curl_product; this needs W(u) divergence-free mode by
mode, which W's own projection gives.  It agrees with the oracle
bilinear_B(apply_W(u), apply_W(u), "direct") to rounding.  There is one
route: the two-thirds rule at M is this product on the block floor(2M/3),
which cli cuts its fields to.  The amplitude scale is cached per (params, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    FourierField,
    SpectralParams,
    _curl_product,
    _leray_coeffs,
    _route_grid,
    apply_A_power,
    laplacian_power,
)

# Largest outer radius for which sup_t t*psi(t) stays at or below 2 with the
# exp(-1/t) smooth step (bisection on a 4e6-point scan; the sup at this value
# is 1.9999998937).
DEFAULT_OUTER_RADIUS = 5.317219


def _glue(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _glue_prime(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / (x[pos] * x[pos])
    return out


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """0 for x <= 0, 1 for x >= 1, smooth monotone between."""
    a = _glue(x)
    b = _glue(1.0 - x)
    return a / (a + b)


def _smoothstep_prime(x: np.ndarray) -> np.ndarray:
    a = _glue(x)
    b = _glue(1.0 - x)
    da = _glue_prime(x)
    db = _glue_prime(1.0 - x)
    return (da * b + a * db) / (a + b) ** 2


@dataclass(frozen=True)
class CutoffProfile:
    """The prepared equation's radial profile psi: 1 on [0, 1], 0 from
    DEFAULT_OUTER_RADIUS on, the smooth step between.  The radii are class
    constants, not fields, so every CutoffProfile() equals _PROFILE; the test
    suite certifies sup |theta| <= 2 for them."""

    inner_radius = 1.0
    outer_radius = DEFAULT_OUTER_RADIUS

    def psi(self, r) -> np.ndarray:
        """Radial factor: 1 on [0, inner], 0 beyond outer, smooth between.

        The smooth step is evaluated only on the transition shell; everywhere
        else 1 or 0 is written directly, and NaN, which is in none of the
        three regions, stays NaN.
        """
        r = np.asarray(r, dtype=float)
        shell = (r > self.inner_radius) & (r < self.outer_radius)
        width = self.outer_radius - self.inner_radius
        step = _smoothstep((self.outer_radius - r[shell]) / width)
        out = np.where(r <= self.inner_radius, 1.0, np.where(r >= self.outer_radius, 0.0, np.nan))
        out[shell] = step
        return out

    def psi_prime(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inside = (r > self.inner_radius) & (r < self.outer_radius)
        width = self.outer_radius - self.inner_radius
        out = np.zeros_like(r)
        out[inside] = -_smoothstep_prime((self.outer_radius - r[inside]) / width) / width
        return out


# the prepared equation's one cutoff profile; theta, W and W' read it
_PROFILE = CutoffProfile()


def _gain_in_place(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x * psi(r) on a complex128 array x, in place, and x, for radii r of
    x's shape: the identity region is left as it is, the transition shell is
    multiplied by psi, and from the outer radius on (r = inf included) x is
    set to 0.  A NaN radius, in none of the three regions, leaves x as it is."""
    shell = (r > _PROFILE.inner_radius) & (r < _PROFILE.outer_radius)
    x[shell] *= _PROFILE.psi(r[shell])
    x[r >= _PROFILE.outer_radius] = 0.0
    return x


def theta(xi):
    """Scalar cutoff theta(xi) = xi psi(|xi|), elementwise on complex input;
    exactly 0 where |xi| is infinite (beyond the outer radius) instead of
    inf * 0 = NaN.  NaN stays NaN."""
    x = np.array(xi, dtype=np.complex128)
    with np.errstate(over="ignore"):  # an |xi| that overflows is beyond the outer radius
        r = np.abs(x)
    return _gain_in_place(x, r)


def _theta_prime(xi, h) -> np.ndarray:
    """J(xi) h = psi(r) h + (psi'(r)/r) Re(conj(xi) h) xi elementwise, r = |xi|,
    for h of xi's shape.  The correction is evaluated on the transition shell
    inner < r < outer only: J is exactly 1 up to inner and 0 from outer on."""
    r = np.abs(xi)
    out = _PROFILE.psi(r) * h
    shell = (r > _PROFILE.inner_radius) & (r < _PROFILE.outer_radius)
    xs, rs = xi[shell], r[shell]
    out[shell] += _PROFILE.psi_prime(rs) / rs * np.real(np.conj(xs) * h[shell]) * xs
    return out


def theta_jacobian(xi: complex) -> np.ndarray:
    """Real 2x2 Jacobian of theta at xi, acting on (Re h, Im h).

    Its columns are J(xi) 1 and J(xi) i: the identity up to the inner radius,
    zero from the outer radius on, psi(r) I + (psi'(r)/r) xi_vec xi_vec^T
    between.
    """
    cols = _theta_prime(np.full(2, complex(xi)), np.array([1.0, 1j]))
    return np.array([cols.real, cols.imag])


@lru_cache(maxsize=32)
def _amplitude_scale(params: SpectralParams, M: int) -> np.ndarray:
    """|j|^{3+eps} / rho on the half grid, zero slot at the origin; inf
    where a tiny rho overflows it.  Read-only and cached."""
    with np.errstate(over="ignore"):
        scale = laplacian_power(M, (3.0 + params.epsilon) / 2.0) / params.rho
    scale.setflags(write=False)
    return scale


def _scaled_amplitude(c: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """xi = c * scale, with 0 where c is 0 and the scale overflowed: the
    product there is 0 * inf = NaN, but the amplitude is exactly 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        xi = c * scale
    # the check allocates nothing; the repair's temporaries, small as they
    # are, measurably raise a cone run's page faults when made on every call
    if np.isinf(scale.max()):
        dead = np.isinf(scale)
        xi[:, dead] = np.where(c[:, dead] == 0, 0.0, xi[:, dead])
    return xi


def _truncate(c: np.ndarray, params: SpectralParams) -> np.ndarray:
    """W on the half c of a field, shape (2, 2K+1, K+1); a new array: c
    times the gain psi(|c| |j|^{3+eps} / rho), projected.  A radius that
    overflows is beyond the outer radius, so its coefficient becomes 0; a
    zero coefficient where the scale overflowed has the radius 0 * inf = NaN
    and stays 0."""
    w = c.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(c)
        r *= _amplitude_scale(params, c.shape[-1] - 1)
    return _leray_coeffs(_gain_in_place(w, r), out=w)


def apply_W(u: FourierField, params: SpectralParams) -> FourierField:
    """Amplitude truncation W(u); identity on the ball ||u||_{H^{3+eps}} <= rho."""
    return FourierField._wrap(u.M, _truncate(u.coeffs, params))


def apply_W_prime(u: FourierField, v: FourierField, params: SpectralParams) -> FourierField:
    """Gateaux derivative of W at u in direction v (the scales cancel)."""
    u._check_compatible(v)
    xi = _scaled_amplitude(u.coeffs, _amplitude_scale(params, u.M))
    return FourierField._wrap(u.M, _leray_coeffs(_theta_prime(xi, v.coeffs)))


def _prepared_half(h: np.ndarray, params: SpectralParams) -> np.ndarray:
    """B(W(u), W(u)) for the field u whose half is h, shape (2, 2M+1, M+1);
    a new array of that shape.

    W is computed on the half, and the Leray projection of
    (w . grad) w = div(w w^T) is formed with two inverse and two forward real
    transforms on the padded grid (spectral._route_grid,
    spectral._curl_product).  The j = 0 coefficient is an exact 0 even when
    h holds inf or NaN, so such a state is reported as a blow-up, not
    rejected as a field with a mean."""
    N = _route_grid(h.shape[-1] - 1, "padded")[1]
    # W(u) stays a temporary argument: a local name for it (or passing it as
    # v too) keeps a second reference, which left one product's traced peak
    # alone but raised a cone run's peak resident memory by 0.6 MiB
    return _curl_product(_truncate(h, params), None, N)


def prepared_product(u: FourierField, params: SpectralParams) -> FourierField:
    """B(W(u), W(u)), the quadratic term of the prepared equation, by
    _prepared_half.  Equal to bilinear_B(apply_W(u), apply_W(u), "direct") up
    to rounding."""
    return FourierField._wrap(u.M, _prepared_half(u.coeffs, params))


def nonlinearity_F(u: FourierField, params: SpectralParams) -> FourierField:
    """Prepared nonlinearity in abstract form: A^{-1/2} B(W(u), W(u))."""
    return apply_A_power(prepared_product(u, params), -0.5)


def nonlinearity_F_prime(u: FourierField, v: FourierField, params: SpectralParams) -> FourierField:
    """Gateaux derivative of the prepared nonlinearity at u in direction v:
    A^{-1/2} [B(W'(u)v, W(u)) + B(W(u), W'(u)v)], with the kernel of
    nonlinearity_F on the pair (spectral._curl_product); W(u) and W'(u)v are
    both divergence-free."""
    w = _truncate(u.coeffs, params)
    dw = apply_W_prime(u, v, params).coeffs
    N = _route_grid(u.M, "padded")[1]
    s = _curl_product(dw, w, N) + _curl_product(w, dw, N)
    return apply_A_power(FourierField._wrap(u.M, s), -0.5)


def _component_tail(params: SpectralParams) -> tuple[np.ndarray, np.ndarray]:
    """|j|^2 of every mode 0 < |j|_inf <= M of the whole plane, not only the
    half a field holds, as a flat float64 array, and the per-mode
    componentwise amplitude ceiling 2 sqrt(2) rho / |j|^{3+eps} there."""
    r = np.arange(-params.M, params.M + 1)
    lam = np.float64((r * r)[:, None] + r * r)
    lam = lam[lam > 0]
    return lam, 2.0 * math.sqrt(2.0) * params.rho / lam ** ((3.0 + params.epsilon) / 2.0)


def w_image_h2_bound(params: SpectralParams) -> float:
    """Uniform H^2 bound on W(u) from the coefficient tail sum.

    |W_hat[j]| <= c_j, the per-mode ceiling of _component_tail (componentwise
    sup of theta is 2, the two components and the sub-unit projection give
    the sqrt(2)), so ||W(u)||_{H^2}^2 <= sum |j|^4 c_j^2 over the truncation.
    """
    lam, c = _component_tail(params)
    return float(math.sqrt(np.sum(lam**2 * c**2)))


def nonlinearity_h2_bound(params: SpectralParams) -> float:
    """Uniform H^2 bound on A^{-1/2} B(W(u), W(u)) for the configured truncation.

    Chain: ||A^{-1/2} B(w, w)||_{H^2} <= ||(w . grad) w||_{H^1}
    <= 2 sqrt(2) M ||(w . grad) w||_{L^2} (product modes stay below
    |q|^2 <= 8 M^2), and Young's inequality bounds each component product by
    the l^1 norm of one factor times the L^2 norm of the derivative factor,
    both evaluated from the per-mode ceiling.  Crude but uniform in u.
    """
    lam, c = _component_tail(params)
    S1 = float(np.sum(c))
    S2 = float(math.sqrt(np.sum(lam * c**2)))
    return 8.0 * params.M * S1 * S2
