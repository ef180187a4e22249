"""Smooth amplitude truncation of Fourier coefficients and the prepared nonlinearity.

The scalar cutoff is theta(xi) = xi * psi(|xi|) with psi a smooth step built
from the exp(-1/t) gluing: psi = 1 on [0, 1], psi = 0 beyond the outer radius
R, smooth and monotone between.  The identity region makes the truncation a
no-op on coefficients below the amplitude budget; the outer radius is the
largest value keeping sup |theta| <= 2, found numerically once and stored as
DEFAULT_OUTER_RADIUS (re-verified by the test suite).

The field-level truncation is
    W(u) = sum_j (rho / |j|^{3+eps}) P_j theta_vec(|j|^{3+eps} u_hat[j] / rho) e^{ijx}
with theta_vec acting componentwise and P_j the divergence-free projection;
W equals the identity on the ball ||u||_{H^{3+eps}} <= rho and its image is
bounded in H^2 uniformly in u (w_image_h2_bound evaluates the coefficient
tail sum for the configured truncation).

The Gateaux derivative of theta at xi is the real-linear map
    J(xi) h = psi(r) h + (psi'(r)/r) Re(conj(xi) h) xi,   r = |xi|,
identity for r <= 1 and zero beyond R; W'(u) applies it mode- and
componentwise (the amplitude scales cancel), followed by P_j.  J is only
real-linear on the transition shell 1 < r < R; everywhere else it is a real
multiple of the identity and hence complex-linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    FourierField,
    SpectralParams,
    apply_A_power,
    bilinear_B,
    laplacian_power,
    leray_project,
    wavenumbers,
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
    """Radial profile of the scalar cutoff: identity inside inner_radius,
    dead beyond outer_radius, with sup |theta| <= 2 enforced numerically."""

    inner_radius: float = 1.0
    outer_radius: float = DEFAULT_OUTER_RADIUS

    def __post_init__(self) -> None:
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError(
                f"need 0 < inner_radius < outer_radius, got "
                f"{self.inner_radius}, {self.outer_radius}"
            )
        sup = self.sup_theta()
        if sup > 2.0 + 1e-9:
            raise ValueError(f"profile violates sup |theta| <= 2 (sup ~ {sup})")

    def psi(self, r) -> np.ndarray:
        """Radial factor: 1 on [0, inner], 0 beyond outer, smooth between."""
        r = np.asarray(r, dtype=float)
        x = (self.outer_radius - r) / (self.outer_radius - self.inner_radius)
        out = _smoothstep(np.clip(x, 0.0, 1.0))
        out = np.where(r <= self.inner_radius, 1.0, out)
        out = np.where(r >= self.outer_radius, 0.0, out)
        return out

    def psi_prime(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        x = (self.outer_radius - r) / (self.outer_radius - self.inner_radius)
        inside = (r > self.inner_radius) & (r < self.outer_radius)
        out = np.zeros_like(r)
        out[inside] = -_smoothstep_prime(x[inside]) / (
            self.outer_radius - self.inner_radius
        )
        return out

    def sup_theta(self, samples: int = 200_001) -> float:
        """Numerical sup of |theta| = t psi(t) over the transition interval."""
        t = np.linspace(self.inner_radius, self.outer_radius, samples)
        return float(np.max(t * self.psi(t)))


_DEFAULT_PROFILE = CutoffProfile()


def theta(xi, profile: CutoffProfile | None = None):
    """Scalar cutoff theta(xi) = xi psi(|xi|), elementwise on complex input."""
    prof = profile or _DEFAULT_PROFILE
    xi = np.asarray(xi, dtype=np.complex128)
    return xi * prof.psi(np.abs(xi))


def theta_jacobian(xi: complex, profile: CutoffProfile | None = None) -> np.ndarray:
    """Real 2x2 Jacobian of theta at xi, acting on (Re h, Im h).

    Identity for |xi| <= inner radius, zero beyond the outer radius, and
    psi(r) I + (psi'(r)/r) xi_vec xi_vec^T on the transition shell.
    """
    prof = profile or _DEFAULT_PROFILE
    x, y = float(np.real(xi)), float(np.imag(xi))
    r = math.hypot(x, y)
    if r <= prof.inner_radius:
        return np.eye(2)
    p = float(prof.psi(r))
    if r >= prof.outer_radius:
        return np.zeros((2, 2))
    dp = float(prof.psi_prime(r))
    v = np.array([x, y])
    return p * np.eye(2) + (dp / r) * np.outer(v, v)


def _amplitude_scale(params: SpectralParams, M: int) -> np.ndarray:
    """|j|^{3+eps} / rho on the centered grid, zero slot at the origin."""
    return laplacian_power(M, (3.0 + params.epsilon) / 2.0) / params.rho


def apply_W(
    u: FourierField, params: SpectralParams, profile: CutoffProfile | None = None
) -> FourierField:
    """Amplitude truncation W(u); identity on the ball ||u||_{H^{3+eps}} <= rho."""
    scale = _amplitude_scale(params, u.M)
    th = theta(u.coeffs * scale, profile)
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
    return leray_project(FourierField(u.M, th * inv))


def apply_W_prime(
    u: FourierField,
    v: FourierField,
    params: SpectralParams,
    profile: CutoffProfile | None = None,
) -> FourierField:
    """Gateaux derivative of W at u in direction v (the scales cancel)."""
    u._check_compatible(v)
    prof = profile or _DEFAULT_PROFILE
    scale = _amplitude_scale(params, u.M)
    xi = u.coeffs * scale
    r = np.abs(xi)
    psi = prof.psi(r)
    dpsi = prof.psi_prime(r)
    out = psi * v.coeffs
    trans = dpsi != 0.0
    if np.any(trans):
        corr = np.zeros_like(out)
        corr[trans] = (
            dpsi[trans]
            / r[trans]
            * np.real(np.conj(xi[trans]) * v.coeffs[trans])
            * xi[trans]
        )
        out = out + corr
    return leray_project(FourierField(u.M, out))


def nonlinearity_F(
    u: FourierField,
    params: SpectralParams,
    dealias: str = "two-thirds",
    profile: CutoffProfile | None = None,
) -> FourierField:
    """Prepared nonlinearity in abstract form: A^{-1/2} B(W(u), W(u))."""
    w = apply_W(u, params, profile)
    return apply_A_power(bilinear_B(w, w, dealias), -0.5)


def nonlinearity_F_prime(
    u: FourierField,
    v: FourierField,
    params: SpectralParams,
    dealias: str = "two-thirds",
    profile: CutoffProfile | None = None,
) -> FourierField:
    """Gateaux derivative of the prepared nonlinearity at u in direction v:
    A^{-1/2} [B(W'(u)v, W(u)) + B(W(u), W'(u)v)]."""
    w = apply_W(u, params, profile)
    dw = apply_W_prime(u, v, params, profile)
    s = bilinear_B(dw, w, dealias) + bilinear_B(w, dw, dealias)
    return apply_A_power(s, -0.5)


def _component_tail(params: SpectralParams) -> np.ndarray:
    """Per-mode componentwise amplitude ceiling 2 sqrt(2) rho / |j|^{3+eps}."""
    _, _, LAM = wavenumbers(params.M)
    c = np.zeros(LAM.shape)
    nz = LAM > 0
    c[nz] = 2.0 * math.sqrt(2.0) * params.rho / np.float64(LAM[nz]) ** (
        (3.0 + params.epsilon) / 2.0
    )
    return c


def w_image_h2_bound(params: SpectralParams) -> float:
    """Uniform H^2 bound on W(u) from the coefficient tail sum.

    |W_hat[j]| <= 2 sqrt(2) rho / |j|^{3+eps} per mode (componentwise sup of
    theta is 2, the two components and the projection give the sqrt(2) and
    the sub-unit factor), so ||W(u)||_{H^2}^2 <= 8 rho^2 sum |j|^{-2-2eps}
    over the truncation.
    """
    _, _, LAM = wavenumbers(params.M)
    nz = LAM > 0
    lam = np.float64(LAM[nz])
    return float(
        math.sqrt(8.0) * params.rho * math.sqrt(np.sum(lam ** (-1.0 - params.epsilon)))
    )


def nonlinearity_h2_bound(params: SpectralParams) -> float:
    """Uniform H^2 bound on A^{-1/2} B(W(u), W(u)) for the configured truncation.

    Chain: ||A^{-1/2} B(w, w)||_{H^2} <= ||(w . grad) w||_{H^1}
    <= 2 sqrt(2) M ||(w . grad) w||_{L^2} (product modes stay below
    |q|^2 <= 8 M^2), and Young's inequality bounds each component product by
    the l^1 norm of one factor times the L^2 norm of the derivative factor,
    both evaluated from the per-mode ceiling.  Crude but uniform in u.
    """
    _, _, LAM = wavenumbers(params.M)
    nz = LAM > 0
    lam = np.float64(LAM[nz])
    c = _component_tail(params)[nz]
    S1 = float(np.sum(c))
    S2 = float(math.sqrt(np.sum(lam * c**2)))
    return 8.0 * params.M * S1 * S2
