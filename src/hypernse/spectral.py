"""Divergence-free Fourier fields on the 2-torus and the operators acting on them.

A field u is real, u_hat[-j] = conj(u_hat[j]), so the half j2 >= 0
determines it, and that half is the one layout of a field: the coefficients
u_hat[j] in C^2 of the modes |j|_inf <= M, j2 >= 0, in an array of shape
(2, 2M+1, M+1) indexed [component, j1+M, j2] (numpy's rfft2 layout), zero at
j = 0.  Every symbol (wavenumbers, laplacian_power), mask (CutoffFamily.mask)
and operator acts on that half mode by mode.  The column j2 = 0 holds both j
and -j, so there u_hat(-j1, 0) = conj(u_hat(j1, 0)) is a property of the
values, not of the layout, and the one reality property the half does not
hold by construction.  The column is kept whole, neither symmetrised nor
checked at construction, since a time step moves it by rounding;
reality_defect measures it.

Integrals carry the measure dx/(2pi)^2, so (u, v) = sum_j u_hat[j] .
conj(v_hat[j]) and the H^s norm squared is sum_j |j|^{2s} |u_hat[j]|^2,
sums over the whole plane, which on the half count each mode j2 > 0 twice,
for itself and its conjugate, and the column j2 = 0 once (_field_pairing).

Product evaluation routes of bilinear_B (its `dealias` argument):

* "padded"      transforms every mode |j|_inf <= K = M on the smallest
                2-3-5-smooth grid of N >= 3K + 1 points per direction and
                reads the product back on that block.  Alias-free: the true
                product has modes |k|_inf <= 2K, and an aliased image k +- N
                can only land on the block (|k +- N| <= K) if N <= 3K, which
                the grid size excludes; so it is the exact truncated
                convolution.
* "two-thirds"  the same rule on the block K = floor(2M/3) of u and v; every
                mode |j|_inf > K of the result is zero.
* "direct"      exact convolution summed over all mode pairs, no transforms;
                the oracle route, intended for M <= 16.

"padded" and "direct" agree to rounding through disjoint code paths;
"two-thirds" is mask(direct(mask u, mask v)), the padded product on the
block (Orszag 1971), which a run gets by cutting its fields to the block
(cli).  These routes are oracles and act on the full plane: the array
function _bilinear_plane takes coefficient arrays (2, 2M+1, 2M+1), real
fields or not, and bilinear_B, trilinear_b and the weak assembly of
averaging build the full plane at their edge with _full_plane
(tests/test_source.py lists them).

The solver's product is the projected square P (w . grad) w of one real,
divergence-free block, _quadratic_fft: with Q = w w^T, (w . grad) w = div Q,
whose projection j_perp (j_perp . i j Q_hat) / |j|^2, j_perp = (j2, -j1),
reads Q only through Q12 and Q11 - Q22.  So two inverse real transforms take
w1 and w2 from the half to the grid, two forward ones bring back w1 w2 and
w1^2 - w2^2, and the cached multipliers of _curl_plan form the projected
half.  truncation._prepared_half applies it to W(u).  The Leray projection
is the array helper _leray_coeffs, which leray_project and W share.

wavenumbers and laplacian_power cache their grids per truncation, for the
operators a run applies again and again.  A draw (random_field) caches
nothing: its decay symbol, its Leray denominator and the masks of
CutoffFamily are built per call, so a draw leaves no grid at its own
truncation, which for the cone stage is larger than any it steps at.
Sobolev norms are formed the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

@dataclass(frozen=True)
class SpectralParams:
    """Analytic parameters of the hyperviscous problem.

    beta is the dissipation exponent (supercritical window 17/12 < beta < 3/2),
    nu the viscosity, M the truncation (modes 0 < |j|_inf <= M), s the sparse
    scale exponent, rho the cutoff radius of the amplitude truncation.
    epsilon = 2 beta - 17/6 > 0 is derived.
    """

    beta: float = 1.45
    nu: float = 1.0
    M: int = 16
    s: float = (3.0 - 2.0 * 1.45 + 1.0 / 6.0) / 2.0
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not self.beta > 17.0 / 12.0:
            raise ValueError(f"beta must exceed 17/12, got {self.beta}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.M < 2:
            raise ValueError(f"M must be at least 2, got {self.M}")
        if not 0.0 < self.s < 1.0 / 6.0:
            raise ValueError(f"s must lie in (0, 1/6), got {self.s}")

    @property
    def epsilon(self) -> float:
        return 2.0 * self.beta - 17.0 / 6.0


def _eigenvalues(M: int) -> np.ndarray:
    """|j|^2 on the half grid of truncation M, a new int64 array."""
    q = np.arange(-M, M + 1) ** 2
    return q[:, None] + q[M:]


@lru_cache(maxsize=32)
def wavenumbers(M: int):
    """Wavenumber grids (J1, J2, LAM) on the half grid of truncation M,
    read-only.

    J1 and J2 are broadcast views of one arange each (a zero stride each),
    so LAM is the only full grid the cache keeps."""
    r = np.arange(-M, M + 1)
    J1 = np.broadcast_to(r[:, None], (2 * M + 1, M + 1))
    J2 = np.broadcast_to(r[M:], J1.shape)
    LAM = _eigenvalues(M)
    LAM.setflags(write=False)
    return J1, J2, LAM


def _power_symbol(M: int, p: float) -> np.ndarray:
    """The symbol (|j|^2)^p on the half grid, 0 at j = 0, not cached; its one
    array is |j|^2 in float64, raised to p in place."""
    q = np.arange(-M, M + 1, dtype=np.float64) ** 2
    f = q[:, None] + q[M:]
    f[M, 0] = 1.0  # 0^p is not needed, and is inf for p < 0
    f **= p
    f[M, 0] = 0.0
    return f


@lru_cache(maxsize=32)
def laplacian_power(M: int, p: float) -> np.ndarray:
    """The symbol (|j|^2)^p of A^p on the half grid, 0 at j = 0, read-only
    and cached; a symbol used once per run is better taken from _power_symbol."""
    f = _power_symbol(M, p)
    f.setflags(write=False)
    return f


@dataclass(frozen=True)
class FourierField:
    """Real mean-zero field on the torus, held by its half j2 >= 0 of the
    modes |j|_inf <= M (module docstring).

    coeffs has shape (2, 2M+1, M+1), complex128, indexed [component, j1+M, j2];
    the j=0 slot is identically zero.  Instances are immutable: coeffs is
    read-only, and an array handed in is copied unless it is already a
    read-only complex128 array.  Operations return new fields, so a field, or
    anything computed from one, may be shared between callers without copying.
    """

    M: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        shape = (2, 2 * self.M + 1, self.M + 1)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != shape:
            raise ValueError(f"coeffs shape {c.shape} != {shape}, the half j2 >= 0 of truncation M = {self.M}")
        if c[0, self.M, 0] != 0 or c[1, self.M, 0] != 0:
            raise ValueError("the j=0 coefficient must be zero (mean-zero field)")
        if c.flags.writeable or c is not self.coeffs:
            c = c.copy()
            c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _wrap(cls, M: int, c: np.ndarray) -> "FourierField":
        """A field holding c, a freshly computed complex128 array that no one
        else references: c is made read-only instead of being copied."""
        c.setflags(write=False)
        return cls(M, c)

    @classmethod
    def zeros(cls, M: int) -> "FourierField":
        return cls(M, np.zeros((2, 2 * M + 1, M + 1), dtype=np.complex128))

    @classmethod
    def from_modes(cls, M: int, modes: dict) -> "FourierField":
        """Build the real field with the coefficients {(j1, j2): (c1, c2)} and
        their conjugates at -j: a mode j2 < 0 is stored as its conjugate, and
        a mode on the column j2 = 0 is written with its mirror."""
        c = np.zeros((2, 2 * M + 1, M + 1), dtype=np.complex128)
        for (j1, j2), val in modes.items():
            if j1 == 0 and j2 == 0:
                raise ValueError("the j=0 mode is not storable")
            if max(abs(j1), abs(j2)) > M:
                raise ValueError(f"mode {(j1, j2)} outside truncation M={M}")
            if j2 < 0:
                j1, j2, val = -j1, -j2, np.conj(val)
            c[:, j1 + M, j2] = val
            if j2 == 0:
                c[:, M - j1, 0] = np.conj(val)
        return cls(M, c)

    def mode(self, j) -> np.ndarray:
        """Coefficient pair at lattice point j, zero outside the truncation;
        for j2 < 0 the conjugate of the stored pair at -j."""
        j1, j2 = j
        if max(abs(j1), abs(j2)) > self.M:
            return np.zeros(2, dtype=np.complex128)
        if j2 < 0:
            return np.conj(self.coeffs[:, self.M - j1, -j2])
        return self.coeffs[:, j1 + self.M, j2].copy()

    def block(self, K: int) -> "FourierField":
        """The modes |j|_inf <= K of this field, as a field at truncation K."""
        if not 1 <= K <= self.M:
            raise ValueError(f"block K = {K} outside 1..{self.M}")
        return FourierField._wrap(K, self.coeffs[:, self.M - K : self.M + K + 1, : K + 1].copy())

    def __add__(self, other: "FourierField") -> "FourierField":
        self._check_compatible(other)
        return FourierField._wrap(self.M, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierField") -> "FourierField":
        self._check_compatible(other)
        return FourierField._wrap(self.M, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "FourierField":
        return FourierField._wrap(self.M, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierField":
        return FourierField._wrap(self.M, -self.coeffs)

    def _check_compatible(self, other: "FourierField") -> None:
        if self.M != other.M:
            raise ValueError(f"truncation mismatch: {self.M} != {other.M}")

    def reality_defect(self) -> float:
        """max |u_hat(-j1, 0) - conj(u_hat(j1, 0))| over the column j2 = 0,
        the one reality property the half does not hold by construction."""
        col = self.coeffs[:, :, 0]
        return float(np.max(np.abs(col[:, ::-1] - np.conj(col))))

    def divergence_defect(self) -> float:
        """max_j |j . u_hat[j]|, zero for a divergence-free field."""
        J1, J2, _ = wavenumbers(self.M)
        return float(np.max(np.abs(J1 * self.coeffs[0] + J2 * self.coeffs[1])))


def _full_plane(h: np.ndarray) -> np.ndarray:
    """The full-plane coefficients of the real field whose half is h, a new
    array of shape (..., 2M+1, 2M+1) indexed [..., j1+M, j2+M] for h of shape
    (..., 2M+1, M+1): the modes j2 < 0 are filled as
    u_hat[-j] = conj(u_hat[j]), and the column j2 = 0 is taken as it is.
    Only the oracles read the full plane (module docstring)."""
    M = h.shape[-1] - 1
    c = np.empty(h.shape[:-1] + (2 * M + 1,), dtype=np.complex128)
    c[..., M:] = h
    np.conj(h[..., ::-1, :0:-1], out=c[..., :M])
    return c


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """sum Re(a conj(b)) over two arrays of one shape and dtype, float64 or
    complex128, as one pass over their float64 views (Re(a conj(b)) = Re a Re b + Im a Im b).
    einsum, not np.dot: a threaded BLAS dot sums in an order that depends on
    the thread count, and the result would too."""
    a, b = (np.ascontiguousarray(x).reshape(-1).view(np.float64) for x in (a, b))
    return float(np.einsum("i,i->", a, b))


def _field_pairing(a: np.ndarray, b: np.ndarray) -> float:
    """The real L^2 pairing of the real fields whose halves are a and b,
    arrays of one shape and dtype whose last axis is j2: twice the half's
    _pairing, less the column j2 = 0, which holds no dropped conjugates.  An
    infinite column makes the result infinite, not inf - inf = NaN."""
    half, axis = _pairing(a, b), _pairing(a[..., 0], b[..., 0])
    return 2.0 * half - axis if math.isfinite(axis) else axis


def inner_product(u: FourierField, v: FourierField) -> float:
    """Real L^2 pairing sum_j u_hat[j] . conj(v_hat[j]) (real part)."""
    u._check_compatible(v)
    return _field_pairing(u.coeffs, v.coeffs)


def _binary_exponent(x: np.ndarray) -> int:
    """The binary exponent e of the largest magnitude in the float64 array x,
    so that it is 2^e times a number in [1/2, 1); 0 when that magnitude is 0,
    inf or NaN.  x 2^-e is exact, and its squares and their sums neither
    overflow nor underflow, bar terms far below its largest."""
    return int(np.frexp(max(x.max(), -x.min()))[1])


def sobolev_norm(u: FourierField, s: float) -> float:
    """H^s norm: sqrt(sum_j |j|^{2s} |u_hat[j]|^2); s=0 gives the L^2 norm.

    The magnitudes are scaled by 2^-e (_binary_exponent) and weighted by
    |j|^s, in place, before _field_pairing squares them, and the norm is
    scaled by 2^e after, which is exact: a norm in the range of floating
    point neither overflows nor underflows on the way."""
    a = np.abs(u.coeffs)
    e = _binary_exponent(a)
    np.ldexp(a, -e, out=a)
    # not cached: a norm at the draw truncation would keep its symbol alive
    a *= _power_symbol(u.M, s / 2.0)
    return float(np.ldexp(math.sqrt(_field_pairing(a, a)), e))


def _leray_coeffs(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P_j = Id - j j^T / |j|^2 on each coefficient pair of the half
    |j|_inf <= K, j2 >= 0 that c holds, shape (2, 2K+1, K+1), or of the full
    plane of the oracles, shape (2, 2K+1, 2K+1); zero at j = 0, which is at
    [K, -(K+1)] either way; written to out (which may be c itself), or to a
    new array.  Its one grid is the denominator |j|^2, built per call and not
    cached, so a draw leaves no grid at its own truncation; out[1] holds
    j1 c[1] on the way."""
    K = (c.shape[-2] - 1) // 2
    r = np.arange(-K, K + 1)
    J1, J2 = r[:, None], r[-c.shape[-1] :]
    denom = J1 * J1 + J2 * J2
    denom[K, -(K + 1)] = 1
    if out is None:
        out = np.empty(c.shape, dtype=np.complex128)
    d = J2 * c[0]
    d -= np.multiply(J1, c[1], out=out[1])
    d /= denom
    np.multiply(J2, d, out=out[0])
    np.multiply(-J1, d, out=out[1])
    out[:, K, -(K + 1)] = 0.0
    return out


def leray_project(w: FourierField) -> FourierField:
    """Mode-wise projection onto divergence-free fields.

    P_j = Id - j j^T / |j|^2 applied to each coefficient pair; idempotent,
    annihilates gradients j * g_hat[j].
    """
    return FourierField._wrap(w.M, _leray_coeffs(w.coeffs))


def apply_A_power(u: FourierField, p: float) -> FourierField:
    """Multiply each coefficient by (|j|^2)^p (spectral power of minus-Laplacian)."""
    return FourierField._wrap(u.M, u.coeffs * laplacian_power(u.M, p))


def _random_coeffs(
    M: int,
    rng: np.random.Generator,
    divergence_free: bool = True,
    decay: float = 0.0,
    band: tuple[float, float] | None = None,
) -> np.ndarray:
    """The coefficients of random_field, as a new writable array that a
    caller may scale or mask in place before it wraps them in a field.

    The stream is that of a full plane z of standard normals, the real parts
    (2, 2M+1, 2M+1) and then the imaginary parts, made real as
    (z + conj(z[-j])) / 2; its half is formed from each plane of normals in
    turn, which is freed before the next is drawn."""
    K = 2 * M + 1
    c = np.empty((2, K, M + 1), dtype=np.complex128)
    x = rng.standard_normal((2, K, K))
    np.add(x[:, :, M:], x[:, ::-1, M::-1], out=c.real)
    del x
    x = rng.standard_normal((2, K, K))
    np.subtract(x[:, :, M:], x[:, ::-1, M::-1], out=c.imag)
    del x
    c *= 0.5
    if decay > 0.0:
        # each decay is used about once per run, so its symbol is not cached
        c *= _power_symbol(M, -decay / 2.0)
    if band is not None:
        lo, hi = band
        LAM = _eigenvalues(M)
        c *= (LAM >= lo) & (LAM <= hi)
    c[:, M, 0] = 0.0
    if divergence_free:
        _leray_coeffs(c, out=c)
    return c


def random_field(
    M: int,
    rng: np.random.Generator,
    divergence_free: bool = True,
    decay: float = 0.0,
    band: tuple[float, float] | None = None,
) -> FourierField:
    """Random real field, optionally divergence-free.

    decay > 0 multiplies coefficients by |j|^{-decay}; band = (lo, hi) keeps
    only modes with lo <= |j|^2 <= hi.  A draw builds every grid it reads
    and caches none, so it leaves no grid at its own truncation behind.
    """
    return FourierField._wrap(M, _random_coeffs(M, rng, divergence_free, decay, band))


# ---------------------------------------------------------------------------
# products


def two_thirds_limit(M: int) -> int:
    return (2 * M) // 3


def two_thirds_mask(u: FourierField) -> FourierField:
    """Zero all modes with |j|_inf > floor(2M/3) (the 2/3 dealiasing mask)."""
    Kc = two_thirds_limit(u.M)
    keep1 = np.abs(np.arange(-u.M, u.M + 1)) <= Kc
    return FourierField._wrap(u.M, u.coeffs * np.outer(keep1, keep1[u.M :]))


def _smooth_size(n: int) -> int:
    """Smallest integer >= n whose only prime factors are 2, 3 and 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=32)
def _fft_plan(K: int, N: int):
    """Grid positions of the modes |j|_inf <= K on an N-point grid (an np.ix_
    index) and the read-only derivative multipliers i*j1, i*j2, of shapes
    (2K+1, 1) and (2K+1,), which broadcast over that block."""
    r = np.arange(-K, K + 1)
    ik1, ik2 = 1j * r[:, None], 1j * r
    for a in (ik1, ik2):
        a.setflags(write=False)
    return np.ix_(r % N, r % N), ik1, ik2


@lru_cache(maxsize=32)
def _curl_plan(K: int):
    """The read-only multipliers that take Q12 and Q11 - Q22 of Q = w w^T to
    P div Q on the half block |j|_inf <= K, j2 >= 0, each of shape (2, 2K+1, K+1):
    (j2, -j1) i (j2^2 - j1^2) / |j|^2 and (j2, -j1) i j1 j2 / |j|^2, 0 at j = 0."""
    J1, J2, LAM = wavenumbers(K)
    perp = np.stack([J2, -J1]) / np.where(LAM > 0, LAM, 1)
    m12 = 1j * perp * (J2 * J2 - J1 * J1)
    mdiff = 1j * perp * (J1 * J2)
    for a in (m12, mdiff):
        a.setflags(write=False)
    return m12, mdiff


def _advect_fft(u: np.ndarray, v: np.ndarray, N: int) -> np.ndarray:
    """(u . grad) v on the full-plane coefficient block |j|_inf <= K that u and
    v hold, shape (2, 2K+1, 2K+1), via transforms on an N-point grid; the
    product is read back on the same block (no masking)."""
    K = (u.shape[-1] - 1) // 2
    idx, ik1, ik2 = _fft_plan(K, N)
    emb = np.zeros((N, N), dtype=np.complex128)

    def grid(c: np.ndarray) -> np.ndarray:
        # only the block's positions are ever written, so the rest stays zero
        emb[idx] = c
        return np.fft.ifft2(emb, norm="forward")

    u1, u2 = grid(u[0]), grid(u[1])
    out = np.empty(u.shape, dtype=np.complex128)
    for n in range(2):
        prod = u1 * grid(ik1 * v[n]) + u2 * grid(ik2 * v[n])
        out[n] = np.fft.fft2(prod, norm="forward")[idx]
    return out


def _quadratic_fft(w: np.ndarray, N: int) -> np.ndarray:
    """P (w . grad) w, the Leray-projected square, on the half block
    |j|_inf <= K, j2 >= 0, shape (2, 2K+1, K+1), of the field w that such a
    half holds, via real transforms on an N-point grid; a new array, read
    back on the same block (no masking).

    w must be real (w_hat[-j] = conj(w_hat[j])) and divergence-free mode by
    mode; then (w . grad) w = div Q with Q = w w^T, and its projection is
    j_perp (j_perp . i j Q_hat) / |j|^2 with j_perp = (j2, -j1) and
    j_perp . i j Q_hat = i [(j2^2 - j1^2) Q12 + j1 j2 (Q11 - Q22)].  So two
    inverse real transforms take w1 and w2 onto the grid from their half, two
    forward real transforms bring back w1 w2 and w1^2 - w2^2, and the
    multipliers of _curl_plan give the projected half.  The j = 0 coefficient
    is written as 0, not as 0 times the mean, which is NaN when w holds inf
    or NaN.  Each 2-D transform is done as its two 1-D passes, so that the j1
    pass skips the columns j2 > K, which are zero on the way in and not read
    on the way out.
    """
    K = (w.shape[-2] - 1) // 2
    m12, mdiff = _curl_plan(K)
    half = np.zeros((2, N, K + 1), dtype=np.complex128)
    half[:, : K + 1] = w[:, K:]
    half[:, N - K :] = w[:, :K]
    # each grid array is dropped once used: this is the solver's memory peak
    g = np.fft.irfft(np.fft.ifft(half, axis=1, norm="forward"), n=N, axis=2, norm="forward")
    del half
    q = np.empty((2, N, N))
    np.multiply(g[0], g[1], out=q[0])
    np.subtract(g[0], g[1], out=q[1])
    g[0] += g[1]
    q[1] *= g[0]
    del g
    r = np.fft.rfft(q, axis=2, norm="forward")
    del q
    prods = np.fft.fft(r[:, :, : K + 1], axis=1, norm="forward")
    del r
    p = np.concatenate([prods[:, N - K :], prods[:, : K + 1]], axis=1)
    del prods
    out = m12 * p[0]
    out += mdiff * p[1]
    out[:, K, 0] = 0.0
    return out


def _convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact truncated convolution out[k] = sum_j a[j] b[k-j], centered K x K.

    Loops over the modes of a and accumulates shifted copies of b; no
    transforms anywhere.  Zero modes of a are skipped.
    """
    K = a.shape[0]
    M = (K - 1) // 2
    out = np.zeros((K, K), dtype=np.complex128)
    for q1 in range(K):
        row = a[q1]
        lo1, hi1 = max(0, q1 - M), min(K, q1 + M + 1)
        src1 = slice(lo1 - q1 + M, hi1 - q1 + M)
        for q2 in range(K):
            c = row[q2]
            if c == 0:
                continue
            lo2, hi2 = max(0, q2 - M), min(K, q2 + M + 1)
            out[lo1:hi1, lo2:hi2] += c * b[src1, lo2 - q2 + M : hi2 - q2 + M]
    return out


def _advect_direct(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u . grad) v on full-plane coefficient arrays by direct convolution
    over all mode pairs."""
    M = (u.shape[-1] - 1) // 2
    r = np.arange(-M, M + 1)
    ik1, ik2 = 1j * r[:, None], 1j * r
    out = np.empty(u.shape, dtype=np.complex128)
    for n in range(2):
        out[n] = _convolve_direct(u[0], ik1 * v[n]) + _convolve_direct(u[1], ik2 * v[n])
    return out


def _route_grid(M: int, dealias: str) -> tuple[int, int]:
    """(K, N) of a transform route: it reads and returns the block
    |j|_inf <= K and transforms on the smallest 2-3-5-smooth grid of
    N >= 3K + 1 points, the one grid rule (module docstring)."""
    if dealias not in ("two-thirds", "padded"):
        raise ValueError(f"unknown dealias mode {dealias!r}")
    K = two_thirds_limit(M) if dealias == "two-thirds" else M
    return K, _smooth_size(3 * K + 1)


def _bilinear_plane(u: np.ndarray, v: np.ndarray, dealias: str) -> np.ndarray:
    """B(u, v) on full-plane coefficient arrays of shape (2, 2M+1, 2M+1),
    which need not hold real fields; a new array of that shape.  dealias
    selects the route (module docstring)."""
    M = (u.shape[-1] - 1) // 2
    if dealias == "direct":
        raw = _advect_direct(u, v)
    else:
        K, N = _route_grid(M, dealias)
        blk = slice(M - K, M + K + 1)
        raw = np.zeros(u.shape, dtype=np.complex128)
        raw[:, blk, blk] = _advect_fft(u[:, blk, blk], v[:, blk, blk], N)
    raw[:, M, M] = 0.0
    return _leray_coeffs(raw, out=raw)


def bilinear_B(u: FourierField, v: FourierField, dealias: str = "two-thirds") -> FourierField:
    """B(u, v) = Leray projection of (u . grad) v, truncated to M.

    dealias selects the product route; see the module docstring.  The
    "two-thirds" route transforms only the modes |j|_inf <= floor(2M/3) and
    returns zero above them.  The product is taken on the full planes of u
    and v, and its half is returned.
    """
    u._check_compatible(v)
    b = _bilinear_plane(_full_plane(u.coeffs), _full_plane(v.coeffs), dealias)
    return FourierField._wrap(u.M, b[:, :, u.M :].copy())


def trilinear_b(u: FourierField, v: FourierField, w: FourierField) -> float:
    """Exact trilinear form sum_{m,n} integral u_m (d v_n / d x_m) w_n dx/(2pi)^2.

    Evaluated as the exact triad sum over the full planes of the stored
    trigonometric polynomials; equals (B(u, v), w) for real w when B uses an
    exact product route, because the pairing only sees modes inside the
    truncation.
    """
    u._check_compatible(v)
    u._check_compatible(w)
    uf, vf, wf = (_full_plane(x.coeffs) for x in (u, v, w))
    # the real pairing with w: sum_k adv[k] . w_hat[-k]
    return float(np.real(np.sum(_advect_direct(uf, vf) * wf[:, ::-1, ::-1])))


# ---------------------------------------------------------------------------
# the elementary power-gap inequality


def power_gap_lower_bound(a: float, b: float, beta: float) -> tuple[float, float]:
    """Return (a^beta - b^beta, (a - b)(a^{beta-1} + b^{beta-1})/2) for a >= b >= 0.

    For beta >= 1 the first component dominates the second; at beta = 1 they
    coincide.
    """
    if not (a >= b >= 0.0):
        raise ValueError(f"need a >= b >= 0, got a={a}, b={b}")
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    lhs = a**beta - b**beta
    rhs = 0.5 * (a - b) * (a ** (beta - 1.0) + b ** (beta - 1.0))
    return lhs, rhs


# ---------------------------------------------------------------------------
# the projector family at a spectral cutoff


@dataclass(frozen=True)
class CutoffFamily:
    """Projector family at a spectral cutoff lambda_N with half-width k."""

    lambda_N: int
    lambda_next: int
    k: float

    def mask(self, M: int, part: str) -> np.ndarray:
        """Boolean mask on the half grid of truncation M selecting the
        modes j != 0 of one part of the family by their eigenvalue |j|^2:
        "low" (|j|^2 <= lambda_N), "high" (|j|^2 > lambda_N) or "band"
        (lambda_N - k <= |j|^2 <= lambda_N + k).  Not cached, like a draw:
        the cone stage masks its draws at their own truncation."""
        LAM = _eigenvalues(M)
        if part == "low":
            m = LAM <= self.lambda_N
        elif part == "high":
            m = LAM > self.lambda_N
        elif part == "band":
            m = (LAM >= self.lambda_N - self.k) & (LAM <= self.lambda_N + self.k)
        else:
            raise ValueError(f"unknown part {part!r}: expected 'low', 'high' or 'band'")
        return m & (LAM > 0)
