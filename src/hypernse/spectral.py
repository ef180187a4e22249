"""Divergence-free Fourier fields on the 2-torus and the operators acting on them.

A field u is stored by its Fourier coefficients u_hat[j] in C^2 for the modes
0 < |j|_inf <= M, in a dense array of shape (2, 2M+1, 2M+1) with centered
indexing [component, j1+M, j2+M].  All inner products and integrals carry the
measure dx/(2pi)^2, so pairings and norms are plain coefficient sums:
(u, v) = sum_j u_hat[j] . conj(v_hat[j]) and the H^s norm squared is
sum_j |j|^{2s} |u_hat[j]|^2.  The sharp spectral projectors at a cutoff are
boolean masks on that grid: CutoffFamily.mask(M, part) selects the "low",
"high" or "band" modes, and a caller multiplies coefficients by it.

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

"padded" and "direct" compute the same object through disjoint code paths and
agree to rounding; "two-thirds" computes mask(direct(mask u, mask v)), the
padded product on the block (Orszag 1971).  The prepared product of
truncation is the padded rule alone; a run that wants the two-thirds rule
cuts its fields to the block (cli).

bilinear_B is the general product B(u, v) and moves complex blocks (eight
complex 2-D transforms per call).  The projected square P (w . grad) w of one
real, divergence-free block has a cheaper form, _quadratic_fft: with
Q = w w^T, (w . grad) w = div Q, and its projection is
j_perp (j_perp . i j Q_hat) / |j|^2, j_perp = (j2, -j1), which reads Q only
through Q12 and Q11 - Q22.  So it takes two inverse real transforms (w1, w2)
and two forward ones (w1 w2, w1^2 - w2^2) on the same grid, and forms the
half j2 >= 0 of the projected block with the cached multipliers of
_curl_plan; no projection pass follows, and no conjugate fill.  A real field
is determined by that half, u_hat[-j] = conj(u_hat[j]), and _field_from_half
turns a half back into a FourierField by that conjugate fill.
truncation._prepared_half uses _quadratic_fft for B(W(u), W(u)) and hands it
W on the half j2 >= 0, the only half the transforms read; the time loop
of dynamics keeps its states, products and forcing as such halves.  W acts on
a block or its half through truncation._truncate, which apply_W shares; the
Leray projection of either is the array helper _leray_coeffs, which
leray_project and W share.

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
    """|j|^2 on the centered grid of truncation M, a new int64 array."""
    r = np.arange(-M, M + 1)
    return (r * r)[:, None] + r * r


@lru_cache(maxsize=32)
def wavenumbers(M: int):
    """Centered wavenumber grids (J1, J2, LAM) for truncation M, read-only.

    J1 and J2 are broadcast views of one arange (a zero stride each), so LAM
    is the only full grid the cache keeps."""
    r = np.arange(-M, M + 1)
    J1 = np.broadcast_to(r[:, None], (r.size, r.size))
    J2 = np.broadcast_to(r, J1.shape)
    LAM = _eigenvalues(M)
    LAM.setflags(write=False)
    return J1, J2, LAM


def _power_symbol(M: int, p: float) -> np.ndarray:
    """The symbol (|j|^2)^p on the centered grid, 0 at j = 0, not cached;
    its one array is |j|^2 in float64, raised to p in place."""
    q = np.arange(-M, M + 1, dtype=np.float64) ** 2
    f = q[:, None] + q
    f[M, M] = 1.0  # 0^p is not needed, and is inf for p < 0
    f **= p
    f[M, M] = 0.0
    return f


@lru_cache(maxsize=32)
def laplacian_power(M: int, p: float) -> np.ndarray:
    """The symbol (|j|^2)^p of A^p on the centered grid, 0 at j = 0, read-only
    and cached; a symbol used once per run is better taken from _power_symbol."""
    f = _power_symbol(M, p)
    f.setflags(write=False)
    return f


@dataclass(frozen=True)
class FourierField:
    """Mean-zero field on the torus, coefficients for 0 < |j|_inf <= M.

    coeffs has shape (2, 2M+1, 2M+1), complex128, centered indexing
    [component, j1+M, j2+M]; the j=0 slot is identically zero.  Instances are
    immutable: coeffs is read-only, and an array handed in is copied unless it
    is already a read-only complex128 array.  Operations return new fields, so
    a field, or anything computed from one, may be shared between callers
    without copying (the pair evolution hands one B(W(u), W(u)) to both the
    cone sample and the next step).
    """

    M: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        K = 2 * self.M + 1
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2, K, K):
            raise ValueError(f"coeffs shape {c.shape} != (2, {K}, {K})")
        if c[0, self.M, self.M] != 0 or c[1, self.M, self.M] != 0:
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
        return cls(M, np.zeros((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128))

    @classmethod
    def from_modes(cls, M: int, modes: dict) -> "FourierField":
        """Build a field from {(j1, j2): (c1, c2)}; the mirror coefficient at
        -j is set to the complex conjugate (real field)."""
        c = np.zeros((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128)
        for (j1, j2), val in modes.items():
            if j1 == 0 and j2 == 0:
                raise ValueError("the j=0 mode is not storable")
            if max(abs(j1), abs(j2)) > M:
                raise ValueError(f"mode {(j1, j2)} outside truncation M={M}")
            c[0, j1 + M, j2 + M] = val[0]
            c[1, j1 + M, j2 + M] = val[1]
            c[0, -j1 + M, -j2 + M] = np.conj(val[0])
            c[1, -j1 + M, -j2 + M] = np.conj(val[1])
        return cls(M, c)

    def mode(self, j) -> np.ndarray:
        """Coefficient pair at lattice point j, zero outside the truncation."""
        j1, j2 = j
        if max(abs(j1), abs(j2)) > self.M:
            return np.zeros(2, dtype=np.complex128)
        return self.coeffs[:, j1 + self.M, j2 + self.M].copy()

    def block(self, K: int) -> "FourierField":
        """The modes |j|_inf <= K of this field, as a field at truncation K."""
        if not 1 <= K <= self.M:
            raise ValueError(f"block K = {K} outside 1..{self.M}")
        s = slice(self.M - K, self.M + K + 1)
        return FourierField._wrap(K, self.coeffs[:, s, s].copy())

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
        """max |u_hat[-j] - conj(u_hat[j])|, zero for a real field."""
        flipped = self.coeffs[:, ::-1, ::-1]
        return float(np.max(np.abs(flipped - np.conj(self.coeffs))))

    def divergence_defect(self) -> float:
        """max_j |j . u_hat[j]|, zero for a divergence-free field."""
        J1, J2, _ = wavenumbers(self.M)
        return float(np.max(np.abs(J1 * self.coeffs[0] + J2 * self.coeffs[1])))


def _field_from_half(h: np.ndarray) -> FourierField:
    """The real field whose half j2 >= 0 is h, shape (2, 2M+1, M+1): the
    modes j2 < 0 are filled as u_hat[-j] = conj(u_hat[j]), and the column
    j2 = 0 is taken as it is."""
    M = h.shape[-1] - 1
    c = np.empty((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128)
    c[:, :, M:] = h
    np.conj(h[:, ::-1, :0:-1], out=c[:, :, :M])
    return FourierField._wrap(M, c)


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """sum Re(a conj(b)) over two arrays of one shape and dtype, float64 or
    complex128, as one pass over their float64 views (Re(a conj(b)) = Re a Re b + Im a Im b).
    einsum, not np.dot: a threaded BLAS dot sums in an order that depends on
    the thread count, and the result would too."""
    a, b = (np.ascontiguousarray(x).reshape(-1).view(np.float64) for x in (a, b))
    return float(np.einsum("i,i->", a, b))


def inner_product(u: FourierField, v: FourierField) -> float:
    """Real L^2 pairing sum_j u_hat[j] . conj(v_hat[j]) (real part)."""
    u._check_compatible(v)
    return _pairing(u.coeffs, v.coeffs)


def _binary_exponent(x: np.ndarray) -> int:
    """The binary exponent e of the largest magnitude in the float64 array x,
    so that it is 2^e times a number in [1/2, 1); 0 when that magnitude is 0,
    inf or NaN.  x 2^-e is exact, and its squares and their sums neither
    overflow nor underflow, bar terms far below its largest."""
    return int(np.frexp(max(x.max(), -x.min()))[1])


def sobolev_norm(u: FourierField, s: float) -> float:
    """H^s norm: sqrt(sum_j |j|^{2s} |u_hat[j]|^2); s=0 gives the L^2 norm.

    The magnitudes are scaled by 2^-e (_binary_exponent) before they are
    squared, in place, and the norm by 2^e after, which is exact: a norm in
    the range of floating point neither overflows nor underflows on the way."""
    a = np.abs(u.coeffs)
    e = _binary_exponent(a)
    np.ldexp(a, -e, out=a)
    np.square(a, out=a)
    dens = a[0]
    dens += a[1]
    # not cached: a norm at the draw truncation would keep its symbol alive
    dens *= _power_symbol(u.M, s)
    return float(np.ldexp(math.sqrt(np.sum(dens)), e))


def _leray_coeffs(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P_j = Id - j j^T / |j|^2 on each pair of the centered coefficient block
    |j|_inf <= K that c holds, shape (2, 2K+1, 2K+1), or of its half j2 >= 0,
    shape (2, 2K+1, K+1); zero at j = 0, which is at [K, -(K+1)] either way;
    written to out (which may be c itself), or to a new array.  Its one grid
    is the denominator |j|^2, built per call and not cached, so a draw
    leaves no grid at its own truncation; out[1] holds j1 c[1] on the way."""
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
    caller may scale or mask in place before it wraps them in a field."""
    K = 2 * M + 1
    # built in place: at the cone stage's draw truncation each full-plane
    # temporary is a measurable share of the run's peak memory.  Writing the
    # draws straight into c, with no z, raised the cone workload's peak
    # resident memory by 0.2 to 0.3 MiB all the same: the heap's layout, not
    # the live set, sets that peak
    z = np.empty((2, K, K), dtype=np.complex128)
    z.real = rng.standard_normal((2, K, K))
    z.imag = rng.standard_normal((2, K, K))
    c = np.conj(z[:, ::-1, ::-1])
    c += z
    del z
    c *= 0.5
    if decay > 0.0:
        # each decay is used about once per run, so its symbol is not cached
        c *= _power_symbol(M, -decay / 2.0)
    if band is not None:
        lo, hi = band
        LAM = _eigenvalues(M)
        c *= (LAM >= lo) & (LAM <= hi)
    c[:, M, M] = 0.0
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
    """Random real (conjugate-symmetric) field, optionally divergence-free.

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
    r = np.arange(-u.M, u.M + 1)
    keep1 = np.abs(r) <= Kc
    keep = np.outer(keep1, keep1)
    return FourierField._wrap(u.M, u.coeffs * keep)


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
    J1, J2, LAM = (a[:, K:] for a in wavenumbers(K))
    perp = np.stack([J2, -J1]) / np.where(LAM > 0, LAM, 1)
    m12 = 1j * perp * (J2 * J2 - J1 * J1)
    mdiff = 1j * perp * (J1 * J2)
    for a in (m12, mdiff):
        a.setflags(write=False)
    return m12, mdiff


def _advect_fft(u: np.ndarray, v: np.ndarray, N: int) -> np.ndarray:
    """(u . grad) v on the centered coefficient block |j|_inf <= K that u and v
    hold, shape (2, 2K+1, 2K+1), via transforms on an N-point grid; the product
    is read back on the same block (no masking)."""
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
    """P (w . grad) w, the Leray-projected square, on the half j2 >= 0 of the
    centered coefficient block |j|_inf <= K, shape (2, 2K+1, K+1), of a field
    w given by its half of that block, via real transforms on an N-point grid;
    a new array, read back on the same block (no masking).

    w must be real (w_hat[-j] = conj(w_hat[j])) and divergence-free mode by
    mode; then (w . grad) w = div Q with Q = w w^T, and its projection is
    j_perp (j_perp . i j Q_hat) / |j|^2 with j_perp = (j2, -j1) and
    j_perp . i j Q_hat = i [(j2^2 - j1^2) Q12 + j1 j2 (Q11 - Q22)].  So two
    inverse real transforms take w1 and w2 onto the grid from their j2 >= 0
    half, two forward real transforms bring back w1 w2 and w1^2 - w2^2, the
    multipliers of _curl_plan give the projected half; the modes j2 < 0 are
    the conjugates of its modes (_field_from_half).  The j = 0 coefficient is
    written as 0, not as 0 times the mean, which is NaN when w holds inf or
    NaN.  Each 2-D transform is done
    as its two 1-D passes, so that the j1 pass skips the columns j2 > K, which
    are zero on the way in and not read on the way out.
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


def _advect_direct(u: FourierField, v: FourierField) -> np.ndarray:
    """(u . grad) v coefficients by direct convolution over all mode pairs."""
    M = u.M
    J1, J2, _ = wavenumbers(M)
    out = np.empty((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128)
    for n in range(2):
        g1 = 1j * J1 * v.coeffs[n]
        g2 = 1j * J2 * v.coeffs[n]
        out[n] = _convolve_direct(u.coeffs[0], g1) + _convolve_direct(u.coeffs[1], g2)
    return out


def _route_grid(M: int, dealias: str) -> tuple[int, int]:
    """(K, N) of a transform route: it reads and returns the block
    |j|_inf <= K and transforms on the smallest 2-3-5-smooth grid of
    N >= 3K + 1 points, the one grid rule (module docstring)."""
    if dealias not in ("two-thirds", "padded"):
        raise ValueError(f"unknown dealias mode {dealias!r}")
    K = two_thirds_limit(M) if dealias == "two-thirds" else M
    return K, _smooth_size(3 * K + 1)


def bilinear_B(u: FourierField, v: FourierField, dealias: str = "two-thirds") -> FourierField:
    """B(u, v) = Leray projection of (u . grad) v, truncated to M.

    dealias selects the product route; see the module docstring.  The
    "two-thirds" route transforms only the modes |j|_inf <= floor(2M/3) and
    returns zero above them.
    """
    u._check_compatible(v)
    M = u.M
    if dealias == "direct":
        raw = _advect_direct(u, v)
    else:
        K, N = _route_grid(M, dealias)
        blk = slice(M - K, M + K + 1)
        raw = np.zeros((2, 2 * M + 1, 2 * M + 1), dtype=np.complex128)
        raw[:, blk, blk] = _advect_fft(u.coeffs[:, blk, blk], v.coeffs[:, blk, blk], N)
    raw[:, M, M] = 0.0
    return leray_project(FourierField(M, raw))


def trilinear_b(u: FourierField, v: FourierField, w: FourierField) -> float:
    """Exact trilinear form sum_{m,n} integral u_m (d v_n / d x_m) w_n dx/(2pi)^2.

    Evaluated as the exact triad sum over the stored trigonometric polynomials;
    equals (B(u, v), w) for real w when B uses an exact product route, because
    the pairing only sees modes inside the truncation.
    """
    u._check_compatible(v)
    u._check_compatible(w)
    adv = _advect_direct(u, v)
    total = 0.0 + 0.0j
    for n in range(2):
        # pair against w with the real pairing: sum_k adv[k] w_hat[-k]
        total += np.sum(adv[n] * w.coeffs[n, ::-1, ::-1])
    return float(np.real(total))


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
        """Boolean mask on the centered grid of truncation M selecting the
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
