"""Spectral core: fields, projections, product routes."""

import bisect
import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypernse import (
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
from hypernse.spectral import (
    CutoffFamily,
    _bilinear_plane,
    _full_plane,
    _random_coeffs,
    _smooth_size,
    laplacian_power,
    two_thirds_limit,
    two_thirds_mask,
    wavenumbers,
)


def rel(a, b) -> float:
    """The largest difference of two fields, or of two coefficient arrays,
    over their largest coefficient."""
    a, b = (getattr(x, "coeffs", x) for x in (a, b))
    d = np.max(np.abs(a - b))
    s = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(d / s)


def test_params_validation():
    p = SpectralParams()
    assert math.isclose(p.epsilon, 2 * 1.45 - 17.0 / 6.0)
    with pytest.raises(ValueError):
        SpectralParams(beta=1.3)
    with pytest.raises(ValueError):
        SpectralParams(s=0.2)
    with pytest.raises(ValueError):
        SpectralParams(nu=0.0)


def test_field_reality_and_divergence():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = random_field(8, rng)
        assert u.coeffs.shape == (2, 17, 9)
        assert u.reality_defect() < 1e-13
        assert u.divergence_defect() < 1e-12
        assert np.all(u.coeffs[:, 8, 0] == 0.0)


@pytest.mark.parametrize("M", [2, 7, 152])
def test_wavenumbers_are_views_of_one_arange(M):
    J1, J2, LAM = wavenumbers(M)
    # the half j2 >= 0 of the grid, the layout of a field
    want1, want2 = np.meshgrid(np.arange(-M, M + 1), np.arange(0, M + 1), indexing="ij")
    assert np.array_equal(J1, want1) and np.array_equal(J2, want2)
    assert np.array_equal(LAM, want1 * want1 + want2 * want2)
    assert LAM.dtype == want1.dtype and LAM.flags.c_contiguous
    # J1 repeats along j2 and J2 along j1 without storing the grid
    assert J1.strides[1] == 0 and J2.strides[0] == 0
    for a in (J1, J2, LAM):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1


def test_random_field_band_support():
    rng = np.random.default_rng(1)
    u = random_field(10, rng, band=(9.0, 16.0))
    _, _, LAM = wavenumbers(10)
    outside = (LAM < 9.0) | (LAM > 16.0)
    assert np.all(u.coeffs[:, outside] == 0.0)
    assert np.any(u.coeffs != 0.0)


def test_leray_idempotent_and_divergence_free():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_field(12, rng, divergence_free=False)
        p1 = leray_project(w)
        p2 = leray_project(p1)
        assert rel(p1, p2) < 1e-14
        assert p1.divergence_defect() < 1e-12 * max(1.0, np.max(np.abs(p1.coeffs)))


def test_apply_A_power_on_single_mode():
    u = FourierField.from_modes(6, {(1, 2): (1.0 + 0.5j, 0.25j)})
    v = apply_A_power(u, 1.0)
    assert np.allclose(v.mode((1, 2)), 5.0 * u.mode((1, 2)))
    # A^{1/2} then A^{-1/2} is the identity off the mean mode
    w = apply_A_power(apply_A_power(u, 0.5), -0.5)
    assert rel(u, w) < 1e-15


def test_sobolev_norm_consistency():
    rng = np.random.default_rng(3)
    u = random_field(8, rng)
    assert math.isclose(sobolev_norm(u, 0.0), math.sqrt(inner_product(u, u)), rel_tol=1e-12)
    single = FourierField.from_modes(8, {(0, 3): (2.0, 0.0)})
    # |j|^2 = 9, conjugate pair doubles the energy
    expect = math.sqrt(2.0 * 4.0 * 9.0 ** 2)
    assert math.isclose(sobolev_norm(single, 2.0), expect, rel_tol=1e-12)


def test_product_routes_agree_padded_vs_direct():
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = random_field(8, rng)
        v = random_field(8, rng)
        bp = bilinear_B(u, v, dealias="padded")
        bd = bilinear_B(u, v, dealias="direct")
        assert rel(bp, bd) < 1e-12


def test_two_thirds_route_equals_masked_direct():
    rng = np.random.default_rng(5)
    u = random_field(9, rng)
    v = random_field(9, rng)
    btt = bilinear_B(u, v, dealias="two-thirds")
    ref = two_thirds_mask(bilinear_B(two_thirds_mask(u), two_thirds_mask(v), dealias="direct"))
    assert rel(btt, ref) < 1e-12


def non_real_coeffs(M: int, rng) -> np.ndarray:
    """Full-plane coefficients with no conjugate symmetry (a complex field),
    which no FourierField holds: the array-level product takes them."""
    K = 2 * M + 1
    c = rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K))
    c[:, M, M] = 0.0
    return c


def two_thirds_mask_plane(c: np.ndarray) -> np.ndarray:
    """two_thirds_mask on a full-plane coefficient array."""
    M = (c.shape[-1] - 1) // 2
    keep1 = np.abs(np.arange(-M, M + 1)) <= two_thirds_limit(M)
    return c * np.outer(keep1, keep1)


@pytest.mark.parametrize("M, N", [(12, 25), (16, 32)])
def test_transform_routes_on_non_real_fields(M, N):
    # M = 12: 3 Kc + 1 = 25 is already smooth; M = 16: the smooth grid, 32,
    # is smaller than the natural 2M + 1 = 33
    assert _smooth_size(3 * two_thirds_limit(M) + 1) == N
    rng = np.random.default_rng(M)
    u, v = non_real_coeffs(M, rng), non_real_coeffs(M, rng)
    assert np.max(np.abs(u[:, ::-1, ::-1] - np.conj(u))) > 0.1
    mask = two_thirds_mask_plane
    btt = _bilinear_plane(u, v, "two-thirds")
    ref = mask(_bilinear_plane(mask(u), mask(v), "direct"))
    assert rel(btt, ref) < 1e-13
    assert rel(_bilinear_plane(u, v, "padded"), _bilinear_plane(u, v, "direct")) < 1e-13


def test_smooth_size_matches_brute_force():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(12) for b in range(8) for c in range(6)
        if 2**a * 3**b * 5**c <= 4096
    )
    for n in range(1, 2001):
        assert _smooth_size(n) == smooth[bisect.bisect_left(smooth, n)], n


def test_bilinear_B_rejects_unknown_route():
    rng = np.random.default_rng(6)
    u = random_field(4, rng)
    with pytest.raises(ValueError, match="unknown dealias mode"):
        bilinear_B(u, u, dealias="none")


def test_trilinear_cancellation_and_skew_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = random_field(8, rng)
        v = random_field(8, rng)
        w = random_field(8, rng)
        scale = sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) * sobolev_norm(v, 0.0)
        assert abs(trilinear_b(u, v, v)) <= 1e-10 * scale
        sk = sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) * sobolev_norm(w, 0.0)
        assert abs(trilinear_b(u, v, w) + trilinear_b(u, w, v)) <= 1e-10 * sk


def test_trilinear_matches_bilinear_pairing():
    rng = np.random.default_rng(8)
    u = random_field(8, rng)
    v = random_field(8, rng)
    w = random_field(8, rng)
    lhs = inner_product(bilinear_B(u, v, dealias="direct"), w)
    rhs = trilinear_b(u, v, w)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def power_gap_60_digits(a: float, b: float, beta: float) -> tuple[Decimal, ...]:
    """(lhs, rhs, a^beta) of the power-gap inequality in 60-digit decimals.

    The doubles a, b, beta convert exactly.  The rhs halves the sum of powers
    before multiplying, and x^1 is x itself, not x rounded to 60 digits, so
    that at beta = 1 the rhs is the lhs digit for digit.
    """

    def power(x: Decimal, e: Decimal) -> Decimal:
        if e == 0:
            return Decimal(1)  # 0^0 = 1, as for doubles
        return x if e == 1 else x**e

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        A, B, beta_ = Decimal(a), Decimal(b), Decimal(beta)
        a_beta = power(A, beta_)
        lhs = a_beta - power(B, beta_)
        rhs = (A - B) * ((power(A, beta_ - 1) + power(B, beta_ - 1)) / 2)
        return lhs, rhs, a_beta


POWER_GAP_INPUTS = given(
    x=st.floats(min_value=0.0, max_value=1.0e6),
    y=st.floats(min_value=0.0, max_value=1.0e6),
    beta=st.floats(min_value=1.0, max_value=3.0),
)
# a draw where the doubles invert the inequality: lhs = 1.0 < rhs =
# 1.0000000000000029, while exactly lhs - rhs = +2.2e-16, below one rounding
# of the cancelling difference a^beta - b^beta
CANCELLING_DRAW = example(x=358681.0, y=358682.0, beta=1.0 + 2.0**-52)


@POWER_GAP_INPUTS
@CANCELLING_DRAW
# at beta = 1 both sides are a - b; rounding a^1 and b^1 to 60 digits put the
# lhs one digit in the 60th place below the rhs
@example(x=1.1169036460946042e-183, y=6.97190659976603e-224, beta=1.0)
@settings(max_examples=300, deadline=None)
def test_power_gap_inequality(x, y, beta):
    a, b = max(x, y), min(x, y)
    lhs, rhs, _ = power_gap_60_digits(a, b, beta)
    assert lhs >= rhs


@POWER_GAP_INPUTS
@CANCELLING_DRAW
@settings(max_examples=300, deadline=None)
def test_power_gap_sides_are_rounded_once(x, y, beta):
    # rhs is a sum and product of positive terms, within a few ulp of its
    # exact value; lhs cancels, so it is within a few ulp of a^beta only
    a, b = max(x, y), min(x, y)
    lhs, rhs = power_gap_lower_bound(a, b, beta)
    lhs_60, rhs_60, a_beta = power_gap_60_digits(a, b, beta)
    assert abs(Decimal(rhs) - rhs_60) <= 4 * Decimal(math.ulp(float(rhs_60)))
    assert abs(Decimal(lhs) - lhs_60) <= 4 * Decimal(math.ulp(float(a_beta)))


def test_power_gap_equality_at_beta_one():
    lhs, rhs = power_gap_lower_bound(7.5, 2.5, 1.0)
    assert lhs == rhs == 5.0


def test_power_gap_rejects_bad_input():
    with pytest.raises(ValueError):
        power_gap_lower_bound(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        power_gap_lower_bound(2.0, 1.0, 0.5)


def test_mode_projectors_partition():
    for lam, nxt, k, M in [(10004, 10009, 1.99, 101), (25, 26, 3.0, 16), (8, 9, 2.0, 2), (2, 4, 0.0, 8)]:
        fam = CutoffFamily(lambda_N=lam, lambda_next=nxt, k=k)
        low, high, band = (fam.mask(M, part) for part in ("low", "high", "band"))
        _, _, LAM = wavenumbers(M)
        nonzero = LAM > 0
        assert np.array_equal(low, nonzero & (LAM <= lam))
        assert np.array_equal(low | high, nonzero)
        assert not np.any(low & high)
        assert np.array_equal(band, nonzero & (LAM >= lam - k) & (LAM <= lam + k))


def test_cutoff_family_mask_rejects_an_unknown_part():
    fam = CutoffFamily(lambda_N=25, lambda_next=26, k=3.0)
    with pytest.raises(ValueError, match="'middle'"):
        fam.mask(8, "middle")


def test_field_operator_results_are_read_only_and_inputs_are_copied():
    rng = np.random.default_rng(9)
    u, v = random_field(6, rng), random_field(6, rng)
    for out in (u + v, u - v, u * 2.0, 3.0 * u, -u, leray_project(u),
                apply_A_power(u, 1.0)):
        assert out.coeffs.dtype == np.complex128
        assert not out.coeffs.flags.writeable
    # a writeable array handed in is copied, so later writes do not reach the field
    c = np.array(u.coeffs)
    f = FourierField(6, c)
    assert not np.shares_memory(f.coeffs, c)
    c[0, 0, 0] = 99.0
    assert f.coeffs[0, 0, 0] == u.coeffs[0, 0, 0]
    # a read-only complex128 array is taken as it is
    assert FourierField(6, u.coeffs).coeffs is u.coeffs


def test_random_field_does_not_cache_its_decay_symbol():
    laplacian_power.cache_clear()
    u = random_field(9, np.random.default_rng(0), decay=3.3)
    assert laplacian_power.cache_info().currsize == 0
    _, _, LAM = wavenumbers(9)
    z = random_field(9, np.random.default_rng(0), divergence_free=False)
    w = random_field(9, np.random.default_rng(0), divergence_free=False, decay=3.3)
    nz = LAM > 0
    assert np.array_equal(w.coeffs[:, nz], z.coeffs[:, nz] * np.float64(LAM[nz]) ** -1.65)
    assert u.divergence_defect() < 1e-13


def full_plane_draw(M, rng, divergence_free=True, decay=0.0, band=None) -> np.ndarray:
    """The full-plane draw that random_field's stream is defined by, written
    out as an oracle: normals z for the real parts (2, 2M+1, 2M+1), then for
    the imaginary parts, made real as (z + conj(z[-j])) / 2; then the decay
    |j|^-decay, the band, the zero mean and the Leray projection."""
    K = 2 * M + 1
    z = rng.standard_normal((2, K, K)) + 0j
    z.imag = rng.standard_normal((2, K, K))
    c = 0.5 * (np.conj(z[:, ::-1, ::-1]) + z)
    r = np.arange(-M, M + 1, dtype=np.float64)
    lam = r[:, None] ** 2 + r**2
    if decay > 0.0:
        c *= np.where(lam > 0, lam, 1.0) ** (-decay / 2.0) * (lam > 0)
    if band is not None:
        c *= (lam >= band[0]) & (lam <= band[1])
    c[:, M, M] = 0.0
    if divergence_free:
        J1, J2 = r[:, None], r
        d = (J2 * c[0] - J1 * c[1]) / np.where(lam > 0, lam, 1.0)
        c = np.stack([J2 * d, -J1 * d])
        c[:, M, M] = 0.0
    return c


@pytest.mark.parametrize("M", [2, 7, 16, 153])
@pytest.mark.parametrize(
    "options",
    [{}, {"decay": 4.5}, {"decay": 5.0, "divergence_free": False},
     {"band": (9.0, 40.0)}, {"divergence_free": False}],
    ids=["plain", "decay", "decay-free", "band", "free"],
)
def test_the_draw_is_the_half_of_the_full_plane_stream(M, options):
    """Bit for bit the half j2 >= 0 of the full-plane oracle, with the same
    normals taken from the generator and none besides."""
    want = full_plane_draw(M, oracle := np.random.default_rng(M), **options)
    drawn = np.random.default_rng(M)
    got = _random_coeffs(M, drawn, **options)
    assert got.shape == (2, 2 * M + 1, M + 1) and got.flags.writeable
    assert np.array_equal(got, want[:, :, M:])
    # the full plane the oracles build is the oracle's, conjugates and all
    assert np.array_equal(_full_plane(got), want)
    assert drawn.bit_generator.state == oracle.bit_generator.state
    u = random_field(M, np.random.default_rng(M), **options)
    assert np.array_equal(u.coeffs, got)


def test_a_field_stores_the_half_and_reads_the_conjugates():
    u = FourierField.from_modes(4, {(1, -2): (1.0 + 2.0j, 0.5j), (-3, 0): (2.0, 1.0 - 1.0j)})
    assert u.coeffs.shape == (2, 9, 5)
    # a mode j2 < 0 is stored as its conjugate at -j
    assert np.array_equal(u.coeffs[:, 4 - 1, 2], [1.0 - 2.0j, -0.5j])
    assert np.array_equal(u.mode((1, -2)), [1.0 + 2.0j, 0.5j])
    assert np.array_equal(u.mode((-1, 2)), [1.0 - 2.0j, -0.5j])
    # the column j2 = 0 holds the mode and its mirror
    assert np.array_equal(u.coeffs[:, 4 - 3, 0], [2.0, 1.0 - 1.0j])
    assert np.array_equal(u.coeffs[:, 4 + 3, 0], [2.0, 1.0 + 1.0j])
    assert np.count_nonzero(u.coeffs) == 6
    assert u.reality_defect() == 0.0
    # the pairing counts a mode j2 > 0 with its conjugate and the column once
    assert inner_product(u, u) == 2.0 * (5.0 + 0.25) + 2.0 * (4.0 + 2.0)
    # the column is kept as it is given; reality_defect measures it
    c = u.coeffs.copy()
    c[0, 4 + 3, 0] = 2.5
    assert FourierField(4, c).reality_defect() == 0.5
