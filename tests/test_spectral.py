"""Spectral core: fields, projections, product routes."""

import bisect
import decimal
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypernse import spectral
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
    _curl_plan,
    _curl_product,
    _full_plane,
    _leray_coeffs,
    _random_coeffs,
    _route_grid,
    _smooth_size,
    _workspace,
    laplacian_power,
    two_thirds_mask,
    wavenumbers,
)
from hypernse.truncation import DEFAULT_OUTER_RADIUS, _amplitude_scale, _gain_in_place, _prepared_half, _truncate


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


@pytest.mark.parametrize("M", [8, 16, 102])
def test_the_square_is_the_pair_of_a_field_with_itself(M):
    # the square's two products and the pair's three reach the same
    # P div(u u^T) by different roundings
    u = random_field(M, np.random.default_rng(M), decay=2.0)
    N = _route_grid(M, "padded")[1]
    assert rel(_curl_product(u.coeffs, None, N), _curl_product(u.coeffs, u.coeffs.copy(), N)) <= 1e-14


@pytest.fixture
def fresh_workspaces():
    _workspace.cache_clear()
    yield
    _workspace.cache_clear()


def _kernel_input(K: int, rng: np.random.Generator, count: int = 2):
    """count divergence-free halves at block K, and the kernel's grid N."""
    return [random_field(K, rng, decay=2.0).coeffs for _ in range(count)], _route_grid(K, "padded")[1]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [8, 102])
def test_the_strip_width_changes_no_bit(K, monkeypatch, fresh_workspaces):
    (u, v), N = _kernel_input(K, np.random.default_rng(K))
    want = [_curl_product(u, w, N) for w in (None, v)]
    for strip in (1, 7, N + 1):
        monkeypatch.setattr(spectral, "_STRIP", strip)
        _workspace.cache_clear()
        got = [_curl_product(u, w, N) for w in (None, v)]
        assert all(same_bits(a, b) for a, b in zip(got, want)), strip


def test_reused_workspaces_give_the_bits_of_fresh_ones(fresh_workspaces):
    # a call leaves every row of its spectrum buffer written, so a call that
    # did not zero the rows K < j1 < N - K again would read the last one's
    rng = np.random.default_rng(3)
    inputs = {K: _kernel_input(K, rng, 3) for K in (8, 16)}
    calls = [(8, 0, None), (16, 0, 1), (8, 1, None), (8, 0, 2), (16, 2, None),
             (8, 2, None), (16, 1, 0), (8, 1, 0), (16, 0, None)]

    def run(K, i, j):
        fields, N = inputs[K]
        return _curl_product(fields[i], None if j is None else fields[j], N)

    reused = [run(*call) for call in calls]
    fresh = []
    for call in calls:
        _workspace.cache_clear()
        fresh.append(run(*call))
    assert all(same_bits(a, b) for a, b in zip(reused, fresh))


def test_the_product_shares_no_memory_with_its_workspace(fresh_workspaces):
    # the time loop writes f - b into the product's own array (dynamics._drive)
    (u, v), N = _kernel_input(16, np.random.default_rng(4))
    for w, n in ((None, 2), (v, 4)):
        out = _curl_product(u, w, N)
        assert not any(np.shares_memory(out, buf) for buf in _workspace(n, 16, N))


def test_a_warm_square_allocates_less_than_one_grid_beyond_its_result(fresh_workspaces):
    # beyond its result, the full-grid kernel allocated 2.93 MiB here, the
    # strips 1.29 MiB (the block gathered from the spectrum, and one term),
    # and the read-back into the result through the spectrum's rows nothing
    (u,), N = _kernel_input(102, np.random.default_rng(5), 1)
    assert N == 320
    _curl_product(u, None, N)
    tracemalloc.start()
    try:
        out = _curl_product(u, None, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 * N * N * 8
    assert peak - out.nbytes < 0.25 * 2**20


# The solver's product formed in place, held to the formulas it replaced:
# the references below are those formulas, the same elementwise operations
# in the same order on fresh arrays.  bench/check.py compares bundles to a
# tolerance and cannot see a product that moved by rounding, so these tests
# hold the in-place forms to every bit, NaN, inf and signed zeros included.


def _leray_reference(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """_leray_coeffs with its divergence term d in a new array."""
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


def _truncate_reference(c: np.ndarray, params: SpectralParams) -> np.ndarray:
    """_truncate as copy, then the gain, then the projection."""
    w = c.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(c)
        r *= _amplitude_scale(params, c.shape[-1] - 1)
    return _leray_reference(_gain_in_place(w, r), out=w)


def _read_back_reference(spec: np.ndarray, K: int, N: int, pair: bool) -> np.ndarray:
    """The kernel's read-back from its spectrum after the forward j1 pass:
    the block gathered by np.concatenate, then the whole-block products."""
    m12, mdiff = _curl_plan(K)
    p = np.concatenate([spec[:, N - K :], spec[:, : K + 1]], axis=1)
    out = m12 * p[0]
    out += mdiff * p[1]
    if pair:
        J1, J2, _ = wavenumbers(K)
        p[2] *= -0.5j
        out[0] += J2 * p[2]
        out[1] -= J1 * p[2]
    out[:, K, 0] = 0.0
    return out


def _awkward(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Complex coefficients with NaN, inf and -0.0 parts among normal ones."""
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = c.reshape(-1)
    flat[::7] = complex(np.nan, 1.0)
    flat[3::11] = complex(np.inf, -2.0)
    flat[5::13] = complex(-0.0, -0.0)
    flat[6::17] = complex(-np.inf, np.nan)
    flat[2::19] = complex(0.5, -0.0)
    flat[4::23] = complex(-0.0, np.inf)
    return c


@pytest.mark.parametrize("K", [8, 33])
def test_the_in_place_leray_projection_keeps_every_bit(K):
    half = _awkward((2, 2 * K + 1, K + 1), np.random.default_rng(K))
    with np.errstate(all="ignore"):
        for c in (half, _full_plane(half)):
            want = _leray_reference(c)
            assert same_bits(_leray_coeffs(c), want)
            out = np.full(c.shape, complex(np.nan, np.nan))
            assert _leray_coeffs(c, out=out) is out and same_bits(out, want)
            ref, got = c.copy(), c.copy()
            _leray_reference(ref, out=ref)
            assert _leray_coeffs(got, out=got) is got and same_bits(got, ref)


def _at_radii(K: int, params: SpectralParams, lo: float, hi: float, rng) -> np.ndarray:
    """A half whose scaled amplitudes |c| |j|^{3+eps} / rho are drawn
    uniformly from [lo, hi), and 0 at j = 0."""
    z = random_field(K, rng, divergence_free=False).coeffs
    r = np.abs(z) * _amplitude_scale(params, K)
    return z * (rng.uniform(lo, hi, size=z.shape) / np.where(r > 0, r, 1.0))


@pytest.mark.parametrize("K", [8, 33])
def test_w_projects_in_place_with_every_bit(K):
    params, tiny = SpectralParams(M=K), SpectralParams(M=K, rho=1e-306)
    rng = np.random.default_rng(100 + K)
    R = DEFAULT_OUTER_RADIUS
    inside = _at_radii(K, params, 0.0, 0.99, rng)
    shell = _at_radii(K, params, 1.01, 0.99 * R, rng)
    dead = _at_radii(K, params, 0.0, 3.0 * R, rng)
    nan = dead.copy()
    nan.reshape(-1)[1::9] = complex(np.nan, 0.0)
    # at rho = 1e-306 the amplitude scale overflows to inf: a nonzero
    # coefficient is beyond the outer radius, a zero one has radius NaN
    overflow = random_field(K, rng).coeffs.copy()
    overflow.reshape(-1)[::5] = 0.0
    assert np.isinf(_amplitude_scale(tiny, K)).any()
    cases = {"inside": (inside, params), "shell": (shell, params), "dead": (dead, params),
             "nan": (nan, params), "overflow": (overflow, tiny)}
    for name, (c, p) in cases.items():
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs(c) * _amplitude_scale(p, K)
        if name == "inside":
            assert not (r > 1.0).any()
        else:
            assert ((r > 1.0) & (r < R)).any() or name == "overflow", name
        if name in ("dead", "overflow"):
            assert (r >= R).any(), name
        want = _truncate_reference(c, p)
        assert same_bits(_truncate(c, p), want), name


def _spy_on_the_spectrum(monkeypatch) -> list:
    """Make np.fft.fft, the kernel's forward j1 pass, record a copy of what
    it returns: the spectrum just before the read-back."""
    seen = []
    real = np.fft.fft

    def fft(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        seen.append(out.copy())
        return out

    monkeypatch.setattr(np.fft, "fft", fft)
    return seen


@pytest.mark.parametrize("K", [8, 12, 16, 33, 102])
def test_the_kernel_reads_the_block_back_with_every_bit(K, monkeypatch, fresh_workspaces):
    # at K = 8 (N = 25 = 3K + 1) and K = 16 (N = 50 = 3K + 2) the rows
    # between the two slabs are fewer than the block's, so a read-back that
    # used them as scratch would write over the slab of j1 < 0
    (u, v), N = _kernel_input(K, np.random.default_rng(K))
    seen = _spy_on_the_spectrum(monkeypatch)
    for w in (None, v):
        got = _curl_product(u, w, N)
        assert len(seen) == 1
        assert same_bits(got, _read_back_reference(seen.pop(), K, N, w is not None)), w is None


@pytest.mark.parametrize("call, bound_mib", [("pair", 0.5), ("prepared", 1.0)])
def test_a_warm_product_allocates_little_beyond_its_result(call, bound_mib, fresh_workspaces):
    # beyond the result at K = 102, with the block gathered by np.concatenate
    # and the projection's fresh divergence term: 1.77 MiB for the pair and
    # 1.94 for _prepared_half; formed in place, 0.28 (the pair's strip
    # temporaries) and 0.65 (W's copy and its radii)
    (u, v), N = _kernel_input(102, np.random.default_rng(5))
    assert N == 320
    params = SpectralParams(M=102)
    run = {"pair": lambda: _curl_product(u, v, N), "prepared": lambda: _prepared_half(u, params)}[call]
    run()
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < bound_mib * 2**20


@pytest.mark.parametrize("route", ["padded", "two-thirds"])
def test_transform_routes_need_a_divergence_free_u(route):
    # the kernel computes P div(u v^T), which is B(u, v) only when div u = 0;
    # v may be any real field
    M = 9
    rng = np.random.default_rng(11)
    u, v = random_field(M, rng, divergence_free=False), random_field(M, rng, divergence_free=False)
    with pytest.raises(ValueError, match="needs a divergence-free u"):
        bilinear_B(u, v, dealias=route)
    pu = leray_project(u)
    mask = two_thirds_mask if route == "two-thirds" else (lambda x: x)
    ref = mask(bilinear_B(mask(pu), mask(v), dealias="direct"))
    assert rel(bilinear_B(pu, v, dealias=route), ref) < 1e-13
    # the direct route takes u as it is, and differs from the projected one
    assert rel(bilinear_B(u, v, dealias="direct"), bilinear_B(pu, v, dealias="direct")) > 0.1


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
