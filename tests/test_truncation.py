"""Amplitude truncation: cutoff profile, W, Gateaux derivatives, H^2 bounds."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hypernse import (
    DEFAULT_OUTER_RADIUS,
    CutoffProfile,
    FourierField,
    SpectralParams,
    apply_W,
    apply_W_prime,
    inner_product,
    leray_project,
    nonlinearity_F,
    nonlinearity_F_prime,
    nonlinearity_h2_bound,
    random_field,
    sobolev_norm,
    theta,
    theta_jacobian,
    trilinear_b,
    w_image_h2_bound,
    apply_A_power,
    bilinear_B,
)
from hypernse import spectral, truncation
from hypernse.spectral import _route_grid, wavenumbers
from hypernse.truncation import (
    _amplitude_scale,
    _smoothstep,
    _smoothstep_prime,
    prepared_product,
)


PARAMS = SpectralParams(M=8)
S_NORM = 3.0 + PARAMS.epsilon


def scaled_to(u: FourierField, target: float) -> FourierField:
    n = sobolev_norm(u, S_NORM)
    return u * (target / n)


def test_profile_shape_and_sup():
    prof = CutoffProfile()
    assert (prof.inner_radius, prof.outer_radius) == (1.0, DEFAULT_OUTER_RADIUS)
    r = np.linspace(0.0, 8.0, 2001)
    psi = prof.psi(r)
    assert np.all(psi[r <= 1.0] == 1.0)
    assert np.all(psi[r >= prof.outer_radius] == 0.0)
    assert np.all((0.0 <= psi) & (psi <= 1.0))


def test_sup_theta_is_certified_at_most_two():
    # |theta| = t psi(t) is t up to the inner radius 1 and 0 from the outer
    # one on.  psi is non-increasing on the shell between, so on [t0, t1]
    # t psi(t) <= t1 psi(t0).  Bisecting from 1 000 intervals until every
    # such bound is at most 2 certifies sup |theta| <= 2, up to the rounding
    # of psi (about 1e-16, against the margin 1.06e-7 of the true sup
    # 1.9999998937)
    prof = CutoffProfile()
    edges = np.linspace(prof.inner_radius, prof.outer_radius, 1001)
    lo, hi = edges[:-1], edges[1:]
    largest = 0.0
    for _ in range(40):
        bound = hi * prof.psi(lo)
        done = bound <= 2.0
        largest = max(largest, bound[done].max(initial=0.0))
        lo, hi = lo[~done], hi[~done]
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    assert lo.size == 0
    assert 1.9999998937 < largest <= 2.0
    # the stored radius is sharp: 1e-6 more lets |theta| exceed 2
    t = 2.3496
    assert t * _psi_on_every_point(np.array(t), outer=DEFAULT_OUTER_RADIUS + 1e-6) > 2.0


def test_profile_radii_are_fixed():
    # the radii are class constants, so every profile is the one profile
    with pytest.raises(TypeError):
        CutoffProfile(0.5, 1.5)
    assert dataclasses.fields(CutoffProfile) == ()
    assert CutoffProfile() == truncation._PROFILE


def test_theta_identity_and_support():
    xi = np.array([0.3 + 0.4j, 0.9j, 1e-3])
    assert np.array_equal(theta(xi), xi)  # |xi| <= 1 untouched
    assert np.all(theta(np.array([10.0 + 0.0j, -8j])) == 0.0)
    mid = theta(2.0 + 0.0j)
    assert 0.0 < abs(mid) < 2.0


def test_theta_vanishes_at_infinity_and_keeps_nan():
    infinite = np.array([np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, 1.0)])
    assert np.array_equal(theta(infinite), np.zeros(4))
    assert theta(np.inf) == 0.0
    # NaN fails both radius comparisons; psi keeps it out of the transition
    # shell, where the smooth step would warn of 0 / 0 (an error here)
    assert np.isnan(theta(np.nan)) and np.isnan(CutoffProfile().psi(np.nan))
    assert np.all(np.isnan(theta(np.array([np.nan, complex(np.nan, 1.0)]))))
    # finite input: bitwise the product xi psi(|xi|)
    rng = np.random.default_rng(9)
    xi = (rng.standard_normal(400) + 1j * rng.standard_normal(400)) * 3.0
    xi[:3] = [1e308, -1e308j, 5.0]
    prof = CutoffProfile()
    assert np.array_equal(theta(xi), xi * prof.psi(np.abs(xi)))


def test_w_zeroes_a_mode_whose_scaled_amplitude_overflows():
    params = SpectralParams(M=8, rho=1e-12)
    rng = np.random.default_rng(10)
    base = random_field(8, rng, decay=4.0) * 1e-14
    # |j|^{3+eps} / rho * 1e300 overflows at j = (0, 3)
    huge = base + FourierField.from_modes(8, {(0, 3): (1e300, 0.0)})
    zeroed = huge.coeffs.copy()
    zeroed[0, 8, 3] = 0.0
    assert np.array_equal(
        apply_W(huge, params).coeffs, apply_W(FourierField(8, zeroed), params).coeffs
    )


def test_w_and_w_prime_are_finite_where_the_amplitude_scale_overflows():
    # at rho = 1e-308, |j|^{3+eps} / rho is inf for |j| >= 2; a zero
    # coefficient there has amplitude exactly 0, not 0 * inf = NaN
    params = SpectralParams(M=8, rho=1e-308)
    assert np.isinf(_amplitude_scale(params, 8)).any()
    u = FourierField.from_modes(8, {(0, 3): (1e-300, 0.0)})
    assert np.array_equal(apply_W(u, params).coeffs, np.zeros_like(u.coeffs))
    v = leray_project(random_field(8, np.random.default_rng(13), decay=2.0))
    want = v.coeffs.copy()
    want[:, 8, 3] = 0.0  # J = 0 at the saturated mode
    assert np.allclose(apply_W_prime(u, v, params).coeffs, want, rtol=0.0, atol=1e-15)


def test_theta_jacobian_matches_difference_quotient():
    rng = np.random.default_rng(0)
    for _ in range(30):
        # stay strictly inside one of the three smooth regions
        regime = rng.integers(3)
        r = (0.3, 2.5, 7.0)[regime] * (1.0 + 0.1 * rng.uniform(-1, 1))
        phase = rng.uniform(0, 2 * math.pi)
        xi = r * complex(math.cos(phase), math.sin(phase))
        J = theta_jacobian(xi)
        h = 1e-6 * complex(*rng.standard_normal(2))
        fd = complex(theta(xi + h) - theta(xi))
        lin = complex(*(J @ np.array([h.real, h.imag])))
        assert abs(fd - lin) <= 1e-9 * max(1.0, abs(xi))
    # the shell's closed edges: exactly the identity and exactly zero
    prof = CutoffProfile()
    for unit in (1.0, 1j, -1.0, -1j):  # |r * unit| == r exactly
        assert np.array_equal(theta_jacobian(prof.inner_radius * unit), np.eye(2))
        assert np.array_equal(theta_jacobian(prof.outer_radius * unit), np.zeros((2, 2)))


def test_w_is_identity_inside_the_ball():
    # the gain is exactly 1 there, so W is bitwise the Leray projection
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        u = random_field(PARAMS.M, rng, decay=S_NORM + 1.0)
        u = scaled_to(u, PARAMS.rho * rng.uniform(0.05, 0.95))
        w = apply_W(u, PARAMS)
        assert np.array_equal(w.coeffs, leray_project(u).coeffs)
        worst = max(worst, np.max(np.abs(w.coeffs - u.coeffs)))
    assert worst <= 1e-13


def test_w_shrinks_saturated_fields():
    rng = np.random.default_rng(2)
    u = scaled_to(random_field(PARAMS.M, rng, decay=1.0), 300.0 * PARAMS.rho)
    w = apply_W(u, PARAMS)
    assert sobolev_norm(w, S_NORM) < sobolev_norm(u, S_NORM)


def test_w_image_h2_bound_holds():
    rng = np.random.default_rng(3)
    bound = w_image_h2_bound(PARAMS)
    fb = nonlinearity_h2_bound(PARAMS)
    for _ in range(100):
        size = 10.0 ** rng.uniform(1.0, 3.0)  # 10x to 1000x rho
        u = scaled_to(random_field(PARAMS.M, rng, decay=1.0), size * PARAMS.rho)
        assert sobolev_norm(apply_W(u, PARAMS), 2.0) <= bound
        assert sobolev_norm(nonlinearity_F(u, PARAMS), 2.0) <= fb


def transition_shell_field(rng: np.random.Generator) -> FourierField:
    """Field whose per-component scaled amplitudes sit inside the open
    transition shell, where the cutoff is smooth and strictly contracting:
    drawn on the full plane, made real, and stored by its half."""
    M = PARAMS.M
    K = 2 * M + 1
    r = np.arange(-M, M + 1, dtype=np.float64)
    scale = (r[:, None] ** 2 + r**2) ** ((3.0 + PARAMS.epsilon) / 2.0) / PARAMS.rho
    targets = rng.uniform(1.3, 3.5, size=(2, K, K))
    phases = np.exp(2j * math.pi * rng.uniform(size=(2, K, K)))
    cc = np.zeros((2, K, K), dtype=np.complex128)
    nz = scale > 0
    cc[:, nz] = (targets * phases)[:, nz] / scale[nz]
    cc = 0.5 * (cc + np.conj(cc[:, ::-1, ::-1]))
    cc[:, M, M] = 0.0
    return leray_project(FourierField(M, cc[:, :, M:]))


def fd_slope(err_by_h: dict) -> float:
    hs = np.array(sorted(err_by_h))
    es = np.array([err_by_h[h] for h in hs])
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


def test_w_prime_is_first_order_accurate():
    rng = np.random.default_rng(4)
    u = transition_shell_field(rng)
    v = random_field(PARAMS.M, rng)
    v = v * (1.0 / sobolev_norm(v, S_NORM))
    dw = apply_W_prime(u, v, PARAMS)
    errs = {}
    for h in (1e-2, 1e-3, 1e-4):
        fd = (apply_W(u + v * h, PARAMS) - apply_W(u, PARAMS)) * (1.0 / h)
        errs[h] = sobolev_norm(fd - dw, 0.0)
    slope = fd_slope(errs)
    assert 0.9 <= slope <= 1.1, errs


def test_f_prime_is_first_order_accurate():
    rng = np.random.default_rng(5)
    u = transition_shell_field(rng)
    v = random_field(PARAMS.M, rng)
    v = v * (1.0 / sobolev_norm(v, S_NORM))
    df = nonlinearity_F_prime(u, v, PARAMS)
    errs = {}
    for h in (1e-2, 1e-3, 1e-4):
        fd = (nonlinearity_F(u + v * h, PARAMS) - nonlinearity_F(u, PARAMS)) * (1.0 / h)
        errs[h] = sobolev_norm(fd - df, 0.0)
    slope = fd_slope(errs)
    assert 0.9 <= slope <= 1.1, errs


def test_f_prime_weak_form_agreement():
    """Strong F'(u)v tested against the trilinear pairing it must satisfy."""
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = transition_shell_field(rng)
        v = random_field(PARAMS.M, rng)
        w = random_field(PARAMS.M, rng)
        strong = inner_product(nonlinearity_F_prime(u, v, PARAMS), w)
        wu = apply_W(u, PARAMS)
        dw = apply_W_prime(u, v, PARAMS)
        aw = apply_A_power(w, -0.5)
        weak = trilinear_b(dw, wu, aw) + trilinear_b(wu, dw, aw)
        scale = max(abs(strong), abs(weak), 1.0)
        assert abs(strong - weak) <= 1e-10 * scale


def test_f_prime_routes_agree():
    # F' on its padded route against the same composition on the direct one
    rng = np.random.default_rng(7)
    u = transition_shell_field(rng)
    v = random_field(PARAMS.M, rng)
    a = nonlinearity_F_prime(u, v, PARAMS)
    w, dw = apply_W(u, PARAMS), apply_W_prime(u, v, PARAMS)
    b = apply_A_power(bilinear_B(dw, w, "direct") + bilinear_B(w, dw, "direct"), -0.5)
    num = np.max(np.abs(a.coeffs - b.coeffs))
    den = max(np.max(np.abs(a.coeffs)), 1e-300)
    assert num / den <= 1e-10


def _psi_on_every_point(
    r: np.ndarray, inner: float = 1.0, outer: float = DEFAULT_OUTER_RADIUS
) -> np.ndarray:
    """The radial factor at the given radii with the smooth step evaluated at
    every r (the formula before the step was restricted to the transition
    shell)."""
    x = (outer - r) / (outer - inner)
    out = _smoothstep(np.clip(x, 0.0, 1.0))
    out = np.where(r <= inner, 1.0, out)
    return np.where(r >= outer, 0.0, out)


def test_psi_on_the_shell_only_is_bitwise_the_full_formula():
    prof = CutoffProfile()
    lo, hi = prof.inner_radius, prof.outer_radius
    edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, np.inf),
             np.nextafter(hi, 0.0), np.nextafter(hi, np.inf), 0.0]
    r = np.concatenate([np.linspace(0.0, 2.0 * hi, 4001), edges])
    assert lo in r and hi in r
    got = prof.psi(r)
    assert np.array_equal(got.view(np.uint64), _psi_on_every_point(r).view(np.uint64))
    assert np.array_equal(prof.psi(r.reshape(8, -1)), got.reshape(8, -1))
    for x in edges:
        assert prof.psi(x) == _psi_on_every_point(np.asarray(x))
    # psi' is zero off the open shell and matches the step's derivative on it
    width = hi - lo
    shell = (r > lo) & (r < hi)
    want = np.zeros_like(r)
    want[shell] = -_smoothstep_prime(((hi - r) / width)[shell]) / width
    assert np.array_equal(prof.psi_prime(r), want)


def _shell_field(M: int, params: SpectralParams, rng) -> FourierField:
    """A real field whose scaled coefficients |j|^{3+eps} u_hat / rho all lie
    in W's transition shell 1 < r < R."""
    z = random_field(M, rng, divergence_free=False).coeffs
    scale = _amplitude_scale(params, M)
    r = rng.uniform(1.05, 0.98 * DEFAULT_OUTER_RADIUS, size=scale.shape)
    r[:, 0] = 0.5 * (r[:, 0] + r[::-1, 0])  # same radius at j and -j keeps the column real
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
    mag = np.abs(z)
    c = np.divide(z, mag, out=np.zeros_like(z), where=mag > 0) * r * inv
    return FourierField(M, c)


def test_w_gain_is_the_scaled_round_trip_on_the_shell():
    # W as the cutoff of the scaled amplitudes, scaled back by the reciprocal
    params = SpectralParams(M=16)
    rng = np.random.default_rng(11)
    scale = _amplitude_scale(params, 16)
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
    for _ in range(5):
        u = _shell_field(16, params, rng)
        want = spectral._leray_coeffs(theta(u.coeffs * scale) * inv)
        got = apply_W(u, params).coeffs
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _oracle_rel(u: FourierField, params: SpectralParams, route: str) -> float:
    """The prepared product against bilinear_B(W(u), W(u)) on one route of
    bilinear_B; "direct" is the oracle."""
    w = apply_W(u, params)
    ref = bilinear_B(w, w, route).coeffs
    got = prepared_product(u, params).coeffs
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("route", ["padded", "direct"])
@pytest.mark.parametrize("M", [12, 16, 40])
def test_prepared_product_matches_the_oracle(route, M):
    params = SpectralParams(M=M)
    rng = np.random.default_rng(M)
    # inside the ball, saturated, and rough; the direct convolution is slow,
    # so one saturated field covers it
    cases = ((3.0, 30.0),) if route == "direct" else ((3.0, 0.5), (3.0, 30.0), (1.0, 3.0))
    for decay, size in cases:
        u = scaled_to(random_field(M, rng, decay=decay), size)
        assert _oracle_rel(u, params, route) <= 1e-13


def test_prepared_product_on_the_transition_shell():
    params = SpectralParams(M=16)
    rng = np.random.default_rng(7)
    u = _shell_field(16, params, rng)
    r = np.abs(u.coeffs * _amplitude_scale(params, 16))
    nz = r > 0
    assert np.all((r[nz] > 1.0) & (r[nz] < DEFAULT_OUTER_RADIUS))
    assert _oracle_rel(u, params, "direct") <= 1e-13


def test_prepared_product_at_the_cone_truncation():
    # the cone workload steps the block K = 102 on the grid N = 320
    params = SpectralParams(M=102)
    assert _route_grid(102, "padded") == (102, 320)
    u = scaled_to(random_field(102, np.random.default_rng(152), decay=4.5), 0.5)
    assert _oracle_rel(u, params, "padded") <= 1e-13


def test_block_is_the_field_on_the_smaller_truncation():
    u = random_field(6, np.random.default_rng(2), decay=1.0)
    b = u.block(4)
    assert b.M == 4 and not b.coeffs.flags.writeable
    assert np.array_equal(b.coeffs, u.coeffs[:, 2:11, :5])
    assert all(np.array_equal(b.mode(j), u.mode(j)) for j in [(4, -4), (1, 3), (-2, 0)])
    assert np.array_equal(u.block(6).coeffs, u.coeffs)
    for K in (0, 7):
        with pytest.raises(ValueError, match=f"block K = {K} outside 1..6"):
            u.block(K)


def test_nonlinearity_F_is_the_prepared_product():
    params = SpectralParams(M=12)
    u = random_field(12, np.random.default_rng(4), decay=3.0)
    b = prepared_product(u, params)
    assert not b.coeffs.flags.writeable
    want = apply_A_power(b, -0.5)
    assert np.array_equal(nonlinearity_F(u, params).coeffs, want.coeffs)


def _relative_defects(b: FourierField) -> tuple[float, float]:
    """reality_defect, the defect of the column j2 = 0, over the largest
    coefficient, and divergence_defect over
    the largest |j| |b_hat[j]|, the size of the terms it sums."""
    _, _, LAM = wavenumbers(b.M)
    size = np.max(np.abs(b.coeffs))
    return b.reality_defect() / size, b.divergence_defect() / np.max(np.sqrt(LAM) * np.abs(b.coeffs))


@pytest.mark.parametrize("M", [8, 12, 16, 40])
def test_prepared_product_is_real_and_divergence_free(M):
    # M = 8, the block simulate steps at M = 12, transforms on an odd grid
    params = SpectralParams(M=M)
    rng = np.random.default_rng(100 + M)
    for decay, size in ((3.0, 0.5), (3.0, 30.0), (1.0, 3.0)):
        b = prepared_product(scaled_to(random_field(M, rng, decay=decay), size), params)
        reality, divergence = _relative_defects(b)
        assert reality <= 1e-13 and divergence <= 1e-13
    assert _route_grid(8, "padded") == (8, 25)


def test_prepared_product_keeps_the_zero_mode_at_zero_on_non_finite_input():
    # NaN passes through W; at rho = 1e300, W is the identity on a field of
    # size 1e200 and its squares overflow on the grid.  Either way the
    # transforms spread inf and NaN over every mode, and the j = 0 slot must
    # still hold an exact 0 for the result to be a field at all.
    M = 12
    u = random_field(M, np.random.default_rng(5), decay=3.0)
    nan_mode = FourierField.from_modes(M, {(1, 2): (math.nan, 0.0)})
    cases = [(u + nan_mode, SpectralParams(M=M)), (u * 1e200, SpectralParams(M=M, rho=1e300))]
    for field, params in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            b = prepared_product(field, params)
        assert not np.all(np.isfinite(b.coeffs))
        assert np.all(b.coeffs[:, M, 0] == 0.0)


# the numpy.fft functions, each with the number of grid axes one call transforms
_FFT_FUNCTIONS = {
    "fft": 1, "ifft": 1, "rfft": 1, "irfft": 1,
    "fft2": 2, "ifft2": 2, "rfft2": 2, "irfft2": 2,
}


def _count_transforms(monkeypatch, K: int, N: int) -> dict:
    """Wrap the numpy.fft functions to count, per direction and as exact
    fractions, the 2-D transforms of one grid component that the calls add
    up to.  A 2-D transform is two 1-D passes, each counting half: a 1-D call
    counts its transformed lines over the lines of one whole pass, the K + 1
    columns j2 <= K for a j1 pass (axis -2) and the N grid rows for a j2
    pass (axis -1), so a pass done in strips adds up to the whole pass; a
    2-D call counts one per array of its stack."""
    moved = {"forward": Fraction(0), "inverse": Fraction(0)}

    def counted(name, real):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            if _FFT_FUNCTIONS[name] == 2:
                passes = Fraction(2 * math.prod(shape[:-2]))
            else:
                axis = kwargs.get("axis", -1) % len(shape)
                whole = K + 1 if axis == len(shape) - 2 else N
                passes = Fraction(math.prod(shape) // shape[axis], whole)
            moved["inverse" if name.startswith("i") else "forward"] += passes / 2
            return real(a, *args, **kwargs)
        return wrapper

    for name in _FFT_FUNCTIONS:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return moved


def test_prepared_product_moves_two_component_arrays_each_way(monkeypatch):
    # a work count, not a timing: w1 and w2 go to the grid, w1 w2 and
    # w1^2 - w2^2 come back, and the block is projected once, inside W
    params = SpectralParams(M=16)
    u = random_field(16, np.random.default_rng(6), decay=3.0)
    moved = _count_transforms(monkeypatch, 16, _route_grid(16, "padded")[1])
    projections = []
    real_leray = spectral._leray_coeffs

    def leray(*args, **kwargs):
        projections.append(None)
        return real_leray(*args, **kwargs)

    for module in (spectral, truncation):
        monkeypatch.setattr(module, "_leray_coeffs", leray)
    prepared_product(u, params)
    assert moved == {"forward": 2, "inverse": 2}
    assert len(projections) == 1


def test_a_pair_product_moves_four_component_arrays_in_and_three_out(monkeypatch):
    # u1, u2, v1 and v2 go to the grid; (T12 + T21) / 2, T11 - T22 and
    # T12 - T21 of T = u v^T come back
    rng = np.random.default_rng(7)
    u, v = (random_field(16, rng, decay=3.0).coeffs for _ in range(2))
    N = _route_grid(16, "padded")[1]
    moved = _count_transforms(monkeypatch, 16, N)
    spectral._curl_product(u, v, N)
    assert moved == {"forward": 3, "inverse": 4}
