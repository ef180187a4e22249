"""Band compression of the linearized nonlinearity and its certificates."""

import dataclasses
import math

import numpy as np
import pytest

from hypernse import (
    CutoffProfile,
    FourierField,
    SpectralParams,
    annulus_points,
    apply_A_power,
    apply_W,
    assemble_restricted_operator,
    averaging_trend,
    band_basis,
    bilinear_B,
    cancellation_defect,
    check_averaging,
    draw_averaging_samples,
    find_sparse_annulus,
    nonlinearity_F_prime,
    random_field,
    restricted_norm,
    sobolev_norm,
    weak_restricted_operator,
)
from hypernse import lattice
from hypernse.averaging import random_cancellation_pair
from hypernse.spectral import _convolve_direct

PARAMS = SpectralParams(M=16)


@pytest.fixture(scope="module")
def small_basis():
    # |j|^2 = 25 with half-width 3 picks up 25 and 26
    return band_basis(25, 3.0)


def mode_field(basis, c, M=16, coefficient=1.0):
    """The real field of basis mode c times coefficient, with its conjugate,
    at truncation M.  The band is symmetric and the direction flips sign
    with j, so the conjugate of basis mode c is minus basis mode n - 1 - c:
    the field is e_c - e_{n-1-c} for coefficient 1 and i (e_c + e_{n-1-c})
    for coefficient i."""
    j, d = basis
    return FourierField.from_modes(M, {tuple(j[:, c].tolist()): coefficient * d[:, c]})


def band_coords(basis, u):
    """Coordinates of the band part of u in the basis."""
    j, d = basis
    return np.array([u.mode((a, b)) @ d[:, i] for i, (a, b) in enumerate(j.T.tolist())])


def F_direct(u):
    """A^{-1/2} B(W(u), W(u)) with the product on the direct route, the oracle."""
    w = apply_W(u, PARAMS)
    return apply_A_power(bilinear_B(w, w, "direct"), -0.5)


def test_basis_layout():
    for lam, k, norms in [(25, 3.0, {25, 26}), (3, 0.5, set()), (50, 0.0, {50}),
                          (10004, 1.99, {10004}), (2000, 40.0, None)]:
        j, d = band_basis(lam, k)
        n = j.shape[1]
        assert j.shape == d.shape == (2, n)
        assert j.dtype == np.int64 and d.dtype == np.float64
        pts = [tuple(p) for p in j.T.tolist()]
        assert pts == sorted(pts)
        assert np.array_equal(j.T, annulus_points(lam, k))
        sq = j[0] * j[0] + j[1] * j[1]
        assert np.all((lam - k <= sq) & (sq <= lam + k))
        if norms is not None:
            assert set(sq.tolist()) == norms
        # the band is symmetric: reversing the order negates the points
        assert np.array_equal(j[:, ::-1], -j)
        # d is the unit divergence-free direction at each point
        assert np.allclose(np.hypot(d[0], d[1]), 1.0, rtol=0.0, atol=1e-15)
        assert np.all(np.abs(j[0] * d[0] + j[1] * d[1]) <= 1e-12)
        want = [(-b / math.hypot(a, b), a / math.hypot(a, b)) for a, b in pts]
        assert np.array_equal(d, np.array(want).reshape(-1, 2).T)


def in_ball_sample(rng, size=0.5):
    u = random_field(16, rng, decay=3.0 + PARAMS.epsilon + 1.0)
    return u * (size * PARAMS.rho / sobolev_norm(u, 3.0 + PARAMS.epsilon))


def saturated_sample(rng, size=300.0):
    u = random_field(16, rng, decay=3.0 + PARAMS.epsilon + 1.0)
    return u * (size * PARAMS.rho / sobolev_norm(u, 3.0 + PARAMS.epsilon))


def test_strong_and_weak_assembly_agree(small_basis):
    rng = np.random.default_rng(2)
    prof = CutoffProfile()
    for make in (in_ball_sample, saturated_sample):
        u = make(rng)
        strong = assemble_restricted_operator(u, small_basis, PARAMS)
        weak = weak_restricted_operator(u, small_basis, PARAMS)
        num = np.max(np.abs(strong - weak))
        den = max(np.max(np.abs(strong)), np.max(np.abs(weak)), 1e-300)
        assert num / den <= 1e-10, make.__name__
    # the saturated sample has band-mode amplitudes in the transition shell,
    # where the band gain is only real-linear; both routes take it from the
    # one cutoff derivative, so a central difference of F checks those
    # columns along the real mode of one of them
    j = small_basis[0]
    n = j.shape[1]
    amplitudes = np.array([u.mode(p) for p in j.T.tolist()])
    scale = np.float64(j[0] * j[0] + j[1] * j[1]) ** ((3.0 + PARAMS.epsilon) / 2.0) / PARAMS.rho
    r = np.abs(amplitudes) * scale[:, None]
    in_shell = (prof.inner_radius < r) & (r < prof.outer_radius)
    c = int(np.flatnonzero(np.any(in_shell, axis=1))[0])
    v = mode_field(small_basis, c)
    h = 1e-6
    fd = F_direct(u + v * h) - F_direct(u - v * h)
    col = band_coords(small_basis, fd) / (2.0 * h)
    assert np.max(np.abs(col - (strong[:, c] - strong[:, n - 1 - c]))) <= 1e-7 * den


def test_weak_assembly_is_the_derivative_pairing(small_basis):
    """Column c of the compression is F'(u) applied to basis mode c, read off
    in band coordinates.  A field holds a mode with its conjugate, so the
    column is taken from the real and the imaginary real mode of c: F'(u)
    is complex-linear inside the ball, where W' is the identity."""
    rng = np.random.default_rng(3)
    u = in_ball_sample(rng)
    weak = weak_restricted_operator(u, small_basis, PARAMS)
    c = 2
    re, im = (band_coords(small_basis, nonlinearity_F_prime(u, mode_field(small_basis, c, coefficient=z), PARAMS))
              for z in (1.0, 1j))
    col = 0.5 * (re - 1j * im)
    assert np.max(np.abs(col - weak[:, c])) <= 1e-12 * max(1.0, np.max(np.abs(weak)))


def test_weak_assembly_needs_the_band_inside_the_sample(small_basis):
    # |j|^2 = 25 reaches |j|_inf = 5: inside M = 5, outside M = 4
    rng = np.random.default_rng(11)
    weak_restricted_operator(random_field(5, rng) * 1e-3, small_basis, PARAMS)
    with pytest.raises(ValueError, match="does not fit"):
        weak_restricted_operator(random_field(4, rng) * 1e-3, small_basis, PARAMS)
    with pytest.raises(ValueError, match="empty"):
        weak_restricted_operator(random_field(4, rng), band_basis(3, 0.5), PARAMS)


def test_assembly_conjugation_symmetry(small_basis):
    rng = np.random.default_rng(4)
    u = in_ball_sample(rng)
    mat = assemble_restricted_operator(u, small_basis, PARAMS)
    # point n - 1 - i is the negation of point i
    sym = np.conj(mat[::-1, ::-1])
    num = np.max(np.abs(mat - sym))
    assert num <= 1e-12 * max(1.0, np.max(np.abs(mat)))


def test_assembly_exact_for_low_frequency_background(small_basis):
    """A background supported well below the band makes the finite truncation
    of the weak route exact, so the two assemblies must agree to rounding."""
    rng = np.random.default_rng(5)
    u = random_field(16, rng, band=(1.0, 4.0)) * 0.01
    strong = assemble_restricted_operator(u, small_basis, PARAMS)
    weak = weak_restricted_operator(u, small_basis, PARAMS)
    num = np.max(np.abs(strong - weak))
    den = max(np.max(np.abs(strong)), 1e-300)
    assert num / den <= 1e-12


def test_restricted_norm_against_svd():
    rng = np.random.default_rng(6)
    for n in (3, 17, 50):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = restricted_norm(m)
        want = float(np.linalg.norm(m, 2))
        assert got == pytest.approx(want, rel=1e-6)
    assert restricted_norm(np.zeros((4, 4))) == 0.0
    assert restricted_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)


@pytest.mark.parametrize("k", [-900, 900])
def test_restricted_norm_is_exact_under_power_of_two_scaling(k):
    # unscaled, the Gram step overflows at 2^900 and underflows at 2^-900
    rng = np.random.default_rng(6)
    m = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    assert restricted_norm(m * 2.0**k) == restricted_norm(m) * 2.0**k


def test_cancellation_defect_zero_on_certified_window():
    ann = find_sparse_annulus(1.0e4, 0.15)
    band = ann.points.T
    r = ann.mu ** (0.15 / 2.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi, psi = random_cancellation_pair(band, r, rng)
        assert cancellation_defect(phi, psi, band) == 0.0


@pytest.mark.parametrize("mu", [1.0e4, 1.0e5, 1.0e6])
def test_cancellation_defect_is_sharp_at_the_window_separation(mu):
    """Criterion 08 can fail: the defect is 0 at phi's support radius
    r = lambda_N^{s/2} only because every off-diagonal band difference is
    longer than r.  A radius reaching the shortest one (4, 24 and 6 at these
    scales) gives a nonzero defect for a generic draw."""
    ann = find_sparse_annulus(mu, 0.15)
    band, _ = band_basis(ann.lambda_N, ann.half_width)
    delta = band[:, :, None] - band[:, None, :]
    d2 = delta[0] * delta[0] + delta[1] * delta[1]
    shortest = math.sqrt(int(d2[d2 > 0].min()))
    r = float(ann.lambda_N) ** (0.15 / 2.0)
    assert r < shortest
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert cancellation_defect(*random_cancellation_pair(band, shortest, rng), band) > 0.0
        assert cancellation_defect(*random_cancellation_pair(band, r, rng), band) == 0.0


def test_cancellation_defect_positive_on_dense_band():
    # a band with unit gaps cannot separate products from the window
    band = np.array([np.arange(-3, 4), np.full(7, 5)])
    rng = np.random.default_rng(8)
    phi, psi = random_cancellation_pair(band, 2.0, rng)
    assert cancellation_defect(phi, psi, band) > 0.0


@pytest.mark.parametrize(
    "lam, k, radius", [(50, 10, 2.0), (400, 30, 2.5), (2000, 40, 3.0)]
)
def test_cancellation_defect_matches_dense_convolution(lam, k, radius):
    # oracle: embed both factors on a centered grid covering the band and
    # convolve directly; the defect is the largest product coefficient on it
    band = annulus_points(lam, k).T
    half = int(np.abs(band).max())
    rng = np.random.default_rng(lam)
    for _ in range(3):
        phi, psi = random_cancellation_pair(band, radius, rng)
        R = phi.shape[-1] - 1
        dense_phi = np.zeros((2 * half + 1, 2 * half + 1), dtype=np.complex128)
        dense_psi = np.zeros_like(dense_phi)
        dense_phi[half - R : half + R + 1, half - R : half + R + 1] = full_plane(phi)
        dense_psi[band[0] + half, band[1] + half] = psi
        prod = _convolve_direct(dense_phi, dense_psi)
        expected = np.abs(prod[band[0] + half, band[1] + half]).max()
        got = cancellation_defect(phi, psi, band)
        assert expected > 0.0
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def full_plane(h: np.ndarray) -> np.ndarray:
    """The full plane [j1+R, j2+R] of the real scalar whose half is h."""
    return np.concatenate([np.conj(h[::-1, :0:-1]), h], axis=-1)


@pytest.mark.parametrize("radius", [1.0, 2.0, 2.5, math.sqrt(5.0), 3.7])
def test_random_cancellation_pair_support_and_symmetry(radius):
    band = np.array([[0, 9, 0, -9], [9, 0, -9, 0]])
    phi, psi = random_cancellation_pair(band, radius, np.random.default_rng(3))
    R = phi.shape[-1] - 1
    assert phi.shape == (2 * R + 1, R + 1)
    disk = {
        (a, b)
        for a in range(-R - 1, R + 2)
        for b in range(0, R + 2)
        if 0 < a * a + b * b <= radius * radius
    }
    support = {(a - R, b) for a, b in zip(*np.nonzero(phi))}
    assert support == disk
    # phi(-q) = conj phi(q) on the column j2 = 0, and the centre is the zero mean
    assert np.array_equal(phi[::-1, 0], phi[:, 0].conj())
    assert phi[R, 0] == 0
    assert psi.shape == (4,) and np.all(psi != 0)


@pytest.mark.parametrize("radius, n_band", [(1.0, 4), (2.5, 16), (3.7, 0)])
def test_random_cancellation_pair_draw_order(radius, n_band):
    # scalar draws in the documented order: the positive modes of the disk
    # lexicographically, real part then imaginary part, then the band points
    band = annulus_points(10004.0, 1.99).T[:, :n_band]
    drawn = np.random.default_rng(11)
    phi, psi = random_cancellation_pair(band, radius, drawn)
    rng = np.random.default_rng(11)
    R = phi.shape[-1] - 1
    want_phi = np.zeros((2 * R + 1, 2 * R + 1), dtype=np.complex128)
    for a in range(0, R + 1):
        for b in range(-R, R + 1):
            if (a, b) > (0, 0) and a * a + b * b <= radius * radius:
                z = complex(rng.standard_normal(), rng.standard_normal())
                want_phi[R + a, R + b] = z
                want_phi[R - a, R - b] = z.conjugate()
    want_psi = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(n_band)]
    # phi is the half j2 >= 0 of that block
    assert np.array_equal(phi, want_phi[:, R:])
    assert np.array_equal(psi, np.array(want_psi, dtype=np.complex128))
    # and no draw besides
    assert drawn.bit_generator.state == rng.bit_generator.state


def test_cancellation_defect_validates_input():
    band = np.array([[0, 5], [5, 0]])
    # the half of the block R = 1: the modes (1, 0) and (-1, 0)
    phi = np.zeros((3, 2), dtype=np.complex128)
    phi[2, 0] = phi[0, 0] = 1.0
    assert cancellation_defect(phi, np.ones(2), band) == 0.0
    with pytest.raises(ValueError, match="band points"):
        cancellation_defect(phi, np.ones(3), band)  # psi is not one value per point
    phi[1, 0] = 1.0
    with pytest.raises(ValueError, match="mean-zero"):
        cancellation_defect(phi, np.ones(2), band)


def test_check_averaging_desk_scale():
    ann = find_sparse_annulus(1.0e4, 0.15)
    params = SpectralParams(M=16, s=0.15)
    rng = np.random.default_rng(9)
    samples = draw_averaging_samples(params, 6, rng)
    rep = check_averaging(samples, ann, params, n_cancellation_pairs=5)
    assert rep.lambda_N == 10004
    assert rep.dimension == 16
    assert len(rep.sampled_norms) == 6
    assert rep.max_norm > 0.0
    assert all(d == 0.0 for d in rep.cancellation_defects)
    assert rep.bound == pytest.approx(
        (1.0 / 16.0) * 10004.0 ** (-(3.0 - 2.0 * params.beta) / 2.0)
    )
    d = rep.to_dict()
    assert d["lambda_N"] == 10004
    assert d["window_certified"] is True
    assert d["window_min_separation"] == 4.0
    assert 0.0 <= d["pass_fraction"] <= 1.0


@pytest.mark.parametrize("k", [-900, 900])
def test_check_averaging_norms_are_exact_under_power_of_two_scaling(k):
    # W(2^k u) at rho 2^k is 2^k W(u) at rho 1; squared unscaled, the H^2 and
    # tail norms of W overflow to inf at 2^900 and underflow at 2^-900
    ann = find_sparse_annulus(1.0e4, 0.15)
    params = SpectralParams(M=16, s=0.15)
    samples = draw_averaging_samples(params, 6, np.random.default_rng(9))
    want = check_averaging(samples, ann, params, n_cancellation_pairs=1)
    got = check_averaging([u * 2.0**k for u in samples], ann,
                          dataclasses.replace(params, rho=2.0**k), n_cancellation_pairs=1)
    for name in ("product_factors", "mechanism_tail", "tail_bound"):
        want_k = np.multiply(getattr(want, name), 2.0**k)
        np.testing.assert_allclose(getattr(got, name), want_k, rtol=1e-12, atol=0.0, err_msg=name)
    assert want.mechanism_tail > 0.0 and min(want.product_factors) > 0.0


def test_check_averaging_uses_the_window_the_scan_certified(monkeypatch):
    # the last point set the scan certifies is the window around lambda_N,
    # the band check_averaging builds its basis on
    certified = []
    min_squared_distance = lattice._min_squared_distance

    def recorded(pts):
        certified.append(pts)
        return min_squared_distance(pts)

    monkeypatch.setattr(lattice, "_min_squared_distance", recorded)
    ann = find_sparse_annulus(1.0e4, 0.15)
    window = annulus_points(ann.lambda_N, ann.half_width)
    assert np.array_equal(certified[-1], window)
    params = SpectralParams(M=16, s=0.15)
    samples = draw_averaging_samples(params, 2, np.random.default_rng(10))
    rep = check_averaging(samples, ann, params, n_cancellation_pairs=2)
    assert (rep.lambda_N, rep.k) == (ann.lambda_N, ann.half_width)
    assert rep.dimension == len(window)


def test_averaging_trend_slope():
    class Rep:
        def __init__(self, lam, mx):
            self.lambda_N = lam
            self.max_norm = mx

    reps = [Rep(10.0**e, 10.0 ** (-0.3 * e)) for e in (4, 5, 6)]
    assert averaging_trend(reps)["slope"] == pytest.approx(-0.3, abs=1e-12)
