"""Band compression of the linearized nonlinearity and its certificates."""

import math

import numpy as np
import pytest

from hypernse import (
    SpectralParams,
    annulus_basis,
    annulus_points,
    assemble_restricted_operator,
    averaging_trend,
    cancellation_defect,
    check_averaging,
    draw_averaging_samples,
    find_sparse_annulus,
    inner_product,
    nonlinearity_F_prime,
    random_field,
    restricted_norm,
    sobolev_norm,
    weak_restricted_operator,
)
from hypernse import lattice
from hypernse.averaging import (
    coords_from_field,
    field_from_coords,
    random_cancellation_pair,
)
from hypernse.spectral import _convolve_direct

PARAMS = SpectralParams(M=16)


@pytest.fixture(scope="module")
def small_basis():
    # |j|^2 = 25 with half-width 3 picks up 25 and 26
    return annulus_basis(25, 3.0, 16)


def test_basis_layout(small_basis):
    b = small_basis
    assert len(b) == len(b.modes)
    norms = {m.j[0] ** 2 + m.j[1] ** 2 for m in b.modes}
    assert norms == {25, 26}
    for i, m in enumerate(b.modes):
        # direction is the unit divergence-free vector at j
        j1, j2 = m.j
        n = math.hypot(j1, j2)
        assert m.direction == pytest.approx((-j2 / n, j1 / n))
        ci = b.conj_index[i]
        assert b.modes[ci].j == (-j1, -j2)


def test_basis_requires_truncation_coverage():
    with pytest.raises(ValueError):
        annulus_basis(25, 3.0, 4)


def test_coords_round_trip(small_basis):
    rng = np.random.default_rng(0)
    coords = rng.standard_normal(len(small_basis)) + 1j * rng.standard_normal(
        len(small_basis)
    )
    u = field_from_coords(small_basis, coords, 16)
    back = coords_from_field(small_basis, u)
    assert np.max(np.abs(back - coords)) <= 1e-13 * max(1.0, np.max(np.abs(coords)))


def test_field_from_coords_is_isometric(small_basis):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(len(small_basis)) + 1j * rng.standard_normal(
        len(small_basis)
    )
    u = field_from_coords(small_basis, z, 16)
    assert inner_product(u, u) == pytest.approx(float(np.sum(np.abs(z) ** 2)), rel=1e-12)


def in_ball_sample(rng, size=0.5):
    u = random_field(16, rng, decay=3.0 + PARAMS.epsilon + 1.0)
    return u * (size * PARAMS.rho / sobolev_norm(u, 3.0 + PARAMS.epsilon))


def saturated_sample(rng, size=300.0):
    u = random_field(16, rng, decay=3.0 + PARAMS.epsilon + 1.0)
    return u * (size * PARAMS.rho / sobolev_norm(u, 3.0 + PARAMS.epsilon))


def test_strong_and_weak_assembly_agree(small_basis):
    rng = np.random.default_rng(2)
    for make in (in_ball_sample, saturated_sample):
        u = make(rng)
        strong = assemble_restricted_operator(u, small_basis, PARAMS)
        weak = weak_restricted_operator(u, small_basis, PARAMS)
        num = np.max(np.abs(strong - weak))
        den = max(np.max(np.abs(strong)), np.max(np.abs(weak)), 1e-300)
        assert num / den <= 1e-10, make.__name__


def test_weak_assembly_is_the_derivative_pairing(small_basis):
    """Column c of the compression is F'(u) applied to basis mode c, read off
    in band coordinates."""
    rng = np.random.default_rng(3)
    u = in_ball_sample(rng)
    weak = weak_restricted_operator(u, small_basis, PARAMS, dealias="padded")
    c = 2
    vc = field_from_coords(
        small_basis, np.eye(len(small_basis))[c].astype(np.complex128), 16
    )
    img = nonlinearity_F_prime(u, vc, PARAMS, dealias="padded")
    col = coords_from_field(small_basis, img)
    assert np.max(np.abs(col - weak[:, c])) <= 1e-12 * max(1.0, np.max(np.abs(weak)))


def test_assembly_conjugation_symmetry(small_basis):
    rng = np.random.default_rng(4)
    u = in_ball_sample(rng)
    mat = assemble_restricted_operator(u, small_basis, PARAMS)
    ci = small_basis.conj_index
    sym = np.conj(mat[np.ix_(ci, ci)])
    num = np.max(np.abs(mat - sym))
    assert num <= 1e-12 * max(1.0, np.max(np.abs(mat)))


def test_assembly_exact_for_low_frequency_background(small_basis):
    """A background supported well below the band makes the finite truncation
    of the weak route exact, so the two assemblies must agree to rounding."""
    rng = np.random.default_rng(5)
    u = random_field(16, rng, band=(1.0, 4.0)) * 0.01
    strong = assemble_restricted_operator(u, small_basis, PARAMS)
    weak = weak_restricted_operator(u, small_basis, PARAMS, dealias="padded")
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


def test_cancellation_defect_zero_on_certified_window():
    ann = find_sparse_annulus(1.0e4, 0.15)
    pts = tuple((p.j1, p.j2) for p in ann.points)
    r = ann.mu ** (0.15 / 2.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi, psi = random_cancellation_pair(pts, r, rng)
        assert cancellation_defect(phi, psi, pts) == 0.0


def test_cancellation_defect_positive_on_dense_band():
    # a band with unit gaps cannot separate products from the window
    pts = tuple((a, 5) for a in range(-3, 4))
    rng = np.random.default_rng(8)
    phi, psi = random_cancellation_pair(pts, 2.0, rng)
    assert cancellation_defect(phi, psi, pts) > 0.0


@pytest.mark.parametrize(
    "lam, k, radius", [(50, 10, 2.0), (400, 30, 2.5), (2000, 40, 3.0)]
)
def test_cancellation_defect_matches_dense_convolution(lam, k, radius):
    # oracle: embed both factors on a centered grid covering the band and
    # convolve directly; the defect is the largest product coefficient on it
    pts = tuple((p.j1, p.j2) for p in annulus_points(lam, k))
    half = max(max(abs(a), abs(b)) for (a, b) in pts)
    rng = np.random.default_rng(lam)
    for _ in range(3):
        phi, psi = random_cancellation_pair(pts, radius, rng)
        dense_phi = np.zeros((2 * half + 1, 2 * half + 1), dtype=np.complex128)
        dense_psi = np.zeros_like(dense_phi)
        for (a, b), z in phi.items():
            dense_phi[a + half, b + half] = z
        for (a, b), z in psi.items():
            dense_psi[a + half, b + half] = z
        prod = _convolve_direct(dense_phi, dense_psi)
        expected = max(abs(prod[a + half, b + half]) for (a, b) in pts)
        got = cancellation_defect(phi, psi, pts)
        assert expected > 0.0
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("radius", [1.0, 2.0, 2.5, math.sqrt(5.0), 3.7])
def test_random_cancellation_pair_support_and_symmetry(radius):
    band = ((0, 9), (9, 0), (0, -9), (-9, 0))
    phi, psi = random_cancellation_pair(band, radius, np.random.default_rng(3))
    R = int(radius) + 1
    disk = {
        (a, b)
        for a in range(-R, R + 1)
        for b in range(-R, R + 1)
        if 0 < a * a + b * b <= radius * radius
    }
    assert set(phi) == disk
    for (a, b), z in phi.items():
        assert phi[(-a, -b)] == z.conjugate()
    assert set(psi) == set(band)


def test_cancellation_defect_validates_input():
    pts = ((0, 5), (5, 0))
    with pytest.raises(ValueError):
        cancellation_defect({(1, 0): 1.0}, {(3, 3): 1.0}, pts)  # psi off the band
    with pytest.raises(ValueError):
        cancellation_defect({(0, 0): 1.0}, {(0, 5): 1.0}, pts)  # phi not mean-zero


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


def test_check_averaging_uses_the_window_the_scan_certified(monkeypatch):
    # the last point set the scan certifies is the window around lambda_N,
    # the band check_averaging builds its basis on
    certified = []
    min_squared_distance = lattice._min_squared_distance

    def recorded(pts):
        certified.append(list(pts))
        return min_squared_distance(pts)

    monkeypatch.setattr(lattice, "_min_squared_distance", recorded)
    ann = find_sparse_annulus(1.0e4, 0.15)
    window = annulus_points(ann.lambda_N, ann.half_width)
    assert certified[-1] == window
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
