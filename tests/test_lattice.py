"""Integer-lattice layer: representability, gaps, strips, sparse annuli."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypernse import (
    annulus_points,
    find_sparse_annulus,
    is_representable,
    min_pairwise_distance,
    record_gaps,
    representable_sieve,
    strip_statistics,
)
from hypernse import lattice
from hypernse.lattice import AnnulusFamily, strip_directions


def brute_representable(n: int) -> bool:
    return any(
        round(math.isqrt(n - a * a)) ** 2 == n - a * a
        for a in range(math.isqrt(n) + 1)
    )


def test_small_representables_match_brute_force():
    for n in range(0, 500):
        assert is_representable(n) == brute_representable(n), n


@given(st.integers(min_value=0, max_value=200_000))
@settings(max_examples=200, deadline=None)
def test_sieve_agrees_with_pointwise(n):
    mask = representable_sieve(n)
    assert bool(mask[n]) == is_representable(n)


def test_sieve_prefix_stability():
    big = representable_sieve(2000)
    small = representable_sieve(400)
    assert np.array_equal(big[:401], small)


def test_gap_records_to_a_million():
    recs = record_gaps(1_000_000)
    assert len(recs) == 19
    assert (recs[0].lower, recs[0].upper, recs[0].gap) == (2, 4, 2)
    assert (recs[-1].lower, recs[-1].upper, recs[-1].gap) == (685541, 685576, 35)
    gaps = [r.gap for r in recs]
    assert gaps == sorted(set(gaps))  # strictly increasing


def test_gap_record_endpoints_and_interiors():
    for rec in record_gaps(100_000):
        assert is_representable(rec.lower)
        assert is_representable(rec.upper)
        for n in range(rec.lower + 1, rec.upper):
            assert not is_representable(n)


def test_annulus_points_boundary_membership():
    pts = annulus_points(25.0, 3.0)
    norms = sorted({p.j1 * p.j1 + p.j2 * p.j2 for p in pts})
    assert norms == [25, 26]  # 23, 24, 27, 28 have no representations
    for p in pts:
        assert 22.0 <= p.j1 * p.j1 + p.j2 * p.j2 <= 28.0
    assert pts == sorted(pts)


def test_annulus_points_requires_positive_width_margin():
    with pytest.raises(ValueError):
        annulus_points(3.0, 5.0)


def test_min_pairwise_distance_small_cases():
    assert min_pairwise_distance([]) is None
    assert min_pairwise_distance([(0, 1)]) is None
    pts = [(0, 1), (3, 5), (4, 5)]
    assert min_pairwise_distance(pts) == 1.0


def oracle_strip_hits(mu: float, s: float) -> tuple[int, int]:
    """Plain double-loop recount of the strip statistics."""
    fam = AnnulusFamily(mu, s)
    width = mu**s
    top = fam.bin_edge(fam.J + 1)
    js = [
        (a, b)
        for a in range(-math.isqrt(math.floor(mu**s)), math.isqrt(math.floor(mu**s)) + 1)
        for b in range(-math.isqrt(math.floor(mu**s)), math.isqrt(math.floor(mu**s)) + 1)
        if 0 < a * a + b * b <= math.floor(mu**s)
    ]
    hits = 0
    r = math.isqrt(math.floor(top))
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            n = x * x + y * y
            if not (mu < n <= top):
                continue
            if any(abs(x * a + y * b) < width for a, b in js):
                hits += 1
    return len(js), hits


def test_strip_statistics_against_oracle():
    for mu, s in ((1.0e4, 0.15), (9.9e3, 0.15), (1.0e4, 0.13)):
        st_fast = strip_statistics(mu, s)
        n_dirs, hits = oracle_strip_hits(mu, s)
        assert st_fast.strip_count == n_dirs
        assert st_fast.lattice_hits == hits


def test_strip_statistics_frozen_values():
    assert strip_statistics(1.0e4, 0.15).lattice_hits == 92
    s_mid = (3.0 - 2.0 * 1.45 + 1.0 / 6.0) / 2.0
    assert strip_statistics(1.0e4, s_mid).lattice_hits == 80


def test_strip_membership_near_parallel_pair():
    """Two nearly parallel annulus points must be classified independently."""
    mu, s = 9.9e3, 0.15
    width = mu**s
    # |n|^2 = 9941, |l|^2 = 9941, n . (1, -1) = -1 inside every unit-direction strip
    n, ell = (70, 71), (71, 70)
    assert n[0] ** 2 + n[1] ** 2 == 9941
    dirs = strip_directions(mu, s)
    in_n = any(abs(n[0] * a + n[1] * b) < width for a, b in dirs)
    in_l = any(abs(ell[0] * a + ell[1] * b) < width for a, b in dirs)
    assert in_n and in_l
    st_fast = strip_statistics(mu, s)
    _, hits = oracle_strip_hits(mu, s)
    assert st_fast.lattice_hits == hits


def test_sparse_annulus_desk_scale():
    ann = find_sparse_annulus(1.0e4, 0.15)
    assert ann is not None
    assert ann.m0 == 1
    assert len(ann.points) == 16
    assert ann.min_separation == 4.0
    assert ann.min_separation > ann.certified_threshold
    # every point really sits inside the reported annulus
    for p in ann.points:
        n = p.j1 * p.j1 + p.j2 * p.j2
        assert ann.lam - ann.half_width <= n <= ann.lam + ann.half_width


def test_sparse_annulus_desk_scale_window():
    ann = find_sparse_annulus(1.0e4, 0.15)
    assert (ann.lambda_N, ann.lambda_next) == (10004, 10009)
    assert ann.window_min_separation == 4.0
    window = annulus_points(ann.lambda_N, ann.half_width)
    assert ann.window_min_separation == min_pairwise_distance(window)
    assert ann.window_min_separation > ann.certified_threshold


def test_sparse_annulus_separation_is_brute_force_checkable():
    ann = find_sparse_annulus(1.0e4, 0.15)
    best = None
    pts = list(ann.points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i].j1 - pts[j].j1, pts[i].j2 - pts[j].j2)
            best = d if best is None else min(best, d)
    assert best == ann.min_separation


def test_sparse_annulus_rejects_bad_exponent():
    with pytest.raises(ValueError):
        find_sparse_annulus(1.0e4, 0.4)


def brute_sparse_scan(mu: float, s: float):
    """(m0, points, min distance, lambda_N, window distance) of the first certified bin.

    Each bin m re-enumerates every (a, b) in its bounding square, collects the
    half-open bin (mu + m kappa, mu + (m+1) kappa], the closed annulus
    [lambda - kappa/2, lambda + kappa/2] and the window
    [lambda_N - kappa/2, lambda_N + kappa/2], lambda_N the largest |j|^2 <= lambda,
    and checks all pairwise distances of the three against
    max(mu^{s/2}, lambda^{s/2}).
    """
    kappa = mu**s
    half = 0.5 * kappa

    def min_dist(pts):
        return min(
            (
                math.hypot(p[0] - q[0], p[1] - q[1])
                for i, p in enumerate(pts)
                for q in pts[i + 1 :]
            ),
            default=math.inf,
        )

    for m in range(math.isqrt(int(mu)) + 1):
        lo, hi = mu + m * kappa, mu + (m + 1) * kappa
        lam = mu + (m + 0.5) * kappa
        thr = max(mu ** (s / 2.0), lam ** (s / 2.0))
        R = math.isqrt(math.floor(max(hi, lam + half)))
        square = [(a, b) for a in range(-R, R + 1) for b in range(-R, R + 1)]
        open_pts = [(a, b) for a, b in square if lo < a * a + b * b <= hi]
        closed_pts = [
            (a, b) for a, b in square if lam - half <= a * a + b * b <= lam + half
        ]
        lam_N = max(a * a + b * b for a, b in square if a * a + b * b <= lam)
        window = [
            (a, b) for a, b in square if lam_N - half <= a * a + b * b <= lam_N + half
        ]
        if min_dist(open_pts) <= thr or min_dist(closed_pts) <= thr:
            continue
        win_sep = min_dist(window)
        if win_sep <= thr:
            continue
        return m, sorted(closed_pts), min_dist(closed_pts), lam_N, win_sep
    return None


def _assert_matches_brute_force(ann, expected):
    assert expected is not None
    m0, pts, sep, lam_N, win_sep = expected
    assert ann.m0 == m0
    assert [tuple(p) for p in ann.points] == pts
    assert ann.min_separation == sep
    assert ann.lambda_N == lam_N
    assert ann.window_min_separation == win_sep


@pytest.mark.parametrize("mu", [1e3, 3e3, 1e4, 3e4, 1e5])
@pytest.mark.parametrize("s", [0.05, 0.1333, 0.15])
def test_sparse_annulus_matches_brute_force_bin_scan(mu, s):
    _assert_matches_brute_force(find_sparse_annulus(mu, s), brute_sparse_scan(mu, s))


def test_sparse_annulus_moves_past_a_bin_whose_window_fails():
    # the midpoint s at beta = 1.49: bin 1 is sparse, but its window around
    # lambda_N = 10004 holds a unit-distance pair, so the scan takes bin 2
    s = ((3.0 - 2.0 * 1.49) + 1.0 / 6.0) / 2.0
    ann = find_sparse_annulus(1.0e4, s)
    assert (ann.m0, ann.lambda_N, ann.window_min_separation) == (2, 10004, 4.0)
    _assert_matches_brute_force(ann, brute_sparse_scan(1.0e4, s))


@pytest.mark.parametrize("mu", [1e3, 1e4, 1e5, 1e6, 1e7])
def test_sparse_annulus_window_matches_the_sieve(mu):
    ann = find_sparse_annulus(mu, 0.15)
    mask = representable_sieve(math.ceil(ann.lam + ann.half_width) + 128)
    lam_N = int(np.flatnonzero(mask[: math.floor(ann.lam) + 1])[-1])
    lam_next = lam_N + 1 + int(np.flatnonzero(mask[lam_N + 1 :])[0])
    assert (ann.lambda_N, ann.lambda_next) == (lam_N, lam_next)


def test_sparse_annulus_names_the_margin_when_the_window_is_empty(monkeypatch):
    monkeypatch.setattr(lattice, "_points_with_norm_range", lambda lo, hi: [])
    with pytest.raises(ValueError, match="margin 128"):
        find_sparse_annulus(1.0e4, 0.15)


def test_sparse_annulus_enumerates_only_the_bins_it_visits(monkeypatch):
    widths = []
    enumerate_window = lattice._points_with_norm_range

    def recorded(n_min, n_max):
        widths.append(n_max - n_min + 1)
        return enumerate_window(n_min, n_max)

    monkeypatch.setattr(lattice, "_points_with_norm_range", recorded)
    ann = find_sparse_annulus(1.0e8, 0.15)
    kappa = AnnulusFamily(1.0e8, 0.15).kappa
    # one enumeration per bin visited, each over the bin, the eigenvalue margin
    # of 128 on either side and kappa/2 below it for the window: far below the
    # (J + 1) kappa of enumerating every bin up front
    assert len(widths) == ann.m0 + 1
    assert sum(widths) <= (ann.m0 + 1) * (math.ceil(kappa) + 2 * 128 + 3)
