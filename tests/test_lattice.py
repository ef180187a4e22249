"""Integer-lattice layer: representability, gaps, strips, sparse annuli."""

import functools
import math
import tracemalloc

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
from hypernse.lattice import (
    AnnulusFamily,
    GapRecord,
    StripStats,
    _isqrt,
    _octant,
    _octant_walk,
    _points_with_norm_range,
)


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


def loop_record_gaps(limit: int) -> list[GapRecord]:
    """The plain running-best loop over consecutive representable integers."""
    mask = representable_sieve(limit)
    reps = [n for n in range(1, limit + 1) if mask[n]]
    records = []
    best = 1
    for lo, hi in zip(reps, reps[1:]):
        if hi - lo > best:
            best = hi - lo
            records.append(GapRecord(lo, hi, best))
    return records


@pytest.mark.parametrize("limit", [*range(65), 1_000_000])
def test_gap_records_match_the_loop(limit):
    recs = record_gaps(limit)
    assert recs == loop_record_gaps(limit)
    for r in recs:
        assert (type(r.lower), type(r.upper), type(r.gap)) == (int, int, int)


def test_gap_records_to_a_million():
    recs = record_gaps(1_000_000)
    assert len(recs) == 19
    assert (recs[0].lower, recs[0].upper, recs[0].gap) == (2, 4, 2)
    assert (recs[-1].lower, recs[-1].upper, recs[-1].gap) == (685541, 685576, 35)
    gaps = [r.gap for r in recs]
    assert gaps == sorted(set(gaps))  # strictly increasing


@pytest.mark.parametrize("window", [7, 64])
def test_gap_records_across_window_edges(monkeypatch, window):
    monkeypatch.setattr(lattice, "_WINDOW", window)
    for limit in [*range(201), 5_000]:
        assert record_gaps(limit) == loop_record_gaps(limit), limit
    # windows start at 2; (377, 386) straddles an edge at both sizes
    assert any(
        (r.lower - 2) // window != (r.upper - 2) // window for r in record_gaps(5_000)
    )


@pytest.mark.parametrize("window", [1, 7, 64, 1000])
def test_walk_marks_match_the_sieve_window_by_window(window):
    limit = 5_000
    sieve = representable_sieve(limit)
    starts = []
    for w, a, b in _octant_walk(0, limit + 1, window):
        starts.append(w)
        top = min(w + window, limit + 1)
        marks = np.zeros(top - w, dtype=bool)
        marks[a * a + b * b - w] = True
        assert np.array_equal(marks, sieve[w:top]), w
    assert starts == list(range(0, limit + 1, window))


@pytest.mark.parametrize("window", [1, 2, 7, 64, None])
@pytest.mark.parametrize(
    "lo, hi",
    [
        # across the perfect squares 48^2, 49^2, 50^2 and the diagonal 2 * 35^2
        (2300, 2510), (2449, 2452), (2440, 2460),
        # from 0, and ending just past a square and twice a square
        (0, 400), (0, 201), (-7, 51), (97, 163),
    ],
)
def test_walk_concatenates_to_the_one_window_octant(monkeypatch, window, lo, hi):
    # without a width the walk reads _WINDOW when it is called, as
    # strip_statistics calls it
    monkeypatch.setattr(lattice, "_WINDOW", 5)
    width = window or 5
    points = []
    starts = []
    for w, a, b in _octant_walk(lo, hi, *([window] if window else [])):
        starts.append(w)
        window_points = list(zip(a.tolist(), b.tolist()))
        # each window is lexicographic and holds only its own norms
        assert window_points == sorted(window_points)
        assert all(w <= x * x + y * y < w + width for x, y in window_points)
        points += window_points
    assert starts == list(range(max(lo, 0), hi, width))
    assert sorted(points) == brute_octant(lo, hi)
    assert sorted(points) == list(zip(*(c.tolist() for c in _octant(lo, hi))))


@pytest.mark.parametrize("limit", [-1, 2**52])
def test_gap_records_name_their_bound(limit):
    with pytest.raises(ValueError, match=r"\[0, 2\^52\)"):
        record_gaps(limit)


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gap_records_run_in_window_sized_memory():
    # a full-range mask with its representables and gaps peaks at 19.6 MiB,
    # 2^18-norm windows at 2.7 MiB, the walk's 2^15-norm windows at 0.8 MiB
    assert _traced_peak(record_gaps, 4_000_000) < 1.5 * 2**20


def test_strip_statistics_runs_in_window_sized_memory():
    # every point of the scan range at once peaks at 103.9 MiB, 2^18-norm
    # windows at 5.5 MiB, the walk's 2^15-norm windows at 1.6 MiB
    assert _traced_peak(strip_statistics, 1.0e9, 0.15) < 3 * 2**20


def test_gap_record_endpoints_and_interiors():
    for rec in record_gaps(100_000):
        assert is_representable(rec.lower)
        assert is_representable(rec.upper)
        for n in range(rec.lower + 1, rec.upper):
            assert not is_representable(n)


def brute_points(n_min: int, n_max: int) -> list[tuple[int, int]]:
    """Every j != 0 of the bounding square with n_min <= |j|^2 <= n_max."""
    r = math.isqrt(max(n_max, 0))
    return [
        (a, b)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if (a, b) != (0, 0) and n_min <= a * a + b * b <= n_max
    ]


@functools.lru_cache(maxsize=None)
def points_of_norm(n: int) -> tuple[tuple[int, int], ...]:
    """Every j with |j|^2 = n, by exact integer roots, one row j1 at a time."""
    pts = []
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        b = math.isqrt(n - a * a)
        if b * b == n - a * a:
            pts.extend({(a, -b), (a, b)})  # one point when b = 0
    return tuple(pts)


def _assert_enumerates(n_min, n_max, expected):
    pts = _points_with_norm_range(n_min, n_max)
    assert pts.dtype == np.int64
    assert pts.shape == (len(expected), 2)
    assert [tuple(p) for p in pts.tolist()] == sorted(expected)


@given(st.integers(-50, 2500), st.integers(-5, 2500))
@settings(max_examples=300, deadline=None)
def test_enumerator_matches_the_double_loop(n_min, n_max):
    _assert_enumerates(n_min, n_max, brute_points(n_min, n_max))


@pytest.mark.parametrize(
    "n_min, n_max", [(5, 4), (10**6, 10), (0, 0), (-3, 0), (-5, -1), (1, 0)]
)
def test_enumerator_empty_windows(n_min, n_max):
    pts = _points_with_norm_range(n_min, n_max)
    assert pts.shape == (0, 2) and pts.dtype == np.int64


@pytest.mark.parametrize("n_min, n_max", [(-7, 30), (0, 1), (0, 4), (1, 1), (4, 4), (9, 16)])
def test_enumerator_low_windows_and_the_j1_zero_row(n_min, n_max):
    expected = brute_points(n_min, n_max)
    _assert_enumerates(n_min, n_max, expected)
    on_axis = [(0, b) for b in range(-4, 5) if b != 0 and n_min <= b * b <= n_max]
    assert on_axis and set(on_axis) <= set(expected)


@pytest.mark.parametrize("k", [99_999, 100_000])
@pytest.mark.parametrize("lo, hi", [(-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1)])
def test_enumerator_windows_at_perfect_squares(k, lo, hi):
    n_min, n_max = k * k + lo, k * k + hi
    expected = [p for n in range(n_min, n_max + 1) for p in points_of_norm(n)]
    _assert_enumerates(n_min, n_max, expected)


@pytest.mark.parametrize("k", [99_999, 100_000])
@pytest.mark.parametrize("lo, hi", [(-1, -1), (-1, 0), (0, 0), (0, 1), (-2, 2)])
def test_enumerator_windows_at_twice_a_square(k, lo, hi):
    # |(k, k)|^2 = 2 k^2: the diagonal points, whose orbits have four members
    n_min, n_max = 2 * k * k + lo, 2 * k * k + hi
    expected = [p for n in range(n_min, n_max + 1) for p in points_of_norm(n)]
    _assert_enumerates(n_min, n_max, expected)


def test_enumerator_runs_in_row_sized_memory():
    # the full plane's 2R + 1 rows, R = 10^6, peak at 137 MiB; the octant's
    # R / sqrt(2) rows at about 28 MiB
    assert _traced_peak(_points_with_norm_range, 10**12, 10**12 + 300) < 48 * 2**20


@pytest.mark.parametrize(
    "k", [1, 2, 99_999, 100_000, 2**26 - 1, 2**26, 2**26 + 1, 10**9 + 7, 2**31 - 1]
)
def test_isqrt_at_perfect_squares(k):
    # from k = 2^26 + 1 on, the float64 root of k^2 - 1 rounds up to k (and
    # above 2^53 n itself rounds in float64); the int64 step down corrects it
    n = np.array([k * k - 1, k * k, k * k + 1], dtype=np.int64)
    assert _isqrt(n).tolist() == [k - 1, k, k]


def test_enumerator_names_its_bound():
    with pytest.raises(ValueError, match=r"2\^52"):
        _points_with_norm_range(0, 2**52)


def brute_octant(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every 0 <= a <= b with lo <= a^2 + b^2 < hi, by a double loop."""
    r = math.isqrt(max(hi - 1, 0))
    return [
        (a, b)
        for a in range(r + 1)
        for b in range(a, r + 1)
        if lo <= a * a + b * b < hi
    ]


def _assert_octant(lo, hi, expected):
    a, b = _octant(lo, hi)
    assert a.dtype == b.dtype == np.int64
    assert list(zip(a.tolist(), b.tolist())) == sorted(expected)


@given(st.integers(-50, 2500), st.integers(-5, 2500))
@settings(max_examples=300, deadline=None)
def test_octant_matches_the_double_loop(lo, hi):
    _assert_octant(lo, hi, brute_octant(lo, hi))


@pytest.mark.parametrize(
    "lo, hi",
    [
        # empty
        (5, 5), (10, 3), (-3, 0), (0, 0), (2, 3), (3, 4),
        # lo = 0, so the origin is listed
        (0, 1), (0, 2), (0, 3), (0, 51), (0, 1000),
        # lo = hi - 1: the points of one norm, axis and diagonal included
        (1, 2), (2, 3), (25, 26), (50, 51), (65, 66), (10_000, 10_001),
    ],
)
def test_octant_small_ranges(lo, hi):
    _assert_octant(lo, hi, brute_octant(lo, hi))


@pytest.mark.parametrize("k", [99_999, 100_000])
def test_octant_at_perfect_squares(k):
    lo, hi = k * k - 1, k * k + 2
    expected = [
        p for n in range(lo, hi) for p in points_of_norm(n) if 0 <= p[0] <= p[1]
    ]
    _assert_octant(lo, hi, expected)


def test_octant_names_its_bound():
    with pytest.raises(ValueError, match=r"2\^52"):
        _octant(0, 2**52 + 1)


def test_annulus_points_boundary_membership():
    pts = annulus_points(25.0, 3.0)
    assert pts.dtype == np.int64 and pts.shape[1] == 2
    norms = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert sorted(set(norms.tolist())) == [25, 26]  # 23, 24, 27, 28 have no representations
    assert np.all((22.0 <= norms) & (norms <= 28.0))
    assert pts.tolist() == sorted(pts.tolist())


def test_annulus_points_requires_positive_width_margin():
    with pytest.raises(ValueError):
        annulus_points(3.0, 5.0)


@pytest.mark.parametrize(
    "lam, k, named",
    [
        (math.inf, 1.0, "finite"),
        (25.0, math.nan, "finite"),
        (5.0, 10.0, "lam > k >= 0"),
        (25.0, -1.0, "lam > k >= 0"),
        (2.0**52 - 1.0, 1.0, r"lam \+ k < 2\^52"),
    ],
)
def test_annulus_points_names_the_failed_bound(lam, k, named):
    with pytest.raises(ValueError, match=named):
        annulus_points(lam, k)


def test_annulus_family_keeps_the_scan_below_the_enumerator_bound(monkeypatch):
    with pytest.raises(ValueError, match=r"2\^52"):
        AnnulusFamily(1.0e16, 0.15)
    with pytest.raises(ValueError, match=r"2\^52"):
        AnnulusFamily(math.inf, 0.15)
    fam = AnnulusFamily(4.0e15, 0.15)
    assert math.ceil(fam.bin_edge(fam.J + 1)) + 128 < 2**52
    # the check reads the scan's own margin
    monkeypatch.setattr(lattice, "_SCAN_MARGIN", 2**52)
    with pytest.raises(ValueError, match=r"2\^52"):
        AnnulusFamily(1.0e4, 0.15)


def test_min_pairwise_distance_small_cases():
    assert min_pairwise_distance([]) is None
    assert min_pairwise_distance(np.empty((0, 2), np.int64)) is None
    assert min_pairwise_distance([(0, 1)]) is None
    assert min_pairwise_distance(np.array([[0, 1]])) is None
    pts = [(0, 1), (3, 5), (4, 5)]
    assert min_pairwise_distance(pts) == 1.0
    assert min_pairwise_distance(np.array(pts)) == 1.0


@pytest.mark.parametrize("lam, k", [(50.0, 10.0), (400.0, 30.0), (10004.0, 3.0)])
def test_min_pairwise_distance_matches_brute_force(lam, k):
    pts = annulus_points(lam, k)
    rows = pts.tolist()
    want = min(
        math.hypot(p[0] - q[0], p[1] - q[1])
        for i, p in enumerate(rows)
        for q in rows[i + 1 :]
    )
    assert min_pairwise_distance(rows) == want
    assert min_pairwise_distance(pts) == want


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


@pytest.mark.parametrize("window", [None, 7, 64])
@pytest.mark.parametrize("mu, s", [(2.0e4, 0.15), (3.0e3, 0.1), (2.5e4, 0.1)])
def test_strip_statistics_weighs_axis_and_diagonal_orbits(monkeypatch, mu, s, window):
    fam = AnnulusFamily(mu, s)
    lo, top = math.floor(mu) + 1, math.floor(fam.bin_edge(fam.J + 1))
    r = math.isqrt(top)
    # the range holds (0, b) and (a, a), whose orbits have 4 points, not 8
    assert any(lo <= b * b for b in range(r + 1))
    assert any(lo <= 2 * a * a <= top for a in range(r + 1))
    if window is not None:
        monkeypatch.setattr(lattice, "_WINDOW", window)
    assert strip_statistics(mu, s) == StripStats(mu, s, *oracle_strip_hits(mu, s))


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
    dirs = _points_with_norm_range(1, math.floor(mu**s)).tolist()
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
    n = ann.points[:, 0] ** 2 + ann.points[:, 1] ** 2
    assert np.all((ann.lam - ann.half_width <= n) & (n <= ann.lam + ann.half_width))


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
    pts = ann.points.tolist()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
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
    assert [tuple(p) for p in ann.points.tolist()] == pts
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


@pytest.mark.parametrize("mu", [1.0e4, 1.0e8])
def test_sparse_annulus_returns_python_ints(mu):
    # bundles and strict-JSON reports need Python ints, not numpy scalars;
    # the point sets are (n, 2) int64 arrays, the annulus's read-only
    ann = find_sparse_annulus(mu, 0.15)
    assert (type(ann.m0), type(ann.lambda_N), type(ann.lambda_next)) == (int, int, int)
    for pts in (ann.points, annulus_points(ann.lambda_N, ann.half_width)):
        assert pts.dtype == np.int64 and pts.ndim == 2 and pts.shape[1] == 2
        assert len(pts) > 0
    assert not ann.points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ann.points[0, 0] = 0


def test_sparse_annulus_names_the_margin_when_the_window_is_empty(monkeypatch):
    monkeypatch.setattr(
        lattice, "_points_with_norm_range", lambda lo, hi: np.empty((0, 2), np.int64)
    )
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
