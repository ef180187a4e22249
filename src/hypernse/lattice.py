"""Lattice points of Z^2: sums of two squares, gap records, sparse annuli.

The eigenvalues of the minus-Laplacian on the 2pi-periodic square torus are
exactly the integers representable as j1^2 + j2^2, so everything here is
integer arithmetic.  Floating point enters only through annulus bounds;
the integer |j|^2 range inside a bound is read off its ceil/floor, which is
exact in Python (math.ceil and math.floor of a double do not round).  The
bounds themselves are doubles, so membership at a boundary follows strict
double semantics; the CLI warns when a requested bound sits within 1e-9 of an
integer.

One enumerator, _octant, lists the points 0 <= a <= b of lo <= a^2 + b^2 < hi:
one per orbit of the square's symmetry group, the signed permutations of
(a, b).  Its rows' segment bounds come from an integer square root (a
float64 root corrected by one int64 step, exact below 2^52), and np.repeat
expands the segments without a per-point Python object.

* _points_with_norm_range adds each octant point's orbit and sorts, giving
  every point of n_min <= |j|^2 <= n_max as an (n, 2) int64 array in
  lexicographic order: the one form a lattice point set takes (annulus_points
  returns it, the sparse-annulus scan masks it, SparseAnnulus.points keeps
  the certified annulus read-only).
* The gap records and the strip count walk their range with _octant in
  windows of _WINDOW consecutive norms, so their memory is set by the window
  and not by the limit or mu.  The gap records mark each window's sums in a
  window-sized mask and carry the last representable and the largest gap
  across window edges.  The strip count weights each hit by its orbit size,
  4 on the axes and diagonals and 8 elsewhere, exact because the admissible
  directions, the scan range and |x . j| are invariant under the group.

The full-range sieve representable_sieve is kept as the tests' oracle; no
computation here uses it.

The sparse-annulus scan is the one place that certifies sparsity.  With the
annulus it certifies the projector window around lambda_N, the largest
eigenvalue below the annulus centre, which is the band the cutoff operators
act on; a bin whose window fails is passed over like a bin whose annulus
fails.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# the enumerator's bound on |j|^2: below it every norm, and every dot product
# of a point with a strip direction, is exact in float64 as well as in int64
_NORM_BOUND = 2**52

# the number of consecutive norms the gap records and the strip count take
# from _octant at once; their memory follows it and not the range they walk
_WINDOW = 2**18

# how far past its annulus the sparse-annulus scan enumerates, to find lambda_N
# and lambda_next; gaps between sums of two squares stay far below it at any
# feasible scale (the largest below 1e7 is 50)
_SCAN_MARGIN = 128


@dataclass(frozen=True)
class GapRecord:
    """A record-setting gap between consecutive sums of two squares.

    No integer strictly between lower and upper is a sum of two squares.
    """

    lower: int
    upper: int
    gap: int


@dataclass(frozen=True)
class AnnulusFamily:
    """The scan family for a base radius-squared mu: J+1 annuli of width kappa.

    kappa = mu^s, J = floor(mu^{1/2}); annulus m covers
    mu + m*kappa < |x|^2 <= mu + (m+1)*kappa.  The family must end, with the
    scan's margin above it, below the enumerator's bound 2^52.
    """

    mu: float
    s: float

    def __post_init__(self) -> None:
        if not self.mu >= 2.0:
            raise ValueError(f"mu must be >= 2, got {self.mu}")
        if not 0.0 < self.s < 1.0 / 6.0:
            raise ValueError(f"s must lie in (0, 1/6), got {self.s}")
        if not (
            math.isfinite(self.mu)
            and math.ceil(self.bin_edge(self.J + 1)) + _SCAN_MARGIN < _NORM_BOUND
        ):
            raise ValueError(
                f"mu = {self.mu} puts the scan range mu + (J+1) kappa + "
                f"{_SCAN_MARGIN} past the enumerator bound 2^52"
            )

    @property
    def kappa(self) -> float:
        return self.mu**self.s

    @property
    def J(self) -> int:
        return math.floor(math.sqrt(self.mu))

    def bin_edge(self, m: int) -> float:
        return self.mu + m * self.kappa


@dataclass(frozen=True, eq=False)
class SparseAnnulus:
    """A certified annulus and the certified projector window beside it.

    The annulus is the closed set lambda - half_width <= |x|^2 <= lambda + half_width
    with lambda = mu + (m0 + 1/2) kappa and half_width = kappa / 2.  lambda_N is
    the largest eigenvalue <= lambda and lambda_next the next one; the window
    lambda_N - half_width <= |x|^2 <= lambda_N + half_width is the band the
    cutoff operators act on.  Annulus and window are both certified against
    certified_threshold = max(mu^{s/2}, lambda^{s/2}), which equals
    max(lambda^{s/2}, lambda_N^{s/2}) since mu <= lambda and lambda_N <= lambda;
    separation_threshold keeps the mu-based value for reference.
    min_separation and window_min_separation are the achieved minimum pairwise
    distances (inf when fewer than two points).  points is the closed annulus
    as a read-only (n, 2) int64 array in lexicographic order; an array field
    has no truth value, so instances compare by identity (eq=False).
    """

    mu: float
    s: float
    m0: int
    lam: float
    half_width: float
    separation_threshold: float
    certified_threshold: float
    min_separation: float
    points: np.ndarray
    lambda_N: int
    lambda_next: int
    window_min_separation: float

    @property
    def width_ratio(self) -> float:
        """Achieved half_width / lambda^s (the lemma's constant, reported not asserted)."""
        return self.half_width / self.lam**self.s


@dataclass(frozen=True)
class StripStats:
    """Cardinality of the strip union intersected with the annulus family."""

    mu: float
    s: float
    strip_count: int
    lattice_hits: int


def is_representable(n: int) -> bool:
    """True iff n = a^2 + b^2 for some integers a, b.

    Exhaustive over a <= sqrt(n); this is the per-integer oracle against which
    the sieve is checked.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = 0
    while a * a <= n:
        r = n - a * a
        b = math.isqrt(r)
        if b * b == r:
            return True
        a += 1
    return False


def representable_sieve(limit: int) -> np.ndarray:
    """Boolean mask over 0..limit marking sums of two squares.

    Marks a^2 + b^2 for all admissible pairs; O(limit) marks total.  The tests
    check the windowed marks of record_gaps against it.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    mask = np.zeros(limit + 1, dtype=bool)
    for a in range(math.isqrt(limit) + 1):
        n0 = a * a
        bmax = math.isqrt(limit - n0)
        b = np.arange(0, bmax + 1, dtype=np.int64)
        mask[n0 + b * b] = True
    return mask


def record_gaps(limit: int) -> list[GapRecord]:
    """Record-setting gaps between consecutive sums of two squares in [1, limit].

    A record must be strictly larger than every earlier gap; unit steps
    (adjacent representable integers) never open a gap, so the first record is
    the jump from 2 to 4.  The record sequence is strictly increasing by
    construction.  The integers are marked one window of _WINDOW at a time;
    the last representable and the largest gap so far carry across window
    edges.  Raises ValueError unless 0 <= limit < 2^52 (_NORM_BOUND).
    """
    if not 0 <= limit < _NORM_BOUND:
        raise ValueError(f"limit must lie in [0, 2^52), got {limit}")
    records: list[GapRecord] = []
    prev, best = 1, 1  # 1 = 0^2 + 1^2 is the first representable
    for lo in range(2, limit + 1, _WINDOW):
        reps = lo + np.flatnonzero(_marks(lo, min(lo + _WINDOW, limit + 1)))
        if not reps.size:
            continue
        gaps = np.diff(reps, prepend=prev)
        # gap i is a record when it beats best and every gap before it
        at = np.flatnonzero(gaps > np.maximum.accumulate(np.r_[best, gaps[:-1]]))
        records += [
            GapRecord(up - g, up, g)
            for up, g in zip(reps[at].tolist(), gaps[at].tolist())
        ]
        prev, best = int(reps[-1]), max(best, int(gaps.max()))
    return records


def _marks(lo: int, hi: int) -> np.ndarray:
    """Boolean mask over lo..hi - 1 marking sums of two squares, 0 <= lo < hi <= 2^52."""
    a, b = _octant(lo, hi)
    # in place, so a and b are the only arrays as long as the point list
    a *= a
    b *= b
    b += a
    b -= lo
    mask = np.zeros(hi - lo, dtype=bool)
    mask[b] = True
    return mask


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(n)) of an int64 array, exact for 0 <= n < 2^62.

    np.sqrt is correctly rounded and monotone, so the truncated float64 root
    is never below isqrt(n) and at most one above it (one above happens from
    n = 2^52 + 2^27, the float root of (2^26 + 1)^2 - 1); one int64 step down
    makes it exact, and r^2 <= 2^62 cannot overflow.
    """
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    return r


def _points_with_norm_range(n_min: int, n_max: int) -> np.ndarray:
    """All j != 0 with n_min <= |j|^2 <= n_max: an (n, 2) int64 array, lexicographic.

    The octant points, n_min raised to 1 (never j = 0), reflected in the
    diagonal and then in each axis; each reflection adds only the images off
    its mirror, so every point comes once.  Raises ValueError when n_max >= 2^52.
    """
    x, y = _octant(max(n_min, 1), n_max + 1)
    for mirror in (lambda x, y: (y, x), lambda x, y: (-x, y), lambda x, y: (x, -y)):
        rx, ry = mirror(x, y)
        off = (rx != x) | (ry != y)
        x, y = np.concatenate((x, rx[off])), np.concatenate((y, ry[off]))
    # |y| < 2^26, so x 2^27 + y sorts as (x, y) and rounds to x 2^27; sorted,
    # not np.lexsort: numpy's first sort in a process faults in 128 KiB of code
    key = np.array(sorted((x * 2**27 + y).tolist()), dtype=np.int64)
    x = (key + 2**26) >> 27
    return np.stack((x, key - x * 2**27), axis=1)


def _octant(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The points 0 <= a <= b with lo <= a^2 + b^2 < hi: int64 arrays a and b.

    Lexicographic, one point per orbit of the square's symmetry group.  Row
    a, 2 a^2 < hi, holds the segment max(a, b_lo) <= b <= isqrt(hi - 1 - a^2),
    b_lo the smallest b >= 0 with b^2 >= lo - a^2.  Raises ValueError when
    hi > 2^52 (_NORM_BOUND).
    """
    if hi > _NORM_BOUND:
        raise ValueError(f"norms must stay below 2^52, got a range up to {hi - 1}")
    if hi <= max(lo, 0):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    a = np.arange(math.isqrt((hi - 1) // 2) + 1, dtype=np.int64)
    b_hi = _isqrt(hi - 1 - a * a)
    n = np.maximum(lo - a * a, 0)
    b_lo = _isqrt(n)
    b_lo += b_lo * b_lo < n  # rounded up: the smallest b >= 0 with b^2 >= n
    counts = b_hi - np.maximum(b_lo, a, out=b_lo) + 1
    live = np.flatnonzero(counts > 0)
    a, b_lo, counts = a[live], b_lo[live], counts[live]
    first = np.cumsum(counts) - counts  # each row's offset in the output
    b = np.arange(int(counts.sum()), dtype=np.int64)
    b += np.repeat(b_lo - first, counts)
    return np.repeat(a, counts), b


def annulus_points(lam: float, k: float) -> np.ndarray:
    """All lattice points j != 0 with lam - k <= |j|^2 <= lam + k, lexicographic.

    An (n, 2) int64 array.  Bounds are doubles; integer |j|^2 membership is
    decided by exact int-vs-float comparison on ceil/floor of the bounds.
    """
    if not (math.isfinite(lam) and math.isfinite(k)):
        raise ValueError(f"lam and k must be finite, got lam={lam}, k={k}")
    if not lam > k >= 0:
        raise ValueError(f"need lam > k >= 0, got lam={lam}, k={k}")
    if not lam + k < _NORM_BOUND:
        raise ValueError(f"need lam + k < 2^52, got lam={lam}, k={k}")
    return _points_with_norm_range(math.ceil(lam - k), math.floor(lam + k))


def min_pairwise_distance(points) -> float | None:
    """Smallest Euclidean distance between distinct points, None if fewer than two.

    points is any (n, 2) array-like of integers below 2^26 in magnitude, as
    every enumerated point is.  Brute force over all pairs in integer
    arithmetic; the sparse-annulus scan certifies its annuli and projector
    windows with it.
    """
    d2 = _min_squared_distance(np.asarray(points, dtype=np.int64).reshape(-1, 2))
    return None if d2 is None else math.sqrt(d2)


def _min_squared_distance(pts: np.ndarray) -> int | None:
    """Minimum squared pairwise distance of an (n, 2) int64 array, None below
    two points: each row against the rows after it, in O(n) memory (an n x n
    difference array is gigabytes at n = 20 000), exact in int64 for
    coordinates below 2^26."""
    x, y = pts.T.copy()  # contiguous columns: the loop runs about 8x faster
    best: int | None = None
    for i in range(len(x) - 1):
        dx = x[i + 1 :] - x[i]
        dy = y[i + 1 :] - y[i]
        d2 = int((dx * dx + dy * dy).min())
        if best is None or d2 < best:
            best = d2
    return best


def _separation(pts: np.ndarray) -> float:
    """min_pairwise_distance, inf below two points."""
    sep = min_pairwise_distance(pts)
    return math.inf if sep is None else sep


def find_sparse_annulus(mu: float, s: float) -> SparseAnnulus | None:
    """Scan the annulus family for the first bin whose annulus and window are sparse.

    Bin m has centre lambda = mu + (m + 1/2) kappa.  It is accepted when no two
    distinct lattice points lie within certified_threshold =
    max(mu^{s/2}, lambda^{s/2}) of each other in any of, checked in order:

    * the half-open bin mu + m kappa < |x|^2 <= mu + (m+1) kappa, a pre-filter;
    * the closed annulus [lambda - kappa/2, lambda + kappa/2], which is returned
      (a closed boundary point can defeat a half-open candidate);
    * the window [lambda_N - kappa/2, lambda_N + kappa/2], lambda_N the largest
      eigenvalue <= lambda: the band the cutoff operators act on.

    A bin that fails any check moves the scan on; returns None when every bin
    fails.  Each bin visited is enumerated once, in O(sqrt(mu)) row steps, over
    a range holding all three sets, lambda_N and lambda_next; the cost follows
    the bins visited and never the whole J-bin range.  Raises ValueError when
    no eigenvalue lies within the margin below or above lambda.
    """
    fam = AnnulusFamily(mu, s)
    kappa = fam.kappa
    half = 0.5 * kappa
    thr_mu = mu ** (s / 2.0)

    for m in range(fam.J + 1):
        lam = mu + (m + 0.5) * kappa
        thr = max(thr_mu, lam ** (s / 2.0))
        n_low = math.floor(lam) - _SCAN_MARGIN  # the smallest lambda_N looked for
        pts = _points_with_norm_range(
            math.ceil(n_low - half), math.ceil(lam + half) + _SCAN_MARGIN
        )
        norms = pts[:, 0] ** 2 + pts[:, 1] ** 2

        def within(n_min: int, n_max: int) -> np.ndarray:
            return pts[(norms >= n_min) & (norms <= n_max)]

        # the integers n with edge(m) < n <= edge(m+1)
        open_pts = within(
            math.floor(fam.bin_edge(m)) + 1, math.floor(fam.bin_edge(m + 1))
        )
        if not _separation(open_pts) > thr:
            continue
        closed_pts = within(math.ceil(lam - half), math.floor(lam + half))
        sep = _separation(closed_pts)
        if not sep > thr:
            continue
        # not np.unique: its first call imports numpy.ma (20 ms, 1.2 MiB)
        eigs = sorted(set(norms[norms >= n_low].tolist()))
        i = bisect.bisect_right(eigs, lam)  # eigs[:i] <= lam < eigs[i:]
        if i == 0 or i == len(eigs):
            side = "at or below" if i == 0 else "above"
            raise ValueError(
                f"no eigenvalue {side} lambda = {lam} within the margin {_SCAN_MARGIN}"
            )
        lam_N = eigs[i - 1]
        window = within(math.ceil(lam_N - half), math.floor(lam_N + half))
        win_sep = _separation(window)
        if not win_sep > thr:
            continue
        closed_pts.setflags(write=False)
        return SparseAnnulus(
            mu=mu,
            s=s,
            m0=m,
            lam=lam,
            half_width=half,
            separation_threshold=thr_mu,
            certified_threshold=thr,
            min_separation=sep,
            points=closed_pts,
            lambda_N=lam_N,
            lambda_next=eigs[i],
            window_min_separation=win_sep,
        )
    return None


def strip_statistics(mu: float, s: float) -> StripStats:
    """Count annulus-family lattice points inside the union of admissible strips.

    The strip for direction j is {x : |x . j| < mu^s}; admissible directions
    satisfy 0 < |j| <= mu^{s/2}.  The scan range mu < |x|^2 <= mu + (J+1) kappa
    is walked in windows of _WINDOW norms, and membership is tested directly
    for the octant points 0 <= x1 <= x2 of each window.  The admissible
    directions, the scan range and |x . j| are invariant under the signed
    permutations of coordinates, so a hit stands for its whole orbit: 4 points
    for (0, b) and (a, a), 8 otherwise.  Since |x . (-j)| = |x . j|, only one
    direction of each pair +-j is tested (the set is symmetric and listed
    lexicographically, so its second half is the j > 0 of each pair);
    strip_count still counts every direction.
    """
    fam = AnnulusFamily(mu, s)
    js = _points_with_norm_range(1, math.floor(mu**s))
    directions = js[len(js) // 2 :]
    width = mu**s
    # the integers n with mu < n <= mu + (J+1) kappa are exactly lo <= n < hi
    lo, hi = math.floor(mu) + 1, math.floor(fam.bin_edge(fam.J + 1)) + 1
    hits = 0
    for w in range(lo, hi, _WINDOW):
        x1, x2 = _octant(w, min(w + _WINDOW, hi))
        # one direction at a time, into one buffer: a points x directions
        # matrix is hundreds of MB
        hit = np.zeros(len(x1), dtype=bool)
        dot = np.empty(len(x1), dtype=np.int64)
        for a, b in directions:
            np.multiply(x1, a, out=dot)
            dot += b * x2
            hit |= np.abs(dot, out=dot) < width
        orbit4 = hit & ((x1 == 0) | (x1 == x2))
        hits += 8 * int(np.count_nonzero(hit)) - 4 * int(np.count_nonzero(orbit4))
    return StripStats(mu=mu, s=s, strip_count=len(js), lattice_hits=hits)
