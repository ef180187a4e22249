"""Lattice points of Z^2: sums of two squares, gap records, sparse annuli.

The eigenvalues of the minus-Laplacian on the 2pi-periodic square torus are
exactly the integers representable as j1^2 + j2^2, so everything here is
integer arithmetic.  Floating point enters only through annulus bounds;
the integer |j|^2 range inside a bound is read off its ceil/floor, which is
exact in Python (math.ceil and math.floor of a double do not round).  The
bounds themselves are doubles, so membership at a boundary follows strict
double semantics; the CLI warns when a requested bound sits within 1e-9 of an
integer.

One enumerator, _octant_walk, lists the points 0 <= a <= b of
lo <= a^2 + b^2 < hi, one per orbit of the square's symmetry group, window
by window of consecutive norms; _octant is its one-window case.  Row a keeps
its next b and norm for the whole walk; a window takes the rows whose next
norm is below its top, ends their segments at an exact integer square root,
expands them with np.repeat and moves the rows on.

* _points_with_norm_range adds each octant point's orbit and sorts, giving
  every point of n_min <= |j|^2 <= n_max as an (n, 2) int64 array in
  lexicographic order: the one form a lattice point set takes.
* The gap records and the strip count walk in windows of _WINDOW = 2^15
  norms, so their memory follows the window and not the limit or mu.  A
  window holds about pi 2^15 / 8 points, so each of its arrays is about
  100 KB, below glibc's 128 KiB mmap threshold: malloc reuses freed heap
  instead of mapping pages to fault in anew.  The gap records mark each
  window in one mask and carry the last representable and the largest gap
  across window edges; the strip count weights each octant point's hit by
  its orbit size.

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

# the norms per window of the gap records' and the strip count's walk
_WINDOW = 2**15

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
    """Boolean mask over 0..limit marking sums of two squares, in O(limit)
    marks; the tests' oracle for the walk's marks."""
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
    the jump from 2 to 4, and the records strictly increase.  Raises
    ValueError unless 0 <= limit < 2^52 (_NORM_BOUND).
    """
    if not 0 <= limit < _NORM_BOUND:
        raise ValueError(f"limit must lie in [0, 2^52), got {limit}")
    records: list[GapRecord] = []
    prev, best = 1, 1  # 1 = 0^2 + 1^2 is the first representable
    mask = np.zeros(_WINDOW, dtype=bool)
    for w, a, b in _octant_walk(2, limit + 1, len(mask)):
        # in place: no other array is as long as the window's points
        a *= a
        b *= b
        b += a
        b -= w
        mask[b] = True
        reps = np.flatnonzero(mask)
        mask.fill(False)
        if not reps.size:
            continue
        reps += w
        gaps = np.diff(reps, prepend=prev)
        at = np.flatnonzero(gaps > best)
        for up, g in zip(reps[at].tolist(), gaps[at].tolist()):
            if g > best:
                records.append(GapRecord(up - g, up, g))
                best = g
        prev = int(reps[-1])
    return records


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
    """The points 0 <= a <= b with lo <= a^2 + b^2 < hi: int64 arrays a and b,
    lexicographic, one per orbit of the square's symmetry group."""
    for _, a, b in _octant_walk(lo, hi, hi - lo):
        return a, b
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _octant_walk(lo: int, hi: int, width: int | None = None):
    """Yield (w, a, b), a and b the points of _octant(w, min(w + width, hi)),
    for w = lo, lo + width, ... (width defaults to _WINDOW).

    Raises ValueError when hi > 2^52 (_NORM_BOUND).
    """
    if hi > _NORM_BOUND:
        raise ValueError(f"norms must stay below 2^52, got a range up to {hi - 1}")
    lo = max(lo, 0)
    if hi <= lo:
        return
    a = np.arange(math.isqrt((hi - 1) // 2) + 1, dtype=np.int64)
    norm = a * a
    n = np.maximum(lo - norm, 0)
    b_next = _isqrt(n)
    b_next += b_next * b_next < n  # rounded up: the smallest b >= 0 with b^2 >= n
    np.maximum(b_next, a, out=b_next)
    del a, n
    norm += b_next * b_next  # each row's next norm
    width = width or _WINDOW
    for w in range(lo, hi, width):
        top = min(w + width, hi)
        a = np.flatnonzero(norm < top)  # the live rows, row index = a
        # consecutive rows, as below norm 2^28, index faster as a slice
        rows = slice(a[0], a[-1] + 1) if a.size and a[-1] - a[0] < a.size else a
        b_lo = b_next[rows]
        a2 = a * a
        b_end = _isqrt(top - 1 - a2)
        b_end += 1  # the segments are b_lo <= b < b_end
        counts = b_end - b_lo
        ends = np.cumsum(counts)  # row ends in the output
        b_lo = b_lo - ends + counts  # not in place: b_lo may view b_next
        b_next[rows] = b_end
        b_end *= b_end
        b_end += a2
        norm[rows] = b_end
        b = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
        b += np.repeat(b_lo, counts)
        yield w, np.repeat(a, counts), b


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
    a range holding all three sets, lambda_N and lambda_next, so the cost
    follows the bins visited.  Raises ValueError when
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
    satisfy 0 < |j| <= mu^{s/2}.  The walk over the scan range
    mu < |x|^2 <= mu + (J+1) kappa gives the octant points 0 <= x1 <= x2,
    whose membership is tested directly.  The admissible
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
    width = math.ceil(mu**s) - 1  # an integer |x . j| < mu^s is <= width
    # the integers n with mu < n <= mu + (J+1) kappa are exactly lo <= n < hi
    lo, hi = math.floor(mu) + 1, math.floor(fam.bin_edge(fam.J + 1)) + 1
    hits = 0
    for _, x1, x2 in _octant_walk(lo, hi):
        # one direction at a time, into one buffer: a points x directions
        # matrix is megabytes even per window
        hit = np.zeros(len(x1), dtype=bool)
        dot = np.empty(len(x1), dtype=np.int64)
        for a, b in directions:
            np.multiply(x1, a, out=dot)
            dot += b * x2
            hit |= np.abs(dot, out=dot) <= width
        orbit4 = hit & ((x1 == 0) | (x1 == x2))
        hits += 8 * int(np.count_nonzero(hit)) - 4 * int(np.count_nonzero(orbit4))
    return StripStats(mu=mu, s=s, strip_count=len(js), lattice_hits=hits)
