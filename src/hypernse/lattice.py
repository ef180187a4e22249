"""Lattice points of Z^2: sums of two squares, gap records, sparse annuli.

The eigenvalues of the minus-Laplacian on the 2pi-periodic square torus are
exactly the integers representable as j1^2 + j2^2, so everything here is
integer arithmetic.  Floating point enters only through annulus bounds;
the integer |j|^2 range inside a bound is read off its ceil/floor, which is
exact in Python (math.ceil and math.floor of a double do not round).  The
bounds themselves are doubles, so membership at a boundary follows strict
double semantics; the CLI warns when a requested bound sits within 1e-9 of an
integer.

One enumerator, _points_with_norm_range, lists the lattice points of any
window n_min <= |j|^2 <= n_max in O(sqrt(n_max)) row steps plus the points
listed.  The sparse-annulus scan and the annulus and strip counts read their
windows from it; only the gap records, which need every integer up to a
limit, use the full-range sieve.

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
from typing import NamedTuple

import numpy as np


class LatticePoint(NamedTuple):
    j1: int
    j2: int


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
    mu + m*kappa < |x|^2 <= mu + (m+1)*kappa.
    """

    mu: float
    s: float

    def __post_init__(self) -> None:
        if not self.mu >= 2.0:
            raise ValueError(f"mu must be >= 2, got {self.mu}")
        if not 0.0 < self.s < 1.0 / 6.0:
            raise ValueError(f"s must lie in (0, 1/6), got {self.s}")

    @property
    def kappa(self) -> float:
        return self.mu**self.s

    @property
    def J(self) -> int:
        return math.floor(math.sqrt(self.mu))

    def bin_edge(self, m: int) -> float:
        return self.mu + m * self.kappa


@dataclass(frozen=True)
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
    distances (inf when fewer than two points).
    """

    mu: float
    s: float
    m0: int
    lam: float
    half_width: float
    separation_threshold: float
    certified_threshold: float
    min_separation: float
    points: tuple[LatticePoint, ...]
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

    Marks a^2 + b^2 for all admissible pairs; O(limit) marks total.
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
    construction.
    """
    mask = representable_sieve(limit)
    reps = np.flatnonzero(mask[1:]) + 1
    if reps.size < 2:
        return []
    gaps = np.diff(reps)
    records: list[GapRecord] = []
    best = 1
    for lo, g in zip(reps[:-1].tolist(), gaps.tolist()):
        if g > best:
            records.append(GapRecord(lo, lo + g, g))
            best = g
    return records


def _ceil_sqrt(n: int) -> int:
    """Smallest integer b with b^2 >= n (n >= 0)."""
    if n <= 0:
        return 0
    return 1 + math.isqrt(n - 1)


def _points_with_norm_range(n_min: int, n_max: int) -> list[LatticePoint]:
    """All j != 0 with n_min <= |j|^2 <= n_max, lexicographic order."""
    if n_max < 1 or n_max < n_min:
        return []
    n_min = max(n_min, 1)
    pts: list[LatticePoint] = []
    R = math.isqrt(n_max)
    for j1 in range(-R, R + 1):
        hi2 = n_max - j1 * j1
        if hi2 < 0:
            continue
        lo2 = n_min - j1 * j1
        b_hi = math.isqrt(hi2)
        b_lo = _ceil_sqrt(lo2)
        if b_lo == 0:
            for j2 in range(-b_hi, b_hi + 1):
                if j1 == 0 and j2 == 0:
                    continue
                pts.append(LatticePoint(j1, j2))
        else:
            for j2 in range(-b_hi, -b_lo + 1):
                pts.append(LatticePoint(j1, j2))
            for j2 in range(b_lo, b_hi + 1):
                pts.append(LatticePoint(j1, j2))
    return pts


def annulus_points(lam: float, k: float) -> list[LatticePoint]:
    """All lattice points j != 0 with lam - k <= |j|^2 <= lam + k, lexicographic.

    Bounds are doubles; integer |j|^2 membership is decided by exact
    int-vs-float comparison on ceil/floor of the bounds.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not lam > k:
        raise ValueError(f"need lam > k >= 0, got lam={lam}, k={k}")
    lo = lam - k
    hi = lam + k
    return _points_with_norm_range(math.ceil(lo), math.floor(hi))


def min_pairwise_distance(points) -> float | None:
    """Smallest Euclidean distance between distinct points, None if fewer than two.

    Brute force over all pairs in integer arithmetic; the sparse-annulus scan
    certifies its annuli and projector windows with it.
    """
    d2 = _min_squared_distance(list(points))
    return None if d2 is None else math.sqrt(d2)


def _min_squared_distance(pts: list[LatticePoint]) -> int | None:
    """Minimum squared pairwise distance, exact; None if fewer than two points."""
    n = len(pts)
    if n < 2:
        return None
    best: int | None = None
    for i in range(n):
        x1, y1 = pts[i]
        for jj in range(i + 1, n):
            dx = x1 - pts[jj][0]
            dy = y1 - pts[jj][1]
            d2 = dx * dx + dy * dy
            if best is None or d2 < best:
                best = d2
    return best


def _within(
    pts: list[LatticePoint], norms: list[int], n_min: int, n_max: int
) -> list[LatticePoint]:
    """The points of pts whose norm n (norms[i] for pts[i]) has n_min <= n <= n_max."""
    return [p for p, n in zip(pts, norms) if n_min <= n <= n_max]


def _separation(pts: list[LatticePoint]) -> float:
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
    # gaps between sums of two squares stay far below this margin at any
    # feasible scale (the largest below 1e7 is 50)
    margin = 128

    for m in range(fam.J + 1):
        lam = mu + (m + 0.5) * kappa
        thr = max(thr_mu, lam ** (s / 2.0))
        n_low = math.floor(lam) - margin  # the smallest lambda_N looked for
        pts = _points_with_norm_range(
            math.ceil(n_low - half), math.ceil(lam + half) + margin
        )
        norms = [p.j1 * p.j1 + p.j2 * p.j2 for p in pts]

        # the integers n with edge(m) < n <= edge(m+1)
        open_pts = _within(
            pts, norms, math.floor(fam.bin_edge(m)) + 1, math.floor(fam.bin_edge(m + 1))
        )
        if not _separation(open_pts) > thr:
            continue
        closed_pts = _within(pts, norms, math.ceil(lam - half), math.floor(lam + half))
        sep = _separation(closed_pts)
        if not sep > thr:
            continue
        eigs = sorted({n for n in norms if n >= n_low})
        i = bisect.bisect_right(eigs, lam)  # eigs[:i] <= lam < eigs[i:]
        if i == 0 or i == len(eigs):
            side = "at or below" if i == 0 else "above"
            raise ValueError(
                f"no eigenvalue {side} lambda = {lam} within the margin {margin}"
            )
        lam_N = eigs[i - 1]
        window = _within(pts, norms, math.ceil(lam_N - half), math.floor(lam_N + half))
        win_sep = _separation(window)
        if not win_sep > thr:
            continue
        return SparseAnnulus(
            mu=mu,
            s=s,
            m0=m,
            lam=lam,
            half_width=half,
            separation_threshold=thr_mu,
            certified_threshold=thr,
            min_separation=sep,
            points=tuple(closed_pts),
            lambda_N=lam_N,
            lambda_next=eigs[i],
            window_min_separation=win_sep,
        )
    return None


def strip_directions(mu: float, s: float) -> list[LatticePoint]:
    """All j != 0 with |j| <= mu^{s/2}, i.e. |j|^2 <= mu^s, lexicographic."""
    return _points_with_norm_range(1, math.floor(mu**s))


def strip_statistics(mu: float, s: float) -> StripStats:
    """Count annulus-family lattice points inside the union of admissible strips.

    The strip for direction j is {x : |x . j| < mu^s}; admissible directions
    satisfy 0 < |j| <= mu^{s/2}.  Membership is tested directly for every
    lattice point of the scan range mu < |x|^2 <= mu + (J+1) kappa.
    """
    fam = AnnulusFamily(mu, s)
    js = strip_directions(mu, s)
    top = fam.bin_edge(fam.J + 1)
    # integers n with mu < n <= top are exactly floor(mu) + 1 .. floor(top)
    pts = _points_with_norm_range(math.floor(mu) + 1, math.floor(top))
    if not js or not pts:
        return StripStats(mu=mu, s=s, strip_count=len(js), lattice_hits=0)
    P = np.array(pts, dtype=np.int64)
    Jm = np.array(js, dtype=np.int64)
    width = mu**s
    # one direction at a time: a points x directions matrix is hundreds of MB
    hit = np.zeros(len(pts), dtype=bool)
    for j in Jm:
        hit |= np.abs(P @ j) < width
    hits = int(np.count_nonzero(hit))
    return StripStats(mu=mu, s=s, strip_count=len(js), lattice_hits=hits)
