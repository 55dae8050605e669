"""Discretized-set combinatorics on dyadic grids.

A set at level m is a collection of dyadic cells of side 2**-m on the line,
stored as integer cell indices (cell i covers [i*2**-m, (i+1)*2**-m)).  This
module provides covering numbers, non-concentration checks (relative
"frostman-type" and absolute "katz-tao"), uniform-subset extraction,
projection scans, and additive energy.

Ball convention used by every check in this module: the dyadic cell with
index c belongs to the closed ball B(x, r) iff the closed cell
[c*2**-m, (c+1)*2**-m] intersects [x-r, x+r].  The brute-force oracles in
the test-suite share the same convention, so fast paths must match them
exactly.

projection_scan returns the count |pi_y(A1 x A2)|_δ per direction, exact, as
int64; the threshold it is compared with belongs to its caller.  With A at
level L and Y at level Ly, pair (a, b) at direction cell u lands in the
δ-cell ((2a+1) << (Ly+1) - (2u+1)(2b+1)) >> (Ly+2), the floor of
(c_a - y_u c_b)/δ for cell centers c and y.  The lead term is
a 2**(Ly+2) + 2**(Ly+1), so the bin is a + c[u, b] with
c[u, b] = (2**(Ly+1) - (2u+1)(2b+1)) >> (Ly+2): each direction's bins are
the sumset of A1 and one row of c.  Whole direction rows are scanned in
batches of at most _SCAN_PAIRS pairs (one row if a row is larger), and
inputs whose extreme numerators reach 2**62 are refused with ValueError
(_MUL_PRODUCT_LIMIT, which `mul` in convolution uses too); below it every c
fits int64.  The bins are written as nonnegative offsets a - min(a) plus
c - min(c), in uint16, uint32 or int64, the narrowest type holding the
span the extremes allow, so every offset is held exactly and no modular
wrap is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DyadicGridSet",
    "covering_number",
    "set_check",
    "uniformize",
    "uniformity_audit",
    "projection_scan",
    "additive_energy",
]

# pairs per projection_scan batch (whole direction rows, at least one).  On
# project-l12's sets (1.68e7 pairs in uint16 bins, in-process
# projection_scan, medians of 11 in three alternating runs, 2-CPU x86-64 VM)
# 2**18 took 71.5-73.2 ms, 2**16, 2**17 and 2**19 72.7-75.5 ms, 2**20
# 74.8-77.2 ms, and 2**14 and 2**15 94-97 and 81-84 ms.  The CLI process's
# peak RSS was 39.3, 39.4 and 40.6 MB at 2**16, 2**18 and 2**20.
_SCAN_PAIRS = 1 << 18

# projection_scan, and convolution's mul, refuse inputs whose largest odd-center
# numerator reaches this (int64 room); GridMeasure refuses a window whose cell
# indices reach it
_MUL_PRODUCT_LIMIT = 1 << 62


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d integer array, as np.unique(x) gives
    them; plain np.unique imports numpy.ma on its first call."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True)
class DyadicGridSet:
    """Set of occupied dyadic cells of the line at one level.

    cells: 1-d int64 array of cell indices, stored sorted and distinct.
    Indices may be negative (windows below the origin are fine).
    """

    level: int
    cells: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.ndim != 1:
            raise ValueError(f"cells must be 1-d, got shape {cells.shape}")
        cells = _distinct(cells)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def spacing(self) -> float:
        return 2.0 ** -self.level

    @property
    def size(self) -> int:
        return int(self.cells.shape[0])

    def is_empty(self) -> bool:
        return self.size == 0

    def centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.spacing

    def coarsened(self, to_level: int) -> "DyadicGridSet":
        """Occupied cells at a coarser level (floor-shift of indices)."""
        if to_level > self.level:
            raise ValueError("coarsened() target must not be finer")
        shift = self.level - to_level
        return DyadicGridSet(to_level, self.cells >> shift)


def covering_number(X: DyadicGridSet, r: float) -> int:
    """Number of dyadic r-cells meeting X (the dyadic covering number).

    r must be a dyadic 2**-l with l <= X.level.  Nonincreasing in r, and
    equal to |cells| at r = 2**-level.
    """
    l = _dyadic_exponent(r)
    if l > X.level:
        raise ValueError(f"r={r} is finer than the set's grid 2**-{X.level}")
    return X.coarsened(l).size


def _dyadic_exponent(r: float) -> int:
    """The level l with r = 2**-l: the one conversion of a radius or scale
    to a grid level.  The check is relative only, so no r is dyadic for
    being small."""
    # an r outside (0, inf), or nan, takes l = 0 and fails the check
    l = int(round(-np.log2(r))) if 0.0 < r < np.inf else 0
    if not np.isclose(r, 2.0 ** -l, rtol=1e-12, atol=0.0):
        raise ValueError(f"r={r} is not a dyadic power 2**-l")
    return l


def ball_cell_count(X: DyadicGridSet, center: float, r: float) -> int:
    """|X ∩ B(center, r)| in δ-cells, closed-cell-meets-closed-ball convention.

    Shared by the fast scans and the brute-force test oracles.
    """
    h = X.spacing
    # cell c intersects [center-r, center+r]  iff  c*h <= center+r and (c+1)*h >= center-r
    lo = int(np.ceil((center - r) / h)) - 1
    hi = int(np.floor((center + r) / h))
    i0 = np.searchsorted(X.cells, lo, side="left")
    i1 = np.searchsorted(X.cells, hi, side="right")
    return int(i1 - i0)


def set_check(X: DyadicGridSet, s: float, K: float, kind: str = "frostman-type"):
    """Non-concentration audit over all dyadic r in [δ, 1] and r-cell centers.

    frostman-type: |X ∩ B(x,r)|_δ <= K * r**s * |X|_δ  (relative)
    katz-tao:      |X ∩ B(x,r)|_δ <= K * (r/δ)**s      (absolute)

    Returns (passed, witness) where witness is the first violating (x, r)
    in the scan order r = δ, 2δ, ..., 1 and x increasing, or None.
    """
    if kind not in ("frostman-type", "katz-tao"):
        raise ValueError(f"unknown kind {kind!r}")
    if X.is_empty():
        raise ValueError("set_check needs a nonempty set")
    delta = X.spacing
    total = X.size
    for l in range(X.level, -1, -1):
        r = 2.0 ** -l
        bound = K * (r ** s) * total if kind == "frostman-type" else K * (r / delta) ** s
        # only r-cells within distance r of an occupied r-cell can violate
        occ = X.coarsened(l).cells
        cand = _distinct(np.concatenate([occ - 1, occ, occ + 1]))
        for j in cand:
            x = (j + 0.5) * r
            cnt = ball_cell_count(X, x, r)
            if cnt > bound + 1e-9:
                return False, (float(x), float(r))
    return True, None


def _child_counts(child: np.ndarray, D: int):
    """(distinct cells of the nonempty child array, sorted; per occupied
    parent cell, in increasing order, the number of them under it), where a
    cell's parent is its index >> D."""
    kids = _distinct(child)
    parent = kids >> D
    starts = np.flatnonzero(np.diff(parent, prepend=parent[0] - 1))
    return kids, np.diff(starts, append=kids.size)


def uniformize(X: DyadicGridSet, D: int, m: int) -> DyadicGridSet:
    """Extract an exactly {2**-(D*j)}-uniform subset, finest block level first.

    At block level j (processed j = m..1) every surviving level-D*(j-1) cell
    is required to have the same number R_j of surviving level-D*j children.
    R_j is chosen to maximize (cells kept) = R * #{parents with >= R children};
    parents with fewer children are dropped, richer parents keep their first
    R_j children in index order.  Ties in the kept count go to the larger R.

    Because levels are processed bottom-up, every surviving level-D*j cell
    carries the same number of final cells, so each step keeps at least a
    1/(2**D harmonic) >= 1/(D+1) fraction and the output satisfies
    |X'| >= |X| / (D+1)**m exactly.
    """
    if D < 1 or m < 1:
        raise ValueError("need D >= 1 and m >= 1")
    if X.level != D * m:
        raise ValueError(f"set level {X.level} != D*m = {D * m}")
    if X.is_empty():
        return X
    cells = X.cells
    for j in range(m, 0, -1):
        child = cells >> (D * (m - j))   # level D*j cell per cell
        kids, counts = _child_counts(child, D)
        best_R, best_kept = 1, -1
        for R in range(1, int(counts.max()) + 1):
            kept = R * int(np.sum(counts >= R))
            if kept >= best_kept:   # ties -> larger R (larger class index)
                best_kept, best_R = kept, R
        # first best_R children (in index order) of each parent with >= best_R
        rank = np.arange(kids.size) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = (rank < best_R) & np.repeat(counts >= best_R, counts)
        cells = cells[np.isin(child, kids[keep])]
    return DyadicGridSet(X.level, cells)


def uniformity_audit(X: DyadicGridSet, D: int, m: int):
    """Check exact uniformity; returns (ok, counts or offending block level)."""
    if X.is_empty():
        return True, []
    counts = []
    for j in range(1, m + 1):
        _, cnt = _child_counts(X.cells >> (D * (m - j)), D)
        if cnt.min() != cnt.max():
            return False, j
        counts.append(int(cnt[0]))
    return True, counts


def projection_scan(A1: DyadicGridSet, A2: DyadicGridSet, Y: DyadicGridSet) -> np.ndarray:
    """|pi_y(A1 x A2)|_δ per direction cell y in Y, as an int64 array.

    Pair (a, b) at direction cell u lands in δ-cell floor((c_a - y_u c_b)/δ),
    the exact integer a + c[u, b] of the module notes.  Whole direction rows
    are scanned in batches of at most _SCAN_PAIRS pairs (or one larger row):
    per batch the small c block is computed in int64, the bins are written
    by one broadcast sum of the offsets a - min(a) and c - min(c), and each
    row is sorted and its distinct values counted.  Sets whose extreme
    numerators reach 2**62 are refused with ValueError rather than wrapped
    in int64.

    The extremes of the lead terms, the products and their differences
    (Python ints from the end cells of the three sets) bound every value:
    below 2**62 the products and every 2**(Ly+1) - (2u+1)(2b+1) fit int64,
    and every offset sum lies in [0, span), span read off the extreme a and
    c.  The sums are written as uint16 when span <= 2**16, uint32 when
    span <= 2**32, else int64, so each is held exactly; a row's steps are
    counted in uint16 while a row holds at most 2**16 pairs.
    """
    if A1.is_empty() or A2.is_empty() or Y.is_empty():
        raise ValueError("projection_scan needs nonempty A1, A2, Y")
    if A1.level != A2.level:
        raise ValueError("A1 and A2 must share a level")
    level, ylevel = A1.level, Y.level
    shift = ylevel + 2
    # extreme odd numerators and their two terms, as Python ints: they bound
    # every value of the blocks below
    ends = [[2 * int(X.cells[k]) + 1 for k in (0, -1)] for X in (A1, A2, Y)]
    lead = [p << (ylevel + 1) for p in ends[0]]
    tail = [q * w for q in ends[1] for w in ends[2]]
    nums = [f - g for f in lead for g in tail]
    if max(abs(x) for x in lead + tail + nums) >= _MUL_PRODUCT_LIMIT:
        raise ValueError(
            f"projection scan at level {level} (A1, A2) and level {ylevel} (Y): "
            f"bin numerators reach 2**62 (sets too far from 0 for int64)")
    half = 1 << (ylevel + 1)
    c_min, c_max = (half - max(tail)) >> shift, (half - min(tail)) >> shift
    span = int(A1.cells[-1] - A1.cells[0]) + c_max - c_min + 1
    bin_t = np.uint16 if span <= 1 << 16 else np.uint32 if span <= 1 << 32 else np.int64
    offs = (A1.cells - A1.cells[0]).astype(bin_t)
    kb = 2 * A2.cells + 1
    ku = 2 * Y.cells + 1
    pairs = offs.size * kb.size
    rows = max(1, min(ku.size, _SCAN_PAIRS // pairs))
    cnt_t = np.uint16 if pairs <= 1 << 16 else np.int64
    # one set of (c, bins, steps) blocks, reused batch after batch
    bufs = (np.empty((rows, kb.size), dtype=np.int64),
            np.empty((rows, pairs), dtype=bin_t), np.empty((rows, pairs - 1), dtype=bool))
    parts = []
    for u0 in range(0, ku.size, rows):
        n = min(rows, ku.size - u0)
        c, bins, step = (buf[:n] for buf in bufs)
        np.multiply.outer(ku[u0:u0 + n], kb, out=c)
        np.subtract(half, c, out=c)
        np.right_shift(c, shift, out=c)
        c -= c_min
        np.add(offs[:, None], c.astype(bin_t)[:, None, :],
               out=bins.reshape(n, offs.size, kb.size))
        bins.sort(axis=1)
        np.not_equal(bins[:, 1:], bins[:, :-1], out=step)
        parts.append(np.add.reduce(step.view(np.uint8), axis=1, dtype=cnt_t))
    return 1 + np.concatenate(parts).astype(np.int64)


def additive_energy(A: DyadicGridSet, B: DyadicGridSet) -> int:
    """Number of quadruples (a1, b1, a2, b2) in AxBxAxB with a1-b1 = a2-b2.

    Computed at cell resolution via the difference histogram
    h(d) = #{(a,b): a-b = d} as sum h(d)**2, where h is the linear
    convolution of A's 0/1 indicator with B's reversed one
    (measures.fftconvolve; its counts round to the exact integers).
    """
    if A.level != B.level:
        raise ValueError("sets must share a level")
    if A.is_empty() or B.is_empty():
        return 0
    from .measures import fftconvolve   # measures imports this module
    # 0/1 indicators (cells are sorted and distinct), B's reversed
    ia = np.bincount(A.cells - A.cells[0])
    ib = np.bincount(B.cells[-1] - B.cells)
    hist = np.rint(fftconvolve(ia, ib)).astype(np.int64)
    return int(np.sum(hist * hist))
