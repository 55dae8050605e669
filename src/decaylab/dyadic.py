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
(c_a - y_u c_b)/δ for cell centers c and y.  Whole direction rows are
scanned in batches of at most _SCAN_PAIRS pairs (one row if a row is
larger), and inputs whose extreme numerators reach 2**62 are refused with
ValueError (_MUL_PRODUCT_LIMIT, which `mul` in convolution uses too).  The
numerators are int32 when every extreme stays below 2**31, else int64, and
the bins uint16, uint32 or int64, the narrowest type holding the number of
bins the extremes allow: distinct bins within such a window stay distinct
modulo 2**16 or 2**32, so the counts are the same.

The chunked exact kernels (projection_scan's batches, convolution's mul
chunks, flattening's FFTs, spectral.fourier_lattice's transform batches) run
through _ordered_map: up to _WORKERS threads, one per CPU of the process's
affinity set, with results taken in chunk order, so every output is
bit-identical whatever the CPU count.  An item must not call _ordered_map
again, and sums inside an item stay off BLAS, whose own threads would
compete with the pool's.
"""
from __future__ import annotations

import os
import threading
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

# pairs per projection_scan batch (whole direction rows, at least one), per
# worker slot.  On project-l12 (1.68e7 pairs in int32 numerators and uint16
# bins, 2 workers, 2-CPU VM) 2**18 beat 2**16, 2**17 and 2**20 in 10, 8 and
# 10 of ten alternating pairs of runs (median run_s 0.082 vs 0.095, 0.099 vs
# 0.103 and 0.096 vs 0.101 s); 2**14 and 2**15 took 0.12-0.24 s.  The CLI
# process's peak RSS was 39, 41 and 51 MB at 2**16, 2**18 and 2**20.
_SCAN_PAIRS = 1 << 18

# projection_scan, and convolution's mul, refuse inputs whose largest odd-center
# numerator reaches this (int64 room)
_MUL_PRODUCT_LIMIT = 1 << 62


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


# threads _ordered_map runs items on (W); not a setting: tests patch it
_WORKERS = _cpu_count()


def _ordered_map(fn, items, take):
    """take(fn(slot, item)) for every item, take called in item order.

    Up to W = _WORKERS threads run fn; numpy's ufuncs, sorts, bincount and
    FFTs release the GIL, so they run on W CPUs at once.  Item i runs in
    slot i % W, and only once item i - W has been taken: at most W results
    are alive, and fn may return a view of buffers its slot owns.  take runs
    in the calling thread, so a merge `out += part` adds the parts in the
    order of the serial loop and the output is bit-identical for any W.
    With W = 1, or a single item, this is that loop, with no thread.  An
    exception in fn is raised here at its item's turn; the threads stop
    after their current item.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers <= 1:
        for item in items:
            take(fn(0, item))
        return
    results = [None] * workers
    ready = [threading.Semaphore(0) for _ in range(workers)]
    free = [threading.Semaphore(0) for _ in range(workers)]
    stop = False

    def run(slot):
        for i in range(slot, len(items), workers):
            if i >= workers:
                free[slot].acquire()
            if stop:
                return
            try:
                results[slot] = (True, fn(slot, items[i]))
            except BaseException as exc:    # raised again in the caller
                results[slot] = (False, exc)
            ready[slot].release()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
    for t in threads:
        t.start()
    try:
        for i in range(len(items)):
            slot = i % workers
            ready[slot].acquire()
            ok, value = results[slot]
            results[slot] = None
            if not ok:
                raise value
            take(value)
            free[slot].release()
    finally:
        stop = True
        for sem in free:
            sem.release()
        for t in threads:
            t.join()


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
    which for A at level L and Y at level Ly is the exact integer
    ((2a+1) << (Ly+1) - (2u+1)(2b+1)) >> (Ly+2).  Whole direction rows are
    scanned in batches of at most _SCAN_PAIRS pairs (or one larger row);
    each row's bins are sorted and its distinct values counted.  Sets whose
    extreme numerators reach 2**62 are refused with ValueError rather than
    wrapped in int64.

    The extremes (the lead terms, the products and their differences, as
    Python ints) bound every value the blocks hold, so the numerators are
    int32 when all of them lie below 2**31 in absolute value, else int64.
    The bins of every row lie in one window of `span` consecutive integers,
    with span read off the extreme numerators.  The shift writes them as
    uint16 when span <= 2**16, uint32 when span <= 2**32, else int64; the
    cast to unsigned is modular, so distinct bins of the window, negative
    ones included, stay distinct and the counts are exact.
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
    top = max(abs(x) for x in lead + tail + nums)
    if top >= _MUL_PRODUCT_LIMIT:
        raise ValueError(
            f"projection scan at level {level} (A1, A2) and level {ylevel} (Y): "
            f"bin numerators reach 2**62 (sets too far from 0 for int64)")
    num_t = np.int32 if top < 1 << 31 else np.int64
    # bins of every row lie among `span` consecutive integers, distinct
    # modulo 2**16 (2**32) when span fits: the unsigned casts wrap exactly
    span = (max(nums) >> shift) - (min(nums) >> shift) + 1
    bin_t = np.uint16 if span <= 1 << 16 else np.uint32 if span <= 1 << 32 else np.int64
    ka = ((2 * A1.cells + 1) << (ylevel + 1)).astype(num_t)
    kb = (2 * A2.cells + 1).astype(num_t)
    ku = (2 * Y.cells + 1).astype(num_t)
    pairs = ka.size * kb.size
    rows = max(1, min(ku.size, _SCAN_PAIRS // pairs))
    bufs = {}   # slot -> its (products, numerators, bins, steps) blocks, reused

    def scan(slot, u0):
        if slot not in bufs:
            bufs[slot] = (np.empty((rows, kb.size), dtype=num_t),
                          np.empty((rows, pairs), dtype=num_t),
                          np.empty((rows, pairs), dtype=bin_t),
                          np.empty((rows, pairs - 1), dtype=bool))
        n = min(rows, ku.size - u0)
        prod, num, bins, step = (buf[:n] for buf in bufs[slot])
        np.multiply.outer(ku[u0:u0 + n], kb, out=prod)
        np.subtract(ka[:, None], prod[:, None, :], out=num.reshape(n, ka.size, kb.size))
        np.right_shift(num, shift, out=bins, casting="unsafe")
        bins.sort(axis=1)
        np.not_equal(bins[:, 1:], bins[:, :-1], out=step)
        return 1 + np.count_nonzero(step, axis=1)

    parts = []
    _ordered_map(scan, range(0, ku.size, rows), parts.append)
    return np.concatenate(parts)


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
