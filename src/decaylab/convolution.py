"""Additive, subtractive and multiplicative convolutions of grid measures.

convolve(mu, nu, op) pushes the product measure mu x nu through x+y, x-y or
x*y.  Grids at different levels are refined to the finer one first, and
output windows grow as needed.  Every output's support is exact: a cell
carries mass only if some pair of occupied input cells routes mass to it,
and every such cell does (add/sub: unless its true mass is below FFT
roundoff; mul's cumulative route: unless it is below the prefix sums'
roundoff), so support(), atoms() and occupied_set() of an output are true,
and its window is the hull of its occupied cells, as every GridMeasure's.

add/sub run as one linear convolution of the mass vectors,
measures.fftconvolve: its support is exact, and a doubling mu + mu
transforms each vector once.  Sums of cell centers land midway between
output cell centers, so each pair mass is split equally between the two
straddling cells; that split is exact for the cell-uniform reading of a grid
measure (uniform * uniform = triangle).  Mass is checked on the unscaled sum
and only then rescaled to the exact product of the masses.

mul routes each pair mass to the cell containing the product of the two
cell centers (single-cell routing, floor binning).  Cell k at level L has
center (2k+1) 2**-(L+1), 2k+1 its numerator from GridMeasure.atoms, so pair
(i, j) goes to cell ((2i+1)(2j+1)) >> (L+2).  Grids whose largest such
product reaches 2**62 are refused with ValueError rather than wrapped.  For
measures supported in [-2, 2] the routed point sits within 4 grid cells of
every true product from the source cells, and no mass is rescaled: the
check runs on the routed sum itself.  Two routes compute this histogram,
each in chunks of whole rows of one factor, with the chunks' parts added in
chunk order.

The direct route computes each pair's cell in int64: exact for every pair,
negative products included (the shift floors), at one histogram add per
pair.

The cumulative route computes one value per output cell a row reaches, not
one per pair.  Row n (an occupied numerator of one factor, the rows) sends
the other factor's window cells j, numerators m0 + 2j from its first
occupied cell m0 to its last m1, below cell k exactly when
j < q(k) = (k 2**(L+2) - n m0) / (2n).  With CB the prefix sums of those
cells' masses (CB[0] = 0) and t = ceil(q) clipped to the window, row n puts
w_n (CB[t(k+1)] - CB[t(k)]) on cell k, for k from (n m0) >> (L+2) to
(n m1) >> (L+2): about x_n times the window's cell count, x_n the row's
center.  Exactness: q's numerator is odd and its denominator even, so q
lies at least 1/(2n) from every integer; as m0 is odd, ceil(q) = rint(y) -
(m0 - 1)/2 with y = k 2**(L+1) / n at least 1/(2n) from every half-integer.
Computed as k times the rounded 2**(L+1) / n, y is off by at most
y (2u + u**2), u = 2**-53: below 1/(2n) when every numerator is an integer
below 2**52 (_PREFIX_LIMIT; the route requires the upper edge of the top
output cell below it), so its rint is exact.  A row adds exactly 0 to a
cell none of its pairs reaches, and to one whose pairs meet only empty
cells, since its two CB reads are then the same float; differences of the
nondecreasing CB are never negative.  A cell whose true mass is below CB's
roundoff can read 0.  The rows' weighted sum is one BLAS matrix-vector
product: its bits follow the BLAS core kernel, not its thread count.

mul takes the cumulative route only where it is exact and cheaper: both
factors sit on cells k >= 0 (so every row is increasing in k), the 2**52
bound above holds, and _MUL_CELL_COST times the block cells
sum_n ((n m1) >> (L+2)) - ((n m0) >> (L+2)) + 2, with the rows taken from
whichever factor gives fewer, is below the pair count.  Otherwise it takes
the direct route.

mul routing is exactly odd.  A center numerator (2i+1)(2j+1) is odd, so it
is never a multiple of 2**(L+2), and the flooring shift sends -n to cell
-1-k whenever it sends n to cell k: R(x) x y = R(x x y) for the reflection R
(cell k -> cell -1-k).  even_product uses this to multiply two measures meant
to be even, D1 and D2, from a quarter of the pairs: with D+ the cells k >= 0
of the symmetrised (D + R(D))/2, D1 x D2 = 2 (B + R(B)) where B = D1+ x D2+.
difference_product, (mu - mu) x (nu - nu), is the even_product of the two
self-differences.
"""
from __future__ import annotations

import numpy as np

from .dyadic import _MUL_PRODUCT_LIMIT
from .measures import GridMeasure, assert_mass_conserved, fftconvolve, rescaled_measure

__all__ = [
    "VALID_OPS",
    "convolve",
    "difference_product",
    "even_product",
]

VALID_OPS = ("add", "sub", "mul")

# pairs routed per chunk of mul's direct route: 8 MB int64 index and
# float64 weight blocks.  On quantitative's two [1, 2] products (4,194,304
# pairs, the direct route's largest shipped shape) _conv_mul took 21.6-21.9
# ms at 2**20, 18.3-20.8 at 2**18, 19.2-19.3 at 2**19 and 21.0-22.5 at
# 2**21 (in process, medians of 11, 2-CPU x86-64 VM).  Another value moves
# the order the chunks' parts are added in, and so output bits.
_MUL_CHUNK = 1 << 20
# block cells per chunk of mul's cumulative route: three 8-byte blocks of
# this many cells (1.5 MiB), or of one wider row.  flatten-l12's folded
# product took 49.1-50.8 ms at 2**16, 51.2-53.4 at 2**15, 55.1-56.1 at 2**17
# and 59.3-60.9 at 2**18; flatten's 8.0-8.4 ms at 2**15-2**16, 8.8-9.7 at
# 2**17 and 11.3-11.4 at 2**18 (in process, medians of 15 in two rounds,
# 2-CPU x86-64 VM).  Another value moves output bits, as _MUL_CHUNK's does.
_MUL_CELLS = 1 << 16
# time of one cumulative-route block cell over one direct-route pair: it
# read 0.57-1.09 across the shipped products (0.84-0.86 flatten, 0.97-1.03
# flatten-l12, 0.57-0.64 keystep and quantitative, 0.52-1.09 induction;
# forced routes, medians of 15, 2-CPU x86-64 VM).  1.1, the top of that
# range, sends a mul cumulative only where it wins at the dearest ratio:
# induction's first product (1.29 pairs per block cell) is the least such.
_MUL_CELL_COST = 1.1
# the cumulative route's float64 numerators are integers below this
_PREFIX_LIMIT = 1 << 52


def _common_level(mu: GridMeasure, nu: GridMeasure):
    level = max(mu.level, nu.level)
    return mu.refined(level), nu.refined(level), level


def convolve(mu: GridMeasure, nu: GridMeasure, op: str) -> GridMeasure:
    """Image of mu x nu under x+y (add), x-y (sub) or x*y (mul)."""
    if op not in VALID_OPS:
        raise ValueError(f"op must be one of {VALID_OPS}, got {op!r}")
    if op == "add":
        return _conv_add(mu, nu)
    if op == "sub":
        return _conv_add(mu, _reflected(nu))
    return _conv_mul(mu, nu)


def _reflected(nu: GridMeasure) -> GridMeasure:
    """Image of nu under x -> -x (exact: cells mirror onto cells)."""
    return GridMeasure(nu.level, -(nu.origin_index + nu.size), nu.masses[::-1])


def _conv_add(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    a, b, level = _common_level(mu, nu)
    raw = fftconvolve(a.masses, b.masses)
    # pair (i, j) has center-sum on the edge between output cells i+j and i+j+1
    out = np.empty(raw.size + 1, dtype=np.float64)
    out[0] = raw[0]
    out[-1] = raw[-1]
    out[1:-1] = raw[1:] + raw[:-1]
    out *= 0.5
    return rescaled_measure(level, a.origin_index + b.origin_index, out,
                            a.total_mass * b.total_mass, "additive convolution")


def _conv_mul(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    a, b, level = _common_level(mu, nu)
    shift = level + 2
    # products of the extreme numerators, those of the windows' end cells
    ends = [(2 * m.origin_index + 1, 2 * (m.origin_index + m.size) - 1) for m in (a, b)]
    corners = [p * q for p in ends[0] for q in ends[1]]
    if max(abs(c) for c in corners) >= _MUL_PRODUCT_LIMIT:
        raise ValueError(
            f"multiplicative convolution at level {level}: center products "
            f"reach 2**62 (supports too far from 0 for int64 routing)")
    base = min(corners) >> shift
    out = np.zeros((max(corners) >> shift) - base + 1, dtype=np.float64)
    route, items = (_cumulative_route(a, b, shift, base)
                    or _direct_route(a, b, shift, base, out.size))
    for item in items:
        lo, masses = route(item)
        seg = out[lo:lo + masses.size]
        np.add(seg, masses, out=seg)
    res = GridMeasure(level, base, out)
    assert_mass_conserved(a.total_mass * b.total_mass, res.total_mass,
                          "multiplicative convolution")
    return res


def _direct_route(a, b, shift, base, size):
    """(route, items) routing every pair: route(i0) is the histogram of the
    output cells [0, size) over a's occupied cells from the i0-th on."""
    ka, wa = a.atoms()
    kb, wb = b.atoms()
    rows = max(1, min(ka.size, _MUL_CHUNK // kb.size))
    # one (index, weight) pair of blocks, reused chunk after chunk
    bufs = (np.empty((rows, kb.size), dtype=np.int64),
            np.empty((rows, kb.size), dtype=np.float64))

    def route(i0):
        n = min(rows, ka.size - i0)
        idx, w = (buf[:n] for buf in bufs)
        np.multiply.outer(ka[i0:i0 + n], kb, out=idx)
        idx >>= shift
        if base:    # 0 when the least center product falls in cell 0
            idx -= base
        np.multiply.outer(wa[i0:i0 + n], wb, out=w)
        return 0, np.bincount(idx.ravel(), weights=w.ravel(), minlength=size)

    return route, range(0, ka.size, rows)


def _cumulative_route(a, b, shift, base):
    """(route, items) reading each row's output cells off the other factor's
    prefix sums, or None where that is inexact or dearer than _direct_route
    (see the module docstring).  route((i0, i1)) gives the first output
    cell of rows i0..i1-1 and their summed masses from it on."""
    ka, wa = a.atoms()
    kb, wb = b.atoms()
    top = int(ka[-1]) * int(kb[-1])
    if ka[0] < 1 or kb[0] < 1 or ((top >> shift) + 1) << shift >= _PREFIX_LIMIT:
        return None
    # block cells with a's cells as rows, then with b's
    blocks = [int(np.sum(((kr * kc[-1]) >> shift) - ((kr * kc[0]) >> shift) + 2))
              for kr, kc in ((ka, kb), (kb, ka))]
    if _MUL_CELL_COST * min(blocks) >= ka.size * kb.size:
        return None
    if blocks[1] < blocks[0]:
        ka, wa, kb, b = kb, wb, ka, a
    # prefix sums over b's window, from its first occupied cell to its last
    cb = np.concatenate(([0.0], np.cumsum(b.masses)))
    lo = (ka * kb[0]) >> shift      # each row's first and last output cell
    hi = (ka * kb[-1]) >> shift
    # row n sends b's cells j < rint(k slope_n) - (kb[0] - 1) / 2 below cell k
    slope = (1.0 / ka) * 2.0 ** (shift - 1)
    chunks = _row_chunks(lo, hi, _MUL_CELLS)
    size = max((i1 - i0) * int(hi[i1 - 1] + 2 - lo[i0]) for i0, i1 in chunks)
    # one set of flat (value, index, difference) blocks, reused chunk after chunk
    bufs = (np.empty(size), np.empty(size, dtype=np.int64), np.empty(size))

    def route(chunk):
        i0, i1 = chunk
        r, span = i1 - i0, int(hi[i1 - 1] + 2 - lo[i0])
        # contiguous blocks: np.take is slow into strided views
        f, idx = (buf[:r * span].reshape(r, span) for buf in bufs[:2])
        d = bufs[2][:r * (span - 1)].reshape(r, span - 1)
        np.multiply.outer(slope[i0:i1], np.arange(lo[i0], lo[i0] + span, dtype=np.float64), out=f)
        np.rint(f, out=idx, casting="unsafe")
        if kb[0] > 1:   # b's window starts past cell 0
            idx -= kb[0] // 2
        np.take(cb, idx, out=f, mode="clip")
        np.subtract(f[:, 1:], f[:, :-1], out=d)
        return int(lo[i0] - base), wa[i0:i1] @ d

    return route, chunks


def _row_chunks(lo, hi, budget):
    """Consecutive row chunks (i0, i1), each holding at most budget block
    cells, (i1 - i0) x (hi[i1 - 1] + 2 - lo[i0]), or one row; lo and hi
    ascend."""
    chunks, i0 = [], 0
    while i0 < lo.size:
        # the chunk's block is at least as wide as its first row's
        end = min(lo.size, i0 + max(1, budget // int(hi[i0] + 2 - lo[i0])))
        cells = np.arange(1, end - i0 + 1) * (hi[i0:end] + 2 - lo[i0])
        i1 = i0 + max(1, int(np.searchsorted(cells, budget, side="right")))
        chunks.append((i0, i1))
        i0 = i1
    return chunks


def _mirror_window(m: GridMeasure):
    """(masses of m on the cells [-span, span), span): the least window about
    0 that holds m's window and its mirror image, whatever m's window is."""
    lo = m.origin_index
    hi = lo + m.size
    span = max(hi, -lo)
    full = np.zeros(2 * span, dtype=np.float64)
    full[lo + span:hi + span] = m.masses
    return full, span


def _positive_half(d: GridMeasure) -> GridMeasure:
    """Cells k >= 0 of the symmetrised (d + R(d)) / 2."""
    full, span = _mirror_window(d)
    return GridMeasure(d.level, 0, 0.5 * (full[span:] + full[span - 1::-1]))


def even_product(d1: GridMeasure, d2: GridMeasure) -> GridMeasure:
    """d1 x d2 (mul) of two measures meant to be even, from a quarter of the
    pairs: 2 (B + R(B)) with B = d1+ x d2+ (see the module docstring).

    Each factor is symmetrised first, so the output and its window (the
    occupied hull) are exactly even; how far the factors were from even is
    theirs to check (symmetry_defect) before they come here.
    """
    b = convolve(_positive_half(d1), _positive_half(d2), "mul")
    # B sits on cells k >= 0, so B and R(B) share no cell and the sum is exact
    full, span = _mirror_window(b)
    return GridMeasure(b.level, -span, 2.0 * (full + full[::-1]))


def difference_product(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """(mu - mu) x (nu - nu) as a measure: the even_product of the two
    self-differences, routing a quarter of the pairs of their mul.

    The output is exactly even: cells at index i and -1-i (mirror across the
    origin edge) carry equal mass.
    """
    return even_product(convolve(mu, mu, "sub"), convolve(nu, nu, "sub"))


def symmetry_defect(m: GridMeasure) -> float:
    """max |m(cell) - m(mirror cell)| for a measure meant to be even."""
    full, _ = _mirror_window(m)
    return float(np.max(np.abs(full - full[::-1])))
