"""Additive, subtractive and multiplicative convolutions of grid measures.

convolve(mu, nu, op) pushes the product measure mu x nu through x+y, x-y or
x*y.  Grids at different levels are refined to the finer one first, and
output windows grow as needed.  Every output's support is exact: a cell
carries mass only if some pair of occupied input cells routes mass to it,
and every such cell does (add/sub: unless its true mass is below FFT
roundoff), so support(), atoms() and occupied_set() of an output are true.

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
(i, j) goes to cell ((2i+1)(2j+1)) >> (L+2), computed in int64: exact
for every pair, negative products included (the shift floors).  Grids whose
largest such product reaches 2**62 are refused with ValueError rather than
wrapped.  For measures supported in [-2, 2] the routed point sits within 4
grid cells of every true product from the source cells, and no mass is
rescaled: the check runs on the routed sum itself.  Pairs are routed in
chunks of whole rows, one chunk per CPU at a time (dyadic._ordered_map),
and the chunks' histograms are added in chunk order, so the output is
bit-identical whatever the CPU count.  Each row walks nu's occupied cells in
stride order (every _MUL_STRIDE-th cell, then the next offset), not in
ascending order: for a small factor, neighbouring cells route to one output
cell, and a histogram fed long runs of one cell waits on each add before
the next.  Only the summation order within an output cell depends on this.

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

from .dyadic import _MUL_PRODUCT_LIMIT, _ordered_map
from .measures import GridMeasure, assert_mass_conserved, fftconvolve

__all__ = [
    "VALID_OPS",
    "convolve",
    "difference_product",
    "even_product",
]

VALID_OPS = ("add", "sub", "mul")

# pairs routed per mul chunk: each worker slot's 8 MB int64 index and
# float64 weight blocks.  On 2 workers flatten-l12's folded difference
# product (79,710,848 pairs) took 99-104 ms at 2**20, 100-108 ms at 2**19,
# 110-112 ms at 2**18 and 100-102 ms at 2**21 (in-process _conv_mul with
# stride-ordered rows, medians of 7, three runs each, 2-CPU VM).
_MUL_CHUNK = 1 << 20
# stride S of the order each mul row walks b's occupied cells in (0, S, 2S,
# ..., then 1, S+1, ...; see the module docstring).  On 2 workers the same
# product took 118-124 ms in ascending order and 94-106 ms for any S from 16
# to 2048.
_MUL_STRIDE = 128


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
    target = a.total_mass * b.total_mass
    tot = float(out.sum())
    assert_mass_conserved(target, tot, "additive convolution")
    if tot > 0:
        out *= target / tot
    return GridMeasure(level, a.origin_index + b.origin_index, out)


def _conv_mul(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    a, b, level = _common_level(mu, nu)
    ka, wa = a.atoms()
    kb, wb = b.atoms()
    if ka.size == 0 or kb.size == 0:
        raise ValueError("multiplicative convolution of a zero measure")
    shift = level + 2
    # products of the extreme numerators, as Python ints
    corners = [int(p) * int(q) for p in (ka[0], ka[-1]) for q in (kb[0], kb[-1])]
    if max(abs(c) for c in corners) >= _MUL_PRODUCT_LIMIT:
        raise ValueError(
            f"multiplicative convolution at level {level}: center products "
            f"reach 2**62 (supports too far from 0 for int64 routing)")
    base = min(corners) >> shift
    out = np.zeros((max(corners) >> shift) - base + 1, dtype=np.float64)
    # the corners above read the sorted kb; from here on b's cells are permuted
    order = np.argsort(np.arange(kb.size) % _MUL_STRIDE, kind="stable")
    kb, wb = kb[order], wb[order]
    rows = max(1, min(ka.size, _MUL_CHUNK // kb.size))
    bufs = {}   # slot -> its (index, weight) blocks, reused chunk after chunk

    def route(slot, i0):
        if slot not in bufs:
            bufs[slot] = (np.empty((rows, kb.size), dtype=np.int64),
                          np.empty((rows, kb.size), dtype=np.float64))
        n = min(rows, ka.size - i0)
        idx, w = (buf[:n] for buf in bufs[slot])
        np.multiply.outer(ka[i0:i0 + n], kb, out=idx)
        idx >>= shift
        if base:    # 0 whenever both factors sit on cells k >= 0 (even_product)
            idx -= base
        np.multiply.outer(wa[i0:i0 + n], wb, out=w)
        return np.bincount(idx.ravel(), weights=w.ravel(), minlength=out.size)

    # parts are added in chunk order, as a serial loop would
    _ordered_map(route, range(0, ka.size, rows), lambda part: np.add(out, part, out=out))
    res = GridMeasure(level, base, out).trimmed()
    assert_mass_conserved(a.total_mass * b.total_mass, res.total_mass,
                          "multiplicative convolution")
    return res


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

    Each factor is symmetrised first, so the output is exactly even and its
    window is trimmed; how far the factors were from even is theirs to
    check (symmetry_defect) before they come here.
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
