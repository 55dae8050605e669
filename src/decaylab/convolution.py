"""Additive, subtractive and multiplicative convolutions of grid measures.

convolve(mu, nu, op) pushes the product measure mu x nu through x+y, x-y or
x*y.  Grids at different levels are refined to the finer one first, and
output windows grow as needed.  Every output's support is exact: a cell
carries mass only if some pair of occupied input cells routes mass to it,
and every such cell does (add/sub: unless its true mass is below FFT
roundoff), so support(), occupied() and occupied_set() of an output are true.

add/sub run as one fast linear convolution of the mass vectors.  Sums of
cell centers land midway between output cell centers, so each pair mass is
split equally between the two straddling cells; that split is exact for the
cell-uniform reading of a grid measure (uniform * uniform = triangle).  The
true support comes from a second FFT convolution of the 0/1 occupancy
vectors (its counts are exact integers up to roundoff far below 1/2); FFT
roundoff outside it is zeroed before the split.  Mass is checked on the
unscaled sum and only then rescaled to the exact product of the masses.

mul routes each pair mass to the cell containing the product of the two
cell centers (single-cell routing, floor binning).  Cell k at level L has
center (2k+1) 2**-(L+1), so pair (i, j) goes to cell
((2i+1)(2j+1)) >> (L+2), computed in int64 on absolute cell indices: exact
for every pair, negative products included (the shift floors).  Grids whose
largest such product reaches 2**62 are refused with ValueError rather than
wrapped.  For measures supported in [-2, 2] the routed point sits within 4
grid cells of every true product from the source cells, and no mass is
rescaled: the check runs on the routed sum itself.
"""
from __future__ import annotations

import numpy as np

from .dyadic import _MUL_PRODUCT_LIMIT
from .measures import GridMeasure, assert_mass_conserved, fftconvolve

__all__ = [
    "VALID_OPS",
    "convolve",
    "difference_product",
]

VALID_OPS = ("add", "sub", "mul")

# pairs routed per mul chunk: 8 MB int64 index and float64 weight blocks.
# Routing flatten-l12's 3.2e8 pairs took 1.43 s at 2**20 and 2.76 s at 2**22
# (2-CPU VM); 2**18-2**20 were within 3% of each other.
_MUL_CHUNK = 1 << 20


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
    # pair counts per output index; roundoff is far below 1/2 at any size
    hit = fftconvolve(a.masses > 0, b.masses > 0) > 0.5
    raw = np.where(hit, np.maximum(raw, 0.0), 0.0)
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
    ia = np.nonzero(a.masses)[0]
    ib = np.nonzero(b.masses)[0]
    if ia.size == 0 or ib.size == 0:
        raise ValueError("multiplicative convolution of a zero measure")
    shift = level + 2
    # odd center numerators 2k+1 of the extreme cells, as Python ints
    ends_a = [2 * (int(a.origin_index) + int(i)) + 1 for i in (ia[0], ia[-1])]
    ends_b = [2 * (int(b.origin_index) + int(j)) + 1 for j in (ib[0], ib[-1])]
    corners = [p * q for p in ends_a for q in ends_b]
    if max(abs(c) for c in corners) >= _MUL_PRODUCT_LIMIT:
        raise ValueError(
            f"multiplicative convolution at level {level}: center products "
            f"reach 2**62 (supports too far from 0 for int64 routing)")
    base = min(corners) >> shift
    out = np.zeros((max(corners) >> shift) - base + 1, dtype=np.float64)
    ka = 2 * (ia + a.origin_index) + 1
    kb = 2 * (ib + b.origin_index) + 1
    wa, wb = a.masses[ia], b.masses[ib]
    rows = max(1, _MUL_CHUNK // kb.size)
    for i0 in range(0, ka.size, rows):
        i1 = min(i0 + rows, ka.size)
        idx = np.multiply.outer(ka[i0:i1], kb)
        idx >>= shift
        idx -= base
        w = np.multiply.outer(wa[i0:i1], wb)
        out += np.bincount(idx.ravel(), weights=w.ravel(), minlength=out.size)
    res = GridMeasure(level, base, out).trimmed()
    assert_mass_conserved(a.total_mass * b.total_mass, res.total_mass,
                          "multiplicative convolution")
    return res


def difference_product(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """(mu - mu) x (nu - nu) as a measure: convolve the self-differences.

    The output is symmetric about 0: cells at index i and -1-i (mirror
    across the origin edge) carry equal mass up to summation roundoff.
    """
    dmu = convolve(mu, mu, "sub")
    dnu = convolve(nu, nu, "sub")
    return convolve(dmu, dnu, "mul")


def symmetry_defect(pi: GridMeasure) -> float:
    """max |pi(cell) - pi(mirror cell)| for a measure meant to be even."""
    lo = pi.origin_index
    hi = lo + pi.size
    span = max(hi, -lo)
    full = np.zeros(2 * span, dtype=np.float64)
    full[lo + span:hi + span] = pi.masses
    return float(np.max(np.abs(full - full[::-1])))
