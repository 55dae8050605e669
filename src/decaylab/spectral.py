"""Fourier analysis of grid measures: transforms at exact lattice
frequencies, L2 norms at a scale, decay profiles with fitted exponents, and
the Cauchy-Schwarz order exchange for multiplicative convolutions.

Every transform is atom-exact: mu_hat(xi) = sum m_j exp(-2 pi i xi c_j) over
the cell centers c_j = odd_j h / 2, odd_j = 2 (o + j) + 1 the exact int64
numerators of GridMeasure.atoms.  Every frequency the lab asks for is
s * n, a float scale s times an exact integer n: n = 1 at scattered
frequencies, the odd indices of another measure's cells in product_fourier
and order_check, products of such indices in chains, and 16, 17, ... at
s = 1/16 on the frequency-side energy grid.  fourier_lattice
is the one entry point.  Its kernels reduce the phases (s h / 2)(n odd_j)
to turns with exact integer products (_turns), so values stay at roundoff
(~1e-15 of the mass) even at millions of turns.  _kernel picks, from mu
and n alone and never from the number of scales, the kernel that costs
least per scale: a direct sum over the occupied cells; Bluestein's chirp-z
along the progression n0 + g k holding n (Bluestein 1970); or Taylor
tables of mu's window, built once per call and read at O(P) per value
(Anderson-Dahleh 1996).  A centered read of an odd window that mirrors
about its middle cell, such as an autocorrelation's, is real: the table
then keeps its real rows only and reads each value with one real
recurrence, imaginary part exactly 0.  Every reduction inside a
fourier_lattice batch is a row-wise np.sum, not a BLAS product, which sums
a lone row in another order than many rows.  The product transforms and
order_check take a scalar xi (giving complex or floats) or an array of any
shape (giving that shape), one batch per band; each element equals the
scalar call at its xi bit for bit, as no value depends on its batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft, rfft

from .measures import GridMeasure, autocorrelation, kernel_weights, next_fast_len

__all__ = [
    "fourier_many",
    "product_fourier",
    "product_chain_fourier",
    "fourier_lattice",
    "odd_products",
    "l2_at_scale",
    "DecayProfile",
    "decay_profile",
    "order_check",
]

# magnitudes below this floor are ignored by the log-log exponent fit
MAGNITUDE_FLOOR = 1e-12

# _CHUNK: complex entries per chunk of a direct sum or of batched chirp-z
# rows; _BATCH: transform values fourier_lattice holds at once.  Both are
# small enough that a chunk's or a batch's temporaries (128-512 KiB each)
# fit the 2 MiB L2 per core and come back from the heap, not fresh mappings.
# `configs/induction.cfg`, one run per fresh process (medians of 12, 2-CPU
# x86-64 VM), at _BATCH, _CHUNK = 2**16, 2**18: 102.4 ms, 10.2k minor faults,
# 49.9 MB VmHWM; 2**14, 2**18: 96.2 ms, 7.7k, 52.2 MB; 2**16, 2**15: 97.0 ms,
# 8.7k, 48.9 MB; 2**14, 2**15: 91.2 ms, 6.0k, 48.4 MB (2**13-2**15 with
# 2**14-2**16: 91-96 ms).  No value depends on either.
_CHUNK = 1 << 15
_BATCH = 1 << 14
_CHAIN_ATOMS = 1 << 20  # atom products enumerated by odd_products
_TABLE_ENTRIES = 1 << 22  # P x M entries of one Taylor table (32 MiB per part)
_EXACT = 1 << 52       # integer factors of _turns must stay below this
# Measured ns per unit of kernel work: a direct-sum term, one of L log2(2L)
# in a chirp-z row, one of P M log2(M) in building a Taylor table, one of P
# Taylor terms in a table value; 28-62, 8.6-13.7, 0.8-1.4 (the half-spectrum
# build; 2.0 at 40 cells) and 8.5-22 ns over windows of 40-32770 cells
# (numpy 2.4 numpy.fft, 2-CPU x86-64 VM).
_UNIT_NS = {"direct": 40.0, "chirp-z": 10.0, "table": 1.2, "taylor term": 12.0}


def _frac(p: np.ndarray) -> np.ndarray:
    """p minus its nearest integer, in place; exact for every double."""
    p -= np.rint(p)
    return p


def _turns(x, n) -> np.ndarray:
    """x * n modulo 1, in [-1/2, 1/2], for floats x and integers n: an array
    with |n| < 2**52, or one Python int of any size.

    x splits into two 26-bit halves (Veltkamp) and n into 26-bit limbs, so
    every partial product is exact and only the final sum rounds: the error
    is ~1e-15 turns, where fl(x * n) would be off by half an ulp of x * n.
    """
    if isinstance(n, int) and abs(n) >= _EXACT:     # x * 2**26 is exact
        return _frac(_turns(x * 67108864.0, n >> 26) + _turns(x, n & 0x3FFFFFF))
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    t = x * 134217729.0                        # 2**27 + 1
    x_hi = t - (t - x)
    x_lo = x - x_hi
    limbs = [(n & 0x3FFFFFF).astype(np.float64)]
    if np.any(n >> 26):
        limbs.append((n >> 26).astype(np.float64) * 67108864.0)
    out = 0.0
    for limb in limbs:
        out = out + _frac(x_hi * limb) + _frac(x_lo * limb)
    return _frac(out)


def fourier_many(mu: GridMeasure, xis: np.ndarray) -> np.ndarray:
    """mu_hat at an array of frequencies, in its shape: fourier_lattice at n = 1."""
    return fourier_lattice(mu, xis, [1]).reshape(np.shape(xis))


def _shaped(values: np.ndarray, xi):
    """Flat values in the shape of xi; a Python scalar for a scalar xi."""
    values = values.reshape(np.shape(xi))
    return values.item() if values.ndim == 0 else values


def _batches(scales, per_scale: int) -> list:
    """The scales, flattened to floats, in batches of about _BATCH values
    at per_scale values each (at least one scale per batch)."""
    scales = np.asarray(scales, dtype=np.float64).reshape(-1)
    rows = max(1, _BATCH // max(per_scale, 1))
    return np.array_split(scales, -(-scales.size // rows) or 1)


def odd_products(measures):
    """Every product of one occupied center per measure as n * 2**-e with n
    an exact odd integer (last measure fastest), the products of their
    masses, and e; no measures give n = 1 of mass 1 and e = 0.

    Each center is odd 2**-(level + 1), odd its numerator from
    GridMeasure.atoms, so n multiplies those.  Refuses more than
    _CHAIN_ATOMS products, or n reaching 2**52.
    """
    n, w, e = np.ones(1, dtype=np.int64), np.ones(1), 0
    atoms = [m.atoms() for m in measures]
    if math.prod(o.size for o, _ in atoms) > _CHAIN_ATOMS:
        raise ValueError("product chain too dense for atom-exact evaluation")
    if math.prod(int(np.abs(o).max()) for o, _ in atoms) >= _EXACT:
        raise ValueError("atom products reach 2**52: too many or too fine "
                         "factors for exact phase reduction")
    for m, (o, q) in zip(measures, atoms):
        n = np.multiply.outer(n, o).ravel()
        w = np.multiply.outer(w, q).ravel()
        e += m.level + 1
    return n, w, e


def _middle_odd(mu: GridMeasure) -> int:
    """odd*: the odd index of the middle cell of mu's window, the hull of
    its occupied cells, at offset (size - 1) // 2."""
    return 2 * (mu.origin_index + (mu.size - 1) // 2) + 1


def _progression(n: np.ndarray) -> tuple[int, int, int]:
    """(n0, g, count): every n is n0 + g k with 0 <= k < count, n0 the least
    n and g the gcd of the gaps (1 when n holds at most one value)."""
    if not n.size:
        return 0, 1, 1
    n0 = int(n.min())
    g = int(np.gcd.reduce(n.reshape(-1) - n0)) or 1
    return n0, g, (int(n.max()) - n0) // g + 1


def _table_shape(cells: int) -> tuple[int, int]:
    """(P, M) of the Taylor table of a window of `cells` cells: M the power
    of two at least 8x the window and P the least order with
    (pi half / M)^P / P! <= 1e-16, half = cells // 2 or 1."""
    size = 1 << (8 * cells - 1).bit_length()
    r = math.pi * max(cells // 2, 1) / size
    order = 1
    while r ** order / math.factorial(order) > 1e-16:
        order += 1
    return order, size


def _kernel(mu: GridMeasure, n: np.ndarray, ref: int = 0):
    """(name, values) of the cheapest plan for mu_hat(s n), phases about
    the odd index ref, among the kernels whose integers stay below 2**52;
    priced for one scale, so no value depends on how many scales a call
    holds.  Only the chosen plan is prepared.  Refuses n reaching 2**52, and
    n that no kernel keeps exact."""
    plans = {}
    if int(np.abs(n).max(initial=0)) < _EXACT:
        plans = {name: plan for name, kernel in
                 (("direct", _direct), ("chirp-z", _chirp_z), ("table", _table))
                 if (plan := kernel(mu, n, ref))}
    if not plans:
        raise ValueError("lattice integers reach 2**52: phases would lose exactness")
    name = min(plans, key=lambda name: plans[name][0])
    return name, plans[name][1]()


def _direct(mu: GridMeasure, n: np.ndarray, ref: int):
    """(cost, prepare) of the direct sum, None when m (odd_j - ref) reaches
    2**52; prepare() gives values(b, m) = sum_j m_j exp(-2 pi i (b h / 2)
    m (odd_j - ref)) over the occupied cells, shape b x m for scales b and
    entries m of n, in chunks of _CHUNK terms, each phase reduced by
    _turns."""
    odd, w = mu.atoms(ref)
    if int(np.abs(n).max(initial=0)) * int(np.abs(odd).max()) >= _EXACT:
        return None
    half = mu.spacing / 2

    def values(b, m):
        x = np.repeat(b * half, m.size)[:, None]
        k = np.tile(m.reshape(-1), b.size)[:, None]
        out = np.zeros(x.size, dtype=np.complex128)
        rows = max(1, _CHUNK // w.size)
        for i in range(0, out.size, rows):
            turns = _turns(x[i:i + rows], k[i:i + rows] * odd)
            out[i:i + rows] = np.sum(np.exp(-2j * np.pi * turns) * w, axis=-1)
        return out.reshape(b.shape + m.shape)
    return _UNIT_NS["direct"] * w.size * n.size, lambda: values


def _chirp_z(mu: GridMeasure, n: np.ndarray, ref: int):
    """(cost, prepare) of Bluestein's chirp-z along the progression n0 + g k
    holding n (_progression), or None when its integers reach 2**52;
    prepare() gives values(b, m) as _direct's does.

    With x = b h / 2 and the window's odd indices a + 2 j (a = odd_0 - ref),
    x (n0 + g k)(a + 2 j) = x n0 a + x g a k + 2 x n0 j + 2 x g k j, and
    2 k j = k^2 + j^2 - (k - j)^2 turns the sum over j into a linear
    convolution against the chirp w_t = exp(2 pi i x g t^2).  The chirp is
    built once per row and serves the pre-phase (j), the kernel (k - j) and
    the post-phase (k).  The row's constant n0 a is a Python int, which may
    pass 2**52; _turns reduces it limb by limb.  A row of length L costs
    L log2(2 L); one value (count 1), a direct sum over the window by three
    FFTs, serves only where no other kernel is exact.  Arrays of length
    count are built by prepare: count may reach millions where it loses.
    """
    mass, cells = mu.masses, mu.size
    a = 2 * mu.origin_index + 1 - ref
    n0, g, count = _progression(n)
    if max(2 * abs(n0) * cells, g * abs(a) * count, g * max(cells, count) ** 2) >= _EXACT:
        return None
    length = next_fast_len(cells + count - 1)
    half = mu.spacing / 2

    def prepare():
        sq = g * np.arange(max(cells, count), dtype=np.int64) ** 2
        pre_n = 2 * n0 * np.arange(cells, dtype=np.int64)

        def values(b, m):
            ks = (m.reshape(-1) - n0) // g
            out = np.empty((b.size, ks.size), dtype=np.complex128)
            rows = max(1, _CHUNK // length)
            for i in range(0, b.size, rows):
                x = b[i:i + rows, None] * half
                w = np.exp(2j * np.pi * _turns(x, sq))
                pre = mass * np.conj(w[:, :cells]) * np.exp(-2j * np.pi * _turns(x, pre_n))
                kern = np.zeros((x.shape[0], length), dtype=np.complex128)
                kern[:, :count] = w[:, :count]
                kern[:, length - cells + 1:] = w[:, cells - 1:0:-1]    # t = -(cells-1) .. -1
                z = ifft(fft(pre, length, axis=-1) * fft(kern, axis=-1), axis=-1)
                post = _turns(x, g * a * ks) + _turns(x, n0 * a)
                out[i:i + rows] = np.conj(w[:, ks]) * np.exp(-2j * np.pi * post) * z[:, ks]
            return out.reshape(b.shape + m.shape)
        return values
    cost = _UNIT_NS["chirp-z"] * length * math.log2(2 * length) if count > 1 else math.inf
    return cost, prepare


def _horner(rows: np.ndarray, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_p rows[p][k] t^p by Horner's rule, highest p first."""
    v = rows[-1][k]
    for p in range(rows.shape[0] - 2, -1, -1):
        v *= t
        v += rows[p][k]
    return v


def _table(mu: GridMeasure, n: np.ndarray, ref: int):
    """(cost, prepare) of Taylor tables of Q(theta) = sum_j m_j exp(-2 pi i
    theta (j - j*)) over mu's occupied window, j* its middle cell and `half`
    the larger distance from j* to the window's ends (after Anderson-Dahleh
    1996); None for tables of more than _TABLE_ENTRIES entries or when
    m (odd* - ref) reaches 2**52.  prepare() builds the tables, once per
    call, and gives values(b, m) as _direct's does, read at O(P) each.

    Row p of the complex table is (-i)^p times the length-M FFT of
    m_j ((j - j*) / half)^p / p!, so that Q((k + u) / M) = sum_p row_p[k] t^p
    with t = 2 pi u half / M and |u| <= 1/2; _table_shape's (P, M) bound the
    dropped terms by ~1e-16 of the mass.  mu_hat(nu) = exp(-2 pi i nu c*)
    Q(frac(nu h)), c* = odd* h / 2: at nu = b m, frac(nu h) = _turns(b h, m),
    its offset from the nearest node _turns(b h M, m), and the rotation
    about ref _turns(b h / 2, m (odd* - ref)), exp(0) = 1 when ref = odd*.
    The moment rows are real, so the table comes from one rfft of them: the
    half spectrum, scaled in place by (-i)^p, is written back into the
    rows' own buffer as the real parts (and into one more P x M buffer as
    the imaginary parts), entries M/2 + 1 .. M - 1 mirrored by
    FFT(row)[M - k] = conj(FFT(row)[k]): (-1)^p times entry k's real part,
    -(-1)^p times its imaginary part.  No complex P x M array is made.  The
    build costs P M log2(M) units, and each value P Taylor terms.

    The read is real when the window has an odd number of cells, its masses
    equal their mirror image about j*, and ref = odd*: Q(theta) = sum_j m_j
    cos(2 pi theta (j - j*)) is then real, so only the real rows are kept and
    each value is one real Horner recurrence, with imaginary part exactly 0;
    the real parts are those the complex recurrence gives.  An even window
    mirrored about its middle is not real about j*, and stays complex.
    """
    odd = _middle_odd(mu)
    mid = (odd - 1) // 2 - mu.origin_index
    half = max(mu.size - 1 - mid, 1)
    order, size = _table_shape(mu.size)
    top = int(np.abs(n).max(initial=0))
    if order * size > _TABLE_ENTRIES or top * abs(odd - ref) >= _EXACT:
        return None
    h = mu.spacing
    step = 2 * math.pi * half / size
    mass = mu.masses
    real = odd == ref and mass.size % 2 == 1 and np.array_equal(mass, mass[::-1])

    def prepare():
        offsets = np.arange(-mid, mass.size - mid)
        term = mass
        rows = np.zeros((order, size))
        for p in range(order):
            rows[p, offsets % size] = term
            term = term * (offsets / half) / (p + 1)
        spec = rfft(rows, axis=-1)
        spec *= np.array([1, -1j, -1, 1j])[np.arange(order) % 4, None]
        # FFT(row)[M - k] = conj(FFT(row)[k]) for a real row, so entry M - k
        # of table row p is (-1)^p conj(entry k); re overwrites the moments
        parity = (-1.0) ** np.arange(order)[:, None]
        top = size // 2

        def unfold(part, sign, out):
            out[:, :top + 1] = part
            np.multiply(part[:, top - 1:0:-1], sign, out=out[:, top + 1:])
            return out
        re = unfold(spec.real, parity, rows)
        im = None if real else unfold(spec.imag, -parity, np.empty_like(rows))

        def values(b, m):
            b = b.reshape(b.shape + (1,) * m.ndim)
            u = _turns(b * (h * size), m)            # offset from the table node, in nodes
            k = np.rint(_turns(b * h, m) * size - u).astype(np.int64) & (size - 1)
            t = u * step
            vr = _horner(re, k, t)
            if real:
                return vr.astype(np.complex128)
            vi = _horner(im, k, t)
            # rotated in real arithmetic: numpy's complex multiply rounds
            # differently with the length of the array
            rot = np.exp(-2j * np.pi * _turns(b * (h / 2), m * (odd - ref)))
            vals = np.empty(vr.shape, dtype=np.complex128)
            vals.real = vr * rot.real - vi * rot.imag
            vals.imag = vr * rot.imag + vi * rot.real
            return vals
        return values
    cost = order * (_UNIT_NS["table"] * size * math.log2(size) + _UNIT_NS["taylor term"] * n.size)
    return cost, prepare


def fourier_lattice(mu: GridMeasure, s, n, reduce=None, centered: bool = False):
    """mu_hat(s_b * n) for every float scale s_b and an array n of exact
    integers, one row per scale; with reduce, reduce(rows) per batch,
    concatenated.  A batch holds about _BATCH values: several scales, or
    one scale and a slice of n's first axis when n has more than one axis
    (reduce must then keep that axis as its axis 1).

    _kernel picks the kernel from mu and n and prepares it (a Taylor table
    is built here, once); the batches, each reduced, then run in order.
    reduce must sum each row on its own (np.sum(rows * w, axis=-1), say):
    a BLAS product sums a lone row in another order than many rows, and a
    value would then depend on its batch.

    centered=True returns the transform of mu moved by -c*, c* the center
    of the middle cell of mu's occupied window, which has the same modulus.
    Refuses integers n that reach 2**52, and n whose phases no kernel keeps
    below 2**52.
    """
    n = np.asarray(n, dtype=np.int64)
    if reduce is None:
        reduce = np.asarray
    values = _kernel(mu, n, _middle_odd(mu) if centered else 0)[1]
    heads = [slice(None)]
    if n.ndim > 1 and n.size > _BATCH:
        rows = max(1, _BATCH // max(n[0].size, 1))
        heads = [slice(i, i + rows) for i in range(0, n.shape[0], rows)]
    parts = [reduce(values(b, n[head])) for b in _batches(s, n.size) for head in heads]
    if len(heads) > 1:
        parts = [np.concatenate(parts[i:i + len(heads)], axis=1)
                 for i in range(0, len(parts), len(heads))]
    return np.concatenate(parts)


def product_fourier(mu: GridMeasure, nu: GridMeasure, xi):
    """Transform of mu x nu at xi via the exact identity
    (mu x nu)^(xi) = integral of mu_hat(xi * y) d nu(y).

    Atom-exact: equals the double sum over cell-center pairs, so it serves as
    the routing-error oracle for the gridded multiplicative convolution.
    """
    return product_chain_fourier([mu, nu], xi)


def product_chain_fourier(measures, xi):
    """Transform of mu_1 x ... x mu_n (multiplicative) at xi, atom-exactly.

    A weighted sum of mu_1_hat(xi a) over every product a = n 2**-e of
    occupied centers of mu_2..mu_n, with exact odd integers n
    (odd_products), through fourier_lattice; refuses products that reach
    2**52 (see odd_products).
    """
    n, w, e = odd_products(measures[1:])
    scales = np.ravel(xi) * 2.0 ** -e
    return _shaped(fourier_lattice(measures[0], scales, n,
                                   lambda vals: np.sum(vals * w, axis=-1)), xi)


def l2_at_scale(mu: GridMeasure, delta):
    """L2 norm of the density of mu mollified at scale delta (a float), or at
    each of an array of scales (an array of that shape).

    ||m * w||_2^2 = sum over lags d of A_m(d) A_w(d), with A the
    autocorrelations of mu's masses and of the bump (kernel_weights, which
    refuses bad scales); over the spacing, that is the density's (_l2_rows).
    Equals regularize's norm to roundoff; every element equals the call at
    its one scale bit for bit.
    """
    return _shaped(_l2_rows([autocorrelation(mu.masses)], delta, mu.level)[0], delta)


def _l2_rows(acfs, delta, level: int) -> np.ndarray:
    """l2_at_scale's lag sum, one row per autocorrelation A of acfs (masses
    at level `level`, lags 0, 1, ...) and one column per scale of delta,
    flattened: sqrt(sum over lags -d .. d of A(d) A_w(d) / spacing).  Each
    bump is autocorrelated once, and its lags are cut to each A's."""
    bumps = [autocorrelation(kernel_weights(float(d), level)) for d in np.ravel(delta)]
    h = 2.0 ** -level
    # lags -d and d add the same term
    return np.array([[np.sqrt((2.0 * np.sum(am[:aw.size] * aw) - am[0] * aw[0]) / h)
                      for aw in (bump[:am.size] for bump in bumps)] for am in acfs])


@dataclass(frozen=True)
class DecayProfile:
    """Sampled |mu_hat| over a frequency band plus a fitted power-law exponent.

    tau_hat is the least-squares slope of -log|mu_hat| against log|xi|,
    ignoring samples below MAGNITUDE_FLOOR; it is +inf (with all_below_floor
    set) when no usable samples remain.
    """

    xi_samples: np.ndarray
    magnitudes: np.ndarray
    tau_hat: float
    fit_residual: float
    floor_hits: int
    all_below_floor: bool = False


def _fit_decay(xis: np.ndarray, mags: np.ndarray):
    """Least-squares power-law fit of the magnitude envelope.

    Transforms of interest oscillate through near-zeros inside the band;
    fitting every raw sample lets those nulls swing the slope by O(1)
    depending on where samples land.  Binning the band into log-uniform
    blocks and fitting the per-block maxima tracks the decay envelope and
    is stable against null placement.  Samples at or below the magnitude
    floor are discarded first; an all-floored band reports +inf with a flag.
    """
    usable = mags > MAGNITUDE_FLOOR
    floor_hits = int(np.sum(~usable))
    if np.sum(usable) < 2:
        return float("inf"), 0.0, floor_hits, True
    lx = np.log(xis[usable])
    lm = np.log(mags[usable])
    n_bins = max(3, min(12, lm.size // 4)) if lm.size >= 6 else lm.size
    edges = np.linspace(lx.min(), lx.max() + 1e-12, n_bins + 1)
    which = np.clip(np.digitize(lx, edges) - 1, 0, n_bins - 1)
    bx, bm = [], []
    for b in range(n_bins):
        sel = which == b
        if np.any(sel):
            i = np.argmax(lm[sel])
            bx.append(lx[sel][i])
            bm.append(lm[sel][i])
    bx = np.asarray(bx)
    bm = np.asarray(bm)
    if bx.size < 2:
        return float("inf"), 0.0, floor_hits, True
    # least-squares line through the centered points, in np.sums: a BLAS or
    # LAPACK solve would make the bits follow the BLAS core kernel
    dx = bx - np.sum(bx) / bx.size
    dy = bm - np.sum(bm) / bm.size
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    rms = float(np.sqrt(np.mean((dy - slope * dx) ** 2)))
    return float(-slope), rms, floor_hits, False


def band_samples(lo: float, hi: float, n_samples: int) -> np.ndarray:
    """n_samples log-uniform frequencies over [lo, hi], endpoints exactly lo and hi."""
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    if lo < 1 or hi <= lo:
        raise ValueError(f"band must satisfy 1 <= lo < hi, got lo={lo!r}, hi={hi!r}")
    return np.geomspace(lo, hi, n_samples)


def decay_profile(mu: GridMeasure, band: tuple[float, float], n_samples: int) -> DecayProfile:
    """Log-uniform band sampling of |mu_hat| with a power-law fit."""
    xis = band_samples(*band, n_samples)
    return profile_from_samples(xis, np.abs(fourier_many(mu, xis)))


def profile_from_samples(xis: np.ndarray, mags: np.ndarray) -> DecayProfile:
    """DecayProfile over precomputed band samples (e.g. product transforms)."""
    xis = np.asarray(xis, dtype=np.float64)
    mags = np.asarray(mags, dtype=np.float64)
    tau, rms, hits, dead = _fit_decay(xis, mags)
    return DecayProfile(xi_samples=xis, magnitudes=mags, tau_hat=tau,
                        fit_residual=rms, floor_hits=hits, all_below_floor=dead)


def order_check(mu: GridMeasure, nu: GridMeasure, xi):
    """Order-exchange inequality |(mu x nu)^(xi)|^2 <= ((mu - mu) x nu)^(xi).

    Returns (lhs, rhs) computed atom-exactly on the grid:
    lhs = |integral mu_hat(xi y) d nu|^2, rhs = integral |mu_hat(xi y)|^2 d nu.
    rhs is real and nonnegative, and lhs <= rhs holds with at most summation
    roundoff (it is the Cauchy-Schwarz inequality at the atomic level).
    """
    n, q, e = odd_products([nu])

    def sides(vals):
        total = np.sum(q * vals, axis=-1)   # hypot: Python's abs rounding, unlike np.abs
        return np.stack([np.hypot(total.real, total.imag) ** 2,
                         np.sum(q * np.abs(vals) ** 2, axis=-1)], axis=-1)

    both = fourier_lattice(mu, np.ravel(xi) * 2.0 ** -e, n, sides)
    return _shaped(both[:, 0], xi), _shaped(both[:, 1], xi)
