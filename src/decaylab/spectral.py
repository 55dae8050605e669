"""Fourier analysis of grid measures: transforms on frequency progressions,
L2 norms at a scale, decay profiles with fitted exponents, and the
Cauchy-Schwarz order exchange for multiplicative convolutions.

Every transform is atom-exact: mu_hat(xi) = sum m_j exp(-2 pi i xi c_j) over
the cell centers c_j = (o + j + 1/2) h.  Scattered frequencies (geomspace
fits, single points) go through fourier_many, a direct sum costing
O(occupied cells x frequencies).  Frequencies s * n with exact integers n
(products of odd cell indices of other factors, lattice distances) go
through fourier_lattice: P FFTs of length M tabulate the measure's moments
about its middle cell once, and each value costs O(P) by Taylor expansion
about the nearest table node (Anderson-Dahleh 1996), with phases reduced
exactly; product_chain_fourier and the induction chain's Pi^ use it.  The
other bulk frequencies are arithmetic progressions: xi times the centers
of a second measure, linspace quadrature grids.  fourier_progression serves
those, one row per progression, with a Bluestein chirp-z transform
(Rabiner-Schafer-Rader 1969; Bluestein 1970) in O(L log L) per row, where L
is the FFT length covering the window of mu plus the highest index wanted.
It falls back to the direct sum whenever that sum is cheaper, counting only
the frequencies actually asked for.  The chirp-z path reduces its phases
to turns with exact partial products, so it stays at roundoff (~1e-15 of
the mass) even where xi * c reaches millions of turns.  The product
transforms and order_check take a scalar xi (giving complex or floats) or an
array of any shape (giving that shape), one batch per band; each element
equals the scalar call at its xi bit for bit, as no value depends on its batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .measures import GridMeasure, next_fast_len, regularize

__all__ = [
    "fourier_at",
    "fourier_many",
    "fourier_progression",
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

# complex exponentials per direct-sum chunk: batched bands fill whole chunks;
# at 2**22 (~160 MB) `induction` peaked at 201.7 MiB RSS, at 2**18 at 104.5 MiB
# (2-CPU x86-64 VM)
_CHUNK = 1 << 18
# transform values held at once by _at_centers and fourier_lattice: at 2**20
# the Pi^ batches took `induction`'s own VmHWM to 119.6 MB, at 2**16 to 52 MB
# (2-CPU x86-64 VM)
_BATCH = 1 << 16
_CHAIN_ATOMS = 1 << 20  # atom products enumerated by odd_products
_TABLE_ENTRIES = 1 << 22  # P x M entries of one Taylor table (64 MiB)
_FFT_CHUNK = 1 << 18   # complex entries per chunk of batched chirp-z rows
_EXACT = 1 << 52       # integer factors of _turns must stay below this
# One direct-sum term (a complex exp, a multiply-add and their memory
# traffic) took 2-10x, median 4.4-4.8x over three sweeps, the time of one
# unit of L log2(2L) in a chirp-z row (three FFTs plus chirp exps) over
# windows of 64-16384 cells and 1-512 rows (numpy 2.4 numpy.fft, 2-CPU
# x86-64 VM).
_DIRECT_TERM_COST = 4


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v with every row summed in the multi-row (gemv) order: a one-row
    product would go to a dot kernel, so a lone row is paired with a copy."""
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ v)[:1]
    return a @ v


def fourier_many(mu: GridMeasure, xis: np.ndarray) -> np.ndarray:
    """mu_hat at many frequencies by direct sum, chunked so memory stays bounded."""
    xis = np.asarray(xis, dtype=np.float64)
    c, w = mu.occupied()
    out = np.empty(xis.shape, dtype=np.complex128)
    flat = xis.reshape(-1)
    res = out.reshape(-1)
    if c.size == 0:
        res[:] = 0.0
        return out
    rows = max(1, _CHUNK // c.size)
    for i in range(0, flat.size, rows):
        block = flat[i:i + rows, None] * c[None, :]
        res[i:i + rows] = _matvec(np.exp(-2j * np.pi * block), w)
    return out


def fourier_at(mu: GridMeasure, xi: float) -> complex:
    """mu_hat(xi); |result| <= total mass, and fourier_at(mu, -xi) is its conjugate."""
    return complex(fourier_many(mu, np.array([xi]))[0])


def _frac(p: np.ndarray) -> np.ndarray:
    """p minus its nearest integer, in place; exact for every double."""
    p -= np.rint(p)
    return p


def _turns(x, n) -> np.ndarray:
    """x * n modulo 1, in [-1/2, 1/2], for floats x and integers |n| < 2**52.

    x splits into two 26-bit halves (Veltkamp) and n into 26-bit limbs, so
    every partial product is exact and only the final sum rounds: the error
    is ~1e-15 turns, where fl(x * n) would be off by half an ulp of x * n.
    """
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


def _chirp_z_plan(mu: GridMeasure, count: int):
    """(masses over the occupied window, its first center c_0 as odd * h / 2,
    FFT length), or None when the integers of the phase reduction would
    leave the exact range."""
    nz = np.nonzero(mu.masses)[0]
    m = mu.masses[nz[0]:nz[-1] + 1]
    odd = 2 * (mu.origin_index + int(nz[0])) + 1
    span = max(m.size, count)
    if max(abs(odd), span) * span >= _EXACT:
        return None
    return m, odd, next_fast_len(m.size + count - 1)


def _chirp_z(mu: GridMeasure, start: np.ndarray, step: np.ndarray,
             ks: np.ndarray) -> np.ndarray:
    """mu_hat(start[b] + step[b] * k) for k in ks by Bluestein's chirp-z.

    With c_j = c_0 + j h over the occupied window and xi_k = a + b k,
    xi_k c_j = xi_k c_0 + a h j + alpha k j with alpha = b h, and
    k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum over j into a linear
    convolution against the chirp w_m = exp(i pi alpha m^2).  The chirp is
    built once per row and serves the pre-phase (j), the kernel (k - j) and
    the post-phase (k).  mu must carry mass; returns shape (rows, len(ks)).
    """
    count = int(ks.max()) + 1
    plan = _chirp_z_plan(mu, count)
    if plan is None:
        raise ValueError("progression too long for exact phase reduction")
    m, odd, length = plan
    n = m.size
    h = mu.spacing
    half = h / 2
    sq = np.arange(max(n, count), dtype=np.int64) ** 2
    j = np.arange(n, dtype=np.int64)
    odd_k = odd * ks
    out = np.empty((start.size, ks.size), dtype=np.complex128)
    rows = max(1, _FFT_CHUNK // length)
    for i in range(0, start.size, rows):
        a = start[i:i + rows, None]
        b = step[i:i + rows, None]
        w = np.exp(2j * np.pi * _turns(b * half, sq))
        pre = m * np.conj(w[:, :n]) * np.exp(-2j * np.pi * _turns(a * h, j))
        kern = np.zeros((a.shape[0], length), dtype=np.complex128)
        kern[:, :count] = w[:, :count]
        kern[:, length - n + 1:] = w[:, n - 1:0:-1]    # m = -(n-1) .. -1
        z = ifft(fft(pre, length, axis=-1) * fft(kern, axis=-1), axis=-1)
        post = _turns(a * half, odd) + _turns(b * half, odd_k)
        out[i:i + rows] = np.conj(w[:, ks]) * np.exp(-2j * np.pi * post) * z[:, ks]
    return out


def _use_direct(mu: GridMeasure, ks: np.ndarray) -> bool:
    """Cost model: a direct sum of occupied cells x wanted frequencies, at
    _DIRECT_TERM_COST each, against one chirp-z row of L log2(2L), both per
    progression."""
    plan = _chirp_z_plan(mu, int(ks.max()) + 1)
    if plan is None:
        return True
    m, _, length = plan
    return (_DIRECT_TERM_COST * np.count_nonzero(m) * ks.size
            <= length * math.log2(2 * length))


def fourier_progression(mu: GridMeasure, start, step, ks) -> np.ndarray:
    """mu_hat(start[b] + step[b] * k) for every k in ks, one row per progression.

    start and step broadcast to one 1-d array of rows, so many progressions
    go through one call; ks holds nonnegative integer indices (any order).
    Returns shape (rows, len(ks)).  Each call runs as a direct sum when that
    costs less than the chirp-z transform up to max(ks), else as chirp-z.
    """
    start, step = np.broadcast_arrays(np.atleast_1d(np.asarray(start, dtype=np.float64)),
                                      np.atleast_1d(np.asarray(step, dtype=np.float64)))
    if start.ndim != 1:
        raise ValueError("start and step must be scalars or 1-d arrays")
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ks.size and ks.min() < 0:
        raise ValueError("progression indices must be nonnegative")
    if ks.size == 0 or not np.any(mu.masses):
        return np.zeros((start.size, ks.size), dtype=np.complex128)
    if _use_direct(mu, ks):
        return fourier_many(mu, start[:, None] + step[:, None] * ks)
    return _chirp_z(mu, start, step, ks)


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


def _at_centers(mu: GridMeasure, nu: GridMeasure, scales, reduce) -> np.ndarray:
    """reduce(vals, q) per batch of scales, concatenated, with vals[b, j] =
    mu_hat(s_b * y_j) over the occupied centers y of nu and q nu's masses
    at those centers."""
    nz = np.nonzero(nu.masses)[0]
    first = int(nz[0]) if nz.size else 0
    c0 = (nu.origin_index + first + 0.5) * nu.spacing
    ks = nz - first
    return np.concatenate([reduce(fourier_progression(mu, s * c0, s * nu.spacing, ks),
                                  nu.masses[nz]) for s in _batches(scales, ks.size)])


def odd_products(measures):
    """Every product of one occupied center per measure as n * 2**-e with n
    an exact odd integer (last measure fastest), the products of their
    masses, and e; no measures give n = 1 of mass 1 and e = 0.

    Each center is (2 i + 1) 2**-(level + 1), so n multiplies the odd
    integers.  Refuses more than _CHAIN_ATOMS products, or n reaching 2**52.
    """
    n, w, e = np.ones(1, dtype=np.int64), np.ones(1), 0
    atoms = [np.nonzero(m.masses)[0] for m in measures]
    if math.prod(a.size for a in atoms) > _CHAIN_ATOMS:
        raise ValueError("product chain too dense for atom-exact evaluation")
    odds = [2 * (m.origin_index + a) + 1 for m, a in zip(measures, atoms)]
    if math.prod(int(np.abs(o).max(initial=1)) for o in odds) >= _EXACT:
        raise ValueError("atom products reach 2**52: too many or too fine "
                         "factors for exact phase reduction")
    for m, a, o in zip(measures, atoms, odds):
        n = np.multiply.outer(n, o).ravel()
        w = np.multiply.outer(w, m.masses[a]).ravel()
        e += m.level + 1
    return n, w, e


def _lattice_table(mu: GridMeasure):
    """Taylor tables of Q(theta) = sum_j m_j exp(-2 pi i theta (j - j*)) over
    mu's occupied window, j* its middle cell and `half` the larger distance
    from j* to the window's ends.

    Row p of the complex table is (-i)^p times the length-M FFT of
    m_j ((j - j*) / half)^p / p!, so that Q((k + u) / M) = sum_p row_p[k] t^p
    with t = 2 pi u half / M and |u| <= 1/2.  M is the power of two at
    least 8x the window and P the least order with
    (pi half / M)^P / P! <= 1e-16, which bounds the dropped terms by
    ~1e-16 of the mass.  Returns (real rows, imaginary rows, odd, half),
    with the center of j* at odd * h / 2; a measure without mass gets a
    zero table of its first cell.
    """
    nz = np.nonzero(mu.masses)[0]
    first, last = (int(nz[0]), int(nz[-1])) if nz.size else (0, 0)
    mid = (first + last) // 2
    half = max(last - mid, 1)
    size = 1 << (8 * (last - first + 1) - 1).bit_length()
    r = math.pi * half / size
    order = 1
    while r ** order / math.factorial(order) > 1e-16:
        order += 1
    if order * size > _TABLE_ENTRIES:
        raise ValueError(f"window of {last - first + 1} cells too wide for a "
                         f"Fourier table ({order} x {size} entries)")
    offsets = np.arange(first - mid, last - mid + 1)
    term = mu.masses[first:last + 1].copy()
    rows = np.zeros((order, size))
    for p in range(order):
        rows[p, offsets % size] = term
        term = term * (offsets / half) / (p + 1)
    table = fft(rows, axis=-1) * np.array([1, -1j, -1, 1j])[np.arange(order) % 4, None]
    return table.real.copy(), table.imag.copy(), 2 * (mu.origin_index + mid) + 1, half


def fourier_lattice(mu: GridMeasure, s, n, reduce=None, centered: bool = False):
    """mu_hat(s_b * n) for every float scale s_b and an array n of exact
    integers, one row per scale; with reduce, reduce(rows) per batch,
    concatenated.  A batch holds about _BATCH values: several scales, or
    one scale and a slice of n's first axis when n has more than one axis
    (reduce must then keep that axis as its axis 1).

    mu_hat(nu) = exp(-2 pi i nu c*) Q(frac(nu h)), with c* the center of
    the window's middle cell and Q its 1-periodic trigonometric polynomial,
    read from the Taylor tables of _lattice_table at O(P) per value.  With
    nu = s n the phases reduce exactly: frac(nu h) = _turns(s h, n), its
    offset from the nearest table node _turns(s h M, n), and nu c* =
    _turns(s h / 2, n odd*).  centered=True returns Q(frac(nu h)), the
    transform of mu moved by -c*, which has the same modulus.  Refuses
    integers n, or n odd* when the phase is kept, that reach 2**52, and
    windows whose table would pass _TABLE_ENTRIES entries.
    """
    n = np.asarray(n, dtype=np.int64)
    if reduce is None:
        reduce = np.asarray
    re, im, odd, half = _lattice_table(mu)
    size = re.shape[1]
    top = int(np.abs(n).max(initial=0)) * (1 if centered else abs(odd))
    if top >= _EXACT:
        raise ValueError("lattice integers reach 2**52: phases would lose exactness")
    h = mu.spacing
    step = 2 * math.pi * half / size

    def values(b, m):
        b = b.reshape(b.shape + (1,) * m.ndim)
        u = _turns(b * (h * size), m)            # offset from the table node, in nodes
        k = np.rint(_turns(b * h, m) * size - u).astype(np.int64) & (size - 1)
        t = u * step
        vr, vi = re[-1][k], im[-1][k]
        for p in range(re.shape[0] - 2, -1, -1):
            vr *= t
            vr += re[p][k]
            vi *= t
            vi += im[p][k]
        vals = np.empty(vr.shape, dtype=np.complex128)
        if centered:
            vals.real, vals.imag = vr, vi
        else:       # rotated in real arithmetic: numpy's complex multiply
            # rounds differently with the length of the array
            rot = np.exp(-2j * np.pi * _turns(b * (h / 2), m * odd))
            vals.real = vr * rot.real - vi * rot.imag
            vals.imag = vr * rot.imag + vi * rot.real
        return vals

    heads = [slice(None)]
    if n.ndim > 1 and n.size > _BATCH:
        rows = max(1, _BATCH // max(n[0].size, 1))
        heads = [slice(i, i + rows) for i in range(0, n.shape[0], rows)]
    out = []
    for b in _batches(s, n.size):
        parts = [reduce(values(b, n[head])) for head in heads]
        out.append(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))
    return np.concatenate(out)


def product_fourier(mu: GridMeasure, nu: GridMeasure, xi):
    """Transform of mu x nu at xi via the exact identity
    (mu x nu)^(xi) = integral of mu_hat(xi * y) d nu(y).

    Atom-exact: equals the double sum over cell-center pairs, so it serves as
    the routing-error oracle for the gridded multiplicative convolution.
    """
    return _shaped(_at_centers(mu, nu, xi, lambda vals, q: np.sum(q * vals, axis=-1)), xi)


def product_chain_fourier(measures, xi):
    """Transform of mu_1 x ... x mu_n (multiplicative) at xi, atom-exactly.

    A weighted sum of mu_1_hat(xi a) over every product a = n 2**-e of
    occupied centers of mu_2..mu_n, read from one Taylor table of mu_1
    (fourier_lattice) with exact odd integers n.  Cost: one table of
    mu_1's window, then O(P) per atom product of mu_2..mu_n and per xi;
    refuses products that reach 2**52 (see odd_products).
    """
    n, w, e = odd_products(measures[1:])
    scales = np.ravel(xi) * 2.0 ** -e
    return _shaped(fourier_lattice(measures[0], scales, n, lambda vals: _matvec(vals, w)), xi)


def l2_at_scale(mu: GridMeasure, delta: float) -> float:
    """L2 norm of the density of mu mollified at scale delta."""
    md = regularize(mu, delta)
    return float(np.sqrt(np.sum(md.masses ** 2) / md.spacing))


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
    A = np.vstack([bx, np.ones_like(bx)]).T
    coef, *_ = np.linalg.lstsq(A, bm, rcond=None)
    resid = bm - A @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(-coef[0]), rms, floor_hits, False


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
    def sides(vals, q):
        total = np.sum(q * vals, axis=-1)   # hypot: Python's abs rounding, unlike np.abs
        return np.stack([np.hypot(total.real, total.imag) ** 2,
                         np.sum(q * np.abs(vals) ** 2, axis=-1)], axis=-1)

    both = _at_centers(mu, nu, xi, sides)
    return _shaped(both[:, 0], xi), _shaped(both[:, 1], xi)
