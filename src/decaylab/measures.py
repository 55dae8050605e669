"""Measures as nonnegative mass vectors on dyadic grids.

A GridMeasure at level m assigns one mass to each cell
[origin + i*2**-m, origin + (i+1)*2**-m) of a bounded window; the origin is
itself a multiple of the cell width, tracked as an integer index.  All
operations are pure: they return new measures and never mutate inputs.

Conventions baked in here and relied on everywhere else:
  * uniform, point, comb, shifted-comb and Cantor inputs are uniform on a
    set of cells: exactly 1/N on each of their N cells, in the window from
    the first cell to the last; uniform_measure(a, b) takes the cells whose
    centers lie in [a, b);
  * a point mass sits on the half-open cell containing it (a tie goes right);
  * a window is the hull of its occupied cells: GridMeasure keeps the cells
    from the first that carries mass to the last, whatever window it is
    given, and refuses a window in which no cell carries mass;
  * Fourier sums and energy kernels treat each cell as an atom at its center,
    (2 k + 1) 2**-(level + 1) for cell index k; GridMeasure.atoms gives the
    exact odd numerators 2 k + 1, and every cell index k of a hull has
    |k| < 2**62, so those numerators never wrap int64;
  * windows are closed on the left, open on the right;
  * masses are nonnegative: producers only add or multiply nonnegative
    masses or take differences of a nondecreasing prefix sum (convolution's
    mul), fftconvolve clips its roundoff where it arises, and GridMeasure
    refuses any negative mass.

Experiments at a nominal scale delta = 2**-m run their grids 8x finer
(OVERSAMPLE_BITS = 3) so that phases at |xi| <= 2/delta stay resolved.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np
from numpy.fft import irfft, rfft

from .dyadic import _MUL_PRODUCT_LIMIT, DyadicGridSet

__all__ = [
    "OVERSAMPLE_BITS",
    "GridMeasure",
    "bump_profile",
    "kernel_weights",
    "uniform_measure",
    "point_mass",
    "regularize",
    "ball_mass_vector",
    "next_fast_len",
    "fftconvolve",
    "autocorrelation",
]

# experiments at nominal scale 2**-m use an internal grid at 2**-(m+3)
OVERSAMPLE_BITS = 3

# summed-mass roundoff of the FFT convolutions, routed products and
# mollifications stays below 4e-15 relative across the test suite; 1e-12
# leaves >250x headroom and still catches any real loss
_MASS_RTOL = 1e-12


@dataclass(frozen=True)
class GridMeasure:
    """Mass vector on a dyadic grid; immutable after construction."""

    level: int
    origin_index: int
    masses: np.ndarray

    def __post_init__(self):
        if not 1 <= self.level <= 1022:     # 2**-1023 is no longer a normal double
            raise ValueError(f"level must lie in [1, 1022], got {self.level}")
        m = np.asarray(self.masses, dtype=np.float64)
        if m.ndim != 1:
            raise ValueError("masses must be a 1-d array")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        if np.any(m < 0):
            raise ValueError(f"negative mass {float(m.min())}")
        nz = np.flatnonzero(m)
        if nz.size == 0:
            raise ValueError("masses must carry mass: no cell is nonzero")
        # the window is the hull of the occupied cells
        first = int(nz[0])
        m = m[first:int(nz[-1]) + 1].copy()     # a copy: the caller keeps its array
        lo = index(self.origin_index) + first
        if max(abs(lo), abs(lo + m.size - 1)) >= _MUL_PRODUCT_LIMIT:
            raise ValueError(f"level-{self.level} window of cells {lo} .. {lo + m.size - 1}: "
                             f"cell indices reach 2**62 (too far from 0 for int64 atoms)")
        m.setflags(write=False)
        object.__setattr__(self, "origin_index", lo)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "_total", float(np.sum(m)))

    # -- geometry ---------------------------------------------------------------
    @property
    def spacing(self) -> float:
        return 2.0 ** -self.level

    @property
    def origin(self) -> float:
        return self.origin_index * self.spacing

    @property
    def size(self) -> int:
        return int(self.masses.size)

    @property
    def total_mass(self) -> float:
        return self._total

    def support(self) -> tuple[float, float]:
        """Window of the cells that actually carry mass (left-closed, right-open)."""
        return (self.origin, self.origin + self.size * self.spacing)

    def parent_cells(self, level: int) -> np.ndarray:
        """Index of the level-`level` cell holding each cell of the window,
        for a level no finer than the measure's."""
        return (self.origin_index + np.arange(self.size)) >> (self.level - level)

    def atoms(self, ref: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(odd, masses) over the cells k carrying mass, in order: odd is
        the int64 numerator 2 (origin_index + k) + 1 - ref of cell k's
        center (2 (origin_index + k) + 1) 2**-(level + 1), taken about the
        odd index ref.  The one place that writes this encoding.  It never
        wraps for ref 0, as |origin_index + k| < 2**62, nor for ref the odd
        index of a cell of the window."""
        nz = np.nonzero(self.masses)[0]
        return 2 * (self.origin_index + nz) + 1 - ref, self.masses[nz]

    # -- basic transforms ---------------------------------------------------------
    def refined(self, level: int) -> "GridMeasure":
        """Same measure on a finer grid; each cell splits into equal-mass children."""
        if level < self.level:
            raise ValueError("refined() cannot coarsen")
        if level == self.level:
            return self
        f = 1 << (level - self.level)
        out = np.repeat(self.masses / f, f)
        return GridMeasure(level, self.origin_index * f, out)

    def coarsened(self, level: int) -> "GridMeasure":
        """Mass aggregated onto a coarser grid (exact re-binning)."""
        if level > self.level:
            raise ValueError("coarsened() cannot refine")
        if level == self.level:
            return self
        idx = self.parent_cells(level)
        lo = int(idx[0])
        return GridMeasure(level, lo, np.bincount(idx - lo, weights=self.masses))

    def density(self) -> np.ndarray:
        return self.masses / self.spacing

    def occupied_set(self, level: int | None = None) -> DyadicGridSet:
        """Cells carrying mass, as a dyadic set (optionally coarsened)."""
        nz = np.nonzero(self.masses)[0]
        s = DyadicGridSet(self.level, self.origin_index + nz)
        return s if level is None or level == self.level else s.coarsened(level)

    # -- serialization --------------------------------------------------------------
    def to_text(self) -> str:
        head = [f"level {self.level}",
                f"origin {self.origin!r}",
                f"count {self.size}"]
        return "\n".join(head + [repr(float(v)) for v in self.masses]) + "\n"

    @staticmethod
    def from_text(text: str) -> "GridMeasure":
        """Inverse of to_text; a malformed file raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = [ln.split() for ln in lines[:3]]
        if [h[0] for h in head] != ["level", "origin", "count"] \
                or any(len(h) != 2 for h in head):
            raise ValueError("header must be the lines 'level L', 'origin X', "
                             "'count N', in that order")
        level, origin, count = int(head[0][1]), float(head[1][1]), int(head[2][1])
        body = lines[3:]
        if len(body) != count:
            raise ValueError(f"count {count} declared, {len(body)} values given")
        # built at origin 0 first, so a bad level is refused before it scales
        mu = GridMeasure(level, 0, np.array([float(v) for v in body], dtype=np.float64))
        scaled = origin / mu.spacing
        if not scaled.is_integer():
            raise ValueError(f"origin {origin!r} is not on the level-{level} grid")
        return GridMeasure(level, int(scaled) + mu.origin_index, mu.masses)


def assert_mass_conserved(before: float, after: float, what: str = "operation"):
    if abs(after - before) > _MASS_RTOL * max(1.0, abs(before)):
        raise AssertionError(f"{what} lost mass: {before} -> {after}")


def rescaled_measure(level: int, origin: int, out: np.ndarray, mass: float,
                     what: str) -> GridMeasure:
    """GridMeasure(level, origin, out) with out, nonnegative, rescaled in
    place to total `mass` once the mass check passes on its unscaled sum.
    An out whose masses all underflowed to 0 is refused, as GridMeasure
    refuses it, before the division."""
    tot = float(out.sum())
    assert_mass_conserved(mass, tot, what)
    if tot == 0:
        GridMeasure(level, origin, out)     # raises: no cell carries mass
    out *= mass / tot
    return GridMeasure(level, origin, out)


# ---------------------------------------------------------------------------------
# FFT kernels
# ---------------------------------------------------------------------------------

# ~50 us a call at n ~ 2000; a run asks for a few lengths many times over
@lru_cache(maxsize=1024)
def next_fast_len(n: int, real: bool = False) -> int:
    """Smallest FFT length >= n with no prime factor above 5 (real input) or
    11 (complex input): the lengths pocketfft runs fastest, and the ones
    scipy.fft.next_fast_len picks."""
    n = index(n)
    if n < 0:
        raise ValueError(f"FFT length must be nonnegative, got {n}")
    if n <= 1:
        return n
    best = 1 << (n - 1).bit_length()
    odd = [1]                      # odd smooth numbers below that power of 2
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for q in odd:
            while q < best:
                grown.append(q)
                q *= p
        odd = grown
    for q in odd:
        # q * 2**e with the least e reaching n
        best = min(best, q << (-(-n // q) - 1).bit_length())
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two nonnegative 1-d vectors by real FFTs at
    the next fast length (bool operands count as 0/1).

    The support is exact: an entry is nonzero only where some pair of nonzero
    entries lands.  The pair counts come from a second convolution, of the
    0/1 occupancy vectors, whose roundoff stays far below 1/2 at any size;
    FFT roundoff elsewhere is zeroed, and negative roundoff is clipped to 0.
    A self-convolution (b is a) transforms each vector once.  Callers:
    add/sub, regularize and additive_energy (autocorrelations do not need it).
    """
    n = a.size + b.size - 1
    length = next_fast_len(n, real=True)
    fa, occ_a = rfft(a, length), rfft(a > 0, length)
    fb, occ_b = (fa, occ_a) if b is a else (rfft(b, length), rfft(b > 0, length))
    hit = irfft(occ_a * occ_b, length)[:n] > 0.5
    return np.where(hit, np.maximum(irfft(fa * fb, length)[:n], 0.0), 0.0)


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """A(d) = sum_i x_i x_{i+d} at the lags d = 0 .. x.size - 1: irfft(|rfft(x)|^2)
    at a length no lag wraps past, two transforms.  The support is not exact:
    a lag no pair of nonzero entries spans holds roundoff (~1e-16 of A(0))."""
    length = next_fast_len(2 * x.size - 1, real=True)
    f = rfft(x, length)
    return irfft(f.real ** 2 + f.imag ** 2, length)[:x.size]


# ---------------------------------------------------------------------------------
# uniform inputs
# ---------------------------------------------------------------------------------

def _uniform_on(level: int, cells: np.ndarray) -> GridMeasure:
    """Uniform probability measure on nonempty, sorted, distinct level-`level`
    cells: mass exactly 1.0 / cells.size on each, in the window from the first
    cell to the last.  The one place that writes uniform masses."""
    lo = int(cells[0])
    masses = np.zeros(int(cells[-1]) - lo + 1)
    masses[cells - lo] = 1.0 / cells.size
    return GridMeasure(level, lo, masses)


def uniform_measure(a: float, b: float, level: int) -> GridMeasure:
    """Uniform probability measure on the cells whose centers lie in [a, b)."""
    if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
        raise ValueError(f"bad window {(a, b)}")
    h = 2.0 ** -level
    cells = np.arange(int(np.floor(a / h)), int(np.ceil(b / h)))
    centers = (cells + 0.5) * h
    cells = cells[(centers >= a) & (centers < b)]
    if cells.size == 0:
        raise ValueError(f"no level-{level} cell center lies in [{a}, {b})")
    return _uniform_on(level, cells)


def point_mass(x: float, level: int) -> GridMeasure:
    """Unit atom on the one cell containing x (a tie goes right)."""
    h = 2.0 ** -level
    if not x - h < x < x + h:
        raise ValueError(f"point x={x!r} is too far from 0 for a level-{level} "
                         f"grid: x +- 2**-{level} rounds to x in float64")
    return _uniform_on(level, np.array([int(np.floor(x / h))]))


# ---------------------------------------------------------------------------------
# mollification kernel
# ---------------------------------------------------------------------------------

def bump_profile(u) -> np.ndarray:
    """Radially decreasing bump: 1 on [-1/2, 1/2], 0 outside [-1, 1].

    The shoulders are the cubic 1 - (3t^2 - 2t^3) with t = 2|u| - 1, making
    the profile C^1 and monotone on each side.
    """
    u = np.abs(np.asarray(u, dtype=np.float64))
    t = np.clip(2.0 * u - 1.0, 0.0, 1.0)
    return 1.0 - (3.0 * t * t - 2.0 * t ** 3)


def kernel_weights(delta: float, level: int) -> np.ndarray:
    """Discretized bump at cell resolution, scaled to total weight 1.

    delta must be a dyadic multiple K = 2^j >= 1 of the spacing h = 2**-level
    (the one copy of that check).  Sampled at cell centers k*h for |k| <= K;
    the sandwich (1 inside [-delta/2, delta/2], 0 outside [-delta, delta])
    holds cell-exactly before normalization, so the end taps are 0.
    """
    h = 2.0 ** -level
    ratio = delta / h
    K = int(round(ratio))
    if K < 1:
        raise ValueError(f"cannot resolve kernel: delta={delta} < spacing {h}")
    if abs(ratio - K) > 1e-9 or (K & (K - 1)) != 0:
        raise ValueError(f"delta={delta} is not a dyadic multiple of spacing {h}")
    k = np.arange(-K, K + 1)
    w = bump_profile(k * h / delta)
    return w / w.sum()


def regularize(mu: GridMeasure, delta: float) -> GridMeasure:
    """Mollify at scale delta: mass-preserving convolution with the bump.

    delta must be a dyadic multiple of the grid spacing (kernel_weights); the
    support grows by at most delta on each side.  The bump's two end taps are
    0, so a cell carries mass exactly when an occupied cell lies within
    delta - spacing of it (fftconvolve's exact support), and the output's
    window is exactly those cells from the first to the last.
    """
    w = kernel_weights(delta, mu.level)
    K = w.size // 2
    if K == 1:
        return mu
    # the kernel has weight 1, so only roundoff may move the unscaled mass
    return rescaled_measure(mu.level, mu.origin_index - K, fftconvolve(mu.masses, w),
                            mu.total_mass, "regularize")


# ---------------------------------------------------------------------------------
# ball mass
# ---------------------------------------------------------------------------------

def ball_mass_vector(mu: GridMeasure, r: float) -> np.ndarray:
    """mu(B(c_i, r)) for every grid center c_i, cells counted by center.

    Sliding-window sum, exact for the discretized measure; nondecreasing in r.
    """
    return next(_ball_masses(mu, (r,)))


def _ball_masses(mu: GridMeasure, radii):
    """ball_mass_vector(mu, r) for each r of radii in turn, all read off one
    prefix sum csum: the ball of center i holds the cells |j - i| <= k, so
    its mass is csum[min(i + k + 1, n)] - csum[max(i - k, 0)], both operands
    taken from slices of csum."""
    csum = np.concatenate([[0.0], np.cumsum(mu.masses)])
    n = mu.size
    for r in radii:
        if r < mu.spacing:
            raise ValueError(f"r={r} below grid scale {mu.spacing}")
        k = int(np.floor(r / mu.spacing + 1e-12))   # |c_j - c_i| <= r  <=>  |j - i| <= k
        # balls of the first `lo` centers start at cell 0; those of centers
        # from `hi` on end at the last cell
        lo, hi = min(k + 1, n), max(n - k, 0)
        out = np.empty(n)
        out[:hi] = csum[k + 1:]
        out[hi:] = csum[n]
        out[:lo] -= csum[0]
        out[lo:] -= csum[1:n + 1 - lo]
        yield out


def _common_grid(mu: GridMeasure, nu: GridMeasure):
    """(level, origin index, mu's masses, nu's masses) on the finer of the two
    levels and the smallest window holding both, zero-padded."""
    level = max(mu.level, nu.level)
    a, b = mu.refined(level), nu.refined(level)
    lo = min(a.origin_index, b.origin_index)
    out = np.zeros((2, max(a.origin_index + a.size, b.origin_index + b.size) - lo))
    for row, m in zip(out, (a, b)):
        row[m.origin_index - lo:m.origin_index - lo + m.size] = m.masses
    return level, lo, out[0], out[1]
