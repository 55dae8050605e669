"""Measures as nonnegative mass vectors on dyadic grids.

A GridMeasure at level m assigns one mass to each cell
[origin + i*2**-m, origin + (i+1)*2**-m) of a bounded window; the origin is
itself a multiple of the cell width, tracked as an integer index.  All
operations are pure: they return new measures and never mutate inputs.

Conventions baked in here and relied on everywhere else:
  * quadrature of densities uses the midpoint rule per cell;
  * atoms bin to the half-open cell containing them (boundary ties go right);
  * Fourier sums and energy kernels treat each cell as an atom at its center;
  * windows are closed on the left, open on the right.

Experiments at a nominal scale delta = 2**-m run their grids 8x finer
(OVERSAMPLE_BITS = 3) so that phases at |xi| <= 2/delta stay resolved.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np
from numpy.fft import irfft, rfft

from .dyadic import DyadicGridSet

__all__ = [
    "OVERSAMPLE_BITS",
    "GridMeasure",
    "bump_profile",
    "kernel_weights",
    "from_density",
    "from_atoms",
    "uniform_measure",
    "point_mass",
    "regularize",
    "pushforward_affine",
    "mask_measure",
    "ball_mass_vector",
    "l1_distance",
    "next_fast_len",
    "fftconvolve",
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
        m = np.ascontiguousarray(np.asarray(self.masses, dtype=np.float64))
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        neg = m < 0
        if np.any(neg):
            worst = float(m[neg].min())
            if worst < -1e-15 * max(1.0, float(np.abs(m).max())):
                raise ValueError(f"negative mass {worst}")
            m = m.copy()
            m[neg] = 0.0
        m.setflags(write=False)
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
        nz = np.nonzero(self.masses)[0]
        if nz.size == 0:
            return (self.origin, self.origin)
        return (self.origin + nz[0] * self.spacing,
                self.origin + (nz[-1] + 1) * self.spacing)

    def centers(self) -> np.ndarray:
        return (self.origin_index + np.arange(self.size) + 0.5) * self.spacing

    def parent_cells(self, level: int) -> np.ndarray:
        """Index of the level-`level` cell holding each cell of the window,
        for a level no finer than the measure's."""
        return (self.origin_index + np.arange(self.size)) >> (self.level - level)

    def occupied(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell centers, masses) restricted to cells with positive mass."""
        nz = np.nonzero(self.masses)[0]
        return ((self.origin_index + nz + 0.5) * self.spacing, self.masses[nz])

    # -- basic transforms ---------------------------------------------------------
    def normalized(self) -> "GridMeasure":
        if self.total_mass <= 0:
            raise ValueError("cannot normalize a zero measure")
        return GridMeasure(self.level, self.origin_index, self.masses / self.total_mass)

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

    def trimmed(self) -> "GridMeasure":
        """Drop zero-mass cells at both ends of the window."""
        nz = np.nonzero(self.masses)[0]
        if nz.size == 0 or (nz[0] == 0 and nz[-1] == self.size - 1):
            return self
        return GridMeasure(self.level, self.origin_index + int(nz[0]),
                           self.masses[nz[0]:nz[-1] + 1])

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
        return GridMeasure(level, int(scaled), mu.masses)


def assert_mass_conserved(before: float, after: float, what: str = "operation"):
    if abs(after - before) > _MASS_RTOL * max(1.0, abs(before)):
        raise AssertionError(f"{what} lost mass: {before} -> {after}")


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
    A self-convolution (b is a) transforms each vector once.
    """
    n = a.size + b.size - 1
    length = next_fast_len(n, real=True)
    fa, occ_a = rfft(a, length), rfft(a > 0, length)
    fb, occ_b = (fa, occ_a) if b is a else (rfft(b, length), rfft(b > 0, length))
    hit = irfft(occ_a * occ_b, length)[:n] > 0.5
    return np.where(hit, np.maximum(irfft(fa * fb, length)[:n], 0.0), 0.0)


# ---------------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------------

def _window_indices(window: tuple[float, float], level: int) -> tuple[int, int]:
    a, b = window
    if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
        raise ValueError(f"bad window {window}")
    h = 2.0 ** -level
    lo = int(np.floor(a / h + 1e-9))
    hi = int(np.ceil(b / h - 1e-9))
    return lo, max(hi, lo + 1)


def from_density(fn, window: tuple[float, float], level: int) -> GridMeasure:
    """Probability measure binned from a density by the midpoint rule and
    normalized to mass 1; rejects negative samples.

    Cells whose centers fall outside [a, b) carry no mass, so non-dyadic
    window endpoints do not leak density into the rounded-out cells.
    """
    lo, hi = _window_indices(window, level)
    h = 2.0 ** -level
    centers = (np.arange(lo, hi) + 0.5) * h
    inside = (centers >= window[0]) & (centers < window[1])
    vals = np.where(inside, np.asarray(fn(centers), dtype=np.float64), 0.0)
    if np.any(vals < 0):
        bad = centers[np.argmin(vals)]
        raise ValueError(f"density is negative at x={bad}")
    return GridMeasure(level, lo, vals * h).normalized()


def from_atoms(atoms, window: tuple[float, float], level: int) -> GridMeasure:
    """Probability measure giving each atom equal mass, binned to half-open
    cells (boundary ties go right)."""
    atoms = np.asarray(atoms, dtype=np.float64)
    a, b = window
    if atoms.size == 0:
        raise ValueError("need at least one atom")
    out_of_window = (atoms < a) | (atoms > b)
    if np.any(out_of_window):
        raise ValueError(f"atom outside window: x={atoms[out_of_window][0]}")
    lo, hi = _window_indices(window, level)
    h = 2.0 ** -level
    idx = np.floor(atoms / h).astype(np.int64)
    idx = np.clip(idx, lo, hi - 1)          # right-endpoint atoms fold into the window
    masses = np.zeros(hi - lo, dtype=np.float64)
    np.add.at(masses, idx - lo, 1.0 / atoms.size)
    return GridMeasure(level, lo, masses).normalized()


def uniform_measure(a: float, b: float, level: int) -> GridMeasure:
    """Uniform probability measure on [a, b] at the given grid level."""
    return from_density(lambda x: np.ones_like(x), (a, b), level)


def point_mass(x: float, level: int) -> GridMeasure:
    """Unit atom at x in a window of one cell either side of it."""
    h = 2.0 ** -level
    if not x - h < x < x + h:
        raise ValueError(f"point x={x!r} is too far from 0 for a level-{level} "
                         f"grid: x +- 2**-{level} rounds to x in float64")
    return from_atoms([x], (x - h, x + h), level)


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
    """Discretized bump at cell resolution, normalized to total weight 1.

    Sampled at cell centers k*2**-level for |k| <= delta * 2**level; the
    sandwich (1 inside [-delta/2, delta/2], 0 outside [-delta, delta]) holds
    cell-exactly before normalization.
    """
    h = 2.0 ** -level
    K = int(round(delta / h))
    if K < 1:
        raise ValueError(f"delta={delta} is below grid resolution {h}")
    k = np.arange(-K, K + 1)
    w = bump_profile(k * h / delta)
    return w / w.sum()


def regularize(mu: GridMeasure, delta: float) -> GridMeasure:
    """Mollify at scale delta: mass-preserving convolution with the bump.

    delta must be a dyadic multiple of the grid spacing; the support grows by
    at most delta on each side.  The bump's two end taps are 0, so a cell
    carries mass exactly when an occupied cell lies within delta - spacing
    of it (fftconvolve's exact support).
    """
    h = mu.spacing
    ratio = delta / h
    K = int(round(ratio))
    if K < 1:
        raise ValueError(f"cannot resolve kernel: delta={delta} < spacing {h}")
    if abs(ratio - K) > 1e-9 or (K & (K - 1)) != 0:
        raise ValueError(f"delta={delta} is not a dyadic multiple of spacing {h}")
    if K == 1:
        return mu
    out = fftconvolve(mu.masses, kernel_weights(delta, mu.level))
    # the kernel has weight 1, so only roundoff may move the unscaled mass
    tot = float(out.sum())
    assert_mass_conserved(mu.total_mass, tot, "regularize")
    if tot > 0:
        out *= mu.total_mass / tot
    return GridMeasure(mu.level, mu.origin_index - K, out)


# ---------------------------------------------------------------------------------
# pushforward, restriction, ball mass
# ---------------------------------------------------------------------------------

def pushforward_affine(mu: GridMeasure, a: float, b: float,
                       level: int | None = None) -> GridMeasure:
    """Image of mu under x -> a*x + b, re-binned at the requested level.

    Each source cell is treated as carrying uniform mass, so its image
    interval is split across target cells proportionally to overlap; the map
    is exactly mass-preserving.  a = 0 is rejected (use point_mass instead).
    """
    if a == 0:
        raise ValueError("degenerate map a=0; use an explicit point mass")
    out_level = mu.level if level is None else level
    h_in, h_out = mu.spacing, 2.0 ** -out_level
    edges = (mu.origin_index + np.arange(mu.size + 1)) * h_in
    img = a * edges + b
    left = np.minimum(img[:-1], img[1:])
    right = np.maximum(img[:-1], img[1:])
    lo_idx = np.floor(left / h_out).astype(np.int64)
    hi_idx = np.ceil(right / h_out).astype(np.int64) - 1   # [left, right) never touches a cell starting at right
    hi_idx = np.maximum(hi_idx, lo_idx)
    base = int(lo_idx.min())
    nspan = int(hi_idx.max()) - base + 1
    out = np.zeros(nspan, dtype=np.float64)
    width = right - left
    max_span = int((hi_idx - lo_idx).max()) + 1
    for k in range(max_span):
        idx = lo_idx + k
        active = idx <= hi_idx
        if not np.any(active):
            break
        cell_lo = idx * h_out
        ov = np.minimum(right, cell_lo + h_out) - np.maximum(left, cell_lo)
        frac = np.where(active, np.maximum(ov, 0.0) / width, 0.0)
        np.add.at(out, idx - base, frac * mu.masses)
    res = GridMeasure(out_level, base, out)
    assert_mass_conserved(mu.total_mass, res.total_mass, "pushforward_affine")
    return res


def mask_measure(mu: GridMeasure, A: DyadicGridSet) -> GridMeasure:
    """mu restricted to A as a sub-measure; `.normalized()` makes it a probability."""
    if A.level > mu.level:
        raise ValueError("restriction set must live at a level <= the measure's")
    mask = np.isin(mu.parent_cells(A.level), A.cells)
    return GridMeasure(mu.level, mu.origin_index, np.where(mask, mu.masses, 0.0))


def ball_mass_vector(mu: GridMeasure, r: float) -> np.ndarray:
    """mu(B(c_i, r)) for every grid center c_i, cells counted by center.

    Sliding-window sum, exact for the discretized measure; nondecreasing in r.
    """
    if r < mu.spacing:
        raise ValueError(f"r={r} below grid scale {mu.spacing}")
    k = int(np.floor(r / mu.spacing + 1e-12))   # |c_j - c_i| <= r  <=>  |j - i| <= k
    csum = np.concatenate([[0.0], np.cumsum(mu.masses)])
    n = mu.size
    i = np.arange(n)
    lo = np.maximum(i - k, 0)
    hi = np.minimum(i + k + 1, n)
    return csum[hi] - csum[lo]


def l1_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    """Transport (L^1-of-CDF) distance between two grid measures.

    This is the natural metric at grid resolution: moving mass m by one cell
    changes the distance by m * spacing, so re-binning slop stays O(spacing).
    """
    level, _, a, b = _common_grid(mu, nu)
    return float(np.sum(np.abs(np.cumsum(a - b))) * 2.0 ** -level)


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
