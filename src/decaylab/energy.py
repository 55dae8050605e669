"""Riesz s-energies of grid measures, spatial and frequency side, plus the
non-concentration machinery built on them: Frostman constants over dyadic
scales, exceptional-set removal, and extraction of non-concentrated subsets
with certified (delta, s, K) behaviour.

Spatial energy of the mollified measure mu_delta:

    I_s = sum_{i != j} m_i m_j |c_i - c_j|^{-s}  +  diagonal term,

where the diagonal uses the exact Riesz integral of a uniform cell pair,
2 h^{-s} / ((1-s)(2-s)) per unit mass squared.  Since the kernel depends
only on i - j, the double sum collapses to an autocorrelation, computed by
measures.fftconvolve in O(N log N): the same sum up to roundoff, and exactly
0 at every distance no pair of occupied cells spans.  A direct method is kept
for oracle comparisons.

Frequency-side energy integrates |mu_hat_delta|^2 |xi|^(s-1).  The weight
|xi|^(s-1) (not |xi|^(-s)) is the one that makes the two sides agree in
dimension 1; the constant c_s is calibrated once per s against the spatial
value on the uniform-[0,1] reference, which also absorbs quadrature bias.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import DyadicGridSet, _dyadic_exponent, set_check
from .measures import (GridMeasure, ball_mass_vector, fftconvolve, mask_measure,
                       regularize, uniform_measure)
from .spectral import fourier_lattice, fourier_many

__all__ = [
    "energy_spatial",
    "energy_fourier",
    "frostman_constant",
    "ExceptionalSetReport",
    "exceptional_set",
    "ExtractionResult",
    "extract_nonconcentrated",
]


def _diagonal_coeff(s: float, h: float) -> float:
    # exact value of the Riesz integral over one cell pair, per unit mass^2
    return 2.0 * h ** -s / ((1.0 - s) * (2.0 - s))


def energy_spatial(mu: GridMeasure, s: float, delta: float,
                   method: str = "fft") -> float:
    """s-energy of mu mollified at scale delta (see module notes).

    0 < s < 1 required: at s >= 1 the kernel is not integrable across the
    diagonal without a different regularization, so such calls are rejected.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("energy_spatial needs 0 < s < 1")
    md = regularize(mu, delta)
    m = md.masses
    h = md.spacing
    n = m.size
    diag = _diagonal_coeff(s, h) * float(np.sum(m * m))
    if n == 1:
        return diag
    if method == "fft":
        corr = fftconvolve(m, m[::-1])          # corr[n-1+d] = sum_i m_i m_{i+d}
        acf = corr[n:]                           # d = 1 .. n-1
    elif method == "direct":
        acf = np.array([np.dot(m[:n - d], m[d:]) for d in range(1, n)])
    else:
        raise ValueError(f"unknown method {method!r}")
    dist = np.arange(1, n) * h
    offdiag = 2.0 * float(np.sum(acf * dist ** -s))
    return offdiag + diag


# trapezoid grid of the frequency-side integral: xi step on [1, 8/delta],
# and v points on the substituted [0, 1] block
_HIGH_SPACING = 1.0 / 16
_LOW_POINTS = 129


def _fourier_energy_raw(mu: GridMeasure, s: float, delta: float) -> float:
    """integral of |mu_hat_delta|^2 |xi|^(s-1) d xi over the line, uncalibrated.

    [1, 8/delta] is covered by trapezoid at the fixed spacing 1/16 (the
    integrand's oscillation scale is set by the support diameter, not by
    xi), on the exact lattice frequencies n / 16, n = 16, 17, ..., which end
    at 8/delta for every dyadic delta; the [0, 1] block is tamed by the
    substitution xi = v^(1/s).  The mollified measure is refined to spacing
    <= delta/32 first: the atom grid's alias spike at xi = 1/spacing must
    stay far above the 8/delta cutoff or it leaks into the integral.
    """
    md = regularize(mu, delta)
    want = int(np.ceil(np.log2(32.0 / delta)))
    if md.level < want:
        md = md.refined(want)
    xi_max = 8.0 / delta
    nodes = np.arange(round(1.0 / _HIGH_SPACING), int(np.ceil(xi_max / _HIGH_SPACING)) + 1)
    xis = nodes * _HIGH_SPACING
    vals = np.abs(fourier_lattice(md, _HIGH_SPACING, nodes)[0]) ** 2 * xis ** (s - 1.0)
    high = np.trapezoid(vals, xis)
    v = np.linspace(0.0, 1.0, _LOW_POINTS)
    low = np.trapezoid(np.abs(fourier_many(md, v ** (1.0 / s))) ** 2, v) / s
    return float(2.0 * (high + low))


# reference configuration for the one-time per-s calibration of c_s
_CAL_LEVEL = 9
_CAL_DELTA = 2.0 ** -6


@lru_cache(maxsize=None)
def _calibration_constant(s: float) -> float:
    ref = uniform_measure(0.0, 1.0, _CAL_LEVEL)
    return energy_spatial(ref, s, _CAL_DELTA) / _fourier_energy_raw(ref, s, _CAL_DELTA)


def energy_fourier(mu: GridMeasure, s: float, delta: float) -> float:
    """Frequency-side s-energy, aligned to the spatial side by the calibrated c_s."""
    if not 0.0 < s < 1.0:
        raise ValueError("energy_fourier needs 0 < s < 1")
    return _calibration_constant(round(s, 12)) * _fourier_energy_raw(mu, s, delta)


def frostman_constant(mu: GridMeasure, s: float,
                      r_range: tuple[float, float]) -> float:
    """The Frostman constant of mu: the smallest K with mu(B(x, r)) <= K r^s
    over grid centers x and dyadic r in r_range = (r_min, r_max)."""
    r_min, r_max = r_range
    if r_min < mu.spacing:
        raise ValueError(f"r_min={r_min} below grid scale {mu.spacing}")
    l_hi = int(np.floor(-np.log2(r_min) + 1e-9))
    l_lo = int(np.ceil(-np.log2(r_max) - 1e-9))
    best = 0.0
    for l in range(l_lo, l_hi + 1):
        r = 2.0 ** -l
        best = max(best, float(np.max(ball_mass_vector(mu, r) / r ** s)))
    return best


@dataclass(frozen=True)
class ExceptionalSetReport:
    exceptional: DyadicGridSet
    mass: float                    # mu(E)
    mass_bound: float              # log2(1/delta) * delta^eps
    precondition_ok: bool          # I_s^delta(mu) <= delta^-eps held on input
    guaranteed: bool               # mass <= mass_bound (meaningful when precondition_ok)
    complement_ok: bool            # Frostman constant of mu off E <= delta^(-2 eps)


def exceptional_set(mu: GridMeasure, s: float, delta: float,
                    eps: float) -> ExceptionalSetReport:
    """Cells where some dyadic ball is too heavy: 2^(s u) mu_delta(B(x, 2^-u)) > delta^(-2 eps).

    Removing them leaves a measure satisfying the r^s Frostman bound with
    constant delta^(-2 eps) down to scale delta, with total removed mass at
    most log2(1/delta) * delta^eps whenever I_s^delta(mu) <= delta^(-eps).
    The set is computed regardless; a violated precondition only clears the
    guarantee flag.
    """
    precond = energy_spatial(mu, s, delta) <= delta ** -eps
    md = regularize(mu, delta)
    threshold = delta ** (-2.0 * eps)
    u_max = _dyadic_exponent(delta)
    bad = np.zeros(md.size, dtype=bool)
    for u in range(0, u_max + 1):
        r = 2.0 ** -u
        if r < md.spacing:
            break
        bad |= (2.0 ** (s * u)) * ball_mass_vector(md, r) > threshold
    # map flagged mollified cells back onto the original grid window
    idx = md.origin_index + np.nonzero(bad)[0]
    own_lo = mu.origin_index
    own_hi = mu.origin_index + mu.size
    idx = idx[(idx >= own_lo) & (idx < own_hi)]
    eset = DyadicGridSet(mu.level, idx)
    mass = float(np.sum(mu.masses[idx - own_lo])) if idx.size else 0.0
    bound = np.log2(1.0 / delta) * delta ** eps
    keep = np.setdiff1d(own_lo + np.nonzero(mu.masses)[0], idx)
    if keep.size:
        rest = mask_measure(mu, DyadicGridSet(mu.level, keep))
        comp = frostman_constant(rest, s, (delta, 1.0))
    else:
        comp = float("inf")
    return ExceptionalSetReport(
        exceptional=eset, mass=mass, mass_bound=float(bound),
        precondition_ok=bool(precond), guaranteed=bool(mass <= bound),
        complement_ok=bool(comp <= threshold * (1.0 + 1e-9)))


@dataclass(frozen=True)
class ExtractionResult:
    a1: DyadicGridSet              # selected union of rho-cells
    retained: float                # nu(A1)
    retained_target: float         # rho^(2 tau)
    level_histogram: dict          # density class -> retained mass
    set_ok: bool                   # A1 passes the (rho, s, rho^-6tau) check
    ok: bool                       # retained >= target and set_ok
    precondition_ok: bool


def extract_nonconcentrated(nu: GridMeasure, s: float, rho: float,
                            tau: float) -> ExtractionResult:
    """Select a non-concentrated union of rho-cells carrying nu-mass >= rho^(2 tau).

    Pipeline: drop the exceptional cells (threshold rho^(-4 tau), matching an
    energy budget of rho^(-2 tau)), bucket the remaining rho-cells into dyadic
    density classes of the mollified measure, and keep the class retaining
    the most mass; ties prefer the denser class.  The output is audited with
    the frostman-type set check at K = rho^(-6 tau).
    """
    exc = exceptional_set(nu, s, rho, 2.0 * tau)
    m_rho = regularize(nu, rho)
    rho_level = _dyadic_exponent(rho)
    coarse = m_rho.coarsened(rho_level)
    # nu-mass and exceptional mask per rho-cell
    nu_coarse = nu.coarsened(rho_level)
    exc_cells = exc.exceptional.coarsened(rho_level).cells
    idx = coarse.origin_index + np.arange(coarse.size)
    dens = coarse.masses / coarse.spacing
    good = ~np.isin(idx, exc_cells) & (dens > 0)
    if not np.any(good):
        empty = DyadicGridSet(rho_level, np.empty(0, dtype=np.int64))
        return ExtractionResult(empty, 0.0, float(rho ** (2 * tau)), {}, False,
                                False, exc.precondition_ok)
    dmax = dens[good].max()
    classes = np.full(idx.size, -1, dtype=np.int64)
    with np.errstate(divide="ignore"):
        raw = np.floor(np.log2(dmax / np.where(dens > 0, dens, 1.0))).astype(np.int64)
    classes[good] = np.clip(raw[good], 0, rho_level)   # classes 0 .. log2(1/rho)
    hist: dict[int, float] = {}
    lo = nu_coarse.origin_index
    for k in range(0, rho_level + 1):
        cells = idx[classes == k]
        if cells.size == 0:
            continue
        sel = cells - lo
        sel = sel[(sel >= 0) & (sel < nu_coarse.size)]
        hist[k] = float(np.sum(nu_coarse.masses[sel]))
    best_k = max(hist, key=lambda k: (hist[k], -k))   # mass first, then denser class
    cells = idx[classes == best_k]
    a1 = DyadicGridSet(rho_level, cells)
    retained = hist[best_k]
    target = float(rho ** (2.0 * tau))
    passed, _ = set_check(a1, s, rho ** (-6.0 * tau), "frostman-type")
    return ExtractionResult(a1=a1, retained=float(retained),
                            retained_target=target,
                            level_histogram=hist, set_ok=bool(passed),
                            ok=bool(retained >= target and passed),
                            precondition_ok=exc.precondition_ok)
