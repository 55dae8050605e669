"""Riesz s-energies of grid measures, spatial and frequency side, plus the
non-concentration machinery built on them: Frostman constants over dyadic
scales, exceptional-set removal, and extraction of non-concentrated subsets
with certified (delta, s, K) behaviour.

Spatial energy of the mollified measure mu_delta:

    I_s = sum_{i != j} m_i m_j |c_i - c_j|^{-s}  +  diagonal term,

where the diagonal uses the exact Riesz integral of a uniform cell pair,
2 h^{-s} / ((1-s)(2-s)) per unit mass squared.  Since the kernel depends
only on i - j, the double sum collapses to an autocorrelation, computed by
measures.autocorrelation in O(N log N): the same sum up to roundoff, which
a distance no pair of occupied cells spans also carries (instead of 0).

Frequency-side energy is the Fourier form of the same quantity in
dimension 1 (Mattila, Fourier Analysis and Hausdorff Dimension, CUP 2015,
Thm 3.10):

    I_s = gamma(s) int |mu_hat_delta(xi)|^2 |xi|^(s-1) d xi,
    gamma(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2),

with mu_hat(xi) = int e^(-2 pi i x xi) d mu.  The two sides are derived
independently, so their gap is the discretization of each (the cell-pair
diagonal and the mollifier grid on one side, the truncated trapezoid on the
other): at most 2.1% on acceptance check C03's family at delta = 2^-6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicGridSet, _dyadic_exponent, set_check
from .measures import GridMeasure, _ball_masses, autocorrelation, regularize
from .spectral import fourier_lattice

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


def _riesz_gamma(s: float) -> float:
    # gamma(s) of the module notes: I_s = gamma(s) int |mu_hat|^2 |xi|^(s-1)
    return math.pi ** (s - 0.5) * math.gamma((1.0 - s) / 2.0) / math.gamma(s / 2.0)


def energy_spatial(mu: GridMeasure, s: float, delta: float) -> float:
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
    acf = autocorrelation(m)[1:]             # d = 1 .. n-1
    dist = np.arange(1, n) * h
    offdiag = 2.0 * float(np.sum(acf * dist ** -s))
    return offdiag + diag


# trapezoid grid of the frequency-side integral: xi step on [1, 8/delta],
# and v points on the substituted [0, 1] block
_HIGH_SPACING = 1.0 / 16
_LOW_POINTS = 129


def energy_fourier(mu: GridMeasure, s: float, delta: float) -> float:
    """gamma(s) (Mattila, Thm 3.10; see module notes) times the integral of
    |mu_hat_delta|^2 |xi|^(s-1) over the line: the s-energy of mu mollified
    at scale delta, frequency side.  0 < s < 1 required.  It is within 2.1%
    of energy_spatial on C03's family at delta = 2^-6, the discretization
    of the two sides; nothing is fitted to close that gap.

    [1, 8/delta] is covered by trapezoid at the fixed spacing 1/16 (the
    integrand's oscillation scale is set by the support diameter, not by
    xi), on the exact lattice frequencies n / 16, n = 16, 17, ..., which end
    at 8/delta for every dyadic delta; the [0, 1] block is tamed by the
    substitution xi = v^(1/s).  The mollified measure is refined to spacing
    <= delta/32 first: the atom grid's alias spike at xi = 1/spacing must
    stay far above the 8/delta cutoff or it leaks into the integral.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("energy_fourier needs 0 < s < 1")
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
    low = np.trapezoid(np.abs(fourier_lattice(md, v ** (1.0 / s), [1])[:, 0]) ** 2, v) / s
    return float(_riesz_gamma(s) * 2.0 * (high + low))


def frostman_constant(mu: GridMeasure, s: float,
                      r_range: tuple[float, float]) -> float:
    """The Frostman constant of mu: the smallest K with mu(B(x, r)) <= K r^s
    over grid centers x and the dyadic r in r_range = (r_min, r_max), the
    ball masses of every r read off one prefix sum of mu.  A range holding
    no dyadic r, or with r_min below the grid scale, raises ValueError."""
    r_min, r_max = r_range
    if r_min < mu.spacing:
        raise ValueError(f"r_min={r_min} below grid scale {mu.spacing}")
    l_hi = int(np.floor(-np.log2(r_min) + 1e-9))
    l_lo = int(np.ceil(-np.log2(r_max) - 1e-9))
    if l_lo > l_hi:
        raise ValueError(f"r_range={r_range} holds no dyadic radius")
    radii = [2.0 ** -l for l in range(l_lo, l_hi + 1)]
    return max(float(np.max(m / r ** s)) for r, m in zip(radii, _ball_masses(mu, radii)))


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
    radii = [2.0 ** -u for u in range(0, u_max + 1) if 2.0 ** -u >= md.spacing]
    for u, m in enumerate(_ball_masses(md, radii)):
        bad |= (2.0 ** (s * u)) * m > threshold
    # map flagged mollified cells back onto the original grid window
    idx = md.origin_index + np.nonzero(bad)[0]
    own_lo = mu.origin_index
    own_hi = mu.origin_index + mu.size
    idx = idx[(idx >= own_lo) & (idx < own_hi)]
    eset = DyadicGridSet(mu.level, idx)
    mass = float(np.sum(mu.masses[idx - own_lo])) if idx.size else 0.0
    bound = np.log2(1.0 / delta) * delta ** eps
    rest = mu.masses.copy()
    rest[idx - own_lo] = 0.0
    if np.any(rest):
        comp = frostman_constant(GridMeasure(mu.level, own_lo, rest), s, (delta, 1.0))
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
