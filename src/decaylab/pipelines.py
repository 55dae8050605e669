"""Experiment pipelines: each run_* function drives one numerical experiment
end to end, re-derives its inputs' preconditions, and returns a report
object with named verdicts.

Verdict kinds:
  exact     - a grid-level identity or inequality that must hold up to
              summation roundoff / documented grid slop; failures are bugs.
  evidence  - an instance measurement of an asymptotic statement; recorded,
              never treated as proof.

Tolerance policy: exact inequalities carry 1e-9..1e-6 slop from grid
effects; order-of-magnitude statements get measured constants instead of
fixed thresholds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .convolution import convolve, difference_product, power, symmetry_defect
from .energy import energy_spatial
from .measures import (GridMeasure, kernel_weights, next_fast_len,
                       pushforward_affine, regularize)
from .spectral import (DecayProfile, _atom_products, _reduced_rows,
                       decay_profile, l2_at_scale, product_chain_fourier,
                       product_fourier)

__all__ = [
    "Verdict",
    "BaseCaseReport",
    "run_base_case",
    "FlatteningTrace",
    "run_flattening",
    "LevelSetReport",
    "run_level_sets",
    "InductionChainReport",
    "run_induction_chain",
    "DecayPipelineReport",
    "run_quantitative_decay",
    "KeystepScanReport",
    "run_keystep_scan",
]


@dataclass(frozen=True)
class Verdict:
    name: str
    kind: str              # "exact" or "evidence"
    passed: bool
    measured: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "passed": self.passed,
                "measured": self.measured, "detail": self.detail}


# ---------------------------------------------------------------------------
# base case n = 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseCaseReport:
    s: float
    t: float
    delta: float
    l2_mu_sq: float
    l2_nu_sq: float
    preconditions_ok: bool
    xi_samples: np.ndarray
    magnitudes: np.ndarray
    max_magnitude: float
    reference: float            # delta**((s+t-1)/2)
    measured_constant: float    # max_magnitude / reference
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "delta": self.delta,
                "l2_mu_sq": self.l2_mu_sq, "l2_nu_sq": self.l2_nu_sq,
                "preconditions_ok": self.preconditions_ok,
                "max_magnitude": self.max_magnitude,
                "reference": self.reference,
                "measured_constant": self.measured_constant,
                "verdicts": [v.as_dict() for v in self.verdicts]}


def run_base_case(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                  delta: float, n_samples: int = 32) -> BaseCaseReport:
    """Band decay of the multiplicative convolution of two L2-bounded measures.

    Checks the single-scale bounds l2(mu_delta)^2 <= 4 delta^(s-1) (and the
    t-analogue for nu), samples |(mu x nu)^| atom-exactly over
    [1/delta, 2/delta], and reports max magnitude against delta^((s+t-1)/2)
    with the measured constant.  Failed preconditions flag the report but do
    not stop it.
    """
    l2m = l2_at_scale(mu, delta) ** 2
    l2n = l2_at_scale(nu, delta) ** 2
    pre = (l2m <= 4.0 * delta ** (s - 1.0)) and (l2n <= 4.0 * delta ** (t - 1.0))
    xis = np.geomspace(1.0 / delta, 2.0 / delta, n_samples)
    vals = product_fourier(mu, nu, xis)
    mags = np.hypot(vals.real, vals.imag)   # Python's abs rounding; np.abs may differ
    ref = delta ** ((s + t - 1.0) / 2.0)
    cmax = float(mags.max() / ref)
    verdicts = (
        Verdict("l2-preconditions", "evidence", pre,
                measured=max(l2m / delta ** (s - 1.0), l2n / delta ** (t - 1.0))),
        Verdict("band-decay-constant", "evidence", bool(cmax <= 16.0),
                measured=cmax,
                detail="max band |transform| / delta^((s+t-1)/2)"),
    )
    return BaseCaseReport(s=s, t=t, delta=delta, l2_mu_sq=l2m, l2_nu_sq=l2n,
                          preconditions_ok=bool(pre), xi_samples=xis,
                          magnitudes=mags, max_magnitude=float(mags.max()),
                          reference=float(ref), measured_constant=cmax,
                          verdicts=verdicts)


# ---------------------------------------------------------------------------
# flattening of additive powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatteningTrace:
    s: float
    t: float
    delta: float
    kappa: float
    r_values: np.ndarray         # dyadic scales in [delta, 1]
    k_values: np.ndarray         # 0..k_max (power = 2**k)
    l2_by_scale: np.ndarray      # shape (len(k), len(r)): ||(Pi^{+2^k})_r||_2
    energies: np.ndarray         # per k: I^delta_{s+t}; at s+t=1 the L2^2 form
    level_class_counts: np.ndarray  # per (k, r): number of nonempty dyadic classes
    symmetry_defect: float
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "delta": self.delta,
                "kappa": self.kappa,
                "energies": list(map(float, self.energies)),
                "symmetry_defect": self.symmetry_defect,
                "verdicts": [v.as_dict() for v in self.verdicts]}


def _parseval_l2_of_smoothed(spec_sq: np.ndarray, kernel_rfft: np.ndarray,
                             nfft: int, spacing: float) -> float:
    """||density of (m * w)||_2 from |rfft(m)|^2 and rfft(w), both length nfft."""
    prod = spec_sq * np.abs(kernel_rfft) ** 2
    if nfft % 2 == 0:
        total = prod[0] + prod[-1] + 2.0 * np.sum(prod[1:-1])
    else:
        total = prod[0] + 2.0 * np.sum(prod[1:])
    return float(np.sqrt(total / (nfft * spacing)))


def run_flattening(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                   delta: float, k_max: int, kappa: float = 0.1) -> FlatteningTrace:
    """Trace the L2 flattening of additive powers of the difference product.

    Builds Pi = (mu - mu) x (nu - nu), doubles it additively up to 2**k_max,
    and records J(k, r) = || density of (Pi^{+2^k})_r ||_2 on dyadic
    r in [delta, 1], the s+t energies, and per-(k, r) dyadic level-set class
    counts.  J(k+1, r) <= J(k, r) is exact (the k+1 spectrum is dominated
    pointwise), asserted to 1e-9.  The target verdict checks
    J(k_max, r) <= delta^(-kappa/2) r^((s+t-1)/2) over the whole r range.
    """
    if s + t > 1.0 + 1e-12:
        raise ValueError("need s + t <= 1")
    pi = difference_product(mu, nu).trimmed()
    sym = symmetry_defect(pi)
    h = pi.spacing
    level = pi.level
    # e_mu/e_nu preconditions (energy bounds are reported, not enforced)
    e_mu = energy_spatial(mu, s, delta) if s < 1 else float("nan")
    e_nu = energy_spatial(nu, t, delta) if t < 1 else float("nan")

    powers = [pi]
    for _ in range(k_max):
        powers.append(convolve(powers[-1], powers[-1], "add"))

    r_levels = list(range(int(round(-np.log2(delta))), -1, -1))  # delta .. 1/2
    r_values = np.array([2.0 ** -l for l in r_levels])
    max_len = powers[-1].size + int(2.0 / h) + 8
    nfft = next_fast_len(max_len)
    kernels = {}
    for r in r_values:
        kernels[r] = rfft(kernel_weights(float(r), level), nfft)

    J = np.empty((k_max + 1, r_values.size))
    energies = np.empty(k_max + 1)
    class_counts = np.empty((k_max + 1, r_values.size), dtype=np.int64)
    s_sum = s + t
    for k, pk in enumerate(powers):
        spec_sq = np.abs(rfft(pk.masses, nfft)) ** 2
        for j, r in enumerate(r_values):
            J[k, j] = _parseval_l2_of_smoothed(spec_sq, kernels[r], nfft, h)
            class_counts[k, j] = _level_class_count(pk, float(r))
        if s_sum < 1.0 - 1e-12:
            energies[k] = energy_spatial(pk, s_sum, delta)
        else:
            energies[k] = l2_at_scale(pk, delta) ** 2

    mono_gap = float(np.max(J[1:] - J[:-1])) if k_max >= 1 else 0.0
    target = delta ** (-kappa / 2.0) * r_values ** ((s + t - 1.0) / 2.0)
    target_ok = bool(np.all(J[-1] <= target))
    verdicts = (
        Verdict("young-monotone", "exact", bool(mono_gap <= 1e-9), measured=mono_gap,
                detail="max over (k, r) of J(k+1, r) - J(k, r)"),
        Verdict("flattening-target", "evidence", target_ok,
                measured=float(np.max(J[-1] / target)),
                detail="J(k_max, r) vs delta^(-kappa/2) r^((s+t-1)/2)"),
        Verdict("energy-nonincreasing", "evidence",
                bool(np.all(np.diff(energies) <= 1e-9 * np.maximum(energies[:-1], 1.0))),
                measured=float(energies[-1] / energies[0])),
        Verdict("pi-symmetry", "exact", bool(sym <= 1e-9), measured=sym),
        Verdict("input-energies", "evidence", True,
                measured=float(max(e_mu, e_nu))),
    )
    return FlatteningTrace(s=s, t=t, delta=delta, kappa=kappa,
                           r_values=r_values, k_values=np.arange(k_max + 1),
                           l2_by_scale=J, energies=energies,
                           level_class_counts=class_counts,
                           symmetry_defect=sym, verdicts=verdicts)


def _level_class_count(m: GridMeasure, r: float) -> int:
    cls, _, _ = _level_set_classes(m, r)
    return int(np.unique(cls[cls >= 0]).size)


def _level_set_classes(m: GridMeasure, r: float):
    """Dyadic class of sup density of m_r per dyadic r-interval.

    Returns (class per r-cell, sup density per r-cell, index of the first
    r-cell on the level-log2(1/r) grid); class -1 marks empty cells, 0 the
    cells with sup <= 1, and j >= 1 the band (2^(j-1), 2^j].
    """
    mr = regularize(m, r)
    dens = mr.density()
    l = int(round(-np.log2(r)))
    shift = mr.level - l
    idx = (mr.origin_index + np.arange(mr.size)) >> shift
    lo = idx[0]
    sup = np.zeros(idx[-1] - lo + 1)
    np.maximum.at(sup, idx - lo, dens)
    cls = np.full(sup.size, -1, dtype=np.int64)
    pos = sup > 0
    big = sup > 1.0 + 1e-9          # tolerance keeps exact-1 plateaus in class 0
    cls[pos & ~big] = 0
    if np.any(big):
        cls[big] = np.ceil(np.log2(sup[big]) - 1e-9).astype(np.int64)
    return cls, sup, int(lo)


@dataclass(frozen=True)
class LevelSetReport:
    r: float
    classes: dict                  # class j -> number of r-intervals
    upper_constant: float          # sup of density_r / 2^class  (<= 1 by construction)
    lower_constant: float          # sup over classes j>=1 of 2^j / density_{4r}
    class_count: int
    class_bound: float             # C log2(1/r) reference with C = 1
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"r": self.r, "classes": {str(k): v for k, v in self.classes.items()},
                "upper_constant": self.upper_constant,
                "lower_constant": self.lower_constant,
                "class_count": self.class_count,
                "class_bound": self.class_bound,
                "verdicts": [v.as_dict() for v in self.verdicts]}


def run_level_sets(lam: GridMeasure, r: float) -> LevelSetReport:
    """Dyadic level-set decomposition of the density of lam_r.

    Verifies the two-sided sandwich: density_r <= C * sum 2^j 1_{class j}
    pointwise (C <= 1 with these classes), and 2^j <= C' * density_{4r} on
    every class-j interval with measured C'.
    """
    if r < lam.spacing:
        raise ValueError("r below grid scale")
    cls, sup, base = _level_set_classes(lam, r)
    l = int(round(-np.log2(r)))
    # sup of the 4r-density per r-cell, aligned to the same r-cell base
    m4 = regularize(lam, min(4.0 * r, 0.5))
    dens4 = m4.density()
    idx4 = (m4.origin_index + np.arange(m4.size)) >> (m4.level - l)
    sup4 = np.zeros(cls.size)
    sel = (idx4 >= base) & (idx4 < base + cls.size)
    np.maximum.at(sup4, (idx4[sel] - base).astype(np.int64), dens4[sel])
    upper = 0.0
    lower = 0.0
    counts: dict[int, int] = {}
    for j in np.unique(cls[cls >= 0]):
        cells = np.nonzero(cls == j)[0]
        counts[int(j)] = int(cells.size)
        upper = max(upper, float(np.max(sup[cells]) / 2.0 ** j))
        if j >= 1:
            d4 = sup4[cells]
            if np.any(d4 <= 0):
                lower = float("inf")
            else:
                lower = max(lower, float(np.max(2.0 ** float(j) / d4)))
    count = len(counts)
    bound = max(1.0, np.log2(1.0 / r))
    verdicts = (
        Verdict("upper-sandwich", "exact", bool(upper <= 1.0 + 1e-9), measured=upper),
        Verdict("lower-sandwich", "exact", bool(lower <= 8.0), measured=lower,
                detail="sup over classes of 2^j / density at scale 4r"),
        Verdict("class-count", "exact", bool(count <= 2 * bound + 2), measured=float(count)),
    )
    return LevelSetReport(r=r, classes=counts, upper_constant=float(upper),
                          lower_constant=float(lower), class_count=count,
                          class_bound=float(bound), verdicts=verdicts)


# ---------------------------------------------------------------------------
# induction chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InductionChainReport:
    exponents: tuple
    delta: float
    k: int
    xi_samples: np.ndarray
    lhs: np.ndarray               # |F^(xi)|^(2^(k+2))
    rhs: np.ndarray               # atom-exact (Pi^{+2^k} x mu_3 ... )^(xi)
    max_violation: float
    input_energies: tuple         # I^delta_{s_j}(mu_j), re-derived per input
    rescaled_energy: float
    tau_profile: DecayProfile
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"exponents": list(self.exponents), "delta": self.delta,
                "k": self.k, "max_violation": self.max_violation,
                "input_energies": list(self.input_energies),
                "rescaled_energy": self.rescaled_energy,
                "tau_hat": self.tau_profile.tau_hat,
                "verdicts": [v.as_dict() for v in self.verdicts]}


def _coarsen_to_cap(m: GridMeasure, cap: int) -> GridMeasure:
    """Coarsen until at most cap cells carry mass (keeps the measure exact)."""
    out = m
    while np.count_nonzero(out.masses) > cap and out.level > 1:
        out = out.coarsened(out.level - 1)
    return out.trimmed()


def _self_difference_atoms(m: GridMeasure):
    """Atoms of m - m folded onto |x|: sorted cell-index distances k >= 0
    (atom at +-k * spacing) with accumulated weights."""
    nz = np.nonzero(m.masses)[0]
    w = m.masses[nz]
    d = np.abs(np.subtract.outer(nz, nz)).ravel()
    ww = np.multiply.outer(w, w).ravel()
    uniq, inv = np.unique(d, return_inverse=True)
    acc = np.zeros(uniq.size)
    np.add.at(acc, inv, ww)
    return uniq, acc


def run_induction_chain(measures, exponents, delta: float,
                        k: int, n_samples: int = 64,
                        chain_cells: int = 64) -> InductionChainReport:
    """Verify the order-exchange chain at sampled frequencies, atom-exactly.

    For F = mu_1 x ... x mu_n and Pi = (mu_1 - mu_1) x (mu_2 - mu_2):

        |F^(xi)|^(2^(k+2)) <= (Pi^{+2^k} x mu_3 x ... x mu_n)^(xi)

    holds for every xi and any probability measures, as iterated
    Cauchy-Schwarz.  Both sides are evaluated on atomized copies of the
    inputs (coarsened until each carries at most chain_cells cells, which
    leaves the inequality exact while bounding the cost): the right side
    uses Pi^ = integral |mu_1^|^2 >= 0 and the power identity for additive
    convolutions, so violations beyond roundoff would be implementation
    bugs.  Also reports the energy of the rescaled grid power (support
    shrunk by 2^-(k+2)) and a wide-band decay fit of the full-resolution
    product.
    """
    n = len(measures)
    if n < 3:
        raise ValueError("need n >= 3 measures")
    if np.sum(exponents) <= 1.0:
        raise ValueError("need sum of exponents > 1")
    input_energies = tuple(
        float(energy_spatial(m_, min(float(e), 0.999), max(delta, m_.spacing)))
        for m_, e in zip(measures, exponents))
    work = [_coarsen_to_cap(m, chain_cells) for m in measures]
    xis = np.geomspace(1.0 / delta, 2.0 / delta, n_samples)
    chain = product_chain_fourier(work, xis)
    lhs = np.hypot(chain.real, chain.imag) ** (2 ** (k + 2))
    # Pi^(eta) = integral of |mu_1^(eta w)|^2 >= 0 over the difference atoms
    # w = +-d h_2 of mu_2 (both signs share one value), one progression in d
    # per eta = xi times a product of occupied centers of mu_3..mu_n
    dists2, w2 = _self_difference_atoms(work[1])
    tail_c, tail_w = _atom_products(work[2:])
    etas = np.multiply.outer(xis, tail_c)
    pi_hat = _reduced_rows(work[0], 0.0, work[1].spacing, dists2, etas,
                           lambda vals: np.abs(vals) ** 2 @ w2).reshape(etas.shape)
    rhs = pi_hat ** (2 ** k) @ tail_w
    violation = float(np.max(lhs - rhs))
    # rescaling step on the grid power (evidence; grid ops re-bin)
    pi_grid = difference_product(work[0], work[1])
    a_grid = power(pi_grid, 2 ** k, "add")
    scaled = pushforward_affine(a_grid, 2.0 ** -(k + 2), 0.0)
    s12 = min(float(exponents[0] + exponents[1]), 0.999)
    resc_energy = energy_spatial(scaled, s12, max(delta, scaled.spacing))
    full_product = measures[0]
    for m_ in measures[1:]:
        full_product = convolve(full_product, m_, "mul")
    # fit only where the x-routing slop (a few cells) keeps phases coherent
    top = min(2.0 / delta, 1.0 / (8.0 * full_product.spacing))
    prof = decay_profile(full_product, (16.0, top), max(n_samples, 64))
    verdicts = (
        Verdict("order-chain", "exact", bool(violation <= 1e-6), measured=violation,
                detail="max over sampled xi of lhs - rhs"),
        Verdict("tau-positive", "evidence", bool(prof.tau_hat > 0),
                measured=prof.tau_hat),
        Verdict("input-energies", "evidence", True,
                measured=float(max(input_energies))),
    )
    return InductionChainReport(exponents=tuple(float(e) for e in exponents),
                                delta=delta, k=k, xi_samples=xis, lhs=lhs,
                                rhs=rhs, max_violation=violation,
                                input_energies=input_energies,
                                rescaled_energy=float(resc_energy),
                                tau_profile=prof, verdicts=verdicts)


# ---------------------------------------------------------------------------
# iterated multiply-subtract pipeline (quantitative decay)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageReport:
    stage: int
    exponent: float
    energy: float
    l2_sq: float

    def as_dict(self) -> dict:
        return {"stage": self.stage, "exponent": self.exponent,
                "energy": self.energy, "l2_sq": self.l2_sq}


@dataclass(frozen=True)
class DecayPipelineReport:
    n: int
    sigma: float
    delta: float
    c0: float
    ell: int
    tau_theory: float
    tau_measured: float
    stage_reports: tuple
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"n": self.n, "sigma": self.sigma, "delta": self.delta,
                "c0": self.c0, "ell": self.ell,
                "tau_theory": self.tau_theory,
                "tau_measured": self.tau_measured,
                "stages": [s.as_dict() for s in self.stage_reports],
                "verdicts": [v.as_dict() for v in self.verdicts]}


def quantitative_parameters(sigma: float, c0: float) -> tuple[int, float]:
    """Chain length ell = ceil(c0/sigma) and the decay floor 2^-(2 ell + 1)."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    ell = int(np.ceil(c0 / sigma))
    return ell, 2.0 ** -(2 * ell + 1)


def _multiply_subtract_chain(measures, ell: int):
    """Pi_1 = m_1;  Pi_k = (Pi_{k-1} x m_k) - (Pi_{k-1} x m_k)."""
    pi = measures[0]
    out = [pi]
    for k in range(1, ell):
        prod = convolve(pi, measures[k], "mul")
        pi = convolve(prod, prod, "sub").trimmed()
        out.append(pi)
    return out


def run_quantitative_decay(measures, sigma: float, delta: float,
                           c0: float = 2.0, n_samples: int = 48) -> DecayPipelineReport:
    """Iterated multiply-and-subtract flattening with a final band-decay fit.

    With ell = ceil(c0 / sigma), two disjoint chains of length ell are built
    from the inputs; each stage records the energy at the expected exponent
    sigma * (1 + (k-1)/c0) capped at 2/3 (the L2^2 form at exponents >= 1).
    The transform of (last of chain 1) x (last of chain 2) is profiled over
    [16, 2/delta] and its fitted exponent compared against the theoretical
    floor tau = 2^-(2 ell + 1).

    The default c0 = 2 is a practical knob: the literal constant chain from
    the flattening analysis (c0 = 524 * 24) is far beyond desk scale.
    """
    ell, tau_floor = quantitative_parameters(sigma, c0)
    n = len(measures)
    if n < 2 * ell:
        raise ValueError(f"need n >= 2*ell = {2 * ell} measures, got {n}")
    for m_ in measures:
        lo, hi = m_.support()
        if lo < 1.0 - 1e-9 or hi > 2.0 + 1e-9:
            raise ValueError("all inputs must be supported in [1, 2]")
    input_energies = [float(energy_spatial(m_, sigma, max(delta, m_.spacing)))
                      for m_ in measures[:2 * ell]] if sigma < 1 else []
    chain1 = _multiply_subtract_chain(measures[:ell], ell)
    chain2 = _multiply_subtract_chain(measures[ell:2 * ell], ell)
    stages = []
    for k, pk in enumerate(chain1, start=1):
        s_k = min(sigma * (1.0 + (k - 1.0) / c0), 2.0 / 3.0)
        en = energy_spatial(pk, s_k, delta) if s_k < 1 else l2_at_scale(pk, delta) ** 2
        stages.append(StageReport(stage=k, exponent=float(s_k), energy=float(en),
                                  l2_sq=float(l2_at_scale(pk, delta) ** 2)))
    final = convolve(chain1[-1], chain2[-1], "mul")
    top = min(2.0 / delta, 1.0 / (8.0 * final.spacing))
    prof = decay_profile(final, (16.0, top), n_samples)
    tau_theory = tau_floor
    verdicts = (
        Verdict("tau-vs-theory", "evidence",
                bool(prof.tau_hat >= tau_theory), measured=prof.tau_hat,
                detail=f"theory floor {tau_theory}"),
        Verdict("stage-energies", "evidence", True,
                measured=float(stages[-1].energy)),
        Verdict("input-energies", "evidence", True,
                measured=float(max(input_energies)) if input_energies else None),
    )
    return DecayPipelineReport(n=n, sigma=sigma, delta=delta, c0=c0, ell=ell,
                               tau_theory=float(tau_theory),
                               tau_measured=float(prof.tau_hat),
                               stage_reports=tuple(stages), verdicts=verdicts)


# ---------------------------------------------------------------------------
# keystep scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeystepRow:
    rho: float
    l2_mu_sq: float
    antecedent: bool            # l2_mu_sq >= rho^(-1+s+t/C)
    l2_pi_sq: float
    consequent: bool            # l2_pi_sq <= rho^tau * l2_mu_sq
    diag_indicator_l2: float    # 2^(i+j) ||1_Ai - 1_Aj||_2 for dominant classes

    def as_dict(self) -> dict:
        return {"rho": self.rho, "l2_mu_sq": self.l2_mu_sq,
                "antecedent": self.antecedent, "l2_pi_sq": self.l2_pi_sq,
                "consequent": self.consequent,
                "diag_indicator_l2": self.diag_indicator_l2}


@dataclass(frozen=True)
class KeystepScanReport:
    s: float
    t: float
    delta: float
    big_c: float
    tau: float
    rows: tuple
    implication_ok: bool        # no rho with antecedent true and consequent false
    verdicts: tuple

    def as_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "delta": self.delta,
                "C": self.big_c, "tau": self.tau,
                "rows": [r.as_dict() for r in self.rows],
                "implication_ok": self.implication_ok,
                "verdicts": [v.as_dict() for v in self.verdicts]}


def run_keystep_scan(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                     delta: float, big_c: float = 2.0, tau: float | None = None,
                     eps: float = 0.05) -> KeystepScanReport:
    """Scan the single-scale flattening implication over dyadic rho.

    For Pi = (mu x nu) - (mu x nu) and rho in [delta, delta^(eps/t)]:
    antecedent  ||mu_rho||_2^2 >= rho^(-1+s+t/C),
    consequent  ||Pi_rho||_2^2 <= rho^tau ||mu_rho||_2^2  (tau defaults to t/C).

    Each row also carries the indicator-difference diagnostic
    2^(i+j) ||1_Ai - 1_Aj||_2 for the two heaviest density classes of mu_rho.
    The report records whether the implication survived every rho (instance
    evidence).
    """
    for m_ in (mu, nu):
        lo, hi = m_.support()
        if lo < 1.0 - 1e-9 or hi > 2.0 + 1e-9:
            raise ValueError("keystep scan expects supports in [1, 2]")
    if tau is None:
        tau = t / big_c
    prod = convolve(mu, nu, "mul")
    pi = convolve(prod, prod, "sub").trimmed()
    l_hi = int(round(-np.log2(delta)))
    l_lo = max(1, int(np.floor(-np.log2(delta ** (eps / t)))))
    rows = []
    ok = True
    for l in range(l_hi, l_lo - 1, -1):
        rho = 2.0 ** -l
        if rho < mu.spacing or rho < pi.spacing:
            continue
        l2m = l2_at_scale(mu, rho) ** 2
        l2p = l2_at_scale(pi, rho) ** 2
        ante = l2m >= rho ** (-1.0 + s + t / big_c)
        cons = l2p <= rho ** tau * l2m
        diag = _indicator_diagnostic(mu, rho)
        if ante and not cons:
            ok = False
        rows.append(KeystepRow(rho=float(rho), l2_mu_sq=float(l2m),
                               antecedent=bool(ante), l2_pi_sq=float(l2p),
                               consequent=bool(cons),
                               diag_indicator_l2=float(diag)))
    verdicts = (
        Verdict("keystep-implication", "evidence", bool(ok),
                measured=float(len(rows))),
    )
    return KeystepScanReport(s=s, t=t, delta=delta, big_c=float(big_c),
                             tau=float(tau), rows=tuple(rows),
                             implication_ok=bool(ok), verdicts=verdicts)


def _indicator_diagnostic(mu: GridMeasure, rho: float) -> float:
    """2^(i+j) ||1_Ai - 1_Aj||_2 for the two heaviest dyadic density classes."""
    cls, sup, base = _level_set_classes(mu, rho)
    l = int(round(-np.log2(rho)))
    weights: dict[int, float] = {}
    for j in np.unique(cls[cls >= 0]):
        weights[int(j)] = float(np.sum(sup[cls == j]) * rho)  # ~ class mass
    if not weights:
        return 0.0
    top = sorted(weights, key=lambda j: -weights[j])[:2]
    i_cls = top[0]
    j_cls = top[-1]
    ind = []
    for j in (i_cls, j_cls):
        cells = np.nonzero(cls == j)[0] + base
        masses = np.zeros(int(cells.max() - cells.min() + 1))
        masses[cells - cells.min()] = rho
        ind.append(GridMeasure(l, int(cells.min()), masses))
    d = convolve(ind[0], ind[1], "sub")
    l2 = float(np.sqrt(np.sum(d.masses ** 2) / d.spacing))
    return 2.0 ** (i_cls + j_cls) * l2
