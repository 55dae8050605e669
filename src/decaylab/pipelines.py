"""Experiment pipelines: each run_* function drives one numerical experiment
end to end, re-derives its inputs' preconditions, and returns what the CLI
writes: (payload, verdicts, tables), with payload the report.json record
(its verdicts included), verdicts a tuple of named Verdicts, and tables
{csv name: (header, rows)}.

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

from .convolution import convolve, difference_product, even_product, symmetry_defect
from .dyadic import _distinct, _dyadic_exponent
from .energy import energy_spatial
from .measures import GridMeasure, regularize
from .spectral import (band_samples, decay_profile, fourier_lattice, l2_at_scale,
                       odd_products, product_chain_fourier, product_fourier,
                       profile_from_samples)

__all__ = [
    "Verdict",
    "run_base_case",
    "run_flattening",
    "run_level_sets",
    "run_induction_chain",
    "run_quantitative_decay",
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


def _outputs(payload: dict, verdicts: tuple, csv: str, header: tuple, rows: list):
    """(payload, verdicts, tables) with the verdicts recorded in the payload."""
    payload["verdicts"] = [v.as_dict() for v in verdicts]
    return payload, verdicts, {csv: (header, rows)}


# ---------------------------------------------------------------------------
# base case n = 2
# ---------------------------------------------------------------------------

def run_base_case(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                  delta: float, n_samples: int):
    """Band decay of the multiplicative convolution of two L2-bounded measures.

    Checks the single-scale bounds l2(mu_delta)^2 <= 4 delta^(s-1) (and the
    t-analogue for nu), samples |(mu x nu)^| atom-exactly over
    [1/delta, 2/delta], and reports max magnitude against delta^((s+t-1)/2)
    with the measured constant.  Failed preconditions flag the report but do
    not stop it.

    Payload: s, t, delta; l2_mu_sq and l2_nu_sq, the squared L2 norms at
    delta; preconditions_ok; max_magnitude; reference = delta**((s+t-1)/2);
    measured_constant = max_magnitude / reference.  band.csv: xi, magnitude
    per sample.
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
    payload = {"s": s, "t": t, "delta": delta, "l2_mu_sq": l2m, "l2_nu_sq": l2n,
               "preconditions_ok": bool(pre), "max_magnitude": float(mags.max()),
               "reference": float(ref), "measured_constant": cmax}
    return _outputs(payload, verdicts, "band.csv", ("xi", "magnitude"),
                    list(zip(xis, mags)))


# ---------------------------------------------------------------------------
# flattening of additive powers
# ---------------------------------------------------------------------------

def run_flattening(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                   delta: float, k_max: int, kappa: float):
    """Trace the L2 flattening of additive powers of the difference product.

    Builds Pi = (mu - mu) x (nu - nu), doubles it additively up to 2**k_max,
    and records J(k, r) = || density of (Pi^{+2^k})_r ||_2 on dyadic
    r in [delta, 1] (one l2_at_scale call over every power and every r) and the
    s+t energies.  J(k+1, r) <= J(k, r) is exact (the k+1 spectrum is
    dominated pointwise), asserted to 1e-9.  The target verdict checks
    J(k_max, r) <= delta^(-kappa/2) r^((s+t-1)/2) over the whole r range.

    Payload: s, t, delta, kappa; energies, per k the s+t energy of
    Pi^{+2^k} at delta (at s+t=1 the L2^2 form ||(Pi^{+2^k})_delta||_2^2);
    symmetry_defect, the larger symmetry defect of mu - mu and nu - nu.
    Pi is built by even_product, which symmetrises both self-differences, so
    Pi itself is even by construction; the pi-symmetry verdict (<= 1e-9)
    checks the self-differences before that fold.  flatten.csv: r, k,
    J(k, r), k-major.
    """
    if s + t > 1.0 + 1e-12:
        raise ValueError("need s + t <= 1")
    dmu, dnu = convolve(mu, mu, "sub"), convolve(nu, nu, "sub")
    sym = max(symmetry_defect(dmu), symmetry_defect(dnu))
    pi = even_product(dmu, dnu)
    # e_mu/e_nu preconditions (energy bounds are reported, not enforced)
    e_mu = energy_spatial(mu, s, delta) if s < 1 else float("nan")
    e_nu = energy_spatial(nu, t, delta) if t < 1 else float("nan")

    powers = [pi]
    for _ in range(k_max):
        powers.append(convolve(powers[-1], powers[-1], "add"))

    r_values = np.array([2.0 ** -l for l in range(_dyadic_exponent(delta), -1, -1)])
    J = l2_at_scale(powers, r_values)
    # at s + t = 1 the energy is ||(Pi^{+2^k})_delta||_2^2 = J(k, delta)^2
    if s + t < 1.0 - 1e-12:
        energies = np.array([energy_spatial(pk, s + t, delta) for pk in powers])
    else:
        energies = J[:, 0] ** 2

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
    payload = {"s": s, "t": t, "delta": delta, "kappa": kappa,
               "energies": list(map(float, energies)), "symmetry_defect": sym}
    rows = [(float(r), k, float(J[k, j]))
            for k in range(k_max + 1) for j, r in enumerate(r_values)]
    return _outputs(payload, verdicts, "flatten.csv", ("r", "k", "J"), rows)


def _cell_sup(m: GridMeasure, l: int):
    """(sup density of m per level-l cell, index of the first such cell)."""
    idx = m.parent_cells(l)
    lo = idx[0]
    sup = np.zeros(idx[-1] - lo + 1)
    np.maximum.at(sup, idx - lo, m.density())
    return sup, int(lo)


def _level_set_classes(m: GridMeasure, r: float):
    """Dyadic class of sup density of m_r per dyadic r-interval.

    Returns (class per r-cell, sup density per r-cell, index of the first
    r-cell on the level-log2(1/r) grid); class -1 marks empty cells, 0 the
    cells with sup <= 1, and j >= 1 the band (2^(j-1), 2^j].
    """
    sup, lo = _cell_sup(regularize(m, r), _dyadic_exponent(r))
    cls = np.full(sup.size, -1, dtype=np.int64)
    pos = sup > 0
    big = sup > 1.0 + 1e-9          # tolerance keeps exact-1 plateaus in class 0
    cls[pos & ~big] = 0
    if np.any(big):
        cls[big] = np.ceil(np.log2(sup[big]) - 1e-9).astype(np.int64)
    return cls, sup, lo


def run_level_sets(lam: GridMeasure, r: float):
    """Dyadic level-set decomposition of the density of lam_r.

    The classes bound density_r by sum 2^j 1_{class j} pointwise by
    construction; the exact verdict checks the other side of the sandwich,
    2^j <= C' * density_{4r} on every class-j interval, with C' <= 8.  The
    sandwich is for the mollified density, so r must be at least twice the
    grid spacing (at r = spacing, regularize returns lam unmollified).

    Payload: r; classes, class j (as a string) -> number of r-intervals;
    lower_constant, the sup over classes j >= 1 of 2^j / density_{4r};
    class_count.  level_sets.csv: class, count.
    """
    if r < 2.0 * lam.spacing:
        raise ValueError(f"r = {r} is below twice the grid spacing ({2.0 * lam.spacing})")
    cls, _, base = _level_set_classes(lam, r)
    # sup of the 4r-density per r-cell, cut to the r-cells of cls: regularize
    # widens lam's window by the kernel's cell count, so the 4r window holds
    # the r window
    sup4, base4 = _cell_sup(regularize(lam, min(4.0 * r, 0.5)), _dyadic_exponent(r))
    sup4 = sup4[base - base4:base - base4 + cls.size]
    lower = 0.0
    rows = []
    for j in _distinct(cls[cls >= 0]):
        cells = np.nonzero(cls == j)[0]
        rows.append((int(j), int(cells.size)))
        if j >= 1:
            d4 = sup4[cells]
            if np.any(d4 <= 0):
                lower = float("inf")
            else:
                lower = max(lower, float(np.max(2.0 ** float(j) / d4)))
    verdicts = (
        Verdict("lower-sandwich", "exact", bool(lower <= 8.0), measured=lower,
                detail="sup over classes of 2^j / density at scale 4r"),
    )
    payload = {"r": r, "classes": {str(j): c for j, c in rows},
               "lower_constant": float(lower), "class_count": len(rows)}
    return _outputs(payload, verdicts, "level_sets.csv", ("class", "count"), rows)


# ---------------------------------------------------------------------------
# induction chain
# ---------------------------------------------------------------------------

# the order-exchange chain runs on inputs coarsened to at most this many cells
_CHAIN_CELLS = 64


def _coarsen_to_cap(m: GridMeasure) -> GridMeasure:
    """Coarsen until at most _CHAIN_CELLS cells carry mass (keeps it exact)."""
    while np.count_nonzero(m.masses) > _CHAIN_CELLS and m.level > 1:
        m = m.coarsened(m.level - 1)
    return m


def _self_difference_atoms(m: GridMeasure):
    """Atoms of m - m folded onto |x|: sorted cell-index distances k >= 0
    (atom at +-k * spacing) with accumulated weights."""
    odd, w = m.atoms()
    acc = np.bincount((np.abs(np.subtract.outer(odd, odd)) // 2).ravel(),
                      weights=np.multiply.outer(w, w).ravel())
    dists = np.nonzero(acc)[0]
    return dists, acc[dists]


def _autocorrelation_measure(m: GridMeasure) -> GridMeasure:
    """m's autocorrelation on m's grid: cells -D..D, D m's largest distance,
    with mass w[0] at 0 and w[d] / 2 at +-d (_self_difference_atoms), so the
    masses mirror about cell 0 bit for bit.  Its centered transform (about
    cell 0) is |m^|^2."""
    dists, w = _self_difference_atoms(m)
    top = int(dists[-1])
    masses = np.zeros(2 * top + 1)
    masses[top + dists] = masses[top - dists] = w / 2
    masses[top] = w[0]
    return GridMeasure(m.level, -top, masses)


def run_induction_chain(measures, exponents, delta: float, k: int, n_samples: int):
    """Verify the order-exchange chain at sampled frequencies, atom-exactly.

    For F = mu_1 x ... x mu_n and Pi = (mu_1 - mu_1) x (mu_2 - mu_2):

        |F^(xi)|^(2^(k+2)) <= (Pi^{+2^k} x mu_3 x ... x mu_n)^(xi)

    holds for every xi and any probability measures, as iterated
    Cauchy-Schwarz.  Both sides are evaluated on atomized copies of the
    inputs (coarsened until each carries at most _CHAIN_CELLS cells, which
    leaves the inequality exact while bounding the cost): the right side
    uses Pi^ = integral |mu_1^|^2 >= 0, read off mu_1's autocorrelation,
    and the power identity for additive convolutions, so violations beyond
    roundoff would be implementation bugs.  Also reports the energy of the
    rescaled grid power (support shrunk by 2^-(k+2)) and a wide-band decay
    fit of the full-resolution product.

    Payload: exponents, delta, k; max_violation, the max over xi of
    lhs - rhs; input_energies, I^delta_{s_j}(mu_j) re-derived per input;
    rescaled_energy; tau_hat of the decay fit.  chain.csv: xi, lhs
    (|F^(xi)|^(2^(k+2))), rhs (atom-exact (Pi^{+2^k} x mu_3 ... )^(xi)).
    """
    n = len(measures)
    if n < 3:
        raise ValueError("need n >= 3 measures")
    if len(exponents) != n:
        raise ValueError(f"need one exponent per measure: {len(exponents)} "
                         f"exponents for {n} measures")
    if np.sum(exponents) <= 1.0:
        raise ValueError("need sum of exponents > 1")
    input_energies = [
        float(energy_spatial(m_, min(float(e), 0.999), max(delta, m_.spacing)))
        for m_, e in zip(measures, exponents)]
    work = [_coarsen_to_cap(m) for m in measures]
    xis = np.geomspace(1.0 / delta, 2.0 / delta, n_samples)
    chain = product_chain_fourier(work, xis)
    lhs = np.hypot(chain.real, chain.imag) ** (2 ** (k + 2))
    # Pi^(eta) = integral of |mu_1^(eta w)|^2 over the difference atoms
    # w = +-d h_2 of mu_2 (both signs share one value), at eta = xi times a
    # product n_t 2^-e of occupied centers of mu_3..mu_n: at xi 2^-e h_2
    # times the integers n_t d.  |mu_1^|^2 is the centered transform of
    # mu_1's autocorrelation, whose mirrored window the Taylor table reads in
    # real arithmetic: each value is |mu_1^|^2 to roundoff, so
    # Pi^ >= w2[0] mass^2 - roundoff, and rhs takes its even power 2^k
    dists2, w2 = _self_difference_atoms(work[1])
    tail_n, tail_w, e = odd_products(work[2:])
    pi_hat = fourier_lattice(_autocorrelation_measure(work[0]),
                             xis * 2.0 ** -(e + work[1].level),
                             np.multiply.outer(tail_n, dists2),
                             lambda q: np.sum(q.real * w2, axis=-1), centered=True)
    rhs = pi_hat ** (2 ** k) @ tail_w
    violation = float(np.max(lhs - rhs))
    # rescaling step on the grid power (evidence; grid ops re-bin)
    a_grid = difference_product(work[0], work[1])
    for _ in range(k):
        a_grid = convolve(a_grid, a_grid, "add")
    # x -> 2^-(k+2) x relabels each cell onto a 2^(k+2)-times finer grid
    L = a_grid.level
    scaled = GridMeasure(L + k + 2, a_grid.origin_index, a_grid.masses).coarsened(L)
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
    payload = {"exponents": [float(e) for e in exponents], "delta": delta,
               "k": k, "max_violation": violation, "input_energies": input_energies,
               "rescaled_energy": float(resc_energy), "tau_hat": prof.tau_hat}
    return _outputs(payload, verdicts, "chain.csv", ("xi", "lhs", "rhs"),
                    list(zip(xis, lhs, rhs)))


# ---------------------------------------------------------------------------
# iterated multiply-subtract pipeline (quantitative decay)
# ---------------------------------------------------------------------------

def quantitative_parameters(sigma: float, c0: float) -> tuple[int, float]:
    """Chain length ell = ceil(c0/sigma) and the decay floor 2^-(2 ell + 1)."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    ell = int(np.ceil(c0 / sigma))
    return ell, 2.0 ** -(2 * ell + 1)


def _require_support_in_1_2(measures):
    for m_ in measures:
        lo, hi = m_.support()
        if lo < 1.0 - 1e-9 or hi > 2.0 + 1e-9:
            raise ValueError("all inputs must be supported in [1, 2]")


def _multiply_subtract_chain(measures):
    """Pi_1 = m_1;  Pi_k = (Pi_{k-1} x m_k) - (Pi_{k-1} x m_k)."""
    pi = measures[0]
    out = [pi]
    for m_ in measures[1:]:
        prod = convolve(pi, m_, "mul")
        pi = convolve(prod, prod, "sub")
        out.append(pi)
    return out


def run_quantitative_decay(measures, sigma: float, delta: float, c0: float,
                           n_samples: int):
    """Iterated multiply-and-subtract flattening with a final band-decay fit.

    With ell = ceil(c0 / sigma), two disjoint chains of length ell are built
    from the inputs; each stage records the energy at the expected exponent
    sigma * (1 + (k-1)/c0) capped at 2/3.
    The atom-exact transform (product_fourier) of (last of chain 1) x (last of
    chain 2) is fitted over [16, 2/delta], uncapped, and the fitted exponent
    compared against the theoretical floor tau = 2^-(2 ell + 1).

    Payload: n, sigma, delta, c0, ell, tau_theory, tau_measured (the fitted
    exponent); stages, one {stage, exponent, energy, l2_sq} per stage of
    chain 1, with energy at that exponent and l2_sq = ||(Pi_k)_delta||_2^2.
    stages.csv: the same four columns.
    """
    ell, tau_theory = quantitative_parameters(sigma, c0)
    n = len(measures)
    if n < 2 * ell:
        raise ValueError(f"need n >= 2*ell = {2 * ell} measures, got {n}")
    _require_support_in_1_2(measures)
    xis = band_samples(16.0, 2.0 / delta, n_samples)
    input_energies = [float(energy_spatial(m_, sigma, max(delta, m_.spacing)))
                      for m_ in measures[:2 * ell]] if sigma < 1 else []
    chain1 = _multiply_subtract_chain(measures[:ell])
    chain2 = _multiply_subtract_chain(measures[ell:2 * ell])
    header = ("stage", "exponent", "energy", "l2_sq")
    rows = []
    for k, pk in enumerate(chain1, start=1):
        s_k = min(sigma * (1.0 + (k - 1.0) / c0), 2.0 / 3.0)
        en = energy_spatial(pk, s_k, delta)
        rows.append((k, float(s_k), float(en), float(l2_at_scale(pk, delta) ** 2)))
    prof = profile_from_samples(xis, np.abs(product_fourier(chain1[-1], chain2[-1], xis)))
    verdicts = (
        Verdict("tau-vs-theory", "evidence",
                bool(prof.tau_hat >= tau_theory), measured=prof.tau_hat,
                detail=f"theory floor {tau_theory}"),
        Verdict("stage-energies", "evidence", True, measured=rows[-1][2]),
        Verdict("input-energies", "evidence", True,
                measured=float(max(input_energies)) if input_energies else None),
    )
    payload = {"n": n, "sigma": sigma, "delta": delta, "c0": c0, "ell": ell,
               "tau_theory": float(tau_theory), "tau_measured": float(prof.tau_hat),
               "stages": [dict(zip(header, row)) for row in rows]}
    return _outputs(payload, verdicts, "stages.csv", header, rows)


# ---------------------------------------------------------------------------
# keystep scan
# ---------------------------------------------------------------------------

def run_keystep_scan(mu: GridMeasure, nu: GridMeasure, s: float, t: float,
                     delta: float, big_c: float, eps: float):
    """Scan the single-scale flattening implication over dyadic rho.

    For Pi = (mu x nu) - (mu x nu) and rho in [delta, delta^(eps/t)]:
    antecedent  ||mu_rho||_2^2 >= rho^(-1+s+t/C),
    consequent  ||Pi_rho||_2^2 <= rho^tau ||mu_rho||_2^2  with tau = t/C.

    Each row also carries the indicator-difference diagnostic
    2^(i+j) ||1_Ai - 1_Aj||_2 for the two heaviest density classes of mu_rho.
    The report records whether the implication survived every rho (instance
    evidence).

    Payload: s, t, delta, C, tau; rows, one {rho, l2_mu_sq, antecedent,
    l2_pi_sq, consequent, diag_indicator_l2} per rho, with l2_mu_sq =
    ||mu_rho||_2^2 and l2_pi_sq = ||Pi_rho||_2^2; implication_ok, no rho with
    the antecedent true and the consequent false.  keystep.csv: rho,
    l2_mu_sq, antecedent (0/1), l2_pi_sq, consequent (0/1), diag.
    """
    _require_support_in_1_2((mu, nu))
    l_hi = _dyadic_exponent(delta)
    tau = t / big_c
    pi = _multiply_subtract_chain([mu, nu])[-1]
    l_lo = max(1, int(np.floor(-np.log2(delta ** (eps / t)))))
    rhos = [2.0 ** -l for l in range(l_hi, l_lo - 1, -1)
            if 2.0 ** -l >= max(mu.spacing, pi.spacing)]
    rows, table = [], []
    ok = True
    for rho, l2m, l2p in zip(rhos, l2_at_scale(mu, rhos) ** 2,
                             l2_at_scale(pi, rhos) ** 2):
        l2m, l2p = float(l2m), float(l2p)
        ante = bool(l2m >= rho ** (-1.0 + s + t / big_c))
        cons = bool(l2p <= rho ** tau * l2m)
        diag = _indicator_diagnostic(mu, rho)
        if ante and not cons:
            ok = False
        rows.append({"rho": rho, "l2_mu_sq": l2m, "antecedent": ante, "l2_pi_sq": l2p,
                     "consequent": cons, "diag_indicator_l2": diag})
        table.append((rho, l2m, int(ante), l2p, int(cons), diag))
    verdicts = (
        Verdict("keystep-implication", "evidence", bool(ok),
                measured=float(len(rows))),
    )
    payload = {"s": s, "t": t, "delta": delta, "C": float(big_c), "tau": float(tau),
               "rows": rows, "implication_ok": ok}
    return _outputs(payload, verdicts, "keystep.csv",
                    ("rho", "l2_mu_sq", "antecedent", "l2_pi_sq", "consequent", "diag"),
                    table)


def _indicator_diagnostic(mu: GridMeasure, rho: float) -> float:
    """2^(i+j) ||1_Ai - 1_Aj||_2 for the two heaviest dyadic density classes."""
    cls, sup, base = _level_set_classes(mu, rho)
    l = _dyadic_exponent(rho)
    weights: dict[int, float] = {}
    for j in _distinct(cls[cls >= 0]):
        weights[int(j)] = float(np.sum(sup[cls == j]) * rho)  # ~ class mass
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
    return 2.0 ** (i_cls + j_cls) * l2_at_scale(d, d.spacing)
