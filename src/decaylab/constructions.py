"""Constructors for the explicit measures and sets the experiments exercise:
lattice-neighborhood sets, combs, concentrated counterexample measures, thin
intervals, and seeded random Cantor-type inputs with certified Frostman
behaviour.

Constructors check their parameters and build; they do not re-measure their
own output.  The declared guarantees (cosine floor, L2 size, transform size,
support containment) are asserted by the tests, and the counterexample
experiment reports the shifted comb's two as exact verdicts.  The Frostman
cap of make_random_frostman is part of the construction: it selects the draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicGridSet, _dyadic_exponent
from .energy import frostman_constant
from .measures import (GridMeasure, OVERSAMPLE_BITS, _common_grid, _uniform_on,
                       uniform_measure)

__all__ = [
    "CantorSpec",
    "make_random_frostman",
    "make_lattice_neighborhood",
    "make_comb",
    "make_shifted_comb",
    "make_thin_interval",
    "mix",
]


# ---------------------------------------------------------------------------
# random Cantor-type test inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorSpec:
    """Seeded random dyadic Cantor construction.

    At each of `depth` block levels, every surviving cell spawns 2**block
    children of which `keep` survive, chosen by the seeded RNG.  The natural
    measure splits mass equally among kept children, giving dimension
    log2(keep)/block.
    """

    block: int
    keep: int
    depth: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.keep <= 2 ** self.block:
            raise ValueError(f"keep={self.keep} outside [1, 2**block]")

    @property
    def level(self) -> int:
        return self.block * self.depth

    @property
    def dimension(self) -> float:
        return float(np.log2(self.keep)) / self.block


_FROSTMAN_CAP = 4.0
_RETRY_STRIDE = 10007


def make_random_frostman(spec: CantorSpec):
    """Random Cantor set and its natural measure; deterministic per seed.

    The measure is laid out OVERSAMPLE_BITS finer than the set.  At build
    time the Frostman constant at s = dimension is required to be <= 4 over
    dyadic radii in [2**-level, 1/2]; the seed is deterministically re-drawn
    (seed + k*10007) until the draw passes, so equal specs give equal output.
    """
    for attempt in range(8):
        rng = np.random.default_rng(spec.seed + attempt * _RETRY_STRIDE)
        cells = np.zeros(1, dtype=np.int64)
        nfold = 1 << spec.block
        for _ in range(spec.depth):
            n = cells.size
            offsets = np.argsort(rng.random((n, nfold)), axis=1)[:, :spec.keep]
            offsets.sort(axis=1)
            cells = (cells[:, None] * nfold + offsets).reshape(-1)
        cells.sort()
        X = DyadicGridSet(spec.level, cells)
        f = 1 << OVERSAMPLE_BITS
        mu = _uniform_on(spec.level + OVERSAMPLE_BITS,
                         (X.cells[:, None] * f + np.arange(f)).reshape(-1))
        if frostman_constant(mu, spec.dimension,
                             (2.0 ** -spec.level, 0.5)) <= _FROSTMAN_CAP:
            return X, mu
    raise RuntimeError(
        f"no draw of {spec} met the Frostman cap {_FROSTMAN_CAP} in 8 attempts")


# ---------------------------------------------------------------------------
# lattice-neighborhood sets
# ---------------------------------------------------------------------------

def make_lattice_neighborhood(s: float, schedule, level: int) -> DyadicGridSet:
    """Grid points of [0, 1] within n_k**-1 of the lattice n_k**-s * Z, all k.

    Returns the set.  An empty schedule imposes no constraint (the full
    interval); a schedule entry that empties the set at grid resolution is
    reported by its position.
    """
    if not 0 < s < 1:
        raise ValueError("need 0 < s < 1")
    schedule = tuple(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    h = 2.0 ** -level
    centers = (np.arange(1 << level) + 0.5) * h
    keep = np.ones(centers.size, dtype=bool)
    for pos, n in enumerate(schedule):
        if 1.0 / n < h:
            raise ValueError(f"schedule entry n_{pos + 1}={n} is below grid resolution")
        gap = float(n) ** -s
        dist = np.abs(centers - np.round(centers / gap) * gap)
        keep &= dist <= 1.0 / n + 1e-12
        if not np.any(keep):
            raise ValueError(f"set is empty at grid resolution after n_{pos + 1}={n}")
    return DyadicGridSet(level, np.nonzero(keep)[0])


# ---------------------------------------------------------------------------
# combs
# ---------------------------------------------------------------------------

def make_comb(r: float, c: float) -> GridMeasure:
    """Uniform probability measure on the intervals of length c*r centred on
    r*Z inside [0, 1]; its occupied cells are the comb's cells.

    Guarantees: cos(2 pi x / r) >= 1/2 on the support (c <= 1/8), hence
    |rho_hat(1/r)| >= 1/2.
    """
    l = _dyadic_exponent(r)
    if l < 2:
        raise ValueError(f"r={r} is above 1/4")
    if not 0 < c <= 0.125:
        raise ValueError("c must lie in (0, 1/8]")
    level = int(np.ceil(-np.log2(c * r))) + 2
    period = 1 << (level - l)           # cells from one tooth to the next
    # one tooth's cells: offsets j from the tooth at 0, center (j + 1/2) h
    j = np.arange(-period // 2, period // 2)
    tooth = j[np.abs((j + 0.5) * 2.0 ** -level) <= c * r / 2.0]
    cells = (np.arange((1 << l) + 1)[:, None] * period + tooth).ravel()
    return _uniform_on(level, cells[(cells >= 0) & (cells < 1 << level)])


def make_shifted_comb(s: float, delta: float, c: float = 1.0 / 16) -> GridMeasure:
    """Comb of dyadic spacing r nearest delta**s, r = 2**-round(s log2(1/delta)),
    moved by the dyadic map x -> (delta/r) x + 1 into [1, 1 + delta/r].

    The map relabels make_comb(r, c)'s cells one for one, so the result is a
    uniform measure on ~1/r intervals of length c*delta whose teeth sit
    exactly delta apart, for every s: its mollified L2 norm is as large as a
    measure of dimension s can have, yet the triple multiplicative
    self-convolution has transform of size ~1 at frequency 1/delta.  Requires
    a dyadic delta, s < 1/2, r <= 1/4 and a phase budget
    delta**(2-3s) <= 1/16, delta**(1-2s) <= 1/16.

    Guarantees, reported as the counterexample experiment's exact verdicts:
      * l2_at_scale(mu, delta)^2 within a factor 16 of delta**(s-1),
      * |(mu x mu x mu)^(1/delta)| >= 1/8.
    """
    if not 0 < s < 0.5:
        raise ValueError("need 0 < s < 1/2")
    budget_cube = delta ** (2.0 - 3.0 * s)
    budget_square = delta ** (1.0 - 2.0 * s)
    cap = (1.0 / 16) * (1.0 + 1e-9)
    if budget_cube > cap or budget_square > cap:
        raise ValueError(
            f"phase budget too large: delta^(2-3s)={budget_cube:.3g}, "
            f"delta^(1-2s)={budget_square:.3g} (need both <= 1/16)")
    m = _dyadic_exponent(delta)
    l = int(round(s * m))
    if l < 2:
        raise ValueError(f"delta={delta} and s={s} give the comb spacing 2**-{l}, "
                         f"above 1/4 (need round(s*log2(1/delta)) >= 2)")
    rho = make_comb(2.0 ** -l, c)
    level = rho.level + m - l
    return GridMeasure(level, rho.origin_index + (1 << level), rho.masses)


# ---------------------------------------------------------------------------
# thin interval
# ---------------------------------------------------------------------------

def make_thin_interval(s: float, delta: float, c: float) -> GridMeasure:
    """Normalized uniform measure on [0, c * delta**(1-s)] for s < 2/3.

    Its triple multiplicative power is supported in [0, c**3 delta**(3-3s)]
    which sits inside [0, c*delta], so the transform at 1/delta is ~1: on the
    grid, the triple product lies in [0, c*delta + one cell] and its
    transform at 1/delta has modulus >= 1/2.
    """
    if not 0 < s < 2.0 / 3:
        raise ValueError("need 0 < s < 2/3")
    if not 0 < c <= 0.5:
        raise ValueError("need 0 < c <= 1/2")
    width = c * delta ** (1.0 - s)
    # resolve the window and the phases at 1/delta; the triple product then
    # collapses into the first few cells, which still shows containment
    level = max(int(np.ceil(np.log2(1.0 / width))) + 4,
                int(np.ceil(np.log2(1.0 / delta))) + 5)
    return uniform_measure(0.0, width, level)


def mix(mu: GridMeasure, nu: GridMeasure, weight: float) -> GridMeasure:
    """Convex combination weight*mu + (1-weight)*nu on a common grid."""
    if not 0 <= weight <= 1:
        raise ValueError("weight must lie in [0, 1]")
    level, lo, a, b = _common_grid(mu, nu)
    return GridMeasure(level, lo, weight * a + (1 - weight) * b)
