import tracemalloc

import numpy as np
import pytest

from decaylab import covering_number, frostman_constant
from decaylab.constructions import (CantorSpec, make_comb,
                                    make_lattice_neighborhood,
                                    make_random_frostman, make_shifted_comb,
                                    make_thin_interval)
from decaylab.convolution import convolve
from decaylab.spectral import l2_at_scale, product_fourier

from conftest import fourier_at, occupied


# ---------------------------------------------------------------------------
# combs
# ---------------------------------------------------------------------------

def test_comb_cosine_floor_and_transform():
    r, c = 2.0 ** -4, 1.0 / 16
    rho = make_comb(r, c)
    X = rho.occupied_set()
    assert np.cos(2 * np.pi * X.centers() / r).min() >= 0.5
    assert abs(fourier_at(rho, 1.0 / r)) >= 0.5
    assert rho.total_mass == pytest.approx(1.0, abs=1e-12)


def test_comb_builds_from_its_teeth():
    # 2**16 - 1 teeth of 4 level-22 cells and two half-teeth at 0 and 1:
    # only the 32 MiB window the measure keeps (and its copy) is dense, with
    # no scan of every cell's center beside it
    tracemalloc.start()
    try:
        rho = make_comb(2.0 ** -16, 1.0 / 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    assert np.count_nonzero(rho.masses) == 4 << 16


def test_comb_teeth_count():
    # oracle: maximal runs of consecutive kept cells
    rho = make_comb(2.0 ** -2, 1.0 / 8)
    X = rho.occupied_set()
    runs = int(np.sum(np.diff(X.cells) > 1)) + 1
    # teeth sit at 0, 1/4, 1/2, 3/4 and 1 (the two end teeth are halved)
    assert runs == 5
    assert rho.total_mass == pytest.approx(1.0, abs=1e-12)


def test_comb_rejections():
    # an absolute tolerance would read 3e-9 as 2**-28 and build a 128 GiB grid
    for r in (0.3, 1e-9, 3e-9):
        with pytest.raises(ValueError, match="not a dyadic power"):
            make_comb(r, 1.0 / 16)
    with pytest.raises(ValueError):
        make_comb(2.0 ** -3, 0.3)      # c too large for the cosine floor


# ---------------------------------------------------------------------------
# lattice neighbourhoods
# ---------------------------------------------------------------------------

def test_lattice_empty_schedule_full_interval():
    assert make_lattice_neighborhood(0.5, (), 8).size == 256


def test_lattice_single_entry_structure():
    # oracle: direct arithmetic enumeration over cell centers
    s, n, level = 0.5, 16, 8
    X = make_lattice_neighborhood(s, (n,), level)
    h = 2.0 ** -level
    centers = (np.arange(1 << level) + 0.5) * h
    gap = n ** -s
    expect = np.abs(centers - np.round(centers / gap) * gap) <= 1.0 / n + 1e-12
    assert np.array_equal(np.nonzero(expect)[0], X.cells)
    # clumps of width 2/n around multiples of 1/4 (including both endpoints)
    runs = int(np.sum(np.diff(X.cells) > 1)) + 1
    assert runs == 5
    # covering number at scale 1/n: clump width / scale per clump, edges halved
    cover = covering_number(X, 2.0 ** -4)
    per_clump = int(round((2.0 / n) / (1.0 / 16)))
    assert cover == pytest.approx(4 * per_clump + per_clump, abs=2)


def test_lattice_rejects_below_resolution():
    with pytest.raises(ValueError, match="below grid resolution"):
        make_lattice_neighborhood(0.5, (16, 4096), 8)


def test_lattice_product_containment():
    s1 = s2 = 0.3
    n, level = 16, 10
    A = make_lattice_neighborhood(s1, (n,), level)
    B = make_lattice_neighborhood(s2, (n,), level)
    # every product a*b lies within 2/n of the lattice n**-(s1+s2) * Z;
    # grid slop: each center is within h/2 of a true set point; products move
    # by at most ~3 h/2
    h = 2.0 ** -level
    gap = float(n) ** -(s1 + s2)
    prod = np.multiply.outer(A.centers(), B.centers()).ravel()
    worst = np.abs(prod - np.round(prod / gap) * gap).max()
    assert worst <= 2.0 / n + 3 * h


# ---------------------------------------------------------------------------
# concentrated comb (the L2-vs-decay counterexample input)
# ---------------------------------------------------------------------------

def test_shifted_comb_moderate_scale():
    s, delta = 0.4, 2.0 ** -20
    mu = make_shifted_comb(s, delta)
    lo, hi = mu.support()
    assert lo >= 1.0 - mu.spacing
    assert hi <= 1.0 + delta ** (1 - s) + 2 * mu.spacing
    l2sq = l2_at_scale(mu, delta) ** 2
    ref = delta ** (s - 1.0)
    assert ref / 16 <= l2sq <= 16 * ref
    t2 = convolve(mu, mu, "mul")
    assert abs(product_fourier(t2, mu, 1.0 / delta)) >= 1.0 / 8


def test_shifted_comb_phase_defect_within_budget():
    s, delta = 0.4, 2.0 ** -20
    # |(mu x mu x mu)^(1/delta)| against |rho_hat(delta**-s)|**3: the phase
    # defect is at most 2 pi (delta^(2-3s) + 3 delta^(1-2s)) plus grid slop
    c = 1.0 / 16
    rho = make_comb(2.0 ** -int(round(-np.log2(delta ** s))), c)
    mu = make_shifted_comb(s, delta, c)
    actual = product_fourier(convolve(mu, mu, "mul"), mu, 1.0 / delta)
    base = fourier_at(rho, delta ** -s) ** 3 * np.exp(-2j * np.pi / delta)
    defect = abs(actual - base)
    budget = 2 * np.pi * (delta ** (2 - 3 * s) + 3 * delta ** (1 - 2 * s))
    grid_slop = 0.1
    assert defect <= budget + grid_slop


def test_shifted_comb_rejects_bad_budget():
    with pytest.raises(ValueError, match="phase budget"):
        make_shifted_comb(0.45, 2.0 ** -6)


@pytest.mark.parametrize("s, m, c", [
    (0.33, 20, 1.0 / 16), (0.3, 17, 1.0 / 16), (0.25, 13, 1.0 / 16), (0.37, 22, 0.1)])
def test_shifted_comb_guarantees_off_the_integer_exponents(s, m, c):
    # s*m is not an integer: the spacing r = 2**-round(s*m) is only near delta**s,
    # and the teeth still sit exactly delta apart
    delta, r = 2.0 ** -m, 2.0 ** -round(s * m)
    mu = make_shifted_comb(s, delta, c)
    lo, hi = mu.support()
    assert 1.0 <= lo and hi <= 1.0 + delta / r
    x = occupied(mu)[0] - 1.0
    assert np.all(np.abs(x - np.round(x / delta) * delta) <= c * delta / 2)
    l2sq = l2_at_scale(mu, delta) ** 2
    ref = delta ** (s - 1.0)
    assert ref / 16 <= l2sq <= 16 * ref
    assert abs(product_fourier(convolve(mu, mu, "mul"), mu, 1.0 / delta)) >= 1.0 / 8


# ---------------------------------------------------------------------------
# thin interval
# ---------------------------------------------------------------------------

def test_thin_interval_guarantees():
    s, delta, c = 0.5, 2.0 ** -12, 0.25
    mu = make_thin_interval(s, delta, c)
    lo, hi = mu.support()
    assert lo == pytest.approx(0.0, abs=mu.spacing)
    assert hi == pytest.approx(c * delta ** (1 - s), abs=2 * mu.spacing)
    # the triple product sits in [0, c delta] up to one cell of routing slop
    t3 = convolve(convolve(mu, mu, "mul"), mu, "mul")
    lo3, hi3 = t3.support()
    assert lo3 >= -1e-15
    assert hi3 <= c * delta + t3.spacing + 1e-15
    assert abs(fourier_at(t3, 1.0 / delta)) >= 0.5


def test_thin_interval_l2():
    s, delta, c = 0.5, 2.0 ** -12, 0.25
    mu = make_thin_interval(s, delta, c)
    v = l2_at_scale(mu, delta) ** 2
    ref = delta ** (s - 1.0) / c
    assert ref / 4 <= v <= 4 * ref


def test_thin_interval_small_s():
    mu = make_thin_interval(0.05, 2.0 ** -4, 0.25)
    assert abs(fourier_at(convolve(convolve(mu, mu, "mul"), mu, "mul"), 16.0)) >= 0.5


def test_thin_interval_rejections():
    with pytest.raises(ValueError):
        make_thin_interval(0.7, 2.0 ** -8, 0.25)
    with pytest.raises(ValueError):
        make_thin_interval(0.5, 2.0 ** -8, 0.9)


# ---------------------------------------------------------------------------
# random Cantor inputs
# ---------------------------------------------------------------------------

def test_cantor_full_keep_is_interval():
    spec = CantorSpec(block=2, keep=4, depth=3, seed=0)
    X, mu = make_random_frostman(spec)
    assert X.size == 64
    occ = mu.masses[mu.masses > 0]
    assert np.allclose(occ, occ[0])


def test_cantor_standard_draw():
    spec = CantorSpec(block=2, keep=2, depth=6, seed=7)
    X, mu = make_random_frostman(spec)
    assert X.level == 12
    assert X.size == 64
    assert frostman_constant(mu, 0.5, (2.0 ** -12, 0.5)) <= 4.0


def test_cantor_determinism():
    spec = CantorSpec(block=3, keep=3, depth=4, seed=123)
    X1, mu1 = make_random_frostman(spec)
    X2, mu2 = make_random_frostman(spec)
    assert np.array_equal(X1.cells, X2.cells)
    assert np.array_equal(mu1.masses, mu2.masses)


def test_cantor_spec_validation():
    with pytest.raises(ValueError):
        CantorSpec(block=2, keep=5, depth=3, seed=0)
    with pytest.raises(ValueError):
        CantorSpec(block=2, keep=0, depth=3, seed=0)
    spec = CantorSpec(block=2, keep=2, depth=3, seed=0)
    assert spec.dimension == pytest.approx(0.5)
