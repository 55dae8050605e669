import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab import (ball_mass_vector, energy_fourier, energy_spatial, exceptional_set,
                      extract_nonconcentrated, frostman_constant, point_mass,
                      regularize, set_check, uniform_measure)
from decaylab.constructions import mix
from decaylab.energy import _riesz_gamma
from decaylab.measures import GridMeasure

from conftest import centers, random_cantor_measure


# ---------------------------------------------------------------------------
# spatial energy
# ---------------------------------------------------------------------------

def test_energy_small_s_limit():
    mu = uniform_measure(0.0, 1.0, 9)
    v = energy_spatial(mu, 1e-6, 2.0 ** -6)
    assert v == pytest.approx(1.0, abs=1e-3)


def test_energy_uniform_half_closed_form():
    # closed form: int int |x-y|^(-1/2) dx dy over [0,1]^2 = 8/3
    mu = uniform_measure(0.0, 1.0, 12)
    v = energy_spatial(mu, 0.5, 2.0 ** -12)
    assert v == pytest.approx(8.0 / 3.0, rel=0.02)


def _cell_pair_energy(mu, s, delta):
    """The module notes' sum over the mollified cells: m_i m_j |c_i - c_j|^-s
    off the diagonal, 2 h^-s / ((1-s)(2-s)) per unit mass^2 on it."""
    md = regularize(mu, delta)
    h = md.spacing
    d = np.abs(np.subtract.outer(centers(md), centers(md)))
    kern = np.full_like(d, 2.0 * h ** -s / ((1.0 - s) * (2.0 - s)))
    off = d > 0
    kern[off] = d[off] ** -s
    return float(md.masses @ kern @ md.masses)


def test_energy_fft_equals_direct():
    mu = random_cantor_measure(4, depth=4)
    a = energy_spatial(mu, 0.4, 2.0 ** -8)
    b = _cell_pair_energy(mu, 0.4, 2.0 ** -8)
    assert a == pytest.approx(b, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 600), st.integers(1, 6), st.integers(0, 2),
       st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
def test_energy_fft_equals_direct_on_sparse_measures(n, atoms, k, s, seed):
    # a few atoms in a wide window, mollified by at most 4 cells, leave most
    # distances spanned by no pair: the autocorrelation holds roundoff there
    rng = np.random.default_rng(seed)
    masses = np.zeros(n)
    masses[rng.integers(0, n, size=atoms)] = rng.random(atoms) + 0.1
    mu = GridMeasure(10, 0, masses)
    delta = mu.spacing * 2 ** k
    a = energy_spatial(mu, s, delta)
    b = _cell_pair_energy(mu, s, delta)
    assert a == pytest.approx(b, rel=1e-10)


def test_energy_point_mass_scale():
    # oracle: quadrature of the bump self-energy on a 4x finer grid
    delta = 2.0 ** -6
    pm = point_mass(0.5, 9)
    v = energy_spatial(pm, 0.5, delta)
    ref = delta ** -0.5
    assert ref / 4 <= v <= 4 * ref
    from decaylab.measures import kernel_weights
    w = kernel_weights(delta, 11)
    h = 2.0 ** -11
    n = w.size
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * h
    kern = np.full_like(d, 2.0 * h ** -0.5 / (0.5 * 1.5))
    pos = d > 0
    kern[pos] = d[pos] ** -0.5
    oracle = float(w @ kern @ w)
    assert v == pytest.approx(oracle, rel=0.15)


def test_energy_rejects_s_out_of_range():
    mu = uniform_measure(0.0, 1.0, 6)
    for energy in (energy_spatial, energy_fourier):
        for s in (1.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                energy(mu, s, 2.0 ** -4)


def test_energy_monotone_in_delta():
    mu = random_cantor_measure(11, depth=4)
    for s in (0.3, 0.6):
        coarse = energy_spatial(mu, s, 2.0 ** -5)
        fine = energy_spatial(mu, s, 2.0 ** -6)
        assert coarse <= fine * 1.1


def test_energy_diameter_floor():
    mu = random_cantor_measure(2, depth=4)
    v = energy_spatial(mu, 0.5, 2.0 ** -8)
    lo, hi = mu.support()
    assert v >= mu.total_mass ** 2 * (hi - lo) ** -0.5


# ---------------------------------------------------------------------------
# frequency-side energy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_riesz_gamma_on_lebesgue_closed_form(s):
    # Lebesgue measure on [0, 1]: |mu_hat(xi)|^2 = sin^2(pi xi) / (pi xi)^2,
    # so int |mu_hat|^2 |xi|^(s-1) = 2 pi^-s int_0^inf sin^2(u) u^(s-3) du
    # = 2 pi^-s (-Gamma(s-2) cos(pi (s-2) / 2) / 2^(s-1)), and gamma(s) times
    # that is the spatial closed form 2 / ((1-s)(2-s)); no grid involved
    freq = 2.0 * math.pi ** -s * (-math.gamma(s - 2.0) * math.cos(math.pi * (s - 2.0) / 2.0)
                                  / 2.0 ** (s - 1.0))
    assert _riesz_gamma(s) * freq == pytest.approx(2.0 / ((1.0 - s) * (2.0 - s)), rel=1e-12)


def test_energy_fourier_lebesgue_closed_form():
    # gamma(s) times the trapezoid integral lands within 0.21% of the exact
    # energy of uniform [0, 1] (the spatial side is off by up to 1.48% here)
    mu = uniform_measure(0.0, 1.0, 9)
    for s in (0.3, 0.5, 0.7):
        exact = 2.0 / ((1.0 - s) * (2.0 - s))
        assert energy_fourier(mu, s, 2.0 ** -6) == pytest.approx(exact, rel=0.004)


def test_energy_fourier_cross_validation():
    # the two sides are derived independently; measured gaps 0.16%, 0.61%, 1.61%
    mu = uniform_measure(0.0, 0.5, 9)
    for s in (0.3, 0.5, 0.7):
        spatial = energy_spatial(mu, s, 2.0 ** -6)
        freq = energy_fourier(mu, s, 2.0 ** -6)
        assert freq == pytest.approx(spatial, rel=0.05)


def test_energy_scaling_law():
    mu = uniform_measure(0.0, 1.0, 10)
    s = 0.5
    half = GridMeasure(mu.level + 1, mu.origin_index, mu.masses)   # x -> x/2
    e1 = energy_fourier(mu, s, 2.0 ** -7)
    e2 = energy_fourier(half, s, 2.0 ** -7)
    assert e2 == pytest.approx(2.0 ** s * e1, rel=0.05)


def test_energy_fourier_monotone_in_delta():
    mu = random_cantor_measure(3, depth=3)
    v1 = energy_fourier(mu, 0.5, 2.0 ** -4)
    v2 = energy_fourier(mu, 0.5, 2.0 ** -5)
    assert v1 >= v2 * 0.9


def test_l2_energy_bridge():
    # ||mu_delta||_2^2 <= C delta^(s-1) I_s^delta(mu) with C <= 4 on the battery
    from decaylab import l2_at_scale
    delta = 2.0 ** -8
    for seed in range(4):
        mu = random_cantor_measure(seed, depth=4)
        s = 0.5
        lhs = l2_at_scale(mu, delta) ** 2
        rhs = delta ** (s - 1.0) * energy_spatial(mu, s, delta)
        assert lhs <= 4.0 * rhs


# ---------------------------------------------------------------------------
# Frostman constants
# ---------------------------------------------------------------------------

def test_frostman_uniform():
    # oracle: mu(B(x, r)) = min((2k+1) h, 1) with k = floor(r/h); sup ratio ~ 2
    mu = uniform_measure(0.0, 1.0, 12)
    K = frostman_constant(mu, 1.0, (2.0 ** -8, 0.25))
    h = mu.spacing
    oracle = max((2 * int(2.0 ** -l / h) + 1) * h / 2.0 ** -l for l in range(2, 9))
    assert K == pytest.approx(oracle, rel=1e-9)
    assert K == pytest.approx(2.0, rel=0.1)


def test_frostman_point_mass():
    pm = point_mass(0.5, 10)
    assert frostman_constant(pm, 0.5, (2.0 ** -8, 0.5)) == pytest.approx(2.0 ** 4, rel=1e-9)


def test_frostman_middle_thirds_type():
    # middle-thirds prefractal at grid resolution, s = log 2 / log 3
    level = 12
    h = 2.0 ** -level
    centers = (np.arange(1 << level) + 0.5) * h
    keep = np.ones(centers.size, dtype=bool)
    lo, width = np.zeros(1), np.ones(1)
    for _ in range(6):
        lo = np.concatenate([lo, lo + 2 * width / 3])
        width = np.repeat(width / 3, 2)[: lo.size]
        width = np.full(lo.size, width[0])
    inside = np.zeros(centers.size, dtype=bool)
    for a, w in zip(lo, width):
        inside |= (centers >= a) & (centers < a + w)
    masses = np.where(inside, 1.0, 0.0)
    mu = GridMeasure(level, 0, masses / masses.sum())
    s = np.log(2) / np.log(3)
    assert frostman_constant(mu, s, (2.0 ** -10, 0.5)) <= 8.0


def test_frostman_random_cantor_cap():
    mu = random_cantor_measure(7, block=2, keep=2, depth=6)
    assert frostman_constant(mu, 0.5, (2.0 ** -12, 0.5)) <= 4.0   # enforced at construction


def test_frostman_refuses_a_range_without_dyadic_radius():
    mu = uniform_measure(0.0, 1.0, 10)
    for r_range in ((0.5, 0.25), (0.3, 0.4)):
        with pytest.raises(ValueError, match="no dyadic radius"):
            frostman_constant(mu, 0.5, r_range)
    # a range around one dyadic radius holds it
    assert frostman_constant(mu, 0.5, (0.3, 0.6)) == frostman_constant(mu, 0.5, (0.5, 0.5))


def _gathered_ball_masses(masses, k):
    """mu(B(c_i, r)) over the cells |j - i| <= k, by one index gather per
    window end: the formula the slice form must equal bit for bit."""
    csum = np.concatenate([[0.0], np.cumsum(masses)])
    i = np.arange(masses.size)
    return csum[np.minimum(i + k + 1, masses.size)] - csum[np.maximum(i - k, 0)]


@st.composite
def _windowed_measures(draw):
    """A measure of 1-300 cells, gaps included, at level 1-10."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masses = rng.random(n) * (rng.random(n) < draw(st.floats(0.05, 1.0)))
    masses[[0, -1]] = 0.01 + rng.random(2)      # the window is the hull
    return GridMeasure(draw(st.integers(1, 10)), draw(st.integers(-40, 40)),
                       masses / masses.sum())


@settings(max_examples=150, deadline=None)
@given(_windowed_measures(), st.lists(st.integers(1, 310), max_size=5),
       st.floats(0.05, 1.0), st.data())
def test_ball_masses_equal_the_gather_formula(mu, ks, s, data):
    n, h = mu.size, mu.spacing
    # radii in whole and half cells, windows reaching or passing the hull
    for k in [k for k in ks + [1, n - 1, n, n + 2] if k >= 1]:
        for r in (k * h, (k + 0.5) * h):
            assert (ball_mass_vector(mu, r).tobytes()
                    == _gathered_ball_masses(mu.masses, k).tobytes())
    l_hi = data.draw(st.integers(0, mu.level))
    l_lo = data.draw(st.integers(0, l_hi))
    for lo in {l_lo, 0}:                        # r_max = 1 among them
        oracle = max(float(np.max(_gathered_ball_masses(mu.masses, 2 ** (mu.level - l))
                                  / (2.0 ** -l) ** s)) for l in range(lo, l_hi + 1))
        assert frostman_constant(mu, s, (2.0 ** -l_hi, 2.0 ** -lo)) == oracle


# ---------------------------------------------------------------------------
# exceptional sets
# ---------------------------------------------------------------------------

def test_exceptional_uniform_empty():
    mu = uniform_measure(0.0, 1.0, 13)
    rep = exceptional_set(mu, 0.5, 2.0 ** -10, 0.1)
    assert rep.exceptional.is_empty()
    assert rep.mass == 0.0
    # with a slightly larger budget the energy precondition holds as well
    rep2 = exceptional_set(mu, 0.5, 2.0 ** -10, 0.15)
    assert rep2.precondition_ok and rep2.guaranteed


def test_exceptional_catches_atom():
    base = uniform_measure(0.0, 1.0, 10)
    atom = point_mass(0.5, 10)
    mu = mix(atom, base, 0.5)
    delta = 2.0 ** -10
    rep = exceptional_set(mu, 0.5, delta, 0.1)
    assert not rep.exceptional.is_empty()
    # the atom's cell is inside E
    assert int(0.5 / mu.spacing) in rep.exceptional.cells
    assert rep.complement_ok


def test_exceptional_flags_every_occupied_cell():
    # nothing is left off E: the complement's Frostman constant is inf
    delta = 2.0 ** -10
    mu = point_mass(0.5, 10)
    rep = exceptional_set(mu, 0.5, delta, 0.1)
    assert np.all(np.isin(mu.occupied_set().cells, rep.exceptional.cells))
    assert rep.mass == 1.0
    assert not rep.complement_ok


def test_exceptional_frostman_measure_clean():
    mu = random_cantor_measure(5, depth=5)
    delta = 2.0 ** -10
    rep = exceptional_set(mu, 0.5, delta, 0.3)
    assert rep.mass == 0.0
    assert rep.guaranteed


# ---------------------------------------------------------------------------
# non-concentrated extraction
# ---------------------------------------------------------------------------

def test_extract_uniform_keeps_most():
    mu = uniform_measure(0.0, 1.0, 12)
    res = extract_nonconcentrated(mu, 0.5, 2.0 ** -8, 0.2)
    assert res.ok
    assert res.retained >= 0.4
    cells = res.a1.cells
    assert cells[-1] + 1 - cells[0] >= (1 << 8) // 2    # covers at least half the support


def test_extract_two_level_density():
    # plateaus of density 1 and 2^10; extraction keeps exactly one of them
    level = 12
    h = 2.0 ** -level
    masses = np.zeros(1 << level)
    lo_cells = slice(0, 1 << 10)                     # [0, 1/4): density low
    hi_cells = slice(3 << 10, (3 << 10) + (1 << 4))  # thin block of huge density
    masses[lo_cells] = h
    masses[hi_cells] = h * 2.0 ** 10
    mu = GridMeasure(level, 0, masses / masses.sum())
    res = extract_nonconcentrated(mu, 0.9, 2.0 ** -9, 0.3)
    cls_cells = res.a1.cells
    rho_level = 9
    lo_rho = np.arange(0, (1 << 10) >> (level - rho_level))
    hi_rho = np.unique(np.arange(3 << 10, (3 << 10) + (1 << 4)) >> (level - rho_level))
    in_lo = np.isin(cls_cells, lo_rho).all()
    in_hi = np.isin(cls_cells, hi_rho).all()
    assert in_lo or in_hi   # one plateau, not a mix


def test_extract_failure_reports_histogram():
    # a near-atom fails: the exceptional set swallows the mass, no density
    # class can retain rho^(2 tau)
    atom = point_mass(0.5, 12)
    base = uniform_measure(0.0, 1.0, 12)
    mu = mix(atom, base, 0.97)
    res = extract_nonconcentrated(mu, 0.5, 2.0 ** -9, 0.05)
    assert not res.precondition_ok
    if not res.ok:
        assert res.retained < res.retained_target or not res.set_ok
    assert isinstance(res.level_histogram, dict)


def test_extract_outputs_pass_set_check():
    for seed in range(6):
        mu = random_cantor_measure(seed, depth=5)
        rho, tau, s = 2.0 ** -8, 0.2, 0.45
        res = extract_nonconcentrated(mu, s, rho, tau)
        assert res.precondition_ok
        assert res.ok
        passed, _ = set_check(res.a1, s, rho ** (-6 * tau), "frostman-type")
        assert passed
