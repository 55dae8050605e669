from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decaylab import (GridMeasure, convolve, decay_profile, fourier_at, fourier_many,
                      l2_at_scale, order_check, point_mass, product_fourier,
                      pushforward_affine, uniform_measure)
from decaylab import spectral
from decaylab.spectral import (fourier_lattice, fourier_progression,
                               product_chain_fourier, profile_from_samples)

from conftest import random_cantor_measure, random_masses_measure


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_fourier_normalization_and_bounds():
    mu = random_masses_measure(1)
    assert fourier_at(mu, 0.0) == pytest.approx(mu.total_mass, abs=1e-14)
    xis = np.geomspace(1, 300, 40)
    mags = np.abs(fourier_many(mu, xis))
    assert np.all(mags <= mu.total_mass + 1e-12)


def test_conjugate_symmetry_exact():
    mu = random_masses_measure(2)
    for xi in (1.0, 17.5, 256.0):
        assert fourier_at(mu, -xi) == np.conj(fourier_at(mu, xi))


def test_uniform_zero_of_sinc():
    mu = uniform_measure(0.0, 1.0, 8)   # oversampling 8 relative to scale 2^-5
    assert abs(fourier_at(mu, 1.0)) <= 2e-3


def test_point_mass_unimodular():
    pm = point_mass(0.7, 10)
    for xi in (3.0, 101.0, 999.0):
        assert abs(fourier_at(pm, xi)) == pytest.approx(1.0, abs=1e-12)


def test_product_fourier_against_double_sum():
    # oracle: explicit double sum over cell-center pairs
    mu = uniform_measure(1.0, 2.0, 10)
    nu = uniform_measure(1.0, 2.0, 10)
    xi = 64.0
    c, w = mu.occupied()
    d, q = nu.occupied()
    phases = np.exp(-2j * np.pi * xi * np.multiply.outer(c, d))
    oracle = complex(w @ phases @ q)
    val = product_fourier(mu, nu, xi)
    assert abs(val - oracle) <= 1e-10


def test_product_fourier_identities():
    mu = random_masses_measure(3)
    one_atom = point_mass(1.0, mu.level)
    c1 = one_atom.occupied()[0][0]
    assert product_fourier(mu, one_atom, 5.0) == pytest.approx(
        fourier_at(mu, 5.0 * c1), abs=1e-12)
    nu = random_masses_measure(4)
    assert product_fourier(mu, nu, 0.0) == pytest.approx(
        mu.total_mass * nu.total_mass, abs=1e-12)


def test_product_chain_matches_pairwise():
    mu = random_cantor_measure(1)
    nu = random_cantor_measure(2)
    for xi in (3.0, 700.0):
        a = product_chain_fourier([mu, nu], xi)
        b = product_fourier(mu, nu, xi)   # integral form, same atoms
        assert abs(a - b) <= 1e-10


def test_product_chain_three_cantor_factors_match_nested_sum():
    # oracle: the nested direct formula, last factor's transform at xi times
    # every product of occupied centers of the first n - 1 factors
    ms = [random_cantor_measure(seed, depth=4) for seed in (11, 12, 13)]
    (c1, w1), (c2, w2) = ms[0].occupied(), ms[1].occupied()
    prod_c = np.multiply.outer(c1, c2).ravel()
    prod_w = np.multiply.outer(w1, w2).ravel()
    for xi in (3.0, 257.5, 2048.0):
        oracle = complex(np.sum(prod_w * fourier_many(ms[2], xi * prod_c)))
        assert abs(product_chain_fourier(ms, xi) - oracle) <= 1e-10


def test_routed_product_agrees_at_moderate_frequency():
    # grid-routed multiplicative convolution vs the atom-exact transform
    mu = uniform_measure(1.0, 2.0, 11)
    nu = uniform_measure(1.0, 2.0, 11)
    delta = 2.0 ** -8
    xi = 2.0 / delta
    routed = fourier_at(convolve(mu, nu, "mul"), xi)
    assert abs(routed - product_fourier(mu, nu, xi)) <= 3e-2


# ---------------------------------------------------------------------------
# transforms on a progression: chirp-z against the explicit double sum
# ---------------------------------------------------------------------------

@st.composite
def _window_measures(draw, level, origin_lo, origin_hi, max_size=2048):
    """Measures on a window of 1..max_size cells, dense or sparse, at `level`."""
    size = draw(st.integers(1, max_size))
    origin = draw(st.integers(origin_lo, origin_hi))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    fill = draw(st.sampled_from([1.0, 0.3, 0.02]))
    rng = np.random.default_rng(seed)
    masses = rng.random(size) * (rng.random(size) < fill)
    masses[rng.integers(size)] = 1.0
    return GridMeasure(level, origin, masses)


def _double_sum(mu, xis):
    c, w = mu.occupied()
    return np.exp(-2j * np.pi * np.multiply.outer(xis, c)) @ w


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv,
                                       min(2048, 2 << lv))),
       st.integers(1, 2000),
       st.lists(st.tuples(st.floats(-2048.0, 2048.0), st.floats(0.0, 2.0)),
                min_size=1, max_size=3))
def test_chirp_z_matches_double_sum(mu, count, rows):
    # frequencies up to 2/delta = 2048 at level 13, centers in [-2, 4]
    start = np.array([a for a, _ in rows])
    step = np.array([b for _, b in rows])
    ks = np.arange(count)
    got = spectral._chirp_z(mu, start, step, ks)
    oracle = _double_sum(mu, start[:, None] + step[:, None] * ks)
    assert np.max(np.abs(got - oracle)) <= 1e-9 * mu.total_mass


@settings(max_examples=30, deadline=None)
@given(_window_measures(26, 1 << 26, (1 << 26) + (1 << 14)),
       st.integers(1, 2000),
       st.lists(st.integers(1 << 26, (1 << 26) + (1 << 14)),
                min_size=1, max_size=3))
def test_chirp_z_counterexample_shape(mu, count, nu_origins):
    # counterexample scale: level 26 near x = 1, xi = 2**20 times the
    # centers of a second level-26 window.  All phases are integers times
    # 2**-34, so the oracle reduces them exactly in int64.  Phases reach
    # 2**21 turns here: reducing fl(xi * c) instead of the exact product
    # leaves errors up to ~3e-10, so the bound is set well below that.
    xi, h = 2.0 ** 20, 2.0 ** -26
    odd_nu = 2 * np.array(nu_origins, dtype=np.int64) + 1
    start = xi * odd_nu * (h / 2)
    step = np.full(odd_nu.size, xi * h)
    ks = np.arange(count)
    got = spectral._chirp_z(mu, start, step, ks)
    nz = np.nonzero(mu.masses)[0]
    odd_mu = 2 * (mu.origin_index + nz) + 1
    for row, o in enumerate(odd_nu):
        prod = np.multiply.outer(o + 2 * ks, odd_mu) & ((1 << 34) - 1)
        oracle = np.exp(-2j * np.pi * prod * 2.0 ** -34) @ mu.masses[nz]
        assert np.max(np.abs(got[row] - oracle)) <= 1e-12 * mu.total_mass


def test_progression_dispatch_matches_direct_sum_across_threshold():
    rng = np.random.default_rng(7)
    mu = GridMeasure(10, 1024, rng.random(300))
    start, step = np.array([3.5, -700.25]), np.array([0.75, 1.5])
    paths = set()
    for count in range(1, 12):
        ks = np.arange(count)
        paths.add(spectral._use_direct(mu, ks))
        got = fourier_progression(mu, start, step, ks)
        oracle = fourier_many(mu, start[:, None] + step[:, None] * ks)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * mu.total_mass
    assert paths == {True, False}


def test_progression_sparse_indices_and_empty_cases():
    mu = random_cantor_measure(3)
    ks = np.array([5000, 0, 17, 17])
    got = fourier_progression(mu, 12.5, 0.125, ks)
    assert got.shape == (1, 4)
    assert np.allclose(got[0], fourier_many(mu, 12.5 + 0.125 * ks), atol=1e-12)
    assert fourier_progression(mu, [1.0, 2.0], 1.0, []).shape == (2, 0)
    empty = GridMeasure(6, 0, np.zeros(8))
    assert not np.any(fourier_progression(empty, 1.0, 1.0, [0, 3]))
    with pytest.raises(ValueError):
        fourier_progression(mu, 1.0, 1.0, [-1, 2])


# ---------------------------------------------------------------------------
# product transforms over frequency arrays
# ---------------------------------------------------------------------------

@st.composite
def _small_measures(draw, max_size=40):
    """Probability measures on 1..max_size cells at levels 2..9, centers in
    [-2, 2], dense or sparse; a single atom is possible."""
    level = draw(st.integers(2, 9))
    size = draw(st.integers(1, min(max_size, 4 << level)))
    origin = draw(st.integers(-(2 << level), (2 << level) - size))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    fill = draw(st.sampled_from([1.0, 0.3, 0.05]))
    rng = np.random.default_rng(seed)
    masses = rng.random(size) * (rng.random(size) < fill)
    masses[rng.integers(size)] = 1.0
    return GridMeasure(level, origin, masses / masses.sum())


# frequencies up to 64 with centers in [-2, 2]: the double-sum oracles
# below round their phases fl(xi * c * d) to ~1e-13 turns
_XIS = st.lists(st.floats(-64.0, 64.0), min_size=1, max_size=6).map(np.array)


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(_small_measures(), _small_measures(), _XIS, st.sampled_from([1, 7, 1 << 20]))
def test_product_fourier_array_matches_scalar_calls_and_double_sum(mu, nu, xis, batch):
    with mock.patch.object(spectral, "_BATCH", batch):
        got = product_fourier(mu, nu, xis)
        lhs, rhs = order_check(mu, nu, xis)
    assert got.shape == lhs.shape == rhs.shape == xis.shape
    for i, xi in enumerate(xis):
        assert _same_bits(got[i], product_fourier(mu, nu, xi))
        one_lhs, one_rhs = order_check(mu, nu, xi)
        assert _same_bits(lhs[i], one_lhs) and _same_bits(rhs[i], one_rhs)
    (c, w), (d, q) = mu.occupied(), nu.occupied()
    phases = np.exp(-2j * np.pi * np.multiply.outer(xis, np.multiply.outer(d, c)))
    inner = phases @ w                                       # mu_hat(xi d)
    assert np.max(np.abs(got - inner @ q)) <= 1e-12
    assert np.max(np.abs(lhs - np.abs(inner @ q) ** 2)) <= 1e-12
    assert np.max(np.abs(rhs - np.abs(inner) ** 2 @ q)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(_small_measures(max_size=12), min_size=1, max_size=4), _XIS,
       st.sampled_from([1, 5, 1 << 20]))
def test_product_chain_array_matches_scalar_calls_and_nested_sum(ms, xis, batch):
    with mock.patch.object(spectral, "_BATCH", batch):
        got = product_chain_fourier(ms, xis)
    assert got.shape == xis.shape
    for i, xi in enumerate(xis):
        assert _same_bits(got[i], product_chain_fourier(ms, xi))
    prod_c, prod_w = np.array([1.0]), np.array([1.0])
    for m in ms:
        c, w = m.occupied()
        prod_c = np.multiply.outer(prod_c, c).ravel()
        prod_w = np.multiply.outer(prod_w, w).ravel()
    oracle = np.exp(-2j * np.pi * np.multiply.outer(xis, prod_c)) @ prod_w
    assert np.max(np.abs(got - oracle)) <= 1e-12


def test_product_transforms_keep_the_shape_of_xi():
    mu, nu = random_cantor_measure(1, depth=3), random_cantor_measure(2, depth=3)
    for xi in (3.0, np.float64(3.0), np.array(3.0)):
        assert type(product_fourier(mu, nu, xi)) is complex
        assert type(product_chain_fourier([mu, nu, mu], xi)) is complex
        assert type(product_chain_fourier([mu], xi)) is complex
        assert all(type(v) is float for v in order_check(mu, nu, xi))
    grid = np.array([[1.0, 2.5, 40.0], [-3.0, 0.0, 7.25]])
    assert product_fourier(mu, nu, grid).shape == (2, 3)
    assert product_chain_fourier([mu, nu, mu], grid).shape == (2, 3)
    assert [a.shape for a in order_check(mu, nu, grid)] == [(2, 3), (2, 3)]
    assert product_fourier(mu, nu, np.array([])).shape == (0,)
    assert product_chain_fourier([mu, nu, mu], np.zeros((0, 2))).shape == (0, 2)


# ---------------------------------------------------------------------------
# Taylor-table transforms at s * n for exact integers n
# ---------------------------------------------------------------------------

def _exact_phase_sum(mu, s, n):
    """sum_j m_j exp(-2 pi i s n c_j) with c_j = odd_j h / 2, every phase
    (s h / 2)(n odd_j) reduced by _turns."""
    nz = np.nonzero(mu.masses)[0]
    odd = 2 * (mu.origin_index + nz) + 1
    turns = spectral._turns(s[:, None, None] * (mu.spacing / 2), np.multiply.outer(n, odd))
    return np.exp(-2j * np.pi * turns) @ mu.masses[nz]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv, min(2048, 2 << lv))),
       st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=4).map(np.array),
       st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=12).map(np.array),
       st.sampled_from([1, 3, 1 << 16]))
@example(GridMeasure(9, -700, np.array([0.5])), np.array([0.25, -0.1]),
         np.array([1 << 20, -3, 0]), 1)
@example(GridMeasure(13, -9000, np.r_[1.0, np.zeros(2046), 2.0]), np.array([0.2499]),
         np.array([(1 << 20) - 1, 12345]), 3)
@example(GridMeasure(6, 0, np.zeros(8)), np.array([1.0, 2.0]), np.array([1, 3]), 1)
def test_fourier_lattice_matches_exact_phase_sum(mu, s, n, batch):
    # centers lie in [-2, 4], so |s n c| reaches 2**20 turns
    got = fourier_lattice(mu, s, n)
    assert got.shape == (s.size, n.size)
    assert np.max(np.abs(got - _exact_phase_sum(mu, s, n))) <= 1e-12 * mu.total_mass
    centered = fourier_lattice(mu, s, n, centered=True)
    assert np.max(np.abs(np.abs(centered) - np.abs(got))) <= 1e-12 * mu.total_mass
    with mock.patch.object(spectral, "_BATCH", batch):
        assert _same_bits(fourier_lattice(mu, s, n), got)
        assert _same_bits(fourier_lattice(mu, s[::-1], n)[::-1], got)
        # a 2-d n is split along its first axis once a row passes _BATCH
        assert _same_bits(fourier_lattice(mu, s, n[:, None]), got[:, :, None])
        assert _same_bits(fourier_lattice(mu, s, n[:, None], lambda v: v.sum(axis=-1)), got)
        assert _same_bits(fourier_lattice(mu, s, n, centered=True), centered)
    for b, sb in enumerate(s):
        assert _same_bits(fourier_lattice(mu, sb, n), got[b:b + 1])


def test_fourier_lattice_refuses_inexact_phases():
    mu = GridMeasure(40, 1 << 45, np.array([1.0]))      # odd* = 2**46 + 1
    assert fourier_lattice(mu, 1.0, [1 << 5]).shape == (1, 1)
    with pytest.raises(ValueError, match=r"2\*\*52"):
        fourier_lattice(mu, 1.0, [1 << 6])
    # without the phase only n itself is bounded
    assert fourier_lattice(mu, 1.0, [1 << 6], centered=True).shape == (1, 1)
    with pytest.raises(ValueError, match=r"2\*\*52"):
        fourier_lattice(mu, 1.0, [1 << 52], centered=True)
    # five factors at level 14 near 1.5: the tail's odd products pass 2**60
    atoms = [point_mass(1.5, 14)] * 5
    with pytest.raises(ValueError, match=r"2\*\*52"):
        product_chain_fourier(atoms, 3.0)


def test_fourier_lattice_refuses_wide_tables_and_dense_chains():
    # two atoms 2**16 cells apart ask for a 12 x 2**19 table; the
    # refusal comes before any table is allocated
    wide = GridMeasure(20, 0, np.r_[1.0, np.zeros((1 << 16) - 2), 1.0])
    with pytest.raises(ValueError, match="too wide"):
        fourier_lattice(wide, 1.0, [1])
    mu = random_cantor_measure(1, depth=3)
    with mock.patch.object(spectral, "_TABLE_ENTRIES", 64):
        with pytest.raises(ValueError, match="too wide"):
            product_chain_fourier([mu, mu], 3.0)
    with mock.patch.object(spectral, "_CHAIN_ATOMS", 63):
        with pytest.raises(ValueError, match="too dense"):
            product_chain_fourier([mu, mu, mu], 3.0)     # 8 x 8 atom products


@settings(max_examples=40, deadline=None)
@given(_small_measures(max_size=200), st.integers(1, 64),
       st.lists(st.floats(-4096.0, 4096.0), min_size=1, max_size=40))
def test_fourier_many_does_not_depend_on_chunking(mu, chunk, xis):
    xis = np.array(xis)
    want = fourier_many(mu, xis)
    with mock.patch.object(spectral, "_CHUNK", chunk):
        assert _same_bits(fourier_many(mu, xis), want)
        assert _same_bits(fourier_many(mu, xis[::-1])[::-1], want)
        assert _same_bits([fourier_at(mu, x) for x in xis], want)


# ---------------------------------------------------------------------------
# L2 at scale
# ---------------------------------------------------------------------------

def test_l2_uniform():
    # oracle: fine-grid quadrature of the mollified density squared
    from decaylab.measures import kernel_weights
    mu = uniform_measure(0.0, 1.0, 10)
    for delta in (2.0 ** -3, 2.0 ** -4, 2.0 ** -6):
        v = l2_at_scale(mu, delta) ** 2
        w = kernel_weights(delta, 12)
        dens = np.convolve(np.ones(1 << 12), w)   # mollified density on a finer grid
        oracle = float(np.sum(dens ** 2) * 2.0 ** -12)
        assert v == pytest.approx(oracle, rel=0.02)
        assert 0.9 <= v <= 1.3


def test_l2_point_mass_scaling():
    delta = 2.0 ** -5
    pm = point_mass(0.5, 10)
    v = l2_at_scale(pm, delta) ** 2
    assert 1.0 / (2 * delta) <= v <= 2.0 / delta


def test_plancherel_consistency():
    mu = uniform_measure(0.0, 1.0, 9)
    delta = 2.0 ** -5
    from decaylab import regularize
    md = regularize(mu, delta)
    spatial = np.sum(md.masses ** 2) / md.spacing
    xis = np.arange(0.0, 8.0 / delta, 1.0 / 16)
    vals = np.abs(fourier_many(md, xis)) ** 2
    freq = 2.0 * np.trapezoid(vals, xis)
    assert freq == pytest.approx(spatial, rel=0.02)


# ---------------------------------------------------------------------------
# decay profiles
# ---------------------------------------------------------------------------

def test_decay_profile_point_mass_flat():
    pm = point_mass(0.3, 10)
    prof = decay_profile(pm, (8.0, 512.0), 30)
    assert abs(prof.tau_hat) <= 0.05


def test_decay_profile_uniform_interval():
    # closed form |mu_hat(xi)| = |sinc(pi xi)| for uniform [1,2];
    # fitted exponent over [16, 256] is 1 up to sampling wiggle
    mu = uniform_measure(1.0, 2.0, 13)
    prof = decay_profile(mu, (16.0, 256.0), 60)
    oracle = np.abs(np.sinc(prof.xi_samples))   # np.sinc(x) = sin(pi x)/(pi x)
    # guard the magnitude samples themselves against the closed form
    ok = oracle > 1e-6
    assert np.max(np.abs(prof.magnitudes[ok] - oracle[ok])) <= 1e-3
    assert 0.8 <= prof.tau_hat <= 1.2


def test_decay_profile_floor_sentinel():
    pm = point_mass(0.0, 6)   # atom in the cell [0, h): transform ~ 1, never floors
    prof = decay_profile(pm, (2.0, 20.0), 10)
    assert not prof.all_below_floor
    dead = profile_from_samples(np.array([1.0, 2.0, 4.0]),
                                np.array([0.0, 0.0, 0.0]))
    assert dead.all_below_floor and np.isinf(dead.tau_hat)
    assert dead.floor_hits == 3


def test_decay_profile_translation_invariant():
    mu = random_masses_measure(5, level=10)
    shifted = pushforward_affine(mu, 1.0, 0.25)
    p1 = decay_profile(mu, (4.0, 100.0), 25)
    p2 = decay_profile(shifted, (4.0, 100.0), 25)
    assert abs(p1.tau_hat - p2.tau_hat) <= 1e-9


def test_profile_band_validation():
    mu = random_masses_measure(6)
    with pytest.raises(ValueError):
        decay_profile(mu, (0.5, 10.0), 10)
    with pytest.raises(ValueError):
        decay_profile(mu, (4.0, 100.0), 2)


# ---------------------------------------------------------------------------
# order exchange
# ---------------------------------------------------------------------------

def test_order_check_point_mass_equality():
    pm = point_mass(0.5, 8)
    lhs, rhs = order_check(pm, pm, 37.0)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_order_check_single_atom_nu_collapses():
    mu = uniform_measure(0.0, 1.0, 9)
    nu = point_mass(1.0, 9)
    xi = 19.0
    lhs, rhs = order_check(mu, nu, xi)
    c1 = nu.occupied()[0][0]
    expect = abs(fourier_at(mu, xi * c1)) ** 2
    assert lhs == pytest.approx(expect, abs=1e-12)
    assert rhs == pytest.approx(expect, abs=1e-12)


def test_order_check_inequality_battery():
    rng = np.random.default_rng(123)
    for seed in range(25):
        mu = random_masses_measure(seed, level=8, n=25)
        nu = random_masses_measure(seed + 1000, level=8, n=25)
        xi = float(rng.uniform(1, 2000))
        lhs, rhs = order_check(mu, nu, xi)
        assert rhs >= 0
        assert lhs <= rhs + 1e-12
