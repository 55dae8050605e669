import cmath
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decaylab import (GridMeasure, convolve, decay_profile, fourier_many, l2_at_scale,
                      order_check, point_mass, product_fourier, regularize,
                      uniform_measure)
from decaylab import cli, pipelines, spectral
from decaylab.spectral import (fourier_lattice, odd_products, product_chain_fourier,
                               profile_from_samples)

from conftest import (fourier_at, occupied, random_cantor_measure, random_masses_measure,
                      translated)


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
    c, w = occupied(mu)
    d, q = occupied(nu)
    phases = np.exp(-2j * np.pi * xi * np.multiply.outer(c, d))
    oracle = complex(w @ phases @ q)
    val = product_fourier(mu, nu, xi)
    assert abs(val - oracle) <= 1e-10


def test_product_fourier_identities():
    mu = random_masses_measure(3)
    one_atom = point_mass(1.0, mu.level)
    c1 = occupied(one_atom)[0][0]
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
    (c1, w1), (c2, w2) = occupied(ms[0]), occupied(ms[1])
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
# the kernels behind fourier_lattice: chirp-z and the exact-phase direct sum
# against explicit double sums, and the kernel choice
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
    c, w = occupied(mu)
    return np.exp(-2j * np.pi * np.multiply.outer(xis, c)) @ w


def _forced(kernel):
    """fourier_lattice running `kernel` whatever _kernel would choose."""
    plan = {"direct": spectral._direct, "chirp-z": spectral._chirp_z,
            "table": spectral._table}[kernel]
    return mock.patch.object(spectral, "_kernel",
                             lambda mu, n, ref=0: (kernel, plan(mu, n, ref)[1]()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv,
                                       min(2048, 2 << lv))),
       st.integers(1, 2000), st.integers(-2048, 2048), st.integers(1, 4),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(np.array))
def test_chirp_z_matches_double_sum(mu, count, n0, g, s):
    # frequencies s (n0 + g k) up to ~1e4 at level 13, centers in [-2, 4]
    n = n0 + g * np.arange(count)
    with _forced("chirp-z"):
        got = fourier_lattice(mu, s, n)
        # rows of length L, one or two per chunk or all at once, same bits
        length = spectral.next_fast_len(mu.size + count - 1)
        for chunk in (length, 2 * length, 1 << 18):
            with mock.patch.object(spectral, "_CHUNK", chunk):
                assert _same_bits(fourier_lattice(mu, s, n), got)
    oracle = _double_sum(mu, s[:, None] * n)
    assert np.max(np.abs(got - oracle)) <= 1e-9 * mu.total_mass


@settings(max_examples=30, deadline=None)
@given(_window_measures(26, 1 << 26, (1 << 26) + (1 << 14)),
       st.integers(1, 2000),
       st.lists(st.integers(1 << 26, (1 << 26) + (1 << 14)),
                min_size=1, max_size=3))
@example(GridMeasure(26, (1 << 26) + 7, np.random.default_rng(2).random(1 << 14)),
         1, [(1 << 26) + 99])                  # a point mass as second factor
def test_chirp_z_counterexample_shape(mu, count, nu_origins):
    # counterexample scale: level 26 near x = 1, xi = 2**20 times the
    # centers of a second level-26 window, so s = xi h / 2 and n runs over
    # its odd indices.  n odd_j reaches ~2**54, past the direct sum's and
    # the table's 2**52, so only chirp-z serves it, a single value too,
    # reducing its one constant n0 odd_0 exactly.  All phases are integers
    # times 2**-34, so the oracle reduces them exactly in int64.  Phases reach
    # 2**21 turns here: reducing fl(xi * c) instead of the exact product
    # leaves errors up to ~3e-10, so the bound is set well below that.
    xi, h = 2.0 ** 20, 2.0 ** -26
    odd_nu = 2 * np.array(nu_origins, dtype=np.int64) + 1
    ks = np.arange(count)
    n = odd_nu[:, None] + 2 * ks
    assert spectral._kernel(mu, n)[0] == "chirp-z"
    got = fourier_lattice(mu, xi * h / 2, n)[0]
    nz = np.nonzero(mu.masses)[0]
    odd_mu = 2 * (mu.origin_index + nz) + 1
    for row, o in enumerate(odd_nu):
        prod = np.multiply.outer(o + 2 * ks, odd_mu) & ((1 << 34) - 1)
        oracle = np.exp(-2j * np.pi * prod * 2.0 ** -34) @ mu.masses[nz]
        assert np.max(np.abs(got[row] - oracle)) <= 1e-12 * mu.total_mass


def test_kernel_choice_matches_direct_sum_across_threshold():
    rng = np.random.default_rng(7)
    mu = GridMeasure(10, 1024, rng.random(300))
    s = np.array([0.25, -0.5])              # 3.5 + 0.75 k and -7 - 1.5 k
    paths = set()
    for count in range(1, 12):
        n = 14 + 3 * np.arange(count)
        paths.add(spectral._kernel(mu, n)[0])
        got = fourier_lattice(mu, s, n)
        oracle = fourier_many(mu, s[:, None] * n)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * mu.total_mass
    assert paths == {"direct", "chirp-z"}


@pytest.mark.parametrize("kernel", ["direct", "chirp-z", "table"])
def test_kernels_serve_sparse_negative_and_empty_cases(kernel):
    mu = random_cantor_measure(3)
    ks = np.array([5000, 0, 17, 17])
    with _forced(kernel):
        got = fourier_lattice(mu, 0.125, 100 + ks)       # 12.5 + 0.125 k
        neg = fourier_lattice(mu, 0.125, -100 - ks)
        assert fourier_lattice(mu, [1.0, 2.0], np.array([], dtype=np.int64)).shape == (2, 0)
    assert got.shape == (1, 4)
    assert np.allclose(got[0], fourier_many(mu, 12.5 + 0.125 * ks), atol=1e-12)
    assert np.allclose(neg[0], fourier_many(mu, -12.5 - 0.125 * ks), atol=1e-12)


def _integer_phase_sum(mu, xi, num, e):
    """sum_j m_j exp(-2 pi i xi c_j) for xi = num * 2**-e with num an exact
    integer: xi c_j = num odd_j 2**-(e + level + 1), reduced in Python ints."""
    nz = np.nonzero(mu.masses)[0]
    bits = e + mu.level + 1
    turns = [(num * (2 * (mu.origin_index + int(j)) + 1)) % (1 << bits) / 2.0 ** bits
             for j in nz]
    return complex(np.exp(-2j * np.pi * np.array(turns)) @ mu.masses[nz])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 23).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv, 4096)),
       st.lists(st.integers(-(1 << 30), 1 << 30), min_size=1, max_size=4),
       st.integers(0, 12))
@example(GridMeasure(23, 1 << 23, np.random.default_rng(5).random(4096)),
         [(1 << 30) - 3, (1 << 30) - 12345, 987654321], 10)
def test_direct_kernel_matches_integer_phase_oracle(mu, nums, e):
    # xi = num 2**-e up to 2**30, centers in [-2, 4]; at level 23 with
    # xi ~ 2**20 the phases reach 2**22 turns, where a rounded fl(xi c)
    # was off by ~1e-11 of the mass
    xis = np.array(nums) * 2.0 ** -e
    got = fourier_many(mu, xis)
    for xi, num, value in zip(xis, nums, got):
        assert abs(value - _integer_phase_sum(mu, xi, num, e)) <= 1e-12 * mu.total_mass


def test_kernel_choice_on_traffic_shapes():
    # the kernel each shape of the shipped experiments ran before the one
    # entry point: chirp-z on a product transform's dense progression of odd
    # indices, the direct sum at n = 1 (decay fits), the table on a chain's
    # odd products of two 64-cell measures (induction's inputs at level 11);
    # and the table on Pi^'s read, centered, of the first input's
    # autocorrelation (2 D + 1 lags) at the tail's odd products times the
    # second input's distances; one scale or many alike
    dense = uniform_measure(1.0, 2.0, 10)
    cantor = [random_cantor_measure(seed).coarsened(11) for seed in (8, 17, 27)]
    dists = pipelines._self_difference_atoms(cantor[1])[0]
    auto = pipelines._autocorrelation_measure(cantor[0])
    assert auto.size > 2000
    shapes = [(dense, odd_products([dense])[0], False, "chirp-z"),
              (cantor[0], np.array([1]), False, "direct"),
              (cantor[0], odd_products(cantor[1:])[0], False, "table"),
              (auto, np.multiply.outer(odd_products(cantor[2:])[0], dists), True, "table")]
    choose, seen = spectral._kernel, []
    with mock.patch.object(spectral, "_kernel", lambda *a: seen.append(choose(*a)) or seen[-1]):
        for mu, n, centered, _ in shapes:
            for scales in (3.0, np.geomspace(16.0, 1024.0, 64)):
                fourier_lattice(mu, scales * 2.0 ** -(mu.level + 1), n, centered=centered)
    assert [name for name, _ in seen] == [kind for *_, kind in shapes for _ in range(2)]


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
    (c, w), (d, q) = occupied(mu), occupied(nu)
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
        c, w = occupied(m)
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

def _exact_phase_sum(mu, s, n, centered=False):
    """sum_j m_j exp(-2 pi i s n c_j) with c_j = odd_j h / 2, every phase
    (s h / 2)(n odd_j) reduced by _turns; centered, with c_j - c* in place
    of c_j, c* = odd* h / 2 the center of the occupied window's middle cell."""
    nz = np.nonzero(mu.masses)[0]
    odd = 2 * (mu.origin_index + nz) + 1
    if centered:
        odd -= 2 * (mu.origin_index + (nz[0] + nz[-1]) // 2) + 1
    turns = spectral._turns(s[:, None, None] * (mu.spacing / 2), np.multiply.outer(n, odd))
    return np.exp(-2j * np.pi * turns) @ mu.masses[nz]


def _mirrored(mu):
    """mu's masses followed by themselves reversed, sharing the last cell:
    an odd window that mirrors about its middle cell bit for bit."""
    return GridMeasure(mu.level, mu.origin_index, np.r_[mu.masses, mu.masses[-2::-1]])


def _odd_mirror(mu) -> bool:
    """Whether mu's window has an odd number of cells and mirrors about its
    middle one, so its transform about that cell is real."""
    return mu.size % 2 == 1 and np.array_equal(mu.masses, mu.masses[::-1])


@pytest.mark.parametrize("kernel", ["direct", "table"])
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv, min(2048, 2 << lv))),
       st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=4).map(np.array),
       st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=12).map(np.array),
       st.sampled_from([1, 3, 1 << 16]), st.booleans())
@example(GridMeasure(9, -700, np.array([0.5])), np.array([0.25, -0.1]),
         np.array([1 << 20, -3, 0]), 1, False)
@example(GridMeasure(13, -9000, np.r_[1.0, np.zeros(2046), 2.0]), np.array([0.2499]),
         np.array([(1 << 20) - 1, 12345]), 3, False)
# mirrored windows read centered: a point mass and three equal cells are real
# about their middle cell, two equal cells are not
@example(GridMeasure(11, 37, np.array([0.0, 0.75, 0.0])), np.array([0.2499, -0.1]),
         np.array([(1 << 20) - 1, -3, 0]), 1, False)
@example(GridMeasure(10, -333, np.full(3, 0.25)), np.array([0.25, -0.1, 0.01]),
         np.array([1 << 20, -3, 12345, 0]), 3, False)
@example(GridMeasure(10, -333, np.full(2, 0.25)), np.array([0.25, -0.1, 0.01]),
         np.array([1 << 20, -3, 12345, 0]), 3, False)
def test_fourier_lattice_matches_exact_phase_sum(kernel, mu, s, n, batch, mirror):
    # centers lie in [-2, 6], so |s n c| passes 2**20 turns
    if mirror:
        mu = _mirrored(mu)
    with _forced(kernel):
        got = fourier_lattice(mu, s, n)
        assert got.shape == (s.size, n.size)
        assert np.max(np.abs(got - _exact_phase_sum(mu, s, n))) <= 1e-12 * mu.total_mass
        centered = fourier_lattice(mu, s, n, centered=True)
        assert np.max(np.abs(centered - _exact_phase_sum(mu, s, n, centered=True))) \
            <= 1e-12 * mu.total_mass
        if kernel == "table" and _odd_mirror(mu):
            # the real read: one Horner recurrence per value, imag exactly 0
            assert np.all(centered.imag == 0)
        with mock.patch.object(spectral, "_BATCH", batch):
            assert _same_bits(fourier_lattice(mu, s, n), got)
            assert _same_bits(fourier_lattice(mu, s[::-1], n)[::-1], got)
            # a 2-d n is split along its first axis once a row passes _BATCH
            assert _same_bits(fourier_lattice(mu, s, n[:, None]), got[:, :, None])
            assert _same_bits(fourier_lattice(mu, s, n[:, None], lambda v: v.sum(axis=-1)), got)
            assert _same_bits(fourier_lattice(mu, s, n, centered=True), centered)
        for b, sb in enumerate(s):
            assert _same_bits(fourier_lattice(mu, sb, n), got[b:b + 1])


@pytest.mark.parametrize("kernel", ["direct", "table"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv, min(256, 2 << lv))),
       st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=4).map(np.array),
       st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=12).map(np.array))
@example(point_mass(1.3, 9), np.array([0.25, -0.1]), np.array([1 << 20, -3, 0]))
@example(uniform_measure(1.0, 2.0, 8), np.array([0.2499, 0.01]),
         np.array([(1 << 20) - 1, 12345, 1]))
def test_autocorrelation_measure_reads_squared_modulus(kernel, mu, s, n):
    # Pi^'s identity: the centered transform of mu's autocorrelation is
    # |mu^|^2, and the table reads it real
    auto = pipelines._autocorrelation_measure(mu)
    assert auto.level == mu.level and auto.total_mass == pytest.approx(mu.total_mass ** 2)
    with _forced(kernel):
        q = fourier_lattice(mu, s, n, centered=True)
        got = fourier_lattice(auto, s, n, centered=True)
    assert np.max(np.abs(got - np.abs(q) ** 2)) <= 1e-14 * mu.total_mass ** 2
    if kernel == "table":
        assert np.all(got.imag == 0)


@pytest.mark.parametrize("kernel", ["direct", "chirp-z", "table"])
def test_fourier_lattice_does_not_depend_on_its_batches(kernel):
    # 5 scale batches x 4 heads of a 2-d n, joined in batch order, give the
    # bits of one batch
    mu = random_cantor_measure(1).coarsened(11)
    n = (2 * np.arange(96) + 1).reshape(8, 12)
    w = np.linspace(0.5, 1.5, 12)
    s = np.geomspace(0.5, 300.0, 5)
    reduced, outs = [], []

    def reduce(v):
        reduced.append(v.shape)
        return np.sum(v * w, axis=-1)
    for batch in (24, spectral._BATCH):
        with _forced(kernel), mock.patch.object(spectral, "_BATCH", batch):
            outs.append([fourier_lattice(mu, s, n),
                         fourier_lattice(mu, s, n, reduce),
                         fourier_lattice(mu, s, n, centered=True)])
    assert reduced == [(1, 2, 12)] * 20 + [(5, 8, 12)]
    assert [a.shape for a in outs[0]] == [(5, 8, 12), (5, 8), (5, 8, 12)]
    assert all(_same_bits(a, b) for a, b in zip(outs[0], outs[1]))


def test_induction_bytes_do_not_depend_on_batch_or_chunk(tmp_path):
    # induction.cfg through every kernel (the decay fit's direct sums, the
    # chain's and Pi^'s tables) at small _BATCH and _CHUNK, at today's and
    # at 2**16 and 2**18: report.json and chain.csv keep their bytes
    config = cli.parse_config((Path(__file__).parent.parent / "configs"
                               / "induction.cfg").read_text(encoding="utf-8"))
    blobs = []
    for batch, chunk in ((1 << 10, 1 << 11), (spectral._BATCH, spectral._CHUNK),
                         (1 << 16, 1 << 18)):
        out = tmp_path / f"{batch}-{chunk}"
        with mock.patch.object(spectral, "_BATCH", batch), \
                mock.patch.object(spectral, "_CHUNK", chunk):
            cli.dispatch(config, out)
        blobs.append([(out / name).read_bytes() for name in ("report.json", "chain.csv")])
    assert blobs[0] == blobs[1] == blobs[2]


def test_taylor_table_is_built_once_per_call():
    # the chosen kernel is prepared before the batches run: one rfft of the
    # moment rows per call for 6 batches, and no complex FFT
    cantor = [random_cantor_measure(seed).coarsened(11) for seed in (8, 17, 27)]
    mu, n = cantor[0], odd_products(cantor[1:])[0]
    assert spectral._kernel(mu, n)[0] == "table"
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(np.fft, name)(*args, **kwargs)
        return call

    with mock.patch.object(spectral, "rfft", counted("rfft")), \
            mock.patch.object(spectral, "fft", counted("fft")), \
            mock.patch.object(spectral, "_BATCH", n.size):
        for centered in (False, True):
            fourier_lattice(mu, np.geomspace(1.0, 100.0, 6), n, centered=centered)
            assert calls == ["rfft"]
            calls.clear()


def _full_fft_table(mu, ref):
    """values(b, m) of mu's Taylor table built from full spectra: row p is
    (-i)^p times the complex length-M FFT of the p-th moment row, its real
    and imaginary parts copied out, then read as _table reads (a real read
    keeps the real part only)."""
    odd = spectral._middle_odd(mu)
    mid = (odd - 1) // 2 - mu.origin_index
    half = max(mu.size - 1 - mid, 1)
    order, size = spectral._table_shape(mu.size)
    mass = mu.masses
    real = odd == ref and mass.size % 2 == 1 and np.array_equal(mass, mass[::-1])
    offsets = np.arange(-mid, mass.size - mid)
    term, rows = mass, np.zeros((order, size))
    for p in range(order):
        rows[p, offsets % size] = term
        term = term * (offsets / half) / (p + 1)
    table = np.fft.fft(rows, axis=-1) * np.array([1, -1j, -1, 1j])[np.arange(order) % 4, None]
    re, im, h = table.real.copy(), table.imag.copy(), mu.spacing

    def values(b, m):
        b = b.reshape(b.shape + (1,) * m.ndim)
        u = spectral._turns(b * (h * size), m)
        k = np.rint(spectral._turns(b * h, m) * size - u).astype(np.int64) & (size - 1)
        t = u * (2 * math.pi * half / size)
        vr = spectral._horner(re, k, t)
        if real:
            return vr.astype(np.complex128)
        vi = spectral._horner(im, k, t)
        rot = np.exp(-2j * np.pi * spectral._turns(b * (h / 2), m * (odd - ref)))
        return (vr + 1j * vi) * rot
    return values


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13).flatmap(
           lambda lv: _window_measures(lv, -(2 << lv), 2 << lv, min(1024, 2 << lv))),
       st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=4).map(np.array),
       st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=12).map(np.array),
       st.sampled_from([None, "odd", "even"]), st.booleans())
@example(pipelines._autocorrelation_measure(random_cantor_measure(8).coarsened(11)),
         np.array([0.01, -0.2]), np.array([1, 3, 12345, (1 << 20) - 1]), None, True)
def test_half_spectrum_table_matches_full_fft_table(mu, s, n, mirror, centered):
    # the table from one rfft, mirrored by FFT(row)[M - k] = conj(FFT(row)[k]),
    # against the complex FFT of every row.  Each FFT entry is off by at most
    # ~log2(M) u times its row's l1 norm, the moment rows' l1 norms sum to
    # at most e^1 times the mass and |t| <= pi / 16 in the read, so the two
    # tables' values may differ by ~2 e log2(M) u mass; 16 log2(M) u mass
    # leaves room for the rotation and Horner roundoff
    if mirror:      # the window and its mirror image, sharing the last cell if odd
        skip = 1 if mirror == "odd" else 0
        mu = GridMeasure(mu.level, mu.origin_index, np.r_[mu.masses, mu.masses[::-1][skip:]])
    ref = spectral._middle_odd(mu) if centered else 0
    plan = spectral._table(mu, n, ref)
    assert plan is not None
    got = plan[1]()(s, n)
    want = _full_fft_table(mu, ref)(s, n)
    size = spectral._table_shape(mu.size)[1]
    assert np.max(np.abs(got - want)) <= 16 * math.log2(size) * 2.0 ** -53 * mu.total_mass
    if centered and _odd_mirror(mu):
        assert np.all(got.imag == 0)


def test_fourier_lattice_refuses_inexact_phases():
    mu = GridMeasure(40, 1 << 45, np.array([1.0]))      # odd* = 2**46 + 1
    assert fourier_lattice(mu, 1.0, [1 << 5]).shape == (1, 1)
    # n odd* passes 2**52: chirp-z serves the single value, its phase
    # (2**-41)(2**6)(2**46 + 1) = 2**11 + 2**-35 turns reduced exactly
    got = fourier_lattice(mu, 1.0, [1 << 6])
    assert spectral._kernel(mu, np.array([1 << 6]))[0] == "chirp-z"
    assert abs(got[0, 0] - np.exp(-2j * np.pi * 2.0 ** -35)) <= 1e-15
    # without the phase only n itself is bounded
    assert fourier_lattice(mu, 1.0, [1 << 6], centered=True).shape == (1, 1)
    with pytest.raises(ValueError, match=r"2\*\*52"):
        fourier_lattice(mu, 1.0, [1 << 52], centered=True)
    # five factors at level 14 near 1.5: the tail's odd products pass 2**60
    atoms = [point_mass(1.5, 14)] * 5
    with pytest.raises(ValueError, match=r"2\*\*52"):
        product_chain_fourier(atoms, 3.0)


def test_transforms_at_the_cell_index_bound_refuse_or_stay_exact():
    # cells 2**62 - 3 and 2**62 - 2 at level 62: odd numerators 2**63 - 5 and
    # 2**63 - 3 still fit int64, but phases and products past 2**52 are refused
    mu = GridMeasure(62, 2 ** 62 - 3, np.array([0.25, 0.75]))
    assert mu.atoms()[0].tolist() == [2 ** 63 - 5, 2 ** 63 - 3]
    with pytest.raises(ValueError, match=r"atom products reach 2\*\*52"):
        odd_products([mu])
    with pytest.raises(ValueError, match="phases would lose exactness"):
        fourier_lattice(mu, 3e17, [1])
    # centered about cell 0, the phases are s 2**-63 (odd_j - odd_0): oracle in Fractions
    exact = sum(m * cmath.exp(-2j * math.pi * float(Fraction(3e17) * Fraction(2 * j, 2 ** 63) % 1))
                for j, m in enumerate((0.25, 0.75)))
    assert abs(exact - (0.93822 - 0.29809j)) <= 1e-5
    assert abs(fourier_lattice(mu, 3e17, [1], centered=True)[0, 0] - exact) <= 1e-15
    # so does every product transform with mu as a factor
    nu = uniform_measure(1.0, 2.0, 6)
    xi = np.array([3.0, 10.0, 37.0])
    for call in (product_fourier, order_check):
        for pair in ((nu, mu), (mu, nu)):
            with pytest.raises(ValueError, match=r"2\*\*52"):
                call(*pair, xi)


def test_fourier_lattice_refuses_wide_tables_and_dense_chains():
    # two atoms 2**16 cells apart ask for a 12 x 2**19 table; the table
    # declines before allocating it, and the kernel choice passes over a
    # table of more than _TABLE_ENTRIES entries to the next cheapest kernel
    wide = GridMeasure(20, 0, np.r_[1.0, np.zeros((1 << 16) - 2), 1.0])
    assert spectral._table(wide, np.array([1]), 0) is None
    ms = [random_cantor_measure(seed).coarsened(11) for seed in (8, 17, 27)]   # 64 cells each
    n = odd_products(ms[1:])[0]
    want = product_chain_fourier(ms, 3.0)
    with mock.patch.object(spectral, "_TABLE_ENTRIES", 64):
        assert spectral._kernel(ms[0], n)[0] == "direct"
        assert abs(product_chain_fourier(ms, 3.0) - want) <= 1e-12
    mu = random_cantor_measure(1, depth=3)
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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400), st.integers(1, 64), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_l2_at_scale_matches_mollified_masses(n, run, zeros, seed, data):
    # oracle: the L2 norm of the density of regularize's output, summed over
    # its cells; masses with runs of `run` zero cells (all zero: refused), at
    # K = delta / spacing from 1 up to kernels wider than the window (2K >= n)
    rng = np.random.default_rng(seed)
    off = np.repeat(rng.random(-(-n // run)) < zeros, run)[:n]
    window = (data.draw(st.integers(1, 12)), data.draw(st.integers(-n, n)),
              np.where(off, 0.0, rng.random(n)))
    if np.all(off):
        with pytest.raises(ValueError, match="must carry mass"):
            GridMeasure(*window)
        return
    mu = GridMeasure(*window)
    h = mu.spacing
    ks = data.draw(st.lists(st.integers(0, n.bit_length()), min_size=1, max_size=6))
    deltas = np.array([h * 2 ** k for k in ks])
    got = l2_at_scale(mu, deltas)
    assert got.shape == deltas.shape
    for v, delta in zip(got, deltas):
        assert _same_bits(v, l2_at_scale(mu, delta))
        oracle = np.sqrt(np.sum(regularize(mu, delta).masses ** 2) / h)
        assert v == pytest.approx(oracle, rel=1e-12, abs=0)
    assert _same_bits(l2_at_scale(mu, deltas[None, :]), got[None, :])
    assert l2_at_scale(mu, h) == pytest.approx(np.sqrt(np.sum(mu.masses ** 2) / h),
                                               rel=1e-12, abs=0)
    with pytest.raises(ValueError, match="cannot resolve kernel"):
        l2_at_scale(mu, h / 2)
    with pytest.raises(ValueError, match="not a dyadic multiple"):
        l2_at_scale(mu, np.array([h, 3 * h]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(0, 9), min_size=1, max_size=5),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_l2_at_scale_rows_equal_single_measure_calls(level, ks, seed, data):
    # 1-4 measures on one level, each on its own window; the first is at most
    # 2K cells wide for the widest bump (2K + 1 taps), so its row cuts the
    # bump's autocorrelation to its own lags
    rng = np.random.default_rng(seed)
    sizes = [data.draw(st.integers(1, 2 ** (max(ks) + 1)))]
    sizes += data.draw(st.lists(st.integers(1, 1500), max_size=3))
    measures = [GridMeasure(level, data.draw(st.integers(-n, n)), rng.random(n))
                for n in sizes]
    deltas = np.array([2.0 ** (k - level) for k in ks])
    grid = np.stack([deltas, deltas[::-1]])
    for scales in (deltas, grid, deltas[0]):
        got = l2_at_scale(measures, scales)
        assert got.shape == (len(measures),) + np.shape(scales)
        for m, row in zip(measures, got):
            assert _same_bits(row, l2_at_scale(m, scales))


def test_l2_at_scale_refuses_no_measures_and_mixed_levels():
    mu = random_masses_measure(3)
    with pytest.raises(ValueError, match="at least one measure"):
        l2_at_scale([], mu.spacing)
    with pytest.raises(ValueError, match="one grid level"):
        l2_at_scale([mu, mu.coarsened(mu.level - 1)], 2 * mu.spacing)


def test_l2_at_scale_builds_each_bump_once_per_call():
    # 3 measures x 4 scales: one bump and one bump autocorrelation per scale,
    # plus one autocorrelation per measure
    measures = [random_masses_measure(seed) for seed in (4, 5, 6)]
    deltas = measures[0].spacing * np.array([1.0, 2.0, 8.0, 32.0])
    bumps, autocorrelations = [], []

    def counted(fn, calls):
        return lambda *args: calls.append(args) or fn(*args)

    with mock.patch.object(spectral, "kernel_weights",
                           counted(spectral.kernel_weights, bumps)), \
            mock.patch.object(spectral, "autocorrelation",
                              counted(spectral.autocorrelation, autocorrelations)):
        l2_at_scale(measures, deltas)
    assert [float(d) for d, _ in bumps] == list(deltas)
    assert len(autocorrelations) == deltas.size + len(measures)


def test_l2_at_scale_array_call_equals_per_measure_calls():
    measures = [random_cantor_measure(seed).coarsened(11) for seed in (1, 2, 3, 4, 5)]
    deltas = measures[0].spacing * 2.0 ** np.arange(12)
    out = l2_at_scale(measures, deltas)
    singles = [l2_at_scale(m, deltas) for m in measures]
    assert out.shape == (5, 12)
    assert _same_bits(np.array(singles), out)


def test_l2_point_mass_scaling():
    delta = 2.0 ** -5
    pm = point_mass(0.5, 10)
    v = l2_at_scale(pm, delta) ** 2
    assert 1.0 / (2 * delta) <= v <= 2.0 / delta


def test_plancherel_consistency():
    mu = uniform_measure(0.0, 1.0, 9)
    delta = 2.0 ** -5
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
    shifted = translated(mu, 0.25)
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
    c1 = occupied(nu)[0][0]
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
