from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab import (GridMeasure, ball_mass_vector, from_atoms, from_density,
                      l1_distance, mask_measure, point_mass, pushforward_affine,
                      regularize, uniform_measure)
from decaylab import measures
from decaylab.constructions import CantorSpec, make_random_frostman
from decaylab.dyadic import DyadicGridSet
from decaylab.measures import (bump_profile, fftconvolve, kernel_weights,
                               next_fast_len)
from decaylab.pipelines import _level_set_classes

from conftest import lossy, random_masses_measure


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_uniform_16_cells():
    mu = uniform_measure(0.0, 1.0, 4)
    assert mu.size == 16
    assert np.allclose(mu.masses, 1.0 / 16, rtol=0, atol=1e-15)
    assert abs(mu.total_mass - 1.0) <= 1e-12


def test_level_bounded_by_normal_spacing():
    # 2**-1022 is the smallest normal double; one level finer is subnormal
    mu = GridMeasure(1022, 0, [0.5, 0.5])
    assert mu.spacing == 2.0 ** -1022 and mu.centers()[1] > mu.centers()[0]
    for level in (0, 1023, 1100):
        with pytest.raises(ValueError, match=f"got {level}"):
            GridMeasure(level, 0, [0.5, 0.5])
    with pytest.raises(ValueError, match="got 1100"):
        GridMeasure.from_text("level 1100\norigin 0.0\ncount 2\n0.5\n0.5\n")


def test_single_atom_covers_endpoint():
    mu = from_atoms([1.0], (0.0, 1.0), 7)
    nz = np.nonzero(mu.masses)[0]
    assert nz.size == 1
    assert mu.masses[nz[0]] == 1.0
    left = mu.origin + nz[0] * mu.spacing
    assert left <= 1.0 <= left + mu.spacing


def test_point_mass_refuses_points_past_float_resolution():
    # at level 43, 512 is cell 2**52 and 512 +- h are exact; 1024 +- h round to 1024
    pm = point_mass(512.0, 43)
    assert pm.occupied_set().cells.tolist() == [1 << 52]
    assert pm.total_mass == 1.0
    for x in (1024.0, -1024.0, 131072.0):
        with pytest.raises(ValueError, match=rf"point x={x!r} .* level-43 grid"):
            point_mass(x, 43)


def test_linear_density_midpoint_rule():
    # oracle: masses from the midpoint rule directly
    m = 10
    h = 2.0 ** -m
    centers = (np.arange(1 << m) + 0.5) * h
    expected = 2.0 * centers * h
    expected /= expected.sum()
    mu = from_density(lambda x: 2.0 * x, (0.0, 1.0), m)
    assert np.allclose(mu.masses, expected, rtol=0, atol=1e-15)
    assert np.all(np.diff(mu.masses) > 0)
    assert abs(mu.total_mass - 1.0) <= 1e-9


def test_construct_rejections():
    with pytest.raises(ValueError, match="negative"):
        from_density(lambda x: x - 0.5, (0.0, 1.0), 4)
    with pytest.raises(ValueError, match="outside window"):
        from_atoms([1.5], (0.0, 1.0), 4)


def test_mass_conservation_construct():
    # oracle: midpoint-rule masses, normalized to a probability
    mu = from_density(lambda x: np.exp(x), (0.0, 1.0), 9)
    direct = np.exp((np.arange(512) + 0.5) / 512) / 512
    direct /= direct.sum()
    assert np.allclose(mu.masses, direct, rtol=1e-12, atol=0)
    assert abs(mu.total_mass - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# kernel and regularize
# ---------------------------------------------------------------------------

def test_bump_sandwich_cell_exact():
    level, delta = 8, 2.0 ** -5
    w = kernel_weights(delta, level)
    k = np.arange(-8, 9)
    x = k * 2.0 ** -level
    raw = bump_profile(x / delta)
    assert np.all(raw[np.abs(x) <= delta / 2] == 1.0)
    assert np.all(raw[np.abs(x) >= delta] == 0.0)
    assert np.all(np.diff(raw[k >= 0]) <= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_non_dyadic_window_does_not_leak():
    mu = from_density(lambda x: np.ones_like(x), (0.3, 0.7), 8)
    lo, hi = mu.support()
    h = mu.spacing
    assert lo >= 0.3 - h and hi <= 0.7 + h
    assert np.count_nonzero(mu.masses) * h == pytest.approx(0.4, abs=2 * h)


def test_regularize_point_mass_plateau():
    mu = point_mass(0.0, 6)
    delta = 0.25
    md = regularize(mu, delta)
    assert abs(md.total_mass - 1.0) <= 1e-12
    w = kernel_weights(delta, 6)
    nz = md.masses[md.masses > 0]
    assert np.allclose(np.sort(nz), np.sort(w[w > 0]), atol=1e-15)


def test_regularize_uniform_interior_unchanged():
    # oracle: direct convolution with the same weights via np.convolve
    mu = uniform_measure(0.0, 1.0, 9)
    delta = 1.0 / 8
    md = regularize(mu, delta)
    oracle = np.convolve(mu.masses, kernel_weights(delta, 9))
    oracle *= mu.total_mass / oracle.sum()
    assert np.max(np.abs(md.masses - oracle)) <= 1e-12
    # interior masses unchanged within 1e-6
    k = int(delta / mu.spacing)
    inner = slice(2 * k, md.size - 2 * k)
    assert np.max(np.abs(md.masses[inner] - 1.0 / 512)) <= 1e-6


def test_regularize_twice_vs_once():
    mu = random_masses_measure(3, level=9)
    delta = 2.0 ** -5
    once = regularize(mu, delta)
    twice = regularize(regularize(mu, delta), delta)
    lo1, hi1 = once.support()
    lo2, hi2 = twice.support()
    assert abs(lo1 - lo2) <= 2 * delta and abs(hi1 - hi2) <= 2 * delta
    assert l1_distance(once, twice) <= 0.1


def test_regularize_matches_quadrature_on_atoms():
    # oracle: density(x) = sum_a w_a * P_delta(x - a) evaluated per cell
    level, delta = 8, 2.0 ** -4
    atoms = np.array([0.25, 0.7071])
    masses = np.zeros(1 << level)
    masses[np.floor(atoms * (1 << level)).astype(int)] = [0.25, 0.75]
    mu = GridMeasure(level, 0, masses)
    md = regularize(mu, delta)
    wk = kernel_weights(delta, level)
    kk = (wk.size - 1) // 2
    centers = md.centers()
    binned = mu.occupied()
    oracle = np.zeros_like(centers)
    for a, w in zip(*binned):
        d = np.rint((centers - a) / md.spacing).astype(int) + kk
        ok = (d >= 0) & (d < wk.size)
        oracle[ok] += w * wk[d[ok]]
    assert np.max(np.abs(md.masses - oracle)) <= 1e-8


@pytest.mark.parametrize("level", [9, 14])
def test_regularize_mass_check_fires(level, monkeypatch):
    # 512 cells x 33 weights and 16384 cells x 1025 weights
    monkeypatch.setattr(measures, "fftconvolve", lossy(measures.fftconvolve))
    with pytest.raises(AssertionError, match="regularize lost mass"):
        regularize(uniform_measure(0.0, 1.0, level), 2.0 ** -5)


@pytest.mark.parametrize("seed, delta", [(0, 2.0 ** -5), (1, 2.0 ** -4), (2, 2.0 ** -3)])
def test_regularize_fft_path_support_is_exact(seed, delta, monkeypatch):
    # oracle: the direct convolution, whose zeros are exact; on a Cantor
    # measure at its level 15 (10520-28088 cells) and coarsened to level 11
    # (658-1756 cells), small and large inputs taking the one path
    _, cantor = make_random_frostman(CantorSpec(2, 2, 6, seed))
    cases = [cantor.coarsened(11), cantor]
    for mu in cases:
        out = regularize(mu, delta)
        direct = np.convolve(mu.masses, kernel_weights(delta, mu.level))
        assert np.array_equal(np.nonzero(out.masses)[0], np.nonzero(direct)[0])
    classes = [_level_set_classes(mu, delta) for mu in cases]
    monkeypatch.setattr(measures, "fftconvolve", np.convolve)
    for mu, (cls, _, base) in zip(cases, classes):
        direct_cls, _, direct_base = _level_set_classes(mu, delta)
        assert np.array_equal(cls, direct_cls)
        assert base == direct_base


def test_regularize_rejects_subgrid_scale():
    mu = uniform_measure(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="resolve"):
        regularize(mu, 2.0 ** -6)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    mu = random_masses_measure(11)
    out = pushforward_affine(mu, 1.0, 0.0)
    assert out.level == mu.level and out.origin_index == mu.origin_index
    assert np.allclose(out.masses, mu.masses, atol=1e-15)


def test_pushforward_scale_two():
    mu = uniform_measure(0.0, 1.0, 6)
    out = pushforward_affine(mu, 2.0, 0.0)
    lo, hi = out.support()
    assert (lo, hi) == (0.0, 2.0)
    occ = out.masses[out.masses > 0]
    assert occ.size == 128
    assert np.allclose(occ, mu.masses[0] / 2.0, atol=1e-15)  # cell masses halved at the same level
    assert abs(out.total_mass - 1.0) <= 1e-12


def test_pushforward_mass_conservation():
    mu = random_masses_measure(5, level=9)
    for a, b in [(0.5, 0.0), (-1.0, 0.3), (3.0, -2.0), (2.0 ** -5, 1.0)]:
        out = pushforward_affine(mu, a, b)
        assert abs(out.total_mass - mu.total_mass) <= 1e-12
    with pytest.raises(ValueError, match="degenerate"):
        pushforward_affine(mu, 0.0, 1.0)


# ---------------------------------------------------------------------------
# restriction and ball mass
# ---------------------------------------------------------------------------

def test_restrict_full_window():
    mu = uniform_measure(0.0, 1.0, 6)
    A = DyadicGridSet(6, np.arange(64))
    part = mask_measure(mu, A)
    assert part.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(part.normalized().masses, mu.masses, atol=1e-15)


def test_restrict_half_window():
    mu = uniform_measure(0.0, 1.0, 6)
    A = DyadicGridSet(5, np.arange(16))   # [0, 1/2] at a coarser level
    part = mask_measure(mu, A)
    assert part.total_mass == pytest.approx(0.5, abs=1e-12)
    out = part.normalized()
    assert out.total_mass == pytest.approx(1.0, abs=1e-12)
    lo, hi = out.support()
    assert (lo, hi) == (0.0, 0.5)


def test_restrict_empty_rejected():
    mu = uniform_measure(0.0, 1.0, 6)
    A = DyadicGridSet(6, np.array([4000]))
    with pytest.raises(ValueError, match="zero measure"):
        mask_measure(mu, A).normalized()


def test_sup_ball_mass_point_and_uniform():
    pm = point_mass(0.3, 8)
    assert ball_mass_vector(pm, 2.0 ** -8).max() == pytest.approx(1.0)
    mu = uniform_measure(0.0, 1.0, 10)
    val = ball_mass_vector(mu, 1.0 / 8).max()
    assert abs(val - 0.25) <= 2 * mu.spacing


def test_ball_mass_rejects_subgrid_radius():
    mu = uniform_measure(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="below grid scale"):
        ball_mass_vector(mu, mu.spacing / 2)


def test_sup_ball_mass_comb_tooth():
    # oracle: direct enumeration over all (center, cell) pairs
    from decaylab.constructions import make_comb
    r_comb = 2.0 ** -4
    rho = make_comb(r_comb, 1.0 / 16)
    r = r_comb / 2
    val = ball_mass_vector(rho, r).max()
    c, w = rho.occupied()
    centers = rho.centers()
    oracle = max(float(np.sum(w[np.abs(c - x) <= r])) for x in centers)
    assert val == pytest.approx(oracle, abs=1e-15)
    tooth = 1.0 / 16   # 16 tooth positions (two half-teeth) share the mass
    assert tooth * 0.9 <= val <= tooth * 1.6


def test_sup_ball_mass_monotone():
    mu = random_masses_measure(17, level=9)
    rs = [2.0 ** -k for k in range(9, 0, -1)]
    vals = [ball_mass_vector(mu, r).max() for r in rs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip_bit_exact():
    mu = random_masses_measure(23, level=9)
    again = GridMeasure.from_text(mu.to_text())
    assert again.level == mu.level
    assert again.origin_index == mu.origin_index
    assert np.array_equal(again.masses, mu.masses)


def test_l1_distance_one_cell_shift():
    mu = point_mass(0.5, 6)
    nu = GridMeasure(mu.level, mu.origin_index + 1, mu.masses)
    assert l1_distance(mu, nu) == pytest.approx(mu.spacing, rel=1e-12)


# ---------------------------------------------------------------------------
# FFT kernels
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.booleans(),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_fftconvolve_matches_direct(n_a, n_b, boolean, zeros, seed):
    # operands with a share `zeros` of zero entries, all zero included
    rng = np.random.default_rng(seed)
    a, b = (np.where(rng.random(n) < zeros, 0.0, rng.random(n)) for n in (n_a, n_b))
    if boolean:
        a, b = a > 0, b > 0
    got = fftconvolve(a, b)
    want = np.convolve(a.astype(np.float64), b.astype(np.float64))
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-12 * float(np.sum(a)) * float(np.sum(b))
    # exact support: nonzero just where a pair of nonzero entries lands
    pairs = np.convolve((a > 0).astype(np.int64), (b > 0).astype(np.int64))
    assert np.array_equal(np.nonzero(got)[0], np.nonzero(pairs)[0])


@pytest.mark.parametrize("boolean", [False, True])
def test_fftconvolve_transforms_a_self_convolution_once(boolean):
    # one rfft per operand and one per occupancy vector; b is a: one of each,
    # the same bits as transforming an equal copy
    a = np.random.default_rng(3).random(257)
    if boolean:
        a = a < 0.5
    calls = []
    with mock.patch.object(measures, "rfft",
                           lambda *args: calls.append(1) or np.fft.rfft(*args)):
        two = fftconvolve(a, a.copy())
        assert len(calls) == 4
        one = fftconvolve(a, a)
        assert len(calls) == 6
    assert one.tobytes() == two.tobytes()


def _smooth(m: int, largest: int) -> bool:
    for p in (2, 3, 5, 7, 11):
        if p <= largest:
            while m % p == 0:
                m //= p
    return m == 1


@pytest.mark.parametrize("real, largest", [(True, 5), (False, 11)])
def test_next_fast_len_is_least_smooth_length(real, largest):
    for n in list(range(1, 3000)) + [65_537, 131_071, 1_000_003]:
        m = n
        while not _smooth(m, largest):
            m += 1
        assert next_fast_len(n, real) == m, n
    assert next_fast_len(np.int64(3001), True) == 3072     # any integer type
    with pytest.raises(ValueError):
        next_fast_len(-1)


def test_next_fast_len_matches_scipy():
    sfft = pytest.importorskip("scipy.fft")
    for real in (True, False):
        assert all(next_fast_len(n, real) == sfft.next_fast_len(n, real)
                   for n in range(30000))
