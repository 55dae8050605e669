import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decaylab import (GridMeasure, ball_mass_vector, point_mass, regularize,
                      uniform_measure)
from decaylab import convolution, measures, pipelines
from decaylab.constructions import (CantorSpec, make_comb, make_random_frostman,
                                    make_shifted_comb)
from decaylab.dyadic import DyadicGridSet
from decaylab.measures import (autocorrelation, bump_profile, fftconvolve,
                               kernel_weights, next_fast_len)
from decaylab.pipelines import _level_set_classes

from conftest import centers, l1_distance, lossy, occupied, random_masses_measure


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_uniform_16_cells():
    mu = uniform_measure(0.0, 1.0, 4)
    assert mu.size == 16
    assert np.all(mu.masses == 1.0 / 16)
    assert mu.total_mass == 1.0


def _assert_uniform_on_window(mu):
    # every occupied cell carries exactly 1/N, and the window ends on occupied cells
    nz = np.flatnonzero(mu.masses)
    assert np.all(mu.masses[nz] == 1.0 / nz.size)
    assert nz[0] == 0 and nz[-1] == mu.size - 1


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(-600, 600), width=st.integers(0, 600),
       frac=st.tuples(st.floats(0, 1), st.floats(0, 1)), level=st.integers(1, 12),
       comb=st.tuples(st.integers(2, 5), st.sampled_from([1.0 / 8, 1.0 / 16])),
       seed=st.integers(0, 2 ** 16),
       # every scale 8..20 has both phase budgets and a spacing <= 1/4 here
       shifted=st.tuples(st.integers(8, 20), st.floats(0.2, 0.23)))
def test_uniform_inputs_carry_exactly_one_over_n(lo, width, frac, level, comb, seed,
                                                 shifted):
    # windows on and off the level-9 grid, read at coarser and finer levels
    a, b = (lo + frac[0]) / 512, (lo + width + frac[1]) / 512
    if not b > a:
        with pytest.raises(ValueError, match="bad window"):
            uniform_measure(a, b, level)
        return
    h = 2.0 ** -level
    centers = (np.arange(int(a / h) - 2, int(b / h) + 2) + 0.5) * h
    inside = centers[(centers >= a) & (centers < b)]
    if inside.size == 0:
        with pytest.raises(ValueError, match=f"no level-{level} cell center"):
            uniform_measure(a, b, level)
    else:
        mu = uniform_measure(a, b, level)
        _assert_uniform_on_window(mu)
        assert np.array_equal(occupied(mu)[0], inside)
    _assert_uniform_on_window(make_comb(2.0 ** -comb[0], comb[1]))
    _assert_uniform_on_window(make_shifted_comb(shifted[1], 2.0 ** -shifted[0], comb[1]))
    X, mu = make_random_frostman(CantorSpec(block=2, keep=2, depth=4, seed=seed))
    _assert_uniform_on_window(mu)
    assert np.array_equal(mu.occupied_set(X.level).cells, X.cells)
    assert np.count_nonzero(mu.masses) == X.size << measures.OVERSAMPLE_BITS


def test_grid_measure_leaves_the_callers_array_alone():
    a = np.array([0.5, 0.5])
    mu = GridMeasure(3, 0, a)
    assert a.flags.writeable and not mu.masses.flags.writeable
    a[0] = 7.0
    assert mu.masses.tolist() == [0.5, 0.5] and mu.total_mass == 1.0


def test_level_bounded_by_normal_spacing():
    # 2**-1022 is the smallest normal double; one level finer is subnormal
    mu = GridMeasure(1022, 0, [0.5, 0.5])
    assert mu.spacing == 2.0 ** -1022 and centers(mu)[1] > centers(mu)[0]
    for level in (0, 1023, 1100):
        with pytest.raises(ValueError, match=f"got {level}"):
            GridMeasure(level, 0, [0.5, 0.5])
    with pytest.raises(ValueError, match="got 1100"):
        GridMeasure.from_text("level 1100\norigin 0.0\ncount 2\n0.5\n0.5\n")


def test_grid_measure_refuses_any_negative_mass():
    # producers keep masses nonnegative, so even a subnormal-scale negative is refused
    for masses in ([0.5, -1e-300, 0.5], [-1e-300], [1.0, 0.0, -1e-20]):
        with pytest.raises(ValueError, match="negative mass"):
            GridMeasure(4, 0, masses)
    assert GridMeasure(4, 0, [0.5, -0.0, 0.5]).total_mass == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1022), st.integers(-(2 ** 62 - 1), 2 ** 62 - 1),
       st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=64))
def test_grid_measure_refuses_a_window_without_mass(level, origin, masses):
    # the measures are probability measures, so every hull starts and ends on
    # a cell with mass; a window of zeros has no hull and is refused
    with pytest.raises(ValueError, match="must carry mass"):
        GridMeasure(level, origin, masses)
    text = f"level {level}\norigin 0.0\ncount {len(masses)}\n" + "0.0\n" * len(masses)
    with pytest.raises(ValueError, match="must carry mass"):
        GridMeasure.from_text(text)


@pytest.mark.parametrize("first, last, ok", [
    (2 ** 62 - 2, 2 ** 62 - 1, True), (2 ** 62 - 1, 2 ** 62, False),
    (-(2 ** 62 - 1), -(2 ** 62 - 2), True), (-2 ** 62, -(2 ** 62 - 1), False),
])
def test_grid_measure_bounds_cell_indices_below_2_62(first, last, ok):
    # |k| < 2**62 keeps every odd numerator 2 k + 1 inside int64
    masses = np.full(last - first + 1, 0.5)
    if ok:
        assert GridMeasure(62, first, masses).atoms()[0].tolist() == [2 * first + 1, 2 * last + 1]
    else:
        with pytest.raises(ValueError, match=r"level-62 window.*2\*\*62"):
            GridMeasure(62, first, masses)


@pytest.mark.parametrize("first, count, ok", [
    (2 ** 62 - 1024, 1024, True), (2 ** 62 - 1024, 1025, False),
    (-(2 ** 62 - 1024), 2, True), (-2 ** 62, 2, False),
])
def test_from_text_bounds_cell_indices_below_2_62(first, count, ok):
    # origins a float can hold: last cells 2**62 - 1 and 2**62, first cells
    # -(2**62 - 1024) and -2**62; both end cells carry mass, so the window
    # is the file's
    text = (f"level 62\norigin {first * 2.0 ** -62!r}\ncount {count}\n"
            + "1.0\n" + "0.0\n" * (count - 2) + "1.0\n")
    if ok:
        mu = GridMeasure.from_text(text)
        assert (mu.origin_index, mu.size) == (first, count)
    else:
        with pytest.raises(ValueError, match=r"level-62 window.*2\*\*62"):
            GridMeasure.from_text(text)


@st.composite
def _windows(draw):
    """(level, first cell, masses): end cells anywhere within +-(2**62 - 1),
    masses with zero runs, all-zero windows included."""
    size = draw(st.integers(1, 40))
    first = draw(st.integers(-(2 ** 62 - 1), 2 ** 62 - size))
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-300, 0.25, 3.5]),
                           min_size=size, max_size=size))
    return draw(st.integers(1, 1022)), first, masses


@settings(max_examples=300, deadline=None)
@given(window=_windows(), ref_cell=st.one_of(st.none(), st.integers(0, 39)))
@example(window=(62, 2 ** 62 - 3, [0.0, 0.0, 0.0]), ref_cell=None)
@example(window=(62, 2 ** 62 - 3, [0.25, 0.75]), ref_cell=1)
@example(window=(5, -(2 ** 62 - 1), [1.0, 0.0, 2.0]), ref_cell=0)
def test_atoms_match_python_int_oracle(window, ref_cell):
    # ref is 0 or the odd index of a window cell, as fourier_lattice passes it
    level, first, masses = window
    if not any(masses):
        with pytest.raises(ValueError, match="must carry mass"):
            GridMeasure(level, first, masses)
        return
    mu = GridMeasure(level, first, masses)
    ref = 0 if ref_cell is None else 2 * (first + ref_cell % len(masses)) + 1
    odd, w = mu.atoms(ref)
    occupied_cells = [k for k, m in enumerate(masses) if m > 0]
    assert odd.dtype == np.int64
    assert odd.tolist() == [2 * (first + k) + 1 - ref for k in occupied_cells]
    assert w.tolist() == [masses[k] for k in occupied_cells]


@st.composite
def _padded_windows(draw):
    """(level, origin, masses): dyadic masses with zero runs at either end,
    all-zero windows included."""
    body = draw(st.lists(st.integers(0, 15), min_size=1, max_size=12))
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    masses = np.array([0] * lead + body + [0] * trail, dtype=np.float64) / 16.0
    return draw(st.integers(3, 7)), draw(st.integers(-40, 40)), masses


def _assert_hull_of_window(origin, window, mu):
    """mu is the hull of the window's occupied cells, with the window's
    atoms and total mass."""
    assert mu.masses[0] > 0 and mu.masses[-1] > 0
    nz = np.flatnonzero(window)
    odd, w = mu.atoms()
    assert odd.tolist() == (2 * (origin + nz) + 1).tolist()
    assert w.tolist() == window[nz].tolist()
    # np.sum over the hull's n cells is within gamma_n = n u / (1 - n u) of
    # the exact sum, and fsum is within u of it
    exact = math.fsum(window)
    gamma = mu.size * 2.0 ** -53 / (1 - mu.size * 2.0 ** -53)
    assert abs(mu.total_mass - exact) <= gamma * exact


@settings(max_examples=60, deadline=None)
@given(_padded_windows(), _padded_windows(), st.integers(1, 2))
def test_every_producer_returns_the_hull_of_its_occupied_cells(a, b, bits):
    # every GridMeasure the producers build is recorded with the window it
    # was given
    built = []

    class Recorded(GridMeasure):
        def __post_init__(self):
            window = (self.origin_index, np.array(self.masses, dtype=np.float64))
            super().__post_init__()
            built.append((window, self))

    def produced(make):
        """make()'s result, checked against the window it was built from."""
        built.clear()
        with mock.patch.object(measures, "GridMeasure", Recorded), \
                mock.patch.object(convolution, "GridMeasure", Recorded), \
                mock.patch.object(pipelines, "GridMeasure", Recorded):
            out = make()
        assert any(m is out for _, m in built)
        for (origin, window), m in built:
            _assert_hull_of_window(origin, window, m)
        return out

    empty = [w for w in (a, b) if not np.any(w[2])]
    if empty:
        with pytest.raises(ValueError, match="must carry mass"):
            GridMeasure(*empty[0])
        return
    mu, nu = (produced(lambda w=w: Recorded(*w)) for w in (a, b))
    level, origin, masses = a
    text = (f"level {level}\norigin {origin * 2.0 ** -level!r}\ncount {masses.size}\n"
            + "".join(f"{float(v)!r}\n" for v in masses))
    produced(lambda: GridMeasure.from_text(text))
    produced(lambda: mu.refined(mu.level + bits))
    produced(lambda: mu.coarsened(mu.level - bits))
    produced(lambda: regularize(mu, mu.spacing * 2 ** bits))
    for op in ("add", "sub"):
        produced(lambda: convolution.convolve(mu, nu, op))
    with mock.patch.object(convolution, "_MUL_CELL_COST", math.inf):
        produced(lambda: convolution.convolve(mu, nu, "mul"))
    # the cumulative route on copies moved onto cells k > 0
    right = [GridMeasure(m.level, m.origin_index + 64, m.masses) for m in (mu, nu)]
    with mock.patch.object(convolution, "_MUL_CELL_COST", 0.0), \
            mock.patch.object(convolution, "_direct_route",
                              side_effect=AssertionError("took the direct route")):
        produced(lambda: convolution.convolve(*right, "mul"))
    produced(lambda: convolution.even_product(mu, nu))
    produced(lambda: pipelines._autocorrelation_measure(mu))


def test_single_atom_covers_endpoint():
    # the atom at a cell boundary lands in the cell to its right, [1, 1 + h)
    mu = point_mass(1.0, 7)
    assert mu.size == 1 and mu.masses[0] == 1.0
    assert mu.support() == (1.0, 1.0 + mu.spacing)


def test_point_mass_refuses_points_past_float_resolution():
    # at level 43, 512 is cell 2**52 and 512 +- h are exact; 1024 +- h round to 1024
    pm = point_mass(512.0, 43)
    assert pm.occupied_set().cells.tolist() == [1 << 52]
    assert pm.total_mass == 1.0
    for x in (1024.0, -1024.0, 131072.0):
        with pytest.raises(ValueError, match=rf"point x={x!r} .* level-43 grid"):
            point_mass(x, 43)


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
    mu = uniform_measure(0.3, 0.7, 8)
    lo, hi = mu.support()
    h = mu.spacing
    assert lo >= 0.3 - h and hi <= 0.7 + h
    assert np.count_nonzero(mu.masses) * h == pytest.approx(0.4, abs=2 * h)
    # the window is trimmed to the cells whose centers lie in [0.3, 0.7)
    assert (mu.origin_index, mu.size) == (77, 102)
    assert np.all(mu.masses == 1.0 / 102)


def test_regularize_point_mass_plateau():
    mu = point_mass(0.0, 6)
    delta = 0.25
    md = regularize(mu, delta)
    assert abs(md.total_mass - 1.0) <= 1e-12
    w = kernel_weights(delta, 6)
    nz = md.masses[md.masses > 0]
    assert np.allclose(np.sort(nz), np.sort(w[w > 0]), atol=1e-15)


def _on_cells(mu, lo, count):
    """mu's masses on the cells lo .. lo + count - 1, which must hold its window."""
    assert lo <= mu.origin_index and mu.origin_index + mu.size <= lo + count
    out = np.zeros(count)
    out[mu.origin_index - lo:mu.origin_index - lo + mu.size] = mu.masses
    return out


def test_regularize_uniform_interior_unchanged():
    # oracle: direct convolution with the same weights via np.convolve
    mu = uniform_measure(0.0, 1.0, 9)
    delta = 1.0 / 8
    md = regularize(mu, delta)
    oracle = np.convolve(mu.masses, kernel_weights(delta, 9))
    oracle *= mu.total_mass / oracle.sum()
    # compared cell by cell on the oracle's window, cells origin - k onward
    k = int(delta / mu.spacing)
    got = _on_cells(md, mu.origin_index - k, oracle.size)
    assert np.max(np.abs(got - oracle)) <= 1e-12
    # interior masses unchanged within 1e-6
    inner = slice(2 * k, got.size - 2 * k)
    assert np.max(np.abs(got[inner] - 1.0 / 512)) <= 1e-6


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
    x = centers(md)
    binned = occupied(mu)
    oracle = np.zeros_like(x)
    for a, w in zip(*binned):
        d = np.rint((x - a) / md.spacing).astype(int) + kk
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
        w = kernel_weights(delta, mu.level)
        direct = np.convolve(mu.masses, w)
        # occupied cell indices; direct's window starts w.size // 2 cells left of mu's
        assert np.array_equal(out.origin_index + np.nonzero(out.masses)[0],
                              mu.origin_index - w.size // 2 + np.nonzero(direct)[0])
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
    with pytest.raises(ValueError, match="not a dyadic multiple"):
        regularize(mu, 3 * mu.spacing)


# ---------------------------------------------------------------------------
# ball mass
# ---------------------------------------------------------------------------

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
    c, w = occupied(rho)
    oracle = max(float(np.sum(w[np.abs(c - x) <= r])) for x in centers(rho))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_autocorrelation_matches_direct(n, zeros, seed):
    # oracle: np.correlate at the lags 0 .. n-1; lags no pair spans may hold
    # roundoff, not 0
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < zeros, 0.0, rng.random(n))
    got = autocorrelation(x)
    want = np.correlate(x, x, "full")[n - 1:]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * float(np.sum(x)) ** 2


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
