import contextlib
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decaylab import (GridMeasure, convolve, difference_product, point_mass,
                      uniform_measure)
from decaylab import cli, convolution, measures
from decaylab.convolution import symmetry_defect

from conftest import (centers, l1_distance, lossy, occupied, random_cantor_measure,
                      random_masses_measure)


def _direct_add_oracle(mu, nu):
    """O(N^2)-style direct convolution (np.convolve) plus the half-cell split."""
    level = max(mu.level, nu.level)
    a, b = mu.refined(level), nu.refined(level)
    raw = np.convolve(a.masses, b.masses)
    out = np.empty(raw.size + 1)
    out[0] = raw[0]
    out[-1] = raw[-1]
    out[1:-1] = raw[1:] + raw[:-1]
    return GridMeasure(level, a.origin_index + b.origin_index, 0.5 * out)


def test_triangle_density():
    # closed form: uniform[0,1] + uniform[0,1] has triangle density, peak 1 at x=1
    mu = uniform_measure(0.0, 1.0, 8)
    t = convolve(mu, mu, "add")
    lo, hi = t.support()
    assert lo == 0.0 and hi == pytest.approx(2.0, abs=2 * t.spacing)
    dens = t.density()
    x = centers(t)
    peak = np.argmax(dens)
    assert abs(x[peak] - 1.0) <= 2 * t.spacing
    assert dens[peak] == pytest.approx(1.0, abs=2 * t.spacing)
    oracle = np.where(x <= 1.0, x, 2.0 - x)
    assert np.max(np.abs(dens - oracle)) <= 2 * t.spacing


def test_add_matches_direct_oracle():
    for seed in range(4):
        mu = random_masses_measure(seed, level=12, n=200)
        nu = random_masses_measure(seed + 100, level=12, n=150)
        fast = convolve(mu, nu, "add")
        slow = _direct_add_oracle(mu, nu)
        assert fast.origin_index == slow.origin_index
        assert np.max(np.abs(fast.masses - slow.masses)) <= 1e-10


def test_sub_is_add_of_reflection():
    mu = random_masses_measure(7)
    nu = random_masses_measure(8)
    d = convolve(mu, nu, "sub")
    # oracle via atoms: distribution of c_i - d_j
    c, w = occupied(mu)
    d2, w2 = occupied(nu)
    diffs = np.subtract.outer(c, d2).ravel()
    ww = np.multiply.outer(w, w2).ravel()
    lo, hi = d.support()
    assert lo <= diffs.min() + d.spacing and hi >= diffs.max() - d.spacing
    assert d.total_mass == pytest.approx(mu.total_mass * nu.total_mass, rel=1e-12)
    # mean is exact under the symmetric half-cell split
    mean_fast = float(np.sum(centers(d) * d.masses))
    assert mean_fast == pytest.approx(float(np.sum(diffs * ww)), abs=1e-12)


def test_mass_conservation_all_ops():
    mu = random_masses_measure(1, level=9, n=60)
    nu = random_masses_measure(2, level=9, n=60)
    for op in ("add", "sub", "mul"):
        out = convolve(mu, nu, op)
        assert abs(out.total_mass - mu.total_mass * nu.total_mass) <= 1e-12


def test_mul_identity_and_annihilator():
    mu = random_masses_measure(9, level=8)
    one = point_mass(1.0, 8)
    out = convolve(mu, one, "mul")
    # multiplying by the cell atom at 1+h/2 shifts products by half a cell at most
    assert l1_distance(out, mu) <= 2 * mu.spacing
    zero = point_mass(0.0, 8)
    killed = convolve(mu, zero, "mul")
    lo, hi = killed.support()
    assert hi - lo <= 2 * killed.spacing and abs(lo) <= 2 * killed.spacing
    assert killed.total_mass == pytest.approx(1.0, rel=1e-12)


def test_mul_routing_error_bound():
    # every routed pair lands within 4 grid cells of the true product of any
    # two points from the source cells (supports inside [-2, 2])
    mu = random_masses_measure(3, level=9, n=30)
    nu = random_masses_measure(4, level=9, n=30)
    out = convolve(mu, nu, "mul")
    h = out.spacing
    c1, w1 = occupied(mu)
    c2, w2 = occupied(nu)
    # worst-case distance between center product and any point-pair product
    worst = np.max(np.abs(c1)) * (mu.spacing / 2) + np.max(np.abs(c2)) * (nu.spacing / 2)
    assert worst + h <= 4 * h * max(1.0, np.max(np.abs(c1)) * np.max(np.abs(c2)))


def test_mul_vs_monte_carlo_ks():
    rng = np.random.default_rng(5)
    mu = random_masses_measure(31, level=9, n=80)
    nu = random_masses_measure(32, level=9, n=80)
    out = convolve(mu, nu, "mul")
    n = 10_000_000
    c1, w1 = occupied(mu)
    c2, w2 = occupied(nu)
    xs = rng.choice(c1, size=n, p=w1 / w1.sum())
    ys = rng.choice(c2, size=n, p=w2 / w2.sum())
    samples = np.sort(xs * ys)
    edges = out.origin + np.arange(out.size + 1) * out.spacing
    cdf_grid = np.concatenate([[0.0], np.cumsum(out.masses)]) / out.total_mass
    cdf_mc = np.searchsorted(samples, edges, side="right") / n
    assert np.max(np.abs(cdf_grid - cdf_mc)) <= 2e-2


def test_power_point_mass_cubed():
    pm = point_mass(2.0, 6)
    out = convolve(convolve(pm, pm, "mul"), pm, "mul")
    c, w = occupied(out)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    # atom sits in the cell containing 8 (up to half-cell drift from binning)
    assert np.all(np.abs(c - 8.0) <= 8 * 3 * out.spacing)


def test_power_doubling_vs_sequential():
    mu = uniform_measure(0.0, 1.0, 9)
    twice = convolve(mu, mu, "add")
    via_doubling = convolve(twice, twice, "add")
    seq = convolve(convolve(convolve(mu, mu, "add"), mu, "add"), mu, "add")
    assert l1_distance(via_doubling, seq) <= 1e-6


def test_doubling_add_transforms_each_vector_once():
    # mu + mu: one rfft of the masses and one of the occupancy, and the
    # same bits as the sum with an equal copy (two rffts each)
    mu = random_cantor_measure(4)
    copy = GridMeasure(mu.level, mu.origin_index, mu.masses.copy())
    calls = []
    with mock.patch.object(measures, "rfft",
                           lambda *args: calls.append(1) or np.fft.rfft(*args)):
        two = convolve(mu, copy, "add")
        assert len(calls) == 4
        one = convolve(mu, mu, "add")
        assert len(calls) == 6
    assert one.origin_index == two.origin_index
    assert one.masses.tobytes() == two.masses.tobytes()


def test_difference_product_point_mass():
    pm = point_mass(0.5, 8)
    pi = difference_product(pm, pm)
    lo, hi = pi.support()
    assert abs(lo) <= 4 * pi.spacing and abs(hi) <= 4 * pi.spacing
    assert pi.total_mass == pytest.approx(1.0, rel=1e-12)


def test_difference_product_symmetry_and_mass():
    for seed in (0, 1):
        mu = random_cantor_measure(seed)
        nu = random_cantor_measure(seed + 50)
        pi = difference_product(mu, nu)
        assert symmetry_defect(pi) == 0.0
        assert pi.total_mass == pytest.approx(1.0, rel=1e-11)


def test_difference_product_monte_carlo_mass():
    # Monte-Carlo oracle of (x1-x2)(y1-y2): total mass and gross shape
    rng = np.random.default_rng(77)
    mu = random_cantor_measure(9)
    nu = random_cantor_measure(10)
    pi = difference_product(mu, nu)
    n = 200_000
    cx, wx = occupied(mu)
    cy, wy = occupied(nu)
    x1 = rng.choice(cx, size=n, p=wx)
    x2 = rng.choice(cx, size=n, p=wx)
    y1 = rng.choice(cy, size=n, p=wy)
    y2 = rng.choice(cy, size=n, p=wy)
    samples = np.sort((x1 - x2) * (y1 - y2))
    edges = pi.origin + np.arange(pi.size + 1) * pi.spacing
    cdf_grid = np.concatenate([[0.0], np.cumsum(pi.masses)])
    cdf_mc = np.searchsorted(samples, edges, side="right") / n
    assert pi.total_mass == pytest.approx(1.0, rel=1e-11)
    assert np.max(np.abs(cdf_grid - cdf_mc)) <= 1e-2


def test_commutativity_and_associativity():
    mu = random_masses_measure(41, level=10, n=100)
    nu = random_masses_measure(42, level=10, n=100)
    rho = random_masses_measure(43, level=10, n=100)
    for op in ("add", "mul"):
        ab = convolve(mu, nu, op)
        ba = convolve(nu, mu, op)
        assert l1_distance(ab, ba) <= 1e-10
        left = convolve(convolve(mu, nu, op), rho, op)
        right = convolve(mu, convolve(nu, rho, op), op)
        assert l1_distance(left, right) <= 1e-3


def test_incompatible_levels_auto_refine():
    mu = uniform_measure(0.0, 1.0, 6)
    nu = uniform_measure(0.0, 1.0, 9)
    out = convolve(mu, nu, "add")
    assert out.level == 9
    assert out.total_mass == pytest.approx(1.0, rel=1e-12)


# -- exact supports and integer routing ---------------------------------------------

def _cell_atoms(mu, level):
    """(absolute cell index, mass) of mu's occupied cells refined to level."""
    f = 1 << (level - mu.level)
    return [((mu.origin_index + i) * f + r, float(w) / f)
            for i, w in enumerate(mu.masses) if w > 0 for r in range(f)]


def _mul_pairs(mu, nu):
    """Pure-Python pair loop: {cell floor(c_i c_j / h): [(i, j, w_i, w_j)]}
    over the occupied cells i of mu and j of nu, c_i = (2 i + 1) h / 2."""
    level = max(mu.level, nu.level)
    cells = {}
    for i, wi in _cell_atoms(mu, level):
        for j, wj in _cell_atoms(nu, level):
            k = ((2 * i + 1) * (2 * j + 1)) // (4 << level)    # exact integer floor
            cells.setdefault(k, []).append((i, j, wi, wj))
    return cells


def _mul_pair_loop_oracle(mu, nu):
    """Mass of each cell of mu x nu: the correctly rounded sum of its pairs'
    float products."""
    return {k: math.fsum(wi * wj for _, _, wi, wj in pairs)
            for k, pairs in _mul_pairs(mu, nu).items()}


_U = Fraction(1, 1 << 53)      # float64's unit roundoff


def _gamma(n):
    return n * _U / (1 - n * _U)


def _mul_error_bounds(mu, nu, cumulative):
    """{cell: (M, bound)}: the exact mass M mu x nu routes to each cell, and
    the bound on the computed mass's error that the route's float sums
    guarantee, with u = 2**-53 and gamma_n = n u / (1 - n u) (Higham).

    Direct route: a cell fed by k pairs sums k products fl(w_i w_j), each
    within u w_i w_j, in some order (bincount, then the chunk parts): the
    error is at most gamma_{k-1} (1 + u) M + u M <= gamma_k M, which is
    below (k + 1) u M.

    Cumulative route: row i (weight w_i) puts fl(w_i fl(CB^[b] - CB^[a])) on
    the cell, CB^ the float prefix sums of the column factor's masses c and
    [a, b) the column cells the row sends there.  CB^[t] rounds
    CB^[t-1] + c_{t-1} by at most u CB^[t], and not at all where c_{t-1} = 0,
    so CB^[b] - CB^[a] = S + E: S = CB[b] - CB[a] is the exact mass of the
    row's p occupied pairs there over w_i, and |E| <= p u CB^[b] <=
    p u (1 + gamma_J) CB[b], J the column's occupied cells.  A row with p = 0
    adds exactly 0.  Two more roundings per row at most, since the product
    and the sum may fuse, and a sum of the r rows with p > 0 in some order
    give an error of at most
    gamma_{r+1} M + (1 + gamma_{r+J+1}) u Q, with Q the sum over those rows
    of w_i p CB[b].  The rows are the factor with fewer block cells
    sum_n ((n m1) >> (L+2)) - ((n m0) >> (L+2)) + 2, mu on a tie."""
    level = max(mu.level, nu.level)
    a, b = _cell_atoms(mu, level), _cell_atoms(nu, level)
    # every mass is exactly an integer over the power of two `scale`
    scale = max(Fraction(w).denominator for _, w in a + b)
    na, nb = ({i: int(Fraction(w) * scale) for i, w in m} for m in (a, b))

    def blocks(rows, cols):
        m0, m1 = 2 * min(cols) + 1, 2 * max(cols) + 1
        return sum((((2 * i + 1) * m1) >> (level + 2)) - (((2 * i + 1) * m0) >> (level + 2)) + 2
                   for i in rows)
    swap = blocks(nb, na) < blocks(na, nb)
    prefix, cb = {}, 0      # the columns' exact prefix sums, times scale
    for j, n in sorted((na if swap else nb).items()):
        cb += n
        prefix[j] = cb
    out = {}
    for k, pairs in _mul_pairs(mu, nu).items():
        mass = Fraction(sum(na[i] * nb[j] for i, j, _, _ in pairs), scale * scale)
        if not cumulative:
            out[k] = (mass, _gamma(len(pairs)) * mass)
            continue
        per_row = {}    # row cell -> (pairs p, its last column cell)
        for i, j, _, _ in pairs:
            i, j = (j, i) if swap else (i, j)
            p, last = per_row.get(i, (0, j))
            per_row[i] = (p + 1, max(last, j))
        weight = nb if swap else na
        q = Fraction(sum(weight[i] * p * prefix[last] for i, (p, last) in per_row.items()),
                     scale * scale)
        r, big_j = len(per_row), len(prefix)
        out[k] = (mass, _gamma(r + 1) * mass + (1 + _gamma(r + big_j + 1)) * _U * q)
    return out


def _occupied_cells(out):
    """{absolute cell index: mass} over the cells of out that carry mass."""
    nz = np.nonzero(out.masses)[0]
    return dict(zip((out.origin_index + nz).tolist(), out.masses[nz].tolist()))


@st.composite
def _dyadic_measures(draw, origins=st.integers(-40, 40)):
    """Few cells, mixed-sign window (or origins' windows), dyadic masses
    (exact float products)."""
    level = draw(st.integers(1, 7))
    origin = draw(origins)
    size = draw(st.integers(1, 24))
    masses = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))
    if not any(masses):
        masses[draw(st.integers(0, size - 1))] = 1
    return GridMeasure(level, origin, np.array(masses, dtype=np.float64) / 16.0)


# one output cell fed by 64 refined pairs, whose summed roundoff reaches
# 9.5 u of its mass: past 1e-15 x mass, within its route's bound
_SUMMED_CELL = (GridMeasure(6, 0, np.array([1.0 / 16])),
                GridMeasure(1, 0, np.array([1.0 / 8, 1.0 / 16])))


@settings(max_examples=80, deadline=None)
@given(_dyadic_measures(), _dyadic_measures(), st.integers(1, 64))
@example(*_SUMMED_CELL, 1)
def test_mul_matches_pair_loop_oracle(mu, nu, chunk):
    # nu / 3 has inexact masses, so the chunk parts' rounding depends on the
    # order they are added in
    with mock.patch.object(convolution, "_MUL_CHUNK", chunk):
        _assert_mul_matches_oracle(mu, GridMeasure(nu.level, nu.origin_index,
                                                   nu.masses / 3.0))


def _assert_mul_matches_oracle(mu, nu):
    """mu x nu equals the pair loop's cells and window, each cell within its
    route's rounding bound (_mul_error_bounds) of its exact mass."""
    routes = []
    cumulative_route = convolution._cumulative_route

    def spy(*args):
        plan = cumulative_route(*args)
        routes.append(plan is not None)
        return plan
    with mock.patch.object(convolution, "_cumulative_route", spy):
        out = convolve(mu, nu, "mul")
    (cumulative,) = routes
    want = _mul_error_bounds(mu, nu, cumulative)
    got = _occupied_cells(out)
    assert set(got) == set(want)
    # the window spans exactly the oracle's extreme cells
    assert out.origin_index == min(want)
    assert out.size == max(want) - min(want) + 1
    for k, (mass, bound) in want.items():
        assert abs(Fraction(got[k]) - mass) <= bound


_nonneg = _dyadic_measures(origins=st.integers(0, 40))


@settings(max_examples=80, deadline=None)
@given(_nonneg, _nonneg, st.integers(1, 64))
@example(GridMeasure(2, 0, np.array([1.0, 2.0, 3.0]) / 16.0),
         GridMeasure(5, 0, np.arange(1.0, 25.0) / 16.0), 1)
@example(*_SUMMED_CELL, 1)
def test_cumulative_mul_matches_pair_loop_oracle(mu, nu, cells):
    # windows on cells k >= 0 at mixed levels, nu / 3 inexact, and chunks of
    # at most `cells` block cells.  Rows n = 1, 3, 5 (cells 0, 1, 2, as in
    # the example) put q = k 2**(L+1) / n - m0 / 2 a half-integer whenever n
    # divides k: q's numerator is odd, so it is never an integer itself.
    with mock.patch.object(convolution, "_MUL_CELL_COST", 0.0), \
            mock.patch.object(convolution, "_direct_route",
                              side_effect=AssertionError("took the direct route")), \
            mock.patch.object(convolution, "_MUL_CELLS", cells):
        _assert_mul_matches_oracle(mu, GridMeasure(nu.level, nu.origin_index,
                                                   nu.masses / 3.0))


_odd = st.integers(0, (1 << 51) - 1).map(lambda i: 2 * i + 1)


@st.composite
def _threshold_cases(draw):
    """(shift, k, n, m0): odd n and m0 below 2**52 and a cell k whose lower
    edge k 2**shift is below 2**52, as every threshold cell of the route's."""
    shift = draw(st.integers(2, 51))
    return shift, draw(st.integers(0, (1 << (52 - shift)) - 1)), draw(_odd), draw(_odd)


@settings(max_examples=400, deadline=None)
@given(_threshold_cases())
# k 2**shift at the 2**52 edge, q exactly 1/(2n) from an integer: n = 3 (y
# near 2**51), and large n with q = 1/(2n), -1/(2n) and q far below 0
@example((2, (1 << 50) - 2, 3, 1))
@example((2, (1 << 50) - 1, (1 << 52) - 5, 1))
@example((2, (1 << 50) - 1, (1 << 52) - 3, 2097167))
@example((17, (1 << 35) - 1, (1 << 52) - (1 << 17) - 1, 1))
@example((40, 4095, (4095 << 40) + 1, 2097167))
def test_threshold_is_one_rounded_product(case):
    # t = ceil((k 2**shift - n m0) / (2n)) = rint(k fl(1/n) 2**(shift-1))
    # - (m0 - 1)/2, as _cumulative_route computes it
    shift, k, n, m0 = case
    y = np.multiply.outer((1.0 / np.array([n])) * 2.0 ** (shift - 1), np.array([float(k)]))
    assert int(np.rint(y)[0, 0]) - (m0 - 1) // 2 == -((n * m0 - (k << shift)) // (2 * n))


def test_thresholds_of_flatten_product_are_exact(tmp_path):
    """Every block cell's threshold that the cumulative route reads the prefix
    sums at, over configs/flatten.cfg's folded product, equals the exact
    ceiling of q = (k 2**shift - n m0) / (2n), computed in int64."""
    seen, blocks = {}, []
    route, chunks, take = convolution._cumulative_route, convolution._row_chunks, np.take

    def route_spy(a, b, shift, base):
        seen["numerators"], seen["shift"] = (a.atoms()[0], b.atoms()[0]), shift
        return route(a, b, shift, base)

    def chunks_spy(lo, hi, budget):
        seen["lo"] = lo
        return chunks(lo, hi, budget)

    def take_spy(a, indices, *args, **kwargs):
        if kwargs.get("mode") == "clip":
            blocks.append(np.array(indices))   # a copy: the route reuses its buffer
        return take(a, indices, *args, **kwargs)
    config = (Path(__file__).parent.parent / "configs" / "flatten.cfg").read_text(encoding="utf-8")
    with mock.patch.object(convolution, "_cumulative_route", route_spy), \
            mock.patch.object(convolution, "_row_chunks", chunks_spy), \
            mock.patch.object(np, "take", take_spy):
        cli.dispatch(cli.parse_config(config), tmp_path)
    (ka, kb), shift, lo = seen["numerators"], seen["shift"], seen["lo"]
    rows, cols = (ka, kb) if np.array_equal((ka * kb[0]) >> shift, lo) else (kb, ka)
    i0 = 0
    for idx in blocks:
        r, span = idx.shape
        n = rows[i0:i0 + r, None]
        num = ((lo[i0] + np.arange(span)) << shift) - n * cols[0]
        assert np.array_equal(idx, -(-num // (2 * n)))
        i0 += r
    assert i0 == rows.size and sum(idx.size for idx in blocks) >= 2_000_000


def _near_two():
    """Level-28 grids near x = 2 and x = -2: (2i+1)(2j+1) ~ -2**60, past
    float64's 53 exact bits."""
    return (GridMeasure(28, (1 << 29) - 1, np.array([0.25, 0.5, 0.25])),
            GridMeasure(28, -(1 << 29), np.array([0.5, 0.0, 0.5])))


def test_mul_routes_large_indices_exactly():
    mu, nu = _near_two()
    out = convolve(mu, nu, "mul")
    assert out.size <= 16
    assert _occupied_cells(out) == _mul_pair_loop_oracle(mu, nu)


def _assert_same_cells(got, want, mass):
    """Same occupied cells, each within 1e-15 x mass."""
    got, want = _occupied_cells(got), _occupied_cells(want)
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-15 * mass


def _assert_mul_is_odd(x, y):
    """R(x) x y = R(x x y): an odd center product n never sits on a cell
    edge, so -n floors to cell -1-k when n floors to cell k."""
    want = convolution._reflected(convolve(x, y, "mul"))
    _assert_same_cells(convolve(convolution._reflected(x), y, "mul"), want,
                       want.total_mass)


@settings(max_examples=80, deadline=None)
@given(_dyadic_measures(), _dyadic_measures())
def test_mul_is_odd(x, y):
    _assert_mul_is_odd(x, y)


def test_mul_is_odd_at_large_indices():
    mu, nu = _near_two()
    _assert_mul_is_odd(mu, nu)
    _assert_mul_is_odd(nu, mu)


# point masses off the grid and Cantor measures besides the dyadic ones
_difference_inputs = st.one_of(
    _dyadic_measures(),
    st.builds(point_mass, st.floats(-2.0, 2.0), st.integers(1, 8)),
    st.builds(random_cantor_measure, st.integers(0, 10_000), depth=st.integers(2, 4)))


@settings(max_examples=60, deadline=None)
@given(_difference_inputs, _difference_inputs)
def test_difference_product_matches_unfolded_mul(mu, nu):
    want = convolve(convolve(mu, mu, "sub"), convolve(nu, nu, "sub"), "mul")
    got = difference_product(mu, nu)
    assert (got.level, got.origin_index, got.size) == \
        (want.level, want.origin_index, want.size)
    _assert_same_cells(got, want, want.total_mass)


def test_difference_product_routes_a_quarter_of_the_pairs(monkeypatch):
    mu, nu = random_cantor_measure(3), random_cantor_measure(4)
    pairs = []

    def counting(a, b, op):
        if op == "mul":
            pairs.append(np.count_nonzero(a.masses) * np.count_nonzero(b.masses))
        return convolve(a, b, op)

    monkeypatch.setattr(convolution, "convolve", counting)
    difference_product(mu, nu)
    cells = [convolve(m, m, "sub").occupied_set().cells for m in (mu, nu)]
    # one mul, on the cells k >= 0 of each self-difference; their supports
    # are symmetric, so that is exactly a quarter of the unfolded pairs
    assert pairs == [np.sum(cells[0] >= 0) * np.sum(cells[1] >= 0)]
    assert 4 * pairs[0] == cells[0].size * cells[1].size


@contextlib.contextmanager
def _recorded_mul_routes():
    """A list that gets the route ("direct" or "cumulative") of each mul."""
    routes = []
    real = convolution._cumulative_route

    def spy(*args):
        plan = real(*args)
        routes.append("direct" if plan is None else "cumulative")
        return plan

    with mock.patch.object(convolution, "_cumulative_route", spy):
        yield routes


def _mul_route(mu, nu):
    """(route mul took, its output) for mu x nu."""
    with _recorded_mul_routes() as routes:
        out = convolve(mu, nu, "mul")
    return routes[0], out


# bench/workloads.py's flatten-l12 at its default seed
_FLATTEN_L12 = """\
experiment = flatten
scale = 12
seed = 0
s = 0.5
t = 0.5
k_max = 4
kappa = 0.1
input1.kind = cantor
input1.d = 2
input1.keep = 2
input1.depth = 6
input1.seed = 0
input2.kind = cantor
input2.d = 2
input2.keep = 2
input2.depth = 6
input2.seed = 100
"""


@pytest.mark.parametrize("config, want", [
    # 5.8M pairs against 2.1M block cells; 79.7M against 16.4M
    ("flatten.cfg", ["cumulative"]),
    (_FLATTEN_L12, ["cumulative"]),
    # a sparse comb whose center products pass 2**52
    ("counterexample.cfg", ["direct"]),
    # [1, 2] grids: 4.2M pairs against 6.3M block cells
    ("keystep.cfg", ["direct"]),
    ("quantitative.cfg", ["direct", "direct"]),
    # 0.32M pairs against 0.25M block cells; then 0.07M against 0.52M and
    # 0.61M against 0.68M
    ("induction.cfg", ["cumulative", "direct", "direct"]),
], ids=["flatten", "flatten-l12", "counterexample", "keystep", "quantitative",
        "induction"])
def test_mul_route_of_each_shipped_product(config, want, tmp_path):
    if config.endswith(".cfg"):
        path = Path(__file__).parent.parent / "configs" / config
        config = path.read_text(encoding="utf-8")
    with _recorded_mul_routes() as routes:
        cli.dispatch(cli.parse_config(config), tmp_path)
    assert routes == want


def test_cumulative_mul_needs_cells_k_ge_0_and_numerators_below_2_52():
    third = np.array([1.0, 2.0, 1.0]) / 4.0
    below_four = GridMeasure(23, (1 << 25) - 3, third)
    below_four_finer = GridMeasure(24, (1 << 26) - 3, third)
    near_two, near_minus_two = _near_two()
    with mock.patch.object(convolution, "_MUL_CELL_COST", 0.0):
        # level 23 just below x = 4: center products up to (2**26 - 1)**2, the
        # top cell's upper edge 2**52 - 3 * 2**25; one level finer, 2**54
        cases = [(below_four, below_four, "cumulative"),
                 (below_four_finer, below_four_finer, "direct"),
                 # _near_two moved onto cells k >= 0: products near 2**60
                 (near_two, convolution._reflected(near_minus_two), "direct"),
                 (GridMeasure(4, -1, third), GridMeasure(4, 0, third), "direct"),
                 (GridMeasure(4, 0, third), GridMeasure(4, -1, third), "direct")]
        for x, y, want in cases:
            route, out = _mul_route(x, y)
            assert route == want
            assert _occupied_cells(out) == _mul_pair_loop_oracle(x, y)


def test_mul_refuses_int64_overflow():
    # three cells far from 0: (2i+1)(2j+1) ~ +-2**82 would wrap in int64
    far = GridMeasure(3, 1 << 40, np.array([0.5, 0.25, 0.25]))
    mirrored = GridMeasure(3, -(1 << 40), far.masses)
    # one cell at 2**39 against centers 2**22 - 3, 2**22 - 1, 2**22 + 1:
    # only the last product reaches 2**62, so the check must read the
    # window's end cells
    lone = GridMeasure(3, 1 << 39, np.array([1.0]))
    edge = GridMeasure(3, (1 << 21) - 2, np.array([0.5, 0.25, 0.25]))
    for x, y in ((far, far), (far, mirrored), (lone, edge)):
        with pytest.raises(ValueError, match=r"2\*\*62"):
            convolve(x, y, "mul")


def _indicator_support(mu, nu, op):
    """Absolute cells reachable by the half-cell split, from integer np.convolve."""
    level = max(mu.level, nu.level)
    a, b = mu.refined(level), nu.refined(level)
    ia = (a.masses > 0).astype(np.int64)
    ib = (b.masses > 0).astype(np.int64)
    o = a.origin_index + b.origin_index
    if op == "sub":
        ib, o = ib[::-1], a.origin_index - (b.origin_index + b.size)
    hit = np.convolve(ia, ib) > 0
    reach = np.zeros(hit.size + 1, dtype=bool)
    reach[:-1] |= hit
    reach[1:] |= hit
    return o + np.nonzero(reach)[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(3, 5),
       st.integers(3, 5), st.integers(-300, 300), st.sampled_from(["add", "sub"]))
def test_add_sub_support_is_exact(seed_a, seed_b, depth_a, depth_b, shift, op):
    mu = random_cantor_measure(seed_a, depth=depth_a)
    nu = random_cantor_measure(seed_b, depth=depth_b)
    nu = GridMeasure(nu.level, nu.origin_index + shift, nu.masses)
    out = convolve(mu, nu, op)
    want = _indicator_support(mu, nu, op)
    assert np.array_equal(out.origin_index + np.nonzero(out.masses)[0], want)
    assert np.array_equal(out.occupied_set().cells, want)
    lo, hi = out.support()
    assert (lo, hi) == (want[0] * out.spacing, (want[-1] + 1) * out.spacing)


# -- mass checks fire before any rescale --------------------------------------------

def test_add_mass_check_fires(monkeypatch):
    monkeypatch.setattr(convolution, "fftconvolve", lossy(convolution.fftconvolve))
    mu = random_cantor_measure(3)
    for op in ("add", "sub"):
        with pytest.raises(AssertionError, match="additive convolution lost mass"):
            convolve(mu, mu, op)


def test_mul_mass_check_fires(monkeypatch):
    mu = random_masses_measure(5, level=8, n=30)
    # the direct route's histogram, then the cumulative route's prefix sums
    for leak, cost in (("bincount", math.inf), ("cumsum", 0.0)):
        with monkeypatch.context() as patch:
            patch.setattr(np, leak, lossy(getattr(np, leak)))
            patch.setattr(convolution, "_MUL_CELL_COST", cost)
            with pytest.raises(AssertionError,
                               match="multiplicative convolution lost mass"):
                convolve(mu, mu, "mul")


def test_underflowed_outputs_are_refused_as_massless():
    # every output mass underflows to 0: GridMeasure's refusal, not a
    # division by the zero sum in the rescale
    mu = GridMeasure(3, 0, np.array([1e-200, 1e-200]))
    calls = [lambda op=op: convolve(mu, mu, op) for op in ("add", "sub", "mul")]
    calls.append(lambda: measures.regularize(GridMeasure(3, 0, np.array([5e-324])), 2 ** -1))
    for call in calls:
        with pytest.raises(ValueError, match="masses must carry mass"):
            call()
