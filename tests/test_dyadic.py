import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab import (DyadicGridSet, additive_energy, covering_number, dyadic,
                      projection_scan, set_check, uniformize)
from decaylab.constructions import CantorSpec, make_random_frostman
from decaylab.dyadic import ball_cell_count, uniformity_audit


# ---------------------------------------------------------------------------
# brute-force oracles (shared ball convention, independent loops)
# ---------------------------------------------------------------------------

def brute_ball_count(cells, level, x, r):
    h = 2.0 ** -level
    n = 0
    for c in cells:
        if c * h <= x + r and (c + 1) * h >= x - r:
            n += 1
    return n


def brute_set_check(cells, level, s, K, kind):
    delta = 2.0 ** -level
    total = len(set(cells))
    for l in range(level, -1, -1):
        r = 2.0 ** -l
        bound = K * r ** s * total if kind == "frostman-type" else K * (r / delta) ** s
        occ = sorted({c >> (level - l) for c in cells})
        for j0 in occ:
            for j in (j0 - 1, j0, j0 + 1):
                x = (j + 0.5) * r
                if brute_ball_count(cells, level, x, r) > bound + 1e-9:
                    return False, (x, r)
    return True, None


def brute_additive_energy(a_cells, b_cells):
    n = 0
    for a1 in a_cells:
        for b1 in b_cells:
            for a2 in a_cells:
                for b2 in b_cells:
                    if a1 - b1 == a2 - b2:
                        n += 1
    return n


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def test_covering_full_interval():
    X = DyadicGridSet(8, np.arange(256))
    assert covering_number(X, 2.0 ** -4) == 16
    assert covering_number(X, 2.0 ** -8) == 256


def test_covering_singleton():
    X = DyadicGridSet(8, np.array([137]))
    for l in range(0, 9):
        assert covering_number(X, 2.0 ** -l) == 1


def test_covering_cantor_generator_recursion():
    # tree oracle: a keep-per-block construction covers keep^j cells at level D*j
    spec = CantorSpec(block=2, keep=2, depth=6, seed=0)
    X, _ = make_random_frostman(spec)
    for j in range(1, 7):
        assert covering_number(X, 2.0 ** -(2 * j)) == 2 ** j


@pytest.mark.parametrize("r", [1e-9, 3e-9, 0.3, 0.0, -0.25, math.inf, math.nan])
def test_dyadic_exponent_refuses_non_dyadic_radii(r):
    # the check is relative: no r is dyadic for being within 1e-8 of 0
    with pytest.raises(ValueError, match="not a dyadic power"):
        dyadic._dyadic_exponent(r)


def test_dyadic_exponent_accepts_tiny_dyadic_radii():
    assert dyadic._dyadic_exponent(2.0 ** -30) == 30
    assert dyadic._dyadic_exponent(1.0) == 0


def test_covering_monotone():
    rng = np.random.default_rng(3)
    X = DyadicGridSet(10, rng.choice(1 << 10, size=200, replace=False))
    vals = [covering_number(X, 2.0 ** -l) for l in range(0, 11)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == X.size


def test_grid_set_rejects_non_1d_cells():
    # a two-column array is refused, not flattened into unrelated cells
    with pytest.raises(ValueError, match=r"1-d, got shape \(3, 2\)"):
        DyadicGridSet(4, np.array([[0, 5], [3, 2], [15, 15]]))


# ---------------------------------------------------------------------------
# set checks
# ---------------------------------------------------------------------------

def test_set_check_full_interval_passes():
    X = DyadicGridSet(8, np.arange(256))
    ok, witness = set_check(X, 1.0, 4.0, "frostman-type")
    assert ok and witness is None


def test_set_check_block_fails_katz_tao():
    # one 2^-4 block at level 8: absolutely concentrated, must fail at K=1
    X = DyadicGridSet(8, np.arange(16))
    ok, witness = set_check(X, 0.5, 1.0, "katz-tao")
    assert not ok
    ok2, _ = brute_set_check(list(range(16)), 8, 0.5, 1.0, "katz-tao")
    assert not ok2


def test_set_check_zero_s_always_passes():
    rng = np.random.default_rng(11)
    for _ in range(5):
        X = DyadicGridSet(7, rng.choice(128, size=30, replace=False))
        ok, _ = set_check(X, 0.0, 1.0, "frostman-type")
        assert ok


def test_set_check_monotone_in_s():
    rng = np.random.default_rng(12)
    X = DyadicGridSet(8, rng.choice(256, size=40, replace=False))
    for K in (2.0, 4.0):
        passed_high, _ = set_check(X, 0.7, K, "frostman-type")
        if passed_high:
            passed_low, _ = set_check(X, 0.3, K, "frostman-type")
            assert passed_low


def test_remark_equivalence_frostman_implies_katz_tao():
    # a frostman-type (delta, s, K)-set with |X|_delta <= delta^-s is Katz-Tao
    spec = CantorSpec(block=2, keep=2, depth=5, seed=4)
    X, _ = make_random_frostman(spec)
    s = 0.5
    delta = X.spacing
    assert X.size <= delta ** -s + 1e-9
    K = 4.0
    ok_f, _ = set_check(X, s, K, "frostman-type")
    ok_kt, _ = set_check(X, s, K, "katz-tao")
    assert (not ok_f) or ok_kt


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=20),
       st.sampled_from([0.3, 0.5, 0.8]),
       st.sampled_from([1.0, 2.0, 6.0]),
       st.sampled_from(["frostman-type", "katz-tao"]))
def test_set_check_matches_brute_force(cells, s, K, kind):
    X = DyadicGridSet(6, np.array(sorted(cells)))
    fast = set_check(X, s, K, kind)
    slow = brute_set_check(sorted(cells), 6, s, K, kind)
    assert fast[0] == slow[0]
    if not fast[0]:
        assert fast[1] == pytest.approx(slow[1])


def test_ball_cell_count_convention():
    X = DyadicGridSet(4, np.array([3, 4, 5, 9]))
    for x in (0.2, 0.25, 0.3, 0.6):
        for r in (2.0 ** -4, 2.0 ** -3, 0.25):
            assert ball_cell_count(X, x, r) == brute_ball_count([3, 4, 5, 9], 4, x, r)


# ---------------------------------------------------------------------------
# uniformize
# ---------------------------------------------------------------------------

def test_uniformize_fixed_points():
    spec = CantorSpec(block=2, keep=2, depth=5, seed=9)
    X, _ = make_random_frostman(spec)
    out = uniformize(X, 2, 5)
    assert np.array_equal(out.cells, X.cells)   # already uniform
    full = DyadicGridSet(6, np.arange(64))
    out2 = uniformize(full, 2, 3)
    assert np.array_equal(out2.cells, full.cells)


def test_uniformize_random_inputs():
    rng = np.random.default_rng(21)
    D, m = 2, 5
    for trial in range(25):
        size = int(rng.integers(3, 500))
        cells = np.unique(rng.choice(1 << (D * m), size=size, replace=False))
        X = DyadicGridSet(D * m, cells)
        out = uniformize(X, D, m)
        ok, counts = uniformity_audit(out, D, m)
        assert ok
        assert out.size >= X.size / (D + 1) ** m
        assert np.all(np.isin(out.cells, X.cells))


def test_uniformize_keeps_covering_profile():
    # log covering numbers of the uniform subset stay within 1/m (scaled
    # by D*m*log 2) of the raw set's at every block scale 2**-(D*j)
    rng = np.random.default_rng(31)
    D, m = 2, 6
    cells = np.unique(rng.choice(1 << (D * m), size=800, replace=False))
    X = DyadicGridSet(D * m, cells)
    U = uniformize(X, D, m)
    assert uniformity_audit(U, D, m)[0]
    denom = D * m * np.log(2.0)
    for j in range(1, m + 1):
        r = 2.0 ** -(D * j)
        kept = np.log(covering_number(U, r)) / denom
        raw = np.log(covering_number(X, r)) / denom
        assert abs(kept - raw) <= 1.0 / m + 1e-9


def test_uniformity_audit_counts_cantor_branching():
    # a keep-per-block construction branches into exactly `keep` children
    spec = CantorSpec(block=2, keep=3, depth=4, seed=4)
    X, _ = make_random_frostman(spec)
    assert uniformity_audit(X, 2, 4) == (True, [3, 3, 3, 3])


def test_uniformity_audit_flags_unequal_branching():
    # the audit names the first block level whose parents branch unequally
    X = DyadicGridSet(4, np.array([0, 1, 2, 3, 4]))   # level-2 cells 0, 1: 4 vs 1
    assert uniformity_audit(X, 2, 2) == (False, 2)
    Y = DyadicGridSet(4, np.array([0, 4, 16]))        # level-0 cells 0, 1: 2 vs 1
    assert uniformity_audit(Y, 2, 2) == (False, 1)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_scan_full_sets():
    level = 6
    A = DyadicGridSet(level, np.arange(1 << level))
    Y = DyadicGridSet(level, np.arange(1 << level))
    # the best direction meets the projection floor delta**-(s + t/24) at s = t = 1
    assert projection_scan(A, A, Y).max() >= 2.0 ** (level * (1 + 1.0 / 24))


def test_projection_scan_zero_direction():
    level = 6
    rng = np.random.default_rng(8)
    A1 = DyadicGridSet(level, rng.choice(1 << level, 12, replace=False))
    A2 = DyadicGridSet(level, rng.choice(1 << level, 9, replace=False))
    Y = DyadicGridSet(level, np.array([0]))   # y-cell center 2^-7, almost 0
    # y*c2 < 2**-7 = h/2 never moves a cell center across a cell edge, so
    # every pair floors to its own A1 cell
    assert projection_scan(A1, A2, Y).tolist() == [A1.size]


def brute_projection_counts(a1, a2, ycells, level, ylevel):
    h, hy = 2.0 ** -level, 2.0 ** -ylevel
    counts = []
    for k in ycells:
        y = (k + 0.5) * hy
        counts.append(len({math.floor(((i + 0.5) * h - y * ((j + 0.5) * h)) / h)
                           for i in a1 for j in a2}))
    return counts


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 63), min_size=1, max_size=10),
       st.sets(st.integers(0, 63), min_size=1, max_size=10),
       st.sets(st.integers(0, 127), min_size=1, max_size=8))
def test_projection_scan_matches_brute_force(a1, a2, ycells):
    level, ylevel = 6, 7
    A1 = DyadicGridSet(level, np.array(sorted(a1)))
    A2 = DyadicGridSet(level, np.array(sorted(a2)))
    Y = DyadicGridSet(ylevel, np.array(sorted(ycells)))
    counts = projection_scan(A1, A2, Y)
    assert counts.dtype == np.int64
    assert counts.tolist() == brute_projection_counts(sorted(a1), sorted(a2),
                                                      sorted(ycells), level, ylevel)


def fraction_projection_bins(a1, a2, ycells, level, ylevel):
    """Per direction, the set of bins floor((c_a - y c_b) / h) in exact rationals."""
    h, hy = Fraction(1, 2 ** level), Fraction(1, 2 ** ylevel)
    return [{math.floor(((a + Fraction(1, 2)) * h
                         - (u + Fraction(1, 2)) * hy * (b + Fraction(1, 2)) * h) / h)
             for a in a1 for b in a2}
            for u in ycells]


def fraction_projection_counts(a1, a2, ycells, level, ylevel):
    """Per-direction count of floor((c_a - y c_b) / h) in exact rationals."""
    return [len(bins) for bins in fraction_projection_bins(a1, a2, ycells, level, ylevel)]


@st.composite
def _scan_inputs(draw):
    """A cells on both sides of 0, Y coarser or finer than A, y up to 4."""
    level = draw(st.integers(0, 8))
    ylevel = draw(st.integers(max(0, level - 4), level + 4))
    side = 1 << level
    cells = st.sets(st.integers(-side, side - 1), min_size=1, max_size=9)
    ycells = st.sets(st.integers(-(1 << ylevel), (4 << ylevel) - 1), min_size=1, max_size=6)
    return level, ylevel, sorted(draw(cells)), sorted(draw(cells)), sorted(draw(ycells))


@settings(max_examples=80, deadline=None)
@given(_scan_inputs(), st.integers(1, 64))
def test_projection_scan_matches_fraction_oracle(inputs, pairs):
    level, ylevel, a1, a2, ycells = inputs
    with mock.patch.object(dyadic, "_SCAN_PAIRS", pairs):
        counts = projection_scan(DyadicGridSet(level, np.array(a1)),
                                 DyadicGridSet(level, np.array(a2)),
                                 DyadicGridSet(ylevel, np.array(ycells)))
    assert counts.dtype == np.int64
    assert counts.tolist() == fraction_projection_counts(a1, a2, ycells, level, ylevel)


# (level, ylevel, A1, A2, Y, window of all bins, largest |numerator|).  With
# y < 1 and b in {-1, 0} every pair bins to its own a, so the spans are A1's;
# each "+1" span puts two bins of one row 2**16 or 2**32 apart, which a
# 16- or 32-bit bin type would merge.
_BOUNDARY_SCANS = {
    "span-2^16": (4, 3, [-3, (1 << 16) - 4], [-1, 0], [0, 1, 2, 3], 1 << 16, None),
    "span-2^16+1": (4, 3, [-3, (1 << 16) - 3], [-1, 0], [0, 1, 2, 3], (1 << 16) + 1, None),
    "negative-wrap": (4, 3, [-(1 << 16), -7, -1], [-1, 0], [0, 5], 1 << 16, None),
    "span-2^32": (4, 3, [-3, (1 << 32) - 4], [-1, 0], [0, 1, 2, 3], 1 << 32, None),
    "span-2^32+1": (4, 3, [-3, (1 << 32) - 3], [-1, 0], [0, 1, 2, 3], (1 << 32) + 1, None),
    # y = 1/2: numerators 2(2a+1) - (2b+1) reach +-(2**31 - 1), the int32 edge
    "num-2^31-1": (2, 0, [-(1 << 29), 0, (1 << 29) - 1], [-1, 0], [0], None, (1 << 31) - 1),
    # y = 2**-31: the lead term (2a+1) << 31 is 2**31 at a = 0
    "num-2^31": (2, 30, [0], [0, 1], [0, 1], None, 1 << 31),
    # numerators 2**31 +- 1 bin together; a scan wrapping them to 32 bits
    # would split them
    "num-2^31+1": (2, 30, [0], [-1, 0], [0], None, (1 << 31) + 1),
}


@pytest.mark.parametrize("parts", (1, 2))
@pytest.mark.parametrize("pairs", (1, None), ids=("pairs-1", "pairs-default"))
@pytest.mark.parametrize("case", _BOUNDARY_SCANS)
def test_projection_scan_at_type_boundaries(case, pairs, parts):
    level, ylevel, a1, a2, ycells, window, top = _BOUNDARY_SCANS[case]
    bins = fraction_projection_bins(a1, a2, ycells, level, ylevel)
    if window is not None:      # the case spans the window it is named for
        assert max(map(max, bins)) - min(map(min, bins)) + 1 == window
    if top is not None:         # and the largest lead, product or numerator
        terms = [((2 * a + 1) << (ylevel + 1), (2 * u + 1) * (2 * b + 1))
                 for a in a1 for b in a2 for u in ycells]
        assert max(max(abs(p), abs(q), abs(p - q)) for p, q in terms) == top
    # Y in one call, or split in two (a one-cell Y stays whole): a direction
    # counts the same whatever directions share its call
    ys = [y for y in np.array_split(np.array(ycells), parts) if y.size]
    with mock.patch.object(dyadic, "_SCAN_PAIRS", pairs or dyadic._SCAN_PAIRS):
        counts = [projection_scan(DyadicGridSet(level, np.array(a1)),
                                  DyadicGridSet(level, np.array(a2)),
                                  DyadicGridSet(ylevel, y)) for y in ys]
    assert all(c.dtype == np.int64 for c in counts)
    assert np.concatenate(counts).tolist() == [len(b) for b in bins]


@pytest.mark.parametrize("extra", (0, 1), ids=("pairs-2^16", "pairs-past-2^16"))
def test_projection_scan_counts_rows_past_2_16_pairs(extra):
    # y = -1/2 sends (a, 512 j) to bin a + 256 j: every pair of the row has
    # its own bin, so the row counts all its 2**16 or 256 * 257 pairs
    a1, a2 = np.arange(256), 512 * np.arange(256 + extra)
    counts = projection_scan(DyadicGridSet(0, a1), DyadicGridSet(0, a2),
                             DyadicGridSet(0, np.array([-1])))
    assert counts.tolist() == [a1.size * a2.size]


def test_projection_scan_does_not_depend_on_batching():
    level = 7
    rng = np.random.default_rng(12)
    A1 = DyadicGridSet(level, rng.choice(np.arange(-128, 128), 20, replace=False))
    A2 = DyadicGridSet(level, rng.choice(np.arange(-128, 128), 15, replace=False))
    Y = DyadicGridSet(level + 1, np.arange(-64, 448))
    scans = []
    for pairs in (1, 7, 1000, 2 ** 16):     # 1, 1, 3 and 218 rows per batch
        with mock.patch.object(dyadic, "_SCAN_PAIRS", pairs):
            scans.append(projection_scan(A1, A2, Y))
    for cov in scans[1:]:
        assert np.array_equal(cov, scans[0])


def test_projection_scan_is_exact_past_float_precision():
    # y = 1 + (2u+1-2**55) 2**-55 is 1.0 in float64, which bins c_a - y c_b
    # on the wrong side of a cell edge: a float scan counts [3, 3, 3]
    level, ylevel = 4, 54
    a1, a2 = [-4, -3], [-1, 0]
    ycells = [(1 << 54) - 1, 1 << 54, (1 << 54) + 1]
    counts = projection_scan(DyadicGridSet(level, np.array(a1)),
                             DyadicGridSet(level, np.array(a2)),
                             DyadicGridSet(ylevel, np.array(ycells)))
    assert counts.tolist() == [2, 4, 4]
    assert fraction_projection_counts(a1, a2, ycells, level, ylevel) == [2, 4, 4]


@pytest.mark.parametrize("level, ylevel, a, b, u", [
    (30, 40, (1 << 30) - 1, 0, 0),      # (2a+1) << (Ly+1) ~ 2**72
    (40, 30, 0, (1 << 40) - 1, (1 << 30) - 1),   # (2u+1)(2b+1) ~ 2**72
    (30, 31, -(1 << 30), 0, 0),         # -(2**31 - 1) << 32 ~ -2**63
], ids=["lead-term", "product-term", "negative"])
def test_projection_scan_refuses_int64_overflow(level, ylevel, a, b, u):
    A1 = DyadicGridSet(level, np.array([a]))
    A2 = DyadicGridSet(level, np.array([b]))
    Y = DyadicGridSet(ylevel, np.array([u]))
    with pytest.raises(ValueError, match=f"level {level} .* level {ylevel} .*2\\*\\*62"):
        projection_scan(A1, A2, Y)


# (level, ylevel, A1, A2, Y, the cell moved one step out) for the largest
# inputs below the 2**62 refusal.  Lead terms and products near -2**62 (or
# +2**62) leave every numerator small but put 2**(Ly+1) - (2u+1)(2b+1) near
# +-2**62; at Ly = 60, A1 = {-1} and the product 1 - 2**62 it reaches
# 3 * 2**61 - 1, the largest value c's int64 block can hold.
_EDGE_SCANS = {
    "negative": (2, 30, [-(1 << 30), -(1 << 30) + 1, -(1 << 30) + 5],
                 [(1 << 30) - 4, (1 << 30) - 2, (1 << 30) - 1],
                 [-(1 << 30), -(1 << 30) + 1, -(1 << 30) + 3], ("A1", 0, -1)),
    "positive": (2, 30, [(1 << 30) - 6, (1 << 30) - 2, (1 << 30) - 1],
                 [(1 << 30) - 5, (1 << 30) - 1], [(1 << 30) - 3, (1 << 30) - 1],
                 ("A1", -1, 1)),
    "c-3*2^61": (3, 60, [-1], [0, (1 << 30) - 2, 1 << 30],
                 [-(1 << 30), -(1 << 30) + 2], ("A2", -1, 1)),
}


@pytest.mark.parametrize("case", _EDGE_SCANS)
def test_projection_scan_at_the_int64_edge(case):
    level, ylevel, a1, a2, ycells, (name, k, step) = _EDGE_SCANS[case]
    top = max(abs(t) for a in a1 for b in a2 for u in ycells
              for t in ((2 * a + 1) << (ylevel + 1), (2 * u + 1) * (2 * b + 1),
                        ((2 * a + 1) << (ylevel + 1)) - (2 * u + 1) * (2 * b + 1)))
    assert 1 << 61 < top < 1 << 62
    counts = projection_scan(DyadicGridSet(level, np.array(a1)),
                             DyadicGridSet(level, np.array(a2)),
                             DyadicGridSet(ylevel, np.array(ycells)))
    assert counts.tolist() == fraction_projection_counts(a1, a2, ycells, level, ylevel)
    # one cell moved one step further out is refused
    sets = {"A1": list(a1), "A2": list(a2)}
    sets[name][k] += step
    with pytest.raises(ValueError, match="2\\*\\*62"):
        projection_scan(DyadicGridSet(level, np.array(sets["A1"])),
                        DyadicGridSet(level, np.array(sets["A2"])),
                        DyadicGridSet(ylevel, np.array(ycells)))


def test_projection_scan_accepts_deep_levels_near_zero():
    # the refusal is on values, not levels: cells at 0 stay far below 2**62
    A = DyadicGridSet(30, np.array([0]))
    Y = DyadicGridSet(40, np.array([0]))
    assert projection_scan(A, A, Y).tolist() == [1]


def test_projection_scan_difference_set():
    # direction y just above 1 sends A x A onto A - A = {-3/4 .. 3/4} step 1/4
    A = DyadicGridSet(level=2, cells=np.arange(4))
    Y = DyadicGridSet(20, np.array([1 << 20]))
    assert projection_scan(A, A, Y).tolist() == [7]


def test_projection_scan_rejects_bad_inputs():
    A = DyadicGridSet(4, np.arange(4))
    empty = DyadicGridSet(4, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="nonempty"):
        projection_scan(A, empty, A)
    with pytest.raises(ValueError, match="share a level"):
        projection_scan(A, DyadicGridSet(5, np.arange(4)), A)


# ---------------------------------------------------------------------------
# additive energy
# ---------------------------------------------------------------------------

def test_additive_energy_progression_formula():
    for N in (3, 8, 20, 64):
        A = DyadicGridSet(8, np.arange(N))
        expected = (2 * N ** 3 + N) // 3
        assert additive_energy(A, A) == expected
    # brute-force quadruple count for a small case
    A = DyadicGridSet(8, np.arange(6))
    assert additive_energy(A, A) == brute_additive_energy(range(6), range(6))


def test_additive_energy_singleton():
    A = DyadicGridSet(5, np.array([7]))
    assert additive_energy(A, A) == 1


def test_additive_energy_fft_branch_matches_exact_histogram():
    # 4100 x 4100 = 16.8e6 pairs: FFT roundoff in the histogram counts must
    # still round away
    rng = np.random.default_rng(12)
    A = DyadicGridSet(14, rng.choice(1 << 14, size=4100, replace=False))
    B = DyadicGridSet(14, rng.choice(1 << 14, size=4100, replace=False))
    assert A.size * B.size > 16_000_000
    # oracle: exact difference histogram, accumulated in chunks of A
    lo = A.cells[0] - B.cells[-1]
    hist = np.zeros(A.cells[-1] - B.cells[0] - lo + 1, dtype=np.int64)
    for chunk in np.array_split(A.cells, 16):
        d = np.subtract.outer(chunk, B.cells).ravel() - lo
        hist += np.bincount(d, minlength=hist.size)
    assert additive_energy(A, B) == int(np.sum(hist * hist))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 31), min_size=1, max_size=12),
       st.sets(st.integers(0, 31), min_size=1, max_size=12))
def test_additive_energy_matches_four_loop(a, b):
    A = DyadicGridSet(5, np.array(sorted(a)))
    B = DyadicGridSet(5, np.array(sorted(b)))
    assert additive_energy(A, B) == brute_additive_energy(sorted(a), sorted(b))


def test_additive_energy_cauchy_schwarz_floor():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = np.unique(rng.choice(256, size=20))
        b = np.unique(rng.choice(256, size=25))
        A = DyadicGridSet(8, a)
        B = DyadicGridSet(8, b)
        diff_count = np.unique(np.subtract.outer(a, b)).size
        assert additive_energy(A, B) >= (a.size * b.size) ** 2 / diff_count - 1e-9
