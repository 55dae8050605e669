from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decaylab import (GridMeasure, energy_spatial, point_mass, product_fourier,
                      regularize, uniform_measure)
from decaylab import cli, convolution, measures, pipelines
from decaylab.constructions import make_comb
from decaylab.convolution import convolve, difference_product
from decaylab.measures import autocorrelation, next_fast_len, power_autocorrelations
from decaylab.spectral import (_l2_rows, fourier_lattice, l2_at_scale, odd_products,
                               profile_from_samples)
from decaylab.pipelines import (quantitative_parameters, run_base_case,
                                run_flattening, run_induction_chain,
                                run_keystep_scan, run_level_sets,
                                run_quantitative_decay)

from conftest import FLATTEN_L12, lossy, random_cantor_measure, translated


def _verdict(run, name):
    return next(v for v in run[1] if v.name == name)


def _columns(run):
    """The run's one CSV table as float arrays, by column name."""
    (header, rows), = run[2].values()
    return dict(zip(header, np.array(rows, dtype=float).T))


# ---------------------------------------------------------------------------
# base case
# ---------------------------------------------------------------------------

def test_base_case_uniform_pair():
    mu = uniform_measure(1.0, 2.0, 13)
    payload, _, _ = run_base_case(mu, mu, 1.0, 1.0, 2.0 ** -10, n_samples=12)
    assert payload["preconditions_ok"]
    assert payload["measured_constant"] <= 16.0


def test_base_case_magnitudes_match_scalar_calls_bit_for_bit():
    mu, nu = random_cantor_measure(4), random_cantor_measure(5)
    band = _columns(run_base_case(mu, nu, 0.5, 0.5, 2.0 ** -7, n_samples=9))
    want = [abs(product_fourier(mu, nu, x)) for x in band["xi"]]
    assert band["magnitude"].tobytes() == np.array(want).tobytes()


def test_base_case_point_masses_flagged():
    pm = point_mass(1.0, 10)
    payload, _, _ = run_base_case(pm, pm, 0.5, 0.5, 2.0 ** -7, n_samples=6)
    assert not payload["preconditions_ok"]
    assert payload["max_magnitude"] == pytest.approx(1.0, abs=1e-9)


def test_base_case_no_decay_below_critical_frequency():
    # uniform measures on balls of size delta^(1-s): no decay up to
    # delta^(-1+max(s,t))/4
    s = t = 0.5
    delta = 2.0 ** -8
    mu = uniform_measure(0.0, delta ** (1 - s), 15)
    xi = delta ** (-1 + max(s, t)) / 4.0
    assert abs(product_fourier(mu, mu, xi)) >= 0.5


# ---------------------------------------------------------------------------
# flattening trace
# ---------------------------------------------------------------------------

def test_flattening_uniform_smooth_case():
    mu = uniform_measure(-1.0, 1.0, 10)
    tr = run_flattening(mu, mu, 0.5, 0.5, 2.0 ** -7, 1, kappa=0.1)
    assert _verdict(tr, "young-monotone").passed
    assert _verdict(tr, "flattening-target").passed
    assert _verdict(tr, "pi-symmetry").passed


def test_flattening_cantor_trace():
    mu = random_cantor_measure(0, depth=5)
    nu = random_cantor_measure(1, depth=5)
    tr = run_flattening(mu, nu, 0.5, 0.5, 2.0 ** -10, 3, kappa=0.1)
    assert _verdict(tr, "young-monotone").passed
    assert _verdict(tr, "young-monotone").measured <= 1e-9
    # energies nonincreasing, final at most the initial
    energies = tr[0]["energies"]
    assert np.all(np.diff(energies) <= 1e-9)
    assert energies[-1] <= energies[0]


@pytest.mark.parametrize("pair", ["cantor", "comb"])
def test_flattening_l2_matches_mollified_powers(pair):
    # oracle: J(k, r) is the L2 norm of the density of the 2^k-fold additive
    # power mollified by regularize, summed over its cells
    if pair == "cantor":
        mu, nu = random_cantor_measure(2, depth=4), random_cantor_measure(3, depth=4)
    else:
        mu, nu = make_comb(2.0 ** -4, 1.0 / 8), make_comb(2.0 ** -3, 1.0 / 8)
    delta, k_max = 2.0 ** -6, 2
    cols = _columns(run_flattening(mu, nu, 0.5, 0.5, delta, k_max, kappa=0.1))
    pk = difference_product(mu, nu)
    for k in range(k_max + 1):
        if k:
            pk = convolve(pk, pk, "add")
        at_k = cols["k"] == k
        want = [np.sqrt(np.sum(regularize(pk, float(r)).masses ** 2) / pk.spacing)
                for r in cols["r"][at_k]]
        np.testing.assert_allclose(cols["J"][at_k], want, rtol=1e-12, atol=0)


def _within(got, want, bound):
    """Every lag of got and want within bound * want[0] (A(0), the largest
    lag of an autocorrelation); lags only one of the two holds count against
    0, since _conv_add zeroes a power's tail cells whose true mass is below
    its FFT roundoff, which shortens the oracle's window."""
    common = min(got.size, want.size)
    err = max(np.max(np.abs(got[:common] - want[:common])),
              np.max(np.abs(got[common:]), initial=0.0),
              np.max(np.abs(want[common:]), initial=0.0))
    assert err <= bound * want[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), k_max=st.integers(0, 4), K=st.sampled_from([1, 2, 4, 8]),
       origin=st.integers(-40, 40), zeros=st.floats(0.0, 0.9),
       seed=st.integers(0, 2 ** 32 - 1))
# 2 |Pi| - 1 = 25 is itself a fast length: a power's transform at that
# length, scaled by 2^k, would wrap its lags
@example(n=13, k_max=4, K=4, origin=-7, zeros=0.0, seed=1)
def test_power_autocorrelations_match_the_add_chain(n, k_max, K, origin, zeros, seed):
    # oracle: the powers built by convolve(p, p, "add"), each read through
    # autocorrelation, regularize and l2_at_scale.  Bound: 1e-12 of A_k(0)
    # per lag and 1e-12 relative on J (at most 1.1e-14 and 5.2e-15 seen
    # over 400 random draws)
    assert n != 13 or next_fast_len(2 * n - 1, real=True) == 2 * n - 1
    rng = np.random.default_rng(seed)
    masses = rng.random(n) * (rng.random(n) >= zeros)
    masses[[0, -1]] = 0.01 + rng.random(2)          # an n-cell window, odd or even
    mu = GridMeasure(10, origin, masses)
    delta = K * mu.spacing
    scales = mu.spacing * 2.0 ** np.arange(6)
    plain, mollified = power_autocorrelations(mu, k_max, delta)
    assert power_autocorrelations(mu, k_max)[1] is None
    J = _l2_rows(plain, scales, mu.level)
    pk = mu
    for k in range(k_max + 1):
        if k:
            pk = convolve(pk, pk, "add")
        # the lags of P_k's window and of regularize's (the bump's end taps are 0)
        assert (plain[k].size, mollified[k].size) == (n << k, (n << k) + 2 * K - 2)
        _within(plain[k], autocorrelation(pk.masses), 1e-12)
        _within(mollified[k], autocorrelation(regularize(pk, delta).masses), 1e-12)
        np.testing.assert_allclose(J[k], l2_at_scale(pk, scales), rtol=1e-12, atol=0)


def test_flattening_energies_below_s_plus_t_one_match_energy_spatial():
    # oracle: energy_spatial of the powers built by convolve(p, p, "add");
    # the energies and the energy-nonincreasing ratio within 1e-12 relative
    mu, nu = random_cantor_measure(2, depth=4), random_cantor_measure(3, depth=4)
    s, t, delta, k_max = 0.3, 0.4, 2.0 ** -6, 3
    run = run_flattening(mu, nu, s, t, delta, k_max, kappa=0.1)
    pk, want = difference_product(mu, nu), []
    for k in range(k_max + 1):
        if k:
            pk = convolve(pk, pk, "add")
        want.append(energy_spatial(pk, s + t, delta))
    np.testing.assert_allclose(run[0]["energies"], want, rtol=1e-12, atol=0)
    verdict = _verdict(run, "energy-nonincreasing")
    assert verdict.measured == pytest.approx(want[-1] / want[0], rel=1e-12, abs=0)
    assert verdict.passed == bool(np.all(np.diff(want) <= 1e-9 * np.maximum(want[:-1], 1.0)))


@pytest.mark.parametrize("s, t", [(0.5, 0.5), (0.3, 0.4)])
def test_flattening_power_mass_check_fires(s, t, monkeypatch):
    # a leak of 1e-11 in every power spectrum (irfft is linear), 10x
    # _MASS_RTOL at Pi's mass 1, on both energy branches
    def leaky(*args):
        with monkeypatch.context() as patch:
            patch.setattr(measures, "irfft", lossy(np.fft.irfft, 1e-11))
            return power_autocorrelations(*args)

    mu, nu = random_cantor_measure(2, depth=4), random_cantor_measure(3, depth=4)
    monkeypatch.setattr(pipelines, "power_autocorrelations", leaky)
    with pytest.raises(AssertionError, match="additive power 0 lost mass"):
        run_flattening(mu, nu, s, t, 2.0 ** -6, 2, kappa=0.1)


@pytest.mark.parametrize("config, k_max, r_count", [
    ("flatten.cfg", 3, 11), (FLATTEN_L12, 4, 13)], ids=["flatten", "flatten-l12"])
def test_flattening_transforms_pi_once(config, k_max, r_count, tmp_path, monkeypatch):
    # counted work, which the host's noise cannot move: one rfft of Pi's
    # masses and k_max + 1 irffts for the powers, and no add convolution.
    # The rest of the run: 12 FFTs for the two subs (4 rfft + 2 irfft each),
    # 16 for the input energies (regularize's 6 and an autocorrelation's 2,
    # twice) and 2 per scale r for the bumps' autocorrelations.  Building
    # the powers took 4 FFTs per add and 2 per power's autocorrelation.
    if config.endswith(".cfg"):
        config = (Path(__file__).parent.parent / "configs" / config).read_text()
    calls, powers, ops = [], [], []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(np.fft, name)(*args, **kwargs)
        return call

    def spanned(*args):
        start = len(calls)
        out = power_autocorrelations(*args)
        powers.append(calls[start:])
        return out

    def recorded(mu, nu, op):
        ops.append(op)
        return convolve(mu, nu, op)

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(measures, name, counted(name))
    monkeypatch.setattr(pipelines, "power_autocorrelations", spanned)
    for module in (pipelines, convolution):
        monkeypatch.setattr(module, "convolve", recorded)
    cli.dispatch(cli.parse_config(config), tmp_path)
    assert powers == [["rfft"] + ["irfft"] * (k_max + 1)]
    assert sorted(set(ops)) == ["mul", "sub"]
    assert len(calls) == 12 + 16 + 2 * r_count + k_max + 2


def test_flattening_rejects_large_sum():
    mu = uniform_measure(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        run_flattening(mu, mu, 0.7, 0.7, 2.0 ** -5, 1, kappa=0.1)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_sets_uniform_single_class():
    mu = uniform_measure(0.0, 1.0, 10)
    run = run_level_sets(mu, 2.0 ** -5)
    assert run[0]["class_count"] == 1
    assert list(run[0]["classes"]) == ["0"]
    assert _verdict(run, "lower-sandwich").passed


def _two_plateaus() -> GridMeasure:
    # heights 1 and 1024, far apart, laid out one level finer than r = 2**-8
    level = 8
    h = 2.0 ** -level
    masses = np.zeros(1 << level)
    masses[: 1 << 6] = h                      # density 1 on [0, 1/4)
    masses[3 << 6: (3 << 6) + 8] = h * 1024   # density 1024, 8 cells
    return GridMeasure(level, 0, masses).refined(9)


def test_level_sets_two_plateaus():
    run = run_level_sets(_two_plateaus(), 2.0 ** -8)
    # mollifying spreads each plateau by one r-cell on either side: two more
    # cells of class 0, and two of class 9 beside the 1024 plateau
    assert run[0]["classes"] == {"0": 66, "9": 2, "10": 8}
    assert _verdict(run, "lower-sandwich").passed


def test_level_sets_refuses_r_below_twice_spacing():
    # at r = spacing the mollifier is the identity and the sandwich lapses
    with pytest.raises(ValueError, match="twice the grid spacing"):
        run_level_sets(_two_plateaus(), 2.0 ** -9)


def test_level_sets_class_count_logarithmic():
    for seed in range(4):
        mu = random_cantor_measure(seed, depth=5)
        r = 2.0 ** -8
        run = run_level_sets(mu, r)
        assert run[0]["class_count"] <= 2 * np.log2(1.0 / r) + 2
        assert _verdict(run, "lower-sandwich").measured <= 8.0


# ---------------------------------------------------------------------------
# induction chain
# ---------------------------------------------------------------------------

def test_induction_chain_uniforms():
    mus = [uniform_measure(1.0, 2.0, 13) for _ in range(3)]
    payload, _, _ = run_induction_chain(mus, [1.0, 1.0, 1.0], 2.0 ** -10, k=1,
                                        n_samples=64)
    assert payload["max_violation"] <= 1e-6


def test_induction_chain_point_masses_equality():
    pms = [point_mass(1.0, 8) for _ in range(3)]
    chain = _columns(run_induction_chain(pms, [1.0, 1.0, 1.0], 2.0 ** -5, k=1,
                                         n_samples=8))
    # unimodular transforms: equality throughout
    assert np.max(np.abs(chain["lhs"] - chain["rhs"])) <= 1e-9


def test_induction_chain_cantor_instance():
    mus = [random_cantor_measure(i, depth=5) for i in range(3)]
    payload, _, _ = run_induction_chain(mus, [0.5, 0.5, 0.5], 2.0 ** -10, k=2,
                                        n_samples=32)
    assert payload["max_violation"] <= 1e-6
    assert payload["tau_hat"] > 0
    assert payload["rescaled_energy"] > 0


@pytest.mark.parametrize("inputs", ["cantor", "uniform", "point"])
def test_induction_chain_rhs_matches_squared_moduli(inputs):
    # rhs reads Pi^ off mu_1's autocorrelation; summing w2 |mu_1^|^2 read
    # from mu_1's own table gives the same rhs to roundoff
    mus = {"cantor": [random_cantor_measure(i, depth=5) for i in range(3)],
           "uniform": [uniform_measure(1.0, 2.0, 13) for _ in range(3)],
           "point": [point_mass(1.0 + i / 8, 8) for i in range(3)]}[inputs]
    delta, k, n_samples = 2.0 ** -10, 2, 32
    chain = _columns(run_induction_chain(mus, [0.5, 0.5, 0.5], delta, k, n_samples))
    work = [pipelines._coarsen_to_cap(m) for m in mus]
    dists2, w2 = pipelines._self_difference_atoms(work[1])
    tail_n, tail_w, e = odd_products(work[2:])
    xis = np.geomspace(1.0 / delta, 2.0 / delta, n_samples)
    pi_hat = fourier_lattice(work[0], xis * 2.0 ** -(e + work[1].level),
                             np.multiply.outer(tail_n, dists2),
                             lambda q: np.sum((q.real ** 2 + q.imag ** 2) * w2, axis=-1),
                             centered=True)
    rhs = pi_hat ** (2 ** k) @ tail_w
    assert np.max(np.abs(chain["rhs"] - rhs) / rhs) <= 1e-13


# windows of up to 64 occupied cells (the chain's cap), with zero runs between them
_RUN_WINDOWS = st.lists(st.tuples(st.integers(0, 12), st.floats(1e-6, 1.0)),
                        min_size=1, max_size=64).map(
    lambda runs: np.concatenate([np.r_[np.zeros(gap), mass] for gap, mass in runs]))


@settings(max_examples=60, deadline=None)
@given(_RUN_WINDOWS, st.integers(-100, 100))
def test_self_difference_atoms_match_pair_loop(masses, origin):
    # oracle: every ordered pair (i, j) of occupied cells adds m_i m_j at
    # |i - j|, in (i, j) order, as the helper's bincount does
    m = GridMeasure(10, origin, masses)
    acc = {}
    occupied = [i for i, v in enumerate(masses) if v]
    for i in occupied:
        for j in occupied:
            acc[abs(i - j)] = acc.get(abs(i - j), 0.0) + masses[i] * masses[j]
    dists, w = pipelines._self_difference_atoms(m)
    assert dists.tolist() == sorted(acc)
    assert w.tobytes() == np.array([acc[d] for d in sorted(acc)]).tobytes()
    # the autocorrelation: w[0] at cell 0 and w[d] / 2 at +-d, mirrored bit for bit
    am = pipelines._autocorrelation_measure(m)
    top = int(dists[-1])
    assert am.level == m.level and am.origin_index == -top and am.size == 2 * top + 1
    assert am.masses.tobytes() == am.masses[::-1].tobytes()
    assert am.masses[top] == w[0]
    assert am.masses[top + dists[1:]].tobytes() == (w[1:] / 2).tobytes()
    assert np.count_nonzero(am.masses) == 2 * dists.size - 1


def test_induction_chain_tau_quarter_comparison():
    # product of three factors decays at least a quarter as fast as a pair
    from decaylab.spectral import fourier_many, profile_from_samples
    mus = [random_cantor_measure(20 + i, depth=5) for i in range(3)]
    payload, _, _ = run_induction_chain(mus, [0.5, 0.5, 0.5], 2.0 ** -10, k=1,
                                        n_samples=16)
    pair = convolve(mus[0], mus[1], "mul")
    top = min(2.0 ** 11, 1.0 / (8 * pair.spacing))
    xis = np.geomspace(16.0, top, 64)
    pair_prof = profile_from_samples(xis, np.abs(fourier_many(pair, xis)))
    assert payload["tau_hat"] >= pair_prof.tau_hat / 4.0 - 0.05


def test_induction_chain_validation():
    mus = [uniform_measure(1.0, 2.0, 8)] * 2
    with pytest.raises(ValueError, match="n >= 3"):
        run_induction_chain(mus, [1.0, 1.0], 2.0 ** -5, 1, n_samples=8)
    mus = [uniform_measure(0.0, 0.5, 8)] * 3
    with pytest.raises(ValueError, match="sum of exponents"):
        run_induction_chain(mus, [0.3, 0.3, 0.3], 2.0 ** -5, 1, n_samples=8)


def test_induction_chain_needs_one_exponent_per_measure():
    # a short exponent list would drop the last inputs' energies in zip
    mus = [uniform_measure(1.0, 2.0, 8)] * 3
    with pytest.raises(ValueError, match="2 exponents for 3 measures"):
        run_induction_chain(mus, [0.6, 0.6], 2.0 ** -5, 1, n_samples=8)


# ---------------------------------------------------------------------------
# quantitative pipeline
# ---------------------------------------------------------------------------

def test_quantitative_parameters_arithmetic():
    ell, tau = quantitative_parameters(0.5, 2.0)
    assert ell == 4 and tau == 2.0 ** -9
    ell, tau = quantitative_parameters(1.0, 1.0)
    assert ell == 1 and tau == 2.0 ** -3


def test_quantitative_rejects_short_chain():
    mus = [uniform_measure(1.0, 2.0, 8)] * 2
    with pytest.raises(ValueError, match="n >= 2\\*ell = 8"):
        run_quantitative_decay(mus, 0.5, 2.0 ** -5, c0=2.0, n_samples=8)


def test_quantitative_single_stage():
    # rough inputs: smooth ones decay below the grid noise floor, which makes
    # the fitted exponent meaningless rather than large
    mus = [translated(random_cantor_measure(60 + i, depth=4), 1.0)
           for i in range(2)]
    payload, _, _ = run_quantitative_decay(mus, 1.0, 2.0 ** -8, c0=1.0, n_samples=24)
    assert payload["ell"] == 1
    assert payload["tau_theory"] == 2.0 ** -3
    assert payload["tau_measured"] >= payload["tau_theory"]


def test_quantitative_two_stages_cantor():
    mus = [translated(random_cantor_measure(40 + i, depth=4), 1.0)
           for i in range(4)]
    payload, verdicts, _ = run_quantitative_decay(mus, 0.5, 2.0 ** -8, c0=1.0,
                                                  n_samples=24)
    assert payload["ell"] == 2
    assert [st["exponent"] for st in payload["stages"]] == pytest.approx([0.5, 2.0 / 3.0])
    assert payload["tau_measured"] >= payload["tau_theory"]
    assert verdicts[0].passed


def test_quantitative_fits_the_exact_transform_of_the_chain_ends(monkeypatch):
    # the chains make the only muls; the fit reads product_fourier, uncapped
    mus = [translated(random_cantor_measure(40 + i, depth=4), 1.0)
           for i in range(4)]
    ops = []

    def counting(a, b, op):
        ops.append(op)
        return convolve(a, b, op)

    monkeypatch.setattr(pipelines, "convolve", counting)
    delta, n = 2.0 ** -8, 24
    payload, _, _ = run_quantitative_decay(mus, 0.5, delta, c0=1.0, n_samples=n)
    assert ops.count("mul") == 2 * (payload["ell"] - 1) == 2
    ends = []
    for a, b in (mus[:2], mus[2:]):
        prod = convolve(a, b, "mul")
        ends.append(convolve(prod, prod, "sub"))
    xis = np.geomspace(16.0, 2.0 / delta, n)
    exact = profile_from_samples(xis, np.abs(product_fourier(*ends, xis)))
    assert payload["tau_measured"] == exact.tau_hat


def test_quantitative_requires_supports_in_1_2():
    mus = [uniform_measure(0.0, 1.0, 8)] * 2
    with pytest.raises(ValueError, match="\\[1, 2\\]"):
        run_quantitative_decay(mus, 1.0, 2.0 ** -5, c0=1.0, n_samples=8)


# ---------------------------------------------------------------------------
# keystep scan
# ---------------------------------------------------------------------------

def test_keystep_uniform_vacuous():
    mu = uniform_measure(1.0, 2.0, 12)
    payload, _, _ = run_keystep_scan(mu, mu, 0.5, 0.5, 2.0 ** -9, big_c=2.0, eps=0.05)
    assert payload["implication_ok"]
    assert not any(r["antecedent"] for r in payload["rows"])   # smooth: L2 stays small


def test_keystep_concentrated_comb():
    # a comb shifted into [1, 2] concentrates at the tooth scale, so the
    # antecedent fires at coarse rho; the consequent is then measured
    rho_comb = make_comb(2.0 ** -4, 1.0 / 16)
    mu = translated(rho_comb, 1.0)
    nu = uniform_measure(1.0, 2.0, mu.level)
    payload, _, _ = run_keystep_scan(mu, nu, 0.5, 0.5, 2.0 ** -8, big_c=2.0, eps=0.05)
    assert any(r["antecedent"] for r in payload["rows"])
    assert payload["implication_ok"]
    assert all(r["diag_indicator_l2"] >= 0 for r in payload["rows"])


def test_keystep_refuses_non_dyadic_delta():
    # rounding delta would scan the nearest dyadic scales instead
    mu = uniform_measure(1.0, 2.0, 12)
    with pytest.raises(ValueError, match="not a dyadic power"):
        run_keystep_scan(mu, mu, 0.5, 0.5, 0.003, big_c=2.0, eps=0.05)


def test_keystep_battery_never_false():
    for seed in range(4):
        mu = translated(random_cantor_measure(seed, depth=4), 1.0)
        nu = translated(random_cantor_measure(seed + 9, depth=4), 1.0)
        payload, _, _ = run_keystep_scan(mu, nu, 0.45, 0.45, 2.0 ** -8, big_c=2.0,
                                         eps=0.05)
        assert payload["implication_ok"]
