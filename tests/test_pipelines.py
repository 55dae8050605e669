import numpy as np
import pytest

from decaylab import (GridMeasure, l2_at_scale, point_mass, product_fourier,
                      pushforward_affine, uniform_measure)
from decaylab.constructions import make_comb
from decaylab.convolution import convolve, difference_product
from decaylab.pipelines import (quantitative_parameters, run_base_case,
                                run_flattening, run_induction_chain,
                                run_keystep_scan, run_level_sets,
                                run_quantitative_decay)

from conftest import random_cantor_measure


def _verdict(report, name):
    return next(v for v in report.verdicts if v.name == name)


# ---------------------------------------------------------------------------
# base case
# ---------------------------------------------------------------------------

def test_base_case_uniform_pair():
    mu = uniform_measure(1.0, 2.0, 13)
    rep = run_base_case(mu, mu, 1.0, 1.0, 2.0 ** -10, n_samples=12)
    assert rep.preconditions_ok
    assert rep.measured_constant <= 16.0


def test_base_case_magnitudes_match_scalar_calls_bit_for_bit():
    mu, nu = random_cantor_measure(4), random_cantor_measure(5)
    rep = run_base_case(mu, nu, 0.5, 0.5, 2.0 ** -7, n_samples=9)
    want = [abs(product_fourier(mu, nu, x)) for x in rep.xi_samples]
    assert rep.magnitudes.tobytes() == np.array(want).tobytes()


def test_base_case_point_masses_flagged():
    pm = point_mass(1.0, 10)
    rep = run_base_case(pm, pm, 0.5, 0.5, 2.0 ** -7, n_samples=6)
    assert not rep.preconditions_ok
    assert rep.max_magnitude == pytest.approx(1.0, abs=1e-9)


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
    tr = run_flattening(mu, nu, 0.5, 0.5, 2.0 ** -10, 3)
    assert _verdict(tr, "young-monotone").passed
    assert _verdict(tr, "young-monotone").measured <= 1e-9
    # energies nonincreasing, final at most the initial
    assert np.all(np.diff(tr.energies) <= 1e-9)
    assert tr.energies[-1] <= tr.energies[0]


@pytest.mark.parametrize("pair", ["cantor", "comb"])
def test_flattening_l2_matches_mollified_powers(pair):
    # oracle: J(k, r) is the L2 norm of the mollified 2^k-fold additive power
    if pair == "cantor":
        mu, nu = random_cantor_measure(2, depth=4), random_cantor_measure(3, depth=4)
    else:
        mu, nu = make_comb(2.0 ** -4, 1.0 / 8), make_comb(2.0 ** -3, 1.0 / 8)
    delta, k_max = 2.0 ** -6, 2
    tr = run_flattening(mu, nu, 0.5, 0.5, delta, k_max)
    pk = difference_product(mu, nu).trimmed()
    for k in range(k_max + 1):
        if k:
            pk = convolve(pk, pk, "add")
        want = [l2_at_scale(pk, float(r)) for r in tr.r_values]
        np.testing.assert_allclose(tr.l2_by_scale[k], want, rtol=1e-12, atol=0)


def test_flattening_rejects_large_sum():
    mu = uniform_measure(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        run_flattening(mu, mu, 0.7, 0.7, 2.0 ** -5, 1)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_sets_uniform_single_class():
    mu = uniform_measure(0.0, 1.0, 10)
    rep = run_level_sets(mu, 2.0 ** -5)
    assert rep.class_count == 1
    assert list(rep.classes) == [0]
    assert _verdict(rep, "lower-sandwich").passed


def _two_plateaus() -> GridMeasure:
    # heights 1 and 1024, far apart, laid out one level finer than r = 2**-8
    level = 8
    h = 2.0 ** -level
    masses = np.zeros(1 << level)
    masses[: 1 << 6] = h                      # density 1 on [0, 1/4)
    masses[3 << 6: (3 << 6) + 8] = h * 1024   # density 1024, 8 cells
    return GridMeasure(level, 0, masses).refined(9)


def test_level_sets_two_plateaus():
    rep = run_level_sets(_two_plateaus(), 2.0 ** -8)
    # mollifying spreads each plateau by one r-cell on either side: two more
    # cells of class 0, and two of class 9 beside the 1024 plateau
    assert rep.classes == {0: 66, 9: 2, 10: 8}
    assert _verdict(rep, "lower-sandwich").passed


def test_level_sets_refuses_r_below_twice_spacing():
    # at r = spacing the mollifier is the identity and the sandwich lapses
    with pytest.raises(ValueError, match="twice the grid spacing"):
        run_level_sets(_two_plateaus(), 2.0 ** -9)


def test_level_sets_class_count_logarithmic():
    for seed in range(4):
        mu = random_cantor_measure(seed, depth=5)
        r = 2.0 ** -8
        rep = run_level_sets(mu, r)
        assert rep.class_count <= 2 * np.log2(1.0 / r) + 2
        assert _verdict(rep, "lower-sandwich").measured <= 8.0


# ---------------------------------------------------------------------------
# induction chain
# ---------------------------------------------------------------------------

def test_induction_chain_uniforms():
    mus = [uniform_measure(1.0, 2.0, 13) for _ in range(3)]
    rep = run_induction_chain(mus, [1.0, 1.0, 1.0], 2.0 ** -10, k=1,
                              n_samples=64)
    assert rep.max_violation <= 1e-6


def test_induction_chain_point_masses_equality():
    pms = [point_mass(1.0, 8) for _ in range(3)]
    rep = run_induction_chain(pms, [1.0, 1.0, 1.0], 2.0 ** -5, k=1,
                              n_samples=8)
    # unimodular transforms: equality throughout
    assert np.max(np.abs(rep.lhs - rep.rhs)) <= 1e-9


def test_induction_chain_cantor_instance():
    mus = [random_cantor_measure(i, depth=5) for i in range(3)]
    rep = run_induction_chain(mus, [0.5, 0.5, 0.5], 2.0 ** -10, k=2,
                              n_samples=32)
    assert rep.max_violation <= 1e-6
    assert rep.tau_profile.tau_hat > 0
    assert rep.rescaled_energy > 0


def test_induction_chain_tau_quarter_comparison():
    # product of three factors decays at least a quarter as fast as a pair
    from decaylab.spectral import fourier_many, profile_from_samples
    mus = [random_cantor_measure(20 + i, depth=5) for i in range(3)]
    rep = run_induction_chain(mus, [0.5, 0.5, 0.5], 2.0 ** -10, k=1,
                              n_samples=16)
    pair = convolve(mus[0], mus[1], "mul")
    top = min(2.0 ** 11, 1.0 / (8 * pair.spacing))
    xis = np.geomspace(16.0, top, 64)
    pair_prof = profile_from_samples(xis, np.abs(fourier_many(pair, xis)))
    assert rep.tau_profile.tau_hat >= pair_prof.tau_hat / 4.0 - 0.05


def test_induction_chain_validation():
    mus = [uniform_measure(1.0, 2.0, 8)] * 2
    with pytest.raises(ValueError, match="n >= 3"):
        run_induction_chain(mus, [1.0, 1.0], 2.0 ** -5, 1)
    mus = [uniform_measure(0.0, 0.5, 8)] * 3
    with pytest.raises(ValueError, match="sum of exponents"):
        run_induction_chain(mus, [0.3, 0.3, 0.3], 2.0 ** -5, 1)


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
        run_quantitative_decay(mus, 0.5, 2.0 ** -5, c0=2.0)


def test_quantitative_single_stage():
    # rough inputs: smooth ones decay below the grid noise floor, which makes
    # the fitted exponent meaningless rather than large
    mus = [pushforward_affine(random_cantor_measure(60 + i, depth=4), 1.0, 1.0)
           for i in range(2)]
    rep = run_quantitative_decay(mus, 1.0, 2.0 ** -8, c0=1.0, n_samples=24)
    assert rep.ell == 1
    assert rep.tau_theory == 2.0 ** -3
    assert rep.tau_measured >= rep.tau_theory


def test_quantitative_two_stages_cantor():
    mus = [pushforward_affine(random_cantor_measure(40 + i, depth=4), 1.0, 1.0)
           for i in range(4)]
    rep = run_quantitative_decay(mus, 0.5, 2.0 ** -8, c0=1.0, n_samples=24)
    assert rep.ell == 2
    assert len(rep.stage_reports) == 2
    assert rep.stage_reports[0].exponent == pytest.approx(0.5)
    assert rep.stage_reports[1].exponent == pytest.approx(2.0 / 3.0)
    assert rep.tau_measured >= rep.tau_theory
    assert rep.verdicts[0].passed


def test_quantitative_requires_supports_in_1_2():
    mus = [uniform_measure(0.0, 1.0, 8)] * 2
    with pytest.raises(ValueError, match="\\[1, 2\\]"):
        run_quantitative_decay(mus, 1.0, 2.0 ** -5, c0=1.0)


# ---------------------------------------------------------------------------
# keystep scan
# ---------------------------------------------------------------------------

def test_keystep_uniform_vacuous():
    mu = uniform_measure(1.0, 2.0, 12)
    rep = run_keystep_scan(mu, mu, 0.5, 0.5, 2.0 ** -9)
    assert rep.implication_ok
    assert not any(r.antecedent for r in rep.rows)   # smooth: L2 stays small


def test_keystep_concentrated_comb():
    # a comb shifted into [1, 2] concentrates at the tooth scale, so the
    # antecedent fires at coarse rho; the consequent is then measured
    rho_comb = make_comb(2.0 ** -4, 1.0 / 16)
    mu = pushforward_affine(rho_comb, 1.0, 1.0)
    nu = uniform_measure(1.0, 2.0, mu.level)
    rep = run_keystep_scan(mu, nu, 0.5, 0.5, 2.0 ** -8, big_c=2.0)
    assert any(r.antecedent for r in rep.rows)
    assert rep.implication_ok
    assert all(r.diag_indicator_l2 >= 0 for r in rep.rows)


def test_keystep_battery_never_false():
    for seed in range(4):
        mu = pushforward_affine(random_cantor_measure(seed, depth=4), 1.0, 1.0)
        nu = pushforward_affine(random_cantor_measure(seed + 9, depth=4), 1.0, 1.0)
        rep = run_keystep_scan(mu, nu, 0.45, 0.45, 2.0 ** -8, big_c=2.0)
        assert rep.implication_ok
