"""Tests for the exact probability engines and moment formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from realrmt import analytics, pfaffian, sopoly
from realrmt.ensembles import ENSEMBLES


@pytest.mark.parametrize("ensemble,n,kwargs", [
    ("ginibre", 7, {}),
    ("partial", 5, {"tau": 0.3}),
    ("spherical", 9, {}),
    ("truncated", 6, {"big_l": 2}),
])
def test_probabilities_sum_to_one_with_parity(ensemble, n, kwargs):
    probs = analytics.prob_table(ensemble, n, **kwargs)
    assert probs.sum() == pytest.approx(1.0, rel=1e-9)
    assert np.all(probs > -1e-12)
    for k in range(n + 1):
        if (n - k) % 2 == 1:
            assert probs[k] == 0.0


def test_goe_table_is_deterministic():
    probs = analytics.prob_table("goe", 5)
    assert probs[5] == 1.0 and probs.sum() == 1.0


def test_prob_table_argument_checks():
    with pytest.raises(ValueError):
        analytics.prob_table("partial", 4)
    with pytest.raises(ValueError):
        analytics.prob_table("truncated", 4)
    with pytest.raises(ValueError):
        analytics.prob_table("mystery", 4)
    with pytest.raises(ValueError):
        analytics.ginibre_prob_gf(41)
    with pytest.raises(ValueError):
        analytics.truncated_prob_gf(13, 1)
    with pytest.raises(ValueError):
        analytics.partial_prob_gf(ENSEMBLES["partial"].max_table + 1, 0.5)


def test_ginibre_alpha_recursion_cross_check():
    for j in range(4):
        for l in range(4):
            assert analytics.ginibre_alpha_via_recursion(j, l) == pytest.approx(
                analytics.ginibre_alpha(j, l), rel=1e-10)


def test_ginibre_expected_reals_matches_distribution():
    for n in (4, 7, 10):
        probs = analytics.ginibre_prob_gf(n)
        mean = float(np.dot(np.arange(n + 1), probs))
        assert analytics.ginibre_expected_reals(n) == pytest.approx(mean, rel=1e-11)


def test_ginibre_expected_reals_asymptotic():
    for n in (50, 200):
        exact = analytics.ginibre_expected_reals(n)
        approx = analytics.ginibre_expected_reals_asymptotic(n)
        assert approx == pytest.approx(exact, rel=1e-8)


def test_ginibre_variance_scaling():
    # the variance relation ties the variance to the mean
    n = 30
    assert analytics.ginibre_variance_reals(n) == pytest.approx(
        (2.0 - math.sqrt(2.0)) * analytics.ginibre_expected_reals(n))


def test_ginibre_all_real_closed_form():
    for n in range(2, 8):
        assert analytics.ginibre_prob_gf(n)[n] == pytest.approx(
            analytics.ginibre_pnn(n), rel=1e-10)


def test_partial_i_requires_odd_index():
    with pytest.raises(ValueError):
        analytics._partial_i(2, 0.0)


def test_spherical_bernoulli_composition():
    # the distribution is the law of a sum of independent two-valued steps
    n = 6
    ts = analytics.spherical_bernoulli(n)
    assert len(ts) == n // 2
    assert np.all((0 < ts) & (ts < 1))
    assert analytics.spherical_prob_gf(n)[n] == pytest.approx(np.prod(ts))


def test_truncated_moments_against_distribution():
    for m, big_l in ((4, 1), (5, 2), (6, 8)):
        probs = analytics.truncated_prob_gf(m, big_l)
        mean = float(np.dot(np.arange(m + 1), probs))
        assert analytics.truncated_expected_reals(m, big_l) == pytest.approx(mean)


def test_truncated_expectation_regimes():
    # shallow truncation: expectation grows like the logarithm of the order
    strong = analytics.truncated_expected_reals_strong(10 ** 6, 1)
    log_term = analytics.truncated_expected_reals_log(10 ** 6, 1)
    assert strong == pytest.approx(log_term, rel=0.15)
    # deep truncation: square-root growth
    assert analytics.truncated_expected_reals_weak(50) == pytest.approx(
        math.sqrt(100.0 / math.pi))


def test_rational_form():
    assert analytics.rational_form(0.5) == Fraction(1, 2)
    assert analytics.rational_form(2.0 / 3.0) == Fraction(2, 3)
    assert analytics.rational_form(math.pi, max_denominator=1000) is None


# every order of the exact-table sweep with a closed-form p_{N,N}
SWEEP_TRUNCATED = {1: range(2, 10), 2: range(2, 10), 3: range(2, 10),
                   4: range(2, 11), 6: range(2, 11), 8: range(2, 12)}
SWEEP_PARTIAL = {0.5: range(8, 15), 0.75: (14, 16), 0.25: (12,), -0.5: (8,)}
SWEEP_GINIBRE = (7, 9, 11)

# tau near both ends of its range, where the partial block is worst conditioned
PARTIAL_EDGE_TAUS = (-0.99999, -0.999, -0.8, -0.6, 0.99, 0.999, 0.99999)

# every order up to each stated cap
TABLE_CASES = (
    [("truncated", m, {"big_l": big_l})
     for big_l in (1, 2, 3, 4, 6, 8)
     for m in range(1, ENSEMBLES["truncated"].max_table + 1)]
    + [("partial", n, {"tau": tau})
       for tau in (0.5, -0.5, 0.25, 0.75) + PARTIAL_EDGE_TAUS
       for n in range(1, ENSEMBLES["partial"].max_table + 1)]
    + [("ginibre", n, {}) for n in range(1, ENSEMBLES["ginibre"].max_table + 1)]
    + [("spherical", n, {}) for n in range(1, 31)]
)


def test_table_map_covers_exactly_the_registry():
    assert set(analytics._TABLES) == set(ENSEMBLES)


def test_exact_tables_are_distributions():
    for ensemble, n, kwargs in TABLE_CASES:
        probs = analytics.prob_table(ensemble, n, **kwargs)
        assert probs.min() >= -1e-12, (ensemble, n, kwargs)
        assert probs.max() <= 1.0 + 1e-12, (ensemble, n, kwargs)
        assert abs(probs.sum() - 1.0) <= 1e-12, (ensemble, n, kwargs)


# a sum 2e-12 above 1; a p_{N,k} 2e-12 below 0 in a table that sums to 1
@pytest.mark.parametrize("table", [[0.25, 0.5, 0.25 + 2e-12],
                                   [-2e-12, 0.5, 0.5 + 2e-12]])
def test_prob_table_refuses_a_table_outside_the_bound(monkeypatch, table):
    monkeypatch.setitem(analytics._TABLES, "goe",
                        lambda n, tau, big_l: np.array(table))
    with pytest.raises(ArithmeticError):
        analytics.prob_table("goe", 2)


def test_sweep_all_real_probabilities_match_closed_forms():
    cases = ([(analytics.truncated_prob_gf(m, big_l)[m],
               analytics.truncated_pmm(m, big_l))
              for big_l, ms in SWEEP_TRUNCATED.items() for m in ms]
             + [(analytics.partial_prob_gf(n, tau)[n], analytics.partial_pnn(n, tau))
                for tau, ns in SWEEP_PARTIAL.items() for n in ns]
             + [(analytics.ginibre_prob_gf(n)[n], analytics.ginibre_pnn(n))
                for n in SWEEP_GINIBRE])
    for got, want in cases:
        assert got == pytest.approx(want, rel=1e-5, abs=0.0)


# each tolerance at least ten times the worst relative error up to the cap
ALL_REAL_CASES = (
    [("ginibre", n, {}, analytics.ginibre_pnn(n), 1e-5)
     for n in range(1, ENSEMBLES["ginibre"].max_table + 1)]
    + [("partial", n, {"tau": tau}, analytics.partial_pnn(n, tau), 1e-3)
       for tau in (0.5, -0.5, 0.25, 0.75)
       for n in range(1, ENSEMBLES["partial"].max_table + 1)]
    + [("truncated", m, {"big_l": big_l}, analytics.truncated_pmm(m, big_l), 1e-8)
       for big_l in (1, 2, 3, 4, 6, 8)
       for m in range(1, ENSEMBLES["truncated"].max_table + 1)]
)


def test_all_real_probability_keeps_relative_accuracy_up_to_the_cap():
    for ensemble, n, kwargs, want, rel in ALL_REAL_CASES:
        got = analytics.prob_table(ensemble, n, **kwargs)[n]
        assert got == pytest.approx(want, rel=rel, abs=0.0), (ensemble, n, kwargs)


@pytest.mark.parametrize("mu", [(0.3, 1.2), (-0.1,), (0.5 + 1e-6j,)])
def test_bernoulli_table_refuses_a_factor_off_the_unit_interval(mu):
    with pytest.raises(ArithmeticError, match="mu"):
        analytics._bernoulli_table(np.array(mu), 0)


def test_bernoulli_table_clips_factors_within_the_bound():
    probs = analytics._bernoulli_table(np.array([-1e-13, 1.0 + 1e-13]), 1)
    assert probs.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def _partial_monomial_table(n, tau):
    """p_{N,k} from the monomial-basis alpha and beta entries: Z(s) is the
    Pfaffian of the chequer matrix of s alpha + beta, bordered at odd N."""
    rows, cols = (n + 1) // 2, n // 2
    alpha = np.array([[analytics.partial_alpha(j, l) for l in range(1, cols + 1)]
                      for j in range(1, rows + 1)])
    beta = np.array([[analytics.partial_beta(j, l, tau) for l in range(1, cols + 1)]
                     for j in range(1, rows + 1)])
    border = np.array([analytics.partial_nu(r) for r in range(1, n + 1)])

    def z(s):
        core = np.zeros((n, n), dtype=complex)
        core[0::2, 1::2] = s * alpha + beta
        core[1::2, 0::2] = -core[0::2, 1::2].T
        return pfaffian.pfaffian_bordered(core, border) if n % 2 else pfaffian.pfaffian(core)

    roots = np.exp(2j * math.pi * np.arange(cols + 1) / (cols + 1))
    coeffs = np.fft.fft([z(s) for s in roots]).real / (cols + 1) / z(1.0).real
    probs = np.zeros(n + 1)
    probs[n % 2::2] = coeffs
    return probs


@pytest.mark.parametrize("tau", [0.5, -0.5, 0.25])
def test_partial_tables_match_the_monomial_path(tau):
    for n in range(1, 11):
        want = _partial_monomial_table(n, tau)
        assert np.max(np.abs(analytics.partial_prob_gf(n, tau) - want)) <= 1e-12, n


def test_ginibre_sign_table_alpha_matches_closed_form():
    fam = sopoly.ginibre_family(12)
    c = fam.matrix()
    alpha = c[0::2] @ analytics._gauss_sign_table(12, 1.0) @ c[1::2].T
    for j in range(6):
        for l in range(6):
            assert alpha[j, l] == pytest.approx(analytics.ginibre_alpha(j, l), rel=1e-13)


def _trunc_alpha_reference(fam, big_l):
    """Alpha block by nested adaptive quadrature with algebraic end weights."""
    a = big_l / 2.0 - 1.0
    cw = sopoly._trunc_cw(big_l)
    tol = {"epsabs": 1e-13, "epsrel": 1e-12}
    evens, odds = fam.coeffs[0::2], fam.coeffs[1::2]
    out = np.zeros((len(evens), len(odds)))
    for j, fc in enumerate(evens):
        for l, gc in enumerate(odds):
            g = lambda y, gc=gc: sopoly.eval_poly(gc, y)
            total = integrate.quad(g, -1.0, 1.0, weight="alg", wvar=(a, a), **tol)[0]

            def sgn_integral(x):
                # integral of sgn(y - x) w(y) g(y) over (-1, 1), w(y) = cw (1 - y^2)^a,
                # from the one-sided integral over the half away from x's end:
                # its integrand then keeps the far end's factor (1 -+ y)^a bounded
                if x <= 0.0:
                    below = integrate.quad(lambda y: (1.0 - y) ** a * g(y), -1.0, x,
                                           weight="alg", wvar=(a, 0.0), **tol)[0]
                    return cw * (total - 2.0 * below)
                above = integrate.quad(lambda y: (1.0 + y) ** a * g(y), x, 1.0,
                                       weight="alg", wvar=(0.0, a), **tol)[0]
                return cw * (2.0 * above - total)

            out[j, l] = integrate.quad(
                lambda x: cw * sopoly.eval_poly(fc, x) * sgn_integral(x), -1.0, 1.0,
                weight="alg", wvar=(a, a), **tol)[0]
    return out


def _check_trunc_alpha_block(m, big_l):
    fam = sopoly.truncated_family(m, big_l)
    c = fam.matrix()
    got = c[0::2] @ analytics._trunc_sign_table(m, big_l) @ c[1::2].T
    assert got.shape == ((m + 1) // 2, m // 2)
    assert np.max(np.abs(got - _trunc_alpha_reference(fam, big_l))) < 1e-10


@pytest.mark.parametrize("big_l", [2, 3])
def test_truncated_alpha_block_against_nested_quadrature(big_l):
    _check_trunc_alpha_block(4, big_l)


@pytest.mark.parametrize("big_l", [5])
def test_truncated_alpha_block_at_odd_order_against_nested_quadrature(big_l):
    _check_trunc_alpha_block(5, big_l)


@pytest.mark.parametrize("m", [4, 5, 8, 11])
def test_truncated_alpha_block_at_l1_matches_closed_form(m):
    # at L = 1 the block is 2 / (pi (2l+1) (2j+2l+1)) in closed form; the
    # nested quadrature's outer integral does not converge there
    c = sopoly.truncated_family(m, 1).matrix()
    got = c[0::2] @ analytics._trunc_sign_table(m, 1) @ c[1::2].T
    j, l = np.ogrid[:(m + 1) // 2, :m // 2]
    want = 2.0 / (math.pi * (2 * l + 1) * (2 * j + 2 * l + 1))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
