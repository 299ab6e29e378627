"""Tests for the special-function helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp

from realrmt import specfun


def test_gamma_fn_matches_factorials():
    for n in range(1, 10):
        assert specfun.gamma_fn(n) == math.factorial(n - 1)
    assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi))


def test_gamma_fn_domain():
    with pytest.raises(ValueError):
        specfun.gamma_fn(0.0)
    with pytest.raises(ValueError):
        specfun.gamma_fn(-1.5)
    with pytest.raises(OverflowError):
        specfun.gamma_fn(200.0)


def test_log_gamma_consistent():
    for x in (0.3, 1.0, 7.5, 150.0, 900.0):
        assert specfun.log_gamma(x) == pytest.approx(sp.gammaln(x), rel=1e-13)
    with pytest.raises(ValueError):
        specfun.log_gamma(-2.0)


@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=60.0))
def test_upper_gamma_regularized_matches_scipy(n, x):
    got = specfun.upper_gamma_regularized(n, x)
    want = sp.gammaincc(n, x)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_upper_gamma_regularized_negative_and_complex():
    # analytic continuation: e^{-x} sum_{j<n} x^j/j!
    for n in (1, 3, 6):
        for x in (-2.0, -0.5, 1.5 + 2.0j):
            want = np.exp(-x) * sum(x ** j / math.factorial(j) for j in range(n))
            assert specfun.upper_gamma_regularized(n, x) == pytest.approx(want)
    # a = 0: the sum is empty
    assert specfun.upper_gamma_regularized(0, 1.0) == 0.0
    assert specfun.upper_gamma_regularized(0, -2.0 + 0.5j) == 0.0
    np.testing.assert_array_equal(specfun.upper_gamma_regularized(0, np.array([0.0, 3.0])), 0.0)
    for a in (-1, 1.3):
        with pytest.raises(ValueError):
            specfun.upper_gamma_regularized(a, 1.0)


def test_upper_gamma_regularized_at_complex_x_off_the_positive_axis():
    # the finite sum's terms reach e^(|x| - Re x) here (e^102.5 and e^807) while Q
    # is of order 1; with |x| < a, Q is 1 - P(a, x) from the tail's shrinking
    # terms (60-digit mpmath values)
    assert specfun.upper_gamma_regularized(1499, 25.0 - 125.0j) == pytest.approx(
        1.0, rel=1e-14, abs=0.0)
    assert specfun.upper_gamma_regularized(1499, -377.5 + 207.0j) == pytest.approx(
        -3.34097125600451033 + 2.71941990379775018j, rel=1e-11, abs=0.0)
    # no cancellation at small a: the tail agrees with the finite sum
    for a, x in ((3, 1.5 + 2.0j), (10, -4.0 + 7.0j), (30, 20.0 - 10.0j)):
        want = np.exp(-x) * sum(x ** j / math.factorial(j) for j in range(a))
        assert specfun.upper_gamma_regularized(a, x) == pytest.approx(want, rel=1e-12)


def test_upper_gamma_regularized_takes_arrays():
    x = np.array([-1.5, 0.0, 0.7, 30.0])
    for n in (1, 2, 9):
        want = [specfun.upper_gamma_regularized(n, float(v)) for v in x]
        np.testing.assert_allclose(specfun.upper_gamma_regularized(n, x), want,
                                   rtol=1e-15)
    # past x = 700 the terms are formed in log space, where e^(-x) x^j / j!
    # neither underflows nor overflows
    assert specfun.upper_gamma_regularized(40, 2.5e9) == 0.0
    assert specfun.upper_gamma_regularized(40, math.inf) == 0.0
    big = np.array([0.0, 650.0, 784.0, 1000.0, np.inf])
    np.testing.assert_allclose(specfun.upper_gamma_regularized(800, big),
                               sp.gammaincc(800, big), rtol=1e-12, atol=1e-300)
    assert specfun.upper_gamma_regularized(800, 784.0) == pytest.approx(
        sp.gammaincc(800, 784.0), rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 7.5, 99.5, 399.5])
def test_upper_gamma_regularized_at_half_integers(a):
    x = np.array([0.0, 1e-3, 0.4, 3.0, 60.0, 390.0, 699.0])
    want = sp.gammaincc(a, x)
    np.testing.assert_allclose(specfun.upper_gamma_regularized(a, x), want,
                               rtol=1e-13, atol=1e-300)
    assert [specfun.upper_gamma_regularized(a, float(v)) for v in x] == pytest.approx(
        want, rel=1e-13, abs=1e-300)
    far = np.array([0.0, 400.0, 701.0, 1e4, np.inf])
    np.testing.assert_allclose(specfun.upper_gamma_regularized(a, far),
                               sp.gammaincc(a, far), rtol=1e-12, atol=1e-300)
    assert specfun.upper_gamma_regularized(a, math.inf) == 0.0


def test_lower_plus_upper_is_one():
    for n in (1, 4, 9):
        for x in (0.0, 0.7, 5.0):
            total = (specfun.lower_gamma_regularized(n, x)
                     + specfun.upper_gamma_regularized(n, x))
            assert total == pytest.approx(1.0, rel=1e-12)


def test_incomplete_gamma_unregularized():
    for a in (0.5, 2.0, 7.5):
        for x in (0.3, 2.0, 10.0):
            total = specfun.lower_gamma(a, x) + specfun.upper_gamma(a, x)
            assert total == pytest.approx(math.gamma(a), rel=1e-12)


def test_erf_pair():
    for x in (-2.0, 0.0, 1.3):
        assert specfun.erf_fn(x) + specfun.erfc_fn(x) == pytest.approx(1.0)


def test_reg_incomplete_beta_endpoints():
    assert specfun.reg_incomplete_beta(0.0, 2.0, 3.0) == 0.0
    assert specfun.reg_incomplete_beta(1.0, 2.0, 3.0) == pytest.approx(1.0)
    assert specfun.reg_incomplete_beta(0.5, 2.0, 2.0) == pytest.approx(0.5)


def test_reg_incomplete_beta_matches_scipy():
    s = np.linspace(0.0, 1.0, 65)
    half = np.arange(1, 61) / 2.0
    got = [specfun.reg_incomplete_beta(s, a, b) for a in half for b in half]
    np.testing.assert_allclose(got, [sp.betainc(a, b, s) for a in half for b in half],
                               rtol=1e-12, atol=0.0)
    # a float s takes the path in Python floats
    got = [specfun.reg_incomplete_beta(x, a, b) for a in half for b in half for x in s[13::37]]
    np.testing.assert_allclose(got, np.ravel([sp.betainc(a, b, s[13::37])
                                              for a in half for b in half]),
                               rtol=1e-12, atol=0.0)


def test_reg_incomplete_beta_arcsine_near_one():
    # I_s(1/2, 1/2) = (2/pi) arcsin(sqrt(s)) = 1 - (2/pi) arcsin(sqrt(1 - s)); at
    # s = 1 - 2^-k, 1 - s is exact; scipy's betainc is up to 1.4e-13 off there
    s = 1.0 - 2.0 ** -np.arange(1.0, 53.0)
    want = 1.0 - 2.0 / math.pi * np.arcsin(np.sqrt(1.0 - s))
    np.testing.assert_allclose(specfun.reg_incomplete_beta(s, 0.5, 0.5), want, rtol=1e-15,
                               atol=0.0)
    for x, w in zip(s[::7], want[::7]):
        assert specfun.reg_incomplete_beta(x, 0.5, 0.5) == pytest.approx(w, rel=1e-15)


def test_reg_incomplete_beta_refuses_other_parameters():
    for a, b in ((0.0, 1.0), (1.0, -0.5), (0.3, 2.0), (2.0, 1.25)):
        with pytest.raises(ValueError):
            specfun.reg_incomplete_beta(0.5, a, b)


@pytest.mark.parametrize("a", range(1, 15))
def test_upper_beta_regularized_matches_scipy(a):
    s = np.linspace(0.0, 1.0, 257)  # dyadic: 1 - s is exact
    for b in range(1, 12):
        got = specfun.upper_beta_regularized(a, b, s)
        # 1 - I_s(a, b) loses its digits where I_s is near 1; I_{1-s}(b, a)
        # is the same number without the cancellation
        np.testing.assert_allclose(got, sp.betainc(b, a, 1.0 - s), rtol=1e-13, atol=0.0)
        ok = sp.betainc(a, b, s) <= 0.5
        np.testing.assert_allclose(got[ok], 1.0 - sp.betainc(a, b, s[ok]), rtol=1e-13,
                                   atol=0.0)
    assert specfun.upper_beta_regularized(a, 3, 0.25) == pytest.approx(
        1.0 - sp.betainc(a, 3, 0.25), rel=1e-13)


def test_half_beta_matches_scipy():
    for p in range(1, 50):
        for q in range(1, 50):
            assert specfun.half_beta(p, q) == pytest.approx(sp.beta(p / 2, q / 2),
                                                            rel=1e-14)
    # where Gamma(q / 2) alone overflows a float: B(1, n) = 1/n and
    # B(1/2, n) = 4^n n! (n-1)! / (2n)!, exact ratios of integers
    n = 400
    assert specfun.half_beta(2, 2 * n) == pytest.approx(1.0 / n, rel=1e-15)
    want = 4 ** n * math.factorial(n) * math.factorial(n - 1) / math.factorial(2 * n)
    assert specfun.half_beta(1, 2 * n) == pytest.approx(want, rel=1e-15)


def test_double_factorial():
    assert specfun.double_factorial(-1) == 1
    assert specfun.double_factorial(0) == 1
    assert specfun.double_factorial(5) == 15
    assert specfun.double_factorial(6) == 48
    with pytest.raises(ValueError):
        specfun.double_factorial(-3)


@given(st.floats(min_value=-0.9, max_value=0.9))
def test_hyp2f1_matches_scipy(x):
    got = specfun.hyp2f1(1.0, -0.5, 3.0, x)
    want = sp.hyp2f1(1.0, -0.5, 3.0, x)
    assert got == pytest.approx(want, rel=1e-10)


def test_selberg_single_variable_is_beta():
    # n = 1 reduces to the Euler beta integral
    assert specfun.selberg_value(1, 2.0, 3.0, 1.0) == pytest.approx(
        sp.beta(3.0, 4.0), rel=1e-12)


def test_vol_orthogonal_small():
    assert specfun.vol_orthogonal(1) == pytest.approx(2.0, rel=1e-12)
    assert specfun.vol_orthogonal(2) == pytest.approx(4.0 * math.pi, rel=1e-12)
    with pytest.raises(ValueError):
        specfun.log_vol_orthogonal(0)
