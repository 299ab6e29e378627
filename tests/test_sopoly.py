"""Tests for the skew-orthogonal polynomial families."""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite, hermite_e
from scipy import integrate
from scipy import special as sp

from realrmt import sopoly


def test_eval_poly_horner():
    assert sopoly.eval_poly([1.0, 0.0, 2.0], 3.0) == pytest.approx(19.0)
    np.testing.assert_allclose(sopoly.eval_poly([0.0, 1.0], np.array([2.0, -1.0])),
                               [2.0, -1.0])


@pytest.mark.parametrize("maker,kwargs", [
    (sopoly.goe_family, {}),
    (sopoly.ginibre_family, {}),
    (lambda n: sopoly.partial_family(n, 0.3), {}),
    (sopoly.spherical_family, {}),
    (lambda n: sopoly.truncated_family(n, 3), {}),
])
def test_families_are_monic_with_positive_norms(maker, kwargs):
    fam = maker(6)
    assert len(fam) == 6
    degrees = sorted(len(c) - 1 for c in fam.coeffs)
    assert degrees == list(range(6))
    for c in fam.coeffs:
        assert c[-1] == pytest.approx(1.0)
    # pair norms are nonzero; they may change sign only for the spherical family
    assert np.all(fam.norms != 0)
    if fam.ensemble != "spherical":
        assert np.all(fam.norms > 0)


def test_ginibre_family_odd_recursion():
    fam = sopoly.ginibre_family(6)
    # p_5 = x^5 - 4 x^3
    np.testing.assert_allclose(fam.coeffs[5], [0, 0, 0, -4.0, 0, 1.0])


def test_partial_family_interpolates_between_limits():
    # tau = 0 gives the fully asymmetric monomial family
    fam0 = sopoly.partial_family(5, 0.0)
    gin = sopoly.ginibre_family(5)
    for a, b in zip(fam0.coeffs, gin.coeffs):
        np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(fam0.norms, gin.norms)


def test_spherical_family_odd_order_has_middle_polynomial():
    fam = sopoly.spherical_family(7)
    assert len(fam) == 7
    assert len(fam.coeffs[-1]) - 1 == 3
    assert len(fam.norms) == 3


def _base(ensemble, n, a):
    """Rows b_0 .. b_{n-1} of the three-term recurrence, with no odd step."""
    return sopoly.GaussianFamily(ensemble, n, a, 1.0, lambda k: 0.0, 1.0, lambda k: 1.0).matrix()


def test_goe_base_is_hermite_over_powers_of_two():
    base = _base("goe", 30, 0.5)
    for j in range(30):
        want = np.zeros(30)
        want[:j + 1] = hermite.herm2poly(np.eye(j + 1)[j]) / 2.0 ** j
        if j < 29:
            assert base[j].tolist() == want.tolist(), j
        else:
            # H_29 has coefficients past 2^53, one of them halfway between two
            # doubles, which the two algorithms round opposite ways
            np.testing.assert_allclose(base[j], want, rtol=2.0 ** -52, atol=0.0)


@pytest.mark.parametrize("tau", [0.25, 0.5])
def test_partial_base_is_scaled_probabilists_hermite(tau):
    n = 30
    base = _base("partial", n, tau)
    for j in range(n):
        # tau^(j/2) He_j(x / sqrt(tau)) has x^k coefficient tau^((j-k)/2) He_j[k]
        want = np.zeros(n)
        k = np.arange(j + 1)
        want[:j + 1] = hermite_e.herme2poly(np.eye(j + 1)[j]) * tau ** ((j - k) / 2.0)
        np.testing.assert_allclose(base[j], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", [sopoly.ginibre_family,
                                    lambda n: sopoly.truncated_family(n, 3)])
def test_ginibre_and_truncated_bases_are_the_identity(family):
    # the even members are the base itself
    assert family(12).matrix()[0::2].tolist() == np.eye(12)[0::2].tolist()
    assert _base("ginibre", 12, 0.0).tolist() == np.eye(12).tolist()


@pytest.mark.parametrize("name,family,a,step", [
    ("goe", sopoly.goe_family, 0.5, lambda k: k),
    ("ginibre", sopoly.ginibre_family, 0.0, lambda k: 2.0 * k),
    ("partial", lambda n: sopoly.partial_family(n, -0.5), -0.5, lambda k: 2.0 * k),
    ("truncated", lambda n: sopoly.truncated_family(n, 3), 0.0,
     lambda k: 2.0 * k / (3 + 2.0 * k)),
])
def test_odd_members_take_a_step_of_the_base(name, family, a, step):
    n = 13
    base, got = _base(name, n, a), family(n).matrix()
    assert got[0::2].tolist() == base[0::2].tolist()
    assert got[1].tolist() == base[1].tolist()
    for j in range(3, n, 2):
        assert got[j].tolist() == (base[j] - step((j - 1) // 2) * base[j - 2]).tolist(), j


_FOLD_FAMILIES = {"goe": sopoly.goe_family, "ginibre": sopoly.ginibre_family,
                  "partial": lambda n: sopoly.partial_family(n, 0.5),
                  "truncated": lambda n: sopoly.truncated_family(n, 3)}


def _integrate(name, f):
    """Integral of f over the family's support, f taking an array: a 200-node
    Gauss-Legendre rule on [-25, 25] for the Gaussian weights, and in
    x = sin(u) on [-pi/2, pi/2] for the truncated one, where its factor
    (1 - x^2)^(1/2) is cos(u)."""
    x, w = np.polynomial.legendre.leggauss(200)
    if name == "truncated":
        u, w = np.pi / 2.0 * x, np.pi / 2.0 * w
        return f(np.sin(u)) @ (w * np.cos(u))
    return f(25.0 * x) @ (25.0 * w)


def _sigma(fam):
    """sigma_j = sqrt(r_{j//2}), the scale of member j in values()."""
    return np.sqrt(fam.norms[np.arange(len(fam)) // 2])


@pytest.mark.parametrize("name", sorted(_FOLD_FAMILIES))
@pytest.mark.parametrize("n", [3, 9, 21])
def test_fold_leaves_every_other_polynomial_integrating_to_zero(name, n):
    fam = _FOLD_FAMILIES[name](n)
    q = lambda x: fam.values(x)[0]
    integrals = _integrate(name, q)
    sizes = _integrate(name, lambda x: np.abs(q(x)))
    assert integrals.shape == (n,)
    # each integral is checked against the integral of its member's size
    assert abs(integrals[-1] - fam.nu[-1]) <= 1e-14 * sizes[-1]
    assert np.all(np.abs(integrals[:-1]) <= 1e-14 * sizes[:-1])
    # Phi_j rises by the integral of q_j from left of the support to right of it
    far = 1.0 if name == "truncated" else 25.0
    phi = fam.values(np.array([-far, far]))[1]
    np.testing.assert_allclose(phi[:, 1] - phi[:, 0], integrals, rtol=0.0,
                               atol=1e-14 * sizes.max())


@pytest.mark.parametrize("name", sorted(_FOLD_FAMILIES))
def test_fold_at_even_order_returns_the_array_unchanged(name):
    # at even order values() gives the members of matrix(), unfolded
    fam = _FOLD_FAMILIES[name](10)
    x = np.linspace(-0.95, 0.95, 7) if name == "truncated" else np.linspace(-6.0, 6.0, 7)
    want = np.array([sopoly.eval_poly(c, x) for c in fam.matrix()]) * fam._weight(x)[0]
    want /= _sigma(fam)[:, None]
    np.testing.assert_allclose(fam.values(x)[0], want, rtol=1e-12, atol=1e-14)


def test_values_on_an_array_mixing_points_past_the_weight_underflow_with_others():
    # e^{-x^2/2} is 0 from |x| = 38.6: the points past it keep its exponent
    # apart, the others do not, and each gives the point path's columns
    fam = sopoly.goe_family(1001)
    x = np.array([0.5, 39.0, -20.0, -42.0, 37.0])
    q, phi = fam.values(x)
    a = np.concatenate([fam.point(True, v) for v in x.tolist()])[:, :-1].T
    assert np.all(np.abs(q).max(axis=0) > 1e-3)
    for got, want in ((q, a[:, 1::2]), (phi, a[:, 0::2])):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15 * np.abs(want).max())


def test_goe_inner_products_small():
    fam = sopoly.goe_family(4)
    for j in range(4):
        for l in range(j + 1, 4):
            ip = sopoly.inner_product_numeric(fam, j, l, n=60)
            expect = fam.norms[j // 2] if (j % 2 == 0 and l == j + 1) else 0.0
            assert ip == pytest.approx(expect, abs=1e-8 * fam.norms[0])


def test_truncated_norms_closed_form():
    fam = sopoly.truncated_family(6, 2)
    for k in range(3):
        want = math.exp(math.lgamma(3.0) + math.lgamma(2 * k + 1.0)
                        - math.lgamma(2 * k + 3.0))
        assert fam.norms[k] == pytest.approx(want)


def test_inner_product_rejects_unknown_family():
    fam = sopoly.PolynomialFamily("nope", [[1.0]], [1.0])
    with pytest.raises(ValueError):
        sopoly.inner_product_numeric(fam, 0, 0)


def _lower(fam, x):
    """The one-sided integrals F_j(x) of the base b_j of a Gaussian family, over
    sigma_j: a list at a float x, one array (integral j in row j) at an array x."""
    if isinstance(x, float):
        return fam._lower(x, fam._recur(x, *fam._weight(x)))
    return np.array(fam._lower(x, fam._recur(x, *fam._weight(x))))


@pytest.mark.parametrize("x", [-11.95, -3.0, 0.0, 2.5])
def test_gauss_lower_moments_against_quadrature(x):
    # the GOE base b_m = H_m / 2^m; in the left tail, where 1 - P(a, x^2/2)
    # loses every digit, at m = 28, x = -11.95 that form gives 0.0 for 1.476e-2
    fam = sopoly.goe_family(29)
    sigma = _sigma(fam)
    got = _lower(fam, x)
    got_array = _lower(fam, np.array([x, x]))
    for m in (0, 1, 9, 28):
        b = hermite.Hermite(np.eye(m + 1)[m])
        f = lambda t: b(t) / 2.0 ** m * math.exp(-t * t / 2.0)
        if x <= 0:
            want = integrate.quad(f, -np.inf, x, epsabs=0.0, epsrel=1e-13)[0]
        else:  # the full integral less the upper tail, with no cancellation
            want = (fam.nu[m] * sigma[m]
                    - integrate.quad(f, x, np.inf, epsabs=0.0, epsrel=1e-13)[0])
        assert got[m] * sigma[m] == pytest.approx(want, rel=1e-12)
        assert got_array[m] * sigma[m] == pytest.approx([want, want], rel=1e-12)


def test_gauss_lower_moments_at_infinity_and_with_variance():
    # nu_2k = sqrt(2 pi c) (c - a)^k (2k-1)!!, and nu_j = 0 at odd j
    c = 1.7
    fam = sopoly.partial_family(9, c - 1.0)
    full = fam.nu * _sigma(fam)
    assert full == pytest.approx([0.0 if m % 2 else math.sqrt(c) * sopoly._gauss_moment(m)
                                  for m in range(9)], rel=1e-15, abs=0.0)
    # at +-60 the weight underflows to 0: F is nu on the right, 0 on the left
    np.testing.assert_allclose(_lower(fam, 60.0), fam.nu, rtol=1e-15, atol=0.0)
    assert _lower(fam, -60.0) == [0.0] * 9
    # b_j(x; a) = c^(j/2) b_j(x / sqrt(c); a / c) and w_c(x) = w_1(x / sqrt(c))
    unit = sopoly.GaussianFamily("partial", 9, (c - 1.0) / c, 1.0, lambda k: 0.0, fam.norms[0],
                                 lambda k: (2 * k + 1.0) * (2 * k + 2.0))
    x = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_allclose(
        _lower(fam, x), np.sqrt(c) ** np.arange(1, 10)[:, None] * _lower(unit, x / np.sqrt(c)),
        rtol=1e-14)


@pytest.mark.parametrize("big_l", range(1, 9))
def test_trunc_moments_against_incomplete_beta(big_l):
    y = np.linspace(-1.0, 1.0, 401)
    got = sopoly._trunc_moments(big_l, 21, np.append(y, np.inf)) / sopoly._trunc_cw(big_l)
    b = big_l / 2.0
    for m in range(21):
        # the integral of |x|^m (1 - x^2)^(b-1) over [-1, 1] is B((m+1)/2, b)
        total = sp.beta((m + 1) / 2.0, b)
        inc = sp.betainc((m + 1) / 2.0, b, y * y)
        want = total / 2.0 * np.where(y >= 0, (-1.0) ** m + inc, (-1.0) ** m * (1.0 - inc))
        np.testing.assert_allclose(got[m, :-1], want, rtol=0.0, atol=1e-14 * total)
        assert got[m, -1] == pytest.approx(0.0 if m % 2 else total, rel=1e-14, abs=0.0)
