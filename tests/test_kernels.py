"""Tests for the correlation kernels, densities and scaling limits."""

import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from realrmt import analytics, ensembles, kernels, pfaffian, sopoly
from realrmt.ensembles import ENSEMBLES

C2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian orthogonal ensemble


def test_goe_density_is_kernel_diagonal():
    for x in (-1.2, 0.0, 0.8):
        assert kernels.goe_density(6, x) == pytest.approx(
            float(kernels.goe_s(6, x, x)), rel=1e-10)


def _goe_closed_form_density(n, x):
    """Mehta's even-order GOE density, with the one-sided integral of
    e^(-t^2/2) H_{n-2}(t) by quadrature."""
    def herm(k, t):
        return np.polynomial.hermite.hermval(t, [0.0] * k + [1.0]) if k >= 0 else 0.0

    def f(t):
        return math.exp(-t * t / 2.0) * herm(n - 2, t) / 2.0 ** (n - 2)

    lower = integrate.quad(f, -np.inf, x, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    total = integrate.quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    c = math.sqrt(math.pi) * math.gamma(n - 1.0)
    first = (n - 1.0) * herm(n - 2, x) ** 2 - (n - 2.0) * herm(n - 1, x) * herm(n - 3, x)
    return (math.exp(-x * x) * first / (2.0 ** (n - 2) * c)
            + math.exp(-x * x / 2.0) * herm(n - 1, x) * (lower - total / 2.0) / (2.0 * c))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_goe_density_matches_the_even_order_closed_form(n):
    xs = np.linspace(-math.sqrt(2.0 * n) - 2.0, math.sqrt(2.0 * n) + 2.0, 9)
    want = np.array([_goe_closed_form_density(n, x) for x in xs])
    np.testing.assert_allclose(kernels.goe_density(n, xs), want, rtol=0.0,
                               atol=1e-12 * want.max())


def test_goe_kernel_one_and_two_point():
    kern = kernels.GOEKernel(6)
    x, y = 0.3, -0.9
    rho1 = kernels.npoint_correlation(kern, [("r", x)])
    assert rho1 == pytest.approx(float(kernels.goe_density(6, x)), rel=1e-10)
    rho2 = kernels.npoint_correlation(kern, [("r", x), ("r", y)])
    assert rho2 > 0
    # two-point never exceeds the product for these repelling points
    assert rho2 < float(kernels.goe_density(6, x) * kernels.goe_density(6, y))


def test_goe_kernel_builds_its_family_once(monkeypatch):
    builds = []
    build = sopoly.goe_family

    def counted(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(sopoly, "goe_family", counted)
    kern = kernels.GOEKernel(8)
    rho2 = kernels.npoint_correlation(kern, [("r", 0.4), ("r", -1.3)])
    assert builds == [8]
    monkeypatch.undo()
    assert rho2 == kernels.npoint_correlation(kernels.GOEKernel(8),
                                              [("r", 0.4), ("r", -1.3)])


def test_goe_partner_kernels_are_antisymmetric():
    x, y, h = 0.3, -0.9, 1e-6
    assert kernels.goe_d(6, x, y) == pytest.approx(-kernels.goe_d(6, y, x),
                                                   rel=1e-10)
    assert kernels.goe_itilde(6, x, y) == pytest.approx(
        -kernels.goe_itilde(6, y, x), rel=1e-10)
    # D is the first-argument derivative of S
    fd = (float(kernels.goe_s(6, x + h, y)) - float(kernels.goe_s(6, x - h, y))) \
        / (2.0 * h)
    assert kernels.goe_d(6, x, y) == pytest.approx(fd, rel=1e-5)


def test_goe_partner_kernels_take_arrays():
    # elementwise over arrays, and equal to the kernel's elements at points
    xs, ys = np.array([0.3, -1.2, 2.0]), np.array([-0.9, 0.4, 1.5])
    kern = kernels.GOEKernel(7)
    np.testing.assert_allclose(kernels.goe_d(7, xs, ys),
                               [kern.d(("r", x), ("r", y)) for x, y in zip(xs, ys)], rtol=1e-12)
    np.testing.assert_allclose(kernels.goe_itilde(7, xs, ys),
                               [kern.itilde(("r", x), ("r", y)) for x, y in zip(xs, ys)],
                               rtol=1e-12)


def test_goe_s_is_continuous_near_the_diagonal():
    # D(x, x) = 0, so S(1 + d, 1) - S(1, 1) is of order d^2
    at = float(kernels.goe_s(8, 1.0, 1.0))
    for d in (2e-5, 5e-6, 1e-7):
        assert abs(float(kernels.goe_s(8, 1.0 + d, 1.0)) - at) <= 1e-8, d


def _decimal_pi():
    """pi to the working precision (the recipe of the decimal module's docs)."""
    three = Decimal(3)
    last, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != last:
        last = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _goe_density_reference(n, x):
    """The GOE rho_n(x) in 80-digit decimals, from the unscaled pair sum.

    b_{j+1} = x b_j - (j/2) b_{j-1}; F_j, the integral of b_j e^{-t^2/2} up
    to x, has F_{j+1} = (j/2) F_{j-1} - b_j(x) e^{-x^2/2}, from
    F_0 = sqrt(2 pi) (1 + erf(x / sqrt 2)) / 2, erf by its series of positive
    terms; the odd members are b_j - k b_{j-2}, j = 2k + 1, and at odd n the
    last member is folded out of the others; the pair norms are
    (2k)! sqrt(pi) / 4^k.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        pi, x = _decimal_pi(), Decimal(x)
        z, w = abs(x) / Decimal(2).sqrt(), (-x * x / 2).exp()
        term, series, k = z, Decimal(0), 0
        while term > series * Decimal(10) ** -85 or k < 3:
            series += term
            k += 1
            term = term * 2 * z * z / (2 * k + 1)
        erf = 2 / pi.sqrt() * (-z * z).exp() * series * (1 if x >= 0 else -1)
        root = (2 * pi).sqrt()
        b, f, nu = [Decimal(1), x], [root * (1 + erf) / 2, -w], [root, Decimal(0)]
        for j in range(1, n - 1):
            b.append(x * b[j] - Decimal(j) / 2 * b[j - 1])
            f.append(Decimal(j) / 2 * f[j - 1] - b[j] * w)
            nu.append(Decimal(j) / 2 * nu[j - 1])
        q, phi = [bj * w for bj in b[:n]], [fj - vj / 2 for fj, vj in zip(f[:n], nu[:n])]
        for j in reversed(range(3, n, 2)):
            q[j] -= (j - 1) // 2 * q[j - 2]
            phi[j] -= (j - 1) // 2 * phi[j - 2]
        rho = Decimal(0)
        if n % 2:
            for j in range(0, n - 1, 2):
                q[j] -= nu[j] / nu[n - 1] * q[n - 1]
                phi[j] -= nu[j] / nu[n - 1] * phi[n - 1]
            rho = q[n - 1] / nu[n - 1]
        norm = pi.sqrt()
        for k in range(n // 2):
            rho += (phi[2 * k] * q[2 * k + 1] - phi[2 * k + 1] * q[2 * k]) / norm
            norm = norm * (2 * k + 1) * (2 * k + 2) / 4
        return float(rho)


@pytest.mark.parametrize("n", [20, 60, 61, 150])
def test_goe_density_against_decimal_pair_sum(n):
    # the monomial expansion of the family cancelled from about n = 40
    x = np.linspace(-math.sqrt(2.0 * n) - 3.0, math.sqrt(2.0 * n) + 3.0, 13)
    want = np.array([_goe_density_reference(n, v) for v in x])
    got = kernels.goe_density(n, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def test_goe_semicircle_support():
    assert kernels.goe_semicircle(0.0) == pytest.approx(2.0 / math.pi)
    assert kernels.goe_semicircle(1.5) == 0.0
    val, _ = integrate.quad(lambda t: float(kernels.goe_semicircle(t)), -1, 1)
    assert val == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def test_ginibre_real_density_normalizes_to_mean():
    for n in (4, 7):
        val, _ = integrate.quad(lambda t: kernels.ginibre_density_real(n, t),
                                -10.0, 10.0, limit=300)
        assert val == pytest.approx(analytics.ginibre_expected_reals(n), abs=1e-8)


def test_ginibre_density_is_srr_diagonal():
    for x in (-2.0, 0.5):
        assert kernels.ginibre_density_real(8, x) == pytest.approx(
            kernels.ginibre_srr(8, x, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 17, 24, 180, 240])
def test_ginibre_real_density_matches_the_incomplete_gamma_form(n):
    # Edelman, Kostlan & Shub: Q(n-1, x^2) plus |x|^(n-1) e^(-x^2/2) P((n-1)/2, x^2/2)
    # times 2^((n-3)/2) Gamma((n-1)/2) / Gamma(n-1)
    x = np.linspace(-11.0, 11.0, 301)
    lead = math.exp((n - 3) / 2.0 * math.log(2.0) + math.lgamma((n - 1) / 2.0)
                    - math.lgamma(n - 1.0))
    want = C2PI * (sp.gammaincc(n - 1, x * x) + lead * np.abs(x) ** (n - 1)
                   * np.exp(-x * x / 2.0) * sp.gammainc((n - 1) / 2.0, x * x / 2.0))
    got = kernels.ginibre_density_real(n, x)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15 * want.max())
    assert [kernels.ginibre_density_real(n, v) for v in x[::30]] == pytest.approx(
        got[::30], rel=1e-14)


@pytest.mark.parametrize("n", [300, 800])
def test_ginibre_real_density_at_large_n(n):
    # the incomplete gamma form with |x|^(n-1) taken into the exponent, as
    # |x|^(n-1) alone overflows at these orders; the density stays finite
    # past the edge x = sqrt(n) of the spectrum
    x = np.linspace(-1.3, 1.3, 53) * math.sqrt(n)
    log_lead = ((n - 3) / 2.0 * math.log(2.0) + math.lgamma((n - 1) / 2.0)
                - math.lgamma(n - 1.0))
    with np.errstate(divide="ignore"):
        tail = np.exp(log_lead + (n - 1) * np.log(np.abs(x)) - x * x / 2.0)
    want = C2PI * (sp.gammaincc(n - 1, x * x)
                   + tail * sp.gammainc((n - 1) / 2.0, x * x / 2.0))
    got = kernels.ginibre_density_real(n, x)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13 * want.max())
    assert kernels.ginibre_srr(n, x[5], x[5]) == pytest.approx(got[5], rel=1e-12)


def _gin_rr_sum_reference(n, x, y):
    """e^(-(x^2+y^2)/2) times the sum of (xy)^j / j! over j < n - 1, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y = Decimal(x), Decimal(y)
        term, total = (-(x * x + y * y) / 2).exp(), Decimal(0)
        for j in range(n - 1):
            total += term
            term = term * x * y / (j + 1)
        return float(total)


@pytest.mark.parametrize("n,x,y", [
    (800, math.sqrt(600.0), -math.sqrt(600.0)), (800, 20.0, -20.0), (800, 28.0, -28.0),
    (400, 15.0, -19.5), (40, 5.5, -4.0), (20, 3.0, -4.0), (20, 4.4, 4.3),
    (800, 25.0, 26.0), (12, 0.3, -1.1), (2, 0.5, -0.7)])
def test_ginibre_real_real_elements_against_decimal_sum(n, x, y):
    # S and D share e^(-(x-y)^2/2) Q(n-1, xy), which at opposite signs and
    # large |xy| is e^|xy| times an alternating sum when taken as written
    want = _gin_rr_sum_reference(n, x, y)
    srr, drr = kernels.ginibre_srr(n, x, y), kernels.ginibre_drr(n, x, y)
    assert math.isfinite(srr) and math.isfinite(drr)
    assert srr - C2PI * kernels._gin_tail(n, x, y) == pytest.approx(
        C2PI * want, rel=1e-14, abs=1e-16)
    assert drr == pytest.approx(C2PI * (y - x) * want, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("n", [200, 303, 304, 601])
def test_ginibre_irr_past_the_factorial_range(n):
    # m! overflows a float from m = 171, and the one-sided moments of
    # t^m e^(-t^2/2) from m of about 300; at |x|, |y| <= 2 every term past
    # m = 170 is below 1e-100
    for x, y in ((1.5, -0.7), (-1.9, 1.2), (0.3, 1.1), (2.0, -2.0)):
        far = kernels.ginibre_irr(n, x, y)
        assert math.isfinite(far)
        assert far == pytest.approx(kernels.ginibre_irr(172 + n % 2, x, y), rel=1e-13, abs=1e-16)
    for pts in ([("r", 0.4), ("r", -1.3)], [("r", 1.4), ("c", -0.5 + 0.7j)]):
        assert kernels.npoint_correlation(kernels.GinibreKernel(n), pts) == pytest.approx(
            kernels.npoint_correlation(kernels.GinibreKernel(172), pts), rel=1e-12)


def test_npoint_refuses_a_value_that_is_not_finite():
    class Overflowed(kernels._Kernel):
        """A kernel whose S elements overflowed."""

        def _matrix(self, pts):
            m = np.zeros((2 * len(pts), 2 * len(pts)))
            m[0::2, 1::2], m[1::2, 0::2] = math.nan, math.nan
            return m

    for pts in ([("r", 0.1)], [("r", 0.1), ("r", 0.4)]):
        with pytest.raises(ArithmeticError):
            kernels.npoint_correlation(Overflowed(), pts)


def test_ginibre_order_one_density_is_standard_normal():
    # a 1 x 1 real Ginibre matrix is its own eigenvalue
    for x in (-3.0, -0.7, 0.0, 0.3, 2.0):
        assert kernels.ginibre_density_real(1, x) == pytest.approx(
            C2PI * math.exp(-x * x / 2.0), rel=1e-15)


def test_ginibre_order_one_has_no_complex_eigenvalues():
    w = 0.3 + 0.8j
    kern = kernels.GinibreKernel(1)
    assert kernels.ginibre_density_complex(1, w) == 0.0
    assert kernels.npoint_correlation(kern, [("c", w)]) == 0.0
    assert kernels.npoint_correlation(kern, [("r", -0.6), ("c", w)]) == pytest.approx(
        0.0, abs=1e-15)


def test_ginibre_complex_density_matches_scc():
    w = 1.0 + 0.8j
    rho = kernels.GinibreKernel(8)
    val = kernels.npoint_correlation(rho, [("c", w)])
    assert val == pytest.approx(kernels.ginibre_density_complex(8, w), rel=1e-10)


def test_ginibre_complex_density_past_the_erfc_underflow():
    # from sqrt(2) |Im z| = 26.5 on, erfc underflows, and sqrt(erfc) alone
    # gave rho = 0; the complex weight takes e^{t^2} erfc(t) from its series
    for n, w in ((400, 0.5 + 19.5j), (420, -3.0 + 20.0j)):
        assert kernels.npoint_correlation(kernels.GinibreKernel(n), [("c", w)]) == pytest.approx(
            kernels.ginibre_density_complex(n, w), rel=1e-11)


def test_ginibre_complex_density_integrates_to_pair_count():
    n = 4
    mean = analytics.ginibre_expected_reals(n)

    def integrand(y, x):
        return kernels.ginibre_density_complex(n, x + 1j * y)

    val, _ = integrate.dblquad(integrand, -5.0, 5.0, 0.0, 5.0,
                               epsabs=1e-10, epsrel=1e-10)
    assert 2.0 * val + mean == pytest.approx(n, abs=1e-6)


def test_ginibre_bulk_block_structure():
    blk = kernels.ginibre_bulk_block_rr(0.4, -0.2)
    assert blk[0, 0] == pytest.approx(C2PI * math.exp(-0.18))
    assert blk[0, 1] == pytest.approx(0.6 * blk[0, 0])
    assert kernels.circular_law_density() == pytest.approx(1.0 / math.pi)


def test_ginibre_edge_matches_bulk_deep_inside():
    # far inside the support the edge form reduces to the bulk value
    val = kernels.ginibre_edge_srr(1.0, -8.0, -8.0)
    assert val == pytest.approx(C2PI, rel=1e-6)


# ---------------------------------------------------------------------------
# partially symmetric ensemble


@pytest.mark.parametrize("n,tau", [(4, 0.5), (5, 0.5), (6, -0.3), (7, 0.2)])
def test_partial_density_normalizes_to_mean(n, tau):
    probs = analytics.partial_prob_gf(n, tau)
    mean = float(np.dot(np.arange(n + 1), probs))
    val, _ = integrate.quad(lambda t: kernels.partial_density_real(n, tau, t),
                            -8.0, 8.0, limit=300)
    assert val == pytest.approx(mean, abs=1e-7)


def test_partial_density_reduces_to_ginibre():
    for x in (-1.0, 0.3, 2.0):
        assert kernels.partial_density_real(6, 0.0, x) == pytest.approx(
            kernels.ginibre_density_real(6, x), rel=1e-9)


def test_partial_density_is_even_near_the_symmetric_limit():
    # at tau = 0.99 the monomial coefficients of the family cancelled, and
    # rho(-0.5) and rho(0.5) came out 6.7e5 and 4.3e5
    rho = kernels.partial_density_real(100, 0.99, np.array([-0.5, 0.5]))
    assert rho[0] == pytest.approx(rho[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [4, 5])
def test_partial_correlations_integrate_to_count_moments(n):
    # the integrals of rho_1 and rho_2 over the line are E[k] and E[k(k-1)]
    tau = 0.5
    probs = analytics.partial_prob_gf(n, tau)
    k = np.arange(n + 1)
    kern = kernels.PartialKernel(n, tau)
    rho = lambda *pts: kernels.npoint_correlation(kern, pts)
    x, wx = _gl(-9.0, 9.0, 40)
    assert sum(wa * rho(("r", a)) for a, wa in zip(x, wx)) == pytest.approx(
        k @ probs, abs=1e-8)
    rr = 0.0
    for a, wa in zip(x, wx):
        # rho_2 is symmetric and has a kink at y = x: integrate over y > x
        y, wy = _gl(a, 9.0, 40)
        rr += 2.0 * wa * sum(wb * rho(("r", a), ("r", b)) for b, wb in zip(y, wy))
    assert rr == pytest.approx((k * (k - 1)) @ probs, abs=1e-7)


def test_ginibre_kernel_past_the_weight_underflow():
    # e^{-x^2/2} is subnormal from |x| = 37.6 and 0 from 38.6, inside the
    # spectrum from n of about 1420; the recurrence keeps the weight's exponent
    # apart until the values have risen, so the pair sum matches the closed forms
    for n, x, w in ((1500, 38.0, 38.0 + 0.5j), (2000, 44.0, -30.0 + 32.0j)):
        kern = kernels.GinibreKernel(n)
        for p in (("r", x), ("r", -x)):
            assert kern.s(p, p) == pytest.approx(kernels.ginibre_density_real(n, x), rel=1e-11)
        assert kern.s(("c", w), ("c", w)) == pytest.approx(
            kernels.ginibre_density_complex(n, w), rel=1e-11)
    # ginibre_irr starts its Poisson weights in log space, so the elements hold
    # on both sides of 38.6
    for n, x, y in ((1500, 38.0, 37.5), (2000, 44.0, 43.5)):
        kern = kernels.GinibreKernel(n)
        for p, q in ((("r", x), ("r", y)), (("r", -x), ("r", y - 0.5))):
            np.testing.assert_allclose((kern.s(p, q), kern.d(p, q), kern.itilde(p, q)),
                                       _ginibre_elements(n, p, q), rtol=1e-10, atol=1e-12)


def test_ginibre_complex_closed_forms_near_the_edge_at_large_n():
    # |w conj(z)| passes 700 here, where the finite sum of
    # upper_gamma_regularized overflows, so its complex terms are formed in
    # log space; the S elements are ginibre_scc(1500, 36.5 + 2i, 38 + 0.5i)
    # and ginibre_src(1500, 38, 37 + i)
    kern = kernels.GinibreKernel(1500)
    for p, q in ((("c", 38.0 + 0.5j), ("c", 36.5 + 2.0j)), (("c", 37.0 + 1.0j), ("r", 38.0))):
        np.testing.assert_allclose((kern.s(p, q), kern.d(p, q), kern.itilde(p, q)),
                                   _ginibre_elements(1500, p, q), rtol=1e-11)


@pytest.mark.parametrize("p,q,closed_form", [
    (("c", 0.3 + 25.0j), ("r", 0.3), lambda: kernels.ginibre_src(1500, 0.3, 0.3 + 25.0j)),
    (("c", 5.0 + 20.0j), ("c", 5.3 + 20.2j),
     lambda: kernels.ginibre_scc(1500, 5.3 + 20.2j, 5.0 + 20.0j)),
    # the bulk element is ginibre_scc with Q(n - 1, w1 conj(w2)) = 1, as it is at
    # n = 1500 and |w1 conj(w2)| = 403
    (("c", 1.2 + 20.1j), ("c", 1.0 + 20.0j),
     lambda: kernels.ginibre_bulk_scc(1.0 + 20.0j, 1.2 + 20.1j)),
], ids=["src", "scc", "bulk_scc"])
def test_ginibre_s_far_above_the_real_axis(p, q, closed_form):
    # sqrt(erfc(sqrt(2) Im w)) underflows from Im w = 18.8, and the Gaussian
    # factor of S carries e^{(Im w)^2/2} per point: ginibre_src read 0 here, and
    # ginibre_scc and ginibre_bulk_scc nan. S is compared alone: the pair sum's I~
    # at the first pair, and its D and I~ at the other two (at Re(w z) near
    # -|w z|), cancel to no digits here
    got = kernels.GinibreKernel(1500).s(p, q)
    assert got == pytest.approx(closed_form(), rel=1e-11, abs=0.0)


def test_ginibre_closed_forms_where_the_finite_sum_cancels():
    # Q(n - 1, x) at x = 25 - 125i and -377.5 + 207i: the finite sum's terms reach
    # e^(|x| - Re x) while Q is of order 1, so Q comes from the tail 1 - P(n - 1, x).
    # The values are 60-digit mpmath evaluations of the closed forms; the D element
    # is 1.4e-353 there, 0 in floats, and no overflow is warned of
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.ginibre_src(1500, 5.0, 5.0 + 25.0j) == pytest.approx(
            2.41669996669053965e-136, rel=1e-12, abs=0.0)
        assert kernels.ginibre_dcc(1500, 5.0 + 20.0j, 5.3 + 20.2j) == 0.0


@pytest.mark.parametrize("name,args,xs", [
    ("GOEKernel", (1000,), (38.5, -40.0, 42.0)),
    ("GOEKernel", (1001,), (39.0, -41.0, 43.0)),
    ("GOEKernel", (2000,), (39.0, -50.0, 60.0)),
    ("PartialKernel", (1500, 0.3), (44.0, -46.0, 48.0)),
    ("PartialKernel", (2001, -0.2), (34.5, -35.0, 35.5)),
], ids=["goe-1000", "goe-1001", "goe-2000", "partial-1500", "partial-2001"])
def test_grid_density_matches_the_point_path_past_the_weight_underflow(name, args, xs):
    # e^{-x^2/(2c)} underflows from |x| = 37.6 sqrt(c), c = 1 + tau, inside the
    # spectrum at these orders; the grid and the point path carry its exponent
    # alike, so the density holds there
    kern = getattr(kernels, name)(*args)
    x = np.array(xs)
    want = [kernels.npoint_correlation(kern, [("r", v)]) for v in xs]
    assert np.all(np.array(want) > 0.1)
    np.testing.assert_allclose(kern.s_xy(x, x), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n,tau", [(4, 0.5), (4, -0.5), (5, 0.5), (6, 0.25)])
def test_partial_complex_density_integrates_to_the_expected_pair_count(n, tau):
    # over the upper half plane rho_1 integrates to E[m] = (n - E[k]) / 2;
    # the ellipse has semi-axes (1 + tau) sqrt(n) and (1 - tau) sqrt(n)
    probs = analytics.prob_table("partial", n, tau=tau)
    kern = kernels.PartialKernel(n, tau)
    u, wu = _gl(-(1.0 + tau) * math.sqrt(n) - 7.0, (1.0 + tau) * math.sqrt(n) + 7.0, 60)
    v, wv = _gl(0.0, (1.0 - tau) * math.sqrt(n) + 7.0, 40)
    got = sum(wa * wb * kernels.npoint_correlation(kern, [("c", complex(a, b))])
              for a, wa in zip(u, wu) for b, wb in zip(v, wv))
    assert got == pytest.approx((n - np.arange(n + 1) @ probs) / 2.0, rel=1e-9)


def test_partial_bulk_limits():
    tau = 0.4
    assert kernels.partial_bulk_srr(tau, 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * (1.0 - tau * tau)))
    # bulk complex density vanishes on the real axis (eigenvalue repulsion)
    # and saturates far above it
    assert kernels.partial_bulk_density_complex(tau, 0.0) == 0.0
    assert kernels.partial_bulk_density_complex(tau, 40.0) == pytest.approx(
        1.0 / (math.pi * math.sqrt(1.0 - tau * tau)), rel=0.02)
    a, b = kernels.elliptical_support(9, tau)
    assert (a, b) == (1.4 * 3.0, 0.6 * 3.0)
    assert kernels.elliptical_density(tau) == pytest.approx(
        1.0 / (math.pi * (1.0 - tau * tau)))


def test_crossover_interpolates():
    # vanishing asymmetry reproduces the sine kernel of the symmetric limit
    val = kernels.crossover_srr(1e-6, 0.3, 0.1)
    sine = math.sin(math.pi * 0.2) / (math.pi * 0.2)
    assert val == pytest.approx(sine, rel=1e-4)
    # at strong asymmetry the integrand is gone long before t = 1, leaving
    # the Gaussian transform sqrt(pi) / (2 alpha) e^{-(pi u)^2 / (4 alpha^2)}
    want = math.sqrt(math.pi) / 60.0 * math.exp(-(0.2 * math.pi) ** 2 / 3600.0)
    assert kernels.crossover_srr(30.0, 0.3, 0.1) == pytest.approx(want, rel=1e-12)
    assert abs(kernels.crossover_scc(2.0, 1.0 + 1.0j, 1.0 + 1.0j)) > 0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_partial_kernel_tends_to_the_crossover_limit(alpha):
    # at tau = 1 - alpha^2 / N, unfolded by the tau -> 1 density sqrt(N) / pi at 0
    u = np.array([0.0, 0.3, 0.7, 1.5])
    want = np.array([kernels.crossover_srr(alpha, v, 0.0) for v in u])
    gaps = []
    for n in (40, 80, 160):
        r = math.sqrt(n) / math.pi
        got = kernels.PartialKernel(n, 1.0 - alpha ** 2 / n).s_xy(u / r, np.zeros(4)) / r
        gaps.append(np.max(np.abs(got - want)) / want[0])
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


# ---------------------------------------------------------------------------
# real spherical ensemble


def test_spherical_real_density_is_uniform():
    n = 5
    rho = kernels.spherical_density_real(n)
    assert 2.0 * math.pi * rho == pytest.approx(
        analytics.spherical_expected_reals(n), rel=1e-12)
    assert kernels.spherical_srr(n, 0.7, 0.7) == pytest.approx(rho)


def test_spherical_kernel_two_point_symmetry():
    kern = kernels.SphericalKernel(6)
    t1, t2 = 0.4, 2.0
    rho2 = kernels.npoint_correlation(kern, [("r", t1), ("r", t2)])
    rho2_swap = kernels.npoint_correlation(kern, [("r", t2), ("r", t1)])
    assert rho2 == pytest.approx(rho2_swap, rel=1e-9)
    assert rho2 > 0


@pytest.mark.parametrize("n", range(2, 13))
def test_spherical_irr_closed_form_matches_quadrature(n):
    for t1, t2 in ((0.4, 2.0), (5.9, 0.1), (1.0, 1.0 + 2.0 * math.pi), (3.0, 2.5)):
        val, _ = integrate.quad(lambda t: kernels.spherical_srr(n, t1, t), t1, t2,
                                epsabs=1e-13, epsrel=1e-13)
        assert kernels.spherical_irr(n, t1, t2) == pytest.approx(
            val + 0.5 * np.sign(t1 - t2), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [1, 4, 5])
def test_spherical_matrix_is_the_closed_forms(n):
    # npoint_correlation's [[-I~, S], [-S^T, D]], entry by entry: S(p, q) =
    # srr(t_p, t_q), D(p, q) = drr(t_q, t_p) and I~(p, q) = irr(t_q, t_p)
    t = (0.3, 2.1, 4.0, 5.5, 1.2)
    m = kernels.SphericalKernel(n).matrix([("r", v) for v in t])
    for i, a in enumerate(t):
        for j, b in enumerate(t):
            want = {(0, 0): -kernels.spherical_irr(n, b, a),
                    (0, 1): kernels.spherical_srr(n, a, b),
                    (1, 0): -kernels.spherical_srr(n, b, a),
                    (1, 1): kernels.spherical_drr(n, b, a)}
            for (r, c), value in want.items():
                assert m[2 * i + r, 2 * j + c] == pytest.approx(value, rel=1e-13, abs=1e-15)


def test_spherical_complex_density_matches_scc_diagonal():
    n = 6
    w = 0.5 * np.exp(0.3j)
    diag = kernels.spherical_scc(n, w, w)
    assert kernels.spherical_density_complex(n, w) == pytest.approx(
        float(np.real(diag)), rel=1e-10)


def test_spherical_limit_density_normalizes():
    val, _ = integrate.quad(
        lambda r: 2.0 * math.pi * r * kernels.spherical_complex_limit_density(r),
        0.0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# real truncated orthogonal ensemble


def test_truncated_density_is_srr_diagonal():
    for x in (-0.6, 0.0, 0.9):
        assert kernels.truncated_density_real(4, 2, x) == pytest.approx(
            kernels.truncated_srr(4, 2, x, x), rel=1e-9)


def test_truncated_density_off_and_at_the_edge_of_its_support():
    # the weight is 0 off [-1, 1]; at x = +-1 the density is finite for L >= 2
    for big_l in (1, 2, 3):
        assert kernels.truncated_density_real(4, big_l, 1.5) == 0.0
        np.testing.assert_array_equal(
            kernels.truncated_density_real(5, big_l, np.array([-2.0, -1.0 - 1e-12, 1.5])), 0.0)
    edges = np.array([-1.0, 1.0])
    np.testing.assert_allclose(kernels.truncated_density_real(8, 2, edges), 4.0, rtol=1e-13)
    np.testing.assert_array_equal(kernels.truncated_density_real(8, 4, edges), 0.0)
    assert kernels.truncated_density_real(8, 2, 1.0) == pytest.approx(4.0, rel=1e-13)


def test_truncated_weights():
    assert kernels.trunc_omega_real(2, 0.0) == pytest.approx(
        math.sqrt(2.0 * math.gamma(1.5) / math.gamma(1.0))
        / (math.sqrt(2.0) * math.pi ** 0.25))
    # the squared complex weight is positive inside the disk
    assert kernels.trunc_omega_sq_complex(1, 0.2 + 0.3j) > 0
    assert kernels.trunc_omega_sq_complex(4, 0.2 + 0.3j) > 0


def test_truncated_order_one_has_no_complex_eigenvalues():
    for big_l in (1, 2, 5):
        assert kernels.truncated_density_complex(1, big_l, 0.2 + 0.3j) == 0.0


def test_truncated_complex_density_mass():
    # the upper-half-disk mass equals half the expected complex count
    m, big_l = 4, 2
    mean = analytics.truncated_expected_reals(m, big_l)

    # a 160 x 160 Gauss-Legendre rule in polar coordinates, r in (0, 1) and
    # phi in (0, pi), on the density of the whole node array at once
    x, w = np.polynomial.legendre.leggauss(160)
    r, phi = (x + 1.0) / 2.0, math.pi * (x + 1.0) / 2.0
    rho = kernels.truncated_density_complex(m, big_l, np.outer(r, np.exp(1j * phi)))
    val = (w * r) @ rho @ w * math.pi / 4.0
    assert val == pytest.approx((m - mean) / 2.0, abs=1e-5)


def test_truncated_weak_limits_match_gaussian_forms():
    m, big_l, x, y = 6, 40, 0.3, -0.5
    assert kernels.truncated_weak_srr(m, big_l, x, y) == pytest.approx(
        math.sqrt(big_l) * kernels.ginibre_srr(m, x, y))
    assert kernels.truncated_weak_density_complex(m, big_l, 1.0 + 1.0j) \
        == pytest.approx(big_l * kernels.ginibre_density_complex(m, 1.0 + 1.0j))
    assert kernels.truncated_weak_density_real(m, big_l, 0.9) == 0.0
    assert kernels.truncated_weak_density_real(m, big_l, 0.0) > 0


def test_truncated_strong_kernel_block():
    # the diagonal of the depth-one limit block is the limiting density
    for x in (0.0, 0.4, -0.7):
        blk = kernels.kappa_rr_l1(x, x)
        assert blk[0, 0] == pytest.approx(1.0 / (math.pi * (1.0 - x * x)))
    kern = kernels.TruncatedKernel(4, 2)
    rho1 = kernels.npoint_correlation(kern, [("r", 0.2)])
    assert rho1 == pytest.approx(kernels.truncated_density_real(4, 2, 0.2),
                                 rel=1e-9)


def test_truncated_correlations_integrate_to_count_moments():
    # M = 4, L = 2: rho_1 is the density and integrates to E[k]; the
    # integral of rho_2 over the square is E[k(k-1)] from the exact table
    m, big_l = 4, 2
    probs = analytics.truncated_prob_gf(m, big_l)
    k = np.arange(m + 1)
    kern = kernels.TruncatedKernel(m, big_l)
    rho = lambda *pts: kernels.npoint_correlation(kern, pts)
    for x in (-0.9, -0.35, 0.0, 0.2, 0.75):
        assert rho(("r", x)) == pytest.approx(
            float(kernels.truncated_density_real(m, big_l, x)), rel=1e-9)
    x, wx = _gl(-1.0, 1.0, 20)
    assert sum(wa * rho(("r", a)) for a, wa in zip(x, wx)) == pytest.approx(
        k @ probs, rel=1e-6)
    rr = 0.0
    for a, wa in zip(x, wx):
        # rho_2 is symmetric and has a kink at y = x: integrate over y > x
        y, wy = _gl(a, 1.0, 20)
        rr += 2.0 * wa * sum(wb * rho(("r", a), ("r", b)) for b, wb in zip(y, wy))
    assert rr == pytest.approx((k * (k - 1)) @ probs, rel=0.02)


# ---------------------------------------------------------------------------
# one call per density grid


# order, tau, L and grid half-width of each ensemble's array check
DENSITY_CASES = {"goe": (8, None, None, 8.0), "ginibre": (7, None, None, 9.0),
                 "partial": (7, 0.5, None, 9.0), "spherical": (6, None, None, math.pi),
                 "truncated": (6, None, 3, 1.0)}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_density_array_call_matches_per_point_loop(name):
    n, tau, big_l, half = DENSITY_CASES[name]
    edges = np.linspace(-half, half, 501)
    xs = 0.5 * (edges[:-1] + edges[1:])
    density = ENSEMBLES[name].density
    got = np.broadcast_to(density(n, tau, big_l, xs), xs.shape)
    want = np.array([float(density(n, tau, big_l, float(x))) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["ginibre", "goe", "partial"])
@pytest.mark.parametrize("n", [4, 5])
def test_real_density_is_zero_where_x_squared_overflows(name, n):
    # x * x overflows from |x| = 1.34e154, and from |x| = 4e149 the weight is
    # taken as 0 (it underflows times any member): rho is 0 there on a grid,
    # at a point and from the kernel
    x = np.array([1e154, 1.25e155, 1e200, 1e307])
    x = np.concatenate([-x, x])
    density = ENSEMBLES[name].density
    tau = 0.5 if name == "partial" else None
    np.testing.assert_array_equal(density(n, tau, None, x), 0.0)
    assert [density(n, tau, None, float(v)) for v in x] == [0.0] * len(x)
    kern = KERNEL_CLASSES[name](n)
    assert [kernels.npoint_correlation(kern, [("r", v)]) for v in x] == [0.0] * len(x)


# ---------------------------------------------------------------------------
# n-point plumbing


def test_npoint_rejects_coincident_points():
    kern = kernels.GinibreKernel(4)
    with pytest.raises(ValueError):
        kernels.npoint_correlation(kern, [("r", 1.0), ("r", 1.0)])
    # the points are compared as values, whatever holds them
    with pytest.raises(ValueError, match="coincident"):
        kernels.npoint_correlation(kernels.GOEKernel(6), [("r", 1.0), ["r", 1.0]])
    with pytest.raises(ValueError, match="coincident"):
        kernels.npoint_correlation(kern, [("c", 0.5 + 1j), ["c", complex(0.5, 1.0)]])


def test_ginibre_mixed_two_point_factorizes_at_separation():
    # both points lie inside the bulk, |w| < sqrt(20); at order 10 they lie
    # outside it, where the finite-order kernel keeps them correlated
    kern = kernels.GinibreKernel(20)
    x, w = -4.0, 4.0 + 1.0j
    rho2 = kernels.npoint_correlation(kern, [("r", x), ("c", w)])
    prod = (kernels.ginibre_density_real(20, x)
            * kernels.ginibre_density_complex(20, w))
    assert rho2 == pytest.approx(prod, rel=0.01)


def _gl(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@pytest.mark.parametrize("n", [4, 5])
def test_ginibre_correlations_integrate_to_count_moments(n):
    # k real eigenvalues and m = (n - k)/2 in the upper half plane: the
    # integrals of rho_1 and rho_2 are E[k], E[m], E[k(k-1)], E[km], E[m(m-1)]
    probs = analytics.ginibre_prob_gf(n)
    k = np.arange(n + 1)
    m = (n - k) / 2.0
    want = {"r": k @ probs, "c": m @ probs, "rr": (k * (k - 1)) @ probs,
            "rc": (k * m) @ probs, "cc": (m * (m - 1)) @ probs}
    kern = kernels.GinibreKernel(n)
    rho = lambda *pts: kernels.npoint_correlation(kern, pts)
    edge = math.sqrt(n) + 3.0
    x, wx = _gl(-edge, edge, 20)
    u, wu = _gl(-edge, edge, 14)
    v, wv = _gl(0.0, edge, 7)
    zs = [complex(a, b) for a in u for b in v]
    wz = np.outer(wu, wv).ravel()
    rr = 0.0
    for a, wa in zip(x, wx):
        # rho_2 is symmetric and has a kink at y = x: integrate over y > x
        y, wy = _gl(a, edge, 20)
        rr += 2.0 * wa * sum(wb * rho(("r", a), ("r", b)) for b, wb in zip(y, wy))
    got = {
        "r": sum(wa * rho(("r", a)) for a, wa in zip(x, wx)),
        "c": sum(wb * rho(("c", z)) for z, wb in zip(zs, wz)),
        "rr": rr,
        "rc": sum(wa * wb * rho(("r", a), ("c", z))
                  for a, wa in zip(x, wx) for z, wb in zip(zs, wz)),
        # rho_2 is symmetric and vanishes at coincidence
        "cc": 2.0 * sum(wz[i] * wz[j] * rho(("c", zs[i]), ("c", zs[j]))
                        for i in range(len(zs)) for j in range(i)),
    }
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=0.02), key


@pytest.mark.parametrize("n", [3, 4])
def test_spherical_correlations_integrate_to_count_moments(n):
    # over the circle, the integrals of rho_1 and rho_2 are E[k] and E[k(k-1)]
    probs = analytics.spherical_prob_gf(n)
    k = np.arange(n + 1)
    kern = kernels.SphericalKernel(n)
    rho = lambda *pts: kernels.npoint_correlation(kern, pts)
    x, wx = _gl(0.0, 2.0 * math.pi, 16)
    rr = 0.0
    for a, wa in zip(x, wx):
        # rho_2 is symmetric and has a kink at t2 = t1: integrate over t2 > t1
        y, wy = _gl(a, 2.0 * math.pi, 16)
        rr += 2.0 * wa * sum(wb * rho(("r", a), ("r", b)) for b, wb in zip(y, wy))
    assert sum(wa * rho(("r", a)) for a, wa in zip(x, wx)) == pytest.approx(
        k @ probs, rel=1e-10)
    assert rr == pytest.approx((k * (k - 1)) @ probs, rel=1e-8)


def test_ginibre_two_point_vanishes_for_impossible_pairs():
    # order 2: two real eigenvalues or one complex pair; order 3: at most one pair
    w, z = 0.3 + 0.8j, -1.1 + 0.4j
    for n in (2, 3):
        kern = kernels.GinibreKernel(n)
        assert abs(kernels.npoint_correlation(kern, [("c", w), ("c", z)])) < 1e-12
    rc = kernels.npoint_correlation(kernels.GinibreKernel(2), [("r", -0.6), ("c", w)])
    assert abs(rc) < 1e-12


# ---------------------------------------------------------------------------
# one layout for every kernel class


KERNEL_CLASSES = {
    "goe": kernels.GOEKernel,
    "ginibre": kernels.GinibreKernel,
    "partial": lambda n: kernels.PartialKernel(n, 0.5),
    "spherical": kernels.SphericalKernel,
    "truncated": lambda n: kernels.TruncatedKernel(n, 2),
}
# real points (inside the truncated support) and upper-half-plane points
REALS = (-0.6, 0.1, 0.7, 0.35, -0.2, 0.85)
COMPLEX = (0.3 + 0.8j, -0.5 + 0.4j, 0.2 + 0.3j)
# the kernels with complex elements
COMPLEX_KERNELS = ("ginibre", "partial")


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [4, 5])
def test_no_more_than_n_eigenvalues(name, n):
    # rho vanishes at N + 1 distinct points, a complex point counting twice
    kern = KERNEL_CLASSES[name](n)
    n_complex = range((n + 1) // 2 + 1) if name in COMPLEX_KERNELS else (0,)
    for c in n_complex:
        pts = ([("r", x) for x in REALS[:n + 1 - 2 * c]]
               + [("c", w) for w in COMPLEX[:c]])
        assert abs(kernels.npoint_correlation(kern, pts)) <= 1e-12, c


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [4, 5])
def test_kernel_layout_derivative_identities(name, n):
    # D(x, y) = dS(x, y)/dx and dI~(x, y)/dx = S(y, x), by central differences
    kern = KERNEL_CLASSES[name](n)
    h = 1e-5

    def el(f, a, b):
        return float(np.real(f(("r", a), ("r", b))))

    for x, y in ((0.3, -0.45), (-0.7, 0.55)):
        ds = (el(kern.s, x + h, y) - el(kern.s, x - h, y)) / (2.0 * h)
        di = (el(kern.itilde, x + h, y) - el(kern.itilde, x - h, y)) / (2.0 * h)
        assert el(kern.d, x, y) == pytest.approx(ds, rel=1e-6), (x, y)
        assert di == pytest.approx(el(kern.s, y, x), rel=1e-6), (x, y)


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [1, 4, 5])
def test_kernel_block_matches_the_per_pair_elements(name, n):
    # block(points)[0], [1], [2] at (i, j) are s, d and itilde at points i and j
    kern = KERNEL_CLASSES[name](n)
    point_sets = [[("r", x) for x in REALS[:4]]]
    if name in COMPLEX_KERNELS:
        point_sets += [[("r", REALS[0]), ("c", COMPLEX[0]), ("r", REALS[2]), ("c", COMPLEX[1])],
                       [("c", w) for w in COMPLEX]]
    for pts in point_sets:
        s, d, itld = kern.block(pts)
        for name_el, got, element in (("s", s, kern.s), ("d", d, kern.d),
                                      ("itilde", itld, kern.itilde)):
            want = np.array([[element(p, q) for q in pts] for p in pts], dtype=complex)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=name_el)


def _point_sets(name):
    """Sets of 1 to 4 points: the fixed reals, and at the complex kernels mixed and
    complex sets; then 40 seeded sets of 1 to 4 points, each complex at the complex
    kernels with probability 0.4."""
    sets = [[("r", x) for x in REALS[:k]] for k in range(1, 5)]
    if name in COMPLEX_KERNELS:
        mixed = [("r", REALS[0]), ("c", COMPLEX[0]), ("r", REALS[2]), ("c", COMPLEX[1])]
        sets += [mixed[:k] for k in range(1, 5)] + [[("c", w) for w in COMPLEX[:k]]
                                                      for k in range(1, 4)]
    rng = np.random.default_rng(5)
    reach = 0.95 if name == "truncated" else 3.0
    for k in rng.integers(1, 5, size=40):
        pts = []
        for _ in range(k):
            x = float(rng.uniform(-reach, reach))
            if name in COMPLEX_KERNELS and rng.random() < 0.4:
                pts.append(("c", complex(x, rng.uniform(0.05, 1.5))))
            else:
                pts.append(("r", x))
        sets.append(pts)
    return sets


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [6, 7])
def test_every_matrix_is_exactly_skew(name, n):
    # npoint_correlation takes the Pfaffian of matrix with no check or copy
    kern = KERNEL_CLASSES[name](n)
    for pts in _point_sets(name):
        m = kern.matrix(pts)
        assert np.array_equal(m, -m.T), pts
        assert not np.diagonal(m).any(), pts


def _symmetry_sets(name):
    """Real-real, and where the kernel has complex points real-complex and
    complex-complex, pairs and triples."""
    r, c = [("r", x) for x in REALS], [("c", w) for w in COMPLEX]
    pairs, triples = [r[:2]], [r[:3]]
    if name in COMPLEX_KERNELS:
        pairs += [[r[0], c[0]], c[:2]]
        triples += [[r[0], c[0], r[2]], [c[0], r[1], c[1]], c[:3]]
    return pairs, triples


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [6, 7])
def test_correlations_are_symmetric_in_their_points(name, n):
    # rho_k does not depend on the order of its points. Three complex points
    # cancel to about 1e-6 of the matrix's entries, so the elimination's pivot
    # order moves rho_3 by up to 5e-13 relative there
    kern = KERNEL_CLASSES[name](n)
    pairs, triples = _symmetry_sets(name)
    for p, q in pairs:
        assert kernels.npoint_correlation(kern, [q, p]) == pytest.approx(
            kernels.npoint_correlation(kern, [p, q]), rel=1e-13, abs=0.0), (p, q)
    for pts in triples:
        want = kernels.npoint_correlation(kern, pts)
        for perm in itertools.permutations(pts):
            assert kernels.npoint_correlation(kern, list(perm)) == pytest.approx(
                want, rel=1e-12, abs=0.0), perm


def _elimination(kern, pts):
    """rho at pts by skew elimination on the validated matrix."""
    return float(np.real(pfaffian.pfaffian(pfaffian.SkewMatrix(kern.matrix(pts)))))


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [6, 7])
def test_two_point_closed_form_matches_the_elimination(name, n):
    # two points take the order-4 closed form, three and more the elimination itself
    kern = KERNEL_CLASSES[name](n)
    for pts in _point_sets(name):
        got = kernels.npoint_correlation(kern, pts)
        if len(pts) == 2:
            assert got == pytest.approx(_elimination(kern, pts), rel=1e-12, abs=0.0), pts
        elif len(pts) > 2:
            assert _bits(got) == _bits(_elimination(kern, pts)), pts


def _exact_order_four(m):
    """The Pfaffian of a real 4 x 4 matrix in exact arithmetic, and the sum of its
    three terms' sizes."""
    m = [[Fraction(v) for v in row] for row in m.tolist()]
    terms = (m[0][1] * m[2][3], -m[0][2] * m[1][3], m[0][3] * m[1][2])
    return float(sum(terms)), float(sum(abs(t) for t in terms))


@pytest.mark.parametrize("n", [6, 7, 20])
def test_two_point_closed_form_at_nearly_coincident_points(n):
    # at (x, x + 1e-6) rho_2 ~ 1e-6 is what is left of terms of order 1, so the
    # matrix's own rounding leaves it 1e-10 relative; the closed form and the
    # elimination each hold the exact Pfaffian of the one matrix to the rounding
    # of those terms
    kern = kernels.GOEKernel(n)
    for x in (0.3, -1.1, 2.0, 0.0):
        pts = [("r", x), ("r", x + 1e-6)]
        exact, size = _exact_order_four(kern.matrix(pts))
        got = kernels.npoint_correlation(kern, pts)
        assert 0.0 < got < 1e-4 * size, x
        assert abs(got - exact) <= 4e-16 * size, x
        assert abs(_elimination(kern, pts) - exact) <= 4e-16 * size, x


def test_two_point_closed_form_past_the_weight_underflow():
    # at n = 2000 the weight e^(-x^2/2) underflows at |x| = 44, inside the spectrum
    kern = kernels.GinibreKernel(2000)
    for pts in ([("r", 44.0), ("r", -44.0)], [("r", 44.0), ("r", 43.5)],
                [("r", -44.0), ("r", 0.5)], [("r", 44.0), ("c", 40.0 + 2.0j)],
                [("c", -44.0 + 0.5j), ("r", 44.0)]):
        assert kernels.npoint_correlation(kern, pts) == pytest.approx(
            _elimination(kern, pts), rel=1e-12, abs=0.0), pts


# ---------------------------------------------------------------------------
# the pair-sum kernels' store of point rows


PAIR_SUM_KERNELS = {name: k for name, k in KERNEL_CLASSES.items() if name != "spherical"}


def _bits(value):
    value = np.asarray(value)
    return value.dtype.str, value.tobytes()


def _store_cases(name):
    """Calls on a kernel: rho_1, pairs in both orders, one 3-point set, s, d and
    itilde. At a complex kernel the real point r4 is first formed beside a complex
    point and later alone, and r1 the other way round."""
    r1, r2, r3, r4 = ("r", 0.35), ("r", -0.6), ("r", 0.1), ("r", 0.7)
    c1, c2 = ("c", 0.3 + 0.8j), ("c", -0.5 + 0.4j)
    sets = [[r1], [r1, r2], [r2, r1]]
    elements = [(r1, r2), (r2, r1)]
    if name in COMPLEX_KERNELS:
        sets += [[r4, c1], [c1, r4], [r4], [r1, c2], [c1, c2], [c2, c1], [c1], [r3, c2, r2]]
        elements += [(c1, r1), (r1, c2), (c2, c1), (r4, r2)]
    else:
        sets += [[r1, r3, r2]]
    return ([lambda k, pts=pts: kernels.npoint_correlation(k, pts) for pts in sets]
            + [lambda k, el=el, p=p, q=q: getattr(k, el)(p, q)
               for p, q in elements for el in ("s", "d", "itilde")])


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
@pytest.mark.parametrize("n", [6, 7])
def test_a_reused_kernel_gives_a_fresh_kernels_bits(name, n):
    reused = PAIR_SUM_KERNELS[name](n)
    cases = _store_cases(name)
    for _ in range(3):
        for i, case in enumerate(cases):
            assert _bits(case(reused)) == _bits(case(PAIR_SUM_KERNELS[name](n))), i


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
def test_a_kernel_evaluates_each_point_once(name, monkeypatch):
    family_point = sopoly.SkewFamily.point
    seen = []
    monkeypatch.setattr(sopoly.SkewFamily, "point",
                        lambda fam, real, v: seen.append((real, v)) or family_point(fam, real, v))
    kern = PAIR_SUM_KERNELS[name](7)
    for case in _store_cases(name) * 2:
        case(kern)
    assert len(seen) == len(set(seen)) == (6 if name in COMPLEX_KERNELS else 3)
    assert kern._rows.cache_info().misses == len(seen)


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
def test_writing_into_a_matrix_changes_no_later_call(name):
    kern = PAIR_SUM_KERNELS[name](5)
    pts = [("r", 0.35), ("r", -0.6)] + ([("c", 0.3 + 0.8j)] if name in COMPLEX_KERNELS else [])
    kern.matrix(pts)[:] = 7.0
    for part in kern.block(pts):
        part[:] = 7.0
    assert _bits(kern.matrix(pts)) == _bits(PAIR_SUM_KERNELS[name](5).matrix(pts))


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
@pytest.mark.parametrize("n", [4, 5])
def test_the_store_stays_within_its_cap(name, n, monkeypatch):
    # a cap of 10 points, passed more than thrice by 37 distinct points, alone and in pairs
    cap = 10 * 2 * (n + 1)
    monkeypatch.setattr(kernels, "STORED_NUMBERS", cap)
    kern = PAIR_SUM_KERNELS[name](n)
    xs = np.linspace(-0.9, 0.9, 37)
    sets = [[("r", x)] for x in xs] + [[("r", x), ("r", y)] for x, y in zip(xs, xs[::-1]) if x != y]
    if name in COMPLEX_KERNELS:
        sets += [[("r", x), ("c", complex(x, 0.5))] for x in xs[::3]]
    for pts in sets:
        got = kernels.npoint_correlation(kern, pts)
        assert kern._rows.cache_info().currsize * 2 * (n + 1) <= cap
        assert _bits(got) == _bits(kernels.npoint_correlation(PAIR_SUM_KERNELS[name](n), pts))


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
def test_the_store_drops_the_least_recently_used_point(name, monkeypatch):
    monkeypatch.setattr(kernels, "STORED_NUMBERS", 3 * 2 * (5 + 1))  # a cap of 3 points
    kern = PAIR_SUM_KERNELS[name](5)
    a, b, c, d = [("r", x) for x in (0.35, -0.6, 0.1, 0.7)]
    for p in (a, b, c, a, d):
        kern.matrix([p])
    assert kern._rows.cache_info().misses == 4
    kern.matrix([a])  # kept, as a was used after b and c
    assert kern._rows.cache_info().misses == 4
    kern.matrix([b])  # dropped when d came in
    assert kern._rows.cache_info().misses == 5


@pytest.mark.parametrize("name", sorted(PAIR_SUM_KERNELS))
def test_minus_zero_and_zero_are_one_point(name):
    kern = PAIR_SUM_KERNELS[name](5)
    fresh = PAIR_SUM_KERNELS[name](5)
    assert _bits(kern.matrix([("r", -0.0), ("r", 0.4)])) == _bits(
        fresh.matrix([("r", 0.0), ("r", 0.4)]))
    assert _bits(kern.s(("r", -0.0), ("r", -0.0))) == _bits(fresh.s(("r", 0.0), ("r", 0.0)))
    assert kern._rows.cache_info().currsize == 2
    with pytest.raises(ValueError):
        kernels.npoint_correlation(kern, [("r", 0.0), ("r", -0.0)])


def _ginibre_elements(n, p, q):
    """s, d and itilde at the points p and q from the ginibre_* element
    functions, in npoint_correlation's layout: S(p, q) is the element S at
    (q, p), and only the real-complex D and I~ are written out."""
    (a, x), (b, y) = p, q
    el = lambda kind, u, v, *args: getattr(kernels, "ginibre_" + kind + u + v)(n, *args)
    s = el("s", b, a, y, x)
    if (a, b) == ("c", "r"):
        return s, -el("d", "r", "c", y, x), -el("i", "r", "c", y, x)
    return s, el("d", a, b, x, y), el("i", a, b, x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 13, 20, 21])
def test_ginibre_kernel_matches_the_element_functions(n):
    # GinibreKernel is the partial kernel at tau = 0; the twelve ginibre_*
    # functions (ten elements, two densities) are its closed forms
    kern = kernels.GinibreKernel(n)
    pts = [("r", -0.6), ("c", 0.3 + 0.8j), ("r", 0.7), ("c", -0.5 + 0.4j), ("r", 1.9),
           ("c", 1.2 + 2.1j)]
    for i, p in enumerate(pts):
        density = {"r": kernels.ginibre_density_real, "c": kernels.ginibre_density_complex}
        assert kern.s(p, p) == pytest.approx(density[p[0]](n, p[1]), rel=1e-12)
        for q in pts[:i] + pts[i + 1:]:
            got = (kern.s(p, q), kern.d(p, q), kern.itilde(p, q))
            np.testing.assert_allclose(got, _ginibre_elements(n, p, q), rtol=1e-12, atol=0.0,
                                       err_msg=str((p, q)))


@pytest.mark.parametrize("point", [("r", math.nan), ("r", math.inf), ("r", -math.inf),
                                   ("c", complex(math.nan, 1.0)),
                                   ("c", complex(1.0, math.inf)), ("r", "0.3"),
                                   ("c", "0.3+1j")],
                         ids=["r-nan", "r-inf", "r-minus-inf", "c-nan", "c-inf", "r-str",
                              "c-str"])
def test_a_point_not_finite_or_a_string_is_refused_before_it_is_formed(point):
    kern = kernels.GinibreKernel(6)
    with pytest.raises(ValueError, match="finite"):
        kernels.npoint_correlation(kern, [point])
    with pytest.raises(ValueError, match="finite"):
        kern.matrix([("r", 0.1), point])
    assert kern._rows.cache_info().currsize == 0


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
def test_the_correlation_at_no_points_is_the_empty_pfaffian(name):
    value = kernels.npoint_correlation(KERNEL_CLASSES[name](5), [])
    assert value == 1.0 and type(value) is float


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
def test_a_real_point_off_the_real_axis_is_refused(name):
    kern = KERNEL_CLASSES[name](4)
    for pts in ([("r", 0.3 + 0.5j)], [("r", 0.1), ("r", 0.3 + 0.5j)]):
        with pytest.raises(ValueError):
            kernels.npoint_correlation(kern, pts)
    # a real value held in a complex number is a real point
    assert kernels.npoint_correlation(kern, [("r", 0.3 + 0.0j)]) == pytest.approx(
        kernels.npoint_correlation(kern, [("r", 0.3)]), rel=1e-15)


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
def test_a_complex_point_on_or_below_the_real_axis_is_refused(name):
    kern = KERNEL_CLASSES[name](4)
    for w in (0.5, 0.5 + 0.0j, 0.3 - 0.8j):
        for pts in ([("c", w)], [("r", 0.1), ("c", w)]):
            with pytest.raises(ValueError):
                kernels.npoint_correlation(kern, pts)


@pytest.mark.parametrize("name", sorted(set(KERNEL_CLASSES) - set(COMPLEX_KERNELS)))
def test_a_complex_point_is_refused_where_the_kernel_has_none(name):
    kern = KERNEL_CLASSES[name](4)
    for pts in ([("c", 0.3 + 0.5j)], [("r", 0.1), ("c", 0.3 + 0.5j)]):
        with pytest.raises(ValueError, match="complex points"):
            kernels.npoint_correlation(kern, pts)
        with pytest.raises(ValueError, match="complex points"):
            kern.block(pts)


GAUSS_PINS = [("r", v) for v in (0.3, -1.1, 2.0, -3.1, 3.3, -2.2)]
TRUNC_PINS = [("r", v) for v in (0.3, -0.6, 0.8, -0.15, 0.55, -0.9)]
GIN_PINS = [("r", -1.2), ("c", 0.3 + 0.8j), ("r", 0.4), ("c", -1.0 + 1.5j), ("r", 2.1),
            ("c", 1.7 + 0.5j)]
# kernel, points, and npoint_correlation at the first 1, 2, 3 and 6 of them as
# one s, d or itilde call per matrix entry gives it
PINNED = {
    "goe12": (lambda: kernels.GOEKernel(12), GAUSS_PINS,
              (1.5257091311664657, 2.2179382711790714, 3.0052687621566783, 4.211546405202652)),
    "goe7": (lambda: kernels.GOEKernel(7), GAUSS_PINS[:4] + [("r", 2.9), ("r", -2.2)],
             (1.1460859040694373, 1.2014616788231418, 1.0957851872276012, 0.16003928034747794)),
    "partial9": (lambda: kernels.PartialKernel(9, 0.5), GAUSS_PINS,
                 (0.46038972094995556, 0.20877048278729332, 0.0956107529474679,
                  0.0071653760378273595)),
    "truncated6": (lambda: kernels.TruncatedKernel(6, 3), TRUNC_PINS,
                   (0.6995807698090157, 0.6867719398166131, 0.8819587865674575,
                    0.20384364721833403)),
    "truncated7": (lambda: kernels.TruncatedKernel(7, 2), TRUNC_PINS,
                   (0.5494505231705, 0.41870362025299046, 0.5466702138875115,
                    0.0060119839044227895)),
    "ginibre12": (lambda: kernels.GinibreKernel(12), GIN_PINS,
                  (0.39894227877697114, 0.09480012380622459, 0.01637351895678957,
                   1.1921476110988367e-05)),
    "ginibre9": (lambda: kernels.GinibreKernel(9), GIN_PINS,
                 (0.3989412735049221, 0.09479916345798291, 0.01637317443489568,
                  7.3687740298697955e-06)),
    "spherical6": (lambda: kernels.SphericalKernel(6),
                   [("r", v) for v in (0.3, 2.1, 4.0, 5.5, 1.2, 3.1)],
                   (0.46875000000000006, 0.2193057176758839, 0.10269373227701878,
                    0.006262266307852342)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_npoint_values_are_pinned(name):
    make, pts, values = PINNED[name]
    kern = make()
    for k, want in zip((1, 2, 3, 6), values):
        assert kernels.npoint_correlation(kern, pts[:k]) == pytest.approx(want, rel=1e-12), k


ORDER_ONE_DENSITY = {
    "goe": lambda x: C2PI * math.exp(-x * x / 2.0),
    "ginibre": lambda x: C2PI * math.exp(-x * x / 2.0),
    "partial": lambda x: math.exp(-x * x / 3.0) / math.sqrt(3.0 * math.pi),  # tau = 0.5
    "spherical": lambda x: 1.0 / (2.0 * math.pi),  # uniform in the angle
    "truncated": lambda x: 0.5,  # L = 2: uniform on (-1, 1)
}


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
def test_order_one_kernels(name):
    # a 1 x 1 matrix is its own eigenvalue: rho_1 is the density of its
    # entry, and with no second eigenvalue rho_2 vanishes
    kern = KERNEL_CLASSES[name](1)
    for x in REALS:
        assert kernels.npoint_correlation(kern, [("r", x)]) == pytest.approx(
            ORDER_ONE_DENSITY[name](x), rel=1e-13)
    assert kernels.npoint_correlation(kern, [("r", REALS[0]), ("r", REALS[1])]) == pytest.approx(
        0.0, abs=1e-15)


def test_partial_order_one_density():
    x = np.array(REALS)
    want = [ORDER_ONE_DENSITY["partial"](v) for v in REALS]
    np.testing.assert_allclose(kernels.partial_density_real(1, 0.5, x), want, rtol=1e-13)
    assert kernels.partial_density_real(1, 0.5, REALS[0]) == pytest.approx(want[0], rel=1e-13)


MOMENT_CASES = {"goe": {}, "ginibre": {}, "partial": {"tau": 0.5}, "spherical": {},
                "truncated": {"big_l": 3}}


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_real_density_integrates_to_the_expected_real_count(name, n):
    # the integral of rho_1 over the real line (spherical: over the angles,
    # truncated: over x = sin(u)) is E[k] from the exact table
    params = MOMENT_CASES[name]
    ens = ensembles.spec(name, n, **params)
    tau, big_l = params.get("tau"), params.get("big_l")
    if name == "spherical":
        x, w = _gl(0.0, 2.0 * math.pi, 8)
    elif name == "truncated":
        u, w = _gl(-0.5 * math.pi, 0.5 * math.pi, 200)
        x, w = np.sin(u), w * np.cos(u)
    else:
        half = math.sqrt(2.0 * n) + 10.0
        x, w = _gl(-half, half, 200)
    rho = np.broadcast_to(ens.density(n, tau, big_l, x), x.shape)
    probs = analytics.prob_table(name, n, tau=tau, big_l=big_l)
    assert w @ rho == pytest.approx(np.arange(n + 1) @ probs, abs=1e-12)


def test_odd_order_kernels_integrate_to_count_moments():
    # GOE: all n eigenvalues are real; truncated M = 5, L = 2: E[k] and
    # E[k(k-1)] from the exact table
    x, wx = _gl(-12.0, 12.0, 80)
    kern = kernels.GOEKernel(5)
    assert sum(wa * kernels.npoint_correlation(kern, [("r", a)])
               for a, wa in zip(x, wx)) == pytest.approx(5.0, abs=1e-10)
    m, big_l = 5, 2
    probs = analytics.truncated_prob_gf(m, big_l)
    k = np.arange(m + 1)
    kern = kernels.TruncatedKernel(m, big_l)
    rho = lambda *pts: kernels.npoint_correlation(kern, pts)
    x, wx = _gl(-1.0, 1.0, 20)
    assert sum(wa * rho(("r", a)) for a, wa in zip(x, wx)) == pytest.approx(
        k @ probs, abs=1e-10)
    rr = 0.0
    for a, wa in zip(x, wx):
        y, wy = _gl(a, 1.0, 20)
        rr += 2.0 * wa * sum(wb * rho(("r", a), ("r", b)) for b, wb in zip(y, wy))
    assert rr == pytest.approx((k * (k - 1)) @ probs, abs=1e-10)
