"""Tests for the correlation kernels, densities and scaling limits."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from realrmt import analytics, kernels, sopoly
from realrmt.ensembles import ENSEMBLES

C2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian orthogonal ensemble


def test_goe_density_is_kernel_diagonal():
    for x in (-1.2, 0.0, 0.8):
        assert kernels.goe_density(6, x) == pytest.approx(
            float(kernels.goe_s(6, x, x)), rel=1e-10)


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


def test_goe_s_is_continuous_near_the_diagonal():
    # D(x, x) = 0, so S(1 + d, 1) - S(1, 1) is of order d^2
    at = float(kernels.goe_s(8, 1.0, 1.0))
    for d in (2e-5, 5e-6, 1e-7):
        assert abs(float(kernels.goe_s(8, 1.0 + d, 1.0)) - at) <= 1e-8, d


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
    class Overflowed:
        """A kernel whose S elements overflowed."""

        def s(self, p, q):
            return math.nan

        def block(self, points):
            k = len(points)
            return np.full((k, k), math.nan), np.zeros((k, k)), np.zeros((k, k))

    for pts in ([("r", 0.1)], [("r", 0.1), ("r", 0.4)]):
        with pytest.raises(ArithmeticError):
            kernels.npoint_correlation(Overflowed(), pts)


def test_ginibre_order_one_density_is_standard_normal():
    # a 1 x 1 real Ginibre matrix is its own eigenvalue
    for x in (-3.0, -0.7, 0.0, 0.3, 2.0):
        assert kernels.ginibre_density_real(1, x) == pytest.approx(
            C2PI * math.exp(-x * x / 2.0), rel=1e-15)


def test_ginibre_complex_density_matches_scc():
    w = 1.0 + 0.8j
    rho = kernels.GinibreKernel(8)
    val = kernels.npoint_correlation(rho, [("c", w)])
    assert val == pytest.approx(kernels.ginibre_density_complex(8, w), rel=1e-10)


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
    # strong asymmetry kills the correlation
    assert kernels.crossover_srr(30.0, 0.3, 0.1) < 1e-2
    assert abs(kernels.crossover_scc(2.0, 1.0 + 1.0j, 1.0 + 1.0j)) > 0


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


def test_truncated_weights():
    assert kernels.trunc_omega_real(2, 0.0) == pytest.approx(
        math.sqrt(2.0 * math.gamma(1.5) / math.gamma(1.0))
        / (math.sqrt(2.0) * math.pi ** 0.25))
    # the squared complex weight is positive inside the disk
    assert kernels.trunc_omega_sq_complex(1, 0.2 + 0.3j) > 0
    assert kernels.trunc_omega_sq_complex(4, 0.2 + 0.3j) > 0


def test_truncated_complex_density_mass():
    # the upper-half-disk mass equals half the expected complex count
    m, big_l = 4, 2
    mean = analytics.truncated_expected_reals(m, big_l)

    def integrand(y, x):
        if x * x + y * y >= 1.0 - 1e-12:
            return 0.0
        return kernels.truncated_density_complex(m, big_l, x + 1j * y)

    val, _ = integrate.dblquad(integrand, -1.0, 1.0, 0.0, 1.0,
                               epsabs=1e-9, epsrel=1e-9)
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


# ---------------------------------------------------------------------------
# n-point plumbing


def test_npoint_rejects_coincident_points():
    kern = kernels.GinibreKernel(4)
    with pytest.raises(ValueError):
        kernels.npoint_correlation(kern, [("r", 1.0), ("r", 1.0)])


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


@pytest.mark.parametrize("name", sorted(KERNEL_CLASSES))
@pytest.mark.parametrize("n", [4, 5])
def test_no_more_than_n_eigenvalues(name, n):
    # rho vanishes at N + 1 distinct points, a complex point counting twice
    kern = KERNEL_CLASSES[name](n)
    n_complex = range((n + 1) // 2 + 1) if name == "ginibre" else (0,)
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
    if name == "ginibre" and n > 1:  # a 1 x 1 matrix has no complex eigenvalues
        point_sets += [[("r", REALS[0]), ("c", COMPLEX[0]), ("r", REALS[2]), ("c", COMPLEX[1])],
                       [("c", w) for w in COMPLEX]]
    for pts in point_sets:
        s, d, itld = kern.block(pts)
        for name_el, got, element in (("s", s, kern.s), ("d", d, kern.d),
                                      ("itilde", itld, kern.itilde)):
            want = np.array([[element(p, q) for q in pts] for p in pts], dtype=complex)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=name_el)


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
