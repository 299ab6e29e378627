"""End-to-end acceptance suite: exact tables, Monte Carlo, kernels, limits."""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from realrmt import analytics, ensembles, kernels, pfaffian, sopoly

R2 = math.sqrt(2.0)
R3 = math.sqrt(3.0)
PI = math.pi


# ---------------------------------------------------------------------------
# 1. exact Ginibre table, N = 2..9


GINIBRE_TABLE = {
    2: {2: R2 / 2},
    3: {3: R2 / 4},
    4: {4: 1 / 8, 2: 11 * R2 / 16 - 1 / 4},
    5: {5: 1 / 32, 3: 13 * R2 / 32 - 1 / 16},
    6: {6: R2 / 256, 4: -3 * R2 / 256 + 271 / 1024,
        2: -271 / 512 + 107 * R2 / 128},
    7: {7: R2 / 2048, 5: 355 / 4096 - 3 * R2 / 2048,
        3: -355 / 2048 + 1087 * R2 / 2048},
    8: {8: 1 / 16384, 6: -1 / 4096 + 3851 * R2 / 262144,
        4: 53519 / 131072 - 11553 * R2 / 262144,
        2: -53487 / 65536 + 257185 * R2 / 262144},
    9: {9: 1 / 262144, 7: -1 / 65536 + 5297 * R2 / 2097152,
        5: 82347 / 524288 - 15891 * R2 / 2097152,
        3: -82339 / 262144 + 1345555 * R2 / 2097152},
}


def _fill_smallest(table, n):
    """Add the lowest-k entry by normalization so each row sums to one."""
    table = dict(table)
    k0 = min(table) - 2
    assert k0 >= 0
    table[k0] = 1.0 - sum(table.values())
    return table


def test_ginibre_exact_table():
    start = time.monotonic()
    for n, row in GINIBRE_TABLE.items():
        row = _fill_smallest(row, n)
        probs = analytics.ginibre_prob_gf(n)
        for k, exact in row.items():
            assert probs[k] == pytest.approx(exact, rel=1e-9)
        for k in range(n + 1):
            if k not in row:
                assert probs[k] == 0.0
    # the k=3 entry at order 7 evaluates near 0.577, not the 0.664 sometimes quoted
    assert GINIBRE_TABLE[7][3] == pytest.approx(0.57735, abs=1e-4)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. exact spherical table, N = 2..7, and moment identities


SPHERICAL_TABLE = {
    2: {2: PI / 4},
    3: {3: 1 / 2, 1: 1 / 2},
    4: {4: 27 * PI ** 2 / 1024, 2: 3 * PI / 8 - 27 * PI ** 2 / 512},
    5: {5: 1 / 9, 3: 11 / 18, 1: 5 / 18},
    6: {6: 84375 * PI ** 3 / 67108864,
        4: 14625 * PI ** 2 / 262144 - 253125 * PI ** 3 / 67108864,
        2: 15 * PI / 32 - 14625 * PI ** 2 / 131072 + 253125 * PI ** 3 / 67108864},
    7: {7: 9 / 800, 5: 39 / 160, 3: 463 / 800, 1: 133 / 800},
}


def test_spherical_exact_table_and_moments():
    start = time.monotonic()
    for n, row in SPHERICAL_TABLE.items():
        if min(row) >= 2:
            row = _fill_smallest(row, n)
        probs = analytics.spherical_prob_gf(n)
        for k, exact in row.items():
            assert probs[k] == pytest.approx(exact, rel=1e-10)
    for n in range(2, 21):
        probs = analytics.spherical_prob_gf(n)
        ks = np.arange(n + 1)
        mean = float(np.dot(ks, probs))
        var = float(np.dot(ks * ks, probs)) - mean * mean
        e_n = math.sqrt(PI) * math.exp(math.lgamma((n + 1) / 2.0)
                                       - math.lgamma(n / 2.0))
        assert analytics.spherical_expected_reals(n) == pytest.approx(e_n, rel=1e-12)
        assert mean == pytest.approx(e_n, rel=1e-9)
        assert var == pytest.approx(analytics.spherical_variance_reals(n), rel=1e-9)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. exact truncated tables, M = 2..6, L in {1, 2, 3, 8}


TRUNCATED_TABLE = {
    (2, 1): {2: 2 / PI},
    (3, 1): {3: 2 / (3 * PI)},
    (4, 1): {4: 16 / (45 * PI ** 2), 2: 12 / (5 * PI) - 32 / (45 * PI ** 2)},
    (5, 1): {5: 16 / (525 * PI ** 2), 3: 20 / (21 * PI) - 32 / (525 * PI ** 2)},
    (6, 1): {6: 2048 / (496125 * PI ** 3),
             4: 7136 / (11025 * PI ** 2) - 2048 / (165375 * PI ** 3),
             2: 118 / (45 * PI) - 14272 / (11025 * PI ** 2)
             + 2048 / (165375 * PI ** 3)},
    (2, 2): {2: 2 / 3},
    (3, 2): {3: 4 / 15, 1: 11 / 15},
    (4, 2): {4: 32 / 525, 2: 376 / 525, 0: 39 / 175},
    (5, 2): {5: 256 / 33075, 3: 12508 / 33075, 1: 20311 / 33075},
    (6, 2): {6: 4096 / 7640325, 4: 95552 / 848925,
             2: 1814282 / 2546775, 0: 266683 / 1528065},
    (2, 3): {2: 32 / (15 * PI)},
    (3, 3): {3: 32 / (35 * PI)},
    (4, 3): {4: 8192 / (11025 * PI ** 2),
             2: 96 / (35 * PI) - 16384 / (11025 * PI ** 2)},
    (5, 3): {5: 8192 / (72765 * PI ** 2),
             3: 4768 / (3465 * PI) - 16384 / (72765 * PI ** 2)},
    (6, 3): {6: 33554432 / (1092566475 * PI ** 3),
             4: 73842688 / (52026975 * PI ** 2)
             - 33554432 / (364188825 * PI ** 3),
             2: 46784 / (15015 * PI) - 147685376 / (52026975 * PI ** 2)
             + 33554432 / (364188825 * PI ** 3)},
    (2, 8): {2: 896 / 1287, 0: 391 / 1287},
    (3, 8): {3: 7168 / 21879, 1: 14711 / 21879},
    (4, 8): {4: 102760448 / 1010569131, 2: 244424320 / 336856377,
             0: 174535723 / 1010569131},
    (5, 8): {5: 1174405120 / 57602440467, 3: 27164852224 / 57602440467,
             1: 29263183123 / 57602440467},
    (6, 8): {6: 4810363371520 / 1854356964327153,
             4: 1088085255258112 / 5563070892981459,
             2: 3808688634609280 / 5563070892981459,
             0: 651865912999507 / 5563070892981459},
}


def test_truncated_exact_tables():
    start = time.monotonic()
    for (m, big_l), row in TRUNCATED_TABLE.items():
        if min(row) >= 2:
            row = _fill_smallest(row, m)
        probs = analytics.truncated_prob_gf(m, big_l)
        for k, exact in row.items():
            assert probs[k] == pytest.approx(exact, rel=1e-6)
    assert time.monotonic() - start < 60.0


def test_truncated_all_real_closed_form():
    for big_l in (1, 2, 3, 8):
        for m in range(2, 7):
            closed = analytics.truncated_pmm(m, big_l)
            via_gf = analytics.truncated_prob_gf(m, big_l)[m]
            assert via_gf == pytest.approx(closed, rel=1e-7)


# ---------------------------------------------------------------------------
# 4. partially symmetric tables, N = 2..6, tau = +-1/2


PARTIAL_TABLE = {
    (2, 0.5): {2: R3 / 2},
    (3, 0.5): {3: 3 * R3 / 8},
    (4, 0.5): {4: 27 / 64, 2: 51 * R3 / 64 - 27 / 32},
    (5, 0.5): {5: 243 / 1024, 3: 159 * R3 / 256 - 243 / 512},
    (6, 0.5): {6: 2187 * R3 / 32768,
               4: 115317 / 131072 - 6561 * R3 / 32768,
               2: 39609 * R3 / 32768 - 115317 / 65536},
    (2, -0.5): {2: 1 / 2},
    (3, -0.5): {3: 1 / 8},
    (4, -0.5): {4: 1 / 64, 2: 41 / 64},
    (5, -0.5): {5: 1 / 1024, 3: 121 / 512},
    (6, -0.5): {6: 1 / 32768, 4: 5907 / 131072, 2: 45591 / 65536},
}


def test_partial_exact_tables():
    for (n, tau), row in PARTIAL_TABLE.items():
        row = _fill_smallest(row, n)
        probs = analytics.partial_prob_gf(n, tau)
        for k, exact in row.items():
            assert probs[k] == pytest.approx(exact, rel=1e-9)


def test_partial_all_real_closed_form():
    for tau in (0.5, -0.5):
        for n in range(2, 7):
            assert analytics.partial_prob_gf(n, tau)[n] == pytest.approx(
                ((1.0 + tau) / 2.0) ** (n * (n - 1) / 4.0), rel=1e-9)


def test_partial_reduces_to_ginibre_at_zero():
    for n in range(2, 10):
        got = analytics.partial_prob_gf(n, 0.0)
        want = analytics.ginibre_prob_gf(n)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# 5. Monte Carlo agreement, 1e5 seeded draws per cell, |z| < 4


MC_CELLS = (
    [("ginibre", n, None, None) for n in range(2, 9)]
    + [("spherical", n, None, None) for n in range(2, 8)]
    + [("truncated", 2, None, 1), ("truncated", 4, None, 2),
       ("truncated", 4, None, 8)]
    + [("partial", 4, 0.5, None), ("partial", 4, -0.5, None)]
    + [("truncated", 3, None, 8), ("truncated", 2, None, 4), ("truncated", 3, None, 3)]
    + [("partial", 5, 0.75, None)]
)


@pytest.mark.parametrize("ensemble,n,tau,big_l", MC_CELLS)
def test_monte_carlo_agreement(ensemble, n, tau, big_l):
    reps = 100000
    seed = 1000 + MC_CELLS.index((ensemble, n, tau, big_l))
    probs = analytics.prob_table(ensemble, n, tau=tau, big_l=big_l)
    hist = ensembles.simulate_real_counts(ensemble, n, reps, seed, tau=tau,
                                          big_l=big_l, workers=2)
    for k in range(n + 1):
        p = probs[k]
        sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / reps)
        z = (hist[k] / reps - p) / sigma
        assert abs(z) < 4.0, "k=%d p=%g z=%g" % (k, p, z)


# ---------------------------------------------------------------------------
# 6. skew-orthogonality for all five polynomial families, j, l <= 7


FAMILIES = [
    sopoly.goe_family(8),
    sopoly.ginibre_family(8),
    sopoly.partial_family(8, 0.5),
    sopoly.spherical_family(8),
    sopoly.truncated_family(8, 2),
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.ensemble)
def test_skew_orthogonality(family):
    scale = np.max(np.abs(family.norms))
    for j in range(8):
        for l in range(j + 1, 8):
            ip = sopoly.inner_product_numeric(family, j, l, n=80)
            expect = family.norms[j // 2] if (j % 2 == 0 and l == j + 1) else 0.0
            assert abs(ip - expect) <= 1e-4 * scale, (j, l, ip, expect)


# ---------------------------------------------------------------------------
# 7. Pfaffian engine on 500 random skew matrices of each order 2..12


def _random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return (a - a.T) / 2.0


def test_pfaffian_square_and_congruence():
    rng = np.random.default_rng(20260824)
    for order in range(2, 13):
        for _ in range(500):
            a = _random_skew(rng, order)
            pf = pfaffian.pfaffian(a)
            det = np.linalg.det(a)
            if order % 2 == 1:
                assert pf == 0.0
                continue
            scale = max(abs(det), 1e-12)
            assert abs(pf * pf - det) <= 1e-9 * scale
            b = rng.standard_normal((order, order))
            lhs = pfaffian.pfaffian(b @ a @ b.T)
            rhs = np.linalg.det(b) * pf
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)


def test_pfaffian_elimination_matches_laplace():
    rng = np.random.default_rng(7)
    for order in (2, 4, 6, 8):
        for _ in range(100):
            a = _random_skew(rng, order)
            fast = pfaffian.pfaffian(a)
            slow = pfaffian.pfaffian_laplace(a)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# 8. density and limit suite


def test_goe_semicircle_histogram():
    n = 500
    draws = 60
    vals = []
    for c in range(draws):
        rng = ensembles.rng_for(314, c)
        vals.append(np.linalg.eigvalsh(ensembles.sample_goe(n, rng)))
    x = np.concatenate(vals) / math.sqrt(2.0 * n)
    edges = np.linspace(-0.85, 0.85, 19)
    hist, _ = np.histogram(x, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = kernels.goe_semicircle(centers)
    # density=True normalizes over the window; rescale by the captured mass
    inside = np.mean(np.abs(x) <= 0.85)
    rel = np.abs(hist * inside - target) / target
    assert np.max(rel) < 0.03


def test_goe_density_normalization():
    for n in (2, 4, 6, 8):
        val, _ = integrate.quad(lambda t: float(kernels.goe_density(n, t)),
                                -12.0, 12.0, limit=200)
        assert val == pytest.approx(n, abs=1e-6)


def test_ginibre_density_values():
    for n in (4, 8, 100):
        assert kernels.ginibre_density_real(n, 0.0) == 1.0 / math.sqrt(2.0 * PI)
    # bulk complex density approaches the uniform value 1/pi
    val = kernels.ginibre_density_complex(100, 3.0 + 4.0j)
    assert val == pytest.approx(1.0 / PI, rel=0.02)


def test_spherical_mass_identity():
    for n in range(2, 7):
        total = 0.0
        for lo, hi in ((1e-9, 0.5), (0.5, 1.0 - 1e-12)):
            r, w = np.polynomial.legendre.leggauss(200)
            r = 0.5 * (hi - lo) * r + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * w
            dens = np.array([kernels.spherical_density_complex(n, ri) for ri in r])
            total += float(np.sum(w * dens * r))
        mass = 2.0 * (2.0 * PI * total)  # each conjugate/mirror pair counted once
        e_n = analytics.spherical_expected_reals(n)
        assert mass + e_n == pytest.approx(n, abs=1e-5)


def test_spherical_bulk_scaled_limits():
    for x2 in (0.0, 0.3, 0.8):
        val, lim = kernels.spherical_bulk_real_scaled(100, 0.1, 0.1 + x2)
        assert val == pytest.approx(lim, rel=0.03)
    val, lim = kernels.spherical_bulk_complex_scaled(100, 0.1 + 0.1j, 0.1 + 0.1j)
    assert abs(val - lim) <= 0.03 * abs(lim)


def _truncated_real_mass(m, big_l):
    """Integral of the real density with the x = sin(u) substitution."""
    u, w = np.polynomial.legendre.leggauss(400)
    u = 0.5 * PI * u
    w = 0.5 * PI * w
    vals = np.array([kernels.truncated_density_real(m, big_l, math.sin(ui))
                     * math.cos(ui) for ui in u])
    return float(np.sum(w * vals))


def test_truncated_density_normalization():
    for m, big_l in ((4, 1), (4, 2), (6, 3)):
        probs = analytics.truncated_prob_gf(m, big_l)
        mean = float(np.dot(np.arange(m + 1), probs))
        assert _truncated_real_mass(m, big_l) == pytest.approx(mean, abs=1e-5)


def test_truncated_strong_limit_density():
    for x in (0.0, -0.5, 0.5):
        val = kernels.truncated_density_real(200, 1, x)
        lim = 1.0 / (PI * (1.0 - x * x))
        assert val == pytest.approx(lim, rel=0.02)
        assert kernels.truncated_strong_density_real(1, x) == pytest.approx(lim)


# ---------------------------------------------------------------------------
# 9. n-point correlation sanity


def test_one_point_equals_kernel_diagonal():
    kern = kernels.GinibreKernel(10)
    for x in (-1.5, 0.0, 2.0):
        rho1 = kernels.npoint_correlation(kern, [("r", x)])
        assert rho1 == pytest.approx(kernels.ginibre_srr(10, x, x), rel=1e-12)


def test_two_point_factorizes_at_separation():
    kern = kernels.GinibreKernel(10)
    x, y = -1.0, 5.0
    rho2 = kernels.npoint_correlation(kern, [("r", x), ("r", y)])
    prod = (kernels.ginibre_srr(10, x, x) * kernels.ginibre_srr(10, y, y))
    assert rho2 == pytest.approx(prod, rel=0.01)


def test_two_point_vanishes_at_coincidence():
    kern = kernels.GinibreKernel(10)
    x = 0.7
    rho1 = kernels.ginibre_srr(10, x, x)
    rho2 = kernels.npoint_correlation(kern, [("r", x), ("r", x + 1e-6)])
    assert abs(rho2) <= 1e-4 * rho1 * rho1


# ---------------------------------------------------------------------------
# 10. Gaussian local limit of the spherical real-count distribution


def test_spherical_local_limit_gaussian():
    start = time.monotonic()
    xs, scaled, gauss = analytics.gaussian_local_limit_curve(300)
    peak = float(np.max(gauss))
    assert np.max(np.abs(scaled - gauss)) <= 0.05 * peak
    assert time.monotonic() - start < 30.0
