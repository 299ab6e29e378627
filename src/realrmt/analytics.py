"""Exact probabilities of k real eigenvalues and related closed forms."""

import math
from fractions import Fraction

import numpy as np
from scipy import special as sp

from . import ensembles, pfaffian, sopoly
from .specfun import hyp2f1, log_vol_orthogonal


# ---------------------------------------------------------------------------
# polynomial extraction from a generating function


def _poly_from_values(fn, deg):
    """Coefficients of a degree-deg polynomial from its values at the roots of unity."""
    roots = np.exp(2j * math.pi * np.arange(deg + 1) / (deg + 1))
    vals = np.array([fn(s) for s in roots])
    return np.real(np.fft.fft(vals)) / (deg + 1)


def _gf_probs(alpha, base, border):
    """p_{N,k} from the generating function Z(s) built on the block base + (s-1) alpha.

    The block has shape (ceil(N/2), floor(N/2)). For even N, Z(s) is its
    determinant; for odd N, it fills the (even row, odd column) entries of a
    skew N x N core, and Z(s) is the Pfaffian of that core bordered by border.
    Z is normalised at s = 1 and its coefficients land on k = N, N-2, ...
    """
    rows, cols = alpha.shape
    n = rows + cols

    def signed_log_z(s):
        block = base + (s - 1.0) * alpha
        if n % 2 == 0:
            return np.linalg.slogdet(block)
        core = np.zeros((n, n), dtype=block.dtype)
        core[0::2, 1::2] = block
        core[1::2, 0::2] = -block.T
        return pfaffian.pfaffian_bordered_signed_log(core, border)

    # the reference goes through the same complex arithmetic as the other
    # roots of unity, so Z(1) = 1 exactly and sum_k p_{N,k} = 1 to rounding
    sign_ref, log_ref = signed_log_z(1.0 + 0j)

    def z(s):
        sign, log_v = signed_log_z(s)
        return sign / sign_ref * np.exp(log_v - log_ref)

    probs = np.zeros(n + 1)
    probs[n % 2::2] = _poly_from_values(z, cols)
    return probs


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def ginibre_alpha(j, l):
    """Skew-basis alpha entry pairing polynomials 2j and 2l+1 (0-based pairs)."""
    return 2.0 * math.gamma(j + l + 0.5)


def ginibre_nu(j):
    """One-sided integral of the j-th skew polynomial against the Gaussian weight."""
    return sopoly._gauss_moment(j)


def ginibre_alpha_via_recursion(j, l):
    """Alpha entry from the two-index integral recursion (independent cross-check)."""
    size = j + l + 2
    big_i = np.zeros((size, size))
    big_i[0, 0] = -2.0 * math.sqrt(math.pi)
    for a in range(size - 1):
        big_i[a + 1, 0] = (2 * a + 2) * big_i[a, 0] - 2.0 * math.gamma(a + 1.5)
    for a in range(size):
        for b in range(size - 1):
            big_i[a, b + 1] = (2 * b + 1) * big_i[a, b] + 2.0 * math.gamma(a + b + 1.5)
    if l == 0:
        return -big_i[0, j]
    return 2.0 * l * big_i[l - 1, j] - big_i[l, j]


def ginibre_prob_gf(n):
    """Probabilities p_{N,k} of k real eigenvalues for the real Ginibre ensemble."""
    ensembles.spec("ginibre", n, table=True)
    rows, cols = (n + 1) // 2, n // 2
    alpha = np.array([[ginibre_alpha(j, l) for l in range(cols)] for j in range(rows)])
    border = np.array([ginibre_nu(i) for i in range(n)])
    return _gf_probs(alpha, np.diag(sopoly._ginibre_norms(rows))[:, :cols], border)


def ginibre_pnn(n):
    """Probability that all eigenvalues are real, real Ginibre ensemble."""
    return 2.0 ** (-n * (n - 1) / 4.0)


def ginibre_expected_reals(n):
    """Expected number of real eigenvalues for the real Ginibre ensemble."""
    pre = math.sqrt(2.0 / math.pi) * math.exp(math.lgamma(n + 0.5) - math.lgamma(n))
    return 0.5 + pre * hyp2f1(1.0, -0.5, float(n), 0.5)


def ginibre_expected_reals_asymptotic(n):
    """Large-order expansion of the expected number of real eigenvalues."""
    return 0.5 + math.sqrt(2.0 * n / math.pi) * (
        1.0 - 3.0 / (8.0 * n) - 3.0 / (128.0 * n ** 2)
        + 27.0 / (1024.0 * n ** 3) + 499.0 / (32768.0 * n ** 4))


def ginibre_variance_reals(n):
    """Large-n variance relation for the number of real eigenvalues."""
    return (2.0 - math.sqrt(2.0)) * ginibre_expected_reals(n)


# ---------------------------------------------------------------------------
# partially symmetric real Ginibre ensemble


def partial_alpha(j, l):
    """Monomial-basis alpha entry (row index 2j-1, column index 2l; 1-based)."""
    total = 0.0
    for p in range(1, l + 1):
        total += math.gamma(j + p - 1.5) / (2.0 ** (p - 1) * math.gamma(p))
    return 2.0 ** l * math.gamma(l) * total


def _partial_i(j, tau):
    """Half-line Gaussian-moment integral entering the beta entries (odd j)."""
    if j % 2 == 0:
        raise ValueError("defined for odd j")
    h = (j - 1) // 2
    acc = 0.0
    poch = 1.0
    ratio = (1.0 - tau) / (1.0 + tau)
    for p in range(h + 1):
        if p > 0:
            poch *= (0.5 + p - 1) / p
        acc += (-1.0) ** p * ratio ** p * poch
    val = math.sqrt(2.0 / (1.0 + tau)) * acc - 1.0
    return math.gamma(h + 1) / 2.0 * val


def partial_beta(j, l, tau):
    """Monomial-basis beta entry (row index 2j-1, column index 2l; 1-based)."""
    total = 0.0
    for s in range(2 * j - 1):
        for t in range(2 * l):
            if (s + t) % 2 == 0:
                continue
            total += ((-1.0) ** t * sp.comb(2 * j - 2, s, exact=True)
                      * sp.comb(2 * l - 1, t, exact=True)
                      * math.gamma(j + l - 1.0 - (s + t) / 2.0)
                      * _partial_i(s + t, tau))
    return -4.0 * total


def partial_nu(j):
    """Monomial-basis one-sided integral; nonzero for odd index."""
    return sopoly._gauss_moment(j - 1)


def _partial_beta_block(rows, cols, tau):
    """partial_beta(j, l, tau) for j <= rows and l <= cols, with one I(q) per odd q.

    The (s, t) terms of partial_beta with s + t = q share Gamma(j + l - 1 - q/2)
    and I(q); their binomial weights sum to the x^q coefficient of
    (1 + x)^(2j-2) (1 - x)^(2l-1).
    """
    j = np.arange(1, rows + 1)[:, None, None, None]
    l = np.arange(1, cols + 1)[None, :, None, None]
    s = np.arange(2 * rows - 1)[:, None]
    q = np.arange(1, 2 * (rows + cols) - 2, 2)
    terms = sp.comb(2 * j - 2, s) * sp.comb(2 * l - 1, q - s) * (-1.0) ** (q - s)
    weights = np.sum(terms, axis=2)
    i_q = np.array([_partial_i(k, tau) for k in q])
    gammas = sp.gamma(j[..., 0] + l[..., 0] - 1.0 - q / 2.0)
    return -4.0 * np.sum(weights * gammas * i_q, axis=-1)


def partial_prob_gf(n, tau):
    """Probabilities p_{N,k} for the partially symmetric real Ginibre ensemble."""
    ensembles.spec("partial", n, tau=tau, table=True)
    rows, cols = (n + 1) // 2, n // 2
    alpha = np.array([[partial_alpha(j, l) for l in range(1, cols + 1)]
                      for j in range(1, rows + 1)])
    beta = _partial_beta_block(rows, cols, tau)
    border = np.array([partial_nu(r) for r in range(1, n + 1)])
    return _gf_probs(alpha, alpha + beta, border)


def partial_pnn(n, tau):
    """Probability that all eigenvalues are real, partially symmetric ensemble."""
    return ((1.0 + tau) / 2.0) ** (n * (n - 1) / 4.0)


# ---------------------------------------------------------------------------
# real spherical ensemble


def spherical_bernoulli(n):
    """Success probabilities t for the independent pair-by-pair real/complex choices."""
    log_g = math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0 + 1.0)
    return np.array([math.exp(0.5 * math.log(math.pi) + log_g - sopoly._sph_log_h(n, a))
                     for a in sopoly._sph_pairs(n)])


def spherical_prob_gf(n):
    """Probabilities p_{N,k} of k real eigenvalues for the real spherical ensemble."""
    ts = spherical_bernoulli(n)
    poly = np.array([1.0])
    for t in ts:
        poly = np.convolve(poly, np.array([1.0 - t, 0.0, t]))
    probs = np.zeros(n + 1)
    off = 1 if n % 2 == 1 else 0
    for k, c in enumerate(poly):
        probs[k + off] = c
    return probs


def spherical_expected_reals(n):
    """Expected number of real eigenvalues for the real spherical ensemble."""
    return math.sqrt(math.pi) * math.exp(math.lgamma((n + 1) / 2.0)
                                         - math.lgamma(n / 2.0))


def spherical_variance_reals(n):
    """Variance of the number of real eigenvalues for the real spherical ensemble."""
    log_corr = (2.0 * math.lgamma((n + 1) / 2.0) + math.lgamma(n - 0.5)
                - 2.0 * math.lgamma(n / 2.0) - math.lgamma(float(n)))
    return 2.0 * spherical_expected_reals(n) \
        - 2.0 * math.sqrt(math.pi) * math.exp(log_corr)


def gaussian_local_limit_curve(n):
    """Standardized exact probabilities against the limiting Gaussian profile.

    Returns (x, scaled_p, gauss) where scaled_p should approach gauss.
    """
    probs = spherical_prob_gf(n)
    mean = spherical_expected_reals(n)
    std = math.sqrt(spherical_variance_reals(n))
    ks = np.nonzero(probs > 0)[0]
    xs = (ks - mean) / std
    scaled = std * probs[ks] / 2.0
    gauss = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    return xs, scaled, gauss


# ---------------------------------------------------------------------------
# real truncated orthogonal ensemble


def truncated_theta(coeffs, big_l):
    """Full-interval integral of a polynomial against the truncation weight."""
    cw = sopoly._trunc_cw(big_l)
    total = 0.0
    for m, c in enumerate(np.asarray(coeffs)):
        if c != 0.0 and m % 2 == 0:
            total += c * sp.beta((m + 1) / 2.0, big_l / 2.0)
    return cw * total


def _trunc_alpha_matrix(fam, big_l, n_nodes=240):
    """Alpha block of the truncated family, every entry from one quadrature rule.

    Entry (j, l) is the sign-weighted double integral of polynomials 2j and
    2l+1 against the real weight.
    """
    cw = sopoly._trunc_cw(big_l)
    rule = np.polynomial.legendre.leggauss(n_nodes)
    # substitute y = sin(u) on each half of (-pi/2, pi/2) so the weight is smooth
    u, wu = np.concatenate([sopoly._gl_nodes(lo, hi, rule) for lo, hi in
                            ((-math.pi / 2.0, 0.0), (0.0, math.pi / 2.0))], axis=1)
    y = np.sin(u)
    wts = wu * cw * np.cos(u) ** (big_l - 1)
    m = len(fam)
    coeffs = fam.matrix()
    degs = np.arange(m)
    moments = sopoly._trunc_moment_antiderivative(big_l, degs[:, None], y)
    totals = sopoly._trunc_moment_antiderivative(big_l, degs, 1.0)
    inner = coeffs[0::2] @ (2.0 * cw * moments - cw * totals[:, None])
    outer = coeffs[1::2] @ np.vander(y, m, increasing=True).T
    return (inner * wts) @ outer.T


def truncated_prob_gf(m, big_l):
    """Probabilities p_{M,k} of k real eigenvalues for the truncated ensemble."""
    ensembles.spec("truncated", m, big_l=big_l, table=True)
    fam = sopoly.truncated_family(m, big_l)
    border = np.array([truncated_theta(c, big_l) for c in fam.coeffs])
    return _gf_probs(_trunc_alpha_matrix(fam, big_l),
                     np.diag(fam.norms)[:, :m // 2], border)


def truncated_pmm(m, big_l):
    """Closed-form probability that all eigenvalues of the truncation are real."""
    log_c = (log_vol_orthogonal(big_l) + log_vol_orthogonal(m)
             - log_vol_orthogonal(big_l + m)
             + (m / 2.0) * (big_l * math.log(2.0 * math.pi) - math.lgamma(big_l + 1)))
    log_p = (m * (big_l - 1.0) + m * m / 2.0) * math.log(2.0)
    log_p += log_c
    log_p -= (3.0 * m / 4.0) * math.log(math.pi) + math.lgamma(m + 1.0)
    log_p += (m / 2.0) * (math.log(big_l) + math.lgamma((big_l + 1) / 2.0)
                          - math.lgamma(big_l / 2.0))
    for j in range(m):
        log_p += (2.0 * math.lgamma((big_l + j) / 2.0) + math.lgamma((j + 3) / 2.0)
                  - math.lgamma(big_l + (m + j - 1) / 2.0))
    return math.exp(log_p)


def truncated_expected_reals(m, big_l):
    """Expected number of real eigenvalues from the exact probabilities."""
    probs = truncated_prob_gf(m, big_l)
    return float(np.dot(np.arange(m + 1), probs))


def truncated_expected_reals_strong(m, big_l):
    """Large-order expectation at fixed truncation depth."""
    alpha = m / (m + big_l)
    return 2.0 * sopoly._gamma_ratio(big_l) * math.atanh(math.sqrt(alpha))


def truncated_expected_reals_log(m, big_l):
    """Leading logarithmic growth of the expectation at fixed truncation depth."""
    return sopoly._gamma_ratio(big_l) * math.log(m)


def truncated_expected_reals_weak(m):
    """Expectation in the weakly orthogonal regime of deep truncation."""
    return math.sqrt(2.0 * m / math.pi)


# ---------------------------------------------------------------------------
# dispatch and rational reconstruction


# the lambdas look their builders up at call time, so rebinding a name reaches them
_TABLES = {
    "goe": lambda n, tau, big_l: np.eye(n + 1)[n],
    "ginibre": lambda n, tau, big_l: ginibre_prob_gf(n),
    "partial": lambda n, tau, big_l: partial_prob_gf(n, tau),
    "spherical": lambda n, tau, big_l: spherical_prob_gf(n),
    "truncated": lambda n, tau, big_l: truncated_prob_gf(n, big_l),
}


def prob_table(ensemble, n, tau=None, big_l=None):
    """Exact distribution of the number of real eigenvalues for an ensemble.

    Raises ArithmeticError when the table misses the bound the registry
    states: some p_{N,k} outside [-1e-12, 1 + 1e-12], or a sum more than
    1e-12 from 1.
    """
    ensembles.spec(ensemble, n, tau=tau, big_l=big_l, table=True)
    probs = _TABLES[ensemble](n, tau, big_l)
    miss = max(-probs.min(), probs.max() - 1.0, abs(probs.sum() - 1.0))
    if not miss <= 1e-12:
        raise ArithmeticError("p_{N,k} table outside the 1e-12 bound: min %.3g, "
                              "max %.3g, sum - 1 = %.3g"
                              % (probs.min(), probs.max(), probs.sum() - 1.0))
    return probs


def rational_form(x, max_denominator=2 ** 24, tol=1e-9):
    """Best small-denominator rational approximation, or None outside tolerance."""
    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(float(frac) - x) <= tol * max(1.0, abs(x)):
        return frac
    return None
