"""Exact probabilities of k real eigenvalues and related closed forms."""

import math
from fractions import Fraction

import numpy as np

from . import ensembles, sopoly
from .specfun import half_beta, hyp2f1, log_vol_orthogonal


# ---------------------------------------------------------------------------
# p_{N,k} as a product of independent two-valued steps


def _bernoulli_table(mu, parity):
    """p_{N,k} when Z(s) / Z(1) = prod_i (1 - mu_i + mu_i s^2), times s at odd N.

    Each pair of eigenvalues is real with probability mu_i, independently of
    the others. The product adds no negative terms, so each p_{N,k} is as
    accurate, relatively, as the mu_i it is built from. Raises ArithmeticError
    for a mu_i off the real interval [0, 1] by more than 1e-12, and clips the
    rest to it.
    """
    mu = np.asarray(mu, dtype=complex)
    bad = (abs(mu.imag) > 1e-12) | (mu.real < -1e-12) | (mu.real > 1.0 + 1e-12)
    if bad.any():
        raise ArithmeticError("Bernoulli factor mu outside [0, 1]: %s" % mu[bad])
    poly = np.array([1.0])
    for t in np.clip(mu.real, 0.0, 1.0):
        poly = np.convolve(poly, [1.0 - t, 0.0, t])
    return np.concatenate([np.zeros(parity), poly])


def _sign_table(m, r, g, u):
    """J[a, b] = double integral of sgn(y - x) x^a y^b w(x) w(y), for a, b < m.

    Integrating by parts in x gives J(a, b) = r(a) J(a-2, b) - 2 g(a) u(a+b-1),
    u(k) being the k-th moment of w^2 up to the factor in g, with J(-1, .) = 0
    and, by antisymmetry, J(0, b) = -J(b, 0).
    """
    uk = np.array([u(k) for k in range(2 * m)])
    table = np.zeros((m + 1, m))  # table[-1] is J(-1, .) = 0
    for _ in range(2):
        # the first sweep gets column 0 right, as it reads only J(0, 0) = 0
        # from row 0; the second starts from the row 0 that column gives
        table[0] = -table[:m, 0]
        for a in range(1, m):
            table[a] = r(a) * table[a - 2] - 2.0 * g(a) * uk[a - 1:a - 1 + m]
    return table[:m]


def _gauss_sign_table(m, c):
    """Sign table of w(x) = e^{-x^2/(2c)}: x^a w = -c x^(a-1) w', and w^2 has
    the Gaussian moments of variance c/2."""
    return _sign_table(m, lambda a: c * (a - 1), lambda a: c,
                       lambda k: sopoly._gauss_moment(k, c / 2.0))


def _trunc_sign_table(m, big_l):
    """Sign table of w(x) = c_w (1 - x^2)^(L/2-1): (L+a-1) x^a w is (a-1) x^(a-2) w
    minus the derivative of x^(a-1) (1 - x^2) w, which vanishes at x = +-1."""
    cw2 = sopoly._trunc_cw(big_l) ** 2
    return _sign_table(m, lambda a: (a - 1.0) / (big_l + a - 1.0),
                       lambda a: cw2 / (big_l + a - 1.0),
                       lambda k: 0.0 if k % 2 else half_beta(k + 1, 2 * big_l))


def _skew_bernoulli(family, sgn, moments):
    """Success probabilities mu_i of the pair steps of a skew-orthogonal family.

    sgn is the monomial sign table of the real weight and moments its
    monomial moments. In the skew basis Z(s) / Z(1) = det(I + (s-1) M), so
    the mu_i are the eigenvalues of M = D^(-1/2) alpha D^(-1/2), D = diag(norms),
    alpha pairing polynomials 2j and 2l+1. At odd N one Schur step folds in the
    s-free border column of the even polynomials' moments. M is not symmetric
    at odd N, nor for the truncated weight.
    """
    c = family.matrix()
    h = len(family) // 2
    alpha = c[0::2] @ sgn @ c[1::2].T
    if len(family) % 2:
        b = c[0::2] @ moments
        alpha = alpha[:h] - np.outer(b[:h], alpha[h]) / b[h]
    scale = 1.0 / np.sqrt(family.norms[:h])
    return np.linalg.eigvals(scale[:, None] * alpha * scale)


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def ginibre_alpha(j, l):
    """Skew-basis alpha entry pairing polynomials 2j and 2l+1 (0-based pairs)."""
    return 2.0 * math.gamma(j + l + 0.5)


def ginibre_nu(j):
    """Integral of x^j against the Gaussian weight e^{-x^2/2}."""
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
    mu = _skew_bernoulli(sopoly.ginibre_family(n), _gauss_sign_table(n, 1.0),
                         [ginibre_nu(a) for a in range(n)])
    return _bernoulli_table(mu, n % 2)


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
            total += ((-1.0) ** t * math.comb(2 * j - 2, s)
                      * math.comb(2 * l - 1, t)
                      * math.gamma(j + l - 1.0 - (s + t) / 2.0)
                      * _partial_i(s + t, tau))
    return -4.0 * total


def partial_nu(j):
    """Monomial-basis one-sided integral; nonzero for odd index."""
    return sopoly._gauss_moment(j - 1)


def partial_prob_gf(n, tau):
    """Probabilities p_{N,k} for the partially symmetric real Ginibre ensemble."""
    ensembles.spec("partial", n, tau=tau, table=True)
    c = 1.0 + tau
    mu = _skew_bernoulli(sopoly.partial_family(n, tau), _gauss_sign_table(n, c),
                         [sopoly._gauss_moment(a, c) for a in range(n)])
    return _bernoulli_table(mu, n % 2)


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
    return _bernoulli_table(spherical_bernoulli(n), n % 2)


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
            total += c * half_beta(m + 1, big_l)
    return cw * total


def truncated_prob_gf(m, big_l):
    """Probabilities p_{M,k} of k real eigenvalues for the truncated ensemble."""
    ensembles.spec("truncated", m, big_l=big_l, table=True)
    mu = _skew_bernoulli(sopoly.truncated_family(m, big_l), _trunc_sign_table(m, big_l),
                         [truncated_theta(e, big_l) for e in np.eye(m)])
    return _bernoulli_table(mu, m % 2)


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
    "goe": lambda n, tau, big_l: _bernoulli_table(np.ones(n // 2), n % 2),
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
