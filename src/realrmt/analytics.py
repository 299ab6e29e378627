"""Exact probabilities of k real eigenvalues and related closed forms."""

import math

import numpy as np

from . import ensembles, sopoly
from .specfun import half_beta, hyp2f1, log_vol_orthogonal


# ---------------------------------------------------------------------------
# p_{N,k} as a product of independent two-valued steps


def _bernoulli_table(mu, parity):
    """p_{N,k} when Z(s) / Z(1) = prod_i (1 - mu_i + mu_i s^2), times s at odd N.

    Each pair of eigenvalues is real with probability mu_i, independently of
    the others. The product adds no negative terms, so each p_{N,k} is as
    accurate, relatively, as the mu_i it is built from. It runs over Python
    floats, one step per mu_i, c_k = p_k (1 - t) + p_{k-2} t: the two-term
    sums of np.convolve with [1 - t, 0, t], so the table is the same bit for
    bit. Raises ArithmeticError for a mu_i off the real interval [0, 1] by
    more than 1e-12, and clips the rest to it.
    """
    even = [1.0]  # the coefficients of s^0, s^2, ...; those of odd powers are 0
    for t in np.asarray(mu).tolist():
        t = complex(t)
        if abs(t.imag) > 1e-12 or t.real < -1e-12 or t.real > 1.0 + 1e-12:
            raise ArithmeticError("Bernoulli factor mu outside [0, 1]: %r" % (t,))
        t = min(max(t.real, 0.0), 1.0)
        u = 1.0 - t
        even = ([even[0] * u] + [a * u + b * t for a, b in zip(even[1:], even)]
                + [even[-1] * t])
    probs = [0.0] * (2 * len(even) - 1 + parity)
    probs[parity::2] = even
    return np.array(probs)


def _gauss_factor(m, tau):
    """K with K^T K = alpha over the even members 0 .. 2m-2 of partial_family
    (tau = 0: ginibre_family), in the scaled basis: upper triangular and
    positive on and above the diagonal, as _trunc_factor for truncated.

    With c = 1 + tau, s = c/2 and d = s - tau = (1 - tau)/2, the generating
    functions e^{xt - tau t^2/2} = e^{xt - s t^2/2} e^{d t^2/2} give
    b_2j = sum_i (2j)! / ((j-i)! (2i)!) (d/2)^(j-i) h_2i in the monic
    Hermite polynomials h_i of e^{-x^2/c}, whose squared norms are
    sqrt(pi c) i! s^i. The odd member's Phi is -c b_2l w, so alpha_jl is
    2c times the integral of b_2j b_2l e^{-x^2/c}, and over the pair norms
    K_ij = s^(i + 1/4) (d/2)^(j-i) sqrt((2j)! / (2i)!) / (j-i)!, i <= j.
    """
    s, half_d = (1.0 + tau) / 2.0, (1.0 - tau) / 4.0
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * m)])
    i, j = np.ogrid[:m, :m]
    gap = np.maximum(j - i, 0)
    log_k = ((i + 0.25) * math.log(s) + gap * math.log(half_d)
             + 0.5 * (lg[2 * j] - lg[2 * i]) - lg[gap])
    return np.where(j >= i, np.exp(log_k), 0.0)


def _factor_mu(k, nu):
    """mu_i from an upper-triangular factor K (K^T K similar to alpha) of Ginibre,
    partial or truncated: at even N (nu None) the squared singular values of K.
    At odd N, nu the even members' integrals in the basis of K's columns (_odd_nu,
    of which only the ratios nu_j / nu_h count), K~ takes (nu_j / nu_h) column h
    from each column j < h = len(nu) - 1 (the fold of sopoly.SkewFamily, made
    here with no family built), the folded alpha is similar to K~^T K and
    K[h, :h] = 0, so the mu_i are the eigenvalues of the h x h K K~^T, which
    keeps more of their relative accuracy at tau < 0 than the other order."""
    if nu is None:
        return np.linalg.svd(k, compute_uv=False) ** 2
    h = len(nu) - 1
    folded = k[:h, :h] - np.outer(k[:h, h], nu[:h] / nu[h])
    return np.linalg.eigvals(k[:h, :h] @ folded.T)


def _odd_nu(h, big_l=None):
    """nu_0, nu_2, ..., nu_2h-2, the even members' integrals that the fold at odd N
    takes, in the basis of _gauss_factor (Ginibre, partial) or, with big_l, of
    _trunc_factor, up to one scale, the only freedom _factor_mu leaves them:

        (nu_2j+2 / nu_2j)^2 = (2j + 1) / (2j + 2),

    times (L + 2j) / (L + 2j + 1) for truncated. In _gauss_factor's basis nu_2j is E[b_2j] = (2j - 1)!! over the
    column scale sqrt((2j)!), whatever tau: b_2j integrates against the Gaussian of
    variance c, and c - tau = 1 turns the generating function into e^{t^2/2}. In
    _trunc_factor's basis it is truncated_family's nu_2j over sqrt(L + 2j). So no
    table builds a sopoly.SkewFamily."""
    nu = [1.0]
    for j in range(h - 1):
        sq = (2 * j + 1.0) / (2 * j + 2)
        if big_l is not None:
            sq *= (big_l + 2 * j) / (big_l + 2 * j + 1.0)
        nu.append(nu[-1] * math.sqrt(sq))
    return np.array(nu)


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def ginibre_alpha(j, l):
    """Skew-basis alpha entry pairing polynomials 2j and 2l+1 (0-based pairs)."""
    return 2.0 * math.gamma(j + l + 0.5)


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
    """Probabilities p_{N,k} of k real eigenvalues for the real Ginibre ensemble, from
    the mu_i of _gauss_factor at tau = 0; at odd N the fold takes _odd_nu's nu."""
    ensembles.spec("ginibre", n, table=True)
    rows = (n + 1) // 2
    nu = _odd_nu(rows) if n % 2 else None
    return _bernoulli_table(_factor_mu(_gauss_factor(rows, 0.0), nu), n % 2)


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
    """Probabilities p_{N,k} for the partially symmetric real Ginibre ensemble, from
    the mu_i of _gauss_factor; at odd N the fold takes _odd_nu's closed-form nu."""
    ensembles.spec("partial", n, tau=tau, table=True)
    rows = (n + 1) // 2
    nu = _odd_nu(rows) if n % 2 else None
    return _bernoulli_table(_factor_mu(_gauss_factor(rows, tau), nu), n % 2)


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


def truncated_prob_gf(m, big_l):
    """Probabilities p_{M,k} of k real eigenvalues for the truncated ensemble, from
    the mu_i of _trunc_factor; at odd M the fold takes _odd_nu's closed-form nu_j,
    the family's over sqrt(L + 2j) in the basis of _trunc_factor."""
    ensembles.spec("truncated", m, big_l=big_l, table=True)
    rows = (m + 1) // 2
    nu = _odd_nu(rows, big_l) if m % 2 else None
    return _bernoulli_table(_factor_mu(_trunc_factor(rows, big_l), nu), m % 2)


def _trunc_factor(h, big_l):
    """K with K^T K = D^(1/2) alpha D^(-1/2), D = diag(1 / (L + 2j)), over the
    even members 0 .. 2h-2 of truncated_family in its scaled basis: upper
    triangular and positive on and above the diagonal.

    alpha_jl = 2 c_w^2 G_jl / (sqrt(r_j r_l) (L + 2l)), r_j = L! (2j)! / (L + 2j)!,
    as Phi_2l+1 = -c_w x^2l (1 - x^2)^(L/2) / (L + 2l); G_jl integrates x^(2j+2l)
    against (1 - x^2)^(L-1), the Gegenbauer weight of lam = L - 1/2. There
    x^2j = sum_i c_ij C_2i, c_ij = (2j)! (lam + 2i) / (4^j (j-i)! (lam)_(i+j+1)) > 0,
    so K_ij = sqrt(2 c_w^2 / ((L + 2j) r_j)) c_ij ||C_2i||, with ||C_2i||^2 =
    pi 2^(1-2 lam) Gamma(2i + 2 lam) / ((2i)! (2i + lam) Gamma(lam)^2). From
    K_00^2 = 2 c_w^2 B(1/2, L) / L, each step along row 0 or down a column is a
    ratio of order 1, so no entry cancels log-gammas of order L log L.
    """
    lam, k = big_l - 0.5, [[0.0] * h for _ in range(h)]
    top = sopoly._trunc_cw(big_l) * math.sqrt(2.0 * half_beta(1, 2 * big_l) / big_l)
    for j in range(h):
        k[0][j] = top
        for i in range(1, j + 1):
            k[i][j] = k[i - 1][j] * (j - i + 1.0) / (lam + i + j) * math.sqrt(
                (lam + 2 * i) * (2 * lam + 2 * i - 2) * (2 * lam + 2 * i - 1)
                / ((lam + 2 * i - 2) * (2 * i - 1.0) * (2 * i)))
        top *= (math.sqrt((big_l + 2 * j) * (big_l + 2 * j + 1.0) * (2 * j + 1.0) * (2 * j + 2.0))
                / (4.0 * (j + 1) * (lam + j + 1)))
    return np.array(k)


def truncated_pmm(m, big_l):
    """Closed-form probability that all eigenvalues of the truncation are real.

    Its log-gamma sums cancel, so its rounding grows with L: against a 40-digit
    evaluation it is within 9e-13 relative at L = 64, 2.3e-10 at L = 1000 and
    1.4e-8 at L = 5000. It is a reference for small L, not for large."""
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
    1e-12 from 1. A partial table also raises it when its p_{N,N} is more
    than 1e-9 relative from partial_pnn: at odd N and tau < 0 the factor
    loses the small mu_i (p_{19,19} at tau = -0.99 would print as 0).
    """
    ensembles.spec(ensemble, n, tau=tau, big_l=big_l, table=True)
    probs = _TABLES[ensemble](n, tau, big_l)
    miss = max(-probs.min(), probs.max() - 1.0, abs(probs.sum() - 1.0))
    if not miss <= 1e-12:
        raise ArithmeticError("p_{N,k} table outside the 1e-12 bound: min %.3g, "
                              "max %.3g, sum - 1 = %.3g"
                              % (probs.min(), probs.max(), probs.sum() - 1.0))
    if ensemble == "partial":
        pnn = partial_pnn(n, tau)
        if not abs(probs[-1] - pnn) <= 1e-9 * pnn:
            raise ArithmeticError("p_{N,N} = %.6g is more than 1e-9 relative from its "
                                  "closed form %.6g" % (probs[-1], pnn))
    return probs


def rational_form(x, max_denominator=2 ** 24):
    """Best small-denominator rational approximation, or None beyond 1e-9 (relative)."""
    from fractions import Fraction  # here, so that no command loads fractions

    frac = Fraction(x).limit_denominator(max_denominator)
    if abs(float(frac) - x) <= 1e-9 * max(1.0, abs(x)):
        return frac
    return None
