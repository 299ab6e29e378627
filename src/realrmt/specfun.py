"""Special functions used throughout the package."""

import math

import numpy as np
from scipy import special as sp


def gamma_fn(x):
    """Gamma function for x > 0; raises ValueError off-domain, OverflowError for x >= 171.7."""
    if x <= 0:
        raise ValueError("gamma_fn requires x > 0, got %r" % (x,))
    return math.gamma(x)


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if x <= 0:
        raise ValueError("log_gamma requires x > 0, got %r" % (x,))
    return math.lgamma(x)


def upper_gamma_regularized(n, x):
    """Regularized upper incomplete gamma Q(n, x) for integer n >= 1.

    For real x >= 0 this is scipy's gammaincc. For negative or complex x it
    is the finite sum Q(n, x) = e^(-x) * sum_{j<n} x^j / j!, the analytic
    continuation, by direct recurrence.
    """
    if n < 1 or int(n) != n:
        raise ValueError("upper_gamma_regularized requires integer n >= 1")
    n = int(n)
    if isinstance(x, complex) or x < 0:
        term = 1.0 + 0j if isinstance(x, complex) else 1.0
        total = term
        for j in range(1, n):
            term = term * x / j
            total += term
        return np.exp(-x) * total
    return float(sp.gammaincc(n, x))


def lower_gamma_regularized(n, x):
    """Regularized lower incomplete gamma P(n, x) = 1 - Q(n, x)."""
    return 1.0 - upper_gamma_regularized(n, x)


def lower_gamma(a, x):
    """Lower incomplete gamma for real a > 0 (vectorized in x)."""
    return sp.gammainc(a, x) * sp.gamma(a)


def upper_gamma(a, x):
    """Upper incomplete gamma for real a > 0 (vectorized in x)."""
    return sp.gammaincc(a, x) * sp.gamma(a)


def erfc_fn(x):
    """Complementary error function."""
    return sp.erfc(x)


def erf_fn(x):
    """Error function."""
    return sp.erf(x)


def reg_incomplete_beta(s, a, b):
    """Regularized incomplete beta I_s(a, b)."""
    return sp.betainc(a, b, s)


def double_factorial(n):
    """Double factorial with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double_factorial undefined for n < -1")
    if n <= 0:
        return 1
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def hyp2f1(a, b, c, x, tol=1e-13, max_terms=10000):
    """Gauss hypergeometric 2F1(a, b; c; x) by direct series, |x| < 1."""
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            return total
    raise RuntimeError("hyp2f1 series failed to converge")


def selberg_value(n, l1, l2, lam):
    """Selberg integral S_n(l1, l2, lam)."""
    log_s = 0.0
    for j in range(n):
        log_s += (
            math.lgamma(l1 + 1 + j * lam)
            + math.lgamma(l2 + 1 + j * lam)
            + math.lgamma(1 + (j + 1) * lam)
            - math.lgamma(l1 + l2 + 2 + (n + j - 1) * lam)
            - math.lgamma(1 + lam)
        )
    return math.exp(log_s)


def log_vol_orthogonal(n):
    """Log volume of the orthogonal group O(n)."""
    if n < 1 or int(n) != n:
        raise ValueError("log_vol_orthogonal requires integer n >= 1")
    n = int(n)
    log_v = n * math.log(2.0) + n * (n + 1) / 4.0 * math.log(math.pi)
    log_v -= sum(math.lgamma(j / 2.0) for j in range(1, n + 1))
    return log_v


def vol_orthogonal(n):
    """Volume of the orthogonal group O(n)."""
    return math.exp(log_vol_orthogonal(n))
