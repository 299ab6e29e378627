"""Special functions used throughout the package.

Every function takes the integer or half-integer parameters of the five
ensembles and is computed here in plain floats, from finite sums,
recurrences, continued fractions and the math module, with numpy for arrays.
"""

import math

import numpy as np


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


def upper_gamma_regularized(a, x):
    """Regularized upper incomplete gamma Q(a, x) for integer or half-integer a >= 0.

    It is the finite sum of e^(-x) x^j / Gamma(j + 1) over j = a - 1, a - 2,
    ... down to 0 at integer a, and down to 1/2 at half-integer a, where
    erfc(sqrt(x)) is added; at a = 0 the sum is empty, and Q(0, x) = 0.
    Integer a takes real (negative: the analytic continuation), complex or
    array x; half-integer a takes real x >= 0.
    The sum of x^j / Gamma(j + 1) is at most e^|x|, so up to |x| = 700 it is
    formed by recurrence and scaled by e^(-x) once; at larger |x|, where that
    would overflow, each term is formed in log space (the complex log at a
    complex x), to a relative error of about |x| float epsilons. Q(a, +inf) = 0.
    At a complex scalar x the terms reach e^(|x| - Re x) where Q is of order 1, so
    for 0 < |x| < a, Q is 1 - P(a, x) from the tail of the series
    (_lower_gamma_tail), whose terms shrink from the first.
    """
    if a < 0 or int(2 * a) != 2 * a:
        raise ValueError("upper_gamma_regularized requires integer or half-integer a >= 0")
    first = a % 1  # the lowest j: 0 or 1/2
    count = int(a - first)
    if isinstance(x, complex) and not first and 0.0 < abs(x) < count:
        return 1.0 - _lower_gamma_tail(count, x)
    head = erfc_real(x ** 0.5) if first else 0.0
    size = np.max(np.abs(x)) if isinstance(x, np.ndarray) else abs(x)
    if size > 700.0:
        is_complex = np.iscomplexobj(x)
        x = np.asarray(x, dtype=complex if is_complex else float)
        shape = (-1,) + (1,) * x.ndim
        j = (first + np.arange(count)).reshape(shape)
        log_gamma_j = np.reshape([math.lgamma(first + k + 1.0) for k in range(count)], shape)
        sign = 1.0 if is_complex else np.sign(x) ** j  # the complex log carries it
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.where(j > 0, j * np.log(x if is_complex else np.abs(x)), 0.0)
            terms = sign * np.exp(log_x - x - log_gamma_j)  # nan at x = +inf
        return head + np.sum(np.where(x == np.inf, 0.0, terms), axis=0)
    term = 2.0 * (x / math.pi) ** 0.5 if first else 1.0
    total = term if count else 0.0
    for j in range(1, count):
        term = term * x / (first + j)
        total = total + term
    return head + (math.exp(-x) if isinstance(x, float) else np.exp(-x)) * total


def _lower_gamma_tail(a, x):
    """P(a, x) = 1 - Q(a, x), the sum of e^(-x) x^j / j! over j >= a, at an integer
    a and a complex scalar x with 0 < |x| < a. The first term is formed in log
    space, and each next one is the last times x / (j + 1), of modulus below 1, so
    the error is a few roundings of the first term. The sum stops where a term no
    longer moves it, by j = 2a + 100 at the latest."""
    term = complex(np.exp(a * np.log(x) - x - math.lgamma(a + 1.0)))  # inf past the float range
    total = 0j
    for j in range(a, 2 * a + 100):
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        term *= x / (j + 1)
    return total


def lower_gamma_regularized(a, x):
    """Regularized lower incomplete gamma P(a, x) = 1 - Q(a, x), a as for
    upper_gamma_regularized."""
    return 1.0 - upper_gamma_regularized(a, x)


def erfc_real(x):
    """math.erfc at a float, elementwise at an array."""
    return _elementwise(math.erfc, x)


def _elementwise(fn, x):
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def erfcx(t):
    """e^(t^2) erfc(t) at a float t >= 0, past t = 26 from its asymptotic series."""
    return (math.exp(t * t) * math.erfc(t) if t < 26.0 else math.pi ** -0.5 / t
            * sum((-0.5 / t / t) ** k * double_factorial(2 * k - 1) for k in range(8)))


def lower_gamma(a, x):
    """Lower incomplete gamma for integer or half-integer a > 0 (vectorized in x)."""
    return gamma_fn(a) * lower_gamma_regularized(a, x)


def upper_gamma(a, x):
    """Upper incomplete gamma for integer or half-integer a > 0 (vectorized in x)."""
    return gamma_fn(a) * upper_gamma_regularized(a, x)


erfc_fn = erfc_real


def erf_fn(x):
    """Error function: math.erf at a float, elementwise at an array."""
    return _elementwise(math.erf, x)


def reg_incomplete_beta(s, a, b):
    """Regularized incomplete beta I_s(a, b) for integer or half-integer a, b > 0
    with B(a, b) a normal float, at a float s in plain floats, at an array of s
    in [0, 1] elementwise.

    Up to s = (a+1)/(a+b+2) it is s^a (1-s)^b / (a B(a, b)) times the continued
    fraction of DiDonato & Morris (ACM TOMS 18, 1992), by Lentz's method; above,
    it is 1 - I_{1-s}(b, a). The fraction stops once the factor of its last step
    is within 1e-15 of 1 at every element: a 2.2e-16 stop need never come, as
    the factor keeps moving by 2 ulps.
    """
    if min(a, b) <= 0 or (2 * a) % 1 or (2 * b) % 1:
        raise ValueError("reg_incomplete_beta requires integer or half-integer a, b > 0")
    scalar = not isinstance(s, np.ndarray)
    # np.where at an array; at a float, its plain-float form
    where = (lambda cond, u, v: u if cond else v) if scalar else np.where
    s = float(s) if scalar else s.astype(float)
    flip = s > (a + 1.0) / (a + b + 2.0)
    x, p, q = where(flip, 1.0 - s, s), where(flip, b, a), where(flip, a, b)
    c = 1.0
    d = h = 1.0 / (1.0 - (p + q) * x / (p + 1.0))
    for m in range(1, 10000):
        for step in (m * (q - m) * x / ((p + 2 * m - 1.0) * (p + 2 * m)),
                     -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 2 * m + 1.0))):
            d = 1.0 / (1.0 + step * d)
            c = 1.0 + step / c
            h = h * d * c
        error = abs(d * c - 1.0)
        if (error if scalar else error.max(initial=0.0)) <= 1e-15:
            value = x ** p * (1.0 - x) ** q / (p * half_beta(int(2 * a), int(2 * b))) * h
            return where(flip, 1.0 - value, value)
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def upper_beta_regularized(a, b, s):
    """1 - I_s(a, b) for integers a, b >= 1 (vectorized in s in [0, 1]), computed
    as I_{1-s}(b, a), with no cancellation where I_s(a, b) is near 1."""
    return reg_incomplete_beta(1.0 - s, b, a)


def half_beta(p, q):
    """Euler beta B(p/2, q/2) for integers p, q >= 1, to within a few roundings.

    From Gamma(j/2) = (j-2)!! 2^(1 - j/2) (sqrt(pi/2) at odd j), it is
    2 (p-2)!! (q-2)!! / (p+q-2)!! times pi/2 when p and q are both odd: an
    exact ratio of integers, which no argument size overflows.
    """
    ratio = (2 * double_factorial(p - 2) * double_factorial(q - 2)
             / double_factorial(p + q - 2))
    return ratio * (math.pi / 2.0 if p % 2 and q % 2 else 1.0)


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


def hyp2f1(a, b, c, x):
    """Gauss hypergeometric 2F1(a, b; c; x) by direct series to a 1e-13 term, |x| < 1."""
    term = total = 1.0
    for k in range(10000):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        total += term
        if abs(term) <= 1e-13 * max(abs(total), 1e-300):
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
