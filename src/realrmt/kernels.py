"""Correlation kernels, eigenvalue densities and their scaling limits."""

import functools
import math

import numpy as np

from . import pfaffian, sopoly
from .sopoly import trunc_omega_real, trunc_omega_sq_complex
from .specfun import (lower_gamma_regularized, sp, upper_beta_regularized,
                      upper_gamma_regularized)

C2PI = 1.0 / sopoly.SQRT2PI


# ---------------------------------------------------------------------------
# shared Gaussian helpers


def _hermite_vals(n, x):
    """Physicists' Hermite polynomial values H_0..H_n at x."""
    x = np.asarray(x, dtype=float)
    out = [np.ones_like(x), 2.0 * x]
    for k in range(1, n):
        out.append(2.0 * x * out[k] - 2.0 * k * out[k - 1])
    return out[: n + 1]


def _phi(coeffs, moments, nu, y):
    """(1/2) integral of sgn(y - t) w(t) p(t) dt for each polynomial p.

    coeffs holds ascending-power coefficients, one polynomial per row (or one
    1-d polynomial); moments(count, y) gives the integrals of t^m w(t) up to
    y for m < count, one row per m, at a float y or an array, and nu is
    moments(count, inf), those over the support. The result has shape
    coeffs.shape[:-1] + y.shape.

    At one or two points (rho_1 and rho_2) the moments are taken one float
    at a time: there the numpy calls of the array path cost more than the
    arithmetic (at three or more points the truncated moments' array path
    is the faster).
    """
    y = np.asarray(y, dtype=float)
    count = np.shape(coeffs)[-1]
    if y.size <= 2:
        table = np.array([moments(count, v) for v in y.ravel().tolist()]).reshape(y.size, count).T
    else:
        table = np.reshape(moments(count, y.ravel()), (count, -1))
    table = table - 0.5 * np.reshape(nu, (count, 1))
    return (np.reshape(coeffs, (-1, count)) @ table).reshape(np.shape(coeffs)[:-1] + y.shape)


class _PairSumKernel:
    """Kernel elements at real points from a skew-orthogonal family of order n.

    With q_j = w p_j for the weight w, Phi_j(y) = (1/2) int sgn(y - t) q_j(t) dt,
    r_j the norm of the pair (2j, 2j+1) and c the family's norm factor:

        S(x, y)  =  c sum_j (Phi_2j(x) q_2j+1(y) - Phi_2j+1(x) q_2j(y)) / r_j
        D(x, y)  =  c sum_j (q_2j(x) q_2j+1(y) - q_2j+1(x) q_2j(y)) / r_j
        I~(x, y) = -c sum_j (Phi_2j(x) Phi_2j+1(y) - Phi_2j+1(x) Phi_2j(y)) / r_j
                   - sgn(x - y) / 2,

    so D(x, y) = dS(x, y)/dx and dI~(x, y)/dx = S(y, x), the layout that
    npoint_correlation takes. At odd n the last polynomial p_{n-1} stays
    unpaired: every other p_j loses (nu_j / nu_{n-1}) p_{n-1}, nu_j being the
    integral of q_j, S gains q_{n-1}(y) / nu_{n-1} and I~ gains
    (Phi_{n-1}(x) - Phi_{n-1}(y)) / nu_{n-1} (Sinclair, J. Stat. Phys. 136,
    2009). The family is built once, by the caller, and the weight's moments
    over the support once, here. moments is as for _phi.
    The *_xy methods take values (vectorized, elementwise); s, d and itilde
    take (species, value) points, and block a sequence of them.
    """

    def __init__(self, family, weight, moments, factor):
        n = self.n = len(family)
        coeffs = family.matrix()
        self._nu = np.asarray(moments(n, math.inf), dtype=float)
        self._unpaired = 0.0  # 1 / nu_{n-1} at odd n
        if n % 2:
            nu = coeffs @ self._nu
            coeffs[:-1] -= np.outer(nu[:-1] / nu[-1], coeffs[-1])
            self._unpaired = 1.0 / nu[-1]
        self._coeffs = coeffs
        self._weight = weight
        self._moments = moments
        self._scale = factor / family.norms[: n // 2]

    def _q(self, t):
        t = np.asarray(t, dtype=float)
        powers = np.vander(t.ravel(), self.n, increasing=True)
        return self._weight(t) * (self._coeffs @ powers.T).reshape((self.n,) + t.shape)

    def _phi(self, t):
        return _phi(self._coeffs, self._moments, self._nu, t)

    def _pairs(self, f, g):
        k = 2 * len(self._scale)
        pair = f[0:k:2] * g[1:k:2] - f[1:k:2] * g[0:k:2]
        flat = pair.reshape(len(self._scale), math.prod(pair.shape[1:]))
        return (self._scale @ flat).reshape(pair.shape[1:])

    # S, D and I~ from the family's values q and Phi at x and at y

    def _s(self, phi_x, q_y):
        return self._pairs(phi_x, q_y) + self._unpaired * q_y[-1]

    def _itilde(self, x, y, phi_x, phi_y):
        return (-self._pairs(phi_x, phi_y) - 0.5 * np.sign(x - y)
                + self._unpaired * (phi_x[-1] - phi_y[-1]))

    def s_xy(self, x, y):
        return self._s(self._phi(x), self._q(y))

    def d_xy(self, x, y):
        return self._pairs(self._q(x), self._q(y))

    def itilde_xy(self, x, y):
        return self._itilde(x, y, self._phi(x), self._phi(y))

    def s(self, p, q):
        return self.s_xy(p[1], q[1])

    def d(self, p, q):
        return self.d_xy(p[1], q[1])

    def itilde(self, p, q):
        return self.itilde_xy(p[1], q[1])

    def block(self, points):
        """S, D and I~ at every pair of the points, as k x k arrays
        (element (i, j) is s, d or itilde at points i and j), from one
        evaluation of the family at the k values."""
        t = np.array([p[1] for p in points], dtype=float)
        q, phi = self._q(t), self._phi(t)
        # family index first, then the first point, then the second
        q_x, q_y, phi_x, phi_y = q[:, :, None], q[:, None, :], phi[:, :, None], phi[:, None, :]
        return (self._s(phi_x, q_y), self._pairs(q_x, q_y),
                self._itilde(t[:, None], t[None, :], phi_x, phi_y))


# ---------------------------------------------------------------------------
# Gaussian orthogonal ensemble


def goe_phi(k, x):
    """One-sided Gaussian integral of the k-th skew polynomial."""
    moments = sopoly._gauss_lower_moments
    return _phi(sopoly.goe_family(k + 1).coeffs[k], moments, moments(k + 1, math.inf), x)


def goe_s(n, x, y):
    """Scalar kernel S_N(x, y) for the Gaussian orthogonal ensemble."""
    return GOEKernel(n).s_xy(x, y)


def goe_density(n, x):
    """Real eigenvalue density for the Gaussian orthogonal ensemble, n even
    (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    h = _hermite_vals(n - 1, x)
    c1 = 1.0 / (2.0 ** (n - 2) * math.sqrt(math.pi) * math.gamma(n - 1.0))
    c2 = 1.0 / (2.0 * math.sqrt(math.pi) * math.gamma(n - 1.0))
    first = (n - 1.0) * h[n - 2] ** 2
    if n > 2:
        first = first - (n - 2.0) * h[n - 1] * h[n - 3]
    return (np.exp(-x * x) * c1 * first
            + np.exp(-x * x / 2.0) * c2 * h[n - 1] * goe_phi(n - 2, x))


def goe_d(n, x, y):
    """Antisymmetric partner kernel D_N(x, y) = dS_N(x, y)/dx."""
    return GOEKernel(n).d_xy(x, y)


def goe_itilde(n, x, y):
    """Antisymmetric partner kernel I~_N(x, y) from one-sided integrals."""
    return GOEKernel(n).itilde_xy(x, y)


def goe_semicircle(x):
    """Limiting global density (2/pi) sqrt(1 - x^2) on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 2.0 / math.pi * np.sqrt(np.clip(1 - x * x, 0, None)), 0.0)


class GOEKernel(_PairSumKernel):
    """Kernel elements of the Gaussian orthogonal ensemble at order n:
    weight e^{-x^2/2}, norm factor 1."""

    def __init__(self, n):
        super().__init__(sopoly.goe_family(n), lambda t: np.exp(-t * t / 2.0),
                         sopoly._gauss_lower_moments, 1.0)


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def _gin_tail(n, w, y):
    """Finite-size summand of S at points w (any species) and y (real).

    It is sgn(y)^(n-1) P((n-1)/2, y^2/2) w^(n-1) e^(-w^2/2) times
    2^((n-3)/2) Gamma((n-1)/2) / Gamma(n-1), with every factor but P taken
    as the (n-1)-th power of one base, as w^(n-1) alone overflows near the
    spectrum edge from about n = 300. At n = 1 that product tends to 1,
    leaving e^(-w^2/2).
    """
    if n == 1:
        return np.exp(-w * w / 2.0)
    lead = ((n - 3.0) / 2.0 * math.log(2.0) + math.lgamma((n - 1.0) / 2.0)
            - math.lgamma(n - 1.0))
    inc = lower_gamma_regularized((n - 1.0) / 2.0, y * y / 2.0)
    if isinstance(w, float):  # the exponent is at most 0.23 here, so math.exp cannot overflow
        base = math.copysign(1.0, y) * w * math.exp((lead - w * w / 2.0) / (n - 1))
    else:
        base = np.copysign(1.0, y) * w * np.exp((lead - w * w / 2.0) / (n - 1))
    return inc * base ** (n - 1)


def _rt_erfc(w):
    return math.sqrt(math.erfc(math.sqrt(2.0) * abs(w.imag)))


def _gin_rr_sum(n, x, y):
    """e^(-(x-y)^2/2) Q(n-1, xy) at real x and y.

    It is the sum of e^(-(x^2+y^2)/2) (xy)^j / j! over j < n - 1, whose
    terms are at most 1 in size. (At xy < 0, Q(n-1, xy) alone is e^|xy|
    times an alternating sum: it overflows from |xy| of about 350, where
    e^(-(x-y)^2/2) underflows, and their product is nan.) The terms come
    from their ratio recurrence, starting at the first one above e^-700;
    those before it, found in log space, are below the float range.
    """
    p = x * y
    j, log_size = 0, -(x * x + y * y) / 2.0
    while log_size < -700.0 and p != 0.0 and j < n - 1:
        j += 1
        log_size += math.log(abs(p) / j)
    term = -math.exp(log_size) if p < 0.0 and j % 2 else math.exp(log_size)
    total = 0.0
    for j in range(j, n - 1):
        total += term
        term *= p / (j + 1)
    return total


def ginibre_srr(n, x, y):
    """Real-real kernel element S for the real Ginibre ensemble."""
    return C2PI * (_gin_rr_sum(n, x, y) + _gin_tail(n, x, y))


def ginibre_src(n, x, w):
    """Real-complex kernel element S."""
    q = upper_gamma_regularized(n - 1, complex(x) * np.conj(w))
    wb = np.conj(w)
    return 1j * C2PI * np.exp(-(x - wb) ** 2 / 2.0) * (wb - x) * q * _rt_erfc(w)


def ginibre_scr(n, w, x):
    """Complex-real kernel element S."""
    q = upper_gamma_regularized(n - 1, w * x)
    return C2PI * (np.exp(-(w - x) ** 2 / 2.0) * q + _gin_tail(n, w, x)) * _rt_erfc(w)


def ginibre_scc(n, w, z):
    """Complex-complex kernel element S."""
    zb = np.conj(z)
    q = upper_gamma_regularized(n - 1, w * zb)
    return (1j * C2PI * np.exp(-(w - zb) ** 2 / 2.0) * (zb - w) * q
            * _rt_erfc(w) * _rt_erfc(z))


def ginibre_drr(n, x, y):
    """Real-real kernel element D."""
    return C2PI * (y - x) * _gin_rr_sum(n, x, y)


def ginibre_drc(n, x, w):
    """Real-complex kernel element D."""
    q = upper_gamma_regularized(n - 1, complex(x) * w)
    return C2PI * np.exp(-(x - w) ** 2 / 2.0) * (w - x) * q * _rt_erfc(w)


def ginibre_dcc(n, w, z):
    """Complex-complex kernel element D."""
    q = upper_gamma_regularized(n - 1, w * z)
    return (C2PI * np.exp(-(w - z) ** 2 / 2.0) * (z - w) * q
            * _rt_erfc(w) * _rt_erfc(z))


def _gin_even_terms(top, b):
    """[e^(-b^2/2) b^m / m!!] and [phi_m(b) / (m-1)!!] for even m <= top,
    phi_m(b) = (1/2) integral of sgn(b - t) t^m e^(-t^2/2) dt.

    Their product is e^(-b^2/2) b^m phi_m(b) / m!, the summand of the real
    Ginibre I~; both factors stay bounded, where m! overflows from m = 171
    and phi_m from about m = 300. The first is a Poisson weight in m/2; the
    second is M_m(b) / (m-1)!! - sqrt(2 pi)/2 for the lower Gaussian moment
    M_m, whose scaled recurrence (that of sopoly._gauss_moment_chain divided
    by (m-1)!!) subtracts e^(-b^2/2) b^(m-1) / (m-1)!! at each step.
    """
    w = math.exp(-b * b / 2.0)
    weights, phis = [w], []
    lower, power = math.sqrt(math.pi / 2.0) * math.erfc(-b / math.sqrt(2.0)), b * w
    for m in range(0, top + 1, 2):
        if m:
            lower -= power
            power *= b * b / (m + 1.0)
            weights.append(weights[-1] * b * b / m)
        phis.append(lower - sopoly.SQRT2PI / 2.0)
    return weights, phis


def ginibre_irr(n, x, y):
    """Real-real kernel element I~."""
    top = 2 * ((n - 1) // 2)
    w_x, phi_x = _gin_even_terms(top, x)
    w_y, phi_y = _gin_even_terms(top, y)
    # at odd n each even monomial is skew-orthogonalised against the unpaired
    # x^(n-1), which takes phi_{n-1}(b) / (n-2)!! from each scaled phi_m(b)
    # and adds (phi_{n-1}(x) - phi_{n-1}(y)) / nu_{n-1} to I~, with
    # nu_{n-1} = sqrt(2 pi) (n-2)!!
    s_x = s_y = 0.0
    if n % 2:
        s_x, s_y = phi_x.pop(), phi_y.pop()
        w_x.pop()
        w_y.pop()
    total = sum(wy * (px - s_x) - wx * (py - s_y)
                for wx, px, wy, py in zip(w_x, phi_x, w_y, phi_y))
    return C2PI * (total + s_x - s_y) - 0.5 * np.sign(x - y)


def ginibre_irc(n, x, w):
    """Real-complex kernel element I~."""
    wb = np.conj(w)
    q = upper_gamma_regularized(n - 1, complex(x) * wb)
    return (1j * C2PI * (np.exp(-(x - wb) ** 2 / 2.0) * q + _gin_tail(n, wb, x))
            * _rt_erfc(w))


def ginibre_icc(n, w, z):
    """Complex-complex kernel element I~."""
    wb, zb = np.conj(w), np.conj(z)
    q = upper_gamma_regularized(n - 1, wb * zb)
    return (-C2PI * np.exp(-(wb - zb) ** 2 / 2.0) * (wb - zb) * q
            * _rt_erfc(w) * _rt_erfc(z))


def ginibre_density_real(n, x):
    """Density of real eigenvalues for the real Ginibre ensemble (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    q = upper_gamma_regularized(n - 1, x * x) if n > 1 else 0.0  # Q(0, .) = 0
    return C2PI * (q + _gin_tail(n, x, x))


def ginibre_density_complex(n, w):
    """Density of complex eigenvalues for the real Ginibre ensemble."""
    v = abs(np.imag(w))
    q = upper_gamma_regularized(n - 1, abs(w) ** 2)
    return math.sqrt(2.0 / math.pi) * v * q * sp.erfcx(math.sqrt(2.0) * v)


def ginibre_bulk_block_rr(x, y):
    """Bulk-scaled 2x2 real-real kernel block [[S, D], [I~, S]]."""
    d = x - y
    s = C2PI * math.exp(-d * d / 2.0)
    return np.array([
        [s, d * s],
        [0.5 * np.sign(d) * math.erfc(abs(d) / math.sqrt(2.0)), s]])


def ginibre_bulk_scc(w1, w2):
    """Bulk-scaled complex-complex S element."""
    w2b = np.conj(w2)
    return (1j * C2PI * (w2b - w1) * np.exp(-(w2b - w1) ** 2 / 2.0)
            * _rt_erfc(w1) * _rt_erfc(w2))


def ginibre_edge_srr(u, x, y):
    """Edge-scaled real-real S element at the spectrum edge u = +/- 1."""
    return C2PI * (math.exp(-(x - y) ** 2 / 2.0) / 2.0
                   * math.erfc(u * (x + y) / math.sqrt(2.0))
                   + math.exp(-x * x) / (2.0 * math.sqrt(2.0))
                   * (1.0 + math.erf(u * y)))


def circular_law_density():
    """Uniform scaled complex density inside the unit disk."""
    return 1.0 / math.pi


class GinibreKernel:
    """Kernel-element source for n-point correlations of the real Ginibre ensemble."""

    def __init__(self, n):
        self.n = n

    def s(self, p, q):
        # npoint_correlation's S(p, q) is the element at (q, p)
        p, q = q, p
        if p[0] == "r" and q[0] == "r":
            return ginibre_srr(self.n, p[1], q[1])
        if p[0] == "r":
            return ginibre_src(self.n, p[1], q[1])
        if q[0] == "r":
            return ginibre_scr(self.n, p[1], q[1])
        return ginibre_scc(self.n, p[1], q[1])

    def d(self, p, q):
        if p[0] == "r" and q[0] == "r":
            return ginibre_drr(self.n, p[1], q[1])
        if p[0] == "r":
            return ginibre_drc(self.n, p[1], q[1])
        if q[0] == "r":
            return -ginibre_drc(self.n, q[1], p[1])
        return ginibre_dcc(self.n, p[1], q[1])

    def itilde(self, p, q):
        if p[0] == "r" and q[0] == "r":
            return ginibre_irr(self.n, p[1], q[1])
        if p[0] == "r":
            return ginibre_irc(self.n, p[1], q[1])
        if q[0] == "r":
            return -ginibre_irc(self.n, q[1], p[1])
        return ginibre_icc(self.n, p[1], q[1])

    def block(self, points):
        """S, D and I~ at every pair of the points, as for
        _PairSumKernel.block, one scalar element at a time: S at all k^2
        pairs, D and I~ above the diagonal (both are antisymmetric)."""
        k = len(points)
        s = [[self.s(p, q) for q in points] for p in points]
        d = [[0.0] * k for _ in range(k)]
        itld = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                d[i][j] = self.d(points[i], points[j])
                d[j][i] = -d[i][j]
                itld[i][j] = self.itilde(points[i], points[j])
                itld[j][i] = -itld[i][j]
        return np.array(s), np.array(d), np.array(itld)


# ---------------------------------------------------------------------------
# partially symmetric real Ginibre ensemble


class PartialKernel(_PairSumKernel):
    """Kernel elements of the partially symmetric ensemble at real points, order
    n: weight e^{-x^2/(2(1 + tau))}, norm factor 2."""

    def __init__(self, n, tau):
        c = 1.0 + tau
        super().__init__(sopoly.partial_family(n, tau),
                         lambda t: np.exp(-t * t / (2.0 * c)),
                         lambda count, y: sopoly._gauss_lower_moments(count, y, c), 2.0)


def partial_srr(n, tau, x, y):
    """Real-real kernel element S for the partially symmetric ensemble
    (vectorized in x and y). Like ginibre_srr it carries the weight of x: it is
    PartialKernel's S transposed."""
    return PartialKernel(n, tau).s_xy(y, x)


def partial_density_real(n, tau, x):
    """Density of real eigenvalues for the partially symmetric ensemble
    (vectorized in x)."""
    return PartialKernel(n, tau).s_xy(x, x)


def partial_bulk_srr(tau, delta):
    """Bulk real-real S element as a function of the separation."""
    v = 1.0 - tau * tau
    return math.exp(-delta * delta / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def partial_bulk_density_complex(tau, v):
    """Bulk density of complex eigenvalues at height v above the real axis."""
    c = 1.0 - tau * tau
    return math.sqrt(2.0 / math.pi) * sp.erfcx(math.sqrt(2.0 / c) * v) * v / c


def elliptical_support(n, tau):
    """Semi-axes of the limiting elliptical support."""
    return (1.0 + tau) * math.sqrt(n), (1.0 - tau) * math.sqrt(n)


def elliptical_density(tau):
    """Uniform density inside the scaled ellipse."""
    return 1.0 / (math.pi * (1.0 - tau * tau))


def crossover_srr(alpha, x, y, nodes=400):
    """Weak-asymmetry crossover limit of the scaled real-real S element."""
    tt, ww = sopoly._gl_nodes(0.0, 1.0, np.polynomial.legendre.leggauss(nodes))
    return float(np.sum(ww * np.exp(-alpha ** 2 * tt) * np.cos(math.pi * (x - y) * tt)))


def crossover_scc(alpha, w1, w2, nodes=400):
    """Weak-asymmetry crossover limit of the scaled complex-complex S element."""
    tt, ww = sopoly._gl_nodes(0.0, 1.0, np.polynomial.legendre.leggauss(nodes))
    v1, v2 = abs(np.imag(w1)), abs(np.imag(w2))
    pref = 1j * math.pi * math.sqrt(math.erfc(math.pi * v1 / alpha)
                                    * math.erfc(math.pi * v2 / alpha))
    arg = math.pi * (np.conj(w1) - w2)
    return pref * np.sum(ww * tt * np.exp(-alpha ** 2 * tt ** 2) * np.sin(arg * tt))


# ---------------------------------------------------------------------------
# real spherical ensemble


def spherical_srr(n, t1, t2):
    """Circle-circle kernel element S as a function of the two angles."""
    return sopoly._sph_pre(n) * np.cos((t2 - t1) / 2.0) ** (n - 1)


def spherical_drr(n, t1, t2):
    """Circle-circle kernel element D = dS/d(theta_2)."""
    half = (t2 - t1) / 2.0
    return -sopoly._sph_pre(n) * (n - 1) / 2.0 * np.cos(half) ** (n - 2) * np.sin(half)


def spherical_irr(n, t1, t2):
    """Circle-circle kernel element I~: the integral of S(t1, t) over t from t1
    to t2, plus sgn(t1 - t2)/2 (vectorized in t1 and t2).

    With u = (t2 - t1)/2 and m = N - 1 the integral is 2 S(t, t) times
    int_0^u cos^m v dv = 2^-m sum_k C(m, k) sin((m - 2k) u)/(m - 2k), where
    the k = m/2 term is u. The terms k and m - k are equal, so the sum runs
    over j = m - 2k > 0, doubled.
    """
    m = n - 1
    u = (np.asarray(t2, dtype=float) - t1) / 2.0
    scale = 2.0 * sopoly._sph_pre(n) / 2.0 ** m
    j = np.arange(m, 0, -2)
    total = np.sin(u[..., None] * j) @ [2.0 * scale * math.comb(m, k) / (m - 2 * k)
                                        for k in range(len(j))]
    if m % 2 == 0:
        total = total + scale * math.comb(m, m // 2) * u
    return total + 0.5 * np.sign(t1 - t2)


def spherical_density_real(n):
    """Uniform density of the angles of real eigenvalues on the circle."""
    return sopoly._sph_pre(n)


def spherical_density_complex(n, w):
    """Density of disk-mapped complex eigenvalues at the point w, |w| < 1."""
    r = abs(w)
    u = (1.0 / r - r) / 2.0
    tail = float(sopoly._sph_tail(u, n))
    return (n * (n - 1.0) / (2.0 ** (n + 1) * math.pi * r * r)
            * (1.0 / r + r) ** (n - 2) * (1.0 / r - r) * tail)


def spherical_scc(n, w, z):
    """Disk-disk kernel element S."""
    rw, rz = abs(w), abs(z)
    tw, tz = np.angle(w), np.angle(z)
    jw = float(sopoly._sph_tail((1.0 / rw - rw) / 2.0, n))
    jz = float(sopoly._sph_tail((1.0 / rz - rz) / 2.0, n))
    rr = rw * rz
    plus = rr ** -0.5 * np.exp(1j * (tz - tw) / 2.0) + rr ** 0.5 * np.exp(-1j * (tz - tw) / 2.0)
    minus = rr ** -0.5 * np.exp(1j * (tz - tw) / 2.0) - rr ** 0.5 * np.exp(-1j * (tz - tw) / 2.0)
    return (n * (n - 1.0) / (2.0 ** (n + 1) * math.pi * rw * rz)
            * math.sqrt(jw * jz) * plus ** (n - 2) * minus)


def spherical_bulk_real_scaled(n, x1, x2):
    """Bulk-scaled real-real S element and its Gaussian limit."""
    val = 2.0 / math.sqrt(n) * spherical_srr(n, 2.0 * x1 / math.sqrt(n),
                                             2.0 * x2 / math.sqrt(n))
    lim = C2PI * math.exp(-(x1 - x2) ** 2 / 2.0)
    return val, lim


def spherical_bulk_complex_scaled(n, w1, w2):
    """Edge-of-circle scaled complex-complex S element and its flat limit."""
    z1 = 1.0 + 2j * w1 / math.sqrt(n)
    z2 = 1.0 + 2j * w2 / math.sqrt(n)
    val = 4.0 / n * spherical_scc(n, z1, z2)
    lim = ginibre_bulk_scc(w1, w2)
    return val, lim


def spherical_complex_limit_density(r):
    """Scaled limiting density of complex eigenvalues in the disk."""
    return 1.0 / (math.pi * (1.0 + r * r) ** 2)


class SphericalKernel:
    """Kernel-element source for correlations of real (angle) points. D and I~
    are taken at (q, p): spherical_drr is the derivative of S in its second
    angle, and spherical_irr integrates S over it."""

    def __init__(self, n):
        self.n = n

    def s(self, p, q):
        return spherical_srr(self.n, p[1], q[1])

    def d(self, p, q):
        return spherical_drr(self.n, q[1], p[1])

    def itilde(self, p, q):
        return spherical_irr(self.n, q[1], p[1])

    def block(self, points):
        """S, D and I~ at every pair of the points, as for
        _PairSumKernel.block: each element function once, on the k x k grid."""
        t = np.array([p[1] for p in points], dtype=float)
        t_p, t_q = t[:, None], t[None, :]
        return (spherical_srr(self.n, t_p, t_q), spherical_drr(self.n, t_q, t_p),
                spherical_irr(self.n, t_q, t_p))


# ---------------------------------------------------------------------------
# real truncated orthogonal ensemble


def truncated_d(m, big_l, mu, eta, species=("r", "r")):
    """Kernel element D for the truncated ensemble, any species pair."""
    def omega(val, sp_tag):
        if sp_tag == "r":
            return trunc_omega_real(big_l, val)
        return math.sqrt(trunc_omega_sq_complex(big_l, val))

    prod = mu * eta
    total = 0.0
    coeff = 1.0
    for j in range(m - 1):
        if j > 0:
            coeff *= (big_l + j) / j
        total = total + coeff * prod ** j
    return 2.0 * omega(mu, species[0]) * omega(eta, species[1]) * (eta - mu) * total


def truncated_srr(m, big_l, x, y):
    """Real-real kernel element S for the truncated ensemble. Like ginibre_srr
    it carries the weight of x: it is TruncatedKernel's S transposed."""
    return TruncatedKernel(m, big_l).s_xy(y, x)


def truncated_density_real(m, big_l, x):
    """Density of real eigenvalues for the truncated ensemble, m even
    (vectorized in x)."""
    fam = sopoly.truncated_family(m, big_l)
    r_last = fam.norms[m // 2 - 1]
    moments = functools.partial(sopoly._trunc_moments, big_l)
    phi = _phi(fam.coeffs[m - 2], moments, moments(m - 1, math.inf), x)
    first = 2.0 * trunc_omega_real(big_l, x) / r_last * x ** (m - 1) * phi
    tail = upper_beta_regularized(m - 1, big_l, x * x)
    second = sopoly._gamma_ratio(big_l) * tail / (1.0 - x * x)
    return first + second


def truncated_density_complex(m, big_l, z):
    """Density of complex eigenvalues for the truncated ensemble."""
    r2 = abs(z) ** 2
    tail_beta = upper_beta_regularized(m - 1, big_l + 1, r2)
    return (4.0 * abs(z.imag) * trunc_omega_sq_complex(big_l, z)
            * (1.0 - r2) ** (-(big_l + 1.0)) * tail_beta)


def truncated_strong_density_real(big_l, x):
    """Strong-truncation limit of the real density."""
    return sopoly._gamma_ratio(big_l) / (1.0 - x * x)


def truncated_weak_density_real(m, big_l, x):
    """Weak-truncation limit of the real density on (-sqrt(alpha), sqrt(alpha))."""
    n = m + big_l
    alpha = m / n
    if abs(x) >= math.sqrt(alpha):
        return 0.0
    return math.sqrt((1.0 - alpha) * n / (2.0 * math.pi)) / (1.0 - x * x)


def truncated_weak_srr(m, big_l, x, y):
    """Deep-truncation limit of S_rr at Gaussian scale; matches the Ginibre form."""
    return math.sqrt(big_l) * ginibre_srr(m, x, y)


def truncated_weak_density_complex(m, big_l, z):
    """Deep-truncation limit of the complex density at Gaussian scale."""
    return big_l * ginibre_density_complex(m, z)


def kappa_rr_l1(x, y):
    """Strongly orthogonal (depth-1) limit kernel block for two real points."""
    sx = math.sqrt(1.0 - x * x)
    sy = math.sqrt(1.0 - y * y)
    d = 1.0 - x * y
    return np.array([
        [sy / (sx * d), (x - y) / (sx * sy * d * d)],
        [np.sign(y - x) * math.asin(sx * sy / d), sx / (sy * d)]]) / math.pi


class TruncatedKernel(_PairSumKernel):
    """Kernel elements of the truncated ensemble at real points, order m:
    weight omega on (-1, 1), norm factor 2."""

    def __init__(self, m, big_l):
        super().__init__(sopoly.truncated_family(m, big_l),
                         lambda t: trunc_omega_real(big_l, t),
                         functools.partial(sopoly._trunc_moments, big_l), 2.0)


# ---------------------------------------------------------------------------
# n-point correlations


def npoint_correlation(kernel, points):
    """n-point correlation from the kernel elements via a 2n x 2n Pfaffian.

    points is a sequence of (species, value) pairs with species 'r' or 'c'.
    The 2 x 2 block of points i and j is [[-I~_ij, S_ij], [-S_ji, D_ij]], so
    the matrix is [[-I~, S], [-S^T, D]] with its rows and columns interleaved;
    I~ and D are antisymmetric. All three come from one kernel.block call;
    at one point the Pfaffian of [[0, S], [-S, 0]] is S, so rho_1 takes only
    kernel.s. Coincident points are rejected; use the density functions
    instead. A value that is not finite (an element overflowed) raises
    ArithmeticError.

    Every kernel class here gives s, d and itilde, and block, in one layout:
    at real points D(x, y) = dS(x, y)/dx and dI~(x, y)/dx = S(y, x), so
    S(x, y) carries the weight of y. In the transposed layout rho_3 and up
    are wrong.
    """
    pts = list(points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise ValueError("coincident points are not allowed")
    if n == 1:
        value = float(np.real(kernel.s(pts[0], pts[0])))
    else:
        s, d, itld = kernel.block(pts)
        mat = np.empty((2 * n, 2 * n), dtype=np.result_type(s, d, itld))
        mat[0::2, 0::2] = -itld
        mat[0::2, 1::2] = s
        mat[1::2, 0::2] = -s.T
        mat[1::2, 1::2] = d
        value = float(np.real(pfaffian.pfaffian(pfaffian.SkewMatrix(mat, tol=1e-8))))
    if not math.isfinite(value):
        raise ArithmeticError("n-point correlation is not finite: %r" % value)
    return value
