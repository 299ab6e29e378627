"""Correlation kernels, eigenvalue densities and their scaling limits."""

import cmath
import functools
import math

import numpy as np

from . import pfaffian, sopoly
from .sopoly import trunc_omega_real, trunc_omega_sq_complex
from .specfun import (erfcx, lower_gamma_regularized, upper_beta_regularized,
                      upper_gamma_regularized)

C2PI = 1.0 / sopoly.SQRT2PI
# the most numbers a pair-sum kernel keeps of the point rows it has formed
# (2^20: 16 MiB of complex)
STORED_NUMBERS = 2 ** 20


# ---------------------------------------------------------------------------
# every kernel's skew matrix, and the pair sum of four ensembles


def _point(p):
    """(True, x) at a real point ('r', x), (False, z) at a complex one ('c', z): the key a
    kernel keeps the point's rows under, with -0.0 read as 0.0, so that both are one point.
    A value that is a string or not finite is refused before anything is formed."""
    species, v = p[0], p[1]
    z = math.nan if isinstance(v, str) else complex(v) + 0.0
    if cmath.isfinite(z):
        if species == "r" and not z.imag:
            return True, z.real
        if species == "c" and z.imag > 0.0:
            return False, z
    raise ValueError("%r is not ('r', finite real x) or ('c', finite z), Im z > 0" % (p,))


class _Kernel:
    """S, D and I~ as slices of matrix(points), the interleaved [[-I~, S], [-S^T, D]].

    Every kernel's matrix is exactly skew-symmetric: m == -m.T bit for bit, with a
    zero diagonal, at any points (npoint_correlation takes its Pfaffian unchecked).
    A subclass assembles it in _matrix from the checked points, as _point gives them."""

    def matrix(self, points):
        """The interleaved [[-I~, S], [-S^T, D]] at the points, a fresh array."""
        return self._matrix([_point(p) for p in points])

    def s(self, p, q):
        return self.matrix([p] if p == q else [p, q])[0, -1]

    def d(self, p, q):
        return self.matrix([p, q])[1, 3]

    def itilde(self, p, q):
        return -self.matrix([p, q])[0, 2]

    def block(self, points):
        """S, D and I~ at every pair of the points (k x k each): slices of matrix."""
        m = self.matrix(points)
        return m[0::2, 1::2], m[1::2, 1::2], -m[0::2, 0::2]


class _PairSumKernel(_Kernel):
    """Kernel elements from a skew-orthogonal family of order n.

    With q_j = w p_j for the weight w, Phi_j(y) = (1/2) int sgn(y - t) q_j(t) dt,
    each pair (2j, 2j+1) scaled to skew norm 1 (sopoly.SkewFamily) and c the
    family's norm factor, at real points:

        S(x, y)  =  c sum_j (Phi_2j(x) q_2j+1(y) - Phi_2j+1(x) q_2j(y))
        D(x, y)  =  c sum_j (q_2j(x) q_2j+1(y) - q_2j+1(x) q_2j(y))
        I~(x, y) = -c sum_j (Phi_2j(x) Phi_2j+1(y) - Phi_2j+1(x) Phi_2j(y))
                   - sgn(x - y) / 2,

    so D(x, y) = dS(x, y)/dx and dI~(x, y)/dx = S(y, x), the layout that
    npoint_correlation takes. At odd n the last polynomial p_{n-1} stays
    unpaired, and the family has folded it out of every other member: S gains
    q_{n-1}(y) / nu_{n-1} and I~ (Phi_{n-1}(x) - Phi_{n-1}(y)) / nu_{n-1},
    nu_{n-1} being the integral of q_{n-1}. The caller builds the family once.

    A complex point z enters the same sums with Phi_j(z) = -i conj(q_j(z)), q_j
    from the complex weight, and no sgn or unpaired term. With B the rows of the
    family's point() at each point, the interleaved [[-I~, S], [-S^T, D]] is B J B^T
    plus sgn/2 at real pairs: J is c times the pair-skew form, -1/nu_{n-1} at (n-1, n)
    at odd n. The *_xy methods take real values (elementwise)."""

    def __init__(self, family, factor):
        self.n, self._family, self._factor = len(family), family, factor
        self._unpaired = 1.0 / family.nu[-1] if self.n % 2 else 0.0
        # the product reads the even members of B against the odd ones, weighted by J:
        # c at each pair, -1/nu_{n-1} at odd n for the last row, paired with p_{n-1}
        self._end = self.n + self.n % 2
        weights = np.array([1.0, factor] * (self.n // 2)
                           + ([1.0, -self._unpaired] if self.n % 2 else [1.0]))
        # a point's two rows of B, weighted by J, depend on that point alone: each is formed
        # once and kept, the least recently used dropped past STORED_NUMBERS numbers; the
        # function holds the family and the weights, not the kernel, so that no reference
        # cycle keeps a kernel alive
        self._rows = functools.lru_cache(STORED_NUMBERS // (2 * self.n + 2))(
            lambda p: family.point(*p) * weights)

    def _pairs(self, f, g):  # the members along axis 0
        return self._factor * np.add.reduce(f[:-1:2] * g[1::2] - f[1::2] * g[:-1:2])

    def s_xy(self, x, y):
        q_x, phi_x = self._family.values(x)
        q_y = q_x if y is x else self._family.values(y)[0]
        return self._pairs(phi_x, q_y) + self._unpaired * q_y[-1]

    def d_xy(self, x, y):
        return self._pairs(self._family.values(x)[0], self._family.values(y)[0])

    def itilde_xy(self, x, y):
        phi_x, phi_y = self._family.values(x)[1], self._family.values(y)[1]
        return (-self._pairs(phi_x, phi_y) - 0.5 * np.sign(x - y)
                + self._unpaired * (phi_x[-1] - phi_y[-1]))

    def _matrix(self, pts):
        """B J B^T from the kept rows of each point, plus sgn/2 at real pairs."""
        b = np.concatenate([self._rows(p) for p in pts])
        p = b[:, 0:self._end:2] @ b[:, 1:self._end:2].T
        m = p - p.T  # exactly skew, and the sgn/2 below is mirrored
        reals = [(2 * i, x) for i, (real, x) in enumerate(pts) if real]
        for i, x in reals:
            for j, y in reals:
                if x > y:  # -I~ gains sgn(x - y) / 2 at a real pair
                    m[i, j] += 0.5
                    m[j, i] -= 0.5
        return m


# ---------------------------------------------------------------------------
# Gaussian orthogonal ensemble


def goe_s(n, x, y):
    """Scalar kernel S_N(x, y) for the Gaussian orthogonal ensemble."""
    return GOEKernel(n).s_xy(x, y)


def goe_density(n, x):
    """Real eigenvalue density for the Gaussian orthogonal ensemble, S(x, x)
    of its kernel at any order (vectorized in x)."""
    return GOEKernel(n).s_xy(x, x)


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
        super().__init__(sopoly.goe_family(n), 1.0)


# ---------------------------------------------------------------------------
# real Ginibre ensemble


def _gin_tail(n, w, y):
    """Finite-size summand of S at points w (any species) and y (real), times the
    e^(-v^2), v = Im w, of sqrt(erfc(sqrt(2) v)) = sqrt(erfcx(sqrt(2) v)) e^(-v^2).

    It is sgn(y)^(n-1) P((n-1)/2, y^2/2) w^(n-1) e^(-w^2/2 - v^2) times
    2^((n-3)/2) Gamma((n-1)/2) / Gamma(n-1), with every factor but P taken
    as the (n-1)-th power of one base, as w^(n-1) alone overflows near the
    spectrum edge from about n = 300. At n = 1 that product tends to 1,
    leaving e^(-w^2/2 - v^2).
    """
    if n == 1:
        return np.exp(-w * w / 2.0 - w.imag ** 2)
    lead = ((n - 3.0) / 2.0 * math.log(2.0) + math.lgamma((n - 1.0) / 2.0)
            - math.lgamma(n - 1.0))
    inc = lower_gamma_regularized((n - 1.0) / 2.0, y * y / 2.0)
    if isinstance(w, float):  # the exponent is at most 0.23 here, so math.exp cannot overflow
        base = math.copysign(1.0, y) * w * math.exp((lead - w * w / 2.0) / (n - 1))
    else:
        base = np.copysign(1.0, y) * w * np.exp((lead - w * w / 2.0 - w.imag ** 2) / (n - 1))
    return inc * base ** (n - 1)


def _rt_erfcx(*ws):  # the product of sqrt(erfcx(sqrt(2) |Im w|)) over the points ws
    return math.sqrt(math.prod(erfcx(math.sqrt(2.0) * abs(w.imag)) for w in ws))


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
    return 1j * C2PI * np.exp(-(x - wb) ** 2 / 2.0 - w.imag ** 2) * (wb - x) * q * _rt_erfcx(w)


def ginibre_scr(n, w, x):
    """Complex-real kernel element S."""
    q = upper_gamma_regularized(n - 1, w * x)
    return (C2PI * (np.exp(-(w - x) ** 2 / 2.0 - w.imag ** 2) * q + _gin_tail(n, w, x))
            * _rt_erfcx(w))


def ginibre_scc(n, w, z):
    """Complex-complex kernel element S."""
    zb = np.conj(z)
    q = upper_gamma_regularized(n - 1, w * zb)
    return (1j * C2PI * np.exp(-(w - zb) ** 2 / 2.0 - w.imag ** 2 - z.imag ** 2) * (zb - w)
            * q * _rt_erfcx(w, z))


def ginibre_drr(n, x, y):
    """Real-real kernel element D."""
    return C2PI * (y - x) * _gin_rr_sum(n, x, y)


def ginibre_drc(n, x, w):
    """Real-complex kernel element D."""
    q = upper_gamma_regularized(n - 1, complex(x) * w)
    return C2PI * np.exp(-(x - w) ** 2 / 2.0 - w.imag ** 2) * (w - x) * q * _rt_erfcx(w)


def ginibre_dcc(n, w, z):
    """Complex-complex kernel element D."""
    q = upper_gamma_regularized(n - 1, w * z)
    return (C2PI * np.exp(-(w - z) ** 2 / 2.0 - w.imag ** 2 - z.imag ** 2) * (z - w) * q
            * _rt_erfcx(w, z))


def _gin_even_terms(top, b):
    """[e^(-b^2/2) b^m / m!!] and [phi_m(b) / (m-1)!!] for even m <= top,
    phi_m(b) = (1/2) integral of sgn(b - t) t^m e^(-t^2/2) dt.

    Their product is e^(-b^2/2) b^m phi_m(b) / m!, the summand of the real
    Ginibre I~; both factors stay bounded, where m! overflows from m = 171
    and phi_m from about m = 300. The first is a Poisson weight in m/2; the
    second is M_m(b) / (m-1)!! - sqrt(2 pi)/2 for the lower Gaussian moment
    M_m = (m-1) M_{m-2} - b^(m-1) e^(-b^2/2), whose recurrence divided by
    (m-1)!! subtracts u_{m-1} at each step, u_k = e^(-b^2/2) b^k / k!!, the
    weights being u_m. Each parity of u_{k+2} = u_k b^2 / (k + 2) starts at its
    first term above e^-700, found in log space; those before it are below
    the float range.
    """
    u = [0.0] * (top + 1)
    for k in range(2 if b else 1):
        log_size = (k and math.log(abs(b))) - b * b / 2.0
        while log_size < -700.0 and k + 2 <= top:
            k += 2
            log_size += math.log(b * b / k)
        term = math.copysign(math.exp(log_size), b if k % 2 else 1.0)
        for j in range(k, top + 1, 2):
            u[j] = term
            term *= b * b / (j + 2.0)
    lower, phis = math.sqrt(math.pi / 2.0) * math.erfc(-b / math.sqrt(2.0)), []
    for m in range(0, top + 1, 2):
        lower -= u[m - 1] if m else 0.0
        phis.append(lower - sopoly.SQRT2PI / 2.0)
    return u[::2], phis


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
    return (1j * C2PI * (np.exp(-(x - wb) ** 2 / 2.0 - w.imag ** 2) * q + _gin_tail(n, wb, x))
            * _rt_erfcx(w))


def ginibre_icc(n, w, z):
    """Complex-complex kernel element I~."""
    wb, zb = np.conj(w), np.conj(z)
    q = upper_gamma_regularized(n - 1, wb * zb)
    return (-C2PI * np.exp(-(wb - zb) ** 2 / 2.0 - w.imag ** 2 - z.imag ** 2) * (wb - zb) * q
            * _rt_erfcx(w, z))


def ginibre_density_real(n, x):
    """Density of real eigenvalues for the real Ginibre ensemble (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return C2PI * (upper_gamma_regularized(n - 1, x * x) + _gin_tail(n, x, x))


def ginibre_density_complex(n, w):
    """Density of complex eigenvalues for the real Ginibre ensemble."""
    v = abs(np.imag(w))
    q = upper_gamma_regularized(n - 1, abs(w) ** 2)
    return math.sqrt(2.0 / math.pi) * v * q * erfcx(math.sqrt(2.0) * v)


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
    return (1j * C2PI * (w2b - w1) * np.exp(-(w2b - w1) ** 2 / 2.0 - w1.imag ** 2 - w2.imag ** 2)
            * _rt_erfcx(w1, w2))


def ginibre_edge_srr(u, x, y):
    """Edge-scaled real-real S element at the spectrum edge u = +/- 1."""
    return C2PI * (math.exp(-(x - y) ** 2 / 2.0) / 2.0
                   * math.erfc(u * (x + y) / math.sqrt(2.0))
                   + math.exp(-x * x) / (2.0 * math.sqrt(2.0))
                   * (1.0 + math.erf(u * y)))


def circular_law_density():
    """Uniform scaled complex density inside the unit disk."""
    return 1.0 / math.pi


# ---------------------------------------------------------------------------
# partially symmetric real Ginibre ensemble


class PartialKernel(_PairSumKernel):
    """Kernel elements of the partially symmetric ensemble at real and complex
    points, order n: weight e^{-x^2/(2(1 + tau))}, norm factor 2."""

    def __init__(self, n, tau):
        super().__init__(sopoly.partial_family(n, tau), 2.0)


class GinibreKernel(PartialKernel):
    """The real Ginibre kernel: the partial one at tau = 0 (closed forms: ginibre_*)."""

    def __init__(self, n):
        super().__init__(n, 0.0)


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
    return math.sqrt(2.0 / math.pi) * erfcx(math.sqrt(2.0 / c) * v) * v / c


def elliptical_support(n, tau):
    """Semi-axes of the limiting elliptical support."""
    return (1.0 + tau) * math.sqrt(n), (1.0 - tau) * math.sqrt(n)


def elliptical_density(tau):
    """Uniform density inside the scaled ellipse."""
    return 1.0 / (math.pi * (1.0 - tau * tau))


@functools.cache
def _crossover_rule():  # the 400-node Gauss-Legendre rule on [0, 1] of the crossover limits
    return sopoly._gl_nodes(0.0, 1.0, np.polynomial.legendre.leggauss(400))


def crossover_srr(alpha, x, y):
    """Weak-asymmetry limit int_0^1 e^{-alpha^2 t^2} cos(pi (x - y) t) dt of
    S(x/r, y/r)/r for the partially symmetric ensemble at order N and
    tau = 1 - alpha^2/N, r = sqrt(N)/pi being the real density at 0 as tau -> 1."""
    tt, ww = _crossover_rule()
    return float(np.sum(ww * np.exp(-(alpha * tt) ** 2) * np.cos(math.pi * (x - y) * tt)))


def crossover_scc(alpha, w1, w2):
    """Weak-asymmetry crossover limit of the scaled complex-complex S element."""
    tt, ww = _crossover_rule()
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


class SphericalKernel(_Kernel):
    """The real spherical kernel at real (angle) points, D and I~ taken at (q, p):
    spherical_drr is dS/d(theta_2), and spherical_irr integrates S over theta_2."""

    def __init__(self, n):
        self.n = n

    def _matrix(self, pts):
        if not all(p[0] for p in pts):
            raise ValueError("the spherical kernel has no complex points")
        t = np.array([p[1] for p in pts])  # t[:, None] is the row point's angle
        m = np.empty((2 * len(t), 2 * len(t)))
        m[0::2, 1::2] = s = spherical_srr(self.n, t[:, None], t)
        m[1::2, 0::2] = -s.T
        m[1::2, 1::2] = _skew_part(spherical_drr(self.n, t, t[:, None]))
        m[0::2, 0::2] = _skew_part(-spherical_irr(self.n, t, t[:, None]))
        return m


def _skew_part(b):  # exactly skew, with a zero diagonal; b itself where b is exactly skew
    return (b - b.T) / 2.0


# ---------------------------------------------------------------------------
# real truncated orthogonal ensemble


def truncated_srr(m, big_l, x, y):
    """Real-real kernel element S for the truncated ensemble. Like ginibre_srr
    it carries the weight of x: it is TruncatedKernel's S transposed."""
    return TruncatedKernel(m, big_l).s_xy(y, x)


def truncated_density_real(m, big_l, x):
    """Density of real eigenvalues for the truncated ensemble, S(x, x) of its
    kernel at any order (vectorized in x); 0 off [-1, 1]."""
    return TruncatedKernel(m, big_l).s_xy(x, x)


def truncated_density_complex(m, big_l, z):
    """Density of complex eigenvalues for the truncated ensemble; 0 at m = 1."""
    if m == 1:
        return 0.0
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
        super().__init__(sopoly.truncated_family(m, big_l), 2.0)


# ---------------------------------------------------------------------------
# n-point correlations


def npoint_correlation(kernel, points):
    """n-point correlation at points, (species, value) pairs with species 'r' or 'c':
    the Pfaffian of kernel.matrix(points), the interleaved [[-I~, S], [-S^T, D]] whose
    2 x 2 block at points i and j is [[-I~_ij, S_ij], [-S_ji, D_ij]]; at one point it
    is S, the (0, 1) entry, and at none 1.0, the empty Pfaffian. At real points
    D(x, y) = dS(x, y)/dx and dI~(x, y)/dx = S(y, x), so S(x, y) carries the weight
    of y (in the transposed layout rho_3 and up are wrong). Coincident points are
    rejected (use the density functions instead), as is a point that is not finite,
    and a value that is not finite (an element overflowed) raises ArithmeticError.

    Each point is checked once, and the checked points go to the kernel's _matrix,
    the assembly that matrix calls after its own check. It relies on the kernel's
    contract that matrix is exactly skew-symmetric, and takes the Pfaffian with no
    check or copy (pfaffian.pfaffian_rows): at two points the order-4 closed form, at
    three or more the skew elimination."""
    pts = [_point(p) for p in points]
    if not pts:
        return 1.0
    if len({p[1] for p in pts}) < len(pts):
        raise ValueError("coincident points are not allowed")
    m = kernel._matrix(pts)
    value = (m[0, 1] if len(pts) == 1 else pfaffian.pfaffian_rows(m.tolist())).real
    if not math.isfinite(value):
        raise ArithmeticError("n-point correlation is not finite: %r" % value)
    return float(value)
