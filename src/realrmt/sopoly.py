"""Skew-orthogonal polynomial families of the five ensembles, with their weights,
weight moments and normalising constants."""

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .specfun import double_factorial, erfc_real, half_beta, sp

SQRT2PI = math.sqrt(2.0 * math.pi)


class PolynomialFamily:
    """A family of skew-orthogonal polynomials.

    coeffs[j] holds the ascending-power coefficients of the j-th polynomial;
    norms[k] is the skew inner product of the pair (2k, 2k+1).
    """

    def __init__(self, ensemble, coeffs, norms, params=None):
        self.ensemble = ensemble
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        self.norms = np.asarray(norms, dtype=float)
        self.params = dict(params or {})

    def __len__(self):
        return len(self.coeffs)

    def matrix(self):
        """The coefficients as one square array, polynomial j in row j."""
        out = np.zeros((len(self), len(self)))
        for j, c in enumerate(self.coeffs):
            out[j, :len(c)] = c
        return out


def eval_poly(coeffs, x):
    """Evaluate ascending-power coefficients at x (Horner)."""
    return P.polyval(x, np.asarray(coeffs))


def _monomial(k):
    c = np.zeros(k + 1)
    c[k] = 1.0
    return c


def _hermite_coeffs(n_max):
    """Coefficient arrays of physicists' Hermite polynomials H_0..H_n_max."""
    hs = [np.array([1.0]), np.array([0.0, 2.0])]
    for n in range(1, n_max):
        nxt = 2.0 * np.concatenate(([0.0], hs[n])) - 2.0 * n * np.pad(hs[n - 1], (0, 2))
        hs.append(nxt)
    return hs[: n_max + 1]


def _skew_family(ensemble, base, step, norms, params=None):
    """Family whose odd members are p_j = base_j - step(k) base_{j-2}, k = (j-1)/2 >= 1.

    Even members are the base polynomials themselves.
    """
    coeffs = []
    for j, c in enumerate(base):
        k = (j - 1) // 2
        if j % 2 == 1 and k > 0:
            c = P.polysub(c, step(k) * base[j - 2])
        coeffs.append(c)
    return PolynomialFamily(ensemble, coeffs, norms, params)


def goe_family(n):
    """Skew-orthogonal polynomials and norms for the Gaussian orthogonal ensemble."""
    hs = _hermite_coeffs(n)
    norms = [math.gamma(2 * k + 1) * math.sqrt(math.pi) / 2.0 ** (2 * k)
             for k in range((n + 1) // 2)]
    return _skew_family("goe", [hs[j] / 2.0 ** j for j in range(n)], lambda k: k, norms)


def ginibre_family(n):
    """Skew-orthogonal polynomials and norms for the real Ginibre ensemble."""
    return _skew_family("ginibre", [_monomial(j) for j in range(n)],
                        lambda k: 2.0 * k, _ginibre_norms((n + 1) // 2))


def _partial_base(n, tau):
    """Rescaled Hermite-type polynomials C_j(z) with C_{j+1} = z C_j - tau j C_{j-1}."""
    cs = [np.array([1.0]), np.array([0.0, 1.0])]
    for j in range(1, n):
        nxt = np.concatenate(([0.0], cs[j]))
        nxt = P.polysub(nxt, tau * j * cs[j - 1])
        cs.append(np.asarray(nxt))
    return cs[: n + 1]


def partial_family(n, tau):
    """Skew-orthogonal polynomials and norms for the partially symmetric ensemble."""
    norms = [math.gamma(2 * k + 1) * 2.0 * math.sqrt(2.0 * math.pi) * (1.0 + tau)
             for k in range((n + 1) // 2)]
    return _skew_family("partial", _partial_base(n, tau)[:n], lambda k: 2.0 * k,
                        norms, params={"tau": tau})


def spherical_family(big_n):
    """Skew-orthogonal polynomials and norms for the real spherical ensemble.

    Each pair is the monomials (a, N-1-a), with a from _sph_pairs; at odd
    order the unpaired middle monomial comes last.
    """
    coeffs = []
    norms = []
    for a in _sph_pairs(big_n):
        coeffs += [_monomial(a), _monomial(big_n - 1 - a)]
        norms.append(_sph_norm(big_n, a))
    if big_n % 2 == 1:
        coeffs.append(_monomial((big_n - 1) // 2))
    return PolynomialFamily("spherical", coeffs, norms, params={"N": big_n})


def truncated_family(n, big_l):
    """Skew-orthogonal polynomials and norms for the real truncated ensemble."""
    norms = [math.exp(math.lgamma(big_l + 1) + math.lgamma(2 * k + 1)
                      - math.lgamma(big_l + 2 * k + 1))
             for k in range((n + 1) // 2)]
    return _skew_family("truncated", [_monomial(j) for j in range(n)],
                        lambda k: 2.0 * k / (big_l + 2.0 * k), norms,
                        params={"L": big_l})


# ---------------------------------------------------------------------------
# weights, weight moments and normalising constants


def _gamma_ratio(a):
    """Gamma((a + 1)/2) / (sqrt(pi) Gamma(a/2))."""
    return (math.exp(math.lgamma((a + 1) / 2.0) - math.lgamma(a / 2.0))
            / math.sqrt(math.pi))


def _gauss_moment(m, c=1.0):
    """Integral of x^m e^{-x^2/(2c)} over the real line."""
    if m % 2 == 1:
        return 0.0
    return double_factorial(m - 1) * math.sqrt(2.0 * math.pi * c) * c ** (m // 2)


def _gauss_moment_chain(m, x, c=1.0):
    """[M_{m mod 2}(x), M_{m mod 2 + 2}(x), ..., M_m(x)], M_j(x) the integral of
    t^j e^{-t^2/(2c)} from -infinity to x: floats at a float x, arrays at a
    numpy array x.

    By parts, M_j = c ((j-1) M_{j-2} - x^(j-1) e^{-x^2/(2c)}), from
    M_0 = sqrt(pi c/2) erfc(-x/sqrt(2c)) or M_1 = -c e^{-x^2/(2c)}. At x < 0
    both terms have the sign of M_j; at x > 0 they do at odd j, and at even
    j the result is at least half the first term. At x = +-inf the power
    term is 0.
    """
    odd = m % 2
    if isinstance(x, np.ndarray):
        w = np.exp(-x * x / (2.0 * c))
        x_fin = np.where(np.isfinite(x), x, 0.0)
    else:
        w = math.exp(-x * x / (2.0 * c))
        x_fin = x if math.isfinite(x) else 0.0
    # power is c x^(j-1) e^{-x^2/(2c)} for the next order j
    x2 = x_fin * x_fin
    if odd:
        out, power = [-c * w], c * x2 * w
    else:
        first = math.sqrt(math.pi * c / 2.0) * erfc_real(-x / math.sqrt(2.0 * c))
        out, power = [first], c * x_fin * w
    for j in range(2 + odd, m + 1, 2):
        out.append(c * (j - 1) * out[-1] - power)
        power = power * x2
    return out


def _gauss_lower_moments(count, x, c=1.0):
    """M_0(x), ..., M_{count-1}(x) of _gauss_moment_chain, its two chains
    interleaved: a list at a float x, one array (moment m in row m) at an
    array x."""
    out = [None] * count
    out[0::2] = _gauss_moment_chain(2 * ((count - 1) // 2), x, c)
    if count > 1:
        out[1::2] = _gauss_moment_chain(2 * (count // 2) - 1, x, c)
    return np.array(out) if isinstance(x, np.ndarray) else out


def _ginibre_norms(count):
    """Pair norms 2 sqrt(2 pi) (2k)! of the real Ginibre family, k < count."""
    return [2.0 * SQRT2PI * math.gamma(2 * k + 1) for k in range(count)]


def _sph_pairs(big_n):
    """Lower degree a of each monomial pair (a, N-1-a) of the spherical family.

    At odd order the pairs past the middle shift up by one degree, so that
    the middle monomial (N-1)/2 stays unpaired.
    """
    if big_n % 2 == 0:
        return [2 * l for l in range(big_n // 2)]
    return [2 * j if 4 * j < big_n - 1 else 2 * j + 1 for j in range((big_n - 1) // 2)]


def _sph_log_h(big_n, a):
    """log h = log(2^N a! (N-1-a)! / N!) for the spherical pair of lower degree a."""
    return (big_n * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(big_n - a)
            - math.lgamma(big_n + 1))


def _sph_norm(big_n, a):
    """Spherical pair norm: circle plus disk part, 2 sqrt(pi) h / (N - 1 - 2a)."""
    return (2.0 * math.sqrt(math.pi) * math.exp(_sph_log_h(big_n, a))
            / (big_n - 1.0 - 2.0 * a))


def _sph_pre(big_n):
    """Uniform density Gamma((N+1)/2) / (2 sqrt(pi) Gamma(N/2)) of real angles."""
    return _gamma_ratio(big_n) / 2.0


def _sph_tail(u, big_n):
    """Integral of (1 + t^2)^(-(N/2 + 1)) from u to infinity (signed lower limit)."""
    b = (big_n + 1) / 2.0
    btot = sp.beta(0.5, b)
    half = 0.5 * btot * sp.betainc(b, 0.5, 1.0 / (1.0 + u * u))
    return np.where(u >= 0, half, btot - half)


def _trunc_cw(big_l):
    """Normalising constant c_w of the truncated real weight."""
    return math.sqrt(big_l / (2.0 * half_beta(1, big_l)))


def trunc_omega_real(big_l, x):
    """Real-axis weight of the truncated ensemble."""
    return _trunc_cw(big_l) * (1.0 - x * x) ** (big_l / 2.0 - 1.0)


def trunc_omega_sq_complex(big_l, z):
    """Squared complex weight of the truncated ensemble on the disk (vectorized in z)."""
    q = abs(1.0 - z * z)
    if big_l == 1:
        return 1.0 / (2.0 * math.pi * q)
    a = 0.5
    b = (big_l - 1) / 2.0
    # with u = 2 |Im z| / q, 1 - I_{u^2}(a, b) = I_{1-u^2}(b, a), and
    # 1 - u^2 = ((1 - |z|^2) / q)^2 needs no clipping to [0, 1]
    tail = 0.5 * sp.beta(a, b) * sp.betainc(b, a, ((1.0 - abs(z) ** 2) / q) ** 2)
    return big_l * (big_l - 1.0) / (2.0 * math.pi) * q ** (big_l - 2.0) * tail


def _trunc_moments(big_l, count, y):
    """c_w F_0(y), ..., c_w F_{count-1}(y) as one array (moment m in row m):
    F_m(y) is the integral of x^m (1 - x^2)^(b-1) from -1 to y, b = L/2, with
    y clipped to [-1, 1], so these are the moments of the real weight.

    By parts, (m - 1 + 2b) F_m = (m - 1) F_{m-2} - y^(m-1) (1 - y^2)^b, with
    the signs of the Gaussian case, from F_1 = -(1 - y^2)^b / (2b) and
    F_0 = G_b: G_{a+1} = (2a G_a + y (1 - y^2)^a) / (2a + 1), from
    G_1 = 1 + y (L even) or G_{1/2} = arccos(-y) (L odd).
    """
    y = np.clip(y, -1.0, 1.0)
    u = (1.0 - y) * (1.0 + y)
    a = 0.5 if big_l % 2 else 1.0
    g = np.arccos(-y) if big_l % 2 else 1.0 + y
    power = np.sqrt(u) if big_l % 2 else u  # (1 - y^2)^a
    while a < big_l / 2.0:
        g = (2.0 * a * g + y * power) / (2.0 * a + 1.0)
        power = power * u
        a += 1.0
    out = [g, -power / big_l]
    for m in range(2, count):
        power = power * y  # y^(m-1) (1 - y^2)^b
        out.append(((m - 1) * out[m - 2] - power) / (m - 1.0 + big_l))
    return _trunc_cw(big_l) * np.array(out[:count])


# ---------------------------------------------------------------------------
# numerical skew inner products


def _gl_nodes(a, b, rule):
    """Gauss-Legendre rule (x, w) on [-1, 1] mapped affinely onto [a, b]."""
    x, w = rule
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _sgn_pair_integral(f, g, weight, lo, hi, n=160):
    """Integral of w(x)w(y) f(x) g(y) sgn(y - x) over [lo, hi]^2.

    Evaluated as the integral of w(x)w(y)(f(x)g(y) - f(y)g(x)) over the
    triangle y > x, which is smooth and handled by nested Gauss-Legendre.
    """
    rule = np.polynomial.legendre.leggauss(n)
    x, wx = _gl_nodes(lo, hi, rule)
    total = 0.0
    for xi, wxi in zip(x, wx):
        y, wy = _gl_nodes(xi, hi, rule)
        inner = np.sum(wy * weight(y) * (f(xi) * g(y) - f(y) * g(xi)))
        total += wxi * weight(xi) * inner
    return total


def _im_pair_integral(f, g, weight, xs, ys, n=160):
    """-4 * integral of W(x, y) Im(f(z) conj(g(z))) over a half-plane grid."""
    rule = np.polynomial.legendre.leggauss(n)
    x, wx = _gl_nodes(xs[0], xs[1], rule)
    y, wy = _gl_nodes(ys[0], ys[1], rule)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    z = xg + 1j * yg
    vals = weight(xg, yg) * np.imag(f(z) * np.conj(g(z)))
    return -4.0 * np.einsum("i,j,ij->", wx, wy, vals)


def inner_product_numeric(family, j, l, n=160):
    """Skew inner product of polynomials j and l of a family, by quadrature."""
    fj = family.coeffs[j]
    fl = family.coeffs[l]
    f = lambda t: eval_poly(fj, t)
    g = lambda t: eval_poly(fl, t)
    kind = family.ensemble

    if kind == "goe":
        w = lambda t: np.exp(-t * t / 2.0)
        return 0.5 * _sgn_pair_integral(f, g, w, -8.0, 8.0, n)

    if kind == "ginibre":
        w = lambda t: np.exp(-t * t / 2.0)
        alpha = _sgn_pair_integral(f, g, w, -8.0, 8.0, n)
        wc = lambda x, y: np.exp(y * y - x * x) * sp.erfc(math.sqrt(2.0) * y)
        beta = _im_pair_integral(f, g, wc, (-8.0, 8.0), (0.0, 8.0), n)
        return alpha + beta

    if kind == "partial":
        tau = family.params["tau"]
        w = lambda t: np.exp(-t * t / (2.0 * (1.0 + tau)))
        alpha = _sgn_pair_integral(f, g, w, -9.0, 9.0, n)
        c = math.sqrt(2.0 / (1.0 - tau * tau))
        wc = lambda x, y: np.exp((y * y - x * x) / (1.0 + tau)) * sp.erfc(c * y)
        beta = _im_pair_integral(f, g, wc, (-9.0, 9.0), (0.0, 9.0), n)
        return alpha + beta

    if kind == "spherical":
        big_n = family.params["N"]
        c_n = math.gamma((big_n + 1) / 2.0) / (2.0 * math.gamma(big_n / 2.0 + 1.0))
        halfshift = (big_n - 1) / 2.0
        ph = lambda t: np.exp(-1j * halfshift * t)
        rule = np.polynomial.legendre.leggauss(2 * n)
        th1, w1 = _gl_nodes(0.0, 2.0 * math.pi, rule)
        circle = 0.0
        for t1, wt1 in zip(th1, w1):
            th2, w2 = _gl_nodes(t1, 2.0 * math.pi, rule)
            e1 = np.exp(1j * t1)
            e2 = np.exp(1j * th2)
            inner = np.sum(w2 * ph(th2) * (f(e1) * g(e2) - f(e2) * g(e1)))
            circle += wt1 * ph(t1) * inner
        circle = (-0.5j) * c_n * circle
        # disk contribution: eigenvalue pairs sit at w and its mirror image
        # 1/conj(w); the pair weight carries one tail integral and a phase
        n_phi = 8 * n
        phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        wphi = 2.0 * math.pi / n_phi
        disk = 0.0
        rule = np.polynomial.legendre.leggauss(n)
        for lo, hi in ((1e-12, 0.25), (0.25, 0.75), (0.75, 1.0)):
            r, wr = _gl_nodes(lo, hi, rule)
            rad = _sph_tail((1.0 / r - r) / 2.0, big_n) / math.sqrt(math.pi)
            rg, pg = np.meshgrid(r, phi, indexing="ij")
            w_pt = rg * np.exp(1j * pg)
            w_mirr = np.exp(1j * pg) / rg
            phase = np.exp(-1j * (big_n - 1) * pg)
            vals = phase * (f(w_pt) * g(w_mirr) - f(w_mirr) * g(w_pt)) / rg
            disk += wphi * np.sum(wr * rad * np.sum(vals, axis=1))
        total = circle + disk
        return float(np.real(total))

    if kind == "truncated":
        big_l = family.params["L"]
        cw = _trunc_cw(big_l)
        rule = np.polynomial.legendre.leggauss(2 * n)

        # real-real part: substitute x = sin(u) so the weight is smooth
        def alpha_part():
            u1, wu1 = _gl_nodes(-math.pi / 2.0, math.pi / 2.0, rule)
            total = 0.0
            for ui, wi in zip(u1, wu1):
                u2, wu2 = _gl_nodes(ui, math.pi / 2.0, rule)
                x = math.sin(ui)
                y = np.sin(u2)
                wx = cw * math.cos(ui) ** (big_l - 1)
                wy = cw * np.cos(u2) ** (big_l - 1)
                inner = np.sum(wu2 * wy * (f(x) * g(y) - f(y) * g(x)))
                total += wi * wx * inner
            return total

        def beta_part():
            r, wr = _gl_nodes(1e-9, 1.0 - 1e-12, rule)
            p, wp = _gl_nodes(0.0, math.pi, rule)
            rg, pg = np.meshgrid(r, p, indexing="ij")
            z = rg * np.cos(pg) + 1j * (rg * np.sin(pg))
            vals = trunc_omega_sq_complex(big_l, z) * np.imag(f(z) * np.conj(g(z))) * rg
            return -4.0 * np.einsum("i,j,ij->", wr, wp, vals)

        return alpha_part() + beta_part()

    raise ValueError("unknown ensemble %r" % (kind,))
