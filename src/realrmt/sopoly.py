"""Skew-orthogonal polynomial families of the five ensembles, with their weights,
weight moments and normalising constants."""

import cmath
import math

import numpy as np

from .specfun import double_factorial, erfc_real, erfcx, half_beta, reg_incomplete_beta

SQRT2PI = math.sqrt(2.0 * math.pi)


class PolynomialFamily:
    """A family of skew-orthogonal polynomials, given by its coefficients.

    Row j of matrix() holds the ascending-power coefficients of the j-th
    polynomial; norms[k] is the skew inner product of the pair (2k, 2k+1).
    """

    def __init__(self, ensemble, array, norms, params=None):
        self.ensemble = ensemble
        self._array = np.asarray(array, dtype=float)
        self.norms = np.asarray(norms, dtype=float)
        self.params = dict(params or {})

    def __len__(self):
        return len(self._array)

    def matrix(self):
        """The coefficients as one square array, polynomial j in row j."""
        return self._array

    @property
    def coeffs(self):
        """Row j of the array up to the degree of polynomial j, for each j."""
        return [row[:np.flatnonzero(row)[-1] + 1] for row in self.matrix()]


def eval_poly(coeffs, x):
    """Evaluate ascending-power coefficients at x (Horner)."""
    return np.polynomial.polynomial.polyval(x, np.asarray(coeffs))


class SkewFamily(PolynomialFamily):
    """The family of order n from one three-term recurrence, evaluated by it.

    The base is b_0 = 1, b_1 = x, b_{j+1} = x b_j - a j b_{j-1}; the even
    members are the b_j and the odd ones b_j - step(k) b_{j-2}, k = (j-1)/2 >= 1.
    The pair (2k, 2k+1) has skew norm r_k, with r_{k+1} = ratio(k) r_k.

    values(x) gives q_j = w p_j and Phi_j(x) = (1/2) int sgn(x - t) q_j(t) dt
    over sigma_j = sqrt(r_{j//2}), so each pair has skew norm 1 and no norm
    is formed. The base values come from the recurrence, their integrals
    F_j from -infinity from the weight's (in a subclass); one odd step, and
    at odd n one fold, then act on both. nu holds the F_j at +infinity, the
    integrals of the members before the fold (the weight is even, so the odd
    ones vanish). The fold takes (nu_j / nu_{n-1}) p_{n-1} from every other
    p_j, which leaves it integrating to 0 (Sinclair, J. Stat. Phys. 136,
    2009). matrix() and norms are the monomial form, for reference only.
    """

    def __init__(self, ensemble, n, a, step, r0, ratio, params=None):
        self.ensemble, self.n, self.params = ensemble, n, dict(params or {})
        self._a, self._step, self._r0, self._ratio = a, step, r0, ratio
        rho = [1.0 if j % 2 or not j else math.sqrt(ratio(j // 2 - 1)) for j in range(n)]
        # step j -> j+1 of either recurrence: (j / (rho_j rho_{j+1}), 1 / rho_{j+1})
        self._coef = [(j / (rho[j] * rho[j + 1]), 1.0 / rho[j + 1]) for j in range(n - 1)]
        self._steps = np.reshape([step(k) / rho[2 * k] for k in range(1, n // 2)], (-1, 1))
        self._inv_sigma = np.cumprod([r0 ** -0.5] + [inv for _, inv in self._coef])
        self.nu = np.array(self._lower(math.inf, [0.0] * n), dtype=float)
        self._half_nu = (0.5 * self.nu).tolist()
        self._fold = (self.nu[:-1] / self.nu[-1])[:, None] if n % 2 else None

    def __len__(self):
        return self.n

    def matrix(self):
        n, base = self.n, np.eye(self.n)
        for j in range(2, n):
            base[j] = np.roll(base[j - 1], 1) - self._a * (j - 1) * base[j - 2]
        steps = [self._step(k) for k in range(1, n // 2)]
        base[3::2] -= np.reshape(steps, (-1, 1)) * base[1:n - 2:2]
        return base

    @property
    def norms(self):
        return np.cumprod([self._r0] + [self._ratio(k) for k in range((self.n - 1) // 2)])

    def values(self, x):
        """q_j(x) and Phi_j(x) of every member j, each of shape (n,) + x.shape."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        q = self._recur(flat, *self._weight(flat))
        rows = np.array(q + list(self._lower(flat, q))).reshape(2, self.n, -1)
        rows[1] -= np.reshape(self._half_nu, (-1, 1))
        self._step_and_fold(rows)
        return rows[0].reshape(self.n, *x.shape), rows[1].reshape(self.n, *x.shape)

    def point(self, real, v):
        """The rows [Phi(x) | 1], [q(x) | 0] at a real point x, and [-i conj(q(z)) | 0],
        [q(z) | 0] at a complex one z, with the complex weight: one pass of Python scalars,
        then the odd step and fold."""
        if not (real or "tau" in self.params):  # only the partial family has a complex weight
            raise ValueError("the %s family has no complex points" % self.ensemble)
        q = self._recur(v, *self._weight(v))
        if real:
            first = [f - h for f, h in zip(self._lower(v, q), self._half_nu)] + [1.0]
        else:
            first = [-1j * t.conjugate() for t in q] + [0.0]
        a = np.array([first, q + [0.0]])
        self._step_and_fold(a[:, :-1].T)
        return a

    def _step_and_fold(self, rows):  # in place, the members along axis -2
        rows[..., 3::2, :] -= self._steps * rows[..., 1:self.n - 2:2, :]
        if self._fold is not None:
            rows[..., :-1, :] -= self._fold * rows[..., -1:, :]

    def _recur(self, x, w, e=None):
        """q_0 .. q_{n-1} of the base over sigma_j, from the weight w e^e at x (a scalar or
        an array). Where e is given they are held over e^e, which each point takes in, up
        to e^345 at a time, as its values pass 1e150."""
        q, prev, a = [w / math.sqrt(self._r0)], 0.0, self._a
        for t, inv in self._coef:
            nxt = x * q[-1] if inv == 1.0 else inv * x * q[-1]
            q.append(nxt - a * t * prev if a else nxt)
            if e is not None and np.any(big := abs(q[-1]) > 1e150):
                take = np.where(big, np.maximum(e, -345.0), 0.0)
                e, q = e - take, [v * np.exp(take) for v in q]
            prev = q[-2]
        return q if e is None else [v * np.exp(e) for v in q]


class GaussianFamily(SkewFamily):
    """A family with the weight w = e^{-x^2/(2c)} on the real line.

    By parts, F_{j+1} = (c - a) j F_{j-1} - c b_j(y) w(y), from
    F_0 = sqrt(pi c/2) erfc(-y/sqrt(2c)) and F_1 = -c w(y). Left of the
    zeros of b_j both terms have the sign of F_{j+1}, so the left tail keeps
    its relative accuracy.
    """

    def __init__(self, ensemble, n, a, c, step, r0, ratio, params=None):
        self._c, self._y0 = c, -1.0 / math.sqrt(2.0 * c)
        self._f0 = math.sqrt(math.pi * c / 2.0 / r0)
        super().__init__(ensemble, n, a, step, r0, ratio, params)

    def _weight(self, x):
        """(w, e), the weight w e^e at x: e^{-x^2/(2c)} at a real x (float or array), times
        sqrt(erfc(t)), t = |Im x| sqrt(2/(1 - tau^2)), c = 1 + tau, at a complex x (Forrester &
        Nagao, J. Phys. A 41, 2008), as sqrt(erfcx(t)) e^{-t^2/2}. e is the real exponent at
        each point where it is in [-1e299, -700), None where it is nowhere; below (|x| from
        4e149, x * x overflowing) w is 0, as is w times any member, and x q_j overflows."""
        if isinstance(x, np.ndarray):  # one reduction when no point underflows
            with np.errstate(over="ignore"):
                e = x * x * (-0.5 / self._c)
            low = (np.where((e < -700.0) & (e >= -1e299), e, 0.0)
                   if e.min(initial=0.0) < -700.0 else None)
            return np.exp(e if low is None else e - low), low
        e = x * x * (-0.5 / self._c)
        scaled = 1.0
        if isinstance(x, complex):
            t = math.sqrt(2.0 / ((2.0 - self._c) * self._c)) * abs(x.imag)
            scaled = erfcx(t)
            e -= t * t / 2.0
        low = e.real if -1e299 <= e.real < -700.0 else None
        exp = cmath.exp if isinstance(e, complex) else math.exp
        return exp(e if low is None else e - low) * scaled ** 0.5, low

    def _lower(self, x, q):
        c, slope, prev = self._c, self._c - self._a, 0.0
        f = [self._f0 * erfc_real(x * self._y0)]
        for (t, inv), q_j in zip(self._coef, q):
            f.append(slope * t * prev - c * inv * q_j)
            prev = f[-2]
        return f


class TruncatedFamily(SkewFamily):
    """The truncated family, b_j = x^j, with the weight trunc_omega_real and
    the integrals of _trunc_moments."""

    def __init__(self, n, big_l):
        super().__init__("truncated", n, 0.0, lambda k: 2.0 * k / (big_l + 2.0 * k), 1.0,
                         lambda k: ((2 * k + 1.0) * (2 * k + 2.0)
                                    / ((big_l + 2 * k + 1.0) * (big_l + 2 * k + 2.0))),
                         {"L": big_l})

    def _weight(self, x):
        return trunc_omega_real(self.params["L"], x), None

    def _lower(self, x, q):
        return (_trunc_moments(self.params["L"], self.n, x).T * self._inv_sigma).T


def goe_family(n):
    """Skew-orthogonal polynomials of the Gaussian orthogonal ensemble:
    b_j = H_j(x) / 2^j, weight e^{-x^2/2}, pair norms (2k)! sqrt(pi) / 4^k."""
    return GaussianFamily("goe", n, 0.5, 1.0, lambda k: k, math.sqrt(math.pi),
                          lambda k: (2 * k + 1.0) * (2 * k + 2.0) / 4.0)


def ginibre_family(n):
    """Skew-orthogonal polynomials of the real Ginibre ensemble: b_j = x^j,
    weight e^{-x^2/2}, pair norms 2 sqrt(2 pi) (2k)!."""
    return GaussianFamily("ginibre", n, 0.0, 1.0, lambda k: 2.0 * k, 2.0 * SQRT2PI,
                          lambda k: (2 * k + 1.0) * (2 * k + 2.0))


def partial_family(n, tau):
    """Skew-orthogonal polynomials of the partially symmetric ensemble:
    b_j = tau^(j/2) He_j(x / sqrt(tau)), weight e^{-x^2/(2(1 + tau))}, pair
    norms 2 sqrt(2 pi) (1 + tau) (2k)!."""
    return GaussianFamily("partial", n, tau, 1.0 + tau, lambda k: 2.0 * k,
                          2.0 * SQRT2PI * (1.0 + tau),
                          lambda k: (2 * k + 1.0) * (2 * k + 2.0), {"tau": tau})


def spherical_family(big_n):
    """Skew-orthogonal polynomials and norms for the real spherical ensemble.

    Each pair is the monomials (a, N-1-a), with a from _sph_pairs; at odd
    order the unpaired middle monomial comes last.
    """
    pairs = _sph_pairs(big_n)
    degrees = [d for a in pairs for d in (a, big_n - 1 - a)] + [(big_n - 1) // 2] * (big_n % 2)
    return PolynomialFamily("spherical", np.eye(big_n)[degrees],
                            [_sph_norm(big_n, a) for a in pairs], params={"N": big_n})


def truncated_family(n, big_l):
    """Skew-orthogonal polynomials of the real truncated ensemble: b_j = x^j,
    pair norms L! (2k)! / (L + 2k)!."""
    return TruncatedFamily(n, big_l)


# ---------------------------------------------------------------------------
# weights, weight moments and normalising constants


def _gamma_ratio(a):
    """Gamma((a + 1)/2) / (sqrt(pi) Gamma(a/2))."""
    return (math.exp(math.lgamma((a + 1) / 2.0) - math.lgamma(a / 2.0))
            / math.sqrt(math.pi))


def _gauss_moment(m):
    """Integral of x^m e^{-x^2/2} over the real line."""
    return 0.0 if m % 2 else double_factorial(m - 1) * SQRT2PI


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
    btot = half_beta(1, big_n + 1)
    half = 0.5 * btot * reg_incomplete_beta(1.0 / (1.0 + u * u), b, 0.5)
    return np.where(u >= 0, half, btot - half)


def _trunc_cw(big_l):
    """Normalising constant c_w of the truncated real weight."""
    return math.sqrt(big_l / (2.0 * half_beta(1, big_l)))


def trunc_omega_real(big_l, x):
    """Real-axis weight of the truncated ensemble, 0 off [-1, 1] (vectorized in x)."""
    u = 1.0 - x * x
    if isinstance(u, float) and u > 0.0:
        return _trunc_cw(big_l) * u ** (big_l / 2.0 - 1.0)
    inside = u >= 0.0
    # off the support the power is taken at 1, as at odd L it is not real there
    return np.where(inside, _trunc_cw(big_l) * np.where(inside, u, 1.0) ** (big_l / 2.0 - 1.0),
                    0.0)


def trunc_omega_sq_complex(big_l, z):
    """Squared complex weight of the truncated ensemble on the disk (vectorized in z)."""
    q = abs(1.0 - z * z)
    if big_l == 1:
        return 1.0 / (2.0 * math.pi * q)
    a = 0.5
    b = (big_l - 1) / 2.0
    # with u = 2 |Im z| / q, 1 - I_{u^2}(a, b) = I_{1-u^2}(b, a), and
    # 1 - u^2 = ((1 - |z|^2) / q)^2 needs no clipping to [0, 1]
    tail = 0.5 * half_beta(1, big_l - 1) * reg_incomplete_beta(((1.0 - abs(z) ** 2) / q) ** 2,
                                                               b, a)
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
    y = min(max(y, -1.0), 1.0) if isinstance(y, float) else np.clip(y, -1.0, 1.0)
    u = (1.0 - y) * (1.0 + y)
    a = 0.5 if big_l % 2 else 1.0
    g = np.arccos(-y) if big_l % 2 else 1.0 + y
    power = u ** 0.5 if big_l % 2 else u  # (1 - y^2)^a
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
    fj = family.matrix()[j]
    fl = family.matrix()[l]
    f = lambda t: eval_poly(fj, t)
    g = lambda t: eval_poly(fl, t)
    kind = family.ensemble

    if kind == "goe":
        w = lambda t: np.exp(-t * t / 2.0)
        return 0.5 * _sgn_pair_integral(f, g, w, -8.0, 8.0, n)

    if kind in ("ginibre", "partial"):
        tau = family.params.get("tau", 0.0)
        w = lambda t: np.exp(-t * t / (2.0 * (1.0 + tau)))
        alpha = _sgn_pair_integral(f, g, w, -9.0, 9.0, n)
        c = math.sqrt(2.0 / (1.0 - tau * tau))
        wc = lambda x, y: np.exp((y * y - x * x) / (1.0 + tau)) * erfc_real(c * y)
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
