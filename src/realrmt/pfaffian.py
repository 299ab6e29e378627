"""Pfaffians of skew-symmetric matrices and related helpers."""

import math

import numpy as np


class SkewMatrix:
    """A validated skew-symmetric matrix.

    Small symmetric contamination (below tol relative to the matrix scale)
    is projected out; anything larger raises ValueError.
    """

    def __init__(self, a, tol=1e-12):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SkewMatrix requires a square matrix")
        scale = np.abs(a).max() if a.size else 0.0
        asym = np.abs(a + a.T).max() if a.size else 0.0
        if asym > tol * max(1.0, scale):
            raise ValueError("matrix is not skew-symmetric (asymmetry %g)" % asym)
        self.data = (a - a.T) / 2.0

    @property
    def order(self):
        return self.data.shape[0]


def _as_skew(a):
    if isinstance(a, SkewMatrix):
        return a.data
    return SkewMatrix(a).data


def pfaffian_signed_log(a):
    """Pfaffian in signed-log form: (sign_or_phase, log|Pf|).

    Skew elimination with partial pivoting over Python scalars on the validated
    matrix. Returns (0.0, -inf) for a singular matrix and for odd order.
    """
    data = _as_skew(a)
    if data.shape[0] % 2 == 1:
        return 0.0, -math.inf
    return _signed_log_rows(data.tolist())


def _signed_log_rows(m):
    """(sign_or_phase, log|Pf|) of rows as pfaffian_rows takes them, overwritten.

    Skew elimination with partial pivoting: at the small orders of n-point
    correlations (2k for k points) per-step numpy calls cost more than the
    arithmetic. The diagonal is never read.
    """
    n = len(m)
    sign = 1.0 + 0j if n and isinstance(m[0][0], complex) else 1.0
    log_abs = 0.0
    for k in range(0, n, 2):
        top = m[k]
        j = max(range(k + 1, n), key=lambda c: abs(top[c]))
        piv = top[j]
        if piv == 0.0:
            return 0.0, -math.inf
        if j != k + 1:
            m[k + 1], m[j] = m[j], m[k + 1]
            for row in m[k:]:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        sign *= piv / abs(piv)
        log_abs += math.log(abs(piv))
        # rows and columns past the pivot pair lose (b c^T - c b^T) / piv
        b, c = top, m[k + 1]
        for r in range(k + 2, n):
            b_r, c_r, row = b[r] / piv, c[r] / piv, m[r]
            for col in range(r + 1, n):
                row[col] -= b_r * c[col] - c_r * b[col]
                m[col][r] = -row[col]
    return sign, log_abs


def pfaffian_rows(m):
    """Pfaffian of an even-order matrix given as a list of rows of Python scalars,
    all float or all complex (as ndarray.tolist() gives them), trusted to be exactly
    skew (no check): m01 m23 - m02 m13 + m03 m12 at order 4, and at any other order
    the elimination of pfaffian_signed_log, which overwrites m."""
    if len(m) == 4:
        return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
    return _from_signed_log(*_signed_log_rows(m))


def _from_signed_log(sign, log_abs):
    return 0.0 * sign if log_abs == -math.inf else sign * np.exp(log_abs)


def pfaffian(a):
    """Pfaffian of an even-order skew-symmetric matrix, by elimination at every order."""
    return _from_signed_log(*pfaffian_signed_log(a))


def pfaffian_laplace(a):
    """Pfaffian by expansion along the first row; reference oracle, order <= 8."""
    m = _as_skew(a)
    n = m.shape[0]
    if n > 8:
        raise ValueError("pfaffian_laplace is restricted to order <= 8")
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    if n == 2:
        return m[0, 1]
    total = 0.0
    for j in range(1, n):
        keep = [i for i in range(n) if i not in (0, j)]
        minor = m[np.ix_(keep, keep)]
        total += (-1) ** (j + 1) * m[0, j] * pfaffian_laplace(minor)
    return total


def _bordered(core, border):
    """The bordered matrix of pfaffian_bordered, after checking the core and border."""
    core = _as_skew(core)
    n = core.shape[0]
    border = np.asarray(border)
    if border.shape != (n,):
        raise ValueError("border length must match core order")
    if n % 2 == 0:
        raise ValueError("bordered Pfaffian expects an odd-order core")
    big = np.zeros((n + 1, n + 1), dtype=np.result_type(core, border))
    big[:n, :n] = core
    big[:n, n] = border
    big[n, :n] = -border
    return big


def pfaffian_bordered(core, border):
    """Pfaffian of an odd-order skew core extended by a border vector.

    The bordered matrix has the core in the top-left block, +border as the
    last column and -border as the last row.
    """
    return pfaffian(_bordered(core, border))


def pfaffian_bordered_signed_log(core, border):
    """Signed-log Pfaffian of the bordered extension of an odd-order core."""
    return pfaffian_signed_log(_bordered(core, border))


def symplectic_unit(n2):
    """Block-diagonal symplectic unit Z of even order n2."""
    if n2 % 2 == 1:
        raise ValueError("symplectic unit has even order")
    z = np.zeros((n2, n2))
    for k in range(0, n2, 2):
        z[k, k + 1] = 1.0
        z[k + 1, k] = -1.0
    return z


def qdet_selfdual(m):
    """Quaternion determinant of a self-dual matrix, qdet(M) = Pf(M Z^{-1})."""
    m = np.asarray(m)
    n2 = m.shape[0]
    z_inv = -symplectic_unit(n2)
    return pfaffian(m @ z_inv)


def chequer_embed(a):
    """Embed an n x n matrix A into a 2n x 2n skew matrix B with Pf(B) = det(A)."""
    a = np.asarray(a)
    n = a.shape[0]
    b = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    for i in range(n):
        for j in range(n):
            b[2 * i, 2 * j + 1] = a[i, j]
            b[2 * j + 1, 2 * i] = -a[i, j]
    return b


def chequer_collapse(b):
    """Inverse of chequer_embed; verifies the complementary entries vanish (to 1e-10)."""
    b = _as_skew(b)
    n2 = b.shape[0]
    if n2 % 2 == 1:
        raise ValueError("chequer_collapse expects even order")
    n = n2 // 2
    scale = max(1.0, np.max(np.abs(b)))
    ee = b[0::2, 0::2]
    oo = b[1::2, 1::2]
    if np.max(np.abs(ee)) > 1e-10 * scale or np.max(np.abs(oo)) > 1e-10 * scale:
        raise ValueError("matrix does not have chequer sparsity")
    return b[0::2, 1::2]


def skew_diagonal(values):
    """Skew matrix with 2x2 blocks [[0, v], [-v, 0]] down the diagonal."""
    values = np.asarray(values)
    n = values.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=values.dtype)
    for k, v in enumerate(values):
        out[2 * k, 2 * k + 1] = v
        out[2 * k + 1, 2 * k] = -v
    return out
