"""The five real ensembles: their registry, samplers and spectrum utilities."""

import math
from collections import namedtuple

import numpy as np

from . import kernels


def rng_for(seed, index):
    """Counter-based generator for a given (seed, draw-block) pair.

    Streams depend only on the pair, so results are independent of how work
    is split across workers.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(index)))


COND_MAX = 1e12
"""Bound of the spherical guard: a draw is kept only if ||A||_F ||A^{-1}||_F < COND_MAX.

That Frobenius product is at least the 2-norm condition number of A, so every
kept A has a 2-norm condition number below COND_MAX.
"""
MAX_ATTEMPTS = 10  # draws of A per matrix before sample_spherical gives up
REL_TOL = 1e-9  # real: |Im| <= REL_TOL * max|eigenvalue| of the spectrum


def _shape(size):
    """Leading shape of a draw: () for one matrix, (size,) for a stack."""
    return () if size is None else (size,)


def sample_goe(n, rng, size=None):
    """Draw from the Gaussian orthogonal ensemble (diag var 1, off-diag var 1/2).

    With size, return a stack of shape (size, n, n); the draws use the same
    variates, in the same order, as size separate calls.
    """
    a = rng.standard_normal(_shape(size) + (n, n))
    x = a + a.swapaxes(-1, -2)
    x *= 0.5
    return x


def sample_ginibre(n, rng, size=None):
    """Draw a real Ginibre matrix of iid standard normals (size: as sample_goe)."""
    return rng.standard_normal(_shape(size) + (n, n))


def sample_partial(n, tau, rng, size=None):
    """Draw from the partially symmetric real Ginibre ensemble (size: as sample_goe).

    X = (S + sqrt(c) A) / sqrt(b) with c = (1 - tau)/(1 + tau), S symmetric
    and A antisymmetric; b = 1/(1 + tau) gives off-diagonal variance 1 and
    correlation tau. One n x n Gaussian G gives both, as
    S = (G + G^T)/2 and A = (G - G^T)/2 are independent, so
    X = p G + q G^T with p, q = (1 +- sqrt(c)) / (2 sqrt(b)).
    """
    spec("partial", n, tau=tau)
    root_c, scale = math.sqrt((1.0 - tau) / (1.0 + tau)), 2.0 * math.sqrt(1.0 / (1.0 + tau))
    g = rng.standard_normal(_shape(size) + (n, n))
    x = g * ((1.0 + root_c) / scale)
    x += g.swapaxes(-1, -2) * ((1.0 - root_c) / scale)
    return x


def _inverse_if_well_conditioned(a):
    """A^{-1}, for one matrix or a stack, or None if some A fails the COND_MAX guard.

    A singular A, whose inverse raises LinAlgError, fails it too.
    """
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    # the guard squared, so that no square root is taken
    sq = np.einsum("...ij,...ij->...", a, a) * np.einsum("...ij,...ij->...", a_inv, a_inv)
    return a_inv if np.all(sq < COND_MAX ** 2) else None


def sample_spherical(n, rng, size=None):
    """Draw Y = A^{-1} B with A, B independent real Ginibre matrices.

    Y is formed as inv(A) @ B. size: as sample_goe. A draw whose A fails the
    COND_MAX guard, or is singular, is redrawn, up to MAX_ATTEMPTS draws in
    all. If any draw of a stack needs that, the stack is drawn again one matrix
    at a time from the same stream position, so the variates stay those of size
    separate calls.
    """
    if size is not None:
        state = rng.bit_generator.state
        ab = rng.standard_normal((size, 2, n, n))
        a_inv = _inverse_if_well_conditioned(ab[:, 0])
        if a_inv is not None:
            return a_inv @ ab[:, 1]
        rng.bit_generator.state = state
        return np.stack([sample_spherical(n, rng) for _ in range(size)])
    for _ in range(MAX_ATTEMPTS):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a_inv = _inverse_if_well_conditioned(a)
        if a_inv is not None:
            return a_inv @ b
    raise RuntimeError("failed to draw a well-conditioned spherical matrix")


def sample_truncated(m, big_l, rng, size=None):
    """Draw the bottom-right m x m block of a Haar random (m+L) x (m+L) orthogonal matrix.

    The block is rows L: of the matrix's last m columns, which form a Haar
    random orthonormal m-frame in R^(m+L). The reduced QR of an (m+L) x m
    Gaussian, with each column of Q multiplied by the sign of R's diagonal
    entry, gives that frame (Mezzadri, Notices AMS 54 (2007)).
    size: as sample_goe.
    """
    x = rng.standard_normal(_shape(size) + (m + big_l, m))
    q, r = np.linalg.qr(x)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q[..., big_l:, :]


def classify_spectra(eigs):
    """Masks (real, upper) of the real and upper-half-plane eigenvalues, row by row.

    Each row of the 2-d eigs is one real matrix's spectrum. An eigenvalue is
    real when |Im| <= REL_TOL * max|eigenvalue| of its row. Where an odd
    number are non-real, the one nearest the axis is taken as real if it lies
    within ten tolerances; a row whose non-real eigenvalues still do not pair
    up raises RuntimeError.
    """
    rows = np.asarray(eigs, dtype=complex)
    scale = np.maximum(np.max(np.abs(rows), axis=1, initial=0.0), 1e-300)
    tol = REL_TOL * scale
    real = np.abs(rows.imag) <= tol[:, None]
    for i in np.flatnonzero(np.sum(~real, axis=1) % 2):
        off_axis = np.where(real[i], np.inf, np.abs(rows[i].imag))
        k = np.argmin(off_axis)
        if off_axis[k] > 10.0 * tol[i] * max(1.0, scale[i]):
            raise RuntimeError("inconsistent complex-conjugate pairing")
        real[i, k] = True
    upper = ~real & (rows.imag > 0)
    if np.any(2 * np.sum(upper, axis=1) + np.sum(real, axis=1) != rows.shape[1]):
        raise RuntimeError("inconsistent complex-conjugate pairing")
    return real, upper


def classify_spectrum(eigs):
    """Split a real-matrix spectrum into real eigenvalues and upper-half-plane pairs."""
    eigs = np.asarray(eigs, dtype=complex)
    real, upper = classify_spectra(eigs[None])
    return eigs.real[real[0]], eigs[upper[0]]


def _symmetric(mats):
    """Whether every matrix of the stack equals its transpose exactly."""
    return np.array_equal(mats, mats.swapaxes(-1, -2))


def stack_spectra(mats):
    """Eigenvalues of a stack of real matrices, with their (real, upper) masks.

    Rows of eigs and of the masks are as in classify_spectra. An exactly
    symmetric stack has only real eigenvalues: it goes to eigvalsh, and its
    rows come in ascending order.
    """
    if _symmetric(mats):
        eigs = np.linalg.eigvalsh(mats)
        return eigs, np.ones(eigs.shape, dtype=bool), np.zeros(eigs.shape, dtype=bool)
    eigs = np.linalg.eigvals(mats)
    return (eigs,) + classify_spectra(eigs)


HERMITE_MAX = 7
"""Largest order whose non-symmetric draws are counted by _hermite_counts.

Past it LAPACK is as fast or faster for some ensemble: the spherical one, a
third of whose draws fall back to LAPACK at order 7. Per-draw
count_real_eigenvalues time at a stack of 256, LAPACK then Hermite with its
fallbacks, best of 5 passes over 16 stacks (2 shared vCPUs,
OPENBLAS_NUM_THREADS=1; repeated runs on that loaded machine spread by about
30 %): spherical 9.8 -> 7.3 us at 7 (1.2-1.35x over four runs), 14.3 -> 13.3
us at 8 (0.78-1.26x); Ginibre 10.5 -> 3.0 us at 7, 20.8 -> 17.2 us at 10,
20.6 -> 34.9 us at 11; partial (tau = 0.5) 9.8 -> 3.1 us at 7, 21.1 -> 32.4 us
at 11; truncated (L = 2) 10.3 -> 3.1 us at 7, 21.8 -> 20.7 us at 11.
"""


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff of float64."""
    u = 2.0 ** -53
    return m * u / (1.0 - m * u)


def _power_sums(a):
    """Rows s_k = tr(A^k), k = 0 ... 2n - 2, of a stack of n x n matrices, n >= 2.

    The n - 2 products A^k = A^(k-1) A give the traces up to n - 1, and the
    sums past it are tr(A^(n-1) A^j), j < n: the dot of the flattened A^j
    with the flattened transpose of A^(n-1).
    """
    s, n = a.shape[0], a.shape[-1]
    powers = np.empty((n - 1, s, n, n))
    powers[0] = a
    for k in range(1, n - 1):
        np.matmul(powers[k - 1], a, out=powers[k])
    sums = np.empty((2 * n - 1, s))
    sums[0] = n
    sums[1:n] = np.einsum("ksii->ks", powers)
    sums[n:] = np.einsum("ksm,sm->ks", powers.reshape(n - 1, s, n * n),
                         powers[-1].swapaxes(1, 2).reshape(s, n * n))
    return sums


def _hermite_counts(mats):
    """Real-eigenvalue counts of a stack of n x n matrices, and where they are certified.

    Hermite's theorem: the Hankel matrix H_ij = s_(i+j), i, j < n, of the power
    sums s_k = tr(A^k) has signature equal to the number of distinct real
    eigenvalues of A; when H is nonsingular every eigenvalue is simple, so
    that is the real count. Each A is scaled by 2^-e, where ||A||_F = m 2^e
    with m in [1/2, 1), and H by D H D, with D = diag(2^-h_i) from the exponent
    of s_(2i): both are exact and keep H's inertia. The unpivoted LDL^T of the
    computed H gives the count, n - 2 #{d_k < 0}, by Sylvester's law of inertia.

    A count is certified when 2 (eta_H + eta_LDL) ||L^-1||_F^2 < min |d_k|:
    L D L^T is then nearer the exact H than its own smallest eigenvalue, so by
    Weyl's inequality the two have one inertia (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sections 3.5 and 9.3). The
    factorisation's backward error is within gamma_3n || |L| |D| |L^T| ||_F,
    and eta_LDL = gamma_3n sum_k |d_k| ||l_k||^2 bounds that, l_k the columns of L.
    eta_H bounds ||fl(H) - H||_F: the chained products A^k = A^(k-1) A, each
    within gamma_n |A^(k-1)| |A|, and the traces put every s_k within
    gamma_(3n^2) tr(|A|^k), which the same products of |A| give. Repeated
    eigenvalues, complex pairs near the real axis, the zero matrix and
    non-finite entries make H singular or nearly so, or the test NaN, and are
    not certified.
    """
    s, n = mats.shape[0], mats.shape[-1]
    idx = np.arange(n)
    hankel = idx[:, None] + idx
    with np.errstate(all="ignore"):
        expo = np.frexp(np.sqrt(np.einsum("sij,sij->s", mats, mats)))[1]
        a = np.ldexp(mats, -expo[:, None, None])
        # from here on the draws run along the last axis
        sums = _power_sums(a)
        scale = np.ldexp(1.0, -(np.frexp(sums[2 * idx])[1] // 2))
        w = sums[hankel]
        w *= scale[:, None]
        w *= scale
        err = _power_sums(np.abs(a))[hankel]
        err *= scale[:, None]
        err *= scale
        err[0, 0] = 0.0  # s_0 = n is exact
        g = _gamma(3 * n * n)
        eta = g / (1.0 - g) * np.sqrt(np.einsum("ijs,ijs->s", err, err))

        # unpivoted LDL^T, with L^-1 by forward substitution alongside
        d = np.empty((n, s))
        col_sq = np.zeros((n, s))  # ||l_k||^2 - 1
        inv = np.repeat(np.eye(n)[:, :, None], s, axis=2)
        for k in range(n - 1):
            d[k] = w[k, k]
            col = w[k + 1:, k] / d[k]
            w[k + 1:, k + 1:] -= col[:, None] * (col * d[k])
            inv[k + 1:, :k + 1] -= col[:, None] * inv[k, :k + 1]
            col_sq[k] = np.einsum("is,is->s", col, col)
        d[n - 1] = w[n - 1, n - 1]
        # sum_k |d_k| ||l_k||^2 bounds || |L| |D| |L^T| ||_F
        eta += _gamma(3 * n) * np.einsum("ks,ks->s", np.abs(d), 1.0 + col_sq)
        certified = 2.0 * eta * np.einsum("ijs,ijs->s", inv, inv) < np.min(np.abs(d), axis=0)
    return n - 2 * np.sum(d < 0, axis=0), certified


def count_real_eigenvalues(mats):
    """Number of real eigenvalues for each matrix in a stacked array.

    An exactly symmetric stack needs no eigensolve: each of its n eigenvalues is
    real. Other stacks of order 2 <= n <= HERMITE_MAX are counted by
    _hermite_counts, with no eigensolve; the draws whose count it cannot
    certify, and every draw of a larger order, go to eigvals and
    classify_spectra, whose count the certified one equals.
    """
    if _symmetric(mats):
        return np.full(mats.shape[:-2], mats.shape[-1])
    if not 2 <= mats.shape[-1] <= HERMITE_MAX:
        return _eigensolver_counts(mats)
    counts, certified = _hermite_counts(mats)
    rest = np.flatnonzero(~certified)
    if rest.size:
        counts[rest] = _eigensolver_counts(mats[rest])
    return counts


def _eigensolver_counts(mats):
    """Real-eigenvalue counts of a stack from eigvals and classify_spectra."""
    return np.sum(classify_spectra(np.linalg.eigvals(mats))[0], axis=-1)


def mobius_to_disk(z):
    """Cayley transform of the upper half plane / real line onto the unit disk."""
    z = np.asarray(z, dtype=complex)
    return (1.0 + 1j * z) / (1.0 - 1j * z)


def boundary_angle(lam):
    """Angle in [0, 2 pi) of the image of a real eigenvalue on the unit circle."""
    theta = 2.0 * np.arctan(np.asarray(lam, dtype=float))
    return np.mod(theta, 2.0 * math.pi)


def stereographic(z):
    """Stereographic projection of a complex number onto the unit sphere."""
    z = np.asarray(z, dtype=complex)
    d = np.abs(z) ** 2 + 1.0
    return np.stack([2.0 * z.real / d, 2.0 * z.imag / d, (np.abs(z) ** 2 - 1.0) / d])


class ConfigError(ValueError):
    """A configuration outside what an ensemble supports."""


class Ensemble(namedtuple("Ensemble", "sample density param param_range max_table angles",
                           defaults=(None, (), math.inf, False))):
    """What the package states about one ensemble, an immutable record.

    sample(n, rng, tau, big_l, size) draws one matrix (size None) or a stack;
    density(n, tau, big_l, x) is the density of real eigenvalues at x, a float
    or an array (spherical: a constant, whatever the shape of x). param is the
    keyword of the one parameter, if any, and param_range the open interval its
    value must lie in. Exact tables up to order max_table have every p_{N,k}
    within 1e-12 of [0, 1] and their sum within 1e-12 of 1. angles is set where
    real eigenvalues are binned as boundary angles.
    """

    __slots__ = ()


# the lambdas look their targets up at call time, so rebinding a name reaches them
ENSEMBLES = {
    "goe": Ensemble(
        sample=lambda n, rng, tau, big_l, size: sample_goe(n, rng, size=size),
        density=lambda n, tau, big_l, x: kernels.goe_density(n, x)),
    "ginibre": Ensemble(
        sample=lambda n, rng, tau, big_l, size: sample_ginibre(n, rng, size=size),
        density=lambda n, tau, big_l, x: kernels.ginibre_density_real(n, x),
        max_table=24),
    "partial": Ensemble(
        sample=lambda n, rng, tau, big_l, size: sample_partial(n, tau, rng, size=size),
        density=lambda n, tau, big_l, x: kernels.partial_density_real(n, tau, x),
        param="tau", param_range=(-1.0, 1.0), max_table=19),
    "spherical": Ensemble(
        sample=lambda n, rng, tau, big_l, size: sample_spherical(n, rng, size=size),
        density=lambda n, tau, big_l, x: kernels.spherical_density_real(n),
        angles=True),
    "truncated": Ensemble(
        sample=lambda n, rng, tau, big_l, size:
            sample_truncated(n, big_l, rng, size=size),
        density=lambda n, tau, big_l, x: kernels.truncated_density_real(n, big_l, x),
        # L <= 10^4: half_beta's exact double factorials make a table or a density cost
        # about L^2, some tens of milliseconds at L = 10^4
        param="big_l", param_range=(0, 10 ** 4 + 1), max_table=12),
}


def spec(name, n, tau=None, big_l=None, table=False):
    """The named Ensemble, once it is shown to support order n and the parameters.

    table asks for an exact table. Raises ConfigError.
    """
    ens = ENSEMBLES.get(name)
    if ens is None:
        raise ConfigError("unknown ensemble %r" % (name,))
    if n is None or n < 1:
        raise ConfigError("matrix order must be a positive integer")
    for key, value in (("tau", tau), ("big_l", big_l)):
        if key == ens.param:
            lo, hi = ens.param_range
            if value is None or not lo < value < hi:
                raise ConfigError("%s ensemble requires %s in (%g, %g)"
                                  % (name, key, lo, hi))
        elif value is not None:
            owner = next(k for k, e in ENSEMBLES.items() if e.param == key)
            raise ConfigError("%s applies only to the %s ensemble" % (key, owner))
    if table and n > ens.max_table:
        raise ConfigError("%s exact tables are supported up to order %d"
                          % (name, ens.max_table))
    return ens


def sample_matrix(ensemble, n, rng, tau=None, big_l=None):
    """Draw one matrix from the named ensemble."""
    return spec(ensemble, n, tau, big_l).sample(n, rng, tau, big_l, None)


CHUNK = 1024
STACK = 256
# the most matrix entries a stack draws, at n (n + L) a draw (L = 0 but for truncated):
# 8 MiB of float64, twice that for the spherical A and B
STACK_ENTRIES = 2 ** 20


def _run_stacks(ensemble, n, reps, seed, use, tau=None, big_l=None, workers=1):
    """Results of use(first, mats) for each stack of draws, in draw order.

    Block c of CHUNK draws comes from rng_for(seed, c), as consecutive stacks
    of at most STACK matrices and STACK_ENTRIES entries (one matrix at least);
    mats holds draws first, first + 1, ... and equals as many sample_matrix
    calls on the block's stream. So the results are identical for any worker
    count and any stack size.
    """
    draw = spec(ensemble, n, tau, big_l).sample
    size = min(STACK, max(1, STACK_ENTRIES // (n * (n + (big_l or 0)))))

    def run(c):
        rng = rng_for(seed, c)
        end = min((c + 1) * CHUNK, reps)
        return [use(first, draw(n, rng, tau, big_l, min(size, end - first)))
                for first in range(c * CHUNK, end, size)]

    n_chunks = (reps + CHUNK - 1) // CHUNK
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(run, range(n_chunks)))
    else:
        chunks = [run(c) for c in range(n_chunks)]
    return [result for chunk in chunks for result in chunk]


def simulate_real_counts(ensemble, n, reps, seed, tau=None, big_l=None, workers=1):
    """Histogram of the number of real eigenvalues over reps draws.

    Work is split into fixed chunks with per-chunk derived streams, so the
    result is identical for any worker count. Each stack is counted by
    count_real_eigenvalues: with no eigensolve for the draws whose Hermite
    count is certified, and with the same counts as eigvals and
    classify_spectra for every draw.
    """
    parts = _run_stacks(ensemble, n, reps, seed,
                        lambda first, mats: count_real_eigenvalues(mats),
                        tau=tau, big_l=big_l, workers=workers)
    counts = np.concatenate(parts) if parts else np.zeros(0, dtype=int)
    return np.bincount(counts, minlength=n + 1)[: n + 1]


def simulate_real_eigenvalues(ensemble, n, reps, seed, tau=None, big_l=None, workers=1):
    """All real eigenvalues pooled over reps draws, in draw order."""
    def reals(first, mats):
        eigs, real, _ = stack_spectra(mats)
        return eigs.real[real]

    parts = _run_stacks(ensemble, n, reps, seed, reals, tau=tau, big_l=big_l,
                        workers=workers)
    return np.concatenate(parts) if parts else np.zeros(0)
