"""Samplers for the five real ensembles and spectrum utilities."""

import math

import numpy as np


def rng_for(seed, index):
    """Counter-based generator for a given (seed, draw-block) pair.

    Streams depend only on the pair, so results are independent of how work
    is split across workers.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(index)))


def sample_goe(n, rng):
    """Draw from the Gaussian orthogonal ensemble (diag var 1, off-diag var 1/2)."""
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def sample_ginibre(n, rng):
    """Draw a real Ginibre matrix of iid standard normals."""
    return rng.standard_normal((n, n))


def sample_partial(n, tau, rng, b=None):
    """Draw from the partially symmetric real Ginibre ensemble.

    X = (S + sqrt(c) A) / sqrt(b) with c = (1 - tau)/(1 + tau); the default
    b = 1/(1 + tau) gives off-diagonal variance 1 and correlation tau.
    """
    if not -1.0 < tau < 1.0:
        raise ValueError("tau must lie in (-1, 1)")
    if b is None:
        b = 1.0 / (1.0 + tau)
    c = (1.0 - tau) / (1.0 + tau)
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((n, n))
    s = (g + g.T) / 2.0
    a = (h - h.T) / 2.0
    return (s + math.sqrt(c) * a) / math.sqrt(b)


def sample_spherical(n, rng, max_attempts=10):
    """Draw Y = A^{-1} B with A, B independent real Ginibre matrices."""
    for _ in range(max_attempts):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        if np.linalg.cond(a) < 1e12:
            return np.linalg.solve(a, b)
    raise RuntimeError("failed to draw a well-conditioned spherical matrix")


def sample_truncated(m, big_l, rng):
    """Draw the bottom-right m x m block of a random (m+L) x (m+L) orthogonal matrix."""
    n = m + big_l
    x = rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    q = q * np.sign(np.diag(r))
    return q[big_l:, big_l:]


def classify_spectrum(eigs, rel_tol=1e-9):
    """Split a real-matrix spectrum into real eigenvalues and upper-half-plane pairs."""
    eigs = np.asarray(eigs, dtype=complex)
    scale = max(np.max(np.abs(eigs)) if eigs.size else 1.0, 1e-300)
    tol = rel_tol * scale
    is_real = np.abs(eigs.imag) <= tol
    n_complex = int(np.sum(~is_real))
    if n_complex % 2 == 1:
        idx = np.where(~is_real)[0]
        k = idx[np.argmin(np.abs(eigs.imag[idx]))]
        if abs(eigs.imag[k]) > 10.0 * tol * max(1.0, scale):
            raise RuntimeError("inconsistent complex-conjugate pairing")
        is_real[k] = True
    reals = eigs.real[is_real]
    upper = eigs[(~is_real) & (eigs.imag > 0)]
    if 2 * len(upper) + len(reals) != len(eigs):
        raise RuntimeError("inconsistent complex-conjugate pairing")
    return reals, upper


def count_real_eigenvalues(mats, rel_tol=1e-9):
    """Number of real eigenvalues for each matrix in a stacked array."""
    eigs = np.linalg.eigvals(mats)
    return np.array([len(classify_spectrum(e, rel_tol)[0]) for e in eigs])


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


_SAMPLERS = {
    "goe": lambda n, rng, tau=None, big_l=None: sample_goe(n, rng),
    "ginibre": lambda n, rng, tau=None, big_l=None: sample_ginibre(n, rng),
    "partial": lambda n, rng, tau=None, big_l=None: sample_partial(n, tau, rng),
    "spherical": lambda n, rng, tau=None, big_l=None: sample_spherical(n, rng),
    "truncated": lambda n, rng, tau=None, big_l=None: sample_truncated(n, big_l, rng),
}


def sample_matrix(ensemble, n, rng, tau=None, big_l=None):
    """Draw one matrix from the named ensemble."""
    if ensemble not in _SAMPLERS:
        raise ValueError("unknown ensemble %r" % (ensemble,))
    return _SAMPLERS[ensemble](n, rng, tau=tau, big_l=big_l)


CHUNK = 1024


def _run_chunks(reps, seed, workers, draw_chunk):
    """Results of draw_chunk(rng, first, size) for each CHUNK-sized block of draws.

    Block c draws from rng_for(seed, c), so the results, returned in block
    order, are identical for any worker count.
    """
    def run(c):
        return draw_chunk(rng_for(seed, c), c * CHUNK, min(CHUNK, reps - c * CHUNK))

    n_chunks = (reps + CHUNK - 1) // CHUNK
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(run, range(n_chunks)))
    return [run(c) for c in range(n_chunks)]


def simulate_real_counts(ensemble, n, reps, seed, tau=None, big_l=None, workers=1):
    """Histogram of the number of real eigenvalues over reps draws.

    Work is split into fixed chunks with per-chunk derived streams, so the
    result is identical for any worker count.
    """
    def draw_chunk(rng, first, size):
        mats = np.stack([sample_matrix(ensemble, n, rng, tau=tau, big_l=big_l)
                         for _ in range(size)])
        return count_real_eigenvalues(mats)

    parts = _run_chunks(reps, seed, workers, draw_chunk)
    counts = np.concatenate(parts) if parts else np.zeros(0, dtype=int)
    return np.bincount(counts, minlength=n + 1)[: n + 1]


def simulate_real_eigenvalues(ensemble, n, reps, seed, tau=None, big_l=None, workers=1):
    """All real eigenvalues pooled over reps draws."""
    def draw_chunk(rng, first, size):
        out = []
        for _ in range(size):
            mat = sample_matrix(ensemble, n, rng, tau=tau, big_l=big_l)
            if ensemble == "goe":
                out.append(np.linalg.eigvalsh(mat))
            else:
                out.append(classify_spectrum(np.linalg.eigvals(mat))[0])
        return np.concatenate(out) if out else np.zeros(0)

    parts = _run_chunks(reps, seed, workers, draw_chunk)
    return np.concatenate(parts) if parts else np.zeros(0)
