"""Tests for the matrix samplers and spectrum utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realrmt import ensembles


def test_rng_streams_depend_only_on_pair():
    a = ensembles.rng_for(5, 3).standard_normal(4)
    b = ensembles.rng_for(5, 3).standard_normal(4)
    c = ensembles.rng_for(5, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_goe_sample_is_symmetric():
    m = ensembles.sample_goe(6, ensembles.rng_for(0, 0))
    np.testing.assert_allclose(m, m.T)


def test_goe_variances():
    rng = ensembles.rng_for(1, 0)
    mats = np.stack([ensembles.sample_goe(4, rng) for _ in range(20000)])
    assert np.var(mats[:, 0, 0]) == pytest.approx(1.0, rel=0.1)
    assert np.var(mats[:, 0, 1]) == pytest.approx(0.5, rel=0.1)


def test_partial_correlation():
    rng = ensembles.rng_for(2, 0)
    tau = 0.4
    mats = np.stack([ensembles.sample_partial(3, tau, rng) for _ in range(40000)])
    x, y = mats[:, 0, 1], mats[:, 1, 0]
    assert np.var(x) == pytest.approx(1.0, rel=0.1)
    corr = np.mean(x * y) / math.sqrt(np.var(x) * np.var(y))
    assert corr == pytest.approx(tau, abs=0.03)
    with pytest.raises(ValueError):
        ensembles.sample_partial(3, 1.5, rng)


@pytest.mark.parametrize("tau", [-0.5, 0.9])
def test_partial_diagonal_variance_and_correlation(tau):
    n, size = 3, 40000
    mats = ensembles.sample_partial(n, tau, ensembles.rng_for(12, 0), size=size)
    diag = mats[:, np.arange(n), np.arange(n)].ravel()
    assert np.var(diag) == pytest.approx(1.0 + tau, rel=0.03)
    upper = np.triu_indices(n, 1)
    x, y = mats[:, upper[0], upper[1]].ravel(), mats[:, upper[1], upper[0]].ravel()
    assert np.var(x) == pytest.approx(1.0, rel=0.03)
    assert np.var(y) == pytest.approx(1.0, rel=0.03)
    corr = np.mean(x * y) / math.sqrt(np.var(x) * np.var(y))
    assert corr == pytest.approx(tau, abs=0.02)


def test_truncated_sample_is_orthogonal_block():
    rng = ensembles.rng_for(3, 0)
    m, big_l = 4, 2
    block = ensembles.sample_truncated(m, big_l, rng)
    assert block.shape == (m, m)
    # all singular values of a sub-block of an orthogonal matrix are <= 1
    assert np.max(np.linalg.svd(block, compute_uv=False)) <= 1.0 + 1e-12


@pytest.mark.parametrize("m,big_l", [(3, 1), (4, 8), (3, 100)])
def test_truncated_stacks_are_contractions(m, big_l):
    size = 500
    blocks = ensembles.sample_truncated(m, big_l, ensembles.rng_for(13, 0), size=size)
    assert blocks.shape == (size, m, m)
    assert np.max(np.linalg.svd(blocks, compute_uv=False)) <= 1.0 + 1e-12


def test_spherical_sample_shape():
    m = ensembles.sample_spherical(5, ensembles.rng_for(4, 0))
    assert m.shape == (5, 5)


def test_classify_spectrum_mixed():
    eigs = np.array([1.0, -2.0, 0.5 + 1.0j, 0.5 - 1.0j])
    reals, upper = ensembles.classify_spectrum(eigs)
    np.testing.assert_allclose(sorted(reals), [-2.0, 1.0])
    assert list(upper) == [0.5 + 1.0j]


def test_classify_spectrum_rejects_unpaired():
    with pytest.raises(RuntimeError):
        ensembles.classify_spectrum(np.array([1.0, 2.0 + 1.0j]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=7))
def test_real_count_has_matrix_parity(seed, n):
    mat = ensembles.sample_ginibre(n, ensembles.rng_for(seed, 0))
    k = len(ensembles.classify_spectrum(np.linalg.eigvals(mat))[0])
    assert k % 2 == n % 2


def test_mobius_maps_reals_to_circle():
    lam = np.array([-3.0, 0.0, 0.7, 10.0])
    w = ensembles.mobius_to_disk(lam)
    np.testing.assert_allclose(np.abs(w), 1.0)
    np.testing.assert_allclose(np.angle(w) % (2 * math.pi),
                               ensembles.boundary_angle(lam))


def test_mobius_maps_upper_half_plane_inside():
    assert abs(ensembles.mobius_to_disk(0.3 + 1.2j)) < 1.0
    assert abs(ensembles.mobius_to_disk(0.3 - 1.2j)) > 1.0


def test_stereographic_lands_on_sphere():
    z = np.array([0.0, 1.0 + 1.0j, -2.5j])
    pts = ensembles.stereographic(z)
    np.testing.assert_allclose(np.sum(pts ** 2, axis=0), 1.0)


def test_simulate_counts_worker_invariance():
    kwargs = dict(tau=None, big_l=None)
    h1 = ensembles.simulate_real_counts("ginibre", 4, 3000, 9, workers=1, **kwargs)
    h2 = ensembles.simulate_real_counts("ginibre", 4, 3000, 9, workers=3, **kwargs)
    np.testing.assert_array_equal(h1, h2)
    assert h1.sum() == 3000


def test_simulate_eigenvalues_pools_reals():
    vals = ensembles.simulate_real_eigenvalues("goe", 3, 50, 0)
    assert len(vals) == 150  # symmetric matrices: all eigenvalues real


def _no_eigvals(mats):
    raise AssertionError("general eigensolver called")


def test_symmetric_stack_counts_without_an_eigensolve(monkeypatch):
    mats = ensembles.sample_goe(5, ensembles.rng_for(3, 0), size=40)
    perturbed = mats.copy()
    perturbed[7, 0, 1] += 1e-3
    monkeypatch.setattr(np.linalg, "eigvals", _no_eigvals)
    np.testing.assert_array_equal(ensembles.count_real_eigenvalues(mats), [5] * 40)
    with pytest.raises(AssertionError, match="general eigensolver"):
        ensembles.count_real_eigenvalues(perturbed)


def test_symmetric_shortcut_keeps_seeded_goe_counts(monkeypatch):
    fast = ensembles.simulate_real_counts("goe", 6, 1300, 5)
    np.testing.assert_array_equal(fast, [0] * 6 + [1300])
    # the same draws through the general eigensolver and the classification
    monkeypatch.setattr(ensembles, "_symmetric", lambda mats: False)
    np.testing.assert_array_equal(ensembles.simulate_real_counts("goe", 6, 1300, 5), fast)


def test_stack_spectra_of_a_symmetric_stack_are_real_and_ascending():
    mats = ensembles.sample_goe(4, ensembles.rng_for(2, 0), size=30)
    eigs, real, upper = ensembles.stack_spectra(mats)
    assert real.all() and not upper.any()
    np.testing.assert_array_equal(eigs, np.sort(eigs, axis=1))
    general = np.sort(np.linalg.eigvals(mats).real, axis=1)
    np.testing.assert_allclose(eigs, general, rtol=0,
                               atol=1e-12 * np.max(np.abs(general)))


def test_sample_matrix_dispatch():
    rng = ensembles.rng_for(0, 0)
    assert ensembles.sample_matrix("goe", 3, rng).shape == (3, 3)
    with pytest.raises(ValueError):
        ensembles.sample_matrix("bogus", 3, rng)


# ---------------------------------------------------------------------------
# stacked draws: the same matrices as one sample_matrix call per draw

CELLS = [("goe", 5, None, None), ("ginibre", 4, None, None),
         ("partial", 5, 0.3, None), ("spherical", 4, None, None),
         ("truncated", 3, None, 2)]


def _stack(ensemble, n, rng, size, tau=None, big_l=None):
    if ensemble == "goe":
        return ensembles.sample_goe(n, rng, size=size)
    if ensemble == "ginibre":
        return ensembles.sample_ginibre(n, rng, size=size)
    if ensemble == "partial":
        return ensembles.sample_partial(n, tau, rng, size=size)
    if ensemble == "spherical":
        return ensembles.sample_spherical(n, rng, size=size)
    return ensembles.sample_truncated(n, big_l, rng, size=size)


def _per_draw(ensemble, n, rng, size, tau=None, big_l=None):
    return np.stack([ensembles.sample_matrix(ensemble, n, rng, tau=tau, big_l=big_l)
                     for _ in range(size)])


@pytest.mark.parametrize("size", [1, 7, 256, 300])
@pytest.mark.parametrize("ensemble,n,tau,big_l", CELLS)
def test_stacked_draws_equal_per_draw_calls(ensemble, n, tau, big_l, size):
    rng_a, rng_b = ensembles.rng_for(21, 0), ensembles.rng_for(21, 0)
    stack = _stack(ensemble, n, rng_a, size, tau, big_l)
    assert stack.shape == (size, n, n)
    reference = _per_draw(ensemble, n, rng_b, size, tau, big_l)
    np.testing.assert_array_equal(stack, reference)
    # both leave the stream at the same place
    np.testing.assert_array_equal(rng_a.standard_normal(3), rng_b.standard_normal(3))


def _reference_draws(ensemble, n, reps, seed, tau=None, big_l=None):
    """Real eigenvalues of each draw, one sample_matrix call per draw."""
    out = []
    for draw in range(reps):
        if draw % ensembles.CHUNK == 0:
            rng = ensembles.rng_for(seed, draw // ensembles.CHUNK)
        mat = ensembles.sample_matrix(ensemble, n, rng, tau=tau, big_l=big_l)
        if ensemble == "goe":
            out.append(np.linalg.eigvalsh(mat))
        else:
            out.append(ensembles.classify_spectrum(np.linalg.eigvals(mat))[0])
    return out


@pytest.mark.parametrize("ensemble,n,tau,big_l", CELLS)
def test_simulations_equal_the_per_draw_loop(ensemble, n, tau, big_l):
    # 1300 draws: a full chunk of four stacks, then a chunk of 276 = 256 + 20
    reps, seed = 1300, 4
    ref = _reference_draws(ensemble, n, reps, seed, tau, big_l)
    counts = np.bincount([len(r) for r in ref], minlength=n + 1)
    np.testing.assert_array_equal(
        ensembles.simulate_real_counts(ensemble, n, reps, seed, tau=tau, big_l=big_l),
        counts)
    np.testing.assert_array_equal(
        ensembles.simulate_real_eigenvalues(ensemble, n, reps, seed, tau=tau,
                                            big_l=big_l),
        np.concatenate(ref))


def test_large_draws_come_in_smaller_stacks_with_the_same_streams():
    # at m = 12, L = 10^4 a draw has 120144 entries, so a stack holds 8 of them
    m, big_l, reps, seed = 12, 10 ** 4, 20, 4
    sizes = ensembles._run_stacks("truncated", m, reps, seed, lambda first, mats: len(mats),
                                  big_l=big_l)
    assert sizes == [8, 8, 4]
    ref = _reference_draws("truncated", m, reps, seed, big_l=big_l)
    np.testing.assert_array_equal(
        ensembles.simulate_real_counts("truncated", m, reps, seed, big_l=big_l),
        np.bincount([len(r) for r in ref], minlength=m + 1))
    np.testing.assert_array_equal(
        ensembles.simulate_real_eigenvalues("truncated", m, reps, seed, big_l=big_l),
        np.concatenate(ref))


# Low enough that about one 3 x 3 draw in ten is redrawn
LOW_COND_MAX = 40.0


def test_spherical_stack_replays_redrawn_draws(monkeypatch):
    plain = ensembles.sample_spherical(3, ensembles.rng_for(8, 0), size=300)
    monkeypatch.setattr(ensembles, "COND_MAX", LOW_COND_MAX)
    stack = ensembles.sample_spherical(3, ensembles.rng_for(8, 0), size=300)
    # some draws were redrawn, which moves every later draw of the stream
    assert not np.array_equal(stack, plain)
    np.testing.assert_array_equal(
        stack, _per_draw("spherical", 3, ensembles.rng_for(8, 0), 300))
    ref = _reference_draws("spherical", 3, 600, 8)
    np.testing.assert_array_equal(
        ensembles.simulate_real_counts("spherical", 3, 600, 8),
        np.bincount([len(r) for r in ref], minlength=4))


def test_spherical_guard_bounds_the_two_norm_condition_number(monkeypatch):
    a = ensembles.rng_for(14, 0).standard_normal((2000, 3, 3))
    frobenius = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(a),
                                                                 axis=(1, 2))
    cond = np.linalg.cond(a)
    assert np.all(frobenius >= cond)
    monkeypatch.setattr(ensembles, "COND_MAX", LOW_COND_MAX)
    kept = np.array([ensembles._inverse_if_well_conditioned(x) is not None for x in a])
    np.testing.assert_array_equal(kept, frobenius < LOW_COND_MAX)
    assert 0 < np.sum(kept) < len(a)
    assert np.all(cond[kept] < LOW_COND_MAX)


@pytest.mark.parametrize("singular", [{1}, {1, 2}], ids=["stack", "stack-and-draw"])
def test_spherical_stack_replays_a_singular_draw(monkeypatch, singular):
    inv = np.linalg.inv
    calls = []

    def singular_at(a):
        calls.append(a.shape)
        if len(calls) in singular:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_at)
    rng_a, rng_b = ensembles.rng_for(15, 0), ensembles.rng_for(15, 0)
    stack = ensembles.sample_spherical(4, rng_a, size=50)
    # the stack's inverse raised, then each draw was inverted on its own, and
    # a draw whose inverse raised too was redrawn
    redrawn = len(singular) - 1
    assert calls == [(50, 4, 4)] + [(4, 4)] * (50 + redrawn)
    monkeypatch.setattr(np.linalg, "inv", inv)
    rng_b.standard_normal((redrawn, 2, 4, 4))
    np.testing.assert_array_equal(stack, _per_draw("spherical", 4, rng_b, 50))
    np.testing.assert_array_equal(rng_a.standard_normal(3), rng_b.standard_normal(3))


# ---------------------------------------------------------------------------
# the classification rule, one spectrum per row

def _classify_reference(eigs, rel_tol=1e-9):
    """The rule for one spectrum, written out element by element."""
    eigs = np.asarray(eigs, dtype=complex)
    scale = max(np.max(np.abs(eigs)) if eigs.size else 1.0, 1e-300)
    tol = rel_tol * scale
    is_real = np.abs(eigs.imag) <= tol
    if np.sum(~is_real) % 2 == 1:
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


@pytest.mark.parametrize("ensemble,n,tau,big_l", CELLS)
def test_classify_spectra_matches_the_reference_rule(ensemble, n, tau, big_l):
    rng = ensembles.rng_for(17, 0)
    eigs = np.linalg.eigvals(_stack(ensemble, n, rng, 512, tau, big_l)).astype(complex)
    real, upper = ensembles.classify_spectra(eigs)
    for i, row in enumerate(eigs):
        reals, ups = _classify_reference(row)
        np.testing.assert_array_equal(row.real[real[i]], reals)
        np.testing.assert_array_equal(row[upper[i]], ups)


def test_classify_spectra_rows_match_classify_spectrum():
    rows = np.array([
        [3.0, 1.0 + 5e-9j, 0.5 + 1.0j, 0.5 - 1.0j],  # odd count: 1 + 5e-9i is real
        [3.0, -1.0, 0.0, 2.5],                        # all real
        [0.0, 0.0, 0.0, 0.0],                         # all zero: scale floor 1e-300
        [2.0 - 1e-12j, 1.0 + 2.0j, 1.0 - 2.0j, -4.0],
        [0.01, 0.02 + 1e-10j, 0.02 - 1e-10j, 0.0],    # a pair only at its row's scale
    ])
    real, upper = ensembles.classify_spectra(rows)
    expected_reals = [[3.0, 1.0], [3.0, -1.0, 0.0, 2.5], [0.0] * 4, [2.0, -4.0],
                      [0.01, 0.0]]
    expected_upper = [[0.5 + 1.0j], [], [], [1.0 + 2.0j], [0.02 + 1e-10j]]
    for i, row in enumerate(rows):
        reals, ups = ensembles.classify_spectrum(row)
        np.testing.assert_array_equal(reals, _classify_reference(row)[0])
        np.testing.assert_array_equal(row.real[real[i]], reals)
        np.testing.assert_array_equal(row[upper[i]], ups)
        np.testing.assert_array_equal(reals, expected_reals[i])
        np.testing.assert_array_equal(ups, expected_upper[i])


@pytest.mark.parametrize("bad", [
    [1.0, 2.0 + 1.0j, 0.0],           # odd count, far from the axis
    [2.0 + 1.0j, 3.0 + 1.0j, 0.0],    # even count, no conjugates
])
def test_classify_spectra_rejects_unpaired_rows(bad):
    rows = np.array([[1.0, 1.0 + 1.0j, 1.0 - 1.0j], bad])
    with pytest.raises(RuntimeError, match="inconsistent complex-conjugate pairing"):
        ensembles.classify_spectra(rows)
    with pytest.raises(RuntimeError, match="inconsistent complex-conjugate pairing"):
        ensembles.classify_spectrum(np.array(bad))
