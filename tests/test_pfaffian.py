"""Property tests for the Pfaffian engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realrmt import pfaffian


def _skew(seed, n, is_complex=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((n, n))
    return (a - a.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10), st.booleans())
def test_pfaffian_squares_to_determinant(seed, half, is_complex):
    a = _skew(seed, 2 * half, is_complex)
    pf = pfaffian.pfaffian(a)
    det = np.linalg.det(a)
    assert pf * pf == pytest.approx(det, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10), st.booleans())
def test_pfaffian_congruence(seed, half, is_complex):
    n = 2 * half
    a = _skew(seed, n, is_complex)
    b = np.random.default_rng(seed + 1).standard_normal((n, n))
    if is_complex:
        b = b + 1j * np.random.default_rng(seed + 2).standard_normal((n, n))
    lhs = pfaffian.pfaffian(b @ a @ b.T)
    rhs = np.linalg.det(b) * pfaffian.pfaffian(a)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4), st.booleans())
def test_elimination_matches_laplace(seed, half, is_complex):
    a = _skew(seed, 2 * half, is_complex)
    assert pfaffian.pfaffian(a) == pytest.approx(
        pfaffian.pfaffian_laplace(a), rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=5), st.booleans())
def test_rows_are_the_closed_form_at_order_four_and_the_elimination_elsewhere(
        seed, half, is_complex):
    a = _skew(seed, 2 * half, is_complex)
    got = pfaffian.pfaffian_rows(a.tolist())
    if half == 2:
        assert got == pfaffian.pfaffian_laplace(a)
        assert got == pytest.approx(pfaffian.pfaffian(a), rel=1e-12, abs=1e-15)
    else:
        assert got == pfaffian.pfaffian(a)
        assert type(got) is type(pfaffian.pfaffian(a))


def test_order_twenty_pfaffian_is_the_product_of_its_blocks():
    # a block-diagonal matrix conjugated by a unit-determinant permutation
    vals = np.arange(1.0, 11.0) * np.exp(0.3j * np.arange(10))
    perm = np.random.default_rng(4).permutation(20)
    p = np.eye(20)[perm]
    a = p @ pfaffian.skew_diagonal(vals) @ p.T
    assert pfaffian.pfaffian(a) == pytest.approx(np.linalg.det(p) * np.prod(vals), rel=1e-13)


def test_complex_skew_matrix_keeps_its_imaginary_part():
    a = np.array([[0, 1 + 2j, 3, 4j], [-1 - 2j, 0, 5, 6],
                  [-3, -5, 0, 2 - 1j], [-4j, -6, -2 + 1j, 0]])
    want = pfaffian.pfaffian_laplace(a)
    assert want == -14 + 23j
    assert pfaffian.pfaffian(pfaffian.SkewMatrix(a)) == pytest.approx(want, rel=1e-14)
    assert pfaffian.pfaffian(a) == pytest.approx(want, rel=1e-14)
    sign, log_abs = pfaffian.pfaffian_signed_log(pfaffian.SkewMatrix(a))
    assert sign * np.exp(log_abs) == pytest.approx(want, rel=1e-14)


def test_odd_order_pfaffian_is_zero():
    assert pfaffian.pfaffian(_skew(3, 5)) == 0.0
    sign, log_abs = pfaffian.pfaffian_signed_log(_skew(3, 7))
    assert sign == 0.0 and log_abs == -np.inf


def test_symplectic_unit_pfaffian():
    for half in (1, 2, 5):
        z = pfaffian.symplectic_unit(2 * half)
        assert pfaffian.pfaffian(z) == pytest.approx(1.0)
        assert pfaffian.pfaffian(-z) == pytest.approx((-1.0) ** half)
    with pytest.raises(ValueError):
        pfaffian.symplectic_unit(3)


def test_skew_diagonal_pfaffian_is_product():
    vals = np.array([2.0, -3.0, 0.5])
    assert pfaffian.pfaffian(pfaffian.skew_diagonal(vals)) == pytest.approx(
        np.prod(vals))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=6))
def test_chequer_embedding(seed, n):
    a = np.random.default_rng(seed).standard_normal((n, n))
    b = pfaffian.chequer_embed(a)
    assert pfaffian.pfaffian(b) == pytest.approx(np.linalg.det(a),
                                                 rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(pfaffian.chequer_collapse(b), a)


def test_chequer_collapse_rejects_dense():
    with pytest.raises(ValueError):
        pfaffian.chequer_collapse(_skew(0, 4))


def test_qdet_selfdual_of_skew_diagonal():
    # M = diag-blocks [[v, 0], [0, v]] is self-dual with qdet = prod v
    vals = np.array([1.5, -2.0])
    m = np.kron(np.diag(vals), np.eye(2))
    assert pfaffian.qdet_selfdual(m) == pytest.approx(np.prod(vals))


def test_bordered_pfaffian_matches_explicit():
    core = _skew(11, 5)
    border = np.random.default_rng(12).standard_normal(5)
    big = np.zeros((6, 6))
    big[:5, :5] = core
    big[:5, 5] = border
    big[5, :5] = -border
    assert pfaffian.pfaffian_bordered(core, border) == pytest.approx(
        pfaffian.pfaffian(big))
    sign, log_abs = pfaffian.pfaffian_bordered_signed_log(core, border)
    assert sign * np.exp(log_abs) == pytest.approx(pfaffian.pfaffian(big))
    with pytest.raises(ValueError):
        pfaffian.pfaffian_bordered(_skew(0, 4), np.ones(4))


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        pfaffian.SkewMatrix(np.eye(3))
    with pytest.raises(ValueError):
        pfaffian.SkewMatrix(np.zeros((2, 3)))
    a = _skew(5, 4)
    m = pfaffian.SkewMatrix(a + 1e-14 * np.ones((4, 4)))
    np.testing.assert_allclose(m.data, a, atol=1e-13)
    assert m.order == 4


def test_singular_matrix_gives_zero():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert pfaffian.pfaffian(a) == 0.0
