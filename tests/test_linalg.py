import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entdeg.linalg import det_real, herm_eigvals, kron
from entdeg.states import validate_density

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_kron_identity():
    assert_allclose(kron(I2, I2), np.eye(4))


def test_kron_left_factor_is_high_order():
    assert_allclose(kron(S3, I2), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_flip_antidiagonal():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
    assert_allclose(kron(S1, S1), expected)


def test_det_identity():
    assert det_real(np.eye(4)) == pytest.approx(1.0)


def test_det_bell_alpha():
    # the bordered matrix of a Bell pair is diag(1, 1, -1, 1)
    assert det_real(np.diag([1.0, 1.0, -1.0, 1.0])) == pytest.approx(-1.0)


def test_det_three_term_alpha():
    # hand cofactor expansion of the scaled integer form gives det = -16,
    # so the unscaled matrix has det -16/81
    alpha = (
        np.array(
            [[3, 2, 0, -1], [2, 2, 0, -2], [0, 0, -2, 0], [1, 2, 0, 1]], dtype=float
        )
        / 3.0
    )
    assert det_real(alpha) == pytest.approx(-16.0 / 81.0, abs=1e-15)


def test_det_rejects_complex():
    with pytest.raises(ValueError, match="real"):
        det_real(I2)


def test_eigvals_identity():
    assert_allclose(herm_eigvals(I2), [1.0, 1.0])


def test_eigvals_diagonal_ascending():
    assert_allclose(herm_eigvals(S3), [-1.0, 1.0])


def test_eigvals_reduced_three_term_state():
    # (1/3) [[2, 1], [1, 1]] has trace 1 and det 1/9, hence (1 +/- sqrt(5)/3)/2
    rho_a = np.array([[2, 1], [1, 1]], dtype=complex) / 3.0
    expected = [(1 - np.sqrt(5) / 3) / 2, (1 + np.sqrt(5) / 3) / 2]
    assert_allclose(herm_eigvals(rho_a), expected, atol=1e-14)


def test_eigvals_reports_asymmetry():
    bad = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eigvals(bad)


def test_eigvals_rejects_nan():
    with pytest.raises(ValueError, match=r"not Hermitian: max \|h - h\^dagger\| = nan"):
        herm_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("check", [det_real, herm_eigvals, validate_density])
@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2)], ids=["1-d", "2x3", "2x2x2"])
def test_non_square_input_rejected_by_one_check(check, shape):
    with pytest.raises(ValueError, match="must be a square matrix"):
        check(np.ones(shape))


finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def small_matrix(n):
    return st.lists(st.lists(finite, min_size=n, max_size=n), min_size=n, max_size=n).map(
        np.array
    )


@seed(2024)
@settings(max_examples=50, deadline=None)
@given(small_matrix(2), small_matrix(2), small_matrix(2))
def test_kron_associative_and_bilinear(a, b, c):
    assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
    assert_allclose(kron(a + b, c), kron(a, c) + kron(b, c), atol=1e-12)


@seed(2025)
@settings(max_examples=50, deadline=None)
@given(small_matrix(4), small_matrix(4))
def test_det_multiplicative(a, b):
    lhs = det_real(a @ b)
    rhs = det_real(a) * det_real(b)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_eigvals_trace_and_det_consistency():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 9):
        for _ in range(10):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (g + g.conj().T) / 2
            ev = herm_eigvals(h)
            assert np.all(np.diff(ev) >= 0)
            assert ev.sum() == pytest.approx(np.trace(h).real, abs=1e-10)
            assert np.prod(ev) == pytest.approx(
                np.linalg.det(h).real, abs=1e-10 * max(1, abs(np.prod(ev)))
            )
