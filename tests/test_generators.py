import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdeg.generators import basis_for


def test_pauli_matrices_literal():
    g = basis_for(2)
    assert g.dim == 2
    assert_allclose(g.generators[0], [[0, 1], [1, 0]])
    assert_allclose(g.generators[1], [[0, -1j], [1j, 0]])
    assert_allclose(g.generators[2], [[1, 0], [0, -1]])
    assert_allclose(g.identity, np.eye(2))


def test_pauli_commutator():
    s1, s2, s3 = basis_for(2).generators
    assert_allclose(s1 @ s2 - s2 @ s1, 2j * s3)


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_generators_traceless_hermitian(basis):
    for g in basis.generators:
        assert abs(np.trace(g)) <= 1e-15
        assert np.abs(g - g.conj().T).max() <= 1e-15


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_orthonormality_all_pairs(basis):
    gens = basis.generators
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            expected = 2.0 if i == j else 0.0
            assert np.trace(gi @ gj) == pytest.approx(expected, abs=1e-15)


def test_gellmann_count_and_order():
    g = basis_for(3)
    assert g.dim == 3
    assert len(g.generators) == 8
    # real-symmetric off-diagonal generators at positions 1, 4, 6
    for k in (0, 3, 5):
        assert np.abs(g.generators[k].imag).max() == 0
    # imaginary-antisymmetric at 2, 5, 7
    for k in (1, 4, 6):
        assert np.abs(g.generators[k].real).max() == 0
    assert abs(np.trace(g.generators[4])) == 0


def test_gellmann_diagonal_eighth():
    lam8 = basis_for(3).generators[7]
    s3 = 1 / np.sqrt(3)
    assert_allclose(np.diag(lam8), [s3, s3, -2 * s3])
    assert_allclose(lam8, np.diag(np.diag(lam8)))


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_basis_completeness(basis):
    # any Hermitian H equals (tr H / N) I + sum_i (tr(H g_i) / 2) g_i
    rng = np.random.default_rng(17)
    n = basis.dim
    for _ in range(25):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) / 2
        rebuilt = (np.trace(h) / n) * basis.identity.astype(complex)
        for gen in basis.generators:
            rebuilt = rebuilt + (np.trace(h @ gen) / 2) * gen
        assert np.abs(rebuilt - h).max() <= 1e-13


def test_basis_for_dispatch():
    assert basis_for(2).dim == 2
    assert basis_for(3).dim == 3
    with pytest.raises(ValueError):
        basis_for(4)


def test_generator_arrays_are_read_only():
    with pytest.raises(ValueError):
        basis_for(2).generators[0][0, 0] = 5.0
