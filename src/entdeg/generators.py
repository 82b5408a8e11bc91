"""Pauli and Gell-Mann generator sets used as the Bloch projection basis.

Both sets carry the normalization tr(g_i g_j) = 2 delta_ij. The Gell-Mann
matrices follow the standard textbook enumeration: the three real-symmetric
off-diagonal ones sit at positions 1, 4, 6, the imaginary-antisymmetric ones
at 2, 5, 7, and the diagonal pair at 3 and 8 with g8 = diag(1, 1, -2)/sqrt(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered orthogonal generator basis for one local subsystem.

    Attributes:
        dim: local dimension N, 2 or 3.
        generators: N*N - 1 traceless Hermitian matrices, tr(g_i g_j) = 2 delta_ij.
        identity: the N x N identity, completing the operator basis.
    """

    dim: int
    generators: tuple[np.ndarray, ...]
    identity: np.ndarray


def _frozen(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    a.setflags(write=False)
    return a


_PAULI = GeneratorSet(
    dim=2,
    generators=(
        _frozen([[0, 1], [1, 0]]),
        _frozen([[0, -1j], [1j, 0]]),
        _frozen([[1, 0], [0, -1]]),
    ),
    identity=_frozen(np.eye(2)),
)

_S3 = 1.0 / np.sqrt(3.0)

_GELLMANN = GeneratorSet(
    dim=3,
    generators=(
        _frozen([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        _frozen([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
        _frozen([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        _frozen([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        _frozen([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
        _frozen([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        _frozen([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
        _frozen([[_S3, 0, 0], [0, _S3, 0], [0, 0, -2 * _S3]]),
    ),
    identity=_frozen(np.eye(3)),
)


# basis_for(2) and basis_for(3) under their own names; only
# tests/test_acceptance.py still imports these, so they stay in this module
def pauli_set() -> GeneratorSet:
    """The three Pauli matrices plus the 2x2 identity."""
    return _PAULI


def gellmann_set() -> GeneratorSet:
    """The eight Gell-Mann matrices plus the 3x3 identity."""
    return _GELLMANN


def basis_for(local_dim: int) -> GeneratorSet:
    """Generator set for a local dimension of 2 or 3."""
    if local_dim == 2:
        return _PAULI
    if local_dim == 3:
        return _GELLMANN
    raise ValueError(f"unsupported local dimension {local_dim}, expected 2 or 3")
