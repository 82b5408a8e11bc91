"""Pauli and Gell-Mann generator sets used as the Bloch projection basis.

Both are the generalized Gell-Mann basis of an n-level system (Kimura, Phys.
Lett. A 314, 339, 2003; Bertlmann and Krammer, J. Phys. A 41, 235303, 2008),
normalized to tr(g_i g_j) = 2 delta_ij. For k = 1 .. n-1 it takes, for each
j < k, the real-symmetric E_jk + E_kj and the imaginary-antisymmetric
-i E_jk + i E_kj, then diag(1, .., 1, -k, 0, ..) / sqrt(k (k + 1) / 2). At
n = 2 that is sigma_x, sigma_y, sigma_z; at n = 3 the textbook order, with the
real-symmetric generators at positions 1, 4, 6, the imaginary-antisymmetric
ones at 2, 5, 7 and the diagonal pair at 3 and 8, g8 = diag(1, 1, -2)/sqrt(3).
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


def _gellmann(n: int) -> GeneratorSet:
    """The n-level generalized Gell-Mann basis, read-only, in the order above."""
    gens = []
    for k in range(1, n):
        for j in range(k):
            # -1j is complex(-0.0, -1.0): that signed zero is part of the set's bytes
            for upper, lower in ((1, 1), (-1j, 1j)):
                g = np.zeros((n, n), dtype=complex)
                g[j, k], g[k, j] = upper, lower
                gens.append(g)
        diag = np.array([1.0] * k + [-k] + [0.0] * (n - 1 - k))
        gens.append(np.diag(diag / np.sqrt(k * (k + 1) / 2)).astype(complex))
    identity = np.eye(n, dtype=complex)
    for a in (*gens, identity):
        a.setflags(write=False)
    return GeneratorSet(n, tuple(gens), identity)


_PAULI = _gellmann(2)
_GELLMANN = _gellmann(3)


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
