"""Dense matrix helpers for the small fixed dimensions used here (at most 9x9).

Everything below is a thin, validated wrapper over numpy/LAPACK routines.
The size cap exists because every object in this package is a 2x2 or 3x3
operator, a 4x4 or 9x9 density matrix, or the bordered correlation matrix
of the same size; anything larger indicates a bug at the call site.
"""

from __future__ import annotations

import numpy as np

from .bloch import _gate, _raise_first

MAX_DIM = 9

HERMITICITY_TOL = 1e-10


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} has an empty dimension: {a.shape}")
    if max(a.shape) > MAX_DIM:
        raise ValueError(
            f"dimension overflow: {name} is {a.shape[0]}x{a.shape[1]}, "
            f"this kernel handles at most {MAX_DIM}x{MAX_DIM}"
        )
    return a


def _as_square(m, name: str) -> np.ndarray:
    a = _as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the high-order index.

    Entry ((i*rb + k), (j*cb + l)) equals a[i, j] * b[k, l], so the first
    argument plays the role of subsystem A throughout the package.
    """
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape[0] * bm.shape[0] > MAX_DIM or am.shape[1] * bm.shape[1] > MAX_DIM:
        raise ValueError(
            "dimension overflow: kron result would be "
            f"{am.shape[0] * bm.shape[0]}x{am.shape[1] * bm.shape[1]}"
        )
    return np.kron(am, bm)


def det_real(m) -> float:
    """Determinant of a real square matrix (LU with partial pivoting).

    Singular matrices simply return 0 within floating tolerance; no error.
    """
    a = _as_square(m, "m")
    if np.iscomplexobj(a):
        raise ValueError("det_real expects a real matrix")
    return float(np.linalg.det(a.astype(float, copy=False)))


def _hermiticity_gate(asym: np.ndarray):
    return _gate(asym <= HERMITICITY_TOL, ValueError,
                 "matrix is not Hermitian: max |h - h^dagger| = {:.3e}", asym)


def herm_eigvals(h) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real and ascending.

    The input must be Hermitian to within ``HERMITICITY_TOL`` entrywise;
    otherwise a ValueError reports the largest asymmetry found.
    """
    a = _as_square(h, "h")
    _raise_first([_hermiticity_gate(np.array([np.abs(a - a.conj().T).max()]))], 0)
    return np.linalg.eigvalsh(a)
