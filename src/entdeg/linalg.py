"""Dense matrix helpers: the determinant and the Hermitian spectrum.

``_square`` is the one check that an input is a square matrix; ``det_real``,
``herm_eigvals`` and ``states.validate_density`` raise through it.
"""

from __future__ import annotations

import numpy as np

from .bloch import _gate, _raise_first

HERMITICITY_TOL = 1e-10


def _square(m, name: str) -> np.ndarray:
    """``m`` as an array; a ValueError naming ``name`` unless it is a non-empty square matrix."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the high-order index.

    Nothing in the package calls it (``fixtures`` uses ``np.kron``); it stays
    because the benchmark's per-layer trace looks it up by name.
    """
    return np.kron(a, b)


def det_real(m) -> float:
    """Determinant of a real square matrix (LU with partial pivoting).

    Singular matrices simply return 0 within floating tolerance; no error.
    """
    a = _square(m, "m")
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
    a = _square(h, "h")
    _raise_first([_hermiticity_gate(np.array([np.abs(a - a.conj().T).max()]))], 0)
    return np.linalg.eigvalsh(a)
