"""Pure bipartite state vectors, density matrices, partial traces, purity.

Index convention, fixed globally: the basis label |i, j> maps to the flat
index i * dim_b + j, so subsystem A is the high-order digit. Density
matrices are plain complex ndarrays; ``validate_density`` checks the
Hermiticity / trace / positivity invariants where a function's contract
requires them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _square

NORM_WARN_TOL = 1e-6

DENSITY_HERM_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIGVAL_FLOOR = -1e-10

# norms whose squares are normal doubles with room to spare; every input of
# unit scale stays on the plain path
NORM_RANGE = (2.0 ** -400, 2.0 ** 400)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state of a (dim_a x dim_b)-dimensional bipartite system.

    Parameters
    ----------
    dim_a, dim_b : int
        Local dimensions, each 2 or 3.
    amplitudes : ndarray
        Complex amplitudes of length dim_a * dim_b in the |i, j> -> i * dim_b + j
        order, unit norm within 1e-12.
    normalization_warning : bool
        Set by ``state_from_amplitudes`` when the raw input deviated from unit
        norm by more than ``NORM_WARN_TOL`` and had to be rescaled.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray
    normalization_warning: bool = False

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector: the same two dots, without its wrapper."""
    re, im = a.real, a.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer. A bool is not, nor is a
    float, even when integral: each would be read as a number it does not name."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def state_from_amplitudes(amps, dim_a: int, dim_b: int) -> StateVector:
    """Build a StateVector, rescaling to unit norm.

    Parameters
    ----------
    amps : sequence of complex
        Raw amplitudes, length dim_a * dim_b. Any nonzero norm is accepted;
        if it deviates from 1 by more than ``NORM_WARN_TOL`` the state is
        renormalized and its ``normalization_warning`` flag is set.
    dim_a, dim_b : int
        Local dimensions, each 2 or 3.

    Raises
    ------
    ValueError
        On a zero input vector, a non-finite amplitude, a length mismatch, or
        an unsupported or non-integer dimension.
    """
    # 2.0 == 2, but a float dimension breaks every shape computed from it
    integral = _is_integer(dim_a) and _is_integer(dim_b)
    if not integral or dim_a not in (2, 3) or dim_b not in (2, 3):
        raise ValueError(f"unsupported local dimensions ({dim_a}, {dim_b})")
    # a numpy integer would reach the report and break its JSON
    dim_a, dim_b = int(dim_a), int(dim_b)
    a = np.asarray(amps, dtype=complex).ravel()
    if a.size != dim_a * dim_b:
        raise ValueError(
            f"expected {dim_a * dim_b} amplitudes for dims ({dim_a}, {dim_b}), got {a.size}"
        )
    with np.errstate(over="ignore"):
        norm = _norm(a)
    warned = abs(norm - 1.0) > NORM_WARN_TOL
    # Outside this range the squared amplitudes lose bits or overflow (and a
    # NaN or infinite part makes the norm non-finite): look closer, and scale
    # by the power of two that brings the largest real or imaginary part to
    # [1/2, 1), which is exact. The peak is taken over the parts: a modulus
    # overflows to inf once it passes DBL_MAX, even with both parts finite.
    if not NORM_RANGE[0] <= norm <= NORM_RANGE[1]:
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite, got NaN or infinity")
        peak = float(np.abs(a.view(np.float64)).max())
        if peak == 0.0:
            raise ValueError("state vector is identically zero")
        shift = -math.frexp(peak)[1]
        # in two halves, since 2^shift alone overflows for subnormal input
        a = a * math.ldexp(1.0, shift // 2) * math.ldexp(1.0, shift - shift // 2)
        norm = _norm(a)
    a = a / norm
    a.setflags(write=False)
    return StateVector(dim_a, dim_b, a, normalization_warning=warned)


def density_from_state(psi: StateVector) -> np.ndarray:
    """Projector |psi><psi| as a dense complex matrix."""
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants, returning the array on success.

    Hermitian within 1e-12 entrywise, unit trace within 1e-12, eigenvalues
    above -1e-10. Raises ValueError naming the violated condition.
    """
    a = _square(np.asarray(rho, dtype=complex), "rho")
    asym = float(np.abs(a - a.conj().T).max())
    if not asym <= DENSITY_HERM_TOL:  # NaN fails too
        raise ValueError(f"rho is not Hermitian: max asymmetry {asym:.3e}")
    tr = complex(np.trace(a))
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        raise ValueError(f"rho has trace {tr}, expected 1")
    low = float(np.linalg.eigvalsh(a)[0])
    if not low >= DENSITY_EIGVAL_FLOOR:
        raise ValueError(f"rho is not positive semidefinite: lowest eigenvalue {low:.3e}")
    return a


def partial_trace(rho, keep: str, dims: tuple[int, int]) -> np.ndarray:
    """Reduced density matrix of one subsystem.

    Parameters
    ----------
    rho : array_like
        Density matrix of the joint system, dimension dims[0] * dims[1].
    keep : str
        "A" to trace out the second subsystem, "B" for the first.
    dims : (int, int)
        Local dimensions (dim_a, dim_b).
    """
    da, db = dims
    a = np.asarray(rho, dtype=complex)
    if a.shape != (da * db, da * db):
        raise ValueError(f"dimension mismatch: rho is {a.shape}, dims give {da * db}")
    blocks = a.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", blocks)
    if keep == "B":
        return np.einsum("ijil->jl", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def purity(rho) -> float:
    """tr(rho^2), real part (the imaginary part vanishes for Hermitian input)."""
    a = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", a, a).real)

