"""Rapidity parametrization of the Bloch vector and the boost correspondence.

Writing |u| = tanh(phi_u) turns the single-qubit density matrix into a
normalized Lorentz boost generator,

    rho(u) = L(u) / (2 cosh phi_u),   L(u) = cosh(phi_u) 1 + sinh(phi_u) n.s,

with n = u/|u|, and the entanglement degree of any pure two-qubit state
realizing that reduced state becomes the reciprocal Lorentz factor
1/cosh(phi_u) = sqrt(1 - |u|^2).

Note the factor of two: L(u) = exp(bphi n.s / 2) in terms of the boost
rapidity bphi = 2 phi_u. RapidityParam stores the half rapidity and exposes
the boost rapidity as a derived property so the relation cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch
from .generators import basis_for

LIGHT_CONE_MARGIN = 1e-12

# below this distance from |u| = 1, 1/cosh(artanh|u|) loses accuracy and
# degree_hyperbolic falls back to the algebraic sqrt((1-|u|)(1+|u|))
_ARTANH_SAFE_MARGIN = 1e-8


@dataclass(frozen=True)
class RapidityParam:
    """Direction and half rapidity of a Bloch vector u = n tanh(phi).

    unit_direction: n, unit 3-vector ((0, 0, 1) by convention when u = 0).
    half_rapidity: phi = artanh(|u|) >= 0.
    """

    unit_direction: np.ndarray
    half_rapidity: float

    @property
    def boost_rapidity(self) -> float:
        """The rapidity of the boost L = exp(boost_rapidity n.s / 2)."""
        return 2.0 * self.half_rapidity


def _vector3(u) -> np.ndarray:
    """``u`` as a float array, which must be real and have shape (3,)."""
    vec = np.asarray(u)
    if vec.shape != (3,) or np.iscomplexobj(vec):  # a float cast drops imaginary parts
        got = "complex entries" if vec.shape == (3,) else f"shape {vec.shape}"
        raise ValueError(f"expected a real 3-vector, got {got}")
    return vec.astype(float, copy=False)


def rapidity_of(u) -> RapidityParam:
    """Split a qubit Bloch vector into direction and half rapidity.

    Raises ValueError once |u| is within 1e-12 of the unit sphere: there
    the rapidity diverges (product states sit exactly on the boundary).
    A NaN |u| raises as well.
    """
    vec = _vector3(u)
    n = float(np.linalg.norm(vec))
    if not n <= 1.0 - LIGHT_CONE_MARGIN:  # NaN fails too
        raise ValueError(f"boost degenerate at the light-cone or undefined: |u| = {n}")
    if n == 0.0:
        direction = np.array([0.0, 0.0, 1.0])
    else:
        direction = vec / n
    direction.setflags(write=False)
    return RapidityParam(unit_direction=direction, half_rapidity=float(np.arctanh(n)))


def _dot_sigma(vec) -> np.ndarray:
    """The 2x2 matrix vec.s = sum_i vec_i s_i over the Pauli matrices."""
    return sum(c * s for c, s in zip(vec, basis_for(2).generators))


def lorentz_boost(r: RapidityParam) -> np.ndarray:
    """L = cosh(phi) 1 + sinh(phi) n.s as a 2x2 complex matrix.

    Hermitian and positive definite with det L = cosh^2 - sinh^2 = 1.
    """
    phi = r.half_rapidity
    return np.cosh(phi) * np.eye(2, dtype=complex) + np.sinh(phi) * _dot_sigma(r.unit_direction)


def boost_density_residual(u) -> float:
    """Max entrywise gap between (1 + u.s)/2 and L(u)/(2 cosh phi)."""
    vec = _vector3(u)
    r = rapidity_of(vec)
    direct = 0.5 * (np.eye(2, dtype=complex) + _dot_sigma(vec))
    boosted = lorentz_boost(r) / (2.0 * np.cosh(r.half_rapidity))
    return float(np.abs(direct - boosted).max())


def _degree_of_norms(norms: np.ndarray) -> np.ndarray:
    """``degree_hyperbolic`` of each gated norm |u|; at |u| >= 1 the algebraic form gives +0.0."""
    near = norms > 1.0 - _ARTANH_SAFE_MARGIN
    inside = np.where(norms < 1.0, norms, 1.0)
    algebraic = np.sqrt((1.0 - inside) * (1.0 + inside))
    return np.where(near, algebraic, 1.0 / np.cosh(np.arctanh(np.where(near, 0.0, norms))))


def degree_hyperbolic(u) -> float:
    """Entanglement degree from the Bloch vector alone: 1/cosh(artanh |u|).

    Equals sqrt(1 - |u|^2). Row 0 of ``_degree_of_norms``, the stacked form
    the verify sweep runs, with the algebraic fallback near |u| = 1. ``u``
    must be a real 3-vector, and |u| is checked by decompose's own |u| gate,
    ``bloch._norm_gates``: beyond 1 + ``bloch.LOCAL_NORM_SLACK``, or NaN, it
    raises the ValueError decompose raises.
    """
    norms = np.array([np.linalg.norm(_vector3(u))])
    bloch._raise_first(bloch._norm_gates(norms[None], "u"), 0)
    return float(_degree_of_norms(norms)[0])
