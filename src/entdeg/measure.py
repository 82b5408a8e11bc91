"""The entanglement degree itself, its oracles, and the identity checks.

The measure: assemble the Bloch data into the bordered matrix

    alpha = [[1, v^T],
             [u, beta]]

(4x4 for qubit pairs, 9x9 for qutrit pairs) and take

    P_E = (-det alpha)^(1/4).

For pure two-qubit states this equals both 2 k1 k2 (Schmidt coefficients)
and the concurrence 2 |a d - b c|, which act as independent oracles here.
Purity of the joint state also forces a family of algebraic identities
among u, v and beta; ``purity_constraints_report`` returns their residuals
so sweeps can assert all of them at once.

For qutrit pairs the same determinant expression is evaluated as defined,
but no oracle or identity set backs it up, so reports mark those results
as not independently cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochForm, decompose
from .generators import basis_for
from .linalg import det_real, herm_eigvals
from .states import (
    PURITY_GATE_TOL,
    StateVector,
    density_from_state,
    partial_trace,
    purity,
)

# -det(alpha) may land this far below zero from floating noise alone
# (product states have exact determinant 0); anything worse means the
# purity precondition did not actually hold.
DET_CLAMP_WINDOW = 1e-9

ORACLE_CONSISTENCY_TOL = 1e-10

# Near the separable boundary |u| -> 1 the comparison value sqrt(1 - |u|^2)
# is noise-dominated: |u|^2 carries a few eps of rounding, and the square
# root amplifies that to ~1e-8 for an exact product state. Once both routes
# report less than this floor they agree the state is essentially
# disentangled, and the strict gate below would only be comparing noise.
NEAR_PRODUCT_FLOOR = 3e-5

RESIDUAL_KEYS = (
    "beta_v_eq_u",
    "beta_t_u_eq_v",
    "beta_sq_sum",
    "beta_cofactor",
    "u_eq_v",
    "det_beta_identity",
)


class PurityViolation(ArithmeticError):
    """A numerical precondition tied to purity failed.

    Raised when the purity gate rejects an input, when -det(alpha) is
    negative beyond floating noise, or when the internal consistency
    check between the determinant value and sqrt(1 - |u|^2) fails.
    """


@dataclass(frozen=True)
class EntanglementReport:
    """Everything ``analyze`` computes for one pure state.

    ``p_e_schmidt``, ``concurrence``, ``kappa`` and ``constraint_residuals``
    are None for qutrit input, where only the determinant route exists.
    ``alpha_det`` is the raw -det(alpha) before the clamp that produces
    ``p_e_det``. ``oracle_checked`` records whether the independent oracles
    ran (qubit pairs only).
    """

    local_dim: int
    p_e_det: float
    p_e_schmidt: float | None
    concurrence: float | None
    kappa: tuple[float, float] | None
    u: tuple[float, ...]
    v: tuple[float, ...]
    u_norm: float
    v_norm: float
    purity: float
    alpha_det: float
    constraint_residuals: dict[str, float] | None
    normalization_warning: bool
    oracle_checked: bool


def alpha_matrix(bf: BlochForm) -> np.ndarray:
    """Assemble [[1, v^T], [u, beta]]; pure block placement, no arithmetic."""
    k = bf.local_dim ** 2 - 1
    a = np.empty((k + 1, k + 1))
    a[0, 0] = 1.0
    a[0, 1:] = bf.v
    a[1:, 0] = bf.u
    a[1:, 1:] = bf.beta
    return a


def _degree_from_det(d: float) -> float:
    if d < -DET_CLAMP_WINDOW:
        raise PurityViolation(
            f"determinant sign inconsistent with purity: -det(alpha) = {d:.3e}"
        )
    if d < 0.0:
        d = 0.0
    return d ** 0.25


def degree_det(alpha) -> float:
    """P_E = (-det alpha)^(1/4), clamping floating noise just below zero.

    The caller is responsible for the purity gate on the source state;
    a determinant on the wrong side of the clamp window raises
    PurityViolation rather than returning a complex or NaN value.
    """
    return _degree_from_det(-det_real(alpha))


def schmidt_coeffs(psi: StateVector) -> tuple[float, float]:
    """Schmidt coefficients (k1, k2) of a two-qubit pure state, k1 >= k2.

    Square roots of the reduced-density-matrix eigenvalues.
    """
    if (psi.dim_a, psi.dim_b) != (2, 2):
        raise ValueError("Schmidt coefficients implemented for qubit pairs only")
    rho_a = partial_trace(density_from_state(psi), "A", (2, 2))
    lo, hi = herm_eigvals(rho_a)
    k1 = float(np.sqrt(max(hi, 0.0)))
    k2 = float(np.sqrt(max(lo, 0.0)))
    if abs(k1 * k1 + k2 * k2 - 1.0) > 1e-12:
        raise ArithmeticError(
            f"reduced eigenvalues sum to {k1 * k1 + k2 * k2}, expected 1"
        )
    return k1, k2


def degree_schmidt(kappa: tuple[float, float]) -> float:
    """P_E = 2 k1 k2 from Schmidt coefficients."""
    k1, k2 = kappa
    if abs(k1 * k1 + k2 * k2 - 1.0) > 1e-10:
        raise ValueError(f"Schmidt coefficients not normalized: k1^2 + k2^2 = {k1 * k1 + k2 * k2}")
    return 2.0 * k1 * k2


def concurrence_pure(psi: StateVector) -> float:
    """Concurrence 2 |a d - b c| of a pure two-qubit state (a, b, c, d)."""
    if (psi.dim_a, psi.dim_b) != (2, 2):
        raise ValueError("concurrence implemented for qubit pairs only")
    a, b, c, d = psi.amplitudes
    return 2.0 * abs(a * d - b * c)


def _signed_cofactors_3x3(b: np.ndarray) -> np.ndarray:
    """C[i, j] = (-1)^(i+j) * det of b with row i and column j removed.

    Written out explicitly: the sign convention is load-bearing in the
    cofactor identity below and a transposed adjugate would silently
    satisfy most symmetric test cases. ``b`` may carry trailing stack axes,
    shape (3, 3, ...), for many matrices at once.
    """
    c = np.empty(b.shape)
    rows = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        r0, r1 = rows[i]
        for j in range(3):
            c0, c1 = rows[j]
            minor = b[r0, c0] * b[r1, c1] - b[r0, c1] * b[r1, c0]
            c[i, j] = minor if (i + j) % 2 == 0 else -minor
    return c


def purity_constraints_report(bf: BlochForm) -> dict[str, float]:
    """Max-abs residuals of the pure-state identities among u, v, beta.

    Keys:
        beta_v_eq_u:       beta @ v = u
        beta_t_u_eq_v:     beta^T @ u = v
        beta_sq_sum:       sum(beta_ij^2) = 3 - |u|^2 - |v|^2
        beta_cofactor:     beta_ij = u_i v_j - C_ij  (signed cofactors of beta)
        u_eq_v:            |u| = |v|
        det_beta_identity: -det(beta) = 1 - |u|^2

    All six vanish for pure two-qubit states; a mixed state shows up as a
    nonzero residual (the maximally mixed state scores 3 on beta_sq_sum).
    The identities are qubit-specific, so qutrit input is rejected.
    """
    if bf.local_dim != 2:
        raise ValueError("purity constraints are only formulated for qubit pairs")
    u, v, beta = bf.u, bf.v, bf.beta
    un2 = float(u @ u)
    vn2 = float(v @ v)
    cof = _signed_cofactors_3x3(beta)
    return {
        "beta_v_eq_u": float(np.abs(beta @ v - u).max()),
        "beta_t_u_eq_v": float(np.abs(beta.T @ u - v).max()),
        "beta_sq_sum": abs(float((beta * beta).sum()) - (3.0 - un2 - vn2)),
        "beta_cofactor": float(np.abs(beta - (np.outer(u, v) - cof)).max()),
        "u_eq_v": abs(np.sqrt(un2) - np.sqrt(vn2)),
        "det_beta_identity": abs(-det_real(beta) - (1.0 - un2)),
    }


def analyze(psi: StateVector) -> EntanglementReport:
    """Full pipeline for one pure state: density, Bloch data, alpha, P_E.

    For qubit pairs the Schmidt and concurrence oracles and the purity
    identity residuals are filled in as well, and the determinant value is
    required to agree with sqrt(1 - |u|^2) to 1e-10 (PurityViolation
    otherwise), except inside the near-product window where the square
    root is noise-dominated. Qutrit pairs get the determinant route only.
    """
    if psi.dim_a != psi.dim_b:
        raise ValueError(
            f"analysis requires equal local dimensions, got ({psi.dim_a}, {psi.dim_b})"
        )
    n = psi.dim_a
    rho = density_from_state(psi)
    pur = purity(rho)
    if abs(pur - 1.0) > PURITY_GATE_TOL:
        raise PurityViolation(f"purity gate failed: tr(rho^2) = {pur}")

    bf = decompose(rho, basis_for(n))
    d_raw = -det_real(alpha_matrix(bf))
    p_e = _degree_from_det(d_raw)
    u_norm = float(np.linalg.norm(bf.u))
    v_norm = float(np.linalg.norm(bf.v))

    p_e_schmidt = None
    conc = None
    kappa = None
    residuals = None
    if n == 2:
        kappa = schmidt_coeffs(psi)
        p_e_schmidt = degree_schmidt(kappa)
        conc = concurrence_pure(psi)
        residuals = purity_constraints_report(bf)
        from_u = np.sqrt(max(0.0, 1.0 - u_norm * u_norm))
        gap = abs(p_e - from_u)
        if gap > ORACLE_CONSISTENCY_TOL and max(p_e, from_u) > NEAR_PRODUCT_FLOOR:
            raise PurityViolation(
                f"determinant route gives {p_e}, sqrt(1 - |u|^2) gives {from_u}"
            )

    return EntanglementReport(
        local_dim=n,
        p_e_det=p_e,
        p_e_schmidt=p_e_schmidt,
        concurrence=conc,
        kappa=kappa,
        u=tuple(float(x) for x in bf.u),
        v=tuple(float(x) for x in bf.v),
        u_norm=u_norm,
        v_norm=v_norm,
        purity=pur,
        alpha_det=d_raw,
        constraint_residuals=residuals,
        normalization_warning=psi.normalization_warning,
        oracle_checked=(n == 2),
    )
