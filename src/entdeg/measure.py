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
and reports mark those results as not independently cross-checked. The
closed form ``_qutrit_oracle`` reads -det alpha off the amplitude matrix
alone, without rho, the Gell-Mann tables or LAPACK; nothing calls it yet.

``analyze`` is row 0 of a stack of one in ``_analyze_stack``, the kernel the
verify sweep runs over its chunks of Haar samples, so every report field,
oracle, identity and gate is written once. The Bloch-form gates belong to
``bloch._decompose_stack``, which the kernel calls after its finite and
purity gates. ``alpha_matrix`` is row 0 of ``_alpha_stack``, the one border of
alpha. ``degree_det``, ``schmidt_coeffs``, ``concurrence_pure`` and
``purity_constraints_report`` are separate routes the tests hold it to;
``degree_det`` and ``schmidt_coeffs`` raise through the kernel's gate builders.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bloch import BlochForm, _decompose_stack, _float_rows, _gate, _not_finite, _raise_first
from .linalg import _hermiticity_gate, det_real, herm_eigvals
from .states import StateVector, density_from_state, partial_trace

PURITY_GATE_TOL = 1e-10

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

# the squared Schmidt coefficients must sum to 1 this closely
SCHMIDT_SUM_TOL = 1e-12


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


def _alpha_stack(u, v, beta) -> np.ndarray:
    """[[1, v^T], [u, beta]] of the rows u, v (N, k) and beta (N, k, k); pure block placement."""
    count, k = len(beta), beta.shape[-1]
    a = np.empty((count, k + 1, k + 1))
    a[:, 0, 0] = 1.0
    a[:, 0, 1:] = v
    a[:, 1:, 0] = u
    a[:, 1:, 1:] = beta
    return a


def alpha_matrix(bf: BlochForm) -> np.ndarray:
    """[[1, v^T], [u, beta]] of one Bloch form, row 0 of ``_alpha_stack``."""
    return _alpha_stack(*(np.asarray(part)[None] for part in (bf.u, bf.v, bf.beta)))[0]


def _det_sign_gate(d: np.ndarray):
    return _gate(d >= -DET_CLAMP_WINDOW, PurityViolation,
                 "determinant sign inconsistent with purity: -det(alpha) = {:.3e}", d)


def _schmidt_sum_gate(k_sum: np.ndarray):
    return _gate(np.abs(k_sum - 1.0) <= SCHMIDT_SUM_TOL, ArithmeticError,
                 "reduced eigenvalues sum to {}, expected 1", k_sum)


def degree_det(alpha) -> float:
    """P_E = (-det alpha)^(1/4), clamping floating noise just below zero.

    The caller is responsible for the purity gate on the source state;
    a determinant on the wrong side of the clamp window, or a NaN one,
    raises PurityViolation rather than returning a complex or NaN value.
    """
    d = -det_real(alpha)
    _raise_first([_det_sign_gate(np.array([d]))], 0)
    return max(d, 0.0) ** 0.25


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
    _raise_first([_schmidt_sum_gate(np.array([k1 * k1 + k2 * k2]))], 0)
    return k1, k2


def degree_schmidt(kappa: tuple[float, float]) -> float:
    """P_E = 2 k1 k2 from Schmidt coefficients; ValueError unless
    k1^2 + k2^2 is within 1e-10 of 1 (NaN is not)."""
    k1, k2 = kappa
    if not abs(k1 * k1 + k2 * k2 - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"Schmidt coefficients not normalized: k1^2 + k2^2 = {k1 * k1 + k2 * k2}")
    return 2.0 * k1 * k2


def concurrence_pure(psi: StateVector) -> float:
    """Concurrence 2 |a d - b c| of a pure two-qubit state (a, b, c, d)."""
    if (psi.dim_a, psi.dim_b) != (2, 2):
        raise ValueError("concurrence implemented for qubit pairs only")
    a, b, c, d = psi.amplitudes
    return 2.0 * abs(a * d - b * c)


# flat positions of b[r0, c0], b[r1, c1], b[r0, c1], b[r1, c0] for the minor
# of each entry (i, j), rows r0 < r1 other than i, columns c0 < c1 other than j
_OTHER = ((1, 2), (0, 2), (0, 1))
_MINOR_TERMS = np.array(
    [
        [[3 * r[a] + c[b] for c in _OTHER] for r in _OTHER]
        for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))
    ]
)
_COF_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def _signed_cofactors_3x3(b: np.ndarray) -> np.ndarray:
    """C[i, j] = (-1)^(i+j) * det of b with row i and column j removed.

    Written out explicitly: the sign convention is load-bearing in the
    cofactor identity below and a transposed adjugate would silently
    satisfy most symmetric test cases. ``b`` may carry leading stack axes,
    shape (..., 3, 3), for many matrices at once.
    """
    t = b.reshape(*b.shape[:-2], 9).take(_MINOR_TERMS, axis=-1)
    return (t[..., 0, :, :] * t[..., 1, :, :] - t[..., 2, :, :] * t[..., 3, :, :]) * _COF_SIGN


_QutritOracle = namedtuple("_QutritOracle", "e2 e3 minus_det_alpha")


def _qutrit_oracle(psi: np.ndarray) -> _QutritOracle:
    """-det alpha of the unit qutrit amplitude rows psi (N, 9), in closed form.

    Row i of psi is the 3x3 amplitude matrix M, rows for subsystem A, and the
    Schmidt weights l1, l2, l3 are the eigenvalues of M M^dagger. By
    Cauchy-Binet their symmetric functions need no eigensolver: e1 = ||M||^2
    = 1, e2 = sum |C_ij|^2 over the signed cofactors of M, and e3 = |det M|^2,
    with det M = sum_j M_0j C_0j. Then

        -det alpha = (3^7 / 2) e3^2 (e2 + 9 e3).

    Derivation. A local unitary turns u, v and beta by orthogonal maps of
    the generator coordinates, which leave det alpha alone, so take the
    Schmidt form psi = sum_k s_k |kk>, l_k = s_k^2. Each pair j < k owns a
    symmetric and an antisymmetric generator; on them u and v vanish and
    beta is diag(3 s_j s_k, -3 s_j s_k), three 2x2 blocks whose determinants
    multiply to -3^6 e3^2. What is left is the block over (1, g3, g8),
    [[1, w^T], [w, B]] with w = W l and B = 2 W diag(l) W^T, where the rows of
    the 2x3 matrix W are (sqrt(3)/2) (1, -1, 0) and (1/2) (1, 1, -2), orthogonal
    to (1, 1, 1) with squared norm 3/2. Its Schur complement is
    W (2 diag(l) - l l^T) W^T, of determinant (3/2)^2 (1/3) 1^T adj(X) 1 for
    X = 2 diag(l) - l l^T, and the matrix determinant lemma gives
    1^T adj(X) 1 = 2 (e2 + 9 e3). So the block's determinant is
    (3/2) (e2 + 9 e3), and the product is the closed form above.

    At dim 2 the same object is the concurrence: the Schmidt form leaves
    beta = diag(2 s1 s2, -2 s1 s2, 1) beside u = v = (0, 0, l1 - l2), so
    -det alpha = (2 s1 s2)^4 and P_E = 2 |det M| = 2 |ad - bc|.
    """
    m = psi.reshape(len(psi), 3, 3)
    cof = _signed_cofactors_3x3(m)
    e2 = (cof.real * cof.real + cof.imag * cof.imag).sum(axis=(1, 2))
    det = (m[:, 0, :] * cof[:, 0, :]).sum(axis=1)
    e3 = det.real * det.real + det.imag * det.imag
    return _QutritOracle(e2, e3, 3.0**7 / 2.0 * e3 * e3 * (e2 + 9.0 * e3))


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
        "u_eq_v": float(abs(np.sqrt(un2) - np.sqrt(vn2))),
        "det_beta_identity": abs(-det_real(beta) - (1.0 - un2)),
    }


def _clamp_low(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)`` as Python gives it (-0.0 gives 0.0), but NaN stays NaN."""
    return np.where(x <= 0.0, 0.0, x)


# What ``_analyze_stack`` computes, one row per state. ``rows`` holds u, v and
# beta as the coefficient rows ``bloch._expand`` reads. ``rho`` (the density
# matrices), ``kappa`` (the rows k1 and k2), ``p_e_schmidt``, ``concurrence``,
# ``residuals`` and ``u_gap``, the gap |P_E - sqrt(1 - |u|^2)|, are None at
# dim 3; ``gates`` lists analyze's gates in its order, each as the mask of the
# rows that pass it and the exception of a row that does not.
_Stack = namedtuple(
    "_Stack",
    "u v beta rows rho purity u_norm v_norm alpha_det p_e kappa p_e_schmidt concurrence"
    " residuals u_gap gates",
)


# numpy buffers both broadcast operands of a product whole, 16 bytes per
# entry each, up to 8192 entries: ``_density_stack`` takes at most this many
# entries per product
_DENSITY_PRODUCTS = 4096


def _density_stack(psi: np.ndarray) -> np.ndarray:
    """The density matrices (N, d, d) of the amplitude rows psi (N, d), each
    ``np.outer(psi[i], psi[i].conj())``, a block of rows at a time."""
    count, d = psi.shape
    step = max(_DENSITY_PRODUCTS // (d * d), 1)
    rho = np.empty((count, d, d), dtype=complex)
    for lo in range(0, count, step):
        block = psi[lo : lo + step]
        np.multiply(block[:, :, None], block.conj()[:, None, :], out=rho[lo : lo + step])
    return rho


def _analyze_stack(psi: np.ndarray, n: int) -> _Stack:
    """``analyze`` over the amplitude rows psi (N, n * n), one row per state.

    Row i equals, bit for bit, the single-state values of the state psi[i]:
    the Bloch data and norms are ``bloch._decompose_stack``'s, ``** 0.25``
    runs in libm's pow, as Python's float power does, and the concurrence in
    the real products Python's complex multiply takes.
    """
    count = len(psi)
    rho = _density_stack(psi)
    pur = np.einsum("nij,nji->n", rho, rho).real
    # pur is finite unless an entry of rho is not, or its squares overflow;
    # only then are the entries read, and the row zeroed for what follows
    finite, given = np.isfinite(pur), None
    if not finite.all():
        given, rho = rho, np.where(finite[:, None, None], rho, 0.0)
        finite = np.isfinite(given).all(axis=(1, 2))
    gates = [
        (finite, lambda i: _not_finite(given[i])),
        _gate(np.abs(pur - 1.0) <= PURITY_GATE_TOL, PurityViolation,
              "purity gate failed: tr(rho^2) = {}", pur),
    ]
    if n == 2:
        rho_a = np.einsum("nijkj->nik", rho.reshape(count, 2, 2, 2, 2))
    # the projection, the largest working set of a stack, reads the float
    # rows alone. At dim 3 rho goes before it, and the round trip forms it
    # again; a qubit stack is small enough to keep it for the round trip
    x = _float_rows(rho)
    if n != 2:
        rho = None
    bloch = _decompose_stack(x, n)
    gates += bloch.gates
    u, v, beta = bloch.u, bloch.v, bloch.beta
    u_norm, v_norm = bloch.norms

    d_raw = -np.linalg.det(_alpha_stack(u, v, beta))
    gates.append(_det_sign_gate(d_raw))
    # np.float_power calls libm pow, as Python's float ** does (np.power
    # rounds differently); pow(-0.0, 0.25) is +0.0 as well
    p_e = np.float_power(_clamp_low(d_raw), 0.25)
    kappa = p_e_schmidt = conc = residuals = u_gap = None
    if n == 2:
        # schmidt_coeffs: the eigenvalues of the reduced density matrix
        asym = np.abs(rho_a - rho_a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        gates.append(_hermiticity_gate(asym))
        eig = np.linalg.eigvalsh(rho_a)
        k2, k1 = np.sqrt(np.where(0.0 > eig, 0.0, eig)).T
        # degree_schmidt re-checks the same sum at a looser tolerance
        gates.append(_schmidt_sum_gate(k1 * k1 + k2 * k2))
        kappa, p_e_schmidt = (k1, k2), 2.0 * k1 * k2

        # concurrence 2 |ad - bc| as Python's complex arithmetic rounds it:
        # each product is (re re - im im, re im + im re) in real ufuncs (numpy's
        # complex multiply rounds differently), and abs is libm's hypot. Like
        # Python's, it overflows to inf or NaN without a warning: such a row
        # has failed the finite or the purity gate
        (ar, br, cr, dr), (ai, bi, ci, di) = psi.real.T, psi.imag.T
        with np.errstate(over="ignore", invalid="ignore"):
            re = ar * dr - ai * di - (br * cr - bi * ci)
            im = ar * di + ai * dr - (br * ci + bi * cr)
        conc = 2.0 * np.hypot(re, im)

        # purity_constraints_report; its np.sqrt(un2) is u_norm
        un2, vn2 = bloch.sq
        cof = _signed_cofactors_3x3(beta)
        residuals = {
            "beta_v_eq_u": np.abs((beta @ v[:, :, None])[:, :, 0] - u).max(axis=1),
            "beta_t_u_eq_v": np.abs((u[:, None, :] @ beta)[:, 0, :] - v).max(axis=1),
            "beta_sq_sum": np.abs((beta * beta).reshape(count, 9).sum(axis=1) - (3.0 - un2 - vn2)),
            "beta_cofactor": np.abs(beta - (u[:, :, None] * v[:, None, :] - cof)).max(axis=(1, 2)),
            "u_eq_v": np.abs(u_norm - v_norm),
        }
        # LU of a beta with subnormal entries can divide by zero; the residual
        # reports what det returns (the sweep's tolerance fails a NaN), so
        # numpy's warning would only add a line to stderr
        with np.errstate(divide="ignore"):
            det_beta = np.linalg.det(beta)
        residuals["det_beta_identity"] = np.abs(-det_beta - (1.0 - un2))

        # the sweep reports u_gap as det_vs_u_norm, so |u| is squared with libm
        # pow, as the scalar route's u_norm ** 2 is; a multiply rounds
        # differently. A NaN on either side fails both tests: np.maximum keeps it
        from_u = np.sqrt(_clamp_low(1.0 - np.float_power(u_norm, 2.0)))
        u_gap = np.abs(p_e - from_u)
        gates.append(_gate(
            (u_gap <= ORACLE_CONSISTENCY_TOL) | (np.maximum(p_e, from_u) <= NEAR_PRODUCT_FLOOR),
            PurityViolation, "determinant route gives {}, sqrt(1 - |u|^2) gives {}", p_e, from_u,
        ))
    return _Stack(
        u, v, beta, bloch.rows, rho, pur, u_norm, v_norm, d_raw, p_e, kappa, p_e_schmidt, conc,
        residuals, u_gap, gates,
    )


def analyze(psi: StateVector) -> EntanglementReport:
    """Full pipeline for one pure state: density, Bloch data, alpha, P_E.

    For qubit pairs the Schmidt and concurrence oracles and the purity
    identity residuals are filled in as well, and the determinant value is
    required to agree with sqrt(1 - |u|^2) to 1e-10 (PurityViolation
    otherwise), except inside the near-product window where the square
    root is noise-dominated. Qutrit pairs get the determinant route only.
    The state is row 0 of a stack of one in ``_analyze_stack``; the first
    gate it fails raises.
    """
    if psi.dim_a != psi.dim_b:
        raise ValueError(
            f"analysis requires equal local dimensions, got ({psi.dim_a}, {psi.dim_b})"
        )
    n = psi.dim_a
    s = _analyze_stack(psi.amplitudes[None], n)
    _raise_first(s.gates, 0)

    qubit = n == 2
    return EntanglementReport(
        local_dim=n,
        p_e_det=float(s.p_e[0]),
        p_e_schmidt=float(s.p_e_schmidt[0]) if qubit else None,
        concurrence=float(s.concurrence[0]) if qubit else None,
        kappa=(float(s.kappa[0][0]), float(s.kappa[1][0])) if qubit else None,
        u=tuple(s.u[0].tolist()),
        v=tuple(s.v[0].tolist()),
        u_norm=float(s.u_norm[0]),
        v_norm=float(s.v_norm[0]),
        purity=float(s.purity[0]),
        alpha_det=float(s.alpha_det[0]),
        constraint_residuals=(
            {key: float(vals[0]) for key, vals in s.residuals.items()} if qubit else None
        ),
        normalization_warning=psi.normalization_warning,
        oracle_checked=qubit,
    )
