"""Seeded Haar-random states and the mass property sweep over them.

Reproducibility contract: sample number ``idx`` of a sweep depends only on
(seed, idx), never on worker count or chunking. Each sample owns a Philox
counter block derived from its index (the index sits in the highest counter
word, so per-sample streams cannot overlap), and the Gaussian variates are
produced by an explicit Box-Muller transform on the raw 64-bit output, so
the draw sequence is pinned by this file rather than by library internals.

The sweep evaluates samples ``CHUNK`` at a time: every stage of the
single-state pipeline (``state_for_index``, ``analyze``, the decompose /
reconstruct round trip, ``degree_hyperbolic``) runs as one stacked numpy
operation over the chunk. Each stacked operation is chosen so that it
rounds exactly like its single-state counterpart, which makes every
per-sample value, and so the sweep report, bit-identical to the
single-state route.

The Bloch projections and the round trip's expansion go through the same
sparse kernel as ``decompose`` and ``reconstruct`` (``bloch._project`` and
``bloch._expand``, see the rules in ``bloch``); a single state is its stack
of one. Two more rules keep the stacked values exact: the round trip's
largest deviation is ``np.abs`` of an assembled complex array (``np.hypot``
of the parts rounds differently on some builds), and u, v and beta keep the
C-ordered layout of the dense contraction, since a strided beta changes how
``(beta * beta).sum`` rounds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import (
    IMAG_RESIDUE_TOL,
    LOCAL_NORM_SLACK,
    _expand,
    _project,
    _scaled,
)
from .generators import basis_for
from .hyperbolic import _ARTANH_SAFE_MARGIN
from .linalg import HERMITICITY_TOL
from .measure import (
    DET_CLAMP_WINDOW,
    NEAR_PRODUCT_FLOOR,
    ORACLE_CONSISTENCY_TOL,
    _signed_cofactors_3x3,
    analyze,
)
from .states import PURITY_GATE_TOL, StateVector, state_from_amplitudes

_U64_SHIFT = np.uint64(11)
_TWO_NEG53 = 2.0 ** -53

DEFAULT_TOL = 1e-9

# Samples per stacked evaluation. Larger chunks amortize the per-chunk numpy
# call overhead further, but every worker thread then holds a larger working
# set; at 64 the overhead is already a small share of the per-state cost.
CHUNK = 64


@dataclass(frozen=True)
class SweepReport:
    """Worst-case residuals over a seeded Haar ensemble.

    ``worst_residuals`` maps each checked invariant to its largest observed
    residual; ``passed`` is True when every entry is at most ``tol``.
    ``p_e_min`` and ``p_e_max`` record the range of the determinant-route
    degree over the ensemble, for orientation rather than assertion.
    """

    samples: int
    local_dim: int
    seed: int
    tol: float
    worst_residuals: dict[str, float]
    p_e_min: float
    p_e_max: float
    passed: bool


def _box_muller(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn 2m raw uint64 words (along the last axis) into two sets of m normals."""
    u1 = ((raw[..., 0::2] >> _U64_SHIFT).astype(np.float64) + 1.0) * _TWO_NEG53  # (0, 1]
    u2 = (raw[..., 1::2] >> _U64_SHIFT).astype(np.float64) * _TWO_NEG53  # [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def haar_random_pure(total_dim: int, rng: np.random.BitGenerator) -> StateVector:
    """One Haar-distributed pure state of dimension 4 or 9.

    Draws 2 * total_dim independent standard normals as the real and
    imaginary amplitude parts and normalizes; the invariance of the
    Gaussian under unitaries makes the result uniform on the sphere.
    ``rng`` is a numpy bit generator, e.g. ``np.random.Philox(key=seed)``.
    """
    if total_dim not in (4, 9):
        raise ValueError(f"total dimension must be 4 or 9, got {total_dim}")
    n = 2 if total_dim == 4 else 3
    raw = rng.random_raw(2 * total_dim)
    re, im = _box_muller(raw)
    amps = re + 1j * im
    amps = amps / np.linalg.norm(amps)
    return state_from_amplitudes(amps, n, n)


def state_for_index(local_dim: int, seed: int, index: int) -> StateVector:
    """The ``index``-th state of the (seed, local_dim) ensemble.

    Workers in a parallel sweep call this independently; the per-sample
    counter keeps the result identical no matter who computes it.
    """
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = np.uint64(index)
    rng = np.random.Philox(key=seed, counter=counter)
    return haar_random_pure(local_dim * local_dim, rng)


def _raw_words(seed: int, lo: int, hi: int, words: int) -> np.ndarray:
    """Raw Philox output of samples lo..hi-1, one row of ``words`` per sample.

    Row ``idx - lo`` equals ``Philox(key=seed, counter=[0, 0, 0, idx])
    .random_raw(words)``: one generator is rewound to each sample's counter
    block with an empty output buffer, which is several times cheaper than
    constructing a fresh generator per sample.
    """
    gen = np.random.Philox(key=seed)
    state = gen.state
    counter = state["state"]["counter"]
    out = np.empty((hi - lo, words), dtype=np.uint64)
    for row, idx in enumerate(range(lo, hi)):
        counter[3] = idx
        gen.state = state  # copies the counter, buffer_pos stays 4 (empty)
        out[row] = gen.random_raw(words)
    return out


def _haar_rows(local_dim: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Amplitudes of samples lo..hi-1 as rows, stacked ``state_for_index``.

    Row ``idx - lo`` equals ``state_for_index(local_dim, seed, idx).amplitudes``
    bit for bit: the same Box-Muller draw, then haar_random_pure's
    normalization and state_from_amplitudes' renormalization.
    """
    dim = local_dim * local_dim
    re, im = _box_muller(_raw_words(seed, lo, hi, 2 * dim))
    return _unit_rows(_unit_rows(re + 1j * im))


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """Divide each row by its norm, rounding exactly as ``np.linalg.norm``.

    ``np.linalg.norm`` of a complex vector is sqrt(re.re + im.im) with the
    dots taken over the strided real and imaginary views; a stacked (1 x k)
    @ (k x 1) product over the same views performs the same dots.
    """
    re, im = amps.real, amps.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return amps / np.sqrt(sq[:, :, 0])


def _real_norms(vecs: np.ndarray) -> np.ndarray:
    """Row norms rounded as ``np.linalg.norm``, which dots a contiguous copy."""
    x = np.ascontiguousarray(vecs)
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _clamp_low(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, x)`` with Python's semantics (NaN and -0.0 give 0.0)."""
    return np.where(x > 0.0, x, 0.0)


def _raise_like_single_state(local_dim: int, seed: int, idx: int) -> None:
    """Re-run a sample that failed a stacked gate through ``analyze``.

    Every gate of the per-state route fires inside ``analyze`` (the round
    trip's ``decompose`` and the bound in ``degree_hyperbolic`` repeat
    checks it has made on the same values), so this raises the exception,
    message included, that the per-state sweep raises for the sample.
    """
    analyze(state_for_index(local_dim, seed, idx))
    raise AssertionError(f"sample {idx} failed a stacked gate but passes analyze")


def _chunk_values(
    local_dim: int, seed: int, lo: int, hi: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample residuals and P_E of samples lo..hi-1, evaluated stacked.

    Entry ``idx - lo`` of every array equals, bit for bit, what the
    single-state route gives for ``state_for_index(local_dim, seed, idx)``:
    ``analyze`` plus the decompose / reconstruct round trip, and at dim 2
    ``degree_hyperbolic``. A sample failing any of that route's gates
    raises the same exception; the lowest failing index wins.
    """
    n = local_dim
    dim = n * n
    count = hi - lo
    psi = _haar_rows(n, seed, lo, hi)

    # analyze: density matrix and purity gate
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    pur = np.einsum("nij,nji->n", rho, rho).real
    failed = np.abs(pur - 1.0) > PURITY_GATE_TOL

    # decompose: trace projections, imaginary residue, local norms
    basis = basis_for(n)
    u_raw, v_raw, beta_raw, residues = _project(rho, basis)
    failed |= residues > IMAG_RESIDUE_TOL
    u, v, beta = _scaled(u_raw, v_raw, beta_raw, n)
    del u_raw, v_raw, beta_raw
    if n == 2:
        u_norm = _real_norms(u)
        failed |= u_norm > 1.0 + LOCAL_NORM_SLACK
        failed |= _real_norms(v) > 1.0 + LOCAL_NORM_SLACK

    # alpha, its determinant and the clamp on its sign
    alpha = np.empty((count, dim, dim))
    alpha[:, 0, 0] = 1.0
    alpha[:, 0, 1:] = v
    alpha[:, 1:, 0] = u
    alpha[:, 1:, 1:] = beta
    d_raw = -np.linalg.det(alpha)
    del alpha
    failed |= d_raw < -DET_CLAMP_WINDOW
    # numpy's vectorized power rounds differently from the scalar pow
    p_e = np.array([(0.0 if d < 0.0 else d) ** 0.25 for d in d_raw.tolist()])

    # the round trip: reconstruct (u, v, beta) and compare with rho
    back = _expand(u, v, beta, basis)
    residuals = {
        "roundtrip": np.abs(back - rho).max(axis=(1, 2)),
        "alpha_det_negativity": _clamp_low(-d_raw),
    }

    if n == 2:
        residuals.update(_qubit_residuals(psi, rho, u, v, beta, u_norm, p_e, failed))
    if failed.any():
        _raise_like_single_state(n, seed, lo + int(np.argmax(failed)))
    return residuals, p_e


def _qubit_residuals(psi, rho, u, v, beta, u_norm, p_e, failed):
    """The oracles, the six identities and the hyperbolic route, stacked.

    Samples failing analyze's qubit-only gates are marked in ``failed``.
    """
    # schmidt_coeffs: eigenvalues of the reduced density matrix
    count = len(psi)
    rho_a = np.einsum("nijkj->nik", rho.reshape(count, 2, 2, 2, 2))
    asym = np.abs(rho_a - rho_a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    failed |= asym > HERMITICITY_TOL
    eig = np.linalg.eigvalsh(rho_a)
    k1 = np.sqrt(np.where(0.0 > eig[:, 1], 0.0, eig[:, 1]))
    k2 = np.sqrt(np.where(0.0 > eig[:, 0], 0.0, eig[:, 0]))
    # degree_schmidt re-checks the same sum at the looser 1e-10
    failed |= np.abs(k1 * k1 + k2 * k2 - 1.0) > 1e-12
    p_e_schmidt = 2.0 * k1 * k2

    # concurrence 2 |ad - bc|, with the complex products written out in real
    # arithmetic as numpy's scalar complex multiply performs them
    ar, ai = psi.real.T, psi.imag.T
    det_re = (ar[0] * ar[3] - ai[0] * ai[3]) - (ar[1] * ar[2] - ai[1] * ai[2])
    det_im = (ar[0] * ai[3] + ai[0] * ar[3]) - (ar[1] * ai[2] + ai[1] * ar[2])
    conc = 2.0 * np.hypot(det_re, det_im)

    # purity_constraints_report
    un2 = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
    vn2 = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    outer = u[:, :, None] * v[:, None, :]
    cof = _signed_cofactors_3x3(beta.transpose(1, 2, 0)).transpose(2, 0, 1)
    residuals = {
        "beta_v_eq_u": np.abs(np.einsum("nij,nj->ni", beta, v) - u).max(axis=1),
        "beta_t_u_eq_v": np.abs(np.einsum("nji,nj->ni", beta, u) - v).max(axis=1),
        "beta_sq_sum": np.abs(
            (beta * beta).reshape(count, 9).sum(axis=1) - (3.0 - un2 - vn2)
        ),
        "beta_cofactor": np.abs(beta - (outer - cof)).max(axis=(1, 2)),
        "u_eq_v": np.abs(np.sqrt(un2) - np.sqrt(vn2)),
        "det_beta_identity": np.abs(-np.linalg.det(beta) - (1.0 - un2)),
    }

    # analyze's consistency gate between the determinant and sqrt(1 - |u|^2)
    from_u = np.sqrt(_clamp_low(1.0 - u_norm * u_norm))
    larger = np.where(from_u > p_e, from_u, p_e)
    failed |= (np.abs(p_e - from_u) > ORACLE_CONSISTENCY_TOL) & (larger > NEAR_PRODUCT_FLOOR)
    # the sweep's own comparison squares with Python's pow, like the scalar code
    from_u_pow = np.sqrt(_clamp_low(np.array([1.0 - x ** 2 for x in u_norm.tolist()])))

    # degree_hyperbolic; its |u| bound is the |u| gate of decompose, which
    # has already been applied to the same norm
    near = u_norm > 1.0 - _ARTANH_SAFE_MARGIN
    inside = np.where(u_norm < 1.0, u_norm, 1.0)
    hyperbolic = np.where(
        u_norm >= 1.0,
        0.0,
        np.where(
            near,
            np.sqrt((1.0 - inside) * (1.0 + inside)),
            1.0 / np.cosh(np.arctanh(np.where(near, 0.0, u_norm))),
        ),
    )

    residuals["oracle_det_vs_schmidt"] = np.abs(p_e - p_e_schmidt)
    residuals["oracle_det_vs_concurrence"] = np.abs(p_e - conc)
    residuals["det_vs_u_norm"] = np.abs(p_e - from_u_pow)
    residuals["det_vs_hyperbolic"] = np.abs(p_e - hyperbolic)
    return residuals


def _merge(parts):
    """Fold (worst residuals, P_E min, P_E max) summaries into one.

    NaN propagates through every maximum and minimum, so a NaN sample makes
    the report fail instead of vanishing from it.
    """
    worst: dict[str, float] = {}
    p_min, p_max = np.inf, -np.inf
    for part_worst, part_min, part_max in parts:
        for key, val in part_worst.items():
            worst[key] = float(np.maximum(worst.get(key, 0.0), val))
        p_min = float(np.minimum(p_min, part_min))
        p_max = float(np.maximum(p_max, part_max))
    return worst, p_min, p_max


def _sweep_range(local_dim: int, seed: int, lo: int, hi: int):
    """Worst residuals and the P_E range over samples lo..hi-1."""

    def chunk_summary(start):
        residuals, p_e = _chunk_values(local_dim, seed, start, min(start + CHUNK, hi))
        return {key: vals.max() for key, vals in residuals.items()}, p_e.min(), p_e.max()

    return _merge(chunk_summary(start) for start in range(lo, hi, CHUNK))


def property_sweep(
    samples: int,
    local_dim: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> SweepReport:
    """Run every per-state invariant over a seeded Haar ensemble.

    For qubit pairs this covers the two oracle comparisons, the six purity
    identities, sqrt(1 - |u|^2) and the hyperbolic route, the decomposition
    round trip, and the sign of -det(alpha). For qutrit pairs only the
    round trip and the determinant sign are meaningful, and the degree is
    evaluated as defined without an independent oracle.

    The report is a pure function of (samples, local_dim, seed, tol);
    ``workers`` only splits the index range across threads.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if local_dim not in (2, 3):
        raise ValueError(f"local dimension must be 2 or 3, got {local_dim}")

    if workers <= 1:
        parts = [_sweep_range(local_dim, seed, 0, samples)]
    else:
        bounds = [i * samples // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda span: _sweep_range(local_dim, seed, span[0], span[1]),
                    zip(bounds[:-1], bounds[1:]),
                )
            )

    worst, p_min, p_max = _merge(parts)
    return SweepReport(
        samples=samples,
        local_dim=local_dim,
        seed=seed,
        tol=tol,
        worst_residuals=worst,
        p_e_min=p_min,
        p_e_max=p_max,
        passed=all(val <= tol for val in worst.values()),
    )
