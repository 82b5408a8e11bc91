"""Seeded Haar-random states and the mass property sweep over them.

Reproducibility contract: sample number ``idx`` of a sweep depends only on
(seed, idx), never on worker count or chunking. Each sample owns a Philox
counter block derived from its index (the index sits in the highest counter
word, so per-sample streams cannot overlap), and the Gaussian variates are
produced by an explicit Box-Muller transform on the raw 64-bit output, so
the draw sequence is pinned by this file rather than by library internals.

The sweep evaluates samples ``CHUNK`` at a time. A chunk's amplitudes go
through ``measure._analyze_stack``, the stacked kernel of which ``analyze``
is row 0 of a stack of one, so every report field, oracle, identity and
gate is the single-state one bit for bit. The sweep adds only what
``analyze`` does not do: the round trip through the expansion
(``bloch._expand``, the kernel of ``reconstruct``), the hyperbolic route,
the comparison with sqrt(1 - |u|^2) and the reductions over the chunk.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import _expand
from .generators import basis_for
from .hyperbolic import _ARTANH_SAFE_MARGIN
from .measure import _analyze_stack, _clamp_low, analyze
from .states import StateVector, state_from_amplitudes

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


def _chunk_values(
    local_dim: int, seed: int, lo: int, hi: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample residuals and P_E of samples lo..hi-1, evaluated stacked.

    Entry ``idx - lo`` of every array equals, bit for bit, what the
    single-state route gives for ``state_for_index(local_dim, seed, idx)``:
    ``analyze`` plus the decompose / reconstruct round trip, and at dim 2
    ``degree_hyperbolic``. A sample failing any of ``analyze``'s gates
    raises the same exception; the lowest failing index wins.
    """
    n = local_dim
    s = _analyze_stack(_haar_rows(n, seed, lo, hi), n)
    failed = np.logical_or.reduce([mask for mask, _ in s.gates])
    if failed.any():
        # analyze runs the same gates on the same values, so it raises the
        # exception, message included, of the lowest failing sample
        analyze(state_for_index(n, seed, lo + int(np.argmax(failed))))
        raise AssertionError("a sample failed a stacked gate but passes analyze")

    back = _expand(s.u, s.v, s.beta, basis_for(n))
    # np.abs of the complex difference, as ``reconstruct(...) - rho`` is taken
    # (np.hypot of the parts rounds differently on some builds)
    residuals = {
        "roundtrip": np.abs(back - s.rho).max(axis=(1, 2)),
        "alpha_det_negativity": _clamp_low(-s.alpha_det),
    }
    if n != 2:
        return residuals, s.p_e

    p_e, u_norm = s.p_e, s.u_norm
    # the sweep's comparison squares with Python's pow, like the scalar code
    from_u = np.sqrt(_clamp_low(np.array([1.0 - x ** 2 for x in u_norm.tolist()])))
    # degree_hyperbolic; its |u| bound is analyze's |u| gate on the same norm
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
    residuals.update(s.residuals)
    residuals["oracle_det_vs_schmidt"] = np.abs(p_e - s.p_e_schmidt)
    residuals["oracle_det_vs_concurrence"] = np.abs(p_e - s.concurrence)
    residuals["det_vs_u_norm"] = np.abs(p_e - from_u)
    residuals["det_vs_hyperbolic"] = np.abs(p_e - hyperbolic)
    return residuals, p_e


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
    ``workers`` only splits the index range across threads, at most one
    thread per sample.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if local_dim not in (2, 3):
        raise ValueError(f"local dimension must be 2 or 3, got {local_dim}")

    workers = min(workers, samples)
    if workers == 1:
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
