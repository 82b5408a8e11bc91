"""Seeded Haar-random states and the mass property sweep over them.

Reproducibility contract: sample number ``idx`` of a sweep depends only on
(seed, idx), never on chunking. Each sample owns a Philox counter block
derived from its index (the index sits in the highest counter word, so
per-sample streams cannot overlap), and the Gaussian variates are produced
by an explicit Box-Muller transform on the raw 64-bit output, not by numpy's
``Generator`` methods. The bits of a draw still follow the dispatch: ``np.log``
in ``_box_muller`` rounds by numpy's SIMD target, and ``_unit_rows``' dots at
dim 3 by OpenBLAS's core, so (seed, idx) pins a state bit for bit only on one
dispatch; ``tests/golden.json`` records the one its digests hold on.
``state_for_index`` draws one sample from ``np.random.Philox``; the sweep
computes the same Philox4x64-10 output in numpy for up to ``DRAW`` samples
at a time (``_raw_words``), bit for bit, so the per-sample generator remains
the independent reference the tests hold it to.

The sweep evaluates each draw ``CHUNK[local_dim]`` samples at a time. A
chunk's amplitudes go through ``measure._analyze_stack``, the stacked kernel
of which ``analyze`` is row 0 of a stack of one, so every report field,
oracle, identity and gate is the single-state one bit for bit, and a failing
sample raises from the chunk's own stack. The sweep reads the kernel's gap
|P_E - sqrt(1 - |u|^2)| as it is, and adds only what ``analyze`` does not
do: the round trip through the expansion (``bloch._expand``, the kernel of
``reconstruct``), the hyperbolic route (``hyperbolic._degree_of_norms``, whose
row 0 is ``degree_hyperbolic``) and the reductions over the chunks.
The round trip subtracts the kernel's own rho at dim 2; a qutrit stack lets
rho go before its projection, so there it is formed again. The reductions
take one maximum per chunk over the stacked residual rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _expand, _raise_first, _sq_norms
from .hyperbolic import _degree_of_norms
from .measure import _analyze_stack, _clamp_low, _density_stack
from .measure import analyze  # bench/test_perfbench.py
from .states import StateVector, _is_integer, state_from_amplitudes

_U64_SHIFT = np.uint64(11)
_TWO_NEG53 = 2.0 ** -53

# Philox4x64-10, as numpy's Philox bit generator computes it
_PHILOX_ROUNDS = 10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_M = np.array([[m] for m in _PHILOX_MUL], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M0 = _PHILOX_M & _MASK32
_PHILOX_M1 = _PHILOX_M >> _SHIFT32

DEFAULT_TOL = 1e-9

# Samples per vectorized draw, rounded down to whole chunks. Its fixed cost is a
# few hundred numpy calls, so it pays over whole blocks rather than per chunk;
# at 512 samples its temporaries stay within a qutrit chunk's working set.
DRAW = 512

# Samples per stacked evaluation, per local dimension: a qubit chunk holds a
# whole 200-sample call, a qutrit chunk half of one. A qutrit chunk's working
# set grows about five times as fast, and once it outgrows the heap glibc
# keeps, the minor page faults (``ru_minflt``) of a warm ``property_sweep(200,
# 3, seed)`` cost more than the larger stack saves. A 100-row qutrit chunk
# peaks at 491 KiB (tracemalloc), with 0 faults in 200 calls in 6 fresh processes.
CHUNK = {2: 256, 3: 100}


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


def _integer(name: str, value, allowed, expected: str) -> int:
    """``value`` as a Python int, if it is an integer in ``allowed``; else ValueError.

    A float or a bool is no integer here (``states._is_integer``): int() and
    Philox would both read 1.5 or True as 1, while a report names the value given.
    """
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if int(value) not in allowed:  # int(): range tests a numpy integer by iterating
        raise ValueError(f"{name} must be {expected}, got {int(value)}")
    return int(value)


def haar_random_pure(total_dim: int, rng: np.random.BitGenerator) -> StateVector:
    """One Haar-distributed pure state of dimension 4 or 9.

    Draws 2 * total_dim independent standard normals as the real and
    imaginary amplitude parts and normalizes; the invariance of the
    Gaussian under unitaries makes the result uniform on the sphere.
    ``rng`` is a numpy bit generator, e.g. ``np.random.Philox(key=seed)``.
    """
    total_dim = _integer("total dimension", total_dim, (4, 9), "4 or 9")
    n = 2 if total_dim == 4 else 3
    raw = rng.random_raw(2 * total_dim)
    re, im = _box_muller(raw)
    amps = re + 1j * im
    amps = amps / np.linalg.norm(amps)
    return state_from_amplitudes(amps, n, n)


def state_for_index(local_dim: int, seed: int, index: int) -> StateVector:
    """The ``index``-th state of the (seed, local_dim) ensemble.

    The per-sample counter makes it independent of every other sample, so
    the sweep's stacked draw (``_haar_rows``) reproduces it bit for bit.
    """
    local_dim = _integer("local dimension", local_dim, (2, 3), "2 or 3")
    seed = _integer("seed", seed, range(2**128), "in [0, 2**128)")
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = _integer("index", index, range(2**64), "in [0, 2**64)")
    rng = np.random.Philox(key=seed, counter=counter)
    return haar_random_pure(local_dim * local_dim, rng)


def _raw_words(seed: int, lo: int, hi: int, words: int) -> np.ndarray:
    """Raw Philox output of samples lo..hi-1, one row of ``words`` per sample.

    Row ``idx - lo`` equals ``Philox(key=seed, counter=[0, 0, 0, idx])
    .random_raw(words)``, computed as Philox4x64-10 over every counter block
    of the range at once (Salmon et al., "Parallel random numbers: as easy as
    1, 2, 3", SC'11). numpy increments the counter before each block, so
    sample idx reads the blocks [c, 0, 0, idx] for c = 1..ceil(words / 4); the
    key is [seed mod 2^64, seed >> 64], bumped by the Weyl constants after
    each round. Round 0 multiplies only c and 0, so it is taken in Python
    ints, per block: [c0, c2] = [k0, hi(M0 c) ^ idx ^ k1], [c1, c3] = [0,
    lo(M0 c)]. In the later rounds the counter lanes [c0, c2] and [c1, c3]
    are (2, L) arrays, so both multiplies of a round are one ufunc call; the
    high word of each 64x64 product is assembled from 32-bit limbs.
    """
    blocks = -(-words // 4)
    count = hi - lo
    k1, k0 = divmod(int(seed), 2**64)
    keys = np.array(
        [[[(k0 + r * _PHILOX_W[0]) % 2**64], [(k1 + r * _PHILOX_W[1]) % 2**64]]
         for r in range(1, _PHILOX_ROUNDS)],
        dtype=np.uint64,
    )
    m0c = [_PHILOX_MUL[0] * c for c in range(1, blocks + 1)]
    x = np.empty((2, count, blocks), dtype=np.uint64)  # [c0, c2]
    y = np.zeros((2, count, blocks), dtype=np.uint64)  # [c1, c3]
    x[0] = k0
    idx = (np.arange(count, dtype=np.uint64) + np.uint64(lo))[:, None]
    np.bitwise_xor(idx, np.array([(p >> 64) ^ k1 for p in m0c], dtype=np.uint64), out=x[1])
    y[1] = np.array([p % 2**64 for p in m0c], dtype=np.uint64)
    x, y = x.reshape(2, -1), y.reshape(2, -1)
    low, a0, a1, t, w = (np.empty_like(x) for _ in range(5))
    for key in keys:
        np.multiply(x, _PHILOX_M, out=low)
        # high word: a = a1 2^32 + a0, m = m1 2^32 + m0, no partial sum overflows
        np.bitwise_and(x, _MASK32, out=a0)
        np.right_shift(x, _SHIFT32, out=a1)
        np.multiply(a0, _PHILOX_M0, out=t)
        t >>= _SHIFT32
        np.multiply(a1, _PHILOX_M0, out=w)
        t += w  # t = (a0 m0 >> 32) + a1 m0
        a0 *= _PHILOX_M1
        np.bitwise_and(t, _MASK32, out=w)
        w += a0
        w >>= _SHIFT32  # w = ((t & mask) + a0 m1) >> 32
        t >>= _SHIFT32
        a1 *= _PHILOX_M1
        a1 += t
        a1 += w  # hi = a1 m1 + (t >> 32) + (w >> 32)
        # [c0, c1, c2, c3] <- [hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0]
        np.bitwise_xor(a1[::-1], y, out=x)
        x ^= key
        y, low = low[::-1], y
    out = np.empty((count, blocks, 2, 2), dtype=np.uint64)
    out[..., 0] = x.reshape(2, count, blocks).transpose(1, 2, 0)
    out[..., 1] = y.reshape(2, count, blocks).transpose(1, 2, 0)
    return out.reshape(count, 4 * blocks)[:, :words]


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
    """Divide each row by its norm, rounded as ``np.linalg.norm`` rounds it (``_sq_norms``)."""
    return amps / np.sqrt(_sq_norms(amps.real) + _sq_norms(amps.imag))[:, None]


def _chunk_values(local_dim: int, psi: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample residuals and P_E of the amplitude rows psi.

    Entry ``i`` of every array equals, bit for bit, what the single-state
    route gives for the state psi[i]: ``analyze`` plus the decompose /
    reconstruct round trip, and at dim 2 ``degree_hyperbolic``. The lowest
    row failing any of ``analyze``'s gates raises from this stack, with the
    exception and message ``analyze`` raises for that state.
    """
    n = local_dim
    s = _analyze_stack(psi, n)
    passed = np.logical_and.reduce([mask for mask, _ in s.gates])
    if not passed.all():
        _raise_first(s.gates, int(np.argmin(passed)))

    # a qutrit stack keeps no rho, so it is formed again after the expansion,
    # the other large working set; np.abs of the complex difference, as
    # ``reconstruct(...) - rho`` is taken (np.hypot of the parts rounds
    # differently on some builds)
    back = _expand(s.rows, n)
    back -= _density_stack(psi) if s.rho is None else s.rho
    residuals = {
        "roundtrip": np.abs(back).max(axis=(1, 2)),
        "alpha_det_negativity": _clamp_low(-s.alpha_det),
    }
    if n != 2:
        return residuals, s.p_e

    residuals.update(s.residuals)
    residuals["oracle_det_vs_schmidt"] = np.abs(s.p_e - s.p_e_schmidt)
    residuals["oracle_det_vs_concurrence"] = np.abs(s.p_e - s.concurrence)
    residuals["det_vs_u_norm"] = s.u_gap
    # degree_hyperbolic; its |u| bound is analyze's |u| gate on the same norm
    residuals["det_vs_hyperbolic"] = np.abs(s.p_e - _degree_of_norms(s.u_norm))
    return residuals, s.p_e


def _chunks(local_dim: int, seed: int, lo: int, hi: int):
    """Samples lo..hi-1 as (first index, amplitude rows), in the sweep's chunks.

    Each draw holds as many whole chunks of ``CHUNK[local_dim]`` rows as fit in
    ``DRAW`` (512 at dim 2, 500 at dim 3), so only the range's last chunk can be short.
    """
    chunk = CHUNK[local_dim]
    step = DRAW - DRAW % chunk
    for start in range(lo, hi, step):
        psi = _haar_rows(local_dim, seed, start, min(start + step, hi))
        for at in range(0, len(psi), chunk):
            yield start + at, psi[at : at + chunk]


def property_sweep(
    samples: int,
    local_dim: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> SweepReport:
    """Run every per-state invariant over a seeded Haar ensemble.

    For qubit pairs this covers the two oracle comparisons, the six purity
    identities, sqrt(1 - |u|^2) and the hyperbolic route, the decomposition
    round trip, and the sign of -det(alpha). For qutrit pairs only the
    round trip and the determinant sign are meaningful, and the degree is
    evaluated as defined without an independent oracle.

    The report is a pure function of (samples, local_dim, seed, tol). NaN
    propagates through every maximum and minimum, so a NaN sample makes the
    report fail instead of vanishing from it. The sweep runs in the calling
    thread: its many small numpy calls hold the interpreter lock, so more
    threads would not make it faster.
    """
    # a sample's index is its 64-bit counter word, so at most 2**64 samples
    samples = _integer("samples", samples, range(1, 2**64 + 1), "at least 1 and at most 2**64")
    local_dim = _integer("local dimension", local_dim, (2, 3), "2 or 3")
    seed = _integer("seed", seed, range(2**128), "in [0, 2**128)")
    # True would sweep at 1, NaN print as invalid JSON, inf pass every residual
    if isinstance(tol, (bool, np.bool_)):
        raise ValueError(f"tol must be a number, got {tol!r}")
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"tol must be finite and at least 0, got {tol}")
    tol = float(tol)  # the CLI's type: a numpy float32 neither serializes nor compares as one

    # one reduction per chunk over the stacked residual rows; every residual
    # is at least +0.0, so the fold starts from 0.0
    peaks = 0.0
    p_min, p_max = np.inf, -np.inf
    for _, psi in _chunks(local_dim, seed, 0, samples):
        residuals, p_e = _chunk_values(local_dim, psi)
        peaks = np.maximum(peaks, np.stack(list(residuals.values())).max(axis=1))
        p_min = float(np.minimum(p_min, p_e.min()))
        p_max = float(np.maximum(p_max, p_e.max()))
    worst = dict(zip(residuals, peaks.tolist()))
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
