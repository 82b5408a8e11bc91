"""Bloch decomposition of bipartite density matrices and its inverse.

For qubits the expansion is

    rho = (1/4) (1 x 1 + sum_i u_i s_i x 1 + sum_j v_j 1 x s_j
                 + sum_ij beta_ij s_i x s_j)

with coefficients read off as plain trace projections. For qutrits the
normalization carries extra weights,

    rho = (1/9) (1 x 1 + sqrt(3) sum_i u_i g_i x 1 + sqrt(3) sum_j v_j 1 x g_j
                 + (3/2) sum_ij beta_ij g_i x g_j),

so the extraction picks up the prefactors sqrt(3)/2 on the local vectors and
3/2 on the correlation matrix. These are forced by tr(g_i g_j) = 2 delta_ij
together with the weights above; the round-trip tests pin them down.

Both directions run on stacks of states through one sparse kernel,
``_running_sums``: each output (the real or imaginary part of a trace
tr(M rho), or of an entry of the expansion) is a sum over the few nonzero
entries of the Kronecker operators M = g_a x 1, 1 x g_b, g_a x g_b, whose
term tables ``_tables`` builds once per local dimension. Only 60 of the 240
operator entries are nonzero at dim 2, and 391 of 6480 at dim 3. The kernel
rounds exactly like the dense contraction ``einsum("aij,ji->a", M, rho)``
and the dense sums of the expansion, under these rules:

- a projection takes its terms in ascending row-major order of the operator
  entry (i * d + j); the expansion takes them in ascending operator index
  (a, or a * (d^2 - 1) + b);
- each output is the running sum ((t0 + t1) + t2) + ... from +0.0, so
  zero-coefficient padding changes nothing;
- every generator entry is real or purely imaginary, so a term's real and
  imaginary parts are a real coefficient times Re rho or Im rho, which is
  what numpy's complex multiply gives for such a factor;
- at dim 2, u, v and beta are views of the real columns of the interleaved
  parts, with the stride ``.real`` of the dense contraction's complex arrays
  has, since later reductions round by memory layout; at dim 3, where no
  later step depends on it, they are views of the coefficient rows.

Both directions read float rows with one column per state: the projection
the real and imaginary parts of rho's entries (``_float_rows``), the
expansion the coefficient rows of u, v and beta, which ``_decompose_stack``
returns beside them.

The Bloch-form gates are written once, in ``_decompose_stack``: ``decompose``
is row 0 of a stack of one, and ``measure._analyze_stack`` appends the same
gates to its own; ``hyperbolic.degree_hyperbolic`` raises through the same
|u| gate, ``_norm_gates``. Each gate's mask is the comparison a row must pass,
so NaN fails it; ``_raise_first`` is where any gate becomes an exception.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generators import GeneratorSet, basis_for

IMAG_RESIDUE_TOL = 1e-12

LOCAL_NORM_SLACK = 1e-10


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors u, v and the real correlation matrix beta.

    For local dimension N the vectors have length N*N - 1 and beta is
    (N*N - 1) x (N*N - 1). All entries are real by construction.
    """

    local_dim: int
    u: np.ndarray
    v: np.ndarray
    beta: np.ndarray


def _weights(local_dim: int) -> tuple[float, float, float]:
    # (overall prefactor, local weight, pair weight) of the expansion
    if local_dim == 2:
        return 0.25, 1.0, 1.0
    return 1.0 / 9.0, np.sqrt(3.0), 1.5


# bytes of gathered terms per pass of ``_running_sums``; a stack of one state
# takes all its terms in one pass, a chunk of states takes about one slot
_PASS_BYTES = 1 << 16


class _Terms(NamedTuple):
    """Term table of a set of outputs, evaluated by ``_running_sums``.

    Output k sums ``x[src[j]] * coef[j]`` over its entries j of the slots
    ``bounds[t] <= j < bounds[t + 1]``, one entry per slot, slot after slot.
    Slot 0 covers every output, slot t the first ``bounds[t + 1] - bounds[t]``
    of them (tables put outputs with many terms first); outputs with fewer
    terms inside that prefix are padded with zero coefficients.
    """

    src: np.ndarray
    coef: np.ndarray
    bounds: tuple[int, ...]


def _by_count(outputs, counts) -> np.ndarray:
    """``outputs`` in descending order of ``counts``, ties kept in place."""
    # Python's sort, since numpy's stable sorts touch megabytes of code pages
    return np.array(sorted(outputs, key=lambda o: -counts[o]), dtype=np.intp)


def _terms(coef: np.ndarray, src: np.ndarray, order: np.ndarray) -> _Terms:
    """Table of outputs ``order`` from dense (outputs, positions) coefficients.

    A zero coefficient means no term; an output sums its terms in ascending
    position, reading ``src`` at the same place.
    """
    coef, src = coef[order], src[order]
    rows, cols = np.nonzero(coef)  # row by row, positions ascending
    counts = np.bincount(rows, minlength=len(coef))
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    # slot 0 covers every output, so the sums come out for all of them
    widths = [len(coef)]
    widths += [int(np.flatnonzero(counts > t)[-1]) + 1 for t in range(1, counts.max())]
    slot_src = np.zeros((len(widths), len(coef)), dtype=np.intp)
    slot_coef = np.zeros(slot_src.shape)
    slot_src[slot, rows] = src[rows, cols]
    slot_coef[slot, rows] = coef[rows, cols]
    return _Terms(
        src=np.concatenate([row[:w] for row, w in zip(slot_src, widths)]),
        coef=np.concatenate([row[:w] for row, w in zip(slot_coef, widths)])[:, None],
        bounds=tuple(np.cumsum([0, *widths]).tolist()),
    )


def _running_sums(terms: _Terms, x: np.ndarray) -> np.ndarray:
    """Every output of ``terms`` (outputs, N) from the source rows x (sources, N).

    Consecutive slots are gathered and scaled together while they fit in
    ``_PASS_BYTES``; the sums then run slot after slot.
    """
    bounds, slots = terms.bounds, len(terms.bounds) - 1
    fit = _PASS_BYTES // (8 * x.shape[1])  # terms per pass
    out = None
    lo = 0
    while lo < slots:
        hi = lo + 1
        while hi < slots and bounds[hi + 1] - bounds[lo] <= fit:
            hi += 1
        part = x.take(terms.src[bounds[lo] : bounds[hi]], axis=0)
        part *= terms.coef[bounds[lo] : bounds[hi]]
        for t in range(lo, hi):
            seg = part[bounds[t] - bounds[lo] : bounds[t + 1] - bounds[lo]]
            if t == 0:
                # the dense sums start from +0.0; slot 0 alone is the output
                out = np.add(seg, 0.0, out=seg if hi == 1 else None)
            else:
                out[: len(seg)] += seg
        del part, seg
        lo = hi
    return out


class _Tables(NamedTuple):
    """The projection and expansion term tables of one local dimension."""

    # projection outputs: the real and imaginary parts of tr(M rho), and
    # their sorted positions in natural order (u, v, beta; real, imaginary)
    project: _Terms
    natural: np.ndarray
    # the factor of each real part in u, v and beta: 1 at dim 2, sqrt(3)/2
    # on u and v and 3/2 on beta at dim 3, as a (2k + k^2, 1) column
    scale: np.ndarray
    # the three sums of the expansion, over the parts of rho that have
    # terms: float columns ``rho_cols``, the first ``dim`` the diagonal
    local_a: _Terms
    local_b: _Terms
    pair: _Terms
    rho_cols: np.ndarray


@functools.cache
def _tables(n: int) -> _Tables:
    """Term tables of local dimension n, built from ``basis_for(n)`` on first use."""
    dim = n * n
    k = dim - 1
    gens = np.stack(basis_for(n).generators)
    ident = np.eye(n)
    # the Kronecker stacks g_a x 1, 1 x g_b, g_a x g_b, as (operators, dim * dim)
    first = np.einsum("aij,kl->aikjl", gens, ident).reshape(k, -1)
    second = np.einsum("ij,akl->aikjl", ident, gens).reshape(k, -1)
    pair = np.einsum("aij,bkl->abikjl", gens, gens).reshape(k * k, -1)
    ops = np.concatenate([first, second, pair])
    imag = ops.imag != 0.0
    if (imag & (ops.real != 0.0)).any():
        raise AssertionError("operator entries must be real or purely imaginary")

    # projection output 2 o + p is part p of tr(M_o rho) = sum_ij M_ij rho_ji;
    # its sources are the float columns 2 (j * dim + i) + (0 | 1) of rho
    moved = 2 * (np.arange(dim)[None, :] * dim + np.arange(dim)[:, None]).ravel()
    coef = np.empty((2 * len(ops), dim * dim))
    src = np.empty(coef.shape, dtype=np.intp)
    coef[0::2] = np.where(imag, -ops.imag, ops.real)
    src[0::2] = moved + imag
    coef[1::2] = np.where(imag, ops.imag, ops.real)
    src[1::2] = moved + ~imag
    order = _by_count(range(len(coef)), (coef != 0.0).sum(axis=1))
    natural = np.empty_like(order)
    natural[order] = np.arange(len(order))

    # expansion output 2 e + p is part p of entry e of rho; each sum runs over
    # its operators c, reading the coefficient (u, v or beta) at offset + c
    sums = []
    for stack, offset in zip((first, second, pair), (0, k, 2 * k)):
        scoef = np.empty((2 * dim * dim, len(stack)))
        scoef[0::2] = stack.real.T
        scoef[1::2] = stack.imag.T
        ssrc = np.broadcast_to(offset + np.arange(len(stack)), scoef.shape)
        sums.append((scoef, ssrc))
    has_terms = np.any([(scoef != 0.0).any(axis=1) for scoef, _ in sums], axis=0)
    # the diagonal first, where the identity adds in; then by term count
    diagonal = np.arange(dim) * 2 * (dim + 1)
    has_terms[diagonal] = False
    pair_counts = (sums[2][0] != 0.0).sum(axis=1)
    keep = np.concatenate([diagonal, _by_count(np.flatnonzero(has_terms), pair_counts)])
    w_uv, w_beta = (1.0, 1.0) if n == 2 else (np.sqrt(3.0) / 2.0, 1.5)
    return _Tables(
        project=_terms(coef, src, order),
        natural=natural,
        scale=np.repeat([w_uv, w_beta], [2 * k, k * k])[:, None],
        local_a=_terms(*sums[0], keep),
        local_b=_terms(*sums[1], keep),
        pair=_terms(*sums[2], keep),
        rho_cols=keep,
    )


def _expand(rows: np.ndarray, n: int) -> np.ndarray:
    """The expansion of a stack of Bloch data, as the coefficient rows
    (2k + k^2, N): u, v and the row-major beta of state i in column i.

    Returns the stack of matrices (N, d, d) that the dense sums
    ``pref (1 + w_local (sum_a u_a g_a x 1 + sum_b v_b 1 x g_b)
    + w_pair sum_ab beta_ab g_a x g_b)`` give, evaluated in that order.
    """
    count = rows.shape[1]
    tables = _tables(n)
    pref, w_local, w_pair = _weights(n)
    dim = n * n
    acc = _running_sums(tables.local_a, rows)
    acc += _running_sums(tables.local_b, rows)
    acc *= w_local
    acc[:dim] += 1.0
    pair = _running_sums(tables.pair, rows)
    pair *= w_pair
    acc += pair
    del pair
    acc *= pref
    out = np.zeros((count, dim, dim), dtype=complex)
    out.reshape(count, -1).view(np.float64)[:, tables.rho_cols] = acc.T
    return out


def _gate(passed, error, message, *values):
    """A gate: the mask of rows that pass it, and the exception of a row i that does not."""
    return passed, lambda i: error(message.format(*(val[i].item() for val in values)))


def _raise_first(gates, i: int) -> None:
    """Raise the exception of the first of ``gates`` that row i does not pass."""
    for passed, error in gates:
        if not passed[i]:
            raise error(i)


def _not_finite(rho: np.ndarray) -> ValueError:
    i, j = np.argwhere(~np.isfinite(rho))[0]
    return ValueError(f"rho[{i}, {j}] = {rho[i, j]} is not finite")


def _residue_gate(residue: np.ndarray):
    return _gate(residue <= IMAG_RESIDUE_TOL, ValueError,
                 "imaginary residue {:.3e} in the projection traces, input is not Hermitian",
                 residue)


def _norm_gates(norms: np.ndarray, names: str) -> list:
    """The qubit Bloch-vector bound: norms[k] (N,) of names[k] <= 1 + ``LOCAL_NORM_SLACK``."""
    within = norms <= 1.0 + LOCAL_NORM_SLACK
    return [_gate(within[k], ValueError,
                  f"|{name}| = {{}} exceeds 1, rho is not a qubit state", norms[k])
            for k, name in enumerate(names)]


# What ``_decompose_stack`` computes, one row per state; ``rows`` holds u, v
# and beta as the coefficient rows ``_expand`` reads, ``sq`` and ``norms`` the
# squared norms and norms of u (row 0) and of v (row 1)
_BlochStack = namedtuple("_BlochStack", "u v beta rows sq norms gates")


def _float_rows(rho: np.ndarray) -> np.ndarray:
    """The stack rho (N, d, d) as float rows (2 d^2, N): the real and the
    imaginary part of each entry in turn, matrix i in column i."""
    return np.ascontiguousarray(rho.reshape(len(rho), -1).view(np.float64).T)


def _decompose_stack(x: np.ndarray, n: int) -> _BlochStack:
    """``decompose`` over a stack of finite matrices, given as their float
    rows x (2 (n * n)^2, N) (``_float_rows``).

    Row i equals, bit for bit, what ``decompose`` gives for the matrix in
    column i of x: u, v and beta are the real parts of the traces, scaled at
    dim 3, and the residue is a matrix's largest imaginary part. The gates
    come in decompose's order: the residue against ``IMAG_RESIDUE_TOL``, then
    at dim 2 |u| and |v| against 1 + ``LOCAL_NORM_SLACK``.

    The dim-2 parts keep the 16-byte last-axis stride of ``.real`` on purpose:
    contiguous copies send the identity residuals' matmuls down another numpy
    loop, which rounds differently
    (``test_golden.py::test_verify_stdout_bytes[2-0-65-1]`` fails).
    """
    tables = _tables(n)
    count, k = x.shape[1], n * n - 1
    out = _running_sums(tables.project, x)
    out = out.take(tables.natural, axis=0)
    residue = np.abs(out[1::2]).max(axis=0)
    rows = out[0::2] * tables.scale
    re = np.ascontiguousarray(out.T)[:, 0::2] if n == 2 else rows.T
    del out
    u, v, beta = re[:, :k], re[:, k : 2 * k], re[:, 2 * k :].reshape(count, k, k)
    # squared norms as np.linalg.norm sums them: it dots a contiguous copy
    uv = np.concatenate([u, v])
    sq = (uv[:, None, :] @ uv[:, :, None]).reshape(2, count)
    norms = np.sqrt(sq)
    gates = [_residue_gate(residue)]
    if n == 2:
        gates += _norm_gates(norms, "uv")
    return _BlochStack(u, v, beta, rows, sq, norms, gates)


def _local_dim(basis: GeneratorSet) -> int:
    """The dimension n of ``basis``, which must be ``basis_for(n)``: the term
    tables are built from that set and would read any other as it."""
    n = basis.dim
    if basis is not basis_for(n):
        raise ValueError(f"basis is not basis_for({n}), the generator set of local dimension {n}")
    return n


def decompose(rho, basis: GeneratorSet) -> BlochForm:
    """Extract (u, v, beta) from a joint density matrix by trace projection.

    The projecting traces must be real to within ``IMAG_RESIDUE_TOL``; a
    larger imaginary part signals a non-Hermitian input and raises. A
    NaN or infinite entry raises too. The matrix is row 0 of a stack of one
    in ``_decompose_stack``; the first gate it fails raises.
    """
    n = _local_dim(basis)
    a = np.asarray(rho, dtype=complex)
    if a.shape != (n * n, n * n):
        raise ValueError(f"rho has shape {a.shape}, expected {(n * n, n * n)}")
    if not np.isfinite(a).all():
        raise _not_finite(a)
    s = _decompose_stack(_float_rows(a[None]), n)
    _raise_first(s.gates, 0)
    return BlochForm(local_dim=n, u=s.u[0], v=s.v[0], beta=s.beta[0])


def reconstruct(bf: BlochForm, basis: GeneratorSet) -> np.ndarray:
    """Evaluate the expansion literally, the exact inverse of ``decompose``.

    The result is Hermitian with unit trace by construction; positivity is
    not checked, since arbitrary (u, v, beta) need not describe a state.
    """
    n = _local_dim(basis)
    if bf.local_dim != n:
        raise ValueError(f"BlochForm dim {bf.local_dim} does not match basis dim {n}")
    k = n * n - 1
    parts = [np.asarray(part) for part in (bf.u, bf.v, bf.beta)]
    shapes, expected = tuple(part.shape for part in parts), ((k,), (k,), (k, k))
    if shapes != expected:
        raise ValueError(f"BlochForm parts u, v, beta have shapes {shapes}, expected {expected}")
    return _expand(np.concatenate([part.reshape(-1, 1) for part in parts], dtype=np.float64), n)[0]


def bloch_of_reduced(rho_local, basis: GeneratorSet) -> np.ndarray:
    """Bloch vector of a single-subsystem density matrix.

    Agrees with the u (or v) component of ``decompose`` applied to the joint
    state whose partial trace produced ``rho_local``.
    """
    n = _local_dim(basis)
    a = np.asarray(rho_local, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"rho_local has shape {a.shape}, expected {(n, n)}")
    scale = 1.0 if n == 2 else np.sqrt(3.0) / 2.0
    comps = np.einsum("aij,ji->a", np.stack(basis.generators), a)
    _raise_first([_residue_gate(np.abs(comps.imag).max(keepdims=True))], 0)
    return scale * comps.real
