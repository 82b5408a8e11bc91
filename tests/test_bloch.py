import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entdeg import bloch, ensemble
from entdeg.bloch import BlochForm, bloch_of_reduced, decompose, reconstruct
from entdeg.generators import GeneratorSet, basis_for
from entdeg.states import density_from_state, partial_trace, state_from_amplitudes

S3 = 1 / np.sqrt(3)

THREE_TERM_RHO = density_from_state(state_from_amplitudes([S3, S3, 0, S3], 2, 2))
BELL_RHO = density_from_state(state_from_amplitudes([1, 0, 0, 1], 2, 2))
QUTRIT_MAX_RHO = density_from_state(
    state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1], 3, 3)
)

# diagonal sign pattern of the qutrit correlation matrix for the maximally
# entangled state: +1 on the symmetric and diagonal generators, -1 on the
# antisymmetric ones
QUTRIT_BETA_DIAG = np.array([1, -1, 1, 1, -1, 1, -1, 1], dtype=float)


def test_decompose_three_term():
    bf = decompose(THREE_TERM_RHO, basis_for(2))
    assert_allclose(bf.u, [2 / 3, 0, 1 / 3], atol=1e-15)
    assert_allclose(bf.v, [2 / 3, 0, -1 / 3], atol=1e-15)
    expected_beta = np.array([[2, 0, -2], [0, -2, 0], [2, 0, 1]]) / 3
    assert_allclose(bf.beta, expected_beta, atol=1e-15)


def test_decompose_bell():
    bf = decompose(BELL_RHO, basis_for(2))
    assert_allclose(bf.u, np.zeros(3), atol=1e-15)
    assert_allclose(bf.v, np.zeros(3), atol=1e-15)
    assert_allclose(bf.beta, np.diag([1.0, -1.0, 1.0]), atol=1e-15)


def test_decompose_qutrit_maximal():
    bf = decompose(QUTRIT_MAX_RHO, basis_for(3))
    assert_allclose(bf.u, np.zeros(8), atol=1e-15)
    assert_allclose(bf.v, np.zeros(8), atol=1e-15)
    assert_allclose(bf.beta, np.diag(QUTRIT_BETA_DIAG), atol=1e-15)


def test_decompose_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        decompose(np.eye(4) / 4, basis_for(3))


def test_decompose_rejects_non_hermitian():
    bad = THREE_TERM_RHO.copy()
    bad[0, 1] += 1e-6j
    with pytest.raises(ValueError, match="imaginary residue"):
        decompose(bad, basis_for(2))


@pytest.mark.parametrize(
    "n, entry, value, text",
    [(2, (0, 1), np.nan, r"rho\[0, 1\] = \(nan\+0j\) is not finite"),
     (3, (0, 0), np.inf, r"rho\[0, 0\] = \(inf\+0j\) is not finite")],
    ids=["qubit-nan-real-part", "qutrit-inf-diagonal"],
)
def test_decompose_rejects_non_finite_entries(n, entry, value, text):
    # NaN slips past every `x > tol` gate; inf can leave the residue finite
    rho = np.eye(n * n, dtype=complex) / (n * n)
    rho[entry] = value
    with pytest.raises(ValueError, match=text):
        decompose(rho, basis_for(2) if n == 2 else basis_for(3))


def test_decompose_rejects_overlong_bloch_vector():
    # Hermitian with unit trace but not a state: |v| = 3
    fake = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="exceeds 1"):
        decompose(fake, basis_for(2))


def test_reconstruct_three_term_roundtrip():
    bf = decompose(THREE_TERM_RHO, basis_for(2))
    assert np.abs(reconstruct(bf, basis_for(2)) - THREE_TERM_RHO).max() <= 1e-13


def test_reconstruct_zero_form_is_maximally_mixed():
    bf = BlochForm(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert_allclose(reconstruct(bf, basis_for(2)), np.eye(4) / 4, atol=1e-16)


def test_reconstruct_bell_from_coefficients():
    bf = BlochForm(2, np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    assert_allclose(reconstruct(bf, basis_for(2)), BELL_RHO, atol=1e-15)


def test_reconstruct_dim_mismatch():
    bf = BlochForm(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(bf, basis_for(3))


@pytest.mark.parametrize(
    "n, u, v, beta",
    [
        (2, np.zeros(2), np.zeros(3), np.zeros((3, 3))),  # an IndexError from the tables
        (2, np.zeros(3), np.zeros(3), np.zeros((2, 2))),
        (2, np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3))),
        (3, np.zeros(8), np.zeros(8), np.zeros(64)),  # a flat beta was taken as it was
    ],
    ids=["short-u", "small-beta", "column-v", "flat-beta"],
)
def test_reconstruct_rejects_parts_of_the_wrong_shape(n, u, v, beta):
    k = n * n - 1
    shapes = (u.shape, v.shape, beta.shape)
    with pytest.raises(ValueError) as caught:
        reconstruct(BlochForm(n, u, v, beta), basis_for(n))
    assert str(caught.value) == (
        f"BlochForm parts u, v, beta have shapes {shapes}, expected {((k,), (k,), (k, k))}"
    )


def test_bloch_of_reduced_three_term():
    rho_a = partial_trace(THREE_TERM_RHO, "A", (2, 2))
    assert_allclose(bloch_of_reduced(rho_a, basis_for(2)), [2 / 3, 0, 1 / 3], atol=1e-14)


def test_bloch_of_reduced_maximally_mixed():
    assert_allclose(bloch_of_reduced(np.eye(2) / 2, basis_for(2)), np.zeros(3), atol=1e-16)


def test_bloch_of_reduced_weighted_state_b_side():
    rho = density_from_state(state_from_amplitudes([1 / 3, 2 / 3, 0, 2 / 3], 2, 2))
    rho_b = partial_trace(rho, "B", (2, 2))
    assert_allclose(bloch_of_reduced(rho_b, basis_for(2)), [4 / 9, 0, -7 / 9], atol=1e-15)


def test_bloch_of_reduced_rejects_nan():
    for n in (2, 3):
        with pytest.raises(ValueError, match="imaginary residue nan"):
            bloch_of_reduced(np.full((n, n), np.nan), basis_for(n))


@pytest.mark.parametrize("n, shape", [(2, (3, 3)), (3, (2, 2)), (2, (4,)), (2, (1, 2, 2))])
def test_bloch_of_reduced_rejects_a_wrong_shape(n, shape):
    expected = re.escape(f"rho_local has shape {shape}, expected {(n, n)}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        bloch_of_reduced(np.zeros(shape), basis_for(n))


def _reordered(n):
    """basis_for(n) with its last generator moved first: a valid basis, but not basis_for(n)."""
    gens = basis_for(n).generators
    return GeneratorSet(n, gens[-1:] + gens[:-1], basis_for(n).identity)


PUBLIC_CALLS = {
    "decompose": lambda n, basis: decompose(np.eye(n * n) / (n * n), basis),
    "reconstruct": lambda n, basis: reconstruct(
        BlochForm(n, np.zeros(n * n - 1), np.zeros(n * n - 1), np.zeros((n * n - 1,) * 2)), basis
    ),
    "bloch_of_reduced": lambda n, basis: bloch_of_reduced(np.eye(n) / n, basis),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS.keys())
def test_a_foreign_generator_set_is_rejected_naming_the_dimension(n, call):
    # the term tables hold basis_for(n); an equal copy is not that object either
    expected = re.escape(f"basis is not basis_for({n}), the generator set of local dimension {n}")
    for foreign in (_reordered(n), dataclasses.replace(basis_for(n))):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            call(n, foreign)
    call(n, basis_for(n))


FOREIGN_FIRST = """
from entdeg import analyze
from entdeg.bloch import decompose
from entdeg.generators import GeneratorSet, basis_for
from entdeg.states import density_from_state, state_from_amplitudes

pauli = basis_for(2)
# sigma_z, sigma_x, sigma_y: |00> has u = (1, 0, 0) in this order
reordered = GeneratorSet(2, pauli.generators[2:] + pauli.generators[:2], pauli.identity)
psi = state_from_amplitudes([1, 0, 0, 0], 2, 2)
try:
    decompose(density_from_state(psi), reordered)
except ValueError:
    pass
print(decompose(density_from_state(psi), pauli).u.tolist(), analyze(psi).u)
"""


def test_a_foreign_set_first_in_a_process_leaves_later_calls_standard():
    # the term tables are built once per process, so this needs a fresh one
    src = str(Path(bloch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FOREIGN_FIRST],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0.0, 0.0, 1.0] (0.0, 0.0, 1.0)\n"


def _random_pure_rho(rng, n):
    z = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    psi = state_from_amplitudes(z / np.linalg.norm(z), n, n)
    return density_from_state(psi)


def _random_mixed_rho(rng, n):
    # convex mixture of a few random projectors
    weights = rng.random(3)
    weights /= weights.sum()
    return sum(w * _random_pure_rho(rng, n) for w in weights)


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_roundtrip_random_pure_and_mixed(basis):
    rng = np.random.default_rng(100 + basis.dim)
    for _ in range(40):
        for rho in (_random_pure_rho(rng, basis.dim), _random_mixed_rho(rng, basis.dim)):
            bf = decompose(rho, basis)
            assert np.abs(reconstruct(bf, basis) - rho).max() <= 1e-12


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_u_and_v_match_reduced_bloch_vectors(basis):
    rng = np.random.default_rng(200 + basis.dim)
    n = basis.dim
    for _ in range(25):
        rho = _random_pure_rho(rng, n)
        bf = decompose(rho, basis)
        u_red = bloch_of_reduced(partial_trace(rho, "A", (n, n)), basis)
        v_red = bloch_of_reduced(partial_trace(rho, "B", (n, n)), basis)
        assert np.abs(bf.u - u_red).max() <= 1e-12
        assert np.abs(bf.v - v_red).max() <= 1e-12


@seed(77)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda p: complex(*p)),
        min_size=4,
        max_size=4,
    ).filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-6)
)
def test_pure_qubit_u_equals_v(amps):
    rho = density_from_state(state_from_amplitudes(amps, 2, 2))
    bf = decompose(rho, basis_for(2))
    assert abs(np.linalg.norm(bf.u) - np.linalg.norm(bf.v)) <= 1e-10


# The dense route that the sparse kernel replaced: contract rho against the
# full Kronecker stacks g_a x 1, 1 x g_b, g_a x g_b and sum the expansion
# with einsum. The kernel must reproduce it bit for bit.


def _dense_stacks(basis):
    gens, ident = basis.generators, basis.identity
    first = np.stack([np.kron(g, ident) for g in gens])
    second = np.stack([np.kron(ident, g) for g in gens])
    pair = np.stack([np.stack([np.kron(gi, gj) for gj in gens]) for gi in gens])
    return first, second, pair


def _dense_project(rho, basis):
    first, second, pair = _dense_stacks(basis)
    return (
        np.einsum("aij,nji->na", first, rho),
        np.einsum("aij,nji->na", second, rho),
        np.einsum("abij,nji->nab", pair, rho),
    )


def _dense_scaled(u_raw, v_raw, beta_raw, n):
    """(u, v, beta) from the dense traces: the real parts, scaled at dim 3."""
    if n == 2:
        return u_raw.real, v_raw.real, beta_raw.real
    s = np.sqrt(3.0) / 2.0
    return s * u_raw.real, s * v_raw.real, 1.5 * beta_raw.real


def _dense_expand(u, v, beta, basis):
    """The expansion with its weights spelled out, not read from ``bloch._weights``."""
    first, second, pair = _dense_stacks(basis)
    pref, w_local, w_pair = (0.25, 1.0, 1.0) if basis.dim == 2 else (1.0 / 9.0, np.sqrt(3.0), 1.5)
    back = np.kron(basis.identity, basis.identity) + w_local * (
        np.einsum("na,aij->nij", u, first) + np.einsum("na,aij->nij", v, second)
    )
    back = back + w_pair * np.einsum("nab,abij->nij", beta, pair)
    return pref * back


def _haar_stack(n, count, seed):
    psi = ensemble._haar_rows(n, seed, 1000, 1000 + count)
    return psi[:, :, None] * psi.conj()[:, None, :]


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
@pytest.mark.parametrize("count", [1, 7, 64])
def test_sparse_kernel_equals_dense_einsums(monkeypatch, basis, count):
    residues = []
    real_gate = bloch._residue_gate
    monkeypatch.setattr(bloch, "_residue_gate", lambda r: residues.append(r) or real_gate(r))
    for seed in range(3):
        rho = _haar_stack(basis.dim, count, seed)
        if seed == 2:
            # a basis state with every zero negative: the dense sums start
            # from +0.0, so all-zero traces come out as +0.0 regardless
            n = basis.dim
            one = density_from_state(state_from_amplitudes(np.eye(n * n)[1], n, n))
            rho = np.empty((count, *one.shape), dtype=complex)
            rho.real = np.where(one.real == 0.0, -0.0, one.real)
            rho.imag = -0.0
        dense = _dense_project(rho, basis)
        s = bloch._decompose_stack(bloch._float_rows(rho), basis.dim)
        for want, got in zip(_dense_scaled(*dense, basis.dim), (s.u, s.v, s.beta)):
            assert got.shape == want.shape
            if basis.dim == 2:
                # the stride of .real of a complex array, as the dense route has
                assert got.strides[-1] == 16
            assert np.array_equal(got, want)
            # the sign of zero too: analyze prints u and v
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(
            residues.pop(),
            np.maximum(
                np.maximum(np.abs(dense[0].imag).max(axis=1), np.abs(dense[1].imag).max(axis=1)),
                np.abs(dense[2].imag).max(axis=(1, 2)),
            ),
        )
        u, v, beta = _dense_scaled(*dense, basis.dim)
        # the round trip reads u, v and beta as rows, one column per state
        assert np.array_equal(s.rows, np.concatenate([u.T, v.T, beta.reshape(count, -1).T]))
        want = _dense_expand(u, v, beta, basis)
        got = bloch._expand(s.rows, basis.dim)
        assert np.array_equal(got, want)
        assert np.array_equal(np.abs(got - rho), np.abs(want - rho))


@pytest.mark.parametrize("basis", [basis_for(2), basis_for(3)])
def test_single_state_routes_equal_dense_einsums(basis):
    rho = _haar_stack(basis.dim, 5, 11)
    for one in rho:
        bf = decompose(one, basis)
        u_raw, v_raw, beta_raw = (part[0] for part in _dense_project(one[None], basis))
        want_u, want_v, want_beta = _dense_scaled(u_raw, v_raw, beta_raw, basis.dim)
        assert np.array_equal(bf.u, want_u) and np.array_equal(bf.v, want_v)
        assert np.array_equal(bf.beta, want_beta)
        want = _dense_expand(bf.u[None], bf.v[None], bf.beta[None], basis)[0]
        assert np.array_equal(reconstruct(bf, basis), want)


@pytest.mark.parametrize("basis, nonzero", [(basis_for(2), 60), (basis_for(3), 391)])
def test_term_tables_hold_the_dense_nonzeros(basis, nonzero):
    assert sum(np.count_nonzero(stack) for stack in _dense_stacks(basis)) == nonzero
    tables = bloch._tables(basis.dim)
    # every nonzero entry is one term of the expansion, and one term each of
    # the real and the imaginary part of its projection
    expansion = (tables.local_a, tables.local_b, tables.pair)
    assert sum(np.count_nonzero(terms.coef) for terms in expansion) == nonzero
    assert np.count_nonzero(tables.project.coef) == 2 * nonzero
