import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdeg.states import (
    density_from_state,
    partial_trace,
    purity,
    state_from_amplitudes,
    validate_density,
)

S3 = 1 / np.sqrt(3)

THREE_TERM = state_from_amplitudes([S3, S3, 0, S3], 2, 2)
BELL = state_from_amplitudes([1, 0, 0, 1], 2, 2)


def test_three_term_state_no_warning():
    assert not THREE_TERM.normalization_warning
    assert np.linalg.norm(THREE_TERM.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_basis_state_exact():
    psi = state_from_amplitudes([1, 0, 0, 0], 2, 2)
    assert_allclose(psi.amplitudes, [1, 0, 0, 0])
    assert not psi.normalization_warning


def test_unnormalized_qutrit_input_flagged():
    # norm sqrt(3) is far off unit, so the state is rescaled and flagged
    psi = state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1], 3, 3)
    assert psi.normalization_warning
    assert_allclose(psi.amplitudes[[0, 4, 8]], [S3, S3, S3], atol=1e-15)


def test_slightly_off_norm_is_rescaled_quietly():
    psi = state_from_amplitudes([1 + 1e-9, 0, 0, 0], 2, 2)
    assert not psi.normalization_warning
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        state_from_amplitudes([0, 0, 0, 0], 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(ValueError, match="must be finite"):
        state_from_amplitudes([bad, 0.5, 0.5, 0.5], 2, 2)


@pytest.mark.parametrize(
    "raw, unit",
    [
        # squared amplitudes that underflow, turn subnormal or overflow
        (np.array([3, 4j, 0, -12]) * (scale / 13), np.array([3, 4j, 0, -12]) / 13)
        for scale in (1e-200, 1e-160, 1e200, 1e300)
    ]
    + [(np.array([5e-324, 0, 0, 5e-324]), np.array([1, 0, 0, 1]) / np.sqrt(2))],
)
def test_extreme_scale_is_rescaled(raw, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = state_from_amplitudes(raw, 2, 2)
    assert psi.normalization_warning
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert_allclose(psi.amplitudes, unit, atol=1e-15)


def test_unit_scale_input_is_divided_by_its_norm():
    raw = np.array([0.3 + 0.1j, -0.5, 0.2j, 0.7, 0.1, 0.0, -0.2j, 0.4, 0.05])
    psi = state_from_amplitudes(raw, 3, 3)
    assert np.array_equal(psi.amplitudes, raw / np.linalg.norm(raw))


def test_wrong_length_rejected():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        state_from_amplitudes([1, 0, 0], 2, 2)


def test_unsupported_dims_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        state_from_amplitudes([1, 0, 0, 0], 4, 1)


def test_density_three_term_matrix():
    expected = np.array(
        [[1, 1, 0, 1], [1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=complex
    ) / 3
    assert_allclose(density_from_state(THREE_TERM), expected, atol=1e-15)


def test_density_bell_matrix():
    rho = density_from_state(BELL)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert_allclose(rho, expected, atol=1e-15)


def test_density_basis_state():
    rho = density_from_state(state_from_amplitudes([1, 0, 0, 0], 2, 2))
    assert_allclose(rho, np.diag([1, 0, 0, 0]).astype(complex))


def test_partial_trace_three_term_both_sides():
    rho = density_from_state(THREE_TERM)
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    u = np.array([2 / 3, 0, 1 / 3])
    v = np.array([2 / 3, 0, -1 / 3])
    expected_a = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(u, sig)))
    expected_b = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(v, sig)))
    assert_allclose(partial_trace(rho, "A", (2, 2)), expected_a, atol=1e-14)
    assert_allclose(partial_trace(rho, "B", (2, 2)), expected_b, atol=1e-14)


def test_partial_trace_recovers_product_factor():
    rng = np.random.default_rng(3)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho_a = np.outer(z, z.conj()) / np.linalg.norm(z) ** 2
    rho_b = np.outer(w, w.conj()) / np.linalg.norm(w) ** 2
    joint = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(joint, "A", (2, 2)) - rho_a).max() <= 1e-13
    assert np.abs(partial_trace(joint, "B", (2, 2)) - rho_b).max() <= 1e-13


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        partial_trace(np.eye(4) / 4, "A", (3, 3))
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4) / 4, "C", (2, 2))


def test_purity_projector_and_mixed():
    assert purity(density_from_state(BELL)) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(4) / 4) == pytest.approx(0.25)


def test_purity_of_reduced_three_term():
    # tr(rho_a^2) = (1 + |u|^2)/2 with |u|^2 = 5/9
    rho_a = partial_trace(density_from_state(THREE_TERM), "A", (2, 2))
    assert purity(rho_a) == pytest.approx(7 / 9, abs=1e-14)


def test_partial_trace_outputs_are_valid_densities():
    rng = np.random.default_rng(9)
    for da, db in ((2, 2), (3, 3)):
        z = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
        psi = state_from_amplitudes(z / np.linalg.norm(z), da, db)
        rho = density_from_state(psi)
        for keep in ("A", "B"):
            red = partial_trace(rho, keep, (da, db))
            validate_density(red)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_validate_density_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        validate_density(np.diag([1.5, -0.5]).astype(complex))


def test_validate_density_has_no_size_cap():
    rho = np.eye(16) / 16
    assert_allclose(validate_density(rho), rho)


def test_validate_density_rejects_nan(monkeypatch):
    with pytest.raises(ValueError, match="rho is not Hermitian: max asymmetry nan"):
        validate_density(np.full((2, 2), np.nan))
    # the eigenvalue floor, reached only by a NaN spectrum of a finite matrix
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="lowest eigenvalue nan"):
        validate_density(np.eye(2) / 2)
