"""Each gate is written once, and NaN fails it on every route that reaches it."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from entdeg import linalg, measure
from entdeg.ensemble import property_sweep
from entdeg.linalg import herm_eigvals
from entdeg.measure import PurityViolation, degree_det, schmidt_coeffs
from entdeg.states import state_from_amplitudes

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "entdeg").glob("*.py"))

GATE_MESSAGES = [
    "purity gate failed",
    "is not finite",
    "imaginary residue",
    "exceeds 1, rho is not a qubit state",
    "determinant sign inconsistent with purity",
    "matrix is not Hermitian",
    "reduced eigenvalues sum to",
    "determinant route gives",
    "must be a square matrix",
    "expected a real 3-vector",
    "the generator set of local dimension",
    "BlochForm parts u, v, beta have shapes",
]


@pytest.mark.parametrize("message", GATE_MESSAGES)
def test_each_gate_message_is_written_once(message):
    text = "".join(path.read_text(encoding="utf-8") for path in SOURCES)
    assert text.count(message) == 1


@pytest.mark.parametrize("gone", ["dimension overflow", "MAX_DIM", "not a valid Bloch vector"])
def test_removed_check_is_not_spelled(gone):
    text = "".join(path.read_text(encoding="utf-8") for path in SOURCES)
    assert gone not in text


def test_u_norm_is_squared_once_one_way():
    # a multiply and libm pow round |u|^2 differently in the last bit, so a
    # second spelling would let the gate and the sweep's det_vs_u_norm disagree
    text = "".join(path.read_text(encoding="utf-8") for path in SOURCES)
    assert text.count("np.float_power(u_norm, 2.0)") == 1
    assert "u_norm * u_norm" not in text


BELL = state_from_amplitudes([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], 2, 2)


def _det_of_nan(monkeypatch):
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy's det of NaN warns
    degree_det(np.full((4, 4), np.nan))


def _eigvals_of_nan(monkeypatch):
    herm_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _schmidt_of_nan_spectrum(monkeypatch):
    monkeypatch.setattr(measure, "herm_eigvals", lambda h: np.array([np.nan, np.nan]))
    schmidt_coeffs(BELL)


# each shared builder, the module whose scalar helper reads it, that helper fed
# a NaN, and what the builder raises for a NaN row
BUILDERS = [
    pytest.param("_det_sign_gate", measure, _det_of_nan, PurityViolation,
                 "determinant sign inconsistent with purity: -det(alpha) = nan", id="det-sign"),
    pytest.param("_hermiticity_gate", linalg, _eigvals_of_nan, ValueError,
                 "matrix is not Hermitian: max |h - h^dagger| = nan", id="hermiticity"),
    pytest.param("_schmidt_sum_gate", measure, _schmidt_of_nan_spectrum, ArithmeticError,
                 "reduced eigenvalues sum to nan, expected 1", id="schmidt-sum"),
]


def _spy(monkeypatch, module, name, nan_row=None):
    """Wrap ``module.name``, recording what it is fed; NaN goes into ``nan_row`` first."""
    real = getattr(module, name)
    fed = []

    def builder(values):
        if nan_row is not None:
            values = values.copy()
            values[nan_row] = np.nan
        fed.append(values)
        return real(values)

    monkeypatch.setattr(module, name, builder)
    return fed


@pytest.mark.parametrize("name, helper_module, helper, error, message", BUILDERS)
def test_nan_fed_to_a_shared_builder_raises_through_a_kernel_row(
    monkeypatch, name, helper_module, helper, error, message
):
    # the sweep's stack reads every builder from measure, whose analyze kernel it runs
    fed = _spy(monkeypatch, measure, name, nan_row=5)
    with pytest.raises(error) as caught:
        property_sweep(40, 2, seed=3)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert [len(values) for values in fed] == [40]


@pytest.mark.parametrize("name, helper_module, helper, error, message", BUILDERS)
def test_nan_fed_to_a_shared_builder_raises_through_the_scalar_helper(
    monkeypatch, name, helper_module, helper, error, message
):
    fed = _spy(monkeypatch, helper_module, name)
    with warnings.catch_warnings(), pytest.raises(error) as caught:
        helper(monkeypatch)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert len(fed) == 1 and fed[0].shape == (1,) and np.isnan(fed[0][0])
