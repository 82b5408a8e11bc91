import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entdeg.bloch import BlochForm, decompose
from entdeg.ensemble import _haar_rows, state_for_index
from entdeg.generators import basis_for
from entdeg.hyperbolic import degree_hyperbolic, rapidity_of
from entdeg.measure import (
    NEAR_PRODUCT_FLOOR,
    PurityViolation,
    _analyze_stack,
    alpha_matrix,
    analyze,
    concurrence_pure,
    degree_det,
    degree_schmidt,
    purity_constraints_report,
    schmidt_coeffs,
)
from entdeg.states import StateVector, density_from_state, state_from_amplitudes

S3 = 1 / np.sqrt(3)

THREE_TERM = state_from_amplitudes([S3, S3, 0, S3], 2, 2)
WEIGHTED = state_from_amplitudes([1 / 3, 2 / 3, 0, 2 / 3], 2, 2)
BELL = state_from_amplitudes([1, 0, 0, 1], 2, 2)
QUTRIT_MAX = state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1], 3, 3)


def _bloch_of(psi):
    n = psi.dim_a
    basis = basis_for(2) if n == 2 else basis_for(3)
    return decompose(density_from_state(psi), basis)


def test_alpha_three_term_integer_form():
    alpha = alpha_matrix(_bloch_of(THREE_TERM))
    expected = np.array(
        [[3, 2, 0, -1], [2, 2, 0, -2], [0, 0, -2, 0], [1, 2, 0, 1]], dtype=float
    )
    assert np.abs(3 * alpha - expected).max() <= 1e-15


def test_alpha_bell_diagonal():
    assert_allclose(alpha_matrix(_bloch_of(BELL)), np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-15)


def test_alpha_product_block_structure():
    # for a product state the correlation block is the outer product u v^T
    u = np.array([0.3, -0.2, 0.4])
    v = np.array([0.1, 0.5, -0.3])
    bf = BlochForm(2, u, v, np.outer(u, v))
    alpha = alpha_matrix(bf)
    assert alpha[0, 0] == 1.0
    assert_allclose(alpha[0, 1:], v)
    assert_allclose(alpha[1:, 0], u)
    assert_allclose(alpha[1:, 1:], np.outer(u, v))
    # block determinant identity: det alpha = det(beta - u v^T) = 0 here
    assert degree_det(alpha) == 0.0


@pytest.mark.parametrize(
    "psi,expected",
    [(THREE_TERM, 2 / 3), (WEIGHTED, 4 / 9), (BELL, 1.0), (QUTRIT_MAX, 1.0)],
)
def test_degree_det_known_states(psi, expected):
    assert degree_det(alpha_matrix(_bloch_of(psi))) == pytest.approx(expected, abs=1e-12)


def test_degree_det_clamps_floating_noise():
    # -det slightly below zero is rounded up to an exact 0
    alpha = np.diag([1.0, 1.0, 1.0, 1e-12])
    assert degree_det(alpha) == 0.0


def test_degree_det_rejects_genuinely_negative():
    with pytest.raises(PurityViolation, match="determinant sign inconsistent with purity"):
        degree_det(np.eye(4))


def test_schmidt_bell():
    k1, k2 = schmidt_coeffs(BELL)
    assert (k1, k2) == pytest.approx((np.sqrt(0.5), np.sqrt(0.5)), abs=1e-14)


def test_schmidt_basis_state():
    assert schmidt_coeffs(state_from_amplitudes([1, 0, 0, 0], 2, 2)) == pytest.approx((1.0, 0.0))


def test_schmidt_three_term():
    # |u| = sqrt(5)/3 gives kappa = sqrt((1 +/- sqrt(5)/3) / 2)
    r = np.sqrt(5) / 3
    expected = (np.sqrt((1 + r) / 2), np.sqrt((1 - r) / 2))
    assert schmidt_coeffs(THREE_TERM) == pytest.approx(expected, abs=1e-14)


def test_schmidt_rejects_nan(monkeypatch):
    with pytest.raises(ValueError, match="not Hermitian"):
        schmidt_coeffs(StateVector(2, 2, np.array([np.nan, 0, 0, 1], dtype=complex)))
    # the sum gate, reached only by a NaN spectrum of a finite state
    monkeypatch.setattr("entdeg.measure.herm_eigvals", lambda h: np.array([np.nan, np.nan]))
    with pytest.raises(ArithmeticError, match="reduced eigenvalues sum to nan"):
        schmidt_coeffs(BELL)


def test_schmidt_rejects_qutrits():
    with pytest.raises(ValueError, match="qubit pairs only"):
        schmidt_coeffs(QUTRIT_MAX)


def test_degree_schmidt_values():
    assert degree_schmidt((np.sqrt(0.5), np.sqrt(0.5))) == pytest.approx(1.0)
    assert degree_schmidt((1.0, 0.0)) == 0.0
    assert degree_schmidt(schmidt_coeffs(THREE_TERM)) == pytest.approx(2 / 3, abs=1e-14)


def test_degree_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        degree_schmidt((1.0, 1.0))


@pytest.mark.parametrize(
    "func, arg, error, named",
    [
        (degree_det, np.full((4, 4), np.nan), PurityViolation, "-det(alpha) = nan"),
        (degree_schmidt, (np.nan, np.nan), ValueError, "k1^2 + k2^2 = nan"),
        (degree_hyperbolic, [np.nan, 0.0, 0.0], ValueError, "|u| = nan"),
        (rapidity_of, [np.nan, 0.0, 0.0], ValueError, "|u| = nan"),
    ],
    ids=["degree_det", "degree_schmidt", "degree_hyperbolic", "rapidity_of"],
)
def test_scalar_helpers_reject_nan_by_name(func, arg, error, named):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's det of NaN warns
        with pytest.raises(error) as exc:
            func(arg)
    assert named in str(exc.value)


def test_concurrence_values():
    assert concurrence_pure(THREE_TERM) == pytest.approx(2 / 3, abs=1e-15)
    assert concurrence_pure(WEIGHTED) == pytest.approx(4 / 9, abs=1e-15)
    assert concurrence_pure(state_from_amplitudes([0, 1, 0, 0], 2, 2)) == 0.0
    with pytest.raises(ValueError, match="qubit pairs only"):
        concurrence_pure(QUTRIT_MAX)


def test_constraints_vanish_for_pure_states():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = state_from_amplitudes(z / np.linalg.norm(z), 2, 2)
        residuals = purity_constraints_report(_bloch_of(psi))
        assert max(residuals.values()) <= 1e-10


def test_constraints_bell_machine_precision():
    # amplitudes are fl(1/sqrt(2)), so a few ulp of noise survive
    residuals = purity_constraints_report(_bloch_of(BELL))
    assert max(residuals.values()) <= 1e-14


def test_constraints_cofactor_sign_convention():
    # beta = diag(1, -1, 1) with u = v = 0 forces beta_22 = -C_22, where
    # C_22 = +det(diag(1, 1)); a flipped sign convention would leave a
    # residual of 2 here
    bf = BlochForm(2, np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    assert purity_constraints_report(bf)["beta_cofactor"] == 0.0


def test_constraints_flag_mixed_state():
    bf = BlochForm(2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    residuals = purity_constraints_report(bf)
    assert residuals["beta_sq_sum"] == pytest.approx(3.0)
    assert residuals["det_beta_identity"] == pytest.approx(1.0)
    assert residuals["beta_v_eq_u"] == 0.0


def test_constraints_reject_qutrit_form():
    bf = _bloch_of(QUTRIT_MAX)
    with pytest.raises(ValueError, match="qubit pairs"):
        purity_constraints_report(bf)


def test_analyze_weighted_state():
    rep = analyze(WEIGHTED)
    assert rep.p_e_det == pytest.approx(4 / 9, abs=1e-12)
    assert rep.u == pytest.approx((8 / 9, 0, 1 / 9), abs=1e-15)
    assert rep.v == pytest.approx((4 / 9, 0, -7 / 9), abs=1e-15)
    assert rep.oracle_checked
    assert rep.purity == pytest.approx(1.0, abs=1e-12)


def test_analyze_bell_all_measures_agree():
    rep = analyze(BELL)
    assert rep.p_e_det == pytest.approx(1.0, abs=1e-12)
    assert rep.p_e_schmidt == pytest.approx(1.0, abs=1e-12)
    assert rep.concurrence == pytest.approx(1.0, abs=1e-12)
    assert max(rep.constraint_residuals.values()) <= 1e-10


def test_analyze_basis_state_all_zero():
    rep = analyze(state_from_amplitudes([0, 0, 1, 0], 2, 2))
    assert rep.p_e_det == 0.0
    assert rep.p_e_schmidt == pytest.approx(0.0, abs=1e-12)
    assert rep.concurrence == 0.0
    assert rep.u_norm == pytest.approx(1.0, abs=1e-12)


def test_analyze_qutrit_fields():
    rep = analyze(QUTRIT_MAX)
    assert rep.local_dim == 3
    assert rep.p_e_det == pytest.approx(1.0, abs=1e-12)
    assert rep.p_e_schmidt is None
    assert rep.concurrence is None
    assert rep.kappa is None
    assert rep.constraint_residuals is None
    assert not rep.oracle_checked
    assert len(rep.u) == 8


def _qutrit_closed_form(psi):
    """(3^7/2) e3^2 (e2 + 9 e3) in the Schmidt weights of a qutrit pair."""
    lam = np.linalg.svd(psi.amplitudes.reshape(3, 3), compute_uv=False) ** 2
    e2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
    e3 = lam[0] * lam[1] * lam[2]
    return 3**7 / 2 * e3**2 * (e2 + 9 * e3)


def _schmidt_rank_2_qutrit(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    m = m @ (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    return state_from_amplitudes(m.ravel(), 3, 3)


def test_qutrit_det_equals_schmidt_closed_form():
    # -det alpha is a local-unitary invariant, hence a symmetric polynomial
    # in the Schmidt weights; a test-only oracle, analyze does not use it
    for idx in range(300):
        psi = state_for_index(3, 11, idx)
        rep = analyze(psi)
        d = _qutrit_closed_form(psi)
        assert abs(rep.alpha_det - d) <= 1e-14, idx
        assert abs(rep.p_e_det - d**0.25) <= 1e-14, idx
    assert _qutrit_closed_form(QUTRIT_MAX) == pytest.approx(1.0, abs=1e-14)
    assert analyze(QUTRIT_MAX).alpha_det == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "psi",
    [state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 0], 3, 3)]
    + [_schmidt_rank_2_qutrit(seed) for seed in range(3)],
    ids=["bell-pair-in-qutrits", "rank-2-a", "rank-2-b", "rank-2-c"],
)
def test_qutrit_det_blind_to_schmidt_rank_2(psi):
    # e3 = 0 at Schmidt rank 2, so P_E reads 0 for these entangled states
    assert _qutrit_closed_form(psi) <= 1e-30
    rep = analyze(psi)
    assert abs(rep.alpha_det) <= 1e-30
    assert rep.p_e_det <= 1e-14


def test_analyze_purity_gate():
    # bypass the normalizing factory to hit the gate
    bad = StateVector(2, 2, np.array([1.0, 0, 0, 0.5], dtype=complex))
    with pytest.raises(PurityViolation, match="purity gate"):
        analyze(bad)


def test_analyze_rejects_unequal_dims():
    psi = state_from_amplitudes([1, 0, 0, 0, 0, 0], 2, 3)
    with pytest.raises(ValueError, match="equal local dimensions"):
        analyze(psi)


def test_analyze_propagates_normalization_warning():
    rep = analyze(state_from_amplitudes([2, 0, 0, 2], 2, 2))
    assert rep.normalization_warning
    assert rep.p_e_det == pytest.approx(1.0, abs=1e-12)


def _haar_state(rng, n=2):
    z = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    return state_from_amplitudes(z / np.linalg.norm(z), n, n)


def test_local_unitary_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        psi = _haar_state(rng)
        ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rotated = state_from_amplitudes(np.kron(ua, ub) @ psi.amplitudes, 2, 2)
        assert analyze(rotated).p_e_det == pytest.approx(analyze(psi).p_e_det, abs=1e-10)


def test_product_states_measure_zero():
    rng = np.random.default_rng(37)
    for _ in range(25):
        za = rng.normal(size=2) + 1j * rng.normal(size=2)
        zb = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = state_from_amplitudes(np.kron(za, zb), 2, 2)
        # determinant noise of order 1e-48 can surface as (1e-48)^(1/4)
        assert analyze(psi).p_e_det <= 1e-11


def test_determinant_matches_u_norm_identity():
    rng = np.random.default_rng(41)
    for _ in range(30):
        rep = analyze(_haar_state(rng))
        assert rep.alpha_det == pytest.approx((1 - rep.u_norm**2) ** 2, abs=1e-10)
        assert rep.alpha_det >= -1e-10
        assert 0.0 <= rep.p_e_det <= 1.0 + 1e-9


amplitude = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda p: complex(*p))


@seed(88)
@settings(max_examples=80, deadline=None)
@given(st.lists(amplitude, min_size=4, max_size=4).filter(
    lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-6
))
def test_oracle_equivalence(amps):
    rep = analyze(state_from_amplitudes(amps, 2, 2))
    # Hypothesis likes product states such as [a, a, b, b], where the
    # Schmidt route reports sqrt(eigenvalue noise) ~ 1e-8 instead of 0.
    # There the routes only have to agree that the state is separable.
    if max(rep.p_e_det, rep.p_e_schmidt) > NEAR_PRODUCT_FLOOR:
        assert abs(rep.p_e_det - rep.p_e_schmidt) <= 1e-10
    else:
        assert abs(rep.p_e_det - rep.p_e_schmidt) <= 1e-6
    assert abs(rep.p_e_det - rep.concurrence) <= 1e-10


def test_float_power_rounds_as_python_pow():
    # p_e = d ** 0.25 in the stacked kernel and 1 - |u| ** 2 in the sweep take
    # np.float_power, which calls libm pow as Python's float ** does (np.power
    # and x * x round differently on some values)
    specials = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1.0]
    for n in (2, 3):
        s = _analyze_stack(_haar_rows(n, 3, 0, 3000), n)
        d = np.where(s.alpha_det < 0.0, 0.0, s.alpha_det)
        for values, exponent in ((d, 0.25), (s.u_norm, 2.0), (s.v_norm, 2.0)):
            x = np.concatenate([values, specials])
            scalar = np.array([v ** exponent for v in x.tolist()])
            assert (np.float_power(x, exponent).view(np.uint64) == scalar.view(np.uint64)).all()
