import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entdeg import bloch, hyperbolic
from entdeg.bloch import BlochForm, decompose, reconstruct
from entdeg.generators import basis_for
from entdeg.hyperbolic import (
    RapidityParam,
    boost_density_residual,
    degree_hyperbolic,
    lorentz_boost,
    rapidity_of,
)
from entdeg.measure import analyze
from entdeg.states import state_from_amplitudes

THREE_TERM_U = np.array([2 / 3, 0, 1 / 3])


def _random_direction(rng):
    vec = rng.normal(size=3)
    return vec / np.linalg.norm(vec)


def test_rapidity_zero_vector_convention():
    r = rapidity_of(np.zeros(3))
    assert r.half_rapidity == 0.0
    assert_allclose(r.unit_direction, [0, 0, 1])
    assert r.boost_rapidity == 0.0


def test_rapidity_three_term_u():
    r = rapidity_of(THREE_TERM_U)
    assert r.half_rapidity == pytest.approx(np.arctanh(np.sqrt(5) / 3), abs=1e-15)
    assert r.boost_rapidity == 2 * r.half_rapidity
    assert_allclose(r.unit_direction, THREE_TERM_U / np.linalg.norm(THREE_TERM_U))


def test_rapidity_rejects_light_cone():
    with pytest.raises(ValueError, match="light-cone"):
        rapidity_of([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="light-cone"):
        rapidity_of([0.0, 0.0, 1.0 - 1e-13])


def test_rapidity_shape_check():
    with pytest.raises(ValueError, match="3-vector"):
        rapidity_of([0.1, 0.2])


@pytest.mark.parametrize("func", [degree_hyperbolic, rapidity_of, boost_density_residual])
@pytest.mark.parametrize("u, shape", [([], (0,)), ([0.6, 0.0], (2,)), ([[0.6]], (1, 1)), (0.6, ())])
def test_every_entry_point_takes_only_a_3_vector(func, u, shape):
    # degree_hyperbolic once read [] as |u| = 0, maximal entanglement
    expected = re.escape(f"expected a real 3-vector, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        func(u)


@pytest.mark.parametrize("func", [degree_hyperbolic, rapidity_of, boost_density_residual])
def test_every_entry_point_rejects_a_complex_vector(func):
    # a float cast once dropped the imaginary part with a warning and read |u| = 0.5
    for u in (np.array([0.5 + 0.5j, 0.0, 0.0]), [0.5, 0.0, 0.0j]):
        with pytest.raises(ValueError, match="^expected a real 3-vector, got complex entries$"):
            func(u)


def test_boost_at_rest_is_identity():
    assert_allclose(lorentz_boost(rapidity_of(np.zeros(3))), np.eye(2), atol=1e-16)


def test_boost_along_z_closed_form():
    # tanh(phi) = 1/2 along +z: diag(cosh + sinh, cosh - sinh) = diag(sqrt(3), 1/sqrt(3))
    boosted = lorentz_boost(rapidity_of([0, 0, 0.5]))
    assert_allclose(boosted, np.diag([np.sqrt(3.0), 1 / np.sqrt(3.0)]), atol=1e-15)


def test_boost_unit_determinant_and_hermitian():
    rng = np.random.default_rng(51)
    for _ in range(30):
        u = _random_direction(rng) * rng.uniform(0, 1 - 1e-9)
        boosted = lorentz_boost(rapidity_of(u))
        assert np.linalg.det(boosted).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(boosted - boosted.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(boosted)[0] > 0


def test_boost_rapidity_is_twice_half():
    r = RapidityParam(np.array([1.0, 0, 0]), 0.7)
    assert r.boost_rapidity == 1.4


def test_density_residual_zero_vector():
    assert boost_density_residual(np.zeros(3)) == 0.0


def test_density_residual_half_z():
    assert boost_density_residual([0, 0, 0.5]) <= 1e-12


def test_density_residual_random_sphere():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(1000):
        u = _random_direction(rng) * rng.uniform(0, 1 - 1e-6)
        worst = max(worst, boost_density_residual(u))
    assert worst <= 1e-12
    assert boost_density_residual(_random_direction(rng) * 0.9) <= 1e-12


def test_degree_endpoints():
    assert degree_hyperbolic(np.zeros(3)) == 1.0
    assert degree_hyperbolic([0, 0, 1.0]) == 0.0
    assert degree_hyperbolic([0, 0, 1.0 + 5e-11]) == 0.0


def test_degree_three_term_u():
    assert degree_hyperbolic(THREE_TERM_U) == pytest.approx(2 / 3, abs=1e-14)


def test_degree_rejects_invalid_bloch_vector():
    with pytest.raises(ValueError, match="exceeds 1"):
        degree_hyperbolic([0, 0, 1.001])


def test_degree_reads_the_bloch_norm_bound(monkeypatch):
    # one |u| <= 1 bound for decompose, analyze and the hyperbolic form
    monkeypatch.setattr(bloch, "LOCAL_NORM_SLACK", 0.01)
    assert degree_hyperbolic([0, 0, 1.005]) == 0.0
    monkeypatch.setattr(bloch, "LOCAL_NORM_SLACK", -0.5)
    with pytest.raises(ValueError, match="exceeds 1"):
        degree_hyperbolic(THREE_TERM_U)


NORM_BOUND = 1.0 + bloch.LOCAL_NORM_SLACK


@pytest.mark.parametrize(
    "norm, accepted",
    [
        (np.nextafter(NORM_BOUND, 0.0), True),
        (NORM_BOUND, True),
        (np.nextafter(NORM_BOUND, 2.0), False),
        (np.nextafter(np.nextafter(NORM_BOUND, 2.0), 2.0), False),
        (np.nan, False),
    ],
    ids=["one-ulp-inside", "at-bound", "one-ulp-outside", "two-ulps-outside", "nan"],
)
def test_degree_and_decompose_share_one_norm_bound(norm, accepted):
    # along x, np.linalg.norm(u) is norm itself and the projection reads it back
    u = np.array([norm, 0.0, 0.0])
    np.testing.assert_equal(np.linalg.norm(u), norm)
    basis = basis_for(2)
    rho = reconstruct(BlochForm(2, u, np.zeros(3), np.zeros((3, 3))), basis)
    s = bloch._decompose_stack(bloch._float_rows(rho[None]), 2)
    np.testing.assert_equal(s.norms[0, 0], norm)
    passed, error = s.gates[1]  # decompose's |u| gate
    assert bool(passed[0]) is accepted
    if accepted:
        assert degree_hyperbolic(u) == 0.0
        decompose(rho, basis)
        return
    with pytest.raises(ValueError) as caught:
        degree_hyperbolic(u)
    assert str(caught.value) == str(error(0))
    if not np.isnan(norm):  # decompose raises its finite gate on NaN first
        with pytest.raises(ValueError) as from_decompose:
            decompose(rho, basis)
        assert str(from_decompose.value) == str(caught.value)


def test_reciprocal_cosh_equals_algebraic_form():
    # sample |u| logarithmically toward the endpoint where artanh degrades
    for k in range(1, 9):
        x = 1.0 - 10.0 ** (-k)
        lhs = 1.0 / np.cosh(np.arctanh(x))
        rhs = np.sqrt(1.0 - x * x)
        assert abs(lhs - rhs) <= 1e-13


def test_stacked_degree_is_degree_hyperbolic_row_by_row():
    # the verify sweep runs the stacked form on its |u| column; both branches,
    # the switch at 1 - 1e-8 one ulp either side, |u| = 1 and a |u| past 1
    # that the gate lets through
    edge = 1.0 - 1e-8
    norms = np.array([
        0.0, 0.5, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0),
        1.0 - 1e-12, 1.0, 1.0 + 5e-11,
    ])
    stacked = hyperbolic._degree_of_norms(norms)
    for x, got in zip(norms, stacked):
        assert got.hex() == degree_hyperbolic([x, 0.0, 0.0]).hex(), x
        assert abs(got - np.sqrt(max((1.0 - x) * (1.0 + x), 0.0))) <= 1e-13, x


def test_degree_continuous_across_branch_switch():
    # the artanh and algebraic branches meet near |u| = 1 - 1e-8
    for x in (1 - 1.0001e-8, 1 - 1e-8, 1 - 0.9999e-8):
        assert degree_hyperbolic([x, 0, 0]) == pytest.approx(
            np.sqrt(1 - x * x), rel=1e-10
        )


def test_degree_matches_determinant_route():
    rng = np.random.default_rng(59)
    for _ in range(50):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = analyze(state_from_amplitudes(z / np.linalg.norm(z), 2, 2))
        assert degree_hyperbolic(np.array(rep.u)) == pytest.approx(
            rep.p_e_det, abs=1e-10
        )
