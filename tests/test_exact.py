"""An exact rational reference for -det alpha, the closed forms it obeys, and
the boundary families where Haar draws never go.

Every double is a dyadic rational, so the exact -det alpha of the state that
``analyze`` reads can be computed. The target is rho = psi psi^dagger /
||psi||^2 of the float amplitudes psi; scaled by a power of two, psi is a
vector Psi of Gaussian integers, and rho = R / N with R = Psi Psi^dagger and
N = ||Psi||^2, both integral.

The traces are taken against integer-entry generators: the Pauli matrices,
and at dim 3 the Gell-Mann matrices with g8 replaced by diag(1, 1, -2) =
sqrt(3) g8. With u, v and beta the unscaled traces of rho,

    dim 2:  -det alpha = -det [[1, v^T], [u, beta]]
    dim 3:  -det alpha = -(1/4) det [[4/3, v^T], [u, (3/2) beta]],

the second because alpha = D [[1, (sqrt(3)/2) v^T], [(sqrt(3)/2) u,
(3/2) beta]] D with D = diag(1, ..., 1, 1 / sqrt(3)), and every term of a
determinant reads one entry of u and one of v, or neither. Cleared of
denominators the matrix is integral, and Bareiss elimination gives its
determinant exactly.
"""

from fractions import Fraction

import numpy as np
import pytest

from entdeg import ensemble, measure
from entdeg.ensemble import DEFAULT_TOL, state_for_index
from entdeg.fixtures import example_fixtures
from entdeg.measure import analyze, concurrence_pure
from entdeg.states import StateVector

# Measured agreement of analyze with the reference, over 300 Haar states of
# seed 11 per dimension and the examples: -det alpha to 2.2e-15 (the qutrit
# maximal superposition, 10 ulp of 1.0) and P_E to 1.5e-15. The bounds leave
# about 2x room.
ALPHA_DET_BOUND = 5e-15
P_E_BOUND = 3e-15


def _gaussian(amplitudes) -> list[tuple[int, int]]:
    """Psi, the amplitudes times the least power of two that makes them Gaussian integers."""
    ratios = [part.as_integer_ratio() for z in amplitudes for part in (z.real, z.imag)]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
    ints = [num * (scale // den) for num, den in ratios]
    return list(zip(ints[0::2], ints[1::2]))


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _abs2(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _generators(n: int) -> list[dict[tuple[int, int], tuple[int, int]]]:
    """The integer-entry generators in Gell-Mann order, as {(row, col): (re, im)}."""
    gens = []
    for k in range(1, n):
        for j in range(k):
            gens.append({(j, k): (1, 0), (k, j): (1, 0)})
            gens.append({(j, k): (0, -1), (k, j): (0, 1)})
        # diag(1, ..., 1, -k, 0, ...): sigma_z at k = 1, sqrt(3) g8 at k = 2
        gens.append({**{(j, j): (1, 0) for j in range(k)}, (k, k): (-k, 0)})
    return gens


def _kron(a, b, n):
    return {
        (i * n + k, j * n + l): _mul(x, y)
        for (i, j), x in a.items()
        for (k, l), y in b.items()
    }


def _trace(op, psi) -> int:
    """tr(op R) = sum_pq op_pq Psi_q conj(Psi_p), which is real for Hermitian op."""
    total = 0
    for (p, q), m in op.items():
        conj_p = (psi[p][0], -psi[p][1])
        total += _mul(m, _mul(psi[q], conj_p))[0]
    return total


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def exact_minus_det_alpha(amplitudes, n: int) -> Fraction:
    """-det alpha of rho = psi psi^dagger / ||psi||^2, exactly."""
    psi = _gaussian(amplitudes)
    norm = sum(_abs2(z) for z in psi)
    gens = _generators(n)
    one = {(i, i): (1, 0) for i in range(n)}
    u = [_trace(_kron(g, one, n), psi) for g in gens]
    v = [_trace(_kron(one, g, n), psi) for g in gens]
    beta = [[_trace(_kron(a, b, n), psi) for b in gens] for a in gens]
    if n == 2:
        # alpha = [[N, v], [u, beta]] / N, a 4x4
        rows = [[norm, *v], *([u_i, *row] for u_i, row in zip(u, beta))]
        return Fraction(-_bareiss_det(rows), norm**4)
    # 6 N times [[4/3, v / N], [u / N, (3/2) beta / N]], a 9x9
    rows = [[8 * norm, *(6 * x for x in v)]]
    rows += [[6 * u_i, *(9 * x for x in row)] for u_i, row in zip(u, beta)]
    return Fraction(-_bareiss_det(rows), 4 * (6 * norm) ** 9)


def _haar_states(n: int, count: int):
    return [state_for_index(n, 11, idx) for idx in range(count)]


def _cofactors(m):
    """Signed cofactors C_ij of a 3x3 matrix of Gaussian integers, and its determinant."""
    def cofactor(i, j):
        r0, r1 = (r for r in range(3) if r != i)
        c0, c1 = (c for c in range(3) if c != j)
        a, b = _mul(m[r0][c0], m[r1][c1]), _mul(m[r0][c1], m[r1][c0])
        sign = (-1) ** (i + j)
        return sign * (a[0] - b[0]), sign * (a[1] - b[1])

    cof = [[cofactor(i, j) for j in range(3)] for i in range(3)]
    terms = [_mul(m[0][j], cof[0][j]) for j in range(3)]  # the row-0 Laplace sum
    return cof, (sum(t[0] for t in terms), sum(t[1] for t in terms))


@pytest.mark.parametrize("n", [2, 3])
def test_analyze_agrees_with_the_exact_reference_on_haar_states(n):
    for psi in _haar_states(n, 30):
        exact = exact_minus_det_alpha(psi.amplitudes, n)
        rep = analyze(psi)
        assert abs(rep.alpha_det - float(exact)) <= ALPHA_DET_BOUND
        assert abs(rep.p_e_det - float(exact) ** 0.25) <= P_E_BOUND


@pytest.mark.parametrize("fixture", example_fixtures(), ids=lambda fx: fx.name)
def test_analyze_agrees_with_the_exact_reference_on_the_examples(fixture):
    psi = fixture.state
    exact = exact_minus_det_alpha(psi.amplitudes, psi.dim_a)
    rep = analyze(psi)
    assert abs(rep.alpha_det - float(exact)) <= ALPHA_DET_BOUND
    assert abs(rep.p_e_det - float(exact) ** 0.25) <= P_E_BOUND


@pytest.mark.parametrize("fixture", example_fixtures(), ids=lambda fx: fx.name)
def test_example_degrees_are_the_fourth_root_of_the_exact_reference(fixture):
    # the expected values, derived from the exact -det alpha of the amplitudes
    # the fixture holds rather than by hand; the oblique product reads 1.1e-16
    psi = fixture.state
    exact = exact_minus_det_alpha(psi.amplitudes, psi.dim_a)
    assert abs(fixture.expected_pe - float(exact) ** 0.25) <= P_E_BOUND


def test_qubit_reference_is_the_concurrence_to_the_fourth_exactly():
    # the paper's identity: -det alpha = C^4 = 16 |ad - bc|^4 / ||psi||^8
    for state in _haar_states(2, 10):
        amps = state.amplitudes
        psi = _gaussian(amps)
        a, b, c, d = psi
        ad, bc = _mul(a, d), _mul(b, c)
        conc2 = _abs2((ad[0] - bc[0], ad[1] - bc[1]))
        norm = sum(_abs2(z) for z in psi)
        assert exact_minus_det_alpha(amps, 2) == Fraction(16 * conc2**2, norm**4)


def test_qutrit_reference_is_the_cofactor_closed_form_exactly():
    # -det alpha = (3^7 / 2) e3^2 (e2 + 9 e3), with e2 = sum |C_ij(M)|^2 / ||psi||^4
    # and e3 = |det M|^2 / ||psi||^6 for the amplitude matrix M
    for state in _haar_states(3, 10):
        amps = state.amplitudes
        psi = _gaussian(amps)
        norm = sum(_abs2(z) for z in psi)
        cof, det = _cofactors([psi[0:3], psi[3:6], psi[6:9]])
        e2 = Fraction(sum(_abs2(x) for row in cof for x in row), norm**2)
        e3 = Fraction(_abs2(det), norm**3)
        assert exact_minus_det_alpha(amps, 3) == Fraction(3**7, 2) * e3**2 * (e2 + 9 * e3)


def test_the_reference_reads_known_states():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert exact_minus_det_alpha(bell, 2) == 1
    assert exact_minus_det_alpha(np.array([0.5, 0.5, 0.5, 0.5]), 2) == 0
    assert exact_minus_det_alpha(np.eye(9)[0] * 3.0, 3) == 0
    assert exact_minus_det_alpha(np.eye(3).ravel() * 0.25, 3) == 1


# Boundary families M = U diag(w) V^T with Haar U and V: near product at both
# dims and near Schmidt rank 2 at dim 3, where Haar draws almost never land
EPSILONS = (1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 0.0)
FAMILIES = {
    "qubit-1-eps": (2, lambda eps: (1.0, eps)),
    "qutrit-1-eps-half-eps": (3, lambda eps: (1.0, eps, eps / 2)),
    "qutrit-1-0.7-eps": (3, lambda eps: (1.0, 0.7, eps)),
}

# The qubit residuals of verify hold DEFAULT_TOL wherever P_E is at least
# this. Below it the fourth root amplifies the input's norm defect,
# ||psi||^2 - 1 ~ 1e-16: on the qubit family the worst residual, always
# oracle_det_vs_schmidt, reads 2.1e-10 at P_E = 2e-6 and 2.4e-9 at 2e-7.
P_E_RESOLUTION = 1e-6


def _haar_unitaries(rng, n: int, count: int) -> np.ndarray:
    z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _family_rows(n: int, weights, count: int, seed: int) -> np.ndarray:
    """Unit amplitude rows of count states U diag(weights) V^T, seeded."""
    rng = np.random.default_rng(seed)
    u, v = _haar_unitaries(rng, n, count), _haar_unitaries(rng, n, count)
    m = (u * np.asarray(weights)[None, None, :]) @ v.transpose(0, 2, 1)
    return ensemble._unit_rows(m.reshape(count, n * n))


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_families_pass_every_gate_and_hold_the_residuals(family):
    n, weights = FAMILIES[family]
    for seed, eps in enumerate(EPSILONS):
        psi = _family_rows(n, weights(eps), 100, seed)
        residuals, p_e = ensemble._chunk_values(n, psi)  # raises at a failed gate
        # at dim 3 every residual holds all the way down to eps = 0
        resolved = p_e >= P_E_RESOLUTION if n == 2 else np.full(len(p_e), True)
        for key, values in residuals.items():
            assert values[resolved].max(initial=0.0) <= DEFAULT_TOL, (eps, key)
        for row in psi[:5]:
            exact = exact_minus_det_alpha(row, n)
            assert abs(analyze(StateVector(n, n, row)).alpha_det - float(exact)) <= ALPHA_DET_BOUND


# Measured over 10^4 Haar states of seed 11: 1 - |u|^2 = 3 e2 to 1.2e-15,
# |u| = |v| to 3.3e-16 and the sum of beta^2 to 1.2e-14; the bounds leave
# about 4x room
IDENTITY_BOUNDS = {"one_minus_u_sq": 5e-15, "u_eq_v": 2e-15, "beta_sq_sum": 5e-14}


def test_qutrit_oracle_agrees_with_the_kernel_and_its_identities_on_haar_states():
    # 10^4 states of seed 11: the oracle's -det alpha reads 6.1e-16 from the
    # kernel's at worst, its fourth root 3.3e-16 from the kernel's P_E
    worst = dict.fromkeys(["alpha_det", "p_e", *IDENTITY_BOUNDS], 0.0)
    for _, psi in ensemble._chunks(3, 11, 0, 10_000):
        oracle = measure._qutrit_oracle(psi)
        s = measure._analyze_stack(psi, 3)
        un2, vn2 = (s.u * s.u).sum(axis=1), (s.v * s.v).sum(axis=1)
        gaps = {
            "alpha_det": oracle.minus_det_alpha - s.alpha_det,
            "p_e": oracle.minus_det_alpha ** 0.25 - s.p_e,
            "one_minus_u_sq": 1.0 - un2 - 3.0 * oracle.e2,
            "u_eq_v": s.u_norm - s.v_norm,
            "beta_sq_sum": (s.beta * s.beta).sum(axis=(1, 2)) - (8.0 - 2.0 * un2 - 2.0 * vn2),
        }
        for key, gap in gaps.items():
            worst[key] = max(worst[key], float(np.abs(gap).max()))
    assert worst["alpha_det"] <= ALPHA_DET_BOUND
    assert worst["p_e"] <= P_E_BOUND
    for key, bound in IDENTITY_BOUNDS.items():
        assert worst[key] <= bound, key


def test_qutrit_oracle_agrees_with_the_exact_reference():
    states = _haar_states(3, 30)
    oracle = measure._qutrit_oracle(np.array([psi.amplitudes for psi in states]))
    for psi, value in zip(states, oracle.minus_det_alpha):
        assert abs(value - float(exact_minus_det_alpha(psi.amplitudes, 3))) <= ALPHA_DET_BOUND


def test_qutrit_oracle_holds_down_to_schmidt_rank_2():
    # U diag(1, 0.7, eps) V^T: the fourth roots agree to 1.1e-16 down to eps = 0
    for seed, eps in enumerate(EPSILONS):
        psi = _family_rows(3, (1.0, 0.7, eps), 100, seed)
        oracle = measure._qutrit_oracle(psi)
        p_e = measure._analyze_stack(psi, 3).p_e
        assert np.abs(oracle.minus_det_alpha ** 0.25 - p_e).max() <= P_E_BOUND, eps
        for row, value in zip(psi[:5], oracle.minus_det_alpha):
            assert abs(value - float(exact_minus_det_alpha(row, 3))) <= ALPHA_DET_BOUND, eps


def _concurrence_bits_hold(psi: np.ndarray):
    conc = measure._analyze_stack(psi, 2).concurrence
    expected = [concurrence_pure(StateVector(2, 2, row)) for row in psi]
    assert [x.hex() for x in conc.tolist()] == [float(x).hex() for x in expected]


@pytest.mark.parametrize("seed", range(5))
def test_array_concurrence_is_concurrence_pure_bit_for_bit_on_haar_states(seed):
    # 10^5 states over the five seeds
    _concurrence_bits_hold(ensemble._haar_rows(2, seed, 0, 20_000))


def test_array_concurrence_is_concurrence_pure_bit_for_bit_near_product():
    n, weights = FAMILIES["qubit-1-eps"]
    for seed, eps in enumerate(EPSILONS):
        _concurrence_bits_hold(_family_rows(n, weights(eps), 1000, seed))
