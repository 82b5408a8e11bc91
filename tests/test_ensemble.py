import threading
import tracemalloc

import numpy as np
import pytest

from entdeg import bloch, cli, ensemble, linalg, measure
from entdeg.bloch import decompose, reconstruct
from entdeg.ensemble import (
    CHUNK,
    DRAW,
    haar_random_pure,
    property_sweep,
    state_for_index,
)
from entdeg.fixtures import example_fixtures
from entdeg.generators import basis_for
from entdeg.hyperbolic import degree_hyperbolic
from entdeg.linalg import det_real
from entdeg.measure import (
    PurityViolation,
    alpha_matrix,
    analyze,
    concurrence_pure,
    degree_det,
    degree_schmidt,
    purity_constraints_report,
    schmidt_coeffs,
)
from entdeg.states import (
    StateVector,
    density_from_state,
    partial_trace,
    purity,
    state_from_amplitudes,
)

QUBIT_KEYS = {
    "roundtrip",
    "alpha_det_negativity",
    "beta_v_eq_u",
    "beta_t_u_eq_v",
    "beta_sq_sum",
    "beta_cofactor",
    "u_eq_v",
    "det_beta_identity",
    "oracle_det_vs_schmidt",
    "oracle_det_vs_concurrence",
    "det_vs_u_norm",
    "det_vs_hyperbolic",
}

QUTRIT_KEYS = {"roundtrip", "alpha_det_negativity"}


def test_haar_deterministic_bit_for_bit():
    a = haar_random_pure(4, np.random.Philox(key=123))
    b = haar_random_pure(4, np.random.Philox(key=123))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = haar_random_pure(4, np.random.Philox(key=124))
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_haar_unit_norm_and_no_warning():
    for dim in (4, 9):
        for k in range(20):
            psi = haar_random_pure(dim, np.random.Philox(key=k))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
            assert not psi.normalization_warning
            assert psi.total_dim == dim


def test_haar_rejects_other_dimensions():
    with pytest.raises(ValueError, match="4 or 9"):
        haar_random_pure(6, np.random.Philox(key=1))


def test_haar_reduced_purity_matches_known_average():
    # E[tr rho_A^2] = (d_a + d_b) / (d_a d_b + 1) = 4/5 for two qubits;
    # Monte-Carlo with 4000 samples concentrates well within 0.01
    total = 0.0
    n = 4000
    for idx in range(n):
        psi = state_for_index(2, 271828, idx)
        rho_a = partial_trace(density_from_state(psi), "A", (2, 2))
        total += purity(rho_a)
    assert total / n == pytest.approx(0.8, abs=0.01)


def test_haar_mean_concurrence_matches_3pi_over_16():
    # E[2|ad - bc|] = 3 pi / 16 for Haar two-qubit states
    amps = ensemble._haar_rows(2, 0, 0, 20000)
    conc = 2 * np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
    stderr = conc.std(ddof=1) / np.sqrt(len(conc))
    assert abs(conc.mean() - 3 * np.pi / 16) <= 5 * stderr


# E tr rho_A^2 = (n + m) / (nm + 1) and E tr rho_A^3 = (n^2 + 3nm + m^2 + 1) /
# ((nm + 1) (nm + 2)) for the induced measure on n x m pure states (Lubkin,
# J. Math. Phys. 19, 1028, 1978). Seed 0 read 0.79986 +- 0.00029 and 0.69979 +-
# 0.00044 at dim 2, 0.60023 +- 0.00022 and 0.41851 +- 0.00031 at dim 3.
PURITY_MOMENTS = {2: (4 / 5, 21 / 30), 3: (6 / 10, 46 / 110)}


@pytest.mark.parametrize("dim", [2, 3])
def test_haar_rows_match_the_purity_moments_of_the_induced_measure(dim):
    samples, step = 200_000, 20_000
    moments = []
    for lo in range(0, samples, step):
        m = ensemble._haar_rows(dim, 0, lo, lo + step).reshape(step, dim, dim)
        rho_a = m @ m.conj().transpose(0, 2, 1)
        sq = rho_a @ rho_a
        moments.append(np.stack([
            np.einsum("nii->n", sq).real, np.einsum("nij,nji->n", sq, rho_a).real,
        ]))
    moments = np.concatenate(moments, axis=1)
    stderr = moments.std(axis=1, ddof=1) / np.sqrt(samples)
    z = (moments.mean(axis=1) - PURITY_MOMENTS[dim]) / stderr
    assert np.all(np.abs(z) <= 4.0), z


def test_haar_qubit_schmidt_gap_follows_x_cubed():
    # Haar qubit pairs have Schmidt weights with density proportional to
    # (l1 - l2)^2 (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001), so the
    # gap x = |l1 - l2| = sqrt(1 - C^2) has the CDF x^3 on [0, 1]
    amps = ensemble._haar_rows(2, 0, 0, 20000)
    conc = 2 * np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
    gap = np.sort(np.sqrt(np.clip(1.0 - conc**2, 0.0, None)))
    n = len(gap)
    cdf = gap**3
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks <= 1.63 / np.sqrt(n)  # the 1% critical value of the KS distance


def test_state_for_index_is_stable():
    one = state_for_index(2, 42, 17)
    two = state_for_index(2, 42, 17)
    assert np.array_equal(one.amplitudes, two.amplitudes)
    assert not np.array_equal(
        one.amplitudes, state_for_index(2, 42, 18).amplitudes
    )
    assert not np.array_equal(
        one.amplitudes, state_for_index(2, 43, 17).amplitudes
    )


def test_sweep_report_keys_per_dim():
    rep2 = property_sweep(25, 2, seed=1)
    rep3 = property_sweep(25, 3, seed=1)
    assert set(rep2.worst_residuals) == QUBIT_KEYS
    assert set(rep3.worst_residuals) == QUTRIT_KEYS
    assert all(v >= 0 for v in rep2.worst_residuals.values())


def test_sweep_deterministic():
    a = property_sweep(200, 2, seed=42)
    b = property_sweep(200, 2, seed=42)
    assert a == b


def test_sweep_worker_count_does_not_change_results(monkeypatch, capsys):
    # --workers is accepted and ignored: the sweep starts no thread
    def refuse(self):
        raise RuntimeError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for dim, samples, seed in ((2, 151, 9), (3, 60, 11)):
        runs = []
        for workers in ("1", "4", "100000"):
            argv = ["verify", "--dim", str(dim), "--samples", str(samples),
                    "--seed", str(seed), "--workers", workers]
            runs.append((cli.main(argv), capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == 0


def scalar_route(psi):
    """Report fields and sweep residuals of one state from the public helpers.

    Independent of ``analyze``, which shares its kernel with the sweep.
    """
    basis = basis_for(psi.dim_a)
    rho = density_from_state(psi)
    bf = decompose(rho, basis)
    alpha = alpha_matrix(bf)
    p_e = degree_det(alpha)
    fields = {
        "local_dim": psi.dim_a,
        "p_e_det": p_e,
        "p_e_schmidt": None,
        "concurrence": None,
        "kappa": None,
        "u": tuple(bf.u),
        "v": tuple(bf.v),
        "u_norm": float(np.linalg.norm(bf.u)),
        "v_norm": float(np.linalg.norm(bf.v)),
        "purity": purity(rho),
        "alpha_det": -det_real(alpha),
        "constraint_residuals": None,
        "normalization_warning": psi.normalization_warning,
        "oracle_checked": psi.dim_a == 2,
    }
    residuals = {
        "roundtrip": float(np.abs(reconstruct(bf, basis) - rho).max()),
        "alpha_det_negativity": max(0.0, -fields["alpha_det"]),
    }
    if psi.dim_a == 2:
        fields["kappa"] = schmidt_coeffs(psi)
        fields["p_e_schmidt"] = degree_schmidt(fields["kappa"])
        fields["concurrence"] = concurrence_pure(psi)
        fields["constraint_residuals"] = purity_constraints_report(bf)
        residuals.update(fields["constraint_residuals"])
        residuals["oracle_det_vs_schmidt"] = abs(p_e - fields["p_e_schmidt"])
        residuals["oracle_det_vs_concurrence"] = abs(p_e - fields["concurrence"])
        from_u = np.sqrt(max(0.0, 1.0 - fields["u_norm"] ** 2))
        residuals["det_vs_u_norm"] = abs(p_e - from_u)
        residuals["det_vs_hyperbolic"] = abs(p_e - degree_hyperbolic(bf.u))
    return fields, residuals


def bits(value):
    """``value`` with every float as its hex string, so -0.0 and NaN compare exactly."""
    if isinstance(value, dict):
        return {key: bits(val) for key, val in value.items()}
    if isinstance(value, tuple):
        return tuple(bits(val) for val in value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def assert_report_holds(rep, fields):
    assert {name: bits(getattr(rep, name)) for name in fields} == bits(fields)


@pytest.mark.parametrize("dim, seed", [(2, 5), (3, 17)])
def test_chunk_values_equal_scalar_route_bit_for_bit(dim, seed):
    # 300 samples from an unaligned start, cut into chunks the way the sweep
    # cuts them, so chunk boundaries fall inside the range
    lo, hi = CHUNK[dim] // 2, CHUNK[dim] // 2 + 300
    parts = [ensemble._chunk_values(dim, psi) for _, psi in ensemble._chunks(dim, seed, lo, hi)]
    p_e = np.concatenate([part[1] for part in parts])
    keys = QUBIT_KEYS if dim == 2 else QUTRIT_KEYS
    assert all(set(part[0]) == keys for part in parts)
    kernel = {key: np.concatenate([part[0][key] for part in parts]) for key in keys}

    states = [state_for_index(dim, seed, idx) for idx in range(lo, hi)]
    expected = [scalar_route(psi) for psi in states]
    expected_p_e = [fields["p_e_det"] for fields, _ in expected]
    assert np.array_equal(p_e, expected_p_e)
    for key in keys:
        assert np.array_equal(kernel[key], [res[key] for _, res in expected]), key

    # with the chunks of [0, lo), parts covers [0, hi): the sweep over [0, hi)
    # reports exactly the extremes of those chunk values
    parts += [ensemble._chunk_values(dim, psi) for _, psi in ensemble._chunks(dim, seed, 0, lo)]
    rep = property_sweep(hi, dim, seed)
    assert rep.worst_residuals == {
        key: max(float(part[0][key].max()) for part in parts) for key in keys
    }
    all_p_e = np.concatenate([part[1] for part in parts])
    assert (rep.p_e_min, rep.p_e_max) == (all_p_e.min(), all_p_e.max())

    # analyze is the same kernel at a stack of one: its report matches too
    for psi, (fields, _) in zip(states, expected):
        assert_report_holds(analyze(psi), fields)


@pytest.mark.parametrize("fixture", example_fixtures(), ids=lambda fx: fx.name)
def test_analyze_report_equals_public_helpers_on_fixtures(fixture):
    assert_report_holds(analyze(fixture.state), scalar_route(fixture.state)[0])


def test_scalar_route_reads_a_subnormal_amplitude_quietly():
    # LU of this state's beta divides by a subnormal pivot: det_real, like the
    # kernel's det, reports what det returns without a warning
    psi = state_from_amplitudes([0, 1e-320j, 1, 0], 2, 2)
    fields, expected = scalar_route(psi)
    assert_report_holds(analyze(psi), fields)
    residuals, p_e = ensemble._chunk_values(2, psi.amplitudes[None])
    assert bits(float(p_e[0])) == bits(fields["p_e_det"])
    assert bits({key: float(val[0]) for key, val in residuals.items()}) == bits(expected)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("idx", [0, 1, 2**32, 2**63, 2**64 - 1])
def test_reused_generator_matches_fresh_philox(dim, idx):
    # a range holding idx that is longer than one draw and ends in a partial
    # chunk, so the sweep's cuts fall inside it
    words = 2 * dim * dim
    span = DRAW + CHUNK[dim] + 3
    lo = min(max(idx - 1, 0), 2**64 - span)
    indices = range(lo, lo + span)
    assert idx in indices
    # seeds with the key's high word zero, small, and all ones
    for seed in (99, 2**64 + 3, 2**128 - 1):
        rows = ensemble._raw_words(seed, lo, lo + span, words)
        parts = list(ensemble._chunks(dim, seed, lo, lo + span))
        assert [start for start, _ in parts] == [
            lo + at for at in list(range(0, DRAW, CHUNK[dim])) + [DRAW, DRAW + CHUNK[dim]]
        ]
        amps = np.concatenate([psi for _, psi in parts])
        for row, index in enumerate(indices):
            counter = np.array([0, 0, 0, index], dtype=np.uint64)
            fresh = np.random.Philox(key=seed, counter=counter).random_raw(words)
            assert np.array_equal(rows[row], fresh), (seed, index)
            expected = state_for_index(dim, seed, index).amplitudes
            assert np.array_equal(amps[row], expected), (seed, index)


@pytest.mark.parametrize("words", [5, 8, 18])
def test_raw_words_equal_fresh_philox_at_the_key_and_counter_edges(words):
    # round 0 is taken in Python ints from the key words and the index alone
    for seed in (0, 5, 2**64 - 1, 2**64 + 7, 2**128 - 1):
        for lo in (0, 2**32 - 2, 2**63 - 1, 2**64 - 4):
            rows = ensemble._raw_words(seed, lo, lo + 4, words)
            for row, index in enumerate(range(lo, lo + 4)):
                counter = np.array([0, 0, 0, index], dtype=np.uint64)
                fresh = np.random.Philox(key=seed, counter=counter).random_raw(words)
                assert np.array_equal(rows[row], fresh), (seed, index)


@pytest.mark.parametrize("dim", [2, 3])
def test_only_the_qubit_stack_keeps_rho_for_the_round_trip(dim):
    psi = ensemble._haar_rows(dim, 4, 0, CHUNK[dim])
    rho = measure._analyze_stack(psi, dim).rho
    if dim == 3:
        assert rho is None  # released before the projection
    else:
        assert np.array_equal(rho, measure._density_stack(psi))


@pytest.mark.parametrize("seed", [3, 29, 2**64 + 5])
def test_qutrit_report_bytes_do_not_depend_on_the_chunk(monkeypatch, seed):
    # each row of the kernel is independent of how many rows share its stack
    for samples in (1, 99, 100, 101, 200, 513):
        reports = []
        for chunk in (64, CHUNK[3]):
            monkeypatch.setitem(ensemble.CHUNK, 3, chunk)
            reports.append(cli.emit_json(property_sweep(samples, 3, seed)))
        assert reports[0] == reports[1], samples


def test_a_200_sample_qutrit_sweep_runs_two_stacks(monkeypatch):
    real_stack = ensemble._analyze_stack
    rows = []

    def counted(psi, n):
        rows.append(len(psi))
        return real_stack(psi, n)

    monkeypatch.setattr(ensemble, "_analyze_stack", counted)
    property_sweep(200, 3, seed=1)
    assert rows == [100, 100]


def test_nan_sample_fails_the_sweep(monkeypatch):
    real_chunk = ensemble._chunk_values
    calls = []

    def poisoned(local_dim, psi):
        residuals, p_e = real_chunk(local_dim, psi)
        if not calls:  # sample 70 sits in the first chunk
            residuals["roundtrip"][70] = np.nan
            p_e[70] = np.nan
        calls.append(len(psi))
        return residuals, p_e

    monkeypatch.setattr(ensemble, "_chunk_values", poisoned)
    rep = property_sweep(3 * CHUNK[2], 2, seed=3)
    assert calls == [CHUNK[2]] * 3
    assert np.isnan(rep.worst_residuals["roundtrip"])
    assert np.isnan(rep.p_e_min) and np.isnan(rep.p_e_max)
    assert not rep.passed


def test_nan_determinant_fails_the_qutrit_sweep(monkeypatch):
    # at dim 3 P_E enters no residual: the determinant's negativity must keep NaN
    real_stack = ensemble._analyze_stack

    def poisoned(psi, n):
        s = real_stack(psi, n)
        s.alpha_det[5] = np.nan
        s.p_e[5] = np.nan
        return s

    monkeypatch.setattr(ensemble, "_analyze_stack", poisoned)
    rep = property_sweep(20, 3, seed=4)
    assert np.isnan(rep.worst_residuals["alpha_det_negativity"])
    assert np.isnan(rep.p_e_min)
    assert not rep.passed


# Every gate of analyze in analyze's order: the constant that trips it on
# seed 21, and the exception the first failing sample raises. The messages
# were recorded from the per-state route that analyze and the sweep replaced.
ORDERED_GATES = [
    ("PURITY_GATE_TOL", -1.0, PurityViolation, "purity gate failed: tr(rho^2) = 1.0"),
    (
        "IMAG_RESIDUE_TOL",
        -1.0,
        ValueError,
        "imaginary residue 6.245e-17 in the projection traces, input is not Hermitian",
    ),
    (
        "LOCAL_NORM_SLACK",
        -1.0,
        ValueError,
        "|u| = 0.5749433074323275 exceeds 1, rho is not a qubit state",
    ),
    (
        "DET_CLAMP_WINDOW",
        -1.0,
        PurityViolation,
        "determinant sign inconsistent with purity: -det(alpha) = 4.482e-01",
    ),
    (
        "HERMITICITY_TOL",
        -1.0,
        ValueError,
        "matrix is not Hermitian: max |h - h^dagger| = 5.551e-17",
    ),
    (
        "SCHMIDT_SUM_TOL",
        -1.0,
        ArithmeticError,
        "reduced eigenvalues sum to 0.9999999999999998, expected 1",
    ),
    # trips only on the samples whose two routes differ in the last bit
    (
        "ORACLE_CONSISTENCY_TOL",
        0.0,
        PurityViolation,
        "determinant route gives 0.5067460225301119, sqrt(1 - |u|^2) gives 0.506746022530112",
    ),
]
# 1 + slack is |u| of sample 1, whose |v| is one ulp larger
V_BOUND = (
    "LOCAL_NORM_SLACK",
    -0.13790460582954556,
    ValueError,
    "|v| = 0.8620953941704546 exceeds 1, rho is not a qubit state",
)


def owner(gate):
    """The module that reads the gate's constant."""
    if gate == "HERMITICITY_TOL":
        return linalg
    return bloch if gate in ("IMAG_RESIDUE_TOL", "LOCAL_NORM_SLACK") else measure


@pytest.mark.parametrize(
    "patched",
    # a gate and every later one trip together: the earliest one must raise
    [ORDERED_GATES[k:] for k in range(len(ORDERED_GATES))] + [[V_BOUND]],
    ids=lambda patched: f"{patched[0][0]}-{patched[0][1]}",
)
def test_gate_failure_raises_like_analyze_on_the_lowest_index(monkeypatch, patched):
    for gate, value, _, _ in patched:
        monkeypatch.setattr(owner(gate), gate, value)
    _, _, error, message = patched[0]
    for idx in range(3 * CHUNK[2]):
        try:
            analyze(state_for_index(2, 21, idx))
        except (ArithmeticError, ValueError) as exc:
            assert type(exc) is error
            assert str(exc) == message
            break
    else:
        pytest.fail("no sample failed the patched gate")

    # the sweep raises from its own stack: it neither redraws the sample nor
    # runs analyze on it
    def unreachable(*args):
        raise AssertionError("the sweep must not call this")

    monkeypatch.setattr(ensemble, "state_for_index", unreachable)
    monkeypatch.setattr(ensemble, "analyze", unreachable)
    with pytest.raises(error) as caught:
        property_sweep(3 * CHUNK[2], 2, seed=21)
    assert caught.type is error
    assert str(caught.value) == message


@pytest.mark.parametrize("gate", ["IMAG_RESIDUE_TOL", "LOCAL_NORM_SLACK"])
def test_decompose_and_analyze_read_one_bloch_bound(monkeypatch, gate):
    monkeypatch.setattr(bloch, gate, -1.0)
    psi = state_for_index(2, 21, 0)
    with pytest.raises(ValueError) as from_decompose:
        decompose(density_from_state(psi), basis_for(2))
    with pytest.raises(ValueError) as from_analyze:
        analyze(psi)
    assert str(from_decompose.value) == str(from_analyze.value)
    assert ("imaginary residue" if gate == "IMAG_RESIDUE_TOL" else "|u| = ") in str(
        from_analyze.value
    )


def test_non_finite_state_raises_naming_the_entry():
    amps = np.array([1, 0, 0, 0, 1, 0, 0, 0, np.nan], dtype=complex)
    with pytest.raises(ValueError, match=r"^rho\[0, 8\] = \(nan\+nanj\) is not finite$"):
        analyze(StateVector(3, 3, amps))


def traced_peak(work):
    """Peak bytes of numpy and Python allocations while ``work()`` runs."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("dim", [2, 3])
def test_chunk_working_set_stays_small(dim):
    # a qutrit chunk of the dense Kronecker route peaked at about 500 KiB of
    # numpy allocations; a larger working set shows up as peak RSS in verify
    def chunk(seed):
        ensemble._chunk_values(dim, ensemble._haar_rows(dim, seed, 0, CHUNK[dim]))

    chunk(1)  # term tables and first-use costs
    assert traced_peak(lambda: chunk(2)) <= 640 * 1024
    # one draw block's temporaries stay within the same bound
    assert traced_peak(lambda: ensemble._haar_rows(dim, 2, 0, DRAW)) <= 640 * 1024


def test_sweep_single_sample_passes():
    for seed in (0, 1, 2, 3):
        rep = property_sweep(1, 2, seed=seed, tol=1e-10)
        assert rep.passed, rep.worst_residuals


def test_sweep_qubit_ensemble_passes_theorem_tolerance():
    rep = property_sweep(500, 2, seed=42, tol=1e-10)
    assert rep.passed
    assert rep.worst_residuals["oracle_det_vs_schmidt"] <= 1e-10
    assert rep.worst_residuals["oracle_det_vs_concurrence"] <= 1e-10
    assert 0.0 <= rep.p_e_min <= rep.p_e_max <= 1.0 + 1e-9


def test_sweep_qutrit_roundtrip():
    rep = property_sweep(1000, 3, seed=7)
    assert rep.worst_residuals["roundtrip"] <= 1e-11
    assert rep.passed


def test_sweep_pass_flag_reflects_tolerance():
    rep = property_sweep(50, 2, seed=13, tol=1e-30)
    assert not rep.passed
    relaxed = property_sweep(50, 2, seed=13, tol=1e-9)
    assert relaxed.passed


def test_sweep_argument_validation():
    with pytest.raises(ValueError, match="at least 1"):
        property_sweep(0, 2, seed=1)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*128\), got {seed}$"):
            property_sweep(10, 2, seed=seed)
    # Philox would truncate 1.5 to 1 and True to 1, while the report named the seed given
    for seed in (1.5, True, 2.0):
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
            property_sweep(10, 2, seed=seed)
    assert property_sweep(1, 2, seed=np.int64(3)) == property_sweep(1, 2, seed=3)
    with pytest.raises(ValueError, match="local dimension"):
        property_sweep(10, 4, seed=1)
    for tol in (float("nan"), float("inf"), float("-inf"), -1.0):
        with pytest.raises(ValueError, match=rf"^tol must be finite and at least 0, got {tol}$"):
            property_sweep(10, 2, seed=1, tol=tol)
    assert property_sweep(1, 2, seed=1, tol=0.0).tol == 0.0


def test_sweep_tol_is_a_float_and_not_a_bool():
    # True once swept at a tolerance of 1 and reported "tol": true
    for tol in (True, False, np.True_):
        with pytest.raises(ValueError) as caught:
            property_sweep(1, 2, seed=1, tol=tol)
        assert str(caught.value) == f"tol must be a number, got {tol!r}"
    # the report holds the float the CLI passes, so the JSON bytes agree
    cli_report = cli.emit_json(property_sweep(3, 2, 1, tol=0.0))
    assert type(property_sweep(3, 2, 1, tol=0).tol) is float
    assert cli.emit_json(property_sweep(3, 2, 1, tol=0)) == cli_report
    # a numpy float32 once reached the report as itself, which emit_json rejects
    rep = property_sweep(3, 2, 1, tol=np.float32(1e-9))
    assert type(rep.tol) is float and rep.tol == float(np.float32(1e-9))
    assert cli.emit_json(rep) == cli.emit_json(property_sweep(3, 2, 1, tol=rep.tol))


# each argument of the draw, a value that is not an integer or is out of range,
# and the message it raises; True and 2.0 equal integers but are not counts
BAD_DRAW_ARGUMENTS = [
    (property_sweep, (3, 2.0, 1), "local dimension must be an integer, got 2.0"),
    (property_sweep, (2.5, 2, 1), "samples must be an integer, got 2.5"),
    (property_sweep, (True, 2, 1), "samples must be an integer, got True"),
    # samples is checked first, so the fractional seed is never reached
    (property_sweep, (2**64 + 1, 2, 1.5), "samples must be at least 1 and at most 2**64, got "
     f"{2**64 + 1}"),
    (state_for_index, (2, 1.5, 0), "seed must be an integer, got 1.5"),
    (state_for_index, (2, 1, 1.5), "index must be an integer, got 1.5"),
    (state_for_index, (2, True, 0), "seed must be an integer, got True"),
    (state_for_index, (2.0, 1, 0), "local dimension must be an integer, got 2.0"),
    (state_for_index, (2, 1, -1), "index must be in [0, 2**64), got -1"),
    (state_for_index, (2, 1, 2**64), f"index must be in [0, 2**64), got {2**64}"),
    (state_for_index, (2, 2**128, 0), f"seed must be in [0, 2**128), got {2**128}"),
    (state_for_index, (4, 1, 0), "local dimension must be 2 or 3, got 4"),
    (haar_random_pure, (4.0, None), "total dimension must be an integer, got 4.0"),
    (haar_random_pure, (16, None), "total dimension must be 4 or 9, got 16"),
]


@pytest.mark.parametrize(
    "function, args, message",
    BAD_DRAW_ARGUMENTS,
    ids=[f"{f.__name__}-{k}" for k, (f, _, _) in enumerate(BAD_DRAW_ARGUMENTS)],
)
def test_draw_arguments_must_be_integers_in_range(function, args, message):
    with pytest.raises(ValueError) as caught:
        function(*args)
    assert str(caught.value) == message


def test_numpy_integer_arguments_draw_and_report_as_python_ints():
    assert np.array_equal(
        state_for_index(np.int64(3), np.uint64(5), np.uint64(2**40)).amplitudes,
        state_for_index(3, 5, 2**40).amplitudes,
    )
    assert state_for_index(2, 1, 2**64 - 1).dim_a == 2  # the last counter word
    amps = [0.3, 0.4j, 0.5, 0.1]
    psi = state_from_amplitudes(amps, np.int64(2), np.int64(2))
    assert type(psi.dim_a) is int and type(psi.dim_b) is int
    plain = state_from_amplitudes(amps, 2, 2)
    assert cli.emit_json(analyze(psi)) == cli.emit_json(analyze(plain))
    rep = property_sweep(np.int64(3), np.int64(2), np.int64(1))
    assert all(type(x) is int for x in (rep.samples, rep.local_dim, rep.seed))
    assert cli.emit_json(rep) == cli.emit_json(property_sweep(3, 2, 1))



def test_finite_state_whose_purity_overflows_raises_the_purity_gate():
    # rho's entries are finite, tr(rho^2) overflows: the finite gate passes it
    amps = np.full(9, 1e80, dtype=complex)
    with pytest.raises(PurityViolation, match=r"^purity gate failed: tr\(rho\^2\) = inf$"):
        analyze(StateVector(3, 3, amps))


def test_state_whose_rho_overflows_raises_naming_the_entry():
    amps = np.full(4, 1e200, dtype=complex)
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"^rho\[0, 0\] = \(inf\+0j\) is not finite$"
    ):
        analyze(StateVector(2, 2, amps))
