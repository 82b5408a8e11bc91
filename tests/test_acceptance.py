"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
details). Criteria 3 and 4 share one seeded 10^4-sample sweep.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from entdeg.bloch import decompose, reconstruct
from entdeg.ensemble import property_sweep, state_for_index
from entdeg.generators import basis_for, gellmann_set, pauli_set
from entdeg.hyperbolic import boost_density_residual
from entdeg.measure import analyze
from entdeg.states import density_from_state, state_from_amplitudes

S3 = 1 / np.sqrt(3)

SWEEP_SAMPLES = 10_000
SWEEP_SEED = 42


@pytest.fixture(scope="module")
def qubit_sweep():
    start = time.perf_counter()
    report = property_sweep(SWEEP_SAMPLES, 2, seed=SWEEP_SEED, tol=1e-9)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_fixture_regression():
    fixtures = [
        ("three-term", state_from_amplitudes([S3, S3, 0, S3], 2, 2), 2 / 3),
        ("weighted", state_from_amplitudes([1 / 3, 2 / 3, 0, 2 / 3], 2, 2), 4 / 9),
        ("Bell", state_from_amplitudes([1, 0, 0, 1], 2, 2), 1.0),
        ("product |u|=|v|=1", state_from_amplitudes([0.5, 0.5, 0.5, 0.5], 2, 2), 0.0),
        ("qutrit maximal", state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1], 3, 3), 1.0),
    ]
    start = time.perf_counter()
    worst = 0.0
    for name, psi, expected in fixtures:
        dev = abs(analyze(psi).p_e_det - expected)
        assert dev <= 1e-12, f"{name}: deviation {dev:.3e}"
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture regression took {elapsed:.2f} s"
    print(f"criterion 1 PASS: worst fixture deviation {worst:.3e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_intermediate_values():
    three_term = density_from_state(state_from_amplitudes([S3, S3, 0, S3], 2, 2))
    bf = decompose(three_term, pauli_set())
    alpha_scaled = np.empty((4, 4))
    alpha_scaled[0, 0] = 3.0
    alpha_scaled[0, 1:] = 3 * bf.v
    alpha_scaled[1:, 0] = 3 * bf.u
    alpha_scaled[1:, 1:] = 3 * bf.beta
    expected = np.array(
        [[3, 2, 0, -1], [2, 2, 0, -2], [0, 0, -2, 0], [1, 2, 0, 1]], dtype=float
    )
    dev_alpha = np.abs(alpha_scaled - expected).max()
    assert dev_alpha <= 1e-15

    printed = {
        "three-term": ([S3, S3, 0, S3], [2 / 3, 0, 1 / 3], [2 / 3, 0, -1 / 3]),
        "weighted": ([1 / 3, 2 / 3, 0, 2 / 3], [8 / 9, 0, 1 / 9], [4 / 9, 0, -7 / 9]),
        "Bell": ([1, 0, 0, 1], [0, 0, 0], [0, 0, 0]),
    }
    dev_uv = 0.0
    for amps, u_ref, v_ref in printed.values():
        form = decompose(density_from_state(state_from_amplitudes(amps, 2, 2)), pauli_set())
        dev_uv = max(dev_uv, np.abs(form.u - u_ref).max(), np.abs(form.v - v_ref).max())
    assert dev_uv <= 1e-15

    qutrit = density_from_state(
        state_from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1], 3, 3)
    )
    beta = decompose(qutrit, gellmann_set()).beta
    pattern = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    dev_beta = np.abs(beta - pattern).max()
    assert dev_beta <= 1e-15
    print(
        "criterion 2 PASS: alpha dev "
        f"{dev_alpha:.3e}, u/v dev {dev_uv:.3e}, qutrit beta dev {dev_beta:.3e}"
    )


def test_criterion_3_oracle_sweep(qubit_sweep):
    report, elapsed = qubit_sweep
    schmidt = report.worst_residuals["oracle_det_vs_schmidt"]
    conc = report.worst_residuals["oracle_det_vs_concurrence"]
    assert report.samples == SWEEP_SAMPLES
    assert schmidt <= 1e-10
    assert conc <= 1e-10
    assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"
    print(
        f"criterion 3 PASS: schmidt {schmidt:.3e}, concurrence {conc:.3e}, "
        f"{elapsed:.2f} s for {SWEEP_SAMPLES} samples"
    )


def test_criterion_4_identity_sweep(qubit_sweep):
    report, _ = qubit_sweep
    identity_keys = (
        "beta_v_eq_u",
        "beta_t_u_eq_v",
        "beta_sq_sum",
        "beta_cofactor",
        "u_eq_v",
        "det_beta_identity",
    )
    for key in identity_keys:
        assert report.worst_residuals[key] <= 1e-10, key
    assert report.worst_residuals["alpha_det_negativity"] <= 1e-10
    worst = max(report.worst_residuals[k] for k in identity_keys)
    print(
        f"criterion 4 PASS: worst identity residual {worst:.3e}, "
        f"det negativity {report.worst_residuals['alpha_det_negativity']:.3e}"
    )


def test_criterion_5_roundtrip():
    worst = {2: 0.0, 3: 0.0}
    for dim in (2, 3):
        basis = basis_for(dim)
        for idx in range(1000):
            rho = density_from_state(state_for_index(dim, 1000 + dim, idx))
            gap = np.abs(reconstruct(decompose(rho, basis), basis) - rho).max()
            worst[dim] = max(worst[dim], gap)
        assert worst[dim] <= 1e-12, f"dim {dim}: {worst[dim]:.3e}"
    print(f"criterion 5 PASS: roundtrip dev {worst[2]:.3e} (N=2), {worst[3]:.3e} (N=3)")


def test_criterion_6_hyperbolic(qubit_sweep):
    rng = np.random.default_rng(606)
    worst_boost = 0.0
    for _ in range(10_000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        u = direction * rng.uniform(0.0, 1.0 - 1e-6)
        worst_boost = max(worst_boost, boost_density_residual(u))
    assert worst_boost <= 1e-12

    report, _ = qubit_sweep
    gap = report.worst_residuals["det_vs_hyperbolic"]
    assert gap <= 1e-10
    print(f"criterion 6 PASS: boost residual {worst_boost:.3e}, det gap {gap:.3e}")


def test_criterion_7_verify_determinism(tmp_path):
    args = ["verify", "--samples", "400", "--dim", "2", "--seed", "42"]

    # run the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["entdeg"].__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(extra):
        proc = subprocess.run(
            [sys.executable, "-m", "entdeg", *args, *extra],
            capture_output=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = run(["--workers", "1"])
    second = run(["--workers", "1"])
    fanned = run(["--workers", "4"])
    assert first == second
    assert first == fanned
    payload = json.loads(first.decode())
    assert payload["passed"] is True
    print(f"criterion 7 PASS: {len(first)} byte report identical across runs and workers")
