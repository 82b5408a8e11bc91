"""Tests of the benchmark itself, on a tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import spans
from harness import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_RUNS", 2)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    result = harness.run_workload(workload, seed=5, seconds=0.01, trace=trace)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_run_prints_result_line():
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-qutrit", "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout


def _corrupt(argv, out):
    if "--workers" in argv and argv[argv.index("--workers") + 1] == "2":
        return out + " "  # --workers 2 bytes no longer match --workers 1
    return out.replace('"normalization_warning": false', '"normalization_warning": true')


@pytest.mark.parametrize("workload", ["verify-qubit", "analyze-mixed"])
def test_corrupted_output_is_counted(workload):
    def corrupting_call(argv):
        rc, out = harness.cli_call(argv)
        return rc, _corrupt(argv, out)

    result = harness.run_workload(workload, seed=5, seconds=0.01, trace=False,
                                  call=corrupting_call)
    assert 0 < result["failed"] <= result["attempted"]
    assert result["errors"]


def test_digest_mismatch_is_counted(monkeypatch):
    monkeypatch.setitem(harness.EXPECTED_DIGESTS, "verify-qutrit", "0" * 64)
    result = harness.run_workload("verify-qutrit", seed=5, seconds=0.01, trace=False)
    assert result["failed"] == 1
    assert "digest" in result["errors"][0]


def test_traced_run_restores_every_binding():
    import entdeg
    from entdeg import cli, ensemble, linalg, measure

    before = {(m.__name__, a): v for m in spans._entdeg_modules() for a, v in vars(m).items()}
    harness.run_workload("verify-qubit", seed=5, seconds=0.01, trace=True)
    assert ensemble.analyze is measure.analyze
    assert cli.analyze is measure.analyze
    assert entdeg.analyze is measure.analyze
    assert measure.det_real is linalg.det_real
    after = {(m.__name__, a): v for m in spans._entdeg_modules() for a, v in vars(m).items()}
    assert all(after[key] is val for key, val in before.items())
    assert spans.leftover_wrappers() == []


def test_tracer_restores_bindings_when_the_run_raises():
    from entdeg import ensemble, measure

    original = measure.analyze
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert ensemble.analyze is not original
            raise RuntimeError
    assert ensemble.analyze is original and measure.analyze is original
    assert spans.leftover_wrappers() == []


def test_self_time_subtracts_merged_child_intervals():
    tracer = spans.Tracer()
    tracer.ops = [(2, 1)]
    # span 0 covers [0, 10]; children on two threads overlap on [2, 5]
    tracer.spans = [(0, 0.0, 10.0, -1, 0, 0), (1, 1.0, 5.0, 0, 1, 0),
                    (1, 2.0, 6.0, 0, 2, 0), (2, 3.0, 4.0, 1, 3, 0)]
    assert tracer.self_times() == [5.0, 3.0, 4.0, 1.0]
