"""Workloads of the entdeg benchmark: seeded inputs, timed loops, checks.

Each workload is a single-process closed loop with one caller: the next
``entdeg.cli.main`` call starts only after the previous one returned. The
library sees only the inputs generated here from the workload seed.

    verify-qubit   ``verify --dim 2`` calls, alternating --workers 1 and 2
    verify-qutrit  the same at --dim 3
    analyze-mixed  ``analyze --input FILE --format json|table`` calls over a
                   generated set of (2,2) and (3,3) state files

Run as a script, this module is the workload child process that ``run.py``
starts: it runs one workload and prints one JSON object.
"""

from __future__ import annotations

import argparse
from array import array
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from spans import Tracer, leftover_wrappers  # noqa: E402

WORKLOADS = ("verify-qubit", "verify-qutrit", "analyze-mixed")
DEFAULT_SEED = 42
# Samples per verify call: small enough that a run holds over a hundred
# --workers 1 calls, so op_p50_ms is a median over many calls and a burst of
# host load touches few of them; large enough that per-state work outweighs
# argument parsing and JSON output in states_per_s.
VERIFY_SAMPLES = 200
# Files per local dimension in analyze-mixed. The composition is fixed, so a
# seed changes the states but not the mix of work.
FILES_PER_DIM = 120
SPECIALS_PER_DIM = 8
P_E_TOL = 1e-10
# Share of --seconds that a traced run spends untraced; the traced pass then
# replays the same operations.
TRACE_UNTRACED_SHARE = 1 / 3
# Fresh-interpreter set-ups per untraced run. They are started one at a time
# at even steps through the timed loop, which waits for each, so that their
# median sees the same drift in host speed as the loop's throughput does.
SETUP_RUNS = 20

# time.monotonic() is CLOCK_MONOTONIC, shared by every process on the host,
# so the parent's start stamp and the child's stamp are comparable
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import entdeg
dim = int(sys.argv[3])
amps = [complex(re, im) for re, im in json.loads(sys.argv[2])]
entdeg.analyze(entdeg.state_from_amplitudes(amps, dim, dim))
print(time.monotonic())
"""

# sha256 of the stdout bytes at DEFAULT_SEED, the byte-level output contract:
# one ``verify --samples VERIFY_SAMPLES --seed 42 --workers 1`` call, or every
# output over the DEFAULT_SEED file set of analyze-mixed, in order.
EXPECTED_DIGESTS = {
    "verify-qubit": "6d2203d312a0e521cd63391d294e67c959b0cd3047cf88096c25f66b03f7fd75",
    "verify-qutrit": "678d52c8fdf1255d4303c1e7eaac57aee66cff0239ac9cd200426ef51aa79a70",
    "analyze-mixed": "5a4f0ecb2926fcceb766d535cd3a20910dfe39e7d7a22c59d7c17eb73c6685fc",
}


@dataclass
class Op:
    """One ``cli.main`` call, the states it covers and what it must report."""

    argv: list[str]
    states: int
    workers: int = 1
    expect: dict = field(default_factory=dict)


@dataclass
class Tally:
    """Wall time and worker count of each operation run, and the failures.

    Kept in flat arrays, so that the benchmark's own bookkeeping adds little
    to the peak memory it reports.
    """

    walls: array = field(default_factory=lambda: array("d"))
    workers: array = field(default_factory=lambda: array("b"))
    errors: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)

    def add(self, op: Op, wall: float, error: str | None) -> None:
        self.walls.append(wall)
        self.workers.append(op.workers)
        if error:
            self.errors.append(error)

    def walls_at(self, workers: int) -> list[float]:
        return [w for w, k in zip(self.walls, self.workers) if k == workers]


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``entdeg.cli.main`` in-process; return (exit code, stdout)."""
    from entdeg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
            cpu = models[0] if models else cpu
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def unit_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    """A Haar-random unit vector in C^size."""
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


def setup_input(name: str, seed: int) -> tuple[list[list[float]], int]:
    """The state of the set-up measurement: Haar-random at the workload's dim."""
    dim = 3 if name == "verify-qutrit" else 2
    amps = unit_vector(np.random.default_rng(seed), dim * dim)
    return [[float(a.real), float(a.imag)] for a in amps], dim


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first ``analyze``."""
    amps, dim = setup_input(workload, seed)
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(amps), str(dim)]
    start = time.monotonic()
    child = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(child.stdout.split()[-1]) - start


class VerifyWorkload:
    """Pairs of verify calls on one seed, at --workers 1 then --workers 2."""

    def __init__(self, name: str, dim: int, seed: int):
        self.name, self.dim, self.seed = name, dim, seed
        self.rng = np.random.default_rng(seed)
        self._w1_out: dict[int, str] = {}

    def _op(self, seed: int, workers: int) -> Op:
        argv = ["verify", "--dim", str(self.dim), "--samples", str(VERIFY_SAMPLES),
                "--seed", str(seed), "--workers", str(workers)]
        return Op(argv, VERIFY_SAMPLES, workers, {"seed": seed})

    def probe_ops(self) -> list[Op]:
        return [self._op(DEFAULT_SEED, 1)]

    def groups(self):
        while True:
            seed = int(self.rng.integers(0, 2**31))
            yield (self._op(seed, 1), self._op(seed, 2))

    def check(self, op: Op, rc: int, out: str) -> str | None:
        seed = op.expect["seed"]
        if rc != 0:
            return f"verify seed {seed}: exit code {rc}"
        try:
            rep = json.loads(out)
        except ValueError:
            return f"verify seed {seed}: output is not JSON"
        if rep.get("passed") is not True:
            return f"verify seed {seed}: passed is not true"
        if (rep.get("samples"), rep.get("local_dim"), rep.get("seed")) != (
            VERIFY_SAMPLES, self.dim, seed,
        ):
            return f"verify seed {seed}: report echoes other parameters"
        if op.workers == 1:
            self._w1_out[seed] = out
        elif self._w1_out.pop(seed, None) != out:
            return f"verify seed {seed}: --workers 2 bytes differ from --workers 1"
        return None


def _mixed_specs(rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """(dim, raw amplitudes) of the analyze-mixed file set, shuffled."""
    specs = []
    for dim in (2, 3):
        n = dim * dim
        maximal = np.zeros(n, dtype=complex)
        maximal[[k * dim + k for k in range(dim)]] = 1.0 / math.sqrt(dim)
        singlet = np.zeros(n, dtype=complex)  # Schmidt rank 2 at either dim
        singlet[[1, dim]] = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
        basis = np.zeros(n, dtype=complex)
        basis[n - 1] = 1.0
        specials = [maximal, singlet, basis, 2.5 * maximal]
        while len(specials) < SPECIALS_PER_DIM:
            specials.append(np.kron(unit_vector(rng, dim), unit_vector(rng, dim)))
        specs += [(dim, amps) for amps in specials]
        for k in range(FILES_PER_DIM - SPECIALS_PER_DIM):
            amps = unit_vector(rng, n)
            if k % 2:  # off-norm input, so normalization_warning fires
                amps = amps * (rng.uniform(0.3, 0.9) if k % 4 == 1 else rng.uniform(1.1, 3.0))
            specs.append((dim, amps))
    return [specs[i] for i in rng.permutation(len(specs))]


def write_state_files(seed: int, directory: Path) -> list[tuple[Path, dict]]:
    """Write the file set of ``seed``; return (path, expected fields) pairs."""
    files = []
    for i, (dim, amps) in enumerate(_mixed_specs(np.random.default_rng(seed))):
        pairs = [[float(a.real), float(a.imag)] for a in amps]
        path = directory / f"state-{seed}-{i:03d}.json"
        path.write_text(json.dumps({"dims": [dim, dim], "amplitudes": pairs}))
        # expectations from the amplitudes exactly as the file holds them
        z = [complex(re, im) for re, im in pairs]
        norm2 = sum(abs(c) ** 2 for c in z)
        expect = {"dim": dim, "warn": abs(math.sqrt(norm2) - 1.0) > 1e-6}
        if dim == 2:
            expect["p_e"] = 2.0 * abs(z[0] * z[3] - z[1] * z[2]) / norm2
        files.append((path, expect))
    return files


def _table_fields(out: str) -> dict[str, str]:
    return {k: v.strip() for k, _, v in (ln.partition(" ") for ln in out.splitlines())}


_YES_NO = {"yes": True, "no": False}


class AnalyzeWorkload:
    """analyze calls cycling over a state-file set, formats alternating."""

    def __init__(self, name: str, seed: int, directory: Path):
        self.name, self.seed = name, seed
        self.files = write_state_files(seed, directory)
        self.default_files = (
            self.files if seed == DEFAULT_SEED else write_state_files(DEFAULT_SEED, directory)
        )

    @staticmethod
    def _op(k: int, path: Path, expect: dict) -> Op:
        fmt = ("json", "table")[k % 2]
        return Op(["analyze", "--input", str(path), "--format", fmt], 1, 1, expect)

    def probe_ops(self) -> list[Op]:
        return [self._op(k, path, exp) for k, (path, exp) in enumerate(self.default_files)]

    def groups(self):
        n = len(self.files)
        # the format shifts every pass, so each file is read in both
        return itertools.cycle(
            [(self._op(k + k // n, *self.files[k % n]),) for k in range(2 * n)]
        )

    def check(self, op: Op, rc: int, out: str) -> str | None:
        name, fmt, exp = Path(op.argv[2]).name, op.argv[-1], op.expect
        if rc != 0:
            return f"{name}: exit code {rc}"
        try:
            if fmt == "json":
                rep = json.loads(out)
                p_e, checked, warn = (
                    rep["p_e_det"], rep["oracle_checked"], rep["normalization_warning"]
                )
            else:
                fields = _table_fields(out)
                p_e = float(fields["p_e_det"])
                checked = _YES_NO[fields["oracle_checked"]]
                warn = _YES_NO[fields["normalization_warning"]]
        except (ValueError, KeyError, TypeError):
            return f"{name}: unreadable {fmt} output"
        if warn is not exp["warn"]:
            return f"{name}: normalization_warning {warn}, expected {exp['warn']}"
        if exp["dim"] == 3:
            return None if checked is False else f"{name}: qutrit report has oracle_checked"
        if checked is not True:
            return f"{name}: qubit report lacks oracle_checked"
        if not abs(p_e - exp["p_e"]) <= P_E_TOL:
            return f"{name}: p_e_det {p_e!r} but 2|ad - bc| = {exp['p_e']!r}"
        return None


def make_workload(name: str, seed: int, directory: Path):
    if name == "verify-qubit":
        return VerifyWorkload(name, 2, seed)
    if name == "verify-qutrit":
        return VerifyWorkload(name, 3, seed)
    if name == "analyze-mixed":
        return AnalyzeWorkload(name, seed, directory)
    raise ValueError(f"unknown workload {name!r}")


def run_op(workload, op: Op, call, tracer: Tracer | None = None):
    """Run one operation; return its wall time, its error or None, its stdout."""
    span = tracer.operation(op.workers, op.states) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            rc, out = call(op.argv)
    except Exception as exc:  # the operation boundary: count it, keep measuring
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", ""
    wall = time.perf_counter() - start
    return wall, workload.check(op, rc, out), out


def run_probe(workload, call, tracer: Tracer | None = None) -> Tally:
    """Run the DEFAULT_SEED operations untimed and check their output digest."""
    digest = hashlib.sha256()
    tally = Tally()
    for op in workload.probe_ops():
        wall, error, out = run_op(workload, op, call, tracer)
        digest.update(out.encode())
        tally.add(op, wall, error)
    want = EXPECTED_DIGESTS[workload.name]
    if digest.hexdigest() != want and not tally.errors:
        tally.errors.append(f"DEFAULT_SEED output digest {digest.hexdigest()}, expected {want}")
    return tally


def timed_loop(workload, seconds: float, call, replay=None, tracer=None, setups=0):
    """Run operation groups for ``seconds`` of loop time, or replay given groups.

    Between groups it times ``setups`` fresh-interpreter set-ups, one each
    time the loop time passes the next of ``setups`` even steps; their wall
    time does not count as loop time. Returns the tally and the groups that
    ran, so that a traced pass can repeat exactly the operations of an
    untraced one.
    """
    tally, played = Tally(), []
    start, paused = time.perf_counter(), 0.0
    for group in workload.groups() if replay is None else replay:
        for op in group:
            wall, error, _ = run_op(workload, op, call, tracer)
            tally.add(op, wall, error)
        played.append(group)
        elapsed = time.perf_counter() - start - paused
        while len(tally.setups) < setups and elapsed >= seconds * len(tally.setups) / setups:
            pause = time.perf_counter()
            tally.setups.append(setup_seconds(workload.name, workload.seed))
            paused += time.perf_counter() - pause
        if replay is None and elapsed >= seconds:
            break
    return tally, played


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<26}{value:>14.6g} {unit:<6} {note}"


def end_to_end(workload, tally: Tally) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one untraced loop, and their report lines."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(workload, VerifyWorkload):
        walls, w2 = tally.walls_at(1), tally.walls_at(2)
        per_s = VERIFY_SAMPLES * len(walls) / sum(walls)
        calls = f"(n={len(walls)} calls of {VERIFY_SAMPLES} samples, --workers 1)"
        lines = [
            _line("states_per_s", per_s, "1/s", calls + " [verify_states_per_s]"),
            _line("op_p50_ms", statistics.median(walls) * 1e3, "ms", calls),
            _line("verify_w2_states_per_s", VERIFY_SAMPLES * len(w2) / sum(w2), "1/s",
                  f"(n={len(w2)} calls of {VERIFY_SAMPLES} samples, --workers 2)"),
        ]
    else:
        walls = list(tally.walls)
        per_s = len(walls) / sum(walls)
        calls = f"(n={len(walls)} analyze calls)"
        lines = [
            _line("states_per_s", per_s, "1/s", calls + " [analyze_calls_per_s]"),
            _line("op_p50_ms", statistics.median(walls) * 1e3, "ms", calls + " [analyze_p50_ms]"),
            _line("analyze_p99_ms", percentile(walls, 99) * 1e3, "ms", calls),
        ]
    lines.append(_line("peak_rss_mb", rss_mb, "MB", "(workload process)"))
    setup_s = statistics.median(tally.setups)
    lines.insert(0, _line("setup_s", setup_s, "s",
                          f"(median of n={len(tally.setups)} fresh interpreters)"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "states_per_s": (per_s, "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, call=cli_call) -> dict:
    """Run one workload in this process; return metrics, counts and report lines."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = make_workload(name, seed, Path(tmp))
        if not trace:
            probe = run_probe(workload, call)
            timed, _ = timed_loop(workload, seconds, call, setups=SETUP_RUNS)
            metrics, lines = end_to_end(workload, timed)
            tallies = [probe, timed]
        else:
            tracer = Tracer()
            with tracer:  # the probe is the process's first work: it pays set-up
                probe = run_probe(workload, call, tracer)
            untraced, played = timed_loop(workload, seconds * TRACE_UNTRACED_SHARE, call)
            with tracer:
                traced, _ = timed_loop(workload, 0, call, replay=played, tracer=tracer)
            tallies = [probe, untraced, traced]
            metrics, lines = tracer.layer_metrics()
            ratio = sum(traced.walls) / sum(untraced.walls)
            metrics["trace_overhead_ratio"] = (ratio, "ratio")
            lines.append(f"  trace_overhead_ratio {ratio:.3f} "
                         f"(traced / untraced wall over the same {len(traced.walls)} operations)")
            leftover = leftover_wrappers()
            if leftover:
                traced.errors.append(f"tracing wrappers left in place: {leftover}")
            header = {"workload": name, "seed": seed, **machine_info()}
            tracer.dump(OUT_DIR / f"spans-{name}.json", header)
    errors = [e for t in tallies for e in t.errors]
    return {
        "attempted": sum(len(t.walls) for t in tallies),
        "failed": len(errors),
        "errors": errors[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one entdeg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
