"""Byte-level output contract: sha256 of CLI stdout on a fixed golden set.

The set covers ``verify`` on a grid of (dim, seed, samples), ``analyze`` in
both formats on the built-in fixtures, and the ``examples`` table.

The digests in ``golden.json`` were recorded from the per-state reference
implementation of ``verify`` (one ``analyze`` call per sample) with numpy
2.4 on x86-64 with AVX-512; the last bits of a residual can depend on
numpy's build and the CPU. Any change to the sweep or to ``analyze`` must
reproduce every byte. To record the digests afresh from the ``entdeg`` on
the import path:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from entdeg import cli
from entdeg.fixtures import example_fixtures

GOLDEN = Path(__file__).with_name("golden.json")

SEEDS = (0, 7, 42, 2**31 - 1)
# 65, 129 and 257 are one past one, two and four of the sweep's 64-sample
# chunks, so the last sample sits alone in a chunk of its own
SAMPLES = (1, 7, 65, 129, 200, 257, 10_000)
WORKER_CASES = tuple(
    (dim, 42, samples, 3) for dim in (2, 3) for samples in (7, 65, 200, 10_000)
)


def verify_cases() -> list[tuple[int, int, int, int]]:
    serial = [(d, s, n, 1) for d in (2, 3) for s in SEEDS for n in SAMPLES]
    return serial + list(WORKER_CASES)


def verify_key(dim: int, seed: int, samples: int, workers: int) -> str:
    return f"verify --dim {dim} --seed {seed} --samples {samples} --workers {workers}"


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def verify_digest(dim: int, seed: int, samples: int, workers: int) -> str:
    return _run(verify_key(dim, seed, samples, workers).split())


def fixture_digest(index: int, directory: Path, fmt: str = "json") -> str:
    """Digest of ``analyze --format fmt`` on built-in fixture ``index``."""
    psi = example_fixtures()[index].state
    path = directory / f"fixture{index}.json"
    payload = {
        "dims": [psi.dim_a, psi.dim_b],
        "amplitudes": [[z.real, z.imag] for z in psi.amplitudes.tolist()],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return _run(["analyze", "--input", str(path), "--format", fmt])


def fixture_key(index: int, fmt: str = "json") -> str:
    return f"analyze --format {fmt}: {example_fixtures()[index].name}"


FORMATS = ("json", "table")


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", verify_cases(), ids=lambda c: "-".join(map(str, c)))
def test_verify_stdout_bytes(golden, case):
    assert verify_digest(*case) == golden[verify_key(*case)]


@pytest.mark.parametrize("index", range(len(example_fixtures())))
def test_analyze_fixture_bytes(golden, tmp_path, index):
    assert fixture_digest(index, tmp_path) == golden[fixture_key(index)]


@pytest.mark.parametrize("index", range(len(example_fixtures())))
def test_analyze_fixture_table_bytes(golden, tmp_path, index):
    assert fixture_digest(index, tmp_path, "table") == golden[fixture_key(index, "table")]


def test_examples_stdout_bytes(golden):
    assert _run(["examples"]) == golden["examples"]


def write_golden() -> None:
    table = {verify_key(*c): verify_digest(*c) for c in verify_cases()}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            for index in range(len(example_fixtures())):
                table[fixture_key(index, fmt)] = fixture_digest(index, Path(tmp), fmt)
    table["examples"] = _run(["examples"])
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
