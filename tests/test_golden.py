"""Byte-level output contract: sha256 of CLI stdout on a fixed golden set.

The set covers ``verify`` on a grid of (dim, seed, samples), ``analyze`` in
both formats on the built-in fixtures, and the ``examples`` table.

The digests in ``golden.json`` were recorded from the per-state reference
implementation of ``verify`` (one ``analyze`` call per sample) with numpy
2.4 on x86-64 with AVX-512. Any change to the sweep or to ``analyze`` must
reproduce every byte. The bytes hold on the dispatch they were recorded
under, which ``golden.json`` keeps under the key ``"dispatch"``: numpy's
``np.log``, ``np.cosh`` and ``np.arctanh`` follow its SIMD target, and the
stacked ``@`` and ``np.linalg.det`` follow OpenBLAS's core, so another CPU or
build can move the last bits of the draw and of a residual. A mismatch names
the recorded and the current dispatch. To record the digests and the
dispatch afresh from the ``entdeg`` on the import path:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
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


def _openblas_core() -> str:
    """The core OpenBLAS picked for this CPU, from the library numpy ships."""
    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def dispatch() -> dict:
    """What the last bits of the digests depend on: numpy's version and SIMD
    dispatch, and the OpenBLAS core."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_features": [name for name, on in umath.__cpu_features__.items() if on],
        "openblas_core": _openblas_core(),
    }


def check_digest(golden: dict, key: str, digest: str) -> None:
    """Fail unless ``digest`` is the one recorded for ``key``, naming both dispatches."""
    assert digest == golden[key], (
        f"{key}: sha256 {digest}, recorded {golden[key]}\n"
        f"recorded under {golden.get('dispatch', 'an unrecorded dispatch')}\n"
        f"running under {dispatch()}"
    )


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", verify_cases(), ids=lambda c: "-".join(map(str, c)))
def test_verify_stdout_bytes(golden, case):
    check_digest(golden, verify_key(*case), verify_digest(*case))


@pytest.mark.parametrize("index", range(len(example_fixtures())))
def test_analyze_fixture_bytes(golden, tmp_path, index):
    check_digest(golden, fixture_key(index), fixture_digest(index, tmp_path))


@pytest.mark.parametrize("index", range(len(example_fixtures())))
def test_analyze_fixture_table_bytes(golden, tmp_path, index):
    check_digest(golden, fixture_key(index, "table"), fixture_digest(index, tmp_path, "table"))


def test_examples_stdout_bytes(golden):
    check_digest(golden, "examples", _run(["examples"]))


def test_the_golden_set_records_its_dispatch(golden):
    assert golden["dispatch"].keys() == dispatch().keys()
    assert golden["dispatch"]["openblas_core"]


def test_a_mismatch_names_the_recorded_and_the_current_dispatch():
    recorded = {**dispatch(), "openblas_core": "Haswell"}
    golden = {"examples": "0" * 64, "dispatch": recorded}
    with pytest.raises(AssertionError) as caught:
        check_digest(golden, "examples", "f" * 64)
    text = str(caught.value)
    assert text.startswith(f"examples: sha256 {'f' * 64}, recorded {'0' * 64}\n")
    assert f"recorded under {recorded}\n" in text
    assert f"running under {dispatch()}" in text
    check_digest(golden, "examples", "0" * 64)


def write_golden() -> None:
    table = {verify_key(*c): verify_digest(*c) for c in verify_cases()}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            for index in range(len(example_fixtures())):
                table[fixture_key(index, fmt)] = fixture_digest(index, Path(tmp), fmt)
    table["examples"] = _run(["examples"])
    table["dispatch"] = dispatch()
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
