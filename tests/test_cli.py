import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entdeg import cli, ensemble
from entdeg.ensemble import SweepReport, property_sweep, state_for_index
from entdeg.fixtures import example_fixtures
from entdeg.measure import PurityViolation, analyze
from entdeg.states import state_from_amplitudes

S3 = 1 / np.sqrt(3)


def write_state(tmp_path, name, dims, amps):
    payload = {"dims": list(dims), "amplitudes": [[z.real, z.imag] for z in amps]}
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def three_term_file(tmp_path):
    return write_state(tmp_path, "three_term.json", (2, 2), [S3, S3, 0j, S3])


@pytest.fixture
def bell_file(tmp_path):
    r = complex(np.sqrt(0.5))
    return write_state(tmp_path, "bell.json", (2, 2), [r, 0j, 0j, r])


def test_round15_idempotent():
    values = [2 / 3, 1e-300, 123456.789101112, -0.1, 1.0, 0.0, 5e-324]
    for x in values:
        once = cli.round15(x)
        assert cli.round15(once) == once


def test_analyze_json_fifteen_digits(three_term_file, capsys):
    assert cli.main(["analyze", "--input", three_term_file, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"p_e_det": 0.666666666666667' in out
    data = json.loads(out)
    assert data["local_dim"] == 2
    assert data["concurrence"] == pytest.approx(2 / 3)


def test_analyze_json_roundtrip_byte_identical(three_term_file, capsys):
    cli.main(["analyze", "--input", three_term_file, "--format", "json"])
    first = capsys.readouterr().out.rstrip("\n")
    assert cli.emit_json(json.loads(first)) == first


def reference_json(obj) -> str:
    """The bytes emit_json stands for: json.dumps over the round15-ed values,
    with NaN and +-inf as null, which strict JSON has in place of their numbers."""

    def jsonable(x):
        if isinstance(x, float):
            return cli.round15(x) if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: jsonable(val) for key, val in x.items()}
        if isinstance(x, (list, tuple)):
            return [jsonable(val) for val in x]
        if dataclasses.is_dataclass(x):
            return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return x

    return json.dumps(jsonable(obj), indent=2, sort_keys=True)


def _emitted_reports():
    for fx in example_fixtures():
        yield analyze(fx.state)
    for dim in (2, 3):
        for index in range(60):
            psi = state_for_index(dim, 5, index)
            yield analyze(psi)
            # off-norm input, down to scales where the squares underflow
            scale = (0.5, 3.0, 1e-200, 1e200)[index % 4]
            yield analyze(state_from_amplitudes(psi.amplitudes * scale, dim, dim))
        for samples in (1, 7, 65):
            yield property_sweep(samples, dim, seed=samples)


# the floats where %.15g and repr spell a value differently, and their neighbours
EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -2.0, 100.0, 1e14, 1e15,
    -1e15, 999999999999999.9, 1e16, 1.5e16, 1e-4, 1e-5, 1.25e-5, 123456789.0,
    0.1 + 0.2, 2 / 3, 1e300, 1e-300, 2.2250738585072014e-308,
    2.2250738585072009e-308, 1e-310, 5e-324, -5e-324,
)


def _synthetic_reports():
    qubit = analyze(state_for_index(2, 1, 0))
    rng = np.random.default_rng(15)
    # every sign, exponent and mantissa shape a double can take
    patterns = rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64)
    yield dataclasses.replace(qubit, u=EDGE_FLOATS, v=tuple(patterns.tolist()))
    for x in EDGE_FLOATS:
        yield dataclasses.replace(
            qubit, p_e_det=x, kappa=(x, -x), alpha_det=x,
            constraint_residuals={**qubit.constraint_residuals, "u_eq_v": x},
        )
    yield dataclasses.replace(qubit, u=(), v=[], kappa=None, constraint_residuals={})
    yield SweepReport(samples=0, local_dim=2, seed=0, tol=0.0, worst_residuals={},
                      p_e_min=math.inf, p_e_max=-math.inf, passed=True)
    yield {"nested": [[], {}, [1, [2.5, None]], {"b": True, "a": False}], "empty": ""}


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_emit_json_writes_non_finite_floats_as_null():
    assert [cli.emit_json(x) for x in (math.nan, math.inf, -math.inf)] == ["null"] * 3


def test_emit_json_matches_json_dumps_reference():
    count = 0
    for obj in [*_emitted_reports(), *_synthetic_reports()]:
        text = cli.emit_json(obj)
        assert text == reference_json(obj)
        # parsed back strictly, the dict emits the same bytes
        assert cli.emit_json(json.loads(text, parse_constant=_reject_constant)) == text
        count += 1
    assert count == 6 + 2 * (120 + 3) + 1 + len(EDGE_FLOATS) + 3


def test_emit_json_rejects_what_json_cannot_encode():
    for obj in (np.float32(1.5), {"a": object()}, b"x"):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli.emit_json(obj)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(obj)


def test_analyze_bell(bell_file, capsys):
    assert cli.main(["analyze", "--input", bell_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p_e_det"] == 1.0
    assert data["p_e_schmidt"] == 1.0


def test_analyze_table_output(three_term_file, capsys):
    assert cli.main(["analyze", "--input", three_term_file]) == 0
    out = capsys.readouterr().out
    assert "p_e_det" in out
    assert "0.666666666666667" in out
    assert "constraint_residuals" in out


def test_analyze_qutrit_state(tmp_path, capsys):
    path = write_state(
        tmp_path, "qutrit.json", (3, 3), [S3, 0j, 0j, 0j, S3, 0j, 0j, 0j, S3]
    )
    assert cli.main(["analyze", "--input", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p_e_det"] == 1.0
    assert data["p_e_schmidt"] is None
    assert data["oracle_checked"] is False


def test_analyze_wrong_amplitude_count(tmp_path, capsys):
    path = write_state(tmp_path, "bad.json", (2, 2), [1 + 0j, 0j, 0j])
    assert cli.main(["analyze", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_field(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text('{"dims": [2, 2]}', encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert "amplitudes" in capsys.readouterr().err


def test_analyze_unparseable_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{dims: nope", encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path)]) == 2


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_syntax_error_position_is_the_same_for_every_newline(tmp_path, capsys, newline):
    path = tmp_path / "broken.json"
    lines = ['{"dims": [2, 2],', '"amplitudes": [[1, 0], x]}']
    path.write_bytes(newline.join(lines).encode("utf-8"))
    assert cli.main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2 column 24 (char 40)" in captured.err


@pytest.mark.parametrize(
    "text",
    ["[" * 200000, '{"dims": [2, 2], "amplitudes": ' + "[" * 5000 + "]" * 5000 + "}"],
    ids=["open-brackets", "deep-amplitudes"],
)
def test_analyze_rejects_a_file_that_nests_too_deeply(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"state file {path} nests too deeply to parse" in captured.err


def test_analyze_nonexistent_file(tmp_path, capsys):
    assert cli.main(["analyze", "--input", str(tmp_path / "none.json")]) == 2


def test_analyze_zero_state(tmp_path, capsys):
    path = write_state(tmp_path, "zero.json", (2, 2), [0j, 0j, 0j, 0j])
    assert cli.main(["analyze", "--input", path]) == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_analyze_rejects_non_finite_amplitudes(tmp_path, capsys, token):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        f'{{"dims": [2, 2], "amplitudes": [[{token}, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}}',
        encoding="utf-8",
    )
    assert cli.main(["analyze", "--input", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


DBL_MAX = float(np.finfo(float).max)


@pytest.mark.parametrize(
    "scale",
    [
        1e-200,
        1e-160,
        1e200,
        # parts whose modulus passes DBL_MAX: once scaled to a zero state
        pytest.param(complex(1.28e308, 1.28e308), id="1.28e308+1.28e308j"),
        pytest.param(complex(DBL_MAX, DBL_MAX), id="max+maxj"),
    ],
)
def test_analyze_bell_pair_at_extreme_scale(tmp_path, capsys, scale):
    # once rejected as zero, failed the purity gate, or overflowed; the report
    # is the one of the same state scaled by a power of two to parts below 1,
    # at either dim
    z = complex(scale)
    unit = z * 2.0 ** -math.frexp(max(abs(z.real), abs(z.imag)))[1]
    for n in (2, 3):
        reports = []
        for name, z in (("scaled", scale), ("unit", unit)):
            amps = [z if i % (n + 1) == 0 else 0j for i in range(n * n)]
            path = write_state(tmp_path, f"{name}.json", (n, n), amps)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["analyze", "--input", path, "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        data = json.loads(reports[0])
        assert data["p_e_det"] == 1.0
        assert data["normalization_warning"] is True


@pytest.mark.parametrize("dims", [[2.7, 2], [2, 2.0], [True, 2], ["2", 2], [2]])
def test_analyze_rejects_non_integer_dims(tmp_path, capsys, dims):
    path = tmp_path / "dims.json"
    amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path.write_text(json.dumps({"dims": dims, "amplitudes": amps}), encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    pair = "two integers" if len(dims) == 2 else "a pair of local dimensions"
    assert f"'dims' must be {pair}" in captured.err


@pytest.mark.parametrize(
    "amplitudes",
    [
        # two-character strings once unpacked into a Bell pair
        ["10", "00", "00", "10"],
        [["1", "0"], [False, False], [0, 0], [1, 0]],
        [[True, 0], [0, 0], [0, 0], [1, 0]],
        [[1, 0, 0], [0, 0], [0, 0], [1, 0]],
        [[1], [0, 0], [0, 0], [1, 0]],
        [[1, None], [0, 0], [0, 0], [1, 0]],
        [1, 0, 0, 1],
        {"10": 0, "00": 1, "01": 2, "11": 3},
        # a 401-digit integer, which float() cannot hold
        [[10**400, 0], [0, 0], [0, 0], [1, 0]],
    ],
)
def test_analyze_rejects_non_numeric_amplitudes(tmp_path, capsys, amplitudes):
    path = tmp_path / "amps.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amplitudes}), encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'amplitudes'" in captured.err


def test_analyze_accepts_integer_amplitude_parts(tmp_path, capsys):
    path = tmp_path / "ints.json"
    amps = [[1, 0], [0, 0], [0, 0], [1, 0]]
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}), encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["p_e_det"] == 1.0


# The inputs of the analyze contract: dims valid and not, lengths off by one,
# and parts drawn from every finite float (subnormals, +-0 and values near
# DBL_MAX among them) or integers past the float range
PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1.28e308, -1.28e308, DBL_MAX, -DBL_MAX]),
    st.integers(min_value=-(2**1100), max_value=2**1100),
)
# the valid pairs twice, so that about half the files reach the kernel
DIMS = st.sampled_from(
    [[2, 2], [3, 3], [2, 2], [3, 3], [2, 3], [1, 1], [4, 4], [2.0, 2], [True, 2], ["3", 3], [2]]
)
# a report field is null only where the dimension has no such value
QUTRIT_NULLS = {"p_e_schmidt", "concurrence", "kappa", "constraint_residuals"}


@st.composite
def state_files(draw):
    dims = draw(DIMS)
    size = draw(st.sampled_from([4, 9])) if len(dims) != 2 else abs(int(dims[0]) * int(dims[1]))
    length = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    parts = st.lists(PARTS, min_size=2, max_size=2)
    return {"dims": dims, "amplitudes": draw(st.lists(parts, min_size=length, max_size=length))}


def _leaves(value, key=None):
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, name)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, key)
    else:
        yield key, value


@example({"dims": [2, 2], "amplitudes": [[0, 0], [0, 0], [0, 0], [1.27e308, 1.27e308]]})
@example({"dims": [2, 2], "amplitudes": [[0, 0], [0, 0], [0, 0], [1.28e308, 1.28e308]]})
@example({"dims": [2, 2], "amplitudes": [[0, 0], [0, 1e-320], [1, 0], [0, 0]]})
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state_files())
def test_analyze_contract_holds_on_generated_state_files(tmp_path_factory, payload):
    # exit 0 with a finite report and a clean stderr, or exit 2 or 3 with one
    # error line and nothing on stdout; no warning either way
    path = tmp_path_factory.mktemp("contract") / "state.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["analyze", "--input", str(path), "--format", "json"])
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        nulls = QUTRIT_NULLS if report["local_dim"] == 3 else set()
        for key, leaf in _leaves(report):
            if leaf is None:
                assert key in nulls, key
            elif not isinstance(leaf, (bool, str)):
                assert math.isfinite(leaf), key
        assert 0.0 <= report["p_e_det"] <= 1.0 + 1e-9
    else:
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_purity_violation_maps_to_exit_3(three_term_file, monkeypatch, capsys):
    def boom(psi):
        raise PurityViolation("determinant sign inconsistent with purity")

    monkeypatch.setattr(cli, "analyze", boom)
    assert cli.main(["analyze", "--input", three_term_file]) == 3
    assert "inconsistent with purity" in capsys.readouterr().err


def test_verify_small_run_passes(capsys):
    code = cli.main(["verify", "--samples", "200", "--dim", "2", "--seed", "42"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["samples"] == 200
    assert set(data["worst_residuals"]) >= {"roundtrip", "oracle_det_vs_schmidt"}


def test_verify_qutrit_run(capsys):
    assert cli.main(["verify", "--samples", "50", "--dim", "3", "--seed", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["local_dim"] == 3
    assert data["worst_residuals"]["roundtrip"] <= 1e-11


def test_verify_impossible_tolerance_fails(capsys):
    code = cli.main(["verify", "--samples", "20", "--seed", "3", "--tol", "1e-30"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_rejects_dim_5():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--dim", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_fewer_than_one_worker(capsys, workers):
    assert cli.main(["verify", "--samples", "5", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be at least 1" in captured.err


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_verify_rejects_seed_outside_the_philox_key_range(capsys, seed):
    assert cli.main(["verify", "--samples", "5", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"seed must be in [0, 2**128), got {seed}" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_verify_rejects_a_tol_not_finite_or_below_0(capsys, tol):
    assert cli.main(["verify", "--samples", "5", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tol must be finite and at least 0, got {float(tol)}" in captured.err


def test_failing_verify_prints_strict_json(monkeypatch, capsys):
    real_stack = ensemble._analyze_stack

    def poisoned(psi, n):
        s = real_stack(psi, n)
        s.alpha_det[5] = math.nan
        s.p_e[5] = math.nan
        return s

    monkeypatch.setattr(ensemble, "_analyze_stack", poisoned)
    assert cli.main(["verify", "--dim", "3", "--samples", "20"]) == 1
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["passed"] is False
    assert data["p_e_min"] is None and data["p_e_max"] is None
    assert data["worst_residuals"]["alpha_det_negativity"] is None


def test_verify_accepts_the_largest_seed(capsys):
    assert cli.main(["verify", "--samples", "5", "--seed", str(2**128 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**128 - 1


def test_verify_output_worker_independent(capsys):
    cli.main(["verify", "--samples", "120", "--seed", "8"])
    one = capsys.readouterr().out
    cli.main(["verify", "--samples", "120", "--seed", "8", "--workers", "3"])
    three = capsys.readouterr().out
    assert one == three


def test_examples_command(capsys):
    assert cli.main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "three-term superposition" in out
    assert "Bell pair" in out
    assert "qutrit maximal superposition" in out
    assert out.count("\n") == 8  # header + six fixtures + summary line


def test_examples_fails_on_a_nan_deviation(monkeypatch, capsys):
    # the worst deviation must keep a NaN row, which the builtin max drops
    fixtures = example_fixtures()

    def nan_for_first(psi):
        rep = analyze(psi)
        return dataclasses.replace(rep, p_e_det=math.nan) if psi is fixtures[0].state else rep

    monkeypatch.setattr(cli, "example_fixtures", lambda: fixtures)
    monkeypatch.setattr(cli, "analyze", nan_for_first)
    assert cli.main(["examples"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("worst deviation nan")


def test_examples_deterministic(capsys):
    cli.main(["examples"])
    first = capsys.readouterr().out
    cli.main(["examples"])
    assert capsys.readouterr().out == first


def test_repeated_main_calls_repeat_their_first_output(tmp_path, capsys):
    # one process, mixed order, one shared parser: every call prints and
    # returns what its first run did
    qubit = write_state(tmp_path, "qubit.json", (2, 2), [S3, S3, 0j, S3])
    qutrit = write_state(
        tmp_path, "qutrit.json", (3, 3), [S3, 0j, 0j, 0j, S3, 0j, 0j, 0j, S3]
    )
    calls = [
        (["analyze", "--input", qubit, "--format", "json"], 0),
        (["verify", "--samples", "30", "--dim", "3", "--seed", "4"], 0),
        (["analyze", "--input", qutrit, "--format", "table"], 0),
        (["verify", "--dim", "5"], 2),
        (["analyze", "--input", qutrit, "--format", "json"], 0),
        (["examples"], 0),
        (["analyze", "--input", str(tmp_path / "none.json")], 2),
        (["verify", "--samples", "30", "--dim", "2", "--seed", "4"], 0),
        (["analyze", "--input", qubit, "--format", "table"], 0),
    ]
    first = {}
    for argv, code in calls + calls[1::2] + calls[::-2] + calls[:1]:
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code
        assert first.setdefault(tuple(argv), (out, err)) == (out, err)
    assert cli.build_parser.cache_info().misses <= 1


def _run_python(*args):
    # run the package this test imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


COUNT_PARSERS = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import entdeg.cli as cli
counts = [len(built)]
for argv in (["examples"], ["verify", "--samples", "3"], ["examples"]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    counts.append(len(built))
print(*counts)
"""


def test_parser_built_on_first_main_call_only():
    proc = _run_python("-c", COUNT_PARSERS)
    assert proc.returncode == 0, proc.stderr
    at_import, *after_calls = map(int, proc.stdout.split())
    assert at_import == 0
    assert after_calls[0] > 0
    assert after_calls == after_calls[:1] * 3


def _parsed(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _bound(argv):
    return cli._bind(cli.build_parser().commands, argv)


# one valid value per option; an option added to the parser needs one here
OPTION_VALUES = {
    "--input": "state.json", "--format": "json", "--samples": "7", "--dim": "3",
    "--seed": "5", "--tol": "1e-6", "--workers": "2",
}


@pytest.mark.parametrize("command", ["analyze", "verify", "examples"])
def test_bind_equals_argparse_in_every_option_order(command):
    # every subset of the command's options, in every order, so each default
    # is also left out; argparse accepts a line exactly when _bind binds it
    flags = list(cli.build_parser().commands[command][1])
    lines = 0
    for count in range(len(flags) + 1):
        for chosen in itertools.permutations(flags, count):
            argv = [command, *itertools.chain.from_iterable((f, OPTION_VALUES[f]) for f in chosen)]
            bound, parsed = _bound(argv), _parsed(argv)
            assert (bound is None) == (parsed is None), argv
            assert bound is None or vars(bound) == parsed, argv
            lines += 1
    assert lines == {"analyze": 5, "verify": 326, "examples": 1}[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tol=nan"],
        ["verify", "--samples", "5", "--tol=1e-6"],
        ["verify", "--workers", "-3"],
        ["verify", "--tol", "-1"],
        ["analyze", "--inp", "state.json"],
        ["verify", "--sam", "5"],
        ["verify", "--seed", "1", "--seed", "2"],
        ["analyze", "--input", "a.json", "--input", "b.json"],
        ["-h"],
        ["analyze", "-h"],
        ["verify", "--help"],
        ["analyze", "--input", "a.json", "-h"],
        ["bogus"],
        ["bogus", "--input", "a.json"],
        ["verify", "--samples", "x"],
        ["verify", "--dim", "2.0"],
        ["verify", "--dim", "5"],
        ["analyze", "--format", "xml", "--input", "a.json"],
        ["analyze", "--input", "a.json", "extra"],
        ["examples", "extra"],
        ["examples", "--input", "a.json"],
        ["examples"],
        ["analyze", "--input", "--format"],
        ["analyze", "--input"],
        ["analyze", "--input", ""],
        ["verify", "--samples", " 5", "--seed", "1_000"],
        ["verify", "--"],
        ["--", "examples"],
        [],
    ],
)
def test_bind_declines_or_equals_argparse(argv):
    bound = _bound(argv)
    assert bound is None or vars(bound) == _parsed(argv)


def test_benchmark_command_lines_bind_without_argparse(tmp_path, monkeypatch, capsys):
    state = write_state(tmp_path, "qubit.json", (2, 2), [S3, S3, 0j, S3])
    argvs = [["analyze", "--input", state, "--format", fmt] for fmt in ("json", "table")]
    argvs += [
        ["verify", "--dim", str(dim), "--samples", "20", "--seed", "3", "--workers", str(workers)]
        for dim in (2, 3)
        for workers in (1, 2)
    ]
    expected = []
    for argv in argvs:
        expected.append((cli.main(argv), capsys.readouterr().out))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse reached")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv, want in zip(argvs, expected):
        assert (cli.main(argv), capsys.readouterr().out) == want
    # the argv=None route of entry() binds the same way
    monkeypatch.setattr(sys, "argv", ["entdeg", *argvs[0]])
    assert (cli.main(), capsys.readouterr().out) == expected[0]
    # and a line that is not canonical still goes to argparse
    with pytest.raises(AssertionError, match="argparse reached"):
        cli.main(["verify", "--samples=20"])


def test_import_loads_no_thread_pool():
    proc = _run_python("-c", "import sys, entdeg; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_module_entry_point():
    proc = _run_python("-m", "entdeg", "examples")
    assert proc.returncode == 0
    assert "worst deviation" in proc.stdout
