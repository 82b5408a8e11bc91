"""Command-line front end: analyze a state file, verify sweeps, examples.

Exit codes: 0 success (and, for verify/examples, all checks passed),
1 a verify/examples tolerance check failed, 2 usage or parse error,
3 a numerical precondition failed (purity gate or determinant sign).

A canonical command line (a subcommand, then distinct ``--option value``
pairs spelled out in full) is bound straight from the parser's option
table; argparse handles every non-canonical command line, so help, errors
and exit codes are its own.

State files are UTF-8 JSON with two fields, for instance

    {"dims": [2, 2], "amplitudes": [[0.577, 0], [0.577, 0], [0, 0], [0.577, 0]]}

where each amplitude is a [real, imaginary] pair of JSON numbers in the
|i, j> ordering with the first subsystem as the high-order index.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .ensemble import DEFAULT_TOL, property_sweep
from .fixtures import example_fixtures
from .measure import EntanglementReport, PurityViolation, analyze
from .states import state_from_amplitudes

EXAMPLES_TOL = 1e-12


def round15(x: float) -> float:
    """Round a float to 15 significant decimal digits.

    15 digits survive a decimal -> double -> decimal round trip exactly,
    which is what makes the emitted JSON byte-stable under re-parsing.
    """
    return float(f"{x:.15g}")


def _float_text(x: float) -> str:
    """``repr(round15(x))`` as json.dumps writes it, from one ``%.15g`` string,
    but ``null`` for NaN and +-inf (see ``emit_json``).

    15 digits of a normal double round-trip, so repr of their value has the
    same digits. The spellings differ only where %g writes no point ('1',
    '-0') or the exponent 15, which repr writes in fixed point ('1e+15'
    against '1000000000000000.0'). A subnormal holds fewer digits, so repr
    may write fewer; below 1e-300 repr spells the value itself.
    """
    text = f"{x:.15g}"
    if "e" in text:
        if text.endswith("e+15") or abs(x) < 1e-300:
            return repr(round15(x))
        return text
    if "." in text:
        return text
    return "null" if text in ("nan", "inf", "-inf") else text + ".0"


@functools.cache
def _sorted_fields(cls) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


@functools.cache
def _table_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.name != "constraint_residuals")


def _emit(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it at
    indentation ``pad``, with every float rounded by ``round15`` and every
    dataclass read as the dict of its fields."""
    if isinstance(obj, float):
        return _float_text(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join([inner + _emit(val, inner) for val in obj]) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [(key, obj[key]) for key in sorted(obj)]
    elif dataclasses.is_dataclass(obj):
        # read the fields in place: dataclasses.asdict would deep-copy them first
        items = [(name, getattr(obj, name)) for name in _sorted_fields(type(obj))]
    elif obj is None:
        return "null"
    elif obj is True:
        return "true"
    elif obj is False:
        return "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    elif isinstance(obj, str):
        return encode_basestring_ascii(obj)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return "{}"
    body = ",\n".join([f"{inner}{encode_basestring_ascii(key)}: {_emit(val, inner)}"
                       for key, val in items])
    return "{\n" + body + "\n" + pad + "}"


def emit_json(obj) -> str:
    """Serialize with 15-significant-digit floats and sorted keys.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True)`` on
    the rounded values, but for one departure: NaN and +-inf are written as
    ``null``, where json.dumps writes ``NaN`` and ``Infinity``, which strict
    JSON rejects. With ``indent`` json.dumps runs its pure-Python encoder,
    which costs about twice this walk over the report schema.
    """
    return _emit(obj, "")


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(f"{v:.15g}" for v in x) + ")"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _report_table(rep: EntanglementReport) -> str:
    # the fields in declaration order, then the residuals in analyze's order
    lines = [f"{name:<24}{_fmt(getattr(rep, name))}" for name in _table_fields(type(rep))]
    if rep.constraint_residuals is not None:
        lines.append("constraint_residuals")
        lines += [f"  {key:<22}{val:.3e}" for key, val in rep.constraint_residuals.items()]
    return "\n".join(lines)


def _load_state(path: str):
    # one unbuffered read; text mode's newline translation is kept, so the
    # positions a JSON syntax error reports stay the same
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"state file {path} nests too deeply to parse") from None
    try:
        dims = data["dims"]
        raw = data["amplitudes"]
    except (KeyError, TypeError):
        raise ValueError("state file needs 'dims' and 'amplitudes' fields") from None
    if not isinstance(dims, list) or len(dims) != 2:
        raise ValueError("'dims' must be a pair of local dimensions")
    # bool is an int subclass, and int() would truncate 2.7 to 2
    if not all(type(d) is int for d in dims):
        raise ValueError(f"'dims' must be two integers, got {dims}")
    if not isinstance(raw, list):
        raise ValueError("'amplitudes' must be a list of [re, im] pairs")
    for k, pair in enumerate(raw):
        # two-character strings and bools would unpack and convert as well
        if (type(pair) is not list or len(pair) != 2
                or type(pair[0]) not in (int, float) or type(pair[1]) not in (int, float)):
            raise ValueError(f"'amplitudes' entry {k} is not a [re, im] pair of numbers: {pair!r}")
    try:
        amps = [complex(float(re), float(im)) for re, im in raw]
    except OverflowError:
        raise ValueError("'amplitudes' holds a number too large for a float") from None
    return state_from_amplitudes(amps, dims[0], dims[1])


def cmd_analyze(args) -> int:
    psi = _load_state(args.input)
    rep = analyze(psi)
    if args.format == "json":
        print(emit_json(rep))
    else:
        print(_report_table(rep))
    return 0


def cmd_verify(args) -> int:
    # --workers is accepted for compatibility; the sweep runs in one thread
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    report = property_sweep(args.samples, args.dim, args.seed, tol=args.tol)
    print(emit_json(report))
    return 0 if report.passed else 1


def cmd_examples(args) -> int:
    print(f"{'fixture':<30}{'expected':>20}{'computed':>22}{'deviation':>12}")
    worst = 0.0
    for fx in example_fixtures():
        rep = analyze(fx.state)
        dev = abs(rep.p_e_det - fx.expected_pe)
        worst = float(np.maximum(worst, dev))  # keeps NaN, which max(worst, dev) drops
        print(
            f"{fx.name:<30}{fx.expected_pe:>20.15g}{rep.p_e_det:>22.15g}{dev:>12.3e}"
        )
    ok = worst <= EXAMPLES_TOL
    print(f"worst deviation {worst:.3e}, tolerance {EXAMPLES_TOL:g}: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _add_command(sub, commands: dict, name: str, handler, *options, **kwargs) -> None:
    """Add subcommand ``name`` with ``options``, (flag, ``add_argument``
    keywords) pairs, and record in ``commands`` what ``_bind`` reads of it:
    the namespace defaults argparse sets and the action of each flag."""
    cmd = sub.add_parser(name, **kwargs)
    cmd.set_defaults(handler=handler)
    actions = {flag: cmd.add_argument(flag, **spec) for flag, spec in options}
    defaults = {"command": name, "handler": handler}
    defaults.update((a.dest, a.default) for a in actions.values())
    commands[name] = (defaults, actions)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` leaves the parser as it found it, so every ``main`` call
    in a process can reuse one tree instead of paying for a new one. Its
    ``commands`` attribute maps each subcommand to its namespace defaults
    and its actions by flag, the table ``_bind`` matches command lines
    against.
    """
    parser = argparse.ArgumentParser(
        prog="entdeg",
        description="Degree of entanglement of pure two-qubit and two-qutrit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = parser.commands = {}

    _add_command(
        sub, commands, "analyze", cmd_analyze,
        ("--input", dict(required=True, help="path to a JSON state file")),
        ("--format", dict(choices=("json", "table"), default="table", help="output format")),
        help="analyze one state file",
    )
    _add_command(
        sub, commands, "verify", cmd_verify,
        ("--samples", dict(type=int, default=10000)),
        ("--dim", dict(type=int, choices=(2, 3), default=2)),
        ("--seed", dict(type=int, default=42)),
        ("--tol", dict(type=float, default=DEFAULT_TOL)),
        ("--workers", dict(type=int, default=1,
                           help="accepted for compatibility; the sweep runs in one thread")),
        help="sweep seeded Haar-random states and check every invariant",
    )
    _add_command(sub, commands, "examples", cmd_examples,
                 help="regression table of built-in states")
    return parser


def _bind(commands: dict, argv: list) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` builds, if ``argv`` is canonical;
    None otherwise.

    Canonical is a subcommand name followed by distinct, exactly spelled
    ``--option value`` pairs of that subcommand, where no value starts with
    '-', every required option is given, and each value converts by the
    option's type into one of its choices. argparse binds such a line to
    this namespace, and it keeps every other line: help, ``--opt=value``,
    abbreviations, repeats, values starting with '-' and every error.
    """
    if len(argv) % 2 == 0 or not all(type(token) is str for token in argv):
        return None
    try:
        defaults, actions = commands[argv[0]]
    except KeyError:
        return None
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        action = actions.get(flag)
        if action is None or action.dest in given or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except Exception:  # argparse reports or raises this one itself
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if any(action.required and action.dest not in given for action in actions.values()):
        return None
    return argparse.Namespace(**{**defaults, **given})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _bind(parser.commands, argv)
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PurityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
