"""Spans around entdeg's public functions, recorded from outside the package.

``Tracer`` replaces every module-level binding of each traced function (a
function is looked up where it is imported, so ``analyze`` is bound in
``entdeg.measure``, ``entdeg.ensemble`` and ``entdeg.cli`` alike) with a
wrapper that records a span: name, start, end, parent span, operation id.
Leaving the ``with`` block puts every original binding back. Spans stay in
memory until ``dump`` writes them out.

A span's self time is its duration minus the part of it that its child spans
cover; children on several threads (``verify --workers 2``) are merged into
one covered interval set.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = (
    "ensemble.state_for_index",
    "ensemble.property_sweep",
    "states.state_from_amplitudes",
    "states.density_from_state",
    "states.purity",
    "states.partial_trace",
    "generators.basis_for",
    "bloch.decompose",
    "bloch.reconstruct",
    "linalg.det_real",
    "linalg.herm_eigvals",
    "linalg.kron",
    "measure.analyze",
    "measure.alpha_matrix",
    "measure.schmidt_coeffs",
    "measure.concurrence_pure",
    "measure.purity_constraints_report",
    "hyperbolic.degree_hyperbolic",
    "cli.build_parser",
    "cli.emit_json",
    "cli.main",
)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))
# the benchmark's own span around each operation; its self time is the part
# of the operation no traced function covers
OP = "op"


def _entdeg_modules() -> list:
    for module in MODULES:
        importlib.import_module("entdeg." + module)
    return [m for n, m in list(sys.modules.items()) if n == "entdeg" or n.startswith("entdeg.")]


def leftover_wrappers() -> list[str]:
    """Module bindings in entdeg that are still tracing wrappers."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _entdeg_modules()
        for attr, val in vars(mod).items()
        if getattr(val, "_entdeg_traced", False)
    ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.names = TRACED + (OP,)
        self.spans: list[tuple[int, float, float, int, int, int]] = []
        self.ops: list[tuple[int, int]] = []  # op id -> (workers, states)
        self.failed = dict.fromkeys(MODULES, 0)
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, idx: int, module: str, fn):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                with self._lock:
                    self.failed[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((idx, start, end, parent, sid, self._op_id))

        traced._entdeg_traced = True
        return traced

    def __enter__(self):
        modules = _entdeg_modules()
        for idx, name in enumerate(TRACED):
            module, fn_name = name.split(".")
            fn = getattr(sys.modules["entdeg." + module], fn_name)
            wrapper = self._wrap(idx, module, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def operation(self, workers: int, states: int):
        """Span one operation; spans opened inside it carry its id."""
        self._op_id = len(self.ops)
        self.ops.append((workers, states))
        sid = next(self._ids)
        self._main_stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._main_stack.pop()
            self.spans.append((len(TRACED), start, end, -1, sid, self._op_id))

    def self_times(self) -> list[float]:
        children = defaultdict(list)
        for _, start, end, parent, _, _ in self.spans:
            children[parent].append((start, end))
        return [
            end - start - _covered(children.get(sid, ()), start, end)
            for _, start, end, _, sid, _ in self.spans
        ]

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics and their report lines.

        Calls and self times come from single-thread operations, where self
        times add up to the wall time; ``--workers 2`` calls feed only
        ``ensemble.w2_inflation``, since their spans overlap across threads.
        """
        selfs = self.self_times()
        n = len(self.names)
        calls, self_sum = [0] * n, [0.0] * n
        sweep = TRACED.index("ensemble.property_sweep")
        sweep_workers: dict[int, int] = {}
        for (idx, _, _, _, sid, op), self_t in zip(self.spans, selfs):
            workers = self.ops[op][0]
            if workers == 1:
                calls[idx] += 1
                self_sum[idx] += self_t
            if idx == sweep:
                sweep_workers[sid] = workers
        # per-state work: spans directly under a property_sweep span
        state_time = {1: 0.0, 2: 0.0}
        for _, start, end, parent, _, _ in self.spans:
            if parent in sweep_workers:
                state_time[sweep_workers[parent]] += end - start
        states = {1: 0, 2: 0}
        for workers, count in self.ops:
            states[workers] += count

        ops1 = sum(1 for workers, _ in self.ops if workers == 1)
        wall = sum(end - start for idx, start, end, _, _, op in self.spans
                   if idx == n - 1 and self.ops[op][0] == 1)

        def share(t: float) -> float:
            return t / wall if wall else 0.0

        metrics: dict[str, tuple[float, str]] = {}
        lines = [f"  {'layer (single-thread ops)':<36}{'calls/op':>12}{'self_us/call':>14}"
                 f"{'share':>9}"]
        for idx, name in enumerate(TRACED):
            per_op = calls[idx] / ops1 if ops1 else 0.0
            per_call = self_sum[idx] / calls[idx] * 1e6 if calls[idx] else 0.0
            metrics[f"{name}.calls"] = (per_op, "count")
            metrics[f"{name}.self_us"] = (per_call, "us")
            lines.append(f"  {name:<36}{per_op:>12.3f}{per_call:>14.2f}"
                         f"{share(self_sum[idx]):>9.1%}")
        remainder = self_sum[n - 1]
        lines.append(f"  {'untraced remainder':<62}{share(remainder):>9.1%}")
        lines.append(f"  {f'traced wall, {ops1} ops, {wall:.3f} s':<62}"
                     f"{share(sum(self_sum)):>9.1%}")
        for module in MODULES:
            metrics[f"{module}.failed"] = (float(self.failed[module]), "count")
        for name in ("bloch.decompose", "states.density_from_state"):
            per_state = calls[TRACED.index(name)] / states[1] if states[1] else 0.0
            metrics[f"{name}.calls_per_state"] = (per_state, "count")
        inflation = 0.0
        if states[2] and state_time[1]:
            inflation = (state_time[2] / states[2]) / (state_time[1] / states[1])
        metrics["ensemble.w2_inflation"] = (inflation, "ratio")
        metrics["untraced_remainder_share"] = (share(remainder), "ratio")
        for name in ("bloch.decompose.calls_per_state", "states.density_from_state.calls_per_state",
                     "ensemble.w2_inflation"):
            lines.append(f"  {name:<44}{metrics[name][0]:>10.4g} {metrics[name][1]}")
        failed = sum(self.failed.values())
        lines.append(f"  {'<module>.failed, all modules':<44}{failed:>10d} count")
        return metrics, lines

    def dump(self, path: Path, header: dict) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        record = dict(header, names=list(self.names), ops=self.ops, fields=[
            "name", "start_s", "end_s", "parent", "span", "op"
        ], spans=[
            [idx, round(start - t0, 9), round(end - t0, 9), parent, sid, op]
            for idx, start, end, parent, sid, op in self.spans
        ])
        path.write_text(json.dumps(record, separators=(",", ":")))
