"""The entdeg benchmark: one workload per call, each in a fresh process.

    python3 bench/run.py --workload verify-qubit --seed 1 --seconds 20 --trace 0

Workloads (see harness.py): verify-qubit, verify-qutrit, analyze-mixed.

``--trace 0`` measures the end-to-end metrics, which every workload reports:

    setup_s       fresh interpreter -> ``import entdeg`` -> first ``analyze``
                  returns; the median over SETUP_RUNS interpreters, started
                  one at a time at even steps through the timed loop
    states_per_s  single-thread throughput: samples over the summed wall
                  time of the ``verify --workers 1`` calls, or analyze calls
                  over theirs
    op_p50_ms     median wall time of one such call
    peak_rss_mb   peak resident memory of the workload process

and prints the workload's own figures beside them, each with its sample
count: verify_w2_states_per_s for the verify workloads, analyze_p99_ms for
analyze-mixed. Those two are not bounded in BENCHMARK.json: a bounded metric
must exist on every workload, and the 99th percentile of a run's calls
on a shared 2-core host does not stay steady from run to run. ``--trace 1``
runs the workload untraced, then replays the same operations with spans
around each traced function (spans.py) and reports per-layer calls, self
times, the derived ratios and the tracing overhead. Spans are written to
``.bench_out/spans-<workload>.json``.

Every output is checked; the last line is the JSON result, and the exit code
is 1 when any check failed, 2 when the checkout has no entdeg sources.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import SRC, WORKLOADS, machine_info

HARNESS = Path(__file__).resolve().parent / "harness.py"
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entdeg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "entdeg" / "__init__.py").is_file():
        print(f"error: no entdeg package under {SRC}", file=sys.stderr)
        return 2

    machine = {**machine_info(), "seed": args.seed}
    print(f"workload {args.workload}: closed loop, one caller; "
          + ", ".join(f"{k} {v}" for k, v in machine.items()))
    child = subprocess.run(
        [sys.executable, str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr, end="")
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.splitlines()[-1])
    for line in result["lines"]:
        print(line)
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_ratio':<26}{failed / attempted:>14.6g}        "
          f"({failed} of {attempted} operations)")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
