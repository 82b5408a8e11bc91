"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/collect.py [--out FILE]

For every workload it runs ``run.py --trace 0`` once per seed 1 to RUNS,
then prints each end-to-end metric's median, quartiles and spread: the
interquartile distance as a share of the median, against a third of the
metric's bound in BENCHMARK.json. With ``--out`` it adds one ``--trace 1``
run per workload and writes the machine, every result line and the summary
as JSON, the form of a committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT, WORKLOADS, machine_info

RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def run(workload: str, seed: int, trace: int) -> dict:
        child = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            capture_output=True, text=True, timeout=180, cwd=ROOT,
        )
        if child.returncode != 0:
            sys.exit(child.stdout + child.stderr)
        return json.loads(child.stdout.splitlines()[-1])

    record = {"machine": machine_info(), "seeds": list(range(1, RUNS + 1)),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        results = [run(workload, seed, 0) for seed in range(1, RUNS + 1)]
        summary = summarize(results, bounds)
        record["workloads"][workload] = {"results": results, "summary": summary}
        if args.out:
            record["workloads"][workload]["traced"] = run(workload, 1, 1)
        print(f"{workload}: {RUNS} runs")
        for name, s in summary.items():
            ok = s["spread"] < s["bound"] / 3
            steady &= ok
            print(f"  {name:<14}{s['median']:>12.5g} {s['unit']:<5} q1 {s['q1']:<11.5g}"
                  f"q3 {s['q3']:<11.5g}spread {s['spread']:6.2%} (bound/3 "
                  f"{s['bound'] / 3:.2%}){'' if ok else '  WIDE'}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
