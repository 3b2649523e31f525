"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py [--seconds 1] [--seed 1]

For every workload it makes one untraced and two traced runs and checks:

* the last line is the result object with exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``, ``correct`` is true and nothing failed;
* the metrics are exactly those of ``BENCHMARK.json`` (``end_to_end``
  untraced, ``per_layer`` traced), each a finite number with its unit;
* tracing changes no result: the three passes of a traced run (untraced,
  traced, untraced) have the same output digest;
* the counts of the two traced runs are identical.

Finally it copies ``BENCHMARK.json`` and ``perfbench/`` alone into a scratch
directory and checks that the benchmark fails there without a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return proc


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def parsed_run(workload: str, seed: int, seconds: float, trace: int):
    proc = bench(ROOT, workload, seed, seconds, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{workload} trace={trace}: {report['problems']}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{workload} trace={trace}: failures {report['failures']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} trace={trace}: metric names/units differ: "
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        check(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
              and math.isfinite(m["value"]), f"{workload}: bad metric {name}: {m}")
    return report, result


def smoke_workload(workload: str, seed: int, seconds: float) -> None:
    report0, _ = parsed_run(workload, seed, seconds, 0)
    report1, result1 = parsed_run(workload, seed, seconds, 1)
    report2, result2 = parsed_run(workload, seed, seconds, 1)
    digests = set(report1["digests"].values())
    check(len(digests) == 1, f"{workload}: pass digests differ {report1['digests']}")
    counts1 = {k: v["value"] for k, v in result1["metrics"].items() if v["unit"] == "count"}
    counts2 = {k: v["value"] for k, v in result2["metrics"].items() if v["unit"] == "count"}
    diff = {k: (counts1[k], counts2[k]) for k in counts1 if counts1[k] != counts2[k]}
    check(not diff, f"{workload}: counts differ between traced runs: {diff}")
    print(f"ok {workload}: {report0['attempted']} untraced tasks, "
          f"{report1['digest_tasks']} traced tasks, {report1['spans']} spans, "
          f"digest {report1['digests']['traced'][:12]}")


def smoke_missing_program(seed: int, seconds: float) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], seed, seconds, 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and '"correct"' not in last[0],
              f"without src/ the benchmark exited {proc.returncode}: {last[0][:200]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without the program: exits non-zero, prints no result")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        smoke_workload(workload, args.seed, args.seconds)
    smoke_missing_program(args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
