"""Alternating parent/change pairs of ``perfbench/run.py``, written as one
``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --plan sections:2901-2910 --plan synth:2911-2915 \\
        --claim sections:tasks_per_s --trace sections:7 --trace synth:7 \\
        --out BENCH_18.json

``DIR`` is the root of a checkout (``perfbench/run.py`` and ``src/``).  Each
run is a fresh ``--trace 0`` process in its own checkout, lasting the
change's ``BENCHMARK.json`` ``run_seconds`` on both sides.  A plan
``W:A-B`` runs one pair per seed A..B of workload W; the side that runs
first alternates, parent first in the first pair.  For each end-to-end
metric of ``BENCHMARK.json`` the output
holds each side's median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), every run, and
``change_wins``, the pairs the change won (ties count for neither).  Each
``--trace W:SEED`` (the option repeats) adds one ``--trace 1`` run of
workload W per side, under ``trace[W]``, with its digests and every nonzero
per-layer metric.  The file is rewritten after every pair and every traced
run, so an interrupted run leaves what it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process: its full report (the second-last
    line of standard output) and its result (the last)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    *_, report, result = proc.stdout.strip().splitlines()
    return {"report": json.loads(report), "result": json.loads(result)}


def git_sha(root: Path):
    """The checkout's commit, or None when it is not a git checkout."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    processor = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                processor = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "processor": processor,
    }


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_entry(pairs: list, metrics: dict) -> dict:
    """``pairs``: one ``{side: run}`` per pair, in order."""
    entry = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first_side": [p["first_side"] for p in pairs],
        "failed": {s: sum(p[s]["result"]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["result"]["attempted"] for p in pairs) for s in SIDES},
        "correct": {s: all(p[s]["result"]["correct"] for p in pairs) for s in SIDES},
        "metrics": {},
    }
    for name, better in metrics.items():
        runs = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        entry["metrics"][name] = {
            "better": better,
            **{s: summary(runs[s]) for s in SIDES},
            "change_wins": wins,
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return entry


def trace_side(out: dict) -> dict:
    report = out["report"]
    return {
        "tasks": report["tasks"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "digest": report["digests"]["traced"],
        "digests_agree": len(set(report["digests"].values())) == 1,
        "wall_s": report["wall_s"],
        "metrics": {
            k: v["value"] for k, v in out["result"]["metrics"].items() if v["value"]
        },
    }


def parse_plan(text: str) -> tuple:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--plan", action="append", required=True, help="WORKLOAD:FIRST-LAST")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    p.add_argument(
        "--trace", action="append", default=[],
        help="WORKLOAD:SEED for one --trace 1 run per side (repeatable)",
    )
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    plans = [parse_plan(text) for text in args.plan]
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed N "
        f"--seconds {seconds:g} --trace 0",
        "machine": machine(),
        "parent": {"sha": git_sha(args.parent)},
        "change": {"sha": git_sha(args.change)},
        "method": (
            "alternating pairs, parent first in the first pair of each workload "
            "(`first_side` records every pair); each run a fresh process from the "
            f"root of its own checkout with --seconds {seconds:g} --trace 0; "
            + "; ".join(f"seeds {s[0]}-{s[-1]} ({w})" for w, s in plans)
            + "; quartiles are statistics.quantiles(n=4, method='inclusive'); "
            "src_sha256 is the hash of src/ that run.py reports"
        ),
        "workloads": {},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = {"workload": workload, "metric": metric}

    def write() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    roots = {"parent": args.parent, "change": args.change}
    for workload, seeds in plans:
        pairs = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first_side": order[0]}
            for side in order:
                pair[side] = run(roots[side], workload, seed, seconds, 0)
                doc[side]["src_sha256"] = pair[side]["report"]["provenance"]["src_sha256"]
            pairs.append(pair)
            doc["workloads"][workload] = workload_entry(pairs, metrics)
            write()
            print(f"{workload} seed {seed}: pair {k + 1}/{len(seeds)}", file=sys.stderr)
    for text in args.trace:
        workload, _, seed = text.partition(":")
        doc.setdefault("trace", {})[workload] = {
            "command": f"python3 perfbench/run.py --workload {workload} "
            f"--seed {seed} --seconds {seconds:g} --trace 1",
            "sides": {
                side: trace_side(run(roots[side], workload, int(seed), seconds, 1))
                for side in SIDES
            },
        }
        write()


if __name__ == "__main__":
    main()
