"""Benchmark of the ``artifact`` library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``DESIGN.md``): synth, sections, order.
Each run is one process with one client and BLAS pinned to one thread.
The library is imported from ``src/`` of the checkout; nothing is installed.

``--trace 0`` measures the end-to-end metrics: tasks in whole rounds, until
the round boundary nearest to ``--seconds`` of task time, and the set-up
time, the median of this process's set-up and of six more set-ups in child
processes spread evenly over the task time (the loop's clock is paused
while a child runs).
``--trace 1`` measures the per-layer metrics on a fixed list of tasks (its
length follows from ``--seconds``): untraced, traced, untraced again; the
traced pass gives calls and self time per layer, the untraced passes the
tracing overhead, and all three must give the same output digest.

Every task's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it, also written to ``.perfbench_out/``, is the full report:
provenance, sample counts, failure reasons and output digests.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, TaskFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("symgrp", "spinalg", "triang", "curvelab", "polysect", "poset", "cli")
SETUP_CHILDREN = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "peak_rss_mb": "MB",
}


class MissingProgram(RuntimeError):
    pass


def load_library() -> types.SimpleNamespace:
    """Import the library from ``src/`` of this checkout, as the CLI does."""
    if not (SRC / "artifact" / "__init__.py").is_file():
        raise MissingProgram(f"no library at {SRC / 'artifact'}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"artifact.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"artifact was imported from {origin}, not {SRC}")
    return types.SimpleNamespace(**mods)


def typed_errors(lib) -> tuple:
    """Failures a task may end in: it is counted as failed, with the reason.

    The library's typed errors, plus the known defects a workload turns into
    ``TaskFailed``.  Anything else aborts the run.
    """
    return (
        lib.curvelab.UnresolvedCluster,
        lib.curvelab.PathNotAccessible,
        lib.polysect.ZeroPolynomial,
        lib.polysect.UnrecognizedMultPattern,
        lib.spinalg.NoRootInInterval,
        TaskFailed,
    )


class Pass:
    """Latencies, failures and the output digest of a sequence of tasks."""

    def __init__(self, workload, state, errors: tuple):
        self.workload, self.state, self.errors = workload, state, errors
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.wall = 0.0
        self._digest = hashlib.sha256()

    def run_task(self, task, run=None) -> None:
        """Run, time and check one task; ``run`` replaces ``workload.run``
        (the traced pass passes it wrapped in a span)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output, problem = (run or self.workload.run)(self.state, task)
        except self.errors as exc:
            reason = f"{type(exc).__name__}: {exc}"
            self.failures.append(reason)
            self._digest.update(json.dumps({"failed": reason}).encode() + b"\n")
            return
        elapsed = time.perf_counter() - t0
        self._digest.update(json.dumps(output, sort_keys=True).encode() + b"\n")
        if problem is None:
            self.latencies.append(elapsed)
        else:
            self.problems.append(problem)
            self.failures.append(f"check failed: {problem}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def ok_tasks(self) -> int:
        return len(self.latencies)


def timed_setup(workload, traced: bool = False):
    """Import the library and set the workload up; with ``traced`` the
    set-up's layer calls are recorded by the returned tracer.

    Only the standard library is imported before the clock starts (the
    tracer, which needs numpy, is imported only for a traced run).
    """
    t0 = time.perf_counter()
    lib = load_library()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer(vars(lib))
        tracer.install()
    try:
        state = workload.setup(lib)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return lib, state, tracer, time.perf_counter() - t0


def trace_task_count(workload, seconds: float) -> int:
    return max(1, int(seconds * workload.trace_rate))


def child_setup(workload_name: str) -> float:
    """Set-up time of a fresh process (import, construction, compilation)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload_name, "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(args) -> dict:
    import networkx
    import numpy
    import scipy
    import sympy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "artifact").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
    }


def run_untraced(workload, args) -> dict:
    lib, state, _, own_setup = timed_setup(workload)
    setups = [own_setup]
    rng = random.Random(args.seed)
    run = Pass(workload, state, typed_errors(lib))
    rounds = 0
    for rnd in workload.rounds(state, rng):
        round_begin = run.wall
        for task in rnd:
            # child set-up k (from 0) starts once k/SETUP_CHILDREN of the
            # task time is spent, so the set-ups sample the whole run
            while (len(setups) <= SETUP_CHILDREN and run.wall
                   >= args.seconds * (len(setups) - 1) / SETUP_CHILDREN):
                setups.append(child_setup(workload.name))
            t0 = time.perf_counter()
            run.run_task(task)
            run.wall += time.perf_counter() - t0
        rounds += 1
        # stop at the round boundary nearest to --seconds, taking the next
        # round to last as long as this one
        if run.wall + (run.wall - round_begin) / 2 >= args.seconds:
            break
    while len(setups) <= SETUP_CHILDREN:
        setups.append(child_setup(workload.name))
    if not run.latencies:
        raise RuntimeError("no task succeeded; no latency to report")
    lat = run.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": run.ok_tasks / run.wall,
        "task_p50_s": statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": {
            "setup_s": len(setups), "tasks_per_s": run.ok_tasks,
            "task_p50_s": len(lat), "peak_rss_mb": 1,
        },
        "setup_samples_s": setups,
        "rounds": rounds,
        "wall_s": run.wall,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures,
        "problems": run.problems,
        "digest": run.digest,
        "digest_tasks": run.attempted,
        "latencies_s": run.latencies,
    }
    return report


def run_traced(workload, args) -> dict:
    import spans

    lib, state, tracer, _ = timed_setup(workload, traced=True)
    errors = typed_errors(lib)
    rng = random.Random(args.seed)
    count = trace_task_count(workload, args.seconds)
    tasks = list(itertools.islice(itertools.chain.from_iterable(
        workload.rounds(state, rng)), count))
    task_span = tracer.wrap("bench.task", workload.run)

    def one_pass(traced: bool) -> Pass:
        run = Pass(workload, state, errors)
        if traced:
            tracer.install()
        begin = time.perf_counter()
        try:
            for i, task in enumerate(tasks):
                tracer.task = i
                run.run_task(task, task_span if traced else None)
        finally:
            run.wall = time.perf_counter() - begin
            if traced:
                tracer.uninstall()
        return run

    passes = {"untraced_1": one_pass(False), "traced": one_pass(True),
              "untraced_2": one_pass(False)}
    traced = passes["traced"]
    metrics = tracer.per_layer()
    untraced_wall = (passes["untraced_1"].wall + passes["untraced_2"].wall) / 2
    metrics["trace.overhead_s"] = traced.wall - untraced_wall
    digests = {k: p.digest for k, p in passes.items()}
    problems = [p for run in passes.values() for p in run.problems]
    if len(set(digests.values())) != 1:
        problems.append(f"tracing changed the outputs: digests {digests}")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload.name}-seed{args.seed}-spans.json.gz"
    tracer.dump(span_file)
    units = dict(spans.per_layer_names())
    report = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {k: (1 if k.endswith("overhead_s") else count) for k in metrics},
        "tasks": count,
        "wall_s": {k: p.wall for k, p in passes.items()},
        "attempted": sum(p.attempted for p in passes.values()),
        "failed": sum(len(p.failures) for p in passes.values()),
        "failures": [f for p in passes.values() for f in p.failures],
        "problems": problems,
        "digests": digests,
        "digest_tasks": count,
        "spans": len(tracer.start),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit (used for setup_s)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(workload)[3]}))
            return 0
        report = run_traced(workload, args) if args.trace else run_untraced(workload, args)
    except MissingProgram as exc:
        print(f"perfbench: {exc}; run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    report.pop("latencies_s", None)
    print(json.dumps(report))
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
