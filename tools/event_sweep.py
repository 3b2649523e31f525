"""Itineraries of a fixed seeded list of curves, one JSON line per curve.

    PYTHONPATH=src python3 tools/event_sweep.py

The list is fixed, so that two outputs always compare the same curves:

* the first ``SECTIONS`` tasks of the ``sections`` benchmark workload
  (``perfbench/workloads.py``) for ``SEED``: each curve is read at the
  ``artifact iti`` defaults;
* the first ``SYNTH`` tasks of the ``synth`` workload: each word is
  synthesized with verification, then read again;
* ``WORDS`` seeded words of one to four letters with 1 to 3 inversions,
  n drawn from 2, 3 and 4, every other one at seeded random times (the rest
  at the default times), synthesized with verification and read again.

A line holds the task (``at`` is a word's requested times, null for the
default ones), and either the letters with the full-precision event times
and the coefficients of the curve's endpoint ``curve(curve.t1)`` (which
cover the spin lift of a section curve and the end of a synthesized one),
or the class of the exception that ended it.  The last line is the
number of ``FrameCurve.minors`` calls the whole list made.  Run it under two
trees and diff the outputs: the curves must read the same.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import types
from pathlib import Path

from artifact import cli, curvelab, polysect, spinalg, symgrp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED, SECTIONS, SYNTH, WORDS = 77, 300, 120, 340

LIB = types.SimpleNamespace(
    cli=cli, curvelab=curvelab, polysect=polysect, spinalg=spinalg, symgrp=symgrp
)


def read(curve) -> dict:
    events = curvelab.singular_events(curve)
    return {
        "letters": [symgrp.letter_name(ev.letter) for ev in events],
        "times": [ev.time for ev in events],
        "end": curve(curve.t1).v.tolist(),
    }


def tasks(name: str, seed: int, count: int) -> tuple:
    workload = WORKLOADS[name]
    state = workload.setup(LIB)
    rounds = workload.rounds(state, random.Random(seed))
    return state, list(itertools.islice(itertools.chain.from_iterable(rounds), count))


def section_lines(seed: int, count: int):
    state, todo = tasks("sections", seed, count)
    for name, point in todo:
        section, mfun = state["sections"][name]
        values = [float(v) for v in point]
        curve = curvelab.frame_curve_from_matrix_path(
            section.n, lambda t: mfun(t, *values), state["ts"]
        )
        yield {"section": name, "point": [str(v) for v in point]}, lambda: read(curve)


def synth_lines(seed: int, count: int):
    _, todo = tasks("synth", seed, count)
    for n, word in todo:
        yield {"n": n, "word": symgrp.word_name(word)}, lambda: read(
            curvelab.curve_with_itinerary(word, n=n)
        )


def word_lines(seed: int, count: int):
    rng = random.Random(seed)
    pools = {
        n: [s for s in symgrp.all_permutations(n) if 1 <= symgrp.inversions(s) <= 3]
        for n in (2, 3, 4)
    }
    for i in range(count):
        n = rng.choice((2, 3, 4))
        word = tuple(rng.choice(pools[n]) for _ in range(rng.randint(1, 4)))
        times = None
        if i % 2:
            times = sorted(rng.uniform(0.05, 0.95) for _ in word)
        yield {"n": n, "word": symgrp.word_name(word), "at": times}, lambda: read(
            curvelab.curve_with_itinerary(word, n=n, times=times)
        )


def main() -> None:
    calls = 0
    minors = curvelab.FrameCurve.minors

    def counted(curve, t):
        nonlocal calls
        calls += 1
        return minors(curve, t)

    curvelab.FrameCurve.minors = counted
    for task, run in itertools.chain(
        section_lines(SEED, SECTIONS),
        synth_lines(SEED, SYNTH),
        word_lines(SEED, WORDS),
    ):
        try:
            task.update(run())
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            task["error"] = type(exc).__name__
        print(json.dumps(task), flush=True)
    print(json.dumps({"minors_calls": calls}))


if __name__ == "__main__":
    main()
