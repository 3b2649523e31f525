"""Time error of dip-only events, whose every multiplicity is even.

    PYTHONPATH=src python3 tools/dip_accuracy.py [--verbose]

The set has 67 events with exact times, all of n = 2 and 3:

* the origins of the sections of ``aba`` (n = 2) and of ``aba``, ``bcb``
  and ``bacb`` (n = 3), one event at t = 0 each;
* the constant-curvature curves ``s * kappa_circle`` of n = 2 on
  ``[0, 3.25]``, s = 1, 2, 3, with an ``[aba]`` event at every ``m / s``;
* synthesized words of the dip-only letters at seeded random times, until
  the set holds 67 events.

Prints the median and the largest error, and with ``--verbose`` every
event.  A curve whose itinerary is not the expected one is an error.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics

import numpy as np

from artifact import curvelab, polysect, symgrp

DIP_LETTERS = {2: ("aba",), 3: ("aba", "bcb", "bacb")}
SIZE = 67


def cases():
    """``(name, curve, exact times, expected letters)``."""
    for n, names in DIP_LETTERS.items():
        for name in names:
            section = polysect.build_section(symgrp.letter_from_name(n, name))
            mfun = polysect.matrix_path(section, [0] * len(section.x_vars))
            curve = curvelab.frame_curve_from_matrix_path(n, mfun, np.linspace(-1, 1, 201))
            yield f"section {name} n={n} origin", curve, [0.0], [name]
    circle = [math.pi * math.sqrt(j * (3 - j)) for j in (1, 2)]
    for s in (1, 2, 3):
        curve = curvelab.integrate_frame(2, [s * k for k in circle], 0.0, 3.25)
        times = [m / s for m in range(1, math.ceil(3.25 * s))]
        yield f"constant n=2 x{s}", curve, times, ["aba"] * len(times)
    rng = random.Random(18)
    while True:
        n = rng.choice((2, 3))
        names = [rng.choice(DIP_LETTERS[n]) for _ in range(rng.randint(1, 3))]
        times = sorted(rng.uniform(0.08, 0.92) for _ in names)
        if any(b - a < 0.08 for a, b in zip(times, times[1:])):
            continue
        word = "".join(f"[{name}]" for name in names)
        curve = curvelab.curve_with_itinerary(word, n=n, times=times)
        yield f"word {word} n={n}", curve, times, names


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--verbose", action="store_true")
    args = p.parse_args()
    errors = []
    for name, curve, times, letters in cases():
        events = curvelab.singular_events(curve)
        got = [symgrp.letter_name(ev.letter) for ev in events]
        if got != letters:
            raise SystemExit(f"{name}: itinerary {got}, expected {letters}")
        for ev, t in zip(events, times):
            errors.append(abs(ev.time - t))
            if args.verbose:
                print(f"{name:36s} t={t:.6f} error={errors[-1]:.2e}")
        if len(errors) >= SIZE:
            break
    errors = errors[:SIZE]
    print(
        f"{len(errors)} dip-only events: median error {statistics.median(errors):.2g}, "
        f"max {max(errors):.2g}"
    )


if __name__ == "__main__":
    main()
