"""Exact classifications of a fixed list of section points, one JSON line per
point.

    PYTHONPATH=src python3 tools/classify_sweep.py

The list is fixed, so that two outputs always compare the same points:

* every oracle ray (``domain=None``) of the letters of n = 2 and 3 with at
  most 3 inversions, and of ``abcb`` and ``bacb`` (n = 3): the points that
  :func:`artifact.poset.letter_oracle_section` classifies;
* the first ``SECTIONS`` tasks of the ``sections`` benchmark workload
  (``perfbench/workloads.py``) for ``SEED``, on the domain (-1, 1);
* every ``STRIDE``-th point of the criterion-4 grid (the 100 x 100 grid of
  radius 1/5) of the ``betaprime`` family at u = 2/5, -2/5 and 0, on the
  domain (-1, 1).

A line holds the section and point, and either the label and, per event,
the multiplicity vector, the exact root (a Fraction as text, null when it
is irrational), the ends of the isolating interval (Fractions as text),
the certificate and ``repr(approx)``, the shortest text that reads back as
the same float, or the class of the exception that ended the
classification.  The last line is the number of points that took sympy's
root isolation (``dup_isolate_real_roots_list``) rather than the
generic-point filter.  Run it under two trees and diff the outputs: every
point must classify the same, bit for bit, except that the isolating
interval of an irrational root at a point that went to sympy depends on
the isolation method.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

from artifact import cli, curvelab, polysect, poset, spinalg, symgrp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED, SECTIONS, STRIDE = 77, 300, 7

LIB = types.SimpleNamespace(
    cli=cli, curvelab=curvelab, polysect=polysect, spinalg=spinalg, symgrp=symgrp
)


def oracle_points():
    letters = [
        s for n in (2, 3) for s in symgrp.all_permutations(n)
        if 1 <= symgrp.inversions(s) <= 3
    ] + [symgrp.letter_from_name(3, name) for name in ("abcb", "bacb")]
    for sigma in letters:
        section = polysect.build_section(sigma)
        rays: dict = {}
        for point in polysect.weighted_grid_points(1, 9, section.x_weights):
            rays.setdefault(poset._ray(point, section.x_weights), point)
        name = f"{symgrp.letter_name(sigma)}/{sigma.n}"
        for point in rays.values():
            yield name, section, point, None


def section_points():
    workload = WORKLOADS["sections"]
    state = workload.setup(LIB)
    rounds = workload.rounds(state, random.Random(SEED))
    for name, point in itertools.islice(itertools.chain.from_iterable(rounds), SECTIONS):
        yield name, state["sections"][name][0], point, (Fraction(-1), Fraction(1))


def grid_points():
    points = polysect.grid_points(Fraction(1, 5), 100)[::STRIDE]
    for u in (Fraction(2, 5), Fraction(-2, 5), Fraction(0)):
        family = polysect.build_perturbed_family("betaprime", u)
        for point in points:
            yield f"betaprime u={u}", family, point, (Fraction(-1), Fraction(1))


def classify(section, point, domain) -> dict:
    cls = polysect.classify_point(section, point, domain=domain)
    return {
        "label": cls.label,
        "events": [
            {
                "mult": list(e.mult),
                "root": None if e.root is None else str(e.root),
                "interval": [str(end) for end in e.interval],
                "certificate": list(e.certificate),
                "approx": repr(e.approx),
            }
            for e in cls.events
        ],
    }


def main() -> None:
    points = list(itertools.chain(oracle_points(), section_points(), grid_points()))
    isolations = 0
    isolate = polysect.dup_isolate_real_roots_list

    def counted(*args, **kwargs):
        nonlocal isolations
        isolations += 1
        return isolate(*args, **kwargs)

    polysect.dup_isolate_real_roots_list = counted
    for name, section, point, domain in points:
        line = {
            "section": name,
            "point": [str(v) for v in point],
            "domain": None if domain is None else [str(v) for v in domain],
        }
        try:
            line.update(classify(section, point, domain))
        except (polysect.ZeroPolynomial, polysect.UnrecognizedMultPattern) as exc:
            line["error"] = type(exc).__name__
        print(json.dumps(line), flush=True)
    print(json.dumps({"isolations": isolations}))


if __name__ == "__main__":
    main()
