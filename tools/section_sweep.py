"""The exact section of every letter of n <= 4 and the four perturbed
families, one JSON line per section.

    PYTHONPATH=src python3 tools/section_sweep.py

A line holds the letter (name and n), or the family (``betaprime`` or
``matrix_u``) and its u (null when symbolic: u is then the last point
variable), the section's quasi-homogeneous weights and, per southwest
minor, its degree in t and its integer terms ``[k, e, c, s]`` (``c *
t**k * prod_l x_l**e_l``, ``s`` the total degree missing from ``e``; see
``SectionFamily._integer_minors``), sorted.  These are the terms
:func:`artifact.polysect.classify_point` evaluates.  The last line is the
total time, in seconds, of building the 152 sections and their integer
minors in this process.  Run it under two trees and diff the outputs:
every line but the last must be equal.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from artifact import polysect, symgrp


def builds():
    """``(key, build, args)`` of every letter of n <= 4 and of the four
    perturbed families of the acb section (n = 3)."""
    for n in (1, 2, 3, 4):
        for sigma in symgrp.all_permutations(n):
            if not sigma.is_identity():
                key = {"letter": symgrp.letter_name(sigma), "n": n}
                yield key, polysect.build_section, (sigma,)
    for kind in ("betaprime", "matrix_u"):
        for u in (None, Fraction(2, 5)):
            key = {"family": kind, "u": None if u is None else str(u)}
            yield key, polysect.build_perturbed_family, (kind, u)


def main() -> None:
    total = 0.0
    for key, build, args in builds():
        start = time.perf_counter()
        section = build(*args)
        minors = section._integer_minors
        total += time.perf_counter() - start
        line = key | {
            "weights": list(section.x_weights),
            "minors": [
                {
                    "degree": degree,
                    "terms": sorted([k, list(e), c, s] for k, e, c, s in terms),
                }
                for terms, degree in minors
            ],
        }
        print(json.dumps(line), flush=True)
    print(json.dumps({"build_s": round(total, 3)}))


if __name__ == "__main__":
    main()
