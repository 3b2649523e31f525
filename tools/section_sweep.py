"""The exact section of every letter of n <= 4, one JSON line per letter.

    PYTHONPATH=src python3 tools/section_sweep.py

A line holds the letter (name and n), its section's quasi-homogeneous
weights and, per southwest minor, its degree in t and its integer terms
``[k, e, c, s]`` (``c * t**k * prod_l x_l**e_l``, ``s`` the total degree
missing from ``e``; see ``SectionFamily._integer_minors``), sorted.  These
are the terms :func:`artifact.polysect.classify_point` evaluates.  The last
line is the total time, in seconds, of building the 148 sections and their
integer minors in this process.  Run it under two trees and diff the
outputs: every line but the last must be equal.
"""

from __future__ import annotations

import json
import time

from artifact import polysect, symgrp


def main() -> None:
    total = 0.0
    for n in (1, 2, 3, 4):
        for sigma in symgrp.all_permutations(n):
            if sigma.is_identity():
                continue
            start = time.perf_counter()
            section = polysect.build_section(sigma)
            minors = section._integer_minors
            total += time.perf_counter() - start
            line = {
                "letter": symgrp.letter_name(sigma),
                "n": n,
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
