"""The three benchmark workloads.

Each workload is a closed loop with one client: tasks run one after another
in one process.  A workload provides

* ``setup(lib)``: imports already done, builds what a CLI call would build
  before its first answer (sections, families, compiled evaluators);
* ``rounds(state, rng)``: an endless stream of rounds, each a list of tasks.
  A round has the same mix of task kinds on every seed, so a run that stops
  at a round boundary measures the same mix whatever the seed picked;
* ``run(state, task)``: one task; returns ``(output, problem)`` where
  ``output`` is JSON-able (it feeds the output digest) and ``problem`` is
  ``None`` or the reason the task's correctness check failed;
* ``trace_rate``: tasks of a traced run per second of ``--seconds``.

A task that ends in ``TaskFailed`` counts as failed, with its reason.

The library is called only through module attributes (``curvelab.x``,
never ``from curvelab import x``) so that the tracer's wrappers see every
call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class TaskFailed(Exception):
    """A known library defect ended the task; it counts as failed."""


def _word_name(lib, word) -> str:
    return lib.symgrp.word_name(tuple(word))


def _events_json(cls) -> list:
    return [
        [list(e.mult), str(e.interval[0]), str(e.interval[1])]
        for e in cls.events
    ]


# ---------------------------------------------------------------------------
# synth: criterion 6, synthesis plus the endpoint law
# ---------------------------------------------------------------------------


class Synth:
    """``curve_with_itinerary(word, n, verify=True)`` and the endpoint law.

    The letters come from the pool of letters with 1 to 3 inversions
    (criterion 6) for n = 2 (5 letters) and n = 3 (14 letters).  A round uses
    every letter of both pools once: the seed shuffles each pool and cuts it
    into words of lengths 2 and 3 (n = 2) and 1, 2, 3, 4, 4 (n = 3), in a
    seeded order.  Every round thus holds the same letters and word lengths,
    so its cost hardly depends on the seed.  n = 4 is left out: its words
    cost 5 to 8 s each depending on the letters, and a run holds too few of
    them to give a steady rate.
    """

    name = "synth"
    trace_rate = 0.15
    word_lengths = {2: (2, 3), 3: (1, 2, 3, 4, 4)}

    def setup(self, lib):
        pools = {
            n: [
                s for s in lib.symgrp.all_permutations(n)
                if 1 <= lib.symgrp.inversions(s) <= 3
            ]
            for n in self.word_lengths
        }
        for n, lengths in self.word_lengths.items():
            if sum(lengths) != len(pools[n]):
                raise RuntimeError(f"word lengths {lengths} do not cover the n={n} pool")
        return {"lib": lib, "pools": pools}

    def rounds(self, state, rng):
        while True:
            rnd = []
            for n, lengths in self.word_lengths.items():
                letters = list(state["pools"][n])
                rng.shuffle(letters)
                lengths = list(lengths)
                rng.shuffle(lengths)
                it = iter(letters)
                rnd += [(n, tuple(itertools.islice(it, k))) for k in lengths]
            yield rnd

    def run(self, state, task):
        lib = state["lib"]
        n, word = task
        curve = lib.curvelab.curve_with_itinerary(word, n=n, verify=True)
        end = curve(curve.ts[-1])
        q = lib.spinalg.q_of_word(word, n).to_float()
        diff = max((abs(float(c)) for _, c in (end - q).terms), default=0.0)
        output = {
            "word": _word_name(lib, word),
            "n": n,
            "samples": len(curve.ts),
            "endpoint": [
                [list(blade), round(float(c), 8) + 0.0] for blade, c in end.terms
            ],
        }
        problem = None
        if diff >= 1e-6:
            problem = f"endpoint law: |z(1) - q(w)| = {diff:.3g} for {output['word']}"
        return output, problem


# ---------------------------------------------------------------------------
# sections: numeric itinerary of section curves against exact classification
# ---------------------------------------------------------------------------

# criterion 11 base points; classifying them once compiles the evaluators
_SECTION_WARM = {"aba": (Fraction(1, 3), Fraction(-1, 8)),
                 "acb": (Fraction(1, 9), Fraction(1, 11))}


class Sections:
    """One seeded rational point of the ``aba`` (n=2) or ``acb`` (n=3)
    section: the section curve's numeric itinerary at the ``iti`` defaults
    must equal the exact ``classify_point`` label.

    A round is one point of each section.  Coordinate l is
    ``k/64 * (1/2)**w_l`` with k uniform in [-64, 64] and ``w_l`` the
    quasi-homogeneous weight, so the box scales like the section.  The
    curve is sampled as in ``artifact iti`` (t in [-1, 1], 201 samples).
    """

    name = "sections"
    trace_rate = 0.1

    def setup(self, lib):
        import numpy as np
        import sympy as sp

        cfg = lib.cli.RunConfig()
        sections = {}
        for name, n in (("aba", 2), ("acb", 3)):
            section = lib.polysect.build_section(lib.symgrp.letter_from_name(n, name))
            mfun = sp.lambdify((section.t,) + section.x_vars, section.M, "numpy")
            lib.polysect.classify_point(section, _SECTION_WARM[name])
            sections[name] = (section, mfun)
        return {
            "lib": lib, "cfg": cfg, "sections": sections,
            "ts": np.linspace(-1.0, 1.0, 201),
        }

    def rounds(self, state, rng):
        while True:
            rnd = []
            for name in ("aba", "acb"):
                section, _ = state["sections"][name]
                point = tuple(
                    Fraction(rng.randint(-64, 64), 64) * Fraction(1, 2) ** w
                    for w in section.x_weights
                )
                rnd.append((name, point))
            yield rnd

    def run(self, state, task):
        lib, cfg = state["lib"], state["cfg"]
        name, point = task
        section, mfun = state["sections"][name]
        values = [float(v) for v in point]
        curve = lib.curvelab.frame_curve_from_matrix_path(
            section.n, lambda t: mfun(t, *values), state["ts"]
        )
        try:
            events = lib.curvelab.singular_events(
                curve, grid=cfg.sing_grid, cluster_tol=cfg.cluster_tol,
                zero_rel=cfg.zero_rel,
            )
        except ValueError as exc:
            # Known defect: an event within the slope step of an end of
            # [-1, 1] makes singular_events evaluate the curve outside its
            # domain, and FrameCurve raises ValueError("t=... outside [...]").
            if not (str(exc).startswith("t=") and " outside [" in str(exc)):
                raise
            raise TaskFailed(f"singular_events probed {exc}") from exc
        numeric = _word_name(lib, [ev.letter for ev in events])
        exact = lib.polysect.classify_point(section, point)
        output = {
            "section": name,
            "point": [str(v) for v in point],
            "numeric": numeric,
            "exact": exact.label,
            "events": _events_json(exact),
        }
        problem = None
        if numeric != exact.label:
            problem = (
                f"{name} point ({', '.join(output['point'])}): numeric "
                f"{numeric} != exact {exact.label}"
            )
        return output, problem


# ---------------------------------------------------------------------------
# order: Hasse diagrams below one letter (artifact poset --below)
# ---------------------------------------------------------------------------

_ORDER_LETTERS = [(2, "aba")] + [
    (3, name) for name in ("acb", "aba", "bcb", "cba", "bac", "abc")
]
_ABA_COVERS = {
    ("a[ba]", "[aba]"), ("[ba]a", "[aba]"), ("b[ab]", "[aba]"),
    ("[ab]b", "[aba]"), ("aa", "a[ba]"), ("aa", "[ba]a"), ("bb", "b[ab]"),
    ("bb", "[ab]b"), ("abab", "a[ba]"), ("abab", "[ab]b"),
    ("baba", "[ba]a"), ("baba", "b[ab]"),
}


class Order:
    """``hasse(letter_oracle_section(s), oracle_from_sections(n))`` with a
    fresh oracle per diagram, as ``artifact poset --below s`` does.

    The letters are ``aba`` at n=2 and the six 3-inversion letters of n=3;
    a round is all seven in an order drawn by the seed.
    """

    name = "order"
    trace_rate = 0.2

    def setup(self, lib):
        import networkx  # noqa: F401  (hasse imports it on first call)

        letters = [
            (n, lib.symgrp.letter_from_name(n, name)) for n, name in _ORDER_LETTERS
        ]
        return {"lib": lib, "letters": letters}

    def rounds(self, state, rng):
        while True:
            rnd = list(state["letters"])
            rng.shuffle(rnd)
            yield rnd

    def run(self, state, task):
        lib = state["lib"]
        n, sigma = task
        oracle = lib.poset.oracle_from_sections(n)
        words = lib.poset.letter_oracle_section(sigma)
        g = lib.poset.hasse(words, oracle, n=n)
        top = _word_name(lib, (sigma,))
        output = {
            "n": n,
            "below": top,
            "words": sorted(_word_name(lib, w) for w in words),
            "covers": sorted(list(e) for e in g.edges),
            "unknown_pairs": [list(p) for p in g.graph["unknown_pairs"]],
        }
        problem = None
        tops = sorted(v for v in g.nodes if g.out_degree(v) == 0)
        if tops != [top]:
            problem = f"diagram below {top} (n={n}) has tops {tops}"
        elif n == 2 and set(g.edges) != _ABA_COVERS:
            problem = f"covers below [aba] differ from criterion 3: {output['covers']}"
        return output, problem


WORKLOADS = {w.name: w for w in (Synth(), Sections(), Order())}
