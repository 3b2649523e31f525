"""The partial order on itinerary words.

A word is a tuple of letters (non-identity permutations).  The order
``w0 prec w1`` holds when curves with itinerary ``w0`` exist arbitrarily
close to a curve with itinerary ``w1``.  It is decided here by the block
criterion: ``w0 prec w1`` iff ``w0`` splits into ``len(w1)`` consecutive
nonempty blocks with the i-th block preceding the one-letter word of the
i-th letter of ``w1``.  One-letter comparisons are delegated to a letter
oracle, implemented by classifying exact transversal sections
(:mod:`artifact.polysect`) on one weighted grid, with every real root
counted.  The empty word is isolated.

Answers are three-valued certificates (yes / no / unknown): the oracle
never guesses, and unknown letter comparisons propagate to ``unknown``
rather than to a wrong answer.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import polysect, spinalg, symgrp
from .symgrp import Permutation

__all__ = [
    "PrecCertificate",
    "mult_of_word",
    "necessary_conditions",
    "letter_oracle_section",
    "oracle_from_sections",
    "prec",
    "hasse",
    "hasse_dot",
    "hr_splitting_report",
]

Word = tuple  # tuple[Permutation, ...]


def mult_of_word(word: Sequence[Permutation], n: int) -> tuple:
    """Componentwise sum of the letter multiplicity vectors."""
    total = [0] * n
    for sigma in word:
        for k, m in enumerate(symgrp.mult_vector(sigma)):
            total[k] += m
    return tuple(total)


def necessary_conditions(
    w0: Sequence[Permutation], w1: Sequence[Permutation], n: int
) -> tuple[bool, list]:
    """Cheap necessary conditions for ``w0 prec w1``.

    Checks the endpoint law (equal ``q_of_word``), componentwise
    monotonicity of the total multiplicity vector, block-count
    feasibility (``len(w0) >= len(w1)`` for nonempty words) and the
    isolation of the empty word.  Returns (ok, list of failed reasons).
    """
    w0, w1 = tuple(w0), tuple(w1)
    reasons = []
    if (len(w0) == 0) != (len(w1) == 0):
        reasons.append("the empty word is isolated")
    if w0 and w1 and len(w0) < len(w1):
        reasons.append(
            f"too few letters to form {len(w1)} nonempty blocks"
        )
    (m0, q0), (m1, q1) = _invariants(w0, n), _invariants(w1, n)
    if any(a > b for a, b in zip(m0, m1)):
        reasons.append(
            f"multiplicity is upper semicontinuous but {m0} exceeds {m1}"
        )
    if q0 != q1:
        reasons.append("endpoint q_of_word differs")
    return (not reasons, reasons)


# (word, n) -> (mult_of_word, q_of_word terms), during one hasse call
_DIAGRAM_INVARIANTS: ContextVar = ContextVar("diagram_invariants", default=None)


def _invariants(word: Word, n: int) -> tuple:
    """``mult_of_word`` and the terms of ``q_of_word`` of ``word``, read
    once per word within one :func:`hasse` call."""
    memo = _DIAGRAM_INVARIANTS.get()
    memo = {} if memo is None else memo
    if (word, n) not in memo:
        memo[word, n] = mult_of_word(word, n), spinalg.q_of_word(word, n).terms
    return memo[word, n]


# ---------------------------------------------------------------------------
# Letter oracle from exact sections
# ---------------------------------------------------------------------------


def letter_oracle_section(sigma: Permutation) -> frozenset:
    """The set of words preceding the one-letter word ``(sigma,)``.

    The section of ``sigma`` is weighted-homogeneous: each southwest minor
    satisfies ``m_j(lam t, lam**w x) = lam**d_j m_j(t, x)``.  For
    ``lam > 0`` the minors at ``lam**w x`` have the roots of those at ``x``
    times ``lam``, with the same multiplicities, so the strata are cones.
    As ``lam -> 0`` every real root enters the domain (-1, 1), and the germ
    label of the ray through ``x`` is the label at ``x`` with every real
    root counted.  This classifies the weighted grid of 9**k points on the
    unit box (k the number of section parameters) with ``domain=None``,
    one point per ray (:func:`_ray`), and returns the words that occur.
    At most rays every zero of every minor off t = 0 is simple and no two
    minors share one, and :func:`artifact.polysect.classify_point` reads
    the label from the minors' trailing zero coefficients (the root t = 0,
    exactly), their discriminants and exact sign changes; only the rest
    (the few rays where a minor has a multiple zero off t = 0 or two
    minors share one) go through sympy's root isolation.  The one-letter
    word itself (the origin) is always included.

    The grid is finite, and a word whose stratum it misses is absent from
    the set: the oracle then answers a definite ``False`` for that word,
    where only a proof should say no.
    """
    section = polysect.build_section(sigma)
    rays: dict = {}
    for point in polysect.weighted_grid_points(1, 9, section.x_weights):
        rays.setdefault(_ray(point, section.x_weights), point)
    labels = {(sigma,)}
    for point in rays.values():
        labels.add(polysect.classify_point(section, point, domain=None).word)
    return frozenset(labels)


def _ray(point: Sequence[Fraction], weights: Sequence[int]) -> tuple:
    """An exact key of the ray ``{lam**w x : lam > 0}`` through ``point``:
    the sign pattern and the primitive integer vector proportional to
    ``|x_l|**(L/w_l)``, with ``L = lcm(w)``; each ``|x_l|**(L/w_l)`` scales
    by ``lam**L``.  Read in integers from the numerators and denominators.
    A section without parameters has the one point ``()``, whose ray is
    ``((), ())``."""
    L = math.lcm(*weights)
    powers = [(abs(x.numerator) ** (L // w), x.denominator ** (L // w))
              for x, w in zip(point, weights)]
    den = math.lcm(*(d for _, d in powers))
    nums = [n * (den // d) for n, d in powers]
    g = math.gcd(*nums) or 1
    signs = tuple((x.numerator > 0) - (x.numerator < 0) for x in point)
    return signs, tuple(v // g for v in nums)


def oracle_from_sections(n: int) -> Callable:
    """A memoized oracle ``(block, letter) -> True | False | None``.

    ``None`` (unknown) is returned when the section classification of
    the letter fails (e.g. an unrecognized multiplicity pattern).  Its
    ``letter_set(sigma)`` is the memoized :func:`letter_oracle_section`
    of ``sigma`` (``None`` when that fails), computed once per oracle.
    """
    cache: dict = {}

    def letter_set(sigma: Permutation):
        if sigma not in cache:
            try:
                cache[sigma] = letter_oracle_section(sigma)
            except (polysect.UnrecognizedMultPattern, polysect.ZeroPolynomial):
                cache[sigma] = None
        return cache[sigma]

    def oracle(block: Word, sigma: Permutation):
        if len(block) == 1 and block[0] == sigma:
            return True
        ok, _ = necessary_conditions(block, (sigma,), n)
        if not ok:
            return False
        s = letter_set(sigma)
        if s is None:
            return None
        return tuple(block) in s

    oracle.letter_set = letter_set
    return oracle


# ---------------------------------------------------------------------------
# The order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecCertificate:
    """Three-valued answer to ``w0 prec w1`` with evidence.

    ``status`` is ``"yes"``, ``"no"`` or ``"unknown"``; for yes,
    ``witness`` holds the block boundaries: ``w0[b_i:b_{i+1}]`` precedes
    letter i of ``w1``.
    """

    status: str
    witness: Optional[tuple] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == "yes"


def prec(
    w0: Sequence[Permutation],
    w1: Sequence[Permutation],
    oracle: Callable,
    n: int,
) -> PrecCertificate:
    """Decide ``w0 prec w1`` by the nonempty-block criterion.

    Dynamic program over cut positions; letter comparisons go through
    ``oracle(block, letter)`` which may answer ``None`` (unknown).
    """
    w0, w1 = tuple(w0), tuple(w1)
    if not w0 or not w1:
        if not w0 and not w1:
            return PrecCertificate("yes", witness=(), reason="both words empty")
        return PrecCertificate("no", reason="the empty word is isolated")
    ok, reasons = necessary_conditions(w0, w1, n)
    if not ok:
        return PrecCertificate("no", reason="; ".join(reasons))

    m, k = len(w0), len(w1)
    # state[(i, j)]: can w0[:i] be split into j blocks matching w1[:j]
    # values: "yes" with witness, or "unknown", or absent (no)
    yes_wit = {(0, 0): ()}
    unknown = set()
    for j in range(1, k + 1):
        sigma = w1[j - 1]
        for i in range(j, m + 1):
            best = None
            has_unknown = False
            for cut in range(j - 1, i):
                prev_yes = (cut, j - 1) in yes_wit
                prev_unknown = (cut, j - 1) in unknown
                if not prev_yes and not prev_unknown:
                    continue
                ans = oracle(w0[cut:i], sigma)
                if ans is True and prev_yes:
                    best = yes_wit[(cut, j - 1)] + (cut,)
                    break
                if ans is None or prev_unknown:
                    if ans is not False:
                        has_unknown = True
            if best is not None:
                yes_wit[(i, j)] = best
            elif has_unknown:
                unknown.add((i, j))
    if (m, k) in yes_wit:
        wit = yes_wit[(m, k)] + (m,)
        return PrecCertificate("yes", witness=wit)
    if (m, k) in unknown:
        return PrecCertificate("unknown", reason="oracle could not decide")
    return PrecCertificate("no", reason="no valid block split")


# ---------------------------------------------------------------------------
# Hasse diagrams
# ---------------------------------------------------------------------------


def hasse(words: Iterable[Word], oracle: Callable, n: int):
    """Directed Hasse diagram (transitive reduction) of ``prec`` on a set.

    Returns a networkx DiGraph whose nodes are word names.  Unknown
    comparisons are treated as absent edges but recorded in the graph
    attribute ``unknown_pairs``.  Within the call, the multiplicity vector
    and ``q_of_word`` of each word (and block) are read once.
    """
    import networkx as nx

    words = [tuple(w) for w in words]
    names = {w: symgrp.word_name(w) for w in words}
    g = nx.DiGraph()
    unknown_pairs = []
    for w in words:
        g.add_node(names[w])
    token = _DIAGRAM_INVARIANTS.set({})
    try:
        for a in words:
            for b in words:
                if a == b:
                    continue
                cert = prec(a, b, oracle, n=n)
                if cert.status == "yes":
                    g.add_edge(names[a], names[b])
                elif cert.status == "unknown":
                    unknown_pairs.append((names[a], names[b]))
    finally:
        _DIAGRAM_INVARIANTS.reset(token)
    red = nx.transitive_reduction(g)
    red.graph["unknown_pairs"] = sorted(unknown_pairs)
    return red


def hasse_dot(g) -> str:
    """Deterministic DOT serialization of a Hasse diagram."""
    lines = ["digraph hasse {"]
    for node in sorted(g.nodes):
        lines.append(f'  "{node}";')
    for a, b in sorted(g.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Splitting of the acb neighbourhood (failure of the naive expectation)
# ---------------------------------------------------------------------------


def hr_splitting_report(u: Fraction, count: int = 40) -> dict:
    """Label sets of the perturbed acb sections at ``+u``, ``-u`` and 0,
    classified on a count x count grid of radius 1/5.

    Demonstrates that the neighbourhood of an ``acb`` crossing splits:
    the words ``acbac`` and ``cabca`` occur on opposite sides of the
    modulus ``u`` and never together for ``u != 0``.
    """
    u = Fraction(u)
    out = {}
    for key, uval in (("plus", u), ("minus", -u), ("zero", Fraction(0))):
        fam = polysect.build_perturbed_family("betaprime", uval)
        labels = set()
        for point in polysect.grid_points(Fraction(1, 5), count):
            try:
                cls = polysect.classify_point(fam, point)
            except polysect.UnrecognizedMultPattern:
                continue
            labels.add(cls.label)
        out[key] = labels
    acbac, cabca = "acbac", "cabca"
    out["exclusive"] = not (
        (acbac in out["plus"] and cabca in out["plus"])
        or (acbac in out["minus"] and cabca in out["minus"])
    )
    return out
