"""classify_point at non-generic points, and lazy certificates.

At a point that is not generic ``classify_point`` makes one sympy call,
which factors every minor over ZZ and isolates the real roots of the
irreducible factors, each with its multiplicity in each minor.  A root of
one factor may sit on an end of another root's bracket; the first tests pin
two points where that happens.  The exact ``root``, ``interval`` and
``certificate`` of an event are resolved on first read.  sympy's factors
are irreducible, and ``polysect`` itself factors only a generic point's
cubic minor; the last tests spy on the factoring entry point that
``polysect`` imports (sympy's isolation factors through its own).
"""

from fractions import Fraction

import pytest
import sympy as sp

from artifact import polysect, symgrp

ABA = polysect.build_section(symgrp.letter_from_name(2, "aba"))
ACB = polysect.build_section(symgrp.letter_from_name(3, "acb"))
BETAPRIME = polysect.build_perturbed_family("betaprime", Fraction(2, 5))


def test_linear_factor_on_a_bracket_end():
    # m_2 = t (8t - 1) / 16 meets the bracket (0, 1) of its root 1/8 at 0
    cls = polysect.classify_point(ABA, (Fraction(-1, 16), Fraction(0)))
    assert cls.label == "[ab]b"
    assert [(e.root, e.mult) for e in cls.events] == [
        (Fraction(0), (2, 1)), (Fraction(1, 8), (0, 1)),
    ]


def test_mirror_point():
    cls = polysect.classify_point(ABA, (Fraction(1, 64), Fraction(0)))
    assert cls.label == "b[ab]"


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []
    factor = polysect.dup_factor_list

    def spy(f, K):
        calls.append(list(f))
        return factor(f, K)

    monkeypatch.setattr(polysect, "dup_factor_list", spy)
    polysect._irreducible_factors.cache_clear()
    return calls


CASES = [
    (ABA, (Fraction(1, 3), Fraction(-1, 18))),
    (ABA, (Fraction(-1, 16), Fraction(0))),
    (ACB, (Fraction(1, 10), Fraction(-1, 10))),
    (ACB, (Fraction(1, 8), Fraction(-1, 50))),
    # m_1 = (20t^3 + 75t^2 - 3) / 150, irreducible
    (BETAPRIME, (Fraction(1, 20), Fraction(-1, 50))),
    # m_1 = (2t - 1)(8t^2 + 34t + 17) / 120: a rational and an irrational root
    (BETAPRIME, (Fraction(1, 20), Fraction(-17, 120))),
]


@pytest.mark.parametrize("section, point", CASES)
def test_certificates_are_resolved_on_first_read(section, point, factor_calls):
    cls = polysect.classify_point(section, point)
    cls.label, cls.word, [e.mult for e in cls.events]
    assert factor_calls == []

    t = section.t
    subs = dict(zip(section.point_vars, (sp.Rational(v) for v in point)))
    factors = [
        {tuple(int(c) for c in h.all_coeffs()): k
         for h, k in sp.Poly(m.subs(subs), t).factor_list()[1]}
        for m in polysect.minors(section)
    ]
    for e in cls.events:
        for j, k in enumerate(e.mult):
            assert factors[j].get(e.certificate, 0) == k
    assert all(len(f) >= 4 for f in factor_calls)


def test_each_cubic_factor_is_factored_once(factor_calls):
    cls = polysect.classify_point(BETAPRIME, (Fraction(1, 20), Fraction(-17, 120)))
    on_m1 = [e for e in cls.events if e.mult == (1, 0, 0)]
    assert [e.root for e in on_m1] == [None, Fraction(1, 2)]
    assert on_m1[0].certificate == (8, 34, 17)
    for e in cls.events:
        e.root, e.interval, e.certificate, e.approx
    # only the cubic factors of m_1 and m_3 are factored, each once
    resolved = len(factor_calls)
    assert resolved == 2 and factor_calls[0] != factor_calls[1]
    for e in cls.events:
        e.root, e.interval, e.certificate, e.approx
    assert len(factor_calls) == resolved
