"""classify_point against sympy's Poly API on random rational points, and
its generic-point filter against its general path.

``classify_point`` reads a generic point from its minors' trailing zero
coefficients (the root t = 0), discriminants and exact sign changes; at
any other point it factors the minors and isolates the roots of all their
irreducible factors at once with ``dup_isolate_real_roots_list``, on the
domain (-1, 1) or, with ``domain=None``, on all of R.  The first checks
here go through a different code path (``Poly.count_roots``, ``sqf_part``,
``rem``, ``real_roots``).  The later ones run every point twice, once with
the filter forced to decline, and compare the answers; the last one
compares the two root sources on random integer polynomials times powers
of t.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from artifact import polysect, symgrp

FAMILIES = {
    "aba": polysect.build_section(symgrp.letter_from_name(2, "aba")),
    "acb": polysect.build_section(symgrp.letter_from_name(3, "acb")),
    "betaprime+": polysect.build_perturbed_family("betaprime", Fraction(2, 5)),
    "betaprime-": polysect.build_perturbed_family("betaprime", Fraction(-2, 5)),
}
LO, HI = Fraction(-1), Fraction(1)

coordinate = st.fractions(min_value=-1, max_value=1, max_denominator=64)


@st.composite
def family_points(draw, sections=FAMILIES):
    name = draw(st.sampled_from(sorted(sections)))
    section = sections[name]
    # scale each coordinate like its quasi-homogeneous weight (a symbolic
    # perturbation parameter has none), so that points near the letter's
    # stratum (the origin) are drawn often
    missing = len(section.point_vars) - len(section.x_weights)
    weights = section.x_weights + (0,) * missing
    scale = draw(st.sampled_from([1, 2, 4]))
    point = tuple(draw(coordinate) / scale ** w for w in weights)
    return name, point


def minors_at(section, point):
    t = section.t
    subs = dict(zip(section.point_vars, (sp.Rational(v) for v in point)))
    return [sp.Poly(m.subs(subs), t) for m in polysect.minors(section)]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=("aba", (Fraction(1, 3), Fraction(-1, 18))))
@example(case=("aba", (Fraction(0), Fraction(-1, 2))))
@example(case=("aba", (Fraction(-15, 32), Fraction(31, 1024))))
@given(case=family_points())
def test_classify_point_matches_sympy_poly(case):
    name, point = case
    section = FAMILIES[name]
    t = section.t
    try:
        cls = polysect.classify_point(section, point)
    except polysect.ZeroPolynomial:
        assert any(m.is_zero for m in minors_at(section, point))
        return
    ms = minors_at(section, point)

    # one event per distinct root of prod m_j strictly inside (-1, 1)
    square_free = sp.Poly(sp.sqf_part(sp.prod(m.as_expr() for m in ms)), t)
    inside = square_free.count_roots(-1, 1) - sum(
        1 for end in (-1, 1) if square_free.eval(end) == 0
    )
    assert len(cls.events) == inside

    for e in cls.events:
        h = sp.Poly(list(e.certificate), t)
        assert h.is_irreducible
        for m, k in zip(ms, e.mult):
            assert sp.rem(m, h ** k).is_zero
            assert not sp.rem(m, h ** (k + 1)).is_zero
        a, b = e.interval
        assert LO <= a <= b <= HI
        if a == b:
            assert e.root == a and LO < a < HI
            assert h.eval(sp.Rational(a)) == 0
        else:
            assert e.root is None
            assert h.eval(sp.Rational(a)) * h.eval(sp.Rational(b)) < 0
            (root,) = [r for r in h.real_roots() if a < r < b]
            # approx is the nearest double: within half a unit in its last place
            error = abs(sp.Float(e.approx, 30) - root.evalf(30))
            assert error <= math.ulp(e.approx) / 2

    for e1, e2 in zip(cls.events, cls.events[1:]):
        (a1, b1), (a2, b2) = e1.interval, e2.interval
        assert b1 <= a2 and (a1, b1) != (a2, b2)


@pytest.mark.parametrize("domain", [(Fraction(-1, 3), Fraction(1, 3)),
                                    (Fraction(-1, 2), Fraction(1, 3))])
def test_rational_roots_on_a_domain_end_are_dropped(domain):
    cls = polysect.classify_point(
        FAMILIES["aba"], (Fraction(1, 3), Fraction(-1, 18)), domain=domain
    )
    assert all(domain[0] < e.root < domain[1] for e in cls.events)
    assert len(cls.events) == (0 if domain[0] == Fraction(-1, 3) else 1)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=("aba", (Fraction(0), Fraction(-2))))
@example(case=("acb", (Fraction(1, 3), Fraction(-1, 3))))
@given(case=family_points())
def test_classify_point_on_all_of_r_matches_real_roots(case):
    name, point = case
    section = FAMILIES[name]
    try:
        cls = polysect.classify_point(section, point, domain=None)
    except polysect.ZeroPolynomial:
        assert any(m.is_zero for m in minors_at(section, point))
        return
    ms = minors_at(section, point)
    t = section.t
    square_free = sp.Poly(sp.sqf_part(sp.prod(m.as_expr() for m in ms)), t)
    assert len(cls.events) == square_free.count_roots()
    roots = [m.real_roots() for m in ms]
    for e in cls.events:
        a, b = (sp.Rational(end) for end in e.interval)
        inside = (lambda r: r == a) if a == b else (lambda r: a < r < b)
        assert e.mult == tuple(sum(1 for r in rs if inside(r)) for rs in roots)


def test_a_root_outside_the_domain_counts_only_on_all_of_r():
    # m_1 = t**2/2 - 2 vanishes at t = -2, 2 and m_2 = t**2/2 + 2 nowhere
    point = (Fraction(0), Fraction(-2))
    assert polysect.classify_point(FAMILIES["aba"], point).events == ()
    cls = polysect.classify_point(FAMILIES["aba"], point, domain=None)
    assert [(e.root, e.mult) for e in cls.events] == [
        (Fraction(-2), (1, 0)), (Fraction(2), (1, 0)),
    ]
    assert cls.label == "aa"


# ---------------------------------------------------------------------------
# the generic-point filter against the general path
# ---------------------------------------------------------------------------

SECTIONS = {
    **FAMILIES,  # "aba" (n = 2) and "acb" are two of the order letters
    # u is a coordinate: at u = 0 the t**3 terms of m_1 and m_3 vanish
    "betaprime-u": polysect.build_perturbed_family("betaprime"),
    **{
        f"{name}/3": polysect.build_section(symgrp.letter_from_name(3, name))
        for name in ("aba", "bcb", "cba", "bac", "abc")
    },
}
DOMAINS = [None, (LO, HI)]


@st.composite
def section_points(draw):
    return *draw(family_points(SECTIONS)), draw(st.sampled_from(DOMAINS))


def outcome(section, point, domain):
    try:
        return polysect.classify_point(section, point, domain=domain)
    except (polysect.ZeroPolynomial, polysect.UnrecognizedMultPattern) as exc:
        return type(exc)


def general_path(section, point, domain):
    with mock.patch.object(polysect, "_simple_roots", lambda polys, domain: None):
        return outcome(section, point, domain)


DECLINED = [
    # m_1 = (t**2 - 1) / 2: roots on both ends of (-1, 1)
    ("aba", (Fraction(0), Fraction(-1, 2)), (LO, HI)),
    # m_1 has a double root at -5/2: no letter has the mult vector (2, 0, 0)
    ("betaprime+", (Fraction(1), Fraction(-25, 24)), None),
    ("betaprime+", (Fraction(1), Fraction(-25, 24)), (LO, HI)),
    # m_1 = m_3 = t**2/2 - 1/8 share both roots
    ("acb", (Fraction(1, 8), Fraction(-1, 8)), None),
    ("acb", (Fraction(1, 8), Fraction(-1, 8)), (LO, HI)),
]
READ = [
    ("aba", (Fraction(0), Fraction(-1, 2)), None),
    # 2t**2 - 1 and 2t**2 - 4t + 1 (discriminant 8 each): the brackets
    # (-b -+ (isqrt(8) + {0, 1})) / 2a would be (1/4, 1/2) and (1/2, 3/4),
    # which touch; read with 32 more bits they are disjoint
    ("aba", (Fraction(-1), Fraction(-1, 4)), None),
    ("aba", (Fraction(-1), Fraction(-1, 4)), (LO, HI)),
    # m_3 = -(t**3 + 3t + 3) / 3: negative discriminant, one real root
    ("cba/3", (Fraction(1, 2), Fraction(-1, 2)), None),
    # m_3 = -(4t**3 - 24t + 3) / 24: positive discriminant, three real roots
    ("cba/3", (Fraction(1, 8), Fraction(1)), None),
    ("cba/3", (Fraction(1, 8), Fraction(1)), (LO, HI)),
    # m_1 and m_3 lose their t**3 terms at u = 0
    ("betaprime-u", (Fraction(1, 3), Fraction(-1, 5), Fraction(0)), None),
]

# Near the double root of m_1 at -5/2, as (case, declines)
CLOSE_ROOTS = [
    # m_1 has two roots 2**-43.5 apart, closer than 4096 units in the last
    # place: no bracket around the float guesses holds just one
    (("betaprime+", (Fraction(1), Fraction(-25, 24) + Fraction(1, 2**90)), None), True),
    # m_1's two roots lie 2**-9.5 apart, and each certifies only at 64
    # units in the last place
    (("betaprime+", (Fraction(1), Fraction(-25, 24) + Fraction(1, 2**20)), None), False),
]


def check_same_answer(name, point, domain):
    section = SECTIONS[name]
    fast, exact = outcome(section, point, domain), general_path(section, point, domain)
    if isinstance(exact, type):
        assert fast is exact
        return
    assert fast.label == exact.label
    assert [e.mult for e in fast.events] == [e.mult for e in exact.events]
    assert [e.root for e in fast.events] == [e.root for e in exact.events]
    assert [e.certificate for e in fast.events] == [e.certificate for e in exact.events]
    t = section.t
    for e in fast.events:
        if e.root is not None:
            assert e.approx == float(e.root)
            continue
        h = sp.Poly(list(e.certificate), t)
        a, b = e.interval
        (root,) = [r for r in h.real_roots() if a < r < b]
        error = abs(sp.Float(e.approx, 30) - root.evalf(30))
        assert error <= math.ulp(e.approx) / 2


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=DECLINED[0])
@example(case=DECLINED[1])
@example(case=DECLINED[3])
@example(case=READ[1])
@example(case=READ[3])
@example(case=READ[4])
@example(case=READ[6])
@given(case=section_points())
def test_filter_matches_the_general_path(case):
    check_same_answer(*case)


@pytest.mark.parametrize(
    "case, declines",
    [(c, True) for c in DECLINED] + [(c, False) for c in READ] + CLOSE_ROOTS,
)
def test_filter_declines_only_non_generic_points(case, declines):
    name, point, domain = case
    polys = polysect._minors_at(SECTIONS[name], point)
    assert (polysect._simple_roots(polys, domain) is None) == declines
    check_same_answer(*case)


@st.composite
def integer_polynomials(draw):
    """A primitive integer polynomial of degree 0 to 4 with a positive
    leading coefficient, its roots scaled by 2**s for s up to 64."""
    degree = draw(st.integers(0, 4))
    p = [draw(st.integers(1, 10**6))]
    p += [draw(st.integers(-(10**6), 10**6)) for _ in range(degree)]
    s = draw(st.integers(0, 64))
    p = [c << (s * i) for i, c in enumerate(p)]
    g = math.gcd(*p)
    return [c // g for c in p]


@settings(max_examples=300, deadline=None)
@example(p=[7])
@example(p=[1, -(2**60) - 1])  # a rational root beyond 2**52
@example(p=[1, 0, -(2**121)])  # roots +-2**60.5
@example(p=[1, -(2**62) - 2**61, 2**123, 0])  # 0, 2**61 and 2**62
@example(p=[1, 22885555, 0, -1])  # roots -22885555.00 and +-0.000209
@example(p=[1, -3, 3, -1])  # (t - 1)**3
@example(p=[1, 0, 0, -(10**400)])  # no float coefficients
# three roots 10**-6 apart: the float guesses need not separate them
@example(p=[10**12, -3 * 10**12, 3 * 10**12 - 1, -(10**12) + 1])
@example(p=[10**6, -3 * 10**6, 3 * 10**6, -(10**6) + 1])  # one root near 1
# coefficients over 24 orders of magnitude: roots 10**12, 1 and 10**-12
@example(p=[10**12, -(10**24) - 10**12 - 1, 10**24 + 10**12 + 1, -(10**12)])
@example(p=[1, 10**15, 0, -1])  # -10**15 and +-10**-7.5
@example(p=[1, 10**15, 10**30, 1])  # one real root near -10**-30
@given(p=integer_polynomials())
def test_brackets_of_integer_polynomials(p):
    poly = sp.Poly(p, sp.Symbol("t"))
    read = polysect._brackets(p)
    if poly.degree() > 3 or poly.degree() >= 2 and poly.discriminant() == 0:
        assert read is None
        return
    if read is None:
        # a cubic whose coefficients are no floats, or some root of which
        # the float guesses do not place within 4096 units in the last
        # place: here three roots 10**-6 apart, or the one real root of
        # t**3 + 10**15 t**2 + 10**30 t + 1
        assert poly.degree() == 3
        return
    den, pairs = read
    brackets = [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs]
    assert len(brackets) == poly.count_roots()
    for (_, hi), (lo, _) in zip(brackets, brackets[1:]):
        assert hi < lo
    for lo, hi in brackets:
        if lo == hi:
            assert poly.eval(sp.Rational(lo)) == 0
        else:
            assert lo < hi
            assert poly.eval(sp.Rational(lo)) * poly.eval(sp.Rational(hi)) < 0


@st.composite
def minors_times_powers_of_t(draw):
    """One to three integer polynomials, each a random polynomial of degree
    0 to 3 with small coefficients (so that rational, multiple and shared
    roots occur) times t**k, k up to 3; and a domain."""
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        p = [draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))]
        p += [draw(st.integers(-6, 6)) for _ in range(draw(st.integers(0, 3)))]
        polys.append(p + [0] * draw(st.integers(0, 3)))
    domain = draw(st.sampled_from([None, (LO, HI), (Fraction(-1, 2), Fraction(3, 2))]))
    return polys, domain


@settings(max_examples=300, deadline=None)
@example(case=([[1, 0, 0], [8, -1, 0]], None))  # t**2 and t (8t - 1)
@example(case=([[1, 0, -2, 0], [1, -3, 2, 0, 0]], (LO, HI)))
@example(case=([[2, 0, -1, 0]], (Fraction(0), HI)))  # t = 0 on an end
@given(case=minors_times_powers_of_t())
def test_simple_roots_match_the_isolated_roots(case):
    polys, domain = case
    simple = polysect._simple_roots(polys, domain)
    if simple is None:
        return
    isolated = polysect._isolated_roots(polys, domain)
    assert [m for m, _, _ in simple] == [m for m, _, _ in isolated]
    t = sp.Symbol("t")
    square_free = sp.Poly(sp.sqf_part(sp.prod(sp.Poly(p, t) for p in polys)), t)
    for (mult, bracket, p), (_, _, g) in zip(simple, isolated):
        fast = polysect.ExactEvent(None, mult, _bracket=bracket, _factor=p)
        exact = polysect.ExactEvent(None, mult, _bracket=bracket, _factor=g)
        assert fast.root == exact.root
        lo, hi = fast.interval
        # the bracket holds one root of the minors, and it is a root of g
        if lo == hi:
            assert square_free.eval(sp.Rational(lo)) == 0
            assert sp.Poly(g, t).eval(sp.Rational(lo)) == 0
        else:
            assert square_free.count_roots(lo, hi) == 1
            assert sp.Poly(g, t).count_roots(lo, hi) == 1
