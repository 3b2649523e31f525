"""The numeric itinerary against the exact section classification.

At a rational point of the ``aba`` (n=2) section, of the n=3 sections
with 2 to 5 parameters (``acb``, ``abcb``, ``abac``, ``bcba``, ``acba``,
``bacb``, ``bacba``, ``abacba``) or of the ``bdcb`` (n=4) section, the
itinerary that ``curvelab.singular_events`` reads off the section curve
must be the label ``polysect.classify_point`` computes exactly, unless the
numeric engine declines with :class:`curvelab.UnresolvedCluster`.  At
points of the ``aba`` and ``acb`` sections, every event where some minor
changes sign must also lie within 1e-13 of the exact root.  The curve is
sampled as in ``artifact iti``: t in [-1, 1], 201 lift nodes.
"""

from fractions import Fraction

import numpy as np
import sympy as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from artifact import curvelab, polysect, symgrp

SECTIONS = {
    name: polysect.build_section(symgrp.letter_from_name(n, name))
    for name, n in (
        ("aba", 2), ("acb", 3), ("abcb", 3), ("abac", 3), ("bcba", 3),
        ("acba", 3), ("bacb", 3), ("bacba", 3), ("abacba", 3), ("bdcb", 4),
    )
}
MFUNS = {
    name: sp.lambdify((s.t,) + s.x_vars, s.M, "numpy")
    for name, s in SECTIONS.items()
}


@st.composite
def section_points(draw, names=tuple(sorted(SECTIONS))):
    name = draw(st.sampled_from(names))
    # coordinate l is k/64 * 2**(-w_l s): the box scales like the section
    s = draw(st.sampled_from([0, 1, 2]))
    point = tuple(
        Fraction(draw(st.integers(-64, 64)), 64) / 2 ** (w * s)
        for w in SECTIONS[name].x_weights
    )
    return name, point


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=("aba", (Fraction(1, 3), Fraction(-1, 18))))
@example(case=("aba", (Fraction(0), Fraction(0))))
@example(case=("aba", (Fraction(31, 128), Fraction(1, 4))))
@given(case=section_points())
def test_numeric_itinerary_is_the_exact_label(case):
    name, point = case
    section = SECTIONS[name]
    values = [float(v) for v in point]
    curve = curvelab.frame_curve_from_matrix_path(
        section.n,
        lambda t: MFUNS[name](t, *values),
        np.linspace(-1.0, 1.0, 201),
    )
    exact = polysect.classify_point(section, point).label
    try:
        events = curvelab.singular_events(curve)
    except curvelab.UnresolvedCluster:
        return
    assert symgrp.word_name(tuple(ev.letter for ev in events)) == exact


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=("aba", (Fraction(1, 3), Fraction(-1, 18))))
@example(case=("aba", (Fraction(17, 32), Fraction(11, 16))))
@example(case=("acb", (Fraction(1, 9), Fraction(1, 11))))
@given(case=section_points(names=("aba", "acb")))
def test_sign_change_times_are_the_exact_roots(case):
    # an event where some minor changes sign is timed by a 1e-14 bracket
    # of a simple root: it must be the exact root, to 1e-13
    name, point = case
    section = SECTIONS[name]
    values = [float(v) for v in point]
    curve = curvelab.frame_curve_from_matrix_path(
        section.n,
        lambda t: MFUNS[name](t, *values),
        np.linspace(-1.0, 1.0, 201),
    )
    exact = polysect.classify_point(section, point).events
    events = curvelab.singular_events(curve)
    assert [ev.letter for ev in events] == [e.letter for e in exact]
    for ev, e in zip(events, exact):
        if any(m % 2 for m in ev.mult):
            assert abs(ev.time - e.approx) <= 1e-13
