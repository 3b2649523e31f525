import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from artifact import curvelab, polysect, spinalg, symgrp, triang


def circle_kappas(n):
    return [
        (lambda t, j=j: math.pi * math.sqrt(j * (n + 1 - j)))
        for j in range(1, n + 1)
    ]


def section_curve(section, point, t0=-1.0, t1=1.0, samples=201):
    subs = dict(zip(section.x_vars, [sp.Rational(p) for p in point]))
    mfun = sp.lambdify(section.t, section.M.subs(subs), "numpy")
    ts = np.linspace(t0, t1, samples)
    return curvelab.frame_curve_from_matrix_path(section.n, mfun, ts)


class TestIntegrateFrame:
    def test_circle(self):
        curve = curvelab.integrate_frame(2, circle_kappas(2), steps=800)
        for t in np.linspace(0, 1, 11):
            got = np.array(curve.matrix(float(t)))[:, 0]
            want = 0.5 * np.array(
                [
                    1 + math.cos(2 * math.pi * t),
                    math.sqrt(2) * math.sin(2 * math.pi * t),
                    1 - math.cos(2 * math.pi * t),
                ]
            )
            assert np.max(np.abs(got - want)) < 1e-8

    def test_positive_curvature_required(self):
        with pytest.raises(curvelab.NonPositiveCurvature):
            curvelab.integrate_frame(2, [lambda t: 1.0, lambda t: -1.0])

    def test_circle_itinerary_empty(self):
        curve = curvelab.integrate_frame(2, circle_kappas(2), steps=800)
        assert curvelab.itinerary(curve, grid=512) == ()


class TestFrenet:
    def test_circle_frame(self):
        def jet(t):
            col = 0.5 * np.array(
                [
                    1 + math.cos(2 * math.pi * t),
                    math.sqrt(2) * math.sin(2 * math.pi * t),
                    1 - math.cos(2 * math.pi * t),
                ]
            )
            d1 = math.pi * np.array(
                [
                    -math.sin(2 * math.pi * t),
                    math.sqrt(2) * math.cos(2 * math.pi * t),
                    math.sin(2 * math.pi * t),
                ]
            )
            d2 = 2 * math.pi**2 * np.array(
                [
                    -math.cos(2 * math.pi * t),
                    -math.sqrt(2) * math.sin(2 * math.pi * t),
                    math.cos(2 * math.pi * t),
                ]
            )
            return np.column_stack([col, d1, d2])

        ts = np.linspace(0, 1, 101)
        curve = curvelab.frenet_frame(jet, ts, 2)
        for t in (0.0, 0.3, 0.77):
            got = np.array(curve.matrix(t))[:, 0]
            assert np.max(np.abs(got - jet(t)[:, 0])) < 1e-8

    def test_degenerate_jet(self):
        def jet(t):
            return np.ones((3, 3))

        with pytest.raises(curvelab.DegenerateJet):
            curvelab.frenet_frame(jet, np.linspace(0, 1, 5), 2)


class TestSingularEvents:
    def test_aba_section_point(self):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        curve = section_curve(section, (Fraction(1, 3), Fraction(-1, 18)))
        events = curvelab.singular_events(curve, grid=512)
        got = [(ev.time, symgrp.letter_name(ev.letter)) for ev in events]
        assert [name for _, name in got] == ["ba", "a"]
        assert abs(got[0][0] - (-1 / 3)) < 1e-9
        assert abs(got[1][0] - (1 / 3)) < 1e-9

    def test_multiplicities(self):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        curve = section_curve(section, (0, 0))
        events = curvelab.singular_events(curve, grid=512)
        assert len(events) == 1
        assert events[0].mult == (2, 2)
        assert symgrp.letter_name(events[0].letter) == "aba"


class TestHausdorff:
    def test_empty_conventions(self):
        assert curvelab.hausdorff((), ()) == 0.0
        assert curvelab.hausdorff((), (0.5,)) == 1.0

    def test_symmetric(self):
        X, Y = (0.1, 0.9), (0.2,)
        assert curvelab.hausdorff(X, Y) == curvelab.hausdorff(Y, X)
        assert abs(curvelab.hausdorff(X, Y) - 0.7) < 1e-15


class TestConvexity:
    def test_short_exp_h_arc_is_convex(self):
        curve = curvelab.FrameCurve(
            2, (0.0, 0.4 * math.pi), lambda t: spinalg.spin_exp_h(2, t)
        )
        assert curvelab.is_convex_arc(curve, samples=6)


class TestCurveWithItinerary:
    def test_empty_word_is_circle(self):
        curve = curvelab.curve_with_itinerary((), n=2)
        assert curvelab.itinerary(curve, grid=512) == ()
        end = curve(1.0)
        minus_one = spinalg.CliffordEven.make(2, {(): -1.0})
        assert triang._spin_distance(end, minus_one) < 1e-9

    def test_single_letters(self):
        for name in ("a", "b", "[ab]"):
            word = symgrp.word_from_name(2, name)
            curve = curvelab.curve_with_itinerary(word, n=2, verify_grid=512)
            got = curvelab.itinerary(curve, grid=512)
            assert [g.images for g in got] == [w.images for w in word]

    def test_endpoint_law(self):
        word = symgrp.word_from_name(2, "abab")
        curve = curvelab.curve_with_itinerary(word, n=2, verify_grid=512)
        end = curve(1.0)
        q = spinalg.q_of_word(word, 2)
        assert triang._spin_distance(end, q.to_float()) < 1e-8

    def test_acb_word(self):
        word = symgrp.word_from_name(3, "a[cb]a")
        curve = curvelab.curve_with_itinerary(word, n=3, verify_grid=512)
        got = curvelab.itinerary(curve, grid=512)
        assert [g.images for g in got] == [w.images for w in word]


class TestEvaluatorContract:
    """Building a curve evaluates only what its evaluator needs: the arc
    ends, no connector chart products, and ``ts`` are the segment ends."""

    @pytest.mark.parametrize("name, n", [("abab", 2), ("a[cb]a", 3), ("()", 2)])
    def test_build_without_verify(self, monkeypatch, name, n):
        calls = {"spin_exp_h": 0, "_chart_product": 0}

        def spy(module, attr):
            inner = getattr(module, attr)

            def counted(*args):
                calls[attr] += 1
                return inner(*args)

            monkeypatch.setattr(module, attr, counted)

        spy(spinalg, "spin_exp_h")
        spy(curvelab, "_chart_product")
        word = symgrp.word_from_name(n, name)
        ell = len(word)
        curve = curvelab.curve_with_itinerary(word, n=n, verify=False)
        assert calls["spin_exp_h"] <= 2 * ell + 1
        assert calls["_chart_product"] == 0
        ts = curve.ts
        assert len(ts) == 2 * ell + 2
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert all(a < b for a, b in zip(ts, ts[1:]))


class TestUInvariant:
    def test_betaprime_value(self):
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        curve = section_curve(fam, (0, 0), t0=-0.5, t1=0.5, samples=201)
        u = curvelab.u_invariant(curve, 0.0)
        assert abs(u - 0.4) < 1e-9

    def test_not_an_acb_event(self):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        curve = section_curve(section, (0, 0))
        with pytest.raises(curvelab.NotAnAcbEvent):
            curvelab.u_invariant(curve, 0.0)


class TestSlopeProbeDomain:
    def test_event_near_the_end_of_the_domain(self):
        # an event within the slope step of t = -1: the probe must stay
        # inside [-1, 1] and classify the event
        aba = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        point = (Fraction(31, 128), Fraction(1, 4))
        curve = section_curve(aba, point)
        events = curvelab.singular_events(curve)
        assert events[0].time < -0.98
        numeric = symgrp.word_name(tuple(ev.letter for ev in events))
        assert numeric == polysect.classify_point(aba, point).label == "bb"
