import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import curvelab, polysect, spinalg, symgrp, triang


def circle_kappas(n):
    return [math.pi * math.sqrt(j * (n + 1 - j)) for j in range(1, n + 1)]


def section_curve(section, point, t0=-1.0, t1=1.0, samples=201):
    mfun = polysect.matrix_path(section, point)
    ts = np.linspace(t0, t1, samples)
    return curvelab.frame_curve_from_matrix_path(section.n, mfun, ts)


class TestIntegrateFrame:
    def test_circle(self):
        curve = curvelab.integrate_frame(2, circle_kappas(2))
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
            curvelab.integrate_frame(2, [1.0, -1.0])

    def test_circle_itinerary_empty(self):
        curve = curvelab.integrate_frame(2, circle_kappas(2))
        assert curvelab.itinerary(curve, grid=512) == ()

    @pytest.mark.parametrize("n", [3, 4])
    def test_convex_arc_itinerary_empty(self, n):
        # as for n = 2 above: exp(t pi h) is convex on the open interval
        # (0, 1); every minor vanishes at both ends, and the noise roots
        # next to them are not events
        curve = curvelab.integrate_frame(n, circle_kappas(n))
        assert curvelab.singular_events(curve) == []

    @pytest.mark.parametrize("n, t0", [(2, 0.0), (3, -0.7), (4, 8190.0)])
    def test_starts_exactly_at_one(self, n, t0):
        curve = curvelab.integrate_frame(n, circle_kappas(n), t0=t0, t1=t0 + 1)
        assert curve(t0) == spinalg.Spinor.one(n)


class TestStackedConstantCurvature:
    """A constant-curvature curve decomposes its curvature bivector once
    and reads every stack of times from that one decomposition."""

    def test_one_decomposition_per_curve(self, monkeypatch):
        calls = {"_modes": 0, "clifford_exp": 0}
        for attr in calls:
            inner = getattr(spinalg, attr)

            def counted(*args, attr=attr, inner=inner):
                calls[attr] += 1
                return inner(*args)

            monkeypatch.setattr(spinalg, attr, counted)
        curve = curvelab.integrate_frame(3, circle_kappas(3), t1=2.5)
        events = curvelab.singular_events(curve)
        assert [symgrp.letter_name(ev.letter) for ev in events] == ["abacba"] * 2
        assert calls == {"_modes": 1, "clifford_exp": 0}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_exponential_of_each_time(self, n):
        kappas = [0.7 + j for j in range(n)]
        t0 = -0.3
        curve = curvelab.integrate_frame(n, kappas, t0=t0, t1=2.0)
        A = spinalg._a_sum(n, kappas)
        for t in np.linspace(t0, 2.0, 9).tolist():
            want = spinalg.clifford_exp(A.scale(t - t0))
            assert np.abs(curve(t).v - want.v).max() < 1e-13

    def test_curve_without_frames_projects_its_spinor_stack(self):
        # without frames the frames are the projections of the spinor
        # stack, read by one spinors call per stack
        calls = []

        def spinors(ts):
            calls.append(len(ts))
            return spinalg.exp_h(2, math.pi * ts)

        curve = curvelab.FrameCurve(2, (0.0, 1.0), spinors)
        stack = np.linspace(0.0, 1.0, 9)
        got = curve.matrix(stack)
        assert calls == [9]
        want = spinalg._project_float(2, spinalg.exp_h(2, math.pi * stack))
        assert np.array_equal(got, want)
        circle = curvelab.integrate_frame(2, circle_kappas(2)).minors(stack)
        assert np.abs(curve.minors(stack) - circle).max() < 1e-13

    def test_lost_phase_is_not_unit(self):
        curve = curvelab.integrate_frame(2, circle_kappas(2), t1=1e300)
        assert curve.minors([0.0, 1.0]).shape == (2, 2)
        with pytest.raises(spinalg.NotUnit):
            curve.minors([0.0, 1e300])


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

    @pytest.mark.parametrize("amp", [1e-16, 4e-16])
    @pytest.mark.parametrize("name", ["a[cba]", "[cba]a[cba][aba]"])
    def test_time_from_least_multiplicity(self, name, amp):
        # frames with rounding-size noise: the sign changes of the order-3
        # minor of [cba] scatter by ~1e-8, those of its simple minor do not
        word = symgrp.word_from_name(3, name)
        curve = curvelab.curve_with_itinerary(word, n=3)
        wobble = amp * np.sin(np.arange(16.0) + 1.0).reshape(4, 4)

        def frames(ts):
            exact = spinalg._project_float(3, curve.spinors(ts))
            return exact + np.sin(1e7 * ts)[:, None, None] * wobble

        noisy = curvelab.FrameCurve(3, curve.ts, curve.spinors, frames)
        events = curvelab.singular_events(noisy)
        assert [ev.letter for ev in events] == list(word)
        for j, ev in enumerate(events):
            if any(m % 2 for m in ev.mult):
                assert abs(ev.time - (j + 1) / (len(word) + 1)) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="dip-only events between grid points above the dip trigger "
        "are missed: six of the ten [aba] events are found",
    )
    def test_fast_circle_has_ten_events(self):
        # kappa = 10.5 h: the exact itinerary is ten [aba] at t = m / 10.5
        curve = curvelab.integrate_frame(2, [10.5 * math.pi * math.sqrt(2)] * 2)
        events = curvelab.singular_events(curve)
        assert [symgrp.letter_name(ev.letter) for ev in events] == ["aba"] * 10
        for m, ev in enumerate(events, 1):
            assert abs(ev.time - m / 10.5) < 1e-6


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
            2, (0.0, 0.4 * math.pi), lambda ts: spinalg.exp_h(2, ts)
        )
        assert curvelab.is_convex_arc(curve)

    @pytest.mark.parametrize("t1, convex", [(1.0, False), (0.99, True)])
    def test_circle_is_convex_short_of_one_turn(self, t1, convex):
        curve = curvelab.integrate_frame(2, circle_kappas(2), t1=t1)
        assert curvelab.is_convex_arc(curve) is convex


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
            curve = curvelab.curve_with_itinerary(word, n=2)
            got = curvelab.itinerary(curve, grid=512)
            assert [g.images for g in got] == [w.images for w in word]

    def test_endpoint_law(self):
        word = symgrp.word_from_name(2, "abab")
        curve = curvelab.curve_with_itinerary(word, n=2)
        end = curve(1.0)
        q = spinalg.q_of_word(word, 2)
        assert triang._spin_distance(end, q.to_float()) < 1e-8

    def test_acb_word(self):
        word = symgrp.word_from_name(3, "a[cb]a")
        curve = curvelab.curve_with_itinerary(word, n=3)
        got = curvelab.itinerary(curve, grid=512)
        assert [g.images for g in got] == [w.images for w in word]


class TestSignedCellLaw:
    """Between events j and j + 1 a synthesized curve lies in the signed
    open cell ``q_j Bru_{acute eta}`` of its word table."""

    @pytest.mark.parametrize("n, seed", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_signed_cell_between_events(self, n, seed):
        import random

        rng = random.Random(seed)
        pool = [
            s for s in symgrp.all_permutations(n) if 1 <= symgrp.inversions(s) <= 3
        ]
        for _ in range(6):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            curve = curvelab.curve_with_itinerary(word, n=n, verify=False)
            events = curvelab.singular_events(curve, grid=512)
            assert [ev.letter for ev in events] == list(word)
            table = spinalg.word_table(word, n)
            bounds = [curve.t0] + [ev.time for ev in events] + [curve.t1]
            for q, lo, hi in zip(table.q, bounds, bounds[1:]):
                assert spinalg.signed_cell(curve((lo + hi) / 2)) == q


class TestEvaluatorContract:
    """Building a curve evaluates only what its evaluator needs: the arc
    ends, no connector chart products, and ``ts`` are the segment ends."""

    @pytest.mark.parametrize("name, n", [("abab", 2), ("a[cb]a", 3), ("()", 2)])
    def test_build_without_verify(self, monkeypatch, name, n):
        calls = {"spin_exp_h": 0, "exp_h": 0, "_chart_product": 0}

        def spy(module, attr):
            inner = getattr(module, attr)

            def counted(*args):
                calls[attr] += 1
                return inner(*args)

            monkeypatch.setattr(module, attr, counted)

        spy(spinalg, "spin_exp_h")
        spy(spinalg, "exp_h")
        spy(curvelab, "_chart_product")
        word = symgrp.word_from_name(n, name)
        ell = len(word)
        curve = curvelab.curve_with_itinerary(word, n=n, verify=False)
        assert calls["spin_exp_h"] <= 2 * ell + 1
        assert calls["exp_h"] <= ell + 1  # one stack of two ends per arc
        assert calls["_chart_product"] == 0
        ts = curve.ts
        assert len(ts) == 2 * ell + 2
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert all(a < b for a, b in zip(ts, ts[1:]))


class TestPerLetterChartEnds:
    """The chart angles of a model arc's ends depend on its letter and r
    alone, and are read once per letter and r."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from([2, 3, 4]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sampled_from(
                        [s for s in symgrp.all_permutations(n) if not s.is_identity()]
                    ),
                    min_size=1,
                    max_size=3,
                ),
            )
        ),
        r=st.sampled_from([0.5, 0.25, 0.125]),
    )
    def test_match_the_word_table(self, case, r):
        # the arc of sigma_j starts at B(w, j) exp(-r c h) in the cell of
        # q_{j-1} and ends at B(w, j) exp(r c h) in the cell of q_j
        n, word = case
        table = spinalg.word_table(word, n)
        h = spinalg.h_bivector(n)
        for j, sigma in enumerate(word):
            B = table.integer[j + 1].to_float()
            got = curvelab._arc_end_charts(sigma, r)
            for k, (side, q) in enumerate(((-1, table.q[j]), (1, table.q[j + 1]))):
                end = B * spinalg.clifford_exp(h.scale(side * r * math.pi / 4))
                want = spinalg.positive_chart(q.to_float().reverse() * end)
                assert np.abs(np.array(got[k]) - want).max() < 1e-13

    def test_second_synthesis_reads_no_chart(self, monkeypatch):
        n = 3
        word = symgrp.word_from_name(n, "a[cb]ab")
        calls = []
        inner = spinalg.positive_chart

        def counted(z):
            calls.append(z)
            return inner(z)

        monkeypatch.setattr(spinalg, "positive_chart", counted)
        curvelab._arc_end_charts.cache_clear()
        first = curvelab.curve_with_itinerary(word, n=n)
        assert len(calls) == 2 * len(set(word))  # two ends per letter
        del calls[:]
        second = curvelab.curve_with_itinerary(word, n=n)
        assert calls == []
        stack = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(first.matrix(stack), second.matrix(stack))


class TestSynthesisLog:
    """``curve_with_itinerary`` logs its attempt and r at DEBUG only."""

    def test_attempt_and_r(self, caplog):
        caplog.set_level(logging.DEBUG, logger="artifact.curvelab")
        word = symgrp.word_from_name(2, "[ab][aba]")
        curvelab.curve_with_itinerary(word, times=[0.409, 0.429], n=2)
        curvelab.curve_with_itinerary(word, n=2)
        assert [rec.getMessage() for rec in caplog.records] == [
            "synthesized [ab][aba] on attempt 4, r = 0.0625",
            "synthesized [ab][aba] on attempt 1, r = 0.5",
        ]

    def test_silent_by_default(self, caplog, capsys):
        curvelab.curve_with_itinerary(symgrp.word_from_name(2, "ab"), n=2)
        assert caplog.records == []
        assert capsys.readouterr() == ("", "")


def _reference_curve(table, times, d, r):
    """``t -> Pi(z(t))`` of the construction of ``curve_with_itinerary``,
    one time at a time: ``project(B(w, j) clifford_exp(s c h))`` on the
    arcs, ``project`` of a Spinor chain of ``alpha`` on the connectors."""
    n = table.word[0].n
    c = math.pi / 4
    h = spinalg.h_bivector(n)
    eta_word = symgrp.reduced_word(symgrp.longest_element(n))
    qs = [q.to_float() for q in table.q]
    Bs = [b.to_float() for b in table.integer[1:-1]]

    def arc(j, s):
        return Bs[j] * spinalg.clifford_exp(h.scale(s * r * c))

    def chain(q, thetas):
        z = q
        for i, th in zip(eta_word, thetas):
            z = z * spinalg.alpha(n, i, float(th))
        return z

    def chart(q, z):
        return np.array(spinalg.positive_chart(q.reverse() * z))

    segments = []

    def connector(q, a, b, lo, hi):
        def z(t):
            return chain(q, a + (t - lo) / (hi - lo) * (b - a))

        segments.append((lo, hi, z))

    zeros = np.zeros(len(eta_word))
    connector(qs[0], zeros, chart(qs[0], arc(0, -1.0)), 0.0, times[0] - d)
    for j, tau in enumerate(times):
        segments.append(
            (tau - d, tau + d, lambda t, j=j, tau=tau: arc(j, (t - tau) / d))
        )
        a = chart(qs[j + 1], arc(j, 1.0))
        if j + 1 < len(times):
            b = chart(qs[j + 1], arc(j + 1, -1.0))
            connector(qs[j + 1], a, b, tau + d, times[j + 1] - d)
        else:
            b = np.array(curvelab._final_corner(n))
            connector(qs[j + 1], a, b, tau + d, 1.0)

    def frame(t):
        lo, hi, z = [seg for seg in segments if seg[0] <= t][-1]
        return spinalg.project(z(min(t, hi)))

    return frame


def synthesis_cases():
    def words(n):
        pool = [s for s in symgrp.all_permutations(n) if symgrp.inversions(s) >= 1]
        return st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(
            lambda w: (n, tuple(w))
        )

    n4 = st.just((4, symgrp.word_from_name(4, "a[dc]b")))
    return st.one_of(words(2), words(3), n4).flatmap(
        lambda case: st.tuples(
            st.just(case),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        )
    )


class TestStackedSynthesis:
    """A stack of times on a synthesized curve matches the construction
    read one time at a time, and equals ``B(w, j)`` at each arc centre."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=synthesis_cases())
    def test_stack_matches_pointwise_reference(self, case):
        (n, word), extra = case
        table = spinalg.word_table(word, n)
        ell = len(word)
        times = [(j + 1) / (ell + 1) for j in range(ell)]
        d, r = 1 / (3 * (ell + 1)), 0.5
        try:
            curve = curvelab._assemble_curve(table, times, d, r)
        except (spinalg.NotUnit, spinalg.NoRootInInterval):
            assume(False)  # curve_with_itinerary would halve r
        stack = np.array(sorted(extra + list(curve.ts) + times))
        got = curve.matrix(stack)
        frame = _reference_curve(table, times, d, r)
        want = np.array([frame(t) for t in stack.tolist()])
        assert np.abs(got - want).max() < 1e-13
        centres = np.searchsorted(stack, times)
        for j, k in enumerate(centres):
            B = spinalg.project(table.integer[j + 1].to_float())
            assert np.array_equal(got[k], B)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chart_product_is_the_spinor_chain(self, n):
        rng = np.random.default_rng(n)
        eta_word = symgrp.reduced_word(symgrp.longest_element(n))
        thetas = rng.uniform(-7.0, 7.0, (20, len(eta_word)))
        for q in spinalg.quat_elements(n)[:8]:
            got = curvelab._chart_product(n, q.to_float(), eta_word, thetas)
            for row, angles in zip(got, thetas):
                z = q.to_float()
                for i, th in zip(eta_word, angles):
                    z = z * spinalg.alpha(n, i, float(th))
                assert np.array_equal(row, z.v)


class TestUInvariant:
    def test_betaprime_value(self):
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        curve = section_curve(fam, (0, 0), t0=-0.5, t1=0.5, samples=201)
        u = curvelab.u_invariant(curve, 0.0)
        assert abs(u - 0.4) < 1e-9

    @pytest.mark.parametrize("t0, t1", [(-0.004, 0.5), (-0.5, 0.004)])
    def test_event_near_a_domain_end(self, t0, t1):
        # the incoming point t* - w/2 = -0.025, or the frame stencil
        # t* +- 5h = +-0.01, leaves the domain
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        curve = section_curve(fam, (0, 0), t0=t0, t1=t1)
        with pytest.raises(curvelab.NotAnAcbEvent):
            curvelab.u_invariant(curve, 0.0)

    def test_not_an_acb_event(self):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        curve = section_curve(section, (0, 0))
        with pytest.raises(curvelab.NotAnAcbEvent):
            curvelab.u_invariant(curve, 0.0)

    @pytest.mark.parametrize(
        "name, message",
        [("aba", r"mult \(2, 2, 0\), not"), ("abcb", r"mult \(3, 2, 2\), not")],
    )
    def test_other_letter_of_n3(self, name, message):
        # the letter is read from the minors' orders, not from a spinor
        section = polysect.build_section(symgrp.letter_from_name(3, name))
        curve = section_curve(section, [0] * len(section.x_vars))
        with pytest.raises(curvelab.NotAnAcbEvent, match=message):
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


class TestStackedMinors:
    """Frames and minors over a stack of times in one call; matrix paths
    read them from the QR factor and lift only when a spinor is asked for."""

    POINT = (Fraction(1, 3), Fraction(-1, 18))

    def aba_path(self):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        return polysect.matrix_path(section, self.POINT)

    def curves(self):
        return {
            "section": section_curve(
                polysect.build_section(symgrp.letter_from_name(2, "aba")),
                self.POINT,
            ),
            "word": curvelab.curve_with_itinerary(
                symgrp.word_from_name(3, "a[cb]a"), n=3, verify=False
            ),
            "constant": curvelab.integrate_frame(2, circle_kappas(2)),
            "half-turn": curvelab.frame_curve_from_matrix_path(
                2, self.half_turn_path, np.linspace(0.0, 1.0, 11)
            ),
        }

    @staticmethod
    def half_turn_path(t):
        """A turn about e_1 after the half-turn diag(-1, -1, 1): the first
        node has no Cayley lift."""
        c, s = np.cos(t), np.sin(t)
        return np.diag([-1.0, -1.0, 1.0]) @ [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]

    def test_no_lift_until_a_spinor_is_asked_for(self, monkeypatch):
        calls = []
        inner = triang._lift_rotation_step

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(triang, "_lift_rotation_step", counted)
        mfun = self.aba_path()
        ts = np.linspace(-1.0, 1.0, 201)
        curve = curvelab.frame_curve_from_matrix_path(2, mfun, ts)
        events = curvelab.singular_events(curve)
        assert [symgrp.letter_name(ev.letter) for ev in events] == ["ba", "a"]
        assert calls == []
        # the endpoint is still the continuous lift along the nodes
        qs = [triang.qr_positive(mfun(t))[0] for t in ts]
        want = triang._lift_rotation(2, qs[0])
        for prev, nxt in zip(qs, qs[1:]):
            want = want * inner(2, prev.T @ nxt)
        calls.clear()
        end = curve(1.0)
        assert len(calls) == len(ts) + 1  # the node chain, then one step per row
        curve.spinors(np.linspace(-1.0, 1.0, 5))
        assert len(calls) == len(ts) + 6
        assert triang._spin_distance(end, want) < 1e-12
        assert np.abs(spinalg.project(end) - curve.matrix(1.0)).max() < 1e-12

    @pytest.mark.parametrize("kind", ["section", "word", "constant"])
    def test_stack_equals_pointwise(self, kind):
        curve = self.curves()[kind]
        stack = np.linspace(curve.t0, curve.t1, 37)
        got = curve.minors(stack)
        assert got.shape == (37, curve.n)
        assert np.array_equal(got, np.array([curve.minors(t) for t in stack]))
        lifted = np.array(
            [curvelab.southwest_minors(spinalg.project(curve(t))) for t in stack]
        )
        assert np.abs(got - lifted).max() < 1e-12

    @pytest.mark.parametrize("kind", ["section", "word", "constant", "half-turn"])
    def test_spinor_stack_equals_each_time(self, kind):
        # each row of a stack is, bit for bit, the spinor of its time alone
        curve = self.curves()[kind]
        stack = np.linspace(curve.t0, curve.t1, 37)
        rows = curve.spinors(stack)
        assert rows.shape == (37, 2**curve.n)
        assert np.array_equal(rows, np.array([curve(t).v for t in stack]))
        projected = spinalg._project_float(curve.n, rows)
        assert np.abs(projected - curve.matrix(stack)).max() < 1e-12

    def test_out_of_domain_time_in_a_stack(self):
        curve = self.curves()["section"]
        with pytest.raises(ValueError) as scalar:
            curve(1.5)
        with pytest.raises(ValueError) as stacked:
            curve.minors([0.0, 0.5, 1.5, -0.25])
        assert str(stacked.value) == str(scalar.value)

    def test_non_finite_frame(self):
        mfun = self.aba_path()

        def broken(t):
            return np.full((3, 3), np.nan) if t == 0.25 else mfun(t)

        curve = curvelab.frame_curve_from_matrix_path(
            2, broken, np.linspace(-1.0, 1.0, 201)
        )
        assert curve.minors([0.0, 0.5]).shape == (2, 2)
        with pytest.raises(triang.NotARotation):
            curve.minors([0.0, 0.25, 0.5])
        with pytest.raises(triang.NotARotation):
            curve.minors(0.25)


class TestSlopeProbeNeighbours:
    @pytest.mark.parametrize(
        "point",
        [
            (Fraction(-1, 128), Fraction(0)),
            (Fraction(63, 128), Fraction(-31, 256)),
        ],
    )
    def test_close_events_are_both_classified(self, point):
        # events 1/64 and 1/128 apart: the slope probes of each must stop
        # short of the other's zeros
        aba = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        events = curvelab.singular_events(section_curve(aba, point))
        numeric = symgrp.word_name(tuple(ev.letter for ev in events))
        assert numeric == polysect.classify_point(aba, point).label


class TestStackedRefinement:
    @pytest.mark.parametrize(
        "name, n, point, label",
        [
            ("acb", 3, (Fraction(1, 9), Fraction(1, 11)), "cbc"),
            ("abcb", 3, (Fraction(1, 40), Fraction(-1, 300), Fraction(1, 2000)), "cca"),
            ("aba", 2, (Fraction(1, 3), Fraction(-1, 18)), "[ba]a"),
        ],
    )
    def test_calls_do_not_grow_with_the_brackets(self, monkeypatch, name, n, point, label):
        # every step refines all sign-change and dip brackets of all minors
        # in one call, so the count does not grow with them
        calls = spy_calls(monkeypatch, "minors")
        section = polysect.build_section(symgrp.letter_from_name(n, name))
        events = curvelab.singular_events(section_curve(section, point))
        assert symgrp.word_name(tuple(ev.letter for ev in events)) == label
        assert len(calls) <= 60

    @pytest.mark.parametrize(
        "name, n, point, label",
        [
            ("acb", 3, (Fraction(1, 9), Fraction(1, 11)), "cbc"),
            ("abcb", 3, (Fraction(1, 40), Fraction(-1, 300), Fraction(1, 2000)), "cca"),
            ("aba", 2, (Fraction(1, 3), Fraction(-1, 18)), "[ba]a"),
        ],
    )
    def test_interpolating_steps_budget(self, monkeypatch, name, n, point, label):
        # each curve carries a dip bracket beside its simple roots:
        # interpolating steps close them all in a handful of calls
        # (bisection and golden-section steps made 51 or 52)
        calls = spy_calls(monkeypatch, "minors")
        section = polysect.build_section(symgrp.letter_from_name(n, name))
        events = curvelab.singular_events(section_curve(section, point))
        assert symgrp.word_name(tuple(ev.letter for ev in events)) == label
        assert len(calls) <= 30

    def test_dip_only_budget(self, monkeypatch):
        # one [aba] event off the grid, seen only as dips of both minors
        # (golden-section steps made 49 calls)
        curve = curvelab.curve_with_itinerary("[aba]", n=2, times=[0.3], verify=False)
        calls = spy_calls(monkeypatch, "minors")
        events = curvelab.singular_events(curve)
        assert [(symgrp.letter_name(ev.letter), ev.mult) for ev in events] == [
            ("aba", (2, 2))
        ]
        assert abs(events[0].time - 0.3) < 1e-8
        assert len(calls) <= 24

    @pytest.mark.parametrize("T", [64.0, 4096.0])
    def test_bisection_far_from_zero(self, monkeypatch, T):
        # from |t| = 64 on, adjacent doubles are wider than the 1e-14
        # bracket width: a bracket stops once its midpoint rounds to an end
        aba = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        mfun = polysect.matrix_path(aba, (Fraction(1, 3), Fraction(-1, 18)))
        curve = curvelab.frame_curve_from_matrix_path(
            2, lambda t: mfun(t - T), np.linspace(T - 1, T + 1, 201)
        )
        calls = spy_calls(monkeypatch, "minors")
        events = curvelab.singular_events(curve)
        assert [symgrp.letter_name(ev.letter) for ev in events] == ["ba", "a"]
        assert len(calls) <= 60

    def test_u_invariant_reads_its_frames_in_one_call(self, monkeypatch):
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        curve = section_curve(fam, (0, 0), t0=-0.5, t1=0.5)
        calls = spy_calls(monkeypatch, "matrix")
        assert curvelab.u_invariant(curve, 0.0) == 0.3999999999921371
        assert len(calls) == 1

    @pytest.mark.parametrize("T", [4096.0, 8192.0, 2.0**20])
    def test_dip_event_far_from_zero(self, monkeypatch, T):
        # near 8192 adjacent doubles are 1.8e-12 apart, so a dip bracket
        # never gets 1e-12 narrow: the step cap must end its refinement
        aba = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        mfun = polysect.matrix_path(aba, (0, 0))
        curve = curvelab.frame_curve_from_matrix_path(
            2, lambda t: mfun(t - T), np.linspace(T - 1, T + 1.5, 201)
        )
        spy_calls(monkeypatch, "minors", limit=500)
        events = curvelab.singular_events(curve)
        assert [symgrp.letter_name(ev.letter) for ev in events] == ["aba"]
        assert abs(events[0].time - T) < 1e-6


class TestOrderReader:
    """One stacked read classifies every cluster of a curve, one rule reads
    every order, and an order that no rule accepts is a typed failure."""

    @pytest.mark.parametrize(
        "word, n, times, message",
        [
            ("[bacb][abcb][ab]", 3, [0.4329, 0.8656, 0.8768], "m_1 at t=0.4329"),
            ("[bcba]aa", 3, [0.3245, 0.688, 0.6996], "m_2 at t=0.3245"),
            ("[cbad][abacbadcba]", 4, [0.2481, 0.7783], "zero multiplicity"),
        ],
        ids=["inconsistent-slopes", "reaches-disagree", "zero-multiplicity"],
    )
    def test_unresolved_cluster(self, word, n, times, message):
        curve = curvelab.curve_with_itinerary(word, n=n, times=times, verify=False)
        with pytest.raises(curvelab.UnresolvedCluster, match=message):
            curvelab.singular_events(curve)

    def test_one_read_classifies_every_cluster(self, monkeypatch):
        curve = curvelab.curve_with_itinerary("a[cb]a[bc]", n=3, verify=False)
        calls = spy_calls(monkeypatch, "minors")
        refine, refined = curvelab._refine, []

        def counted(*args):
            out = refine(*args)
            refined.append(len(calls))
            return out

        monkeypatch.setattr(curvelab, "_refine", counted)
        events = curvelab.singular_events(curve)
        assert symgrp.word_name(tuple(ev.letter for ev in events)) == "a[cb]a[bc]"
        assert len(calls) - refined[0] == 1

    def test_u_invariant_reads_no_spinor(self, monkeypatch):
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        curve = section_curve(fam, (0, 0), t0=-0.5, t1=0.5)
        calls = spy_calls(monkeypatch, "__call__")
        lifts = []
        monkeypatch.setattr(triang, "_lift_rotation_step", lambda *a: lifts.append(a))
        assert curvelab.u_invariant(curve, 0.0) == 0.3999999999921371
        assert calls == [] and lifts == []

    @pytest.mark.xfail(raises=curvelab.PathNotAccessible, strict=True)
    @pytest.mark.parametrize("name", ["[abacbdcba]a", "[bdcba][cbd]"])
    def test_n4_two_letter_words(self, name):
        # every attempt (five r halvings) ends in a slope error at the
        # default times, though each letter alone synthesizes
        curve = curvelab.curve_with_itinerary(name, n=4)
        assert symgrp.word_name(curvelab.itinerary(curve)) == name


def spy_calls(monkeypatch, method, limit=None):
    """Record the stacks passed to ``FrameCurve.<method>``; raise after
    ``limit`` calls, so a refinement that never ends fails instead."""
    wrapped = getattr(curvelab.FrameCurve, method)
    calls = []

    def counted(curve, t):
        calls.append(t)
        if limit is not None and len(calls) > limit:
            raise RuntimeError(f"more than {limit} {method} calls")
        return wrapped(curve, t)

    monkeypatch.setattr(curvelab.FrameCurve, method, counted)
    return calls
