"""Acceptance criteria, one test per numbered criterion.

Each test asserts both the mathematical content and the stated wall-clock
budget.  Budgets are generous on purpose: they guard against algorithmic
regressions (e.g. falling back from exact arithmetic to search), not
against machine noise.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from artifact import curvelab, polysect, poset, spinalg, symgrp, triang


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


def letter(n, name):
    return symgrp.letter_from_name(n, name)


def section_curve(section, point, t0=-1.0, t1=1.0, samples=201):
    mfun = polysect.matrix_path(section, point)
    ts = np.linspace(t0, t1, samples)
    return curvelab.frame_curve_from_matrix_path(section.n, mfun, ts)


ABA_LABELS = {
    "[aba]", "a[ba]", "[ba]a", "b[ab]", "[ab]b", "aa", "abab", "baba", "bb",
}
ACB_LABELS = {
    "[acb]", "[ac]b[ac]", "a[cb]a", "c[ab]c", "acbca", "cabac",
    "aba", "cbc", "b", "[ab]", "[cb]",
}

# label sets shared between criteria 2-4 and criterion 7
_collected_labels = []  # list of (word-name, letter-mult-cap, n)


def _oracle_label_set(sigma, radii_exponents=(4, 6), count=9):
    """Stable classification labels around the origin of a section."""
    section = polysect.build_section(sigma)
    weights = section.x_weights or (1,) * len(section.x_vars)
    per_radius = []
    for k in radii_exponents:
        labels = {"[" + symgrp.letter_name(sigma) + "]"
                  if symgrp.inversions(sigma) > 1 else symgrp.letter_name(sigma)}
        for pt in polysect.weighted_grid_points(Fraction(1, 2**k), count, weights):
            labels.add(polysect.classify_point(section, pt).label)
        per_radius.append(labels)
    return set.intersection(*per_radius)


class TestCriterion1ExactFormulas:
    def test_aba(self):
        with budget(1.0):
            section = polysect.build_section(letter(2, "aba"))
            t = section.t
            x1, x2 = section.x_vars
            m1, m2 = polysect.minors(section)
            assert sp.expand(m1 - (t**2 / 2 + x2)) == 0
            assert sp.expand(m2 - (t**2 / 2 + t * x1 - x2)) == 0
            d1, d2 = polysect.discriminants(section)
            assert sp.expand(d1 + 2 * x2) == 0
            assert sp.expand(d2 - (x1**2 + 2 * x2)) == 0
            r12 = polysect.resultants(section)[(1, 2)]
            assert sp.simplify(r12 - (-d1 * d2 / 4)) == 0

    def test_acb(self):
        with budget(1.0):
            section = polysect.build_section(letter(3, "acb"))
            t = section.t
            x1, x2 = section.x_vars
            m1, m2, m3 = polysect.minors(section)
            assert sp.expand(m1 - (t**2 / 2 + x2)) == 0
            assert sp.expand(m2 + t) == 0
            assert sp.expand(m3 - (t**2 / 2 - x1)) == 0
            d = polysect.discriminants(section)
            assert sp.expand(d[0] + 2 * x2) == 0
            assert sp.expand(d[2] - 2 * x1) == 0
            r13 = polysect.resultants(section)[(1, 3)]
            assert sp.simplify(r13 - (x1 + x2) ** 2 / 4) == 0

    def test_betaprime(self):
        with budget(1.0):
            u = sp.Symbol("u")
            fam = polysect.build_perturbed_family("betaprime", None)
            t = fam.t
            x1, x2 = fam.x_vars
            m1 = polysect.minors(fam)[0]
            assert sp.expand(m1 - (u * t**3 / 3 + t**2 / 2 + x2)) == 0
            d1 = polysect.discriminants(fam)[0]
            assert sp.simplify(d1 - (-x2 * (6 * u**2 * x2 + 1) / 2)) == 0
            r13 = polysect.resultants(fam)[(1, 3)]
            expected = u / 108 * (
                4 * u**2 * (x2 - x1) ** 3 + 9 * (x1 + x2) ** 2
            )
            assert sp.simplify(r13 - expected) == 0


class TestCriterion2StratumMaps:
    def test_both_figures(self):
        with budget(5.0):
            got_aba = _oracle_label_set(letter(2, "aba"))
            assert got_aba == ABA_LABELS
            got_acb = _oracle_label_set(letter(3, "acb"))
            assert got_acb == ACB_LABELS
            # the boundary label on x2 = -x1, x1 > 0
            acb = polysect.build_section(letter(3, "acb"))
            cls = polysect.classify_point(
                acb, (Fraction(1, 12), Fraction(-1, 12))
            )
            assert cls.label == "[ac]b[ac]"
            for name in got_aba:
                _collected_labels.append((name, (2, 2), 2))
            for name in got_acb:
                _collected_labels.append((name, (2, 1, 2), 3))


class TestCriterion3Hasse:
    def test_nine_words_and_covers(self):
        with budget(30.0):
            aba = letter(2, "aba")
            words = poset.letter_oracle_section(aba)
            assert {symgrp.word_name(w) for w in words} == ABA_LABELS
            oracle = poset.oracle_from_sections(2)
            g = poset.hasse(words, oracle, n=2)
            assert g.graph["unknown_pairs"] == []
            expected = {
                ("a[ba]", "[aba]"), ("[ba]a", "[aba]"),
                ("b[ab]", "[aba]"), ("[ab]b", "[aba]"),
                ("aa", "a[ba]"), ("aa", "[ba]a"),
                ("bb", "b[ab]"), ("bb", "[ab]b"),
                ("abab", "a[ba]"), ("abab", "[ab]b"),
                ("baba", "[ba]a"), ("baba", "b[ab]"),
            }
            assert set(g.edges) == expected


class TestCriterion4HrAsymmetry:
    def test_betaprime_grids(self):
        with budget(120.0):
            points = polysect.grid_points(Fraction(1, 5), 100)
            out = {}
            for key, u in (("plus", Fraction(2, 5)),
                           ("minus", Fraction(-2, 5)),
                           ("zero", Fraction(0))):
                fam = polysect.build_perturbed_family("betaprime", u)
                labels = set()
                for pt in points:
                    cls = polysect.classify_point(fam, pt)
                    labels.add(cls.label)
                    _collected_labels.append((cls.label, (2, 1, 2), 3))
                out[key] = labels
            assert "acbac" in out["plus"] and "cabca" not in out["plus"]
            assert "cabca" in out["minus"] and "acbac" not in out["minus"]
            # at u = 0 the minors are even in t, so every word is a
            # palindrome: acbac/cabca cannot occur, but both one-sided
            # neighbours do, witnessing that the split is a u != 0 effect
            assert "acbac" not in out["zero"] and "cabca" not in out["zero"]
            assert "acbca" in out["zero"] and "cabac" in out["zero"]


class TestCriterion5UInvariant:
    def test_four_values(self):
        with budget(10.0):
            for u in (Fraction(2, 5), Fraction(-2, 5),
                      Fraction(1, 10), Fraction(-1, 10)):
                fam = polysect.build_perturbed_family("betaprime", u)
                curve = section_curve(fam, (0, 0), t0=-0.5, t1=0.5)
                got = curvelab.u_invariant(curve, 0.0)
                assert abs(got - float(u)) < 1e-9


class TestCriterion6EndpointLaw:
    def test_fifty_random_words(self):
        with budget(180.0):
            rng = random.Random(20260823)
            pools = {}
            for n in (2, 3, 4):
                pools[n] = [
                    s for s in symgrp.all_permutations(n)
                    if 1 <= symgrp.inversions(s) <= 3
                ]
            for _ in range(50):
                n = rng.choice([2, 3, 4])
                ell = rng.randint(1, 4)
                word = tuple(rng.choice(pools[n]) for _ in range(ell))
                # verify=True re-extracts the itinerary and raises unless
                # it equals the requested word exactly
                curve = curvelab.curve_with_itinerary(word, n=n, verify=True)
                end = curve(curve.ts[-1])
                q = spinalg.q_of_word(word, n).to_float()
                diff = max(
                    (abs(float(c)) for _, c in (end - q).terms), default=0.0
                )
                assert diff < 1e-6, symgrp.word_name(word)


class TestCriterion7MultMonotonicity:
    def test_grid_labels(self):
        # labels harvested by criteria 2-4 (falls back to recomputing the
        # small sets if this test runs in isolation)
        if not _collected_labels:
            for name in _oracle_label_set(letter(2, "aba")):
                _collected_labels.append((name, (2, 2), 2))
            for name in _oracle_label_set(letter(3, "acb")):
                _collected_labels.append((name, (2, 1, 2), 3))
        violations = 0
        for name, cap, n in _collected_labels:
            word = symgrp.word_from_name(n, name) if name != "()" else ()
            total = poset.mult_of_word(word, n)
            if any(a > b for a, b in zip(total, cap)):
                violations += 1
        assert violations == 0

    def test_random_perturbations_of_single_letters(self):
        # 10^3 random rational perturbations in the transversal sections
        # of single letters; each perturbed curve is a perturbation of
        # the central model curve of that letter
        rng = random.Random(99)
        violations = 0
        for sigma_name, n in (("aba", 2), ("acb", 3)):
            sigma = letter(n, sigma_name)
            cap = symgrp.mult_vector(sigma)
            section = polysect.build_section(sigma)
            weights = section.x_weights or (1, 1)
            for _ in range(500):
                pt = tuple(
                    Fraction(rng.randint(-64, 64), 64 * 16) ** 1
                    * Fraction(1, 1)
                    if w == 1
                    else Fraction(rng.randint(-64, 64), 64 * 256)
                    for w in weights
                )
                try:
                    cls = polysect.classify_point(section, pt)
                except polysect.ZeroPolynomial:
                    continue
                total = poset.mult_of_word(cls.word, n)
                if any(a > b for a, b in zip(total, cap)):
                    violations += 1
        assert violations == 0


class TestCriterion8GroupAlgebra:
    def test_exact_identities(self):
        with budget(30.0):
            # acute reduced-word independence, exhaustively for n <= 3
            for n in (2, 3):
                for sigma in symgrp.all_permutations(n):
                    vals = set()
                    for w in symgrp.all_reduced_words(sigma):
                        z = spinalg.CliffordEven.one(n)
                        for i in w:
                            z = z * spinalg.alpha_exact(n, i, +1)
                        vals.add(z.terms)
                    assert len(vals) == 1
            # all 16 reduced words of eta in S_4
            eta = symgrp.longest_element(3)
            words = symgrp.all_reduced_words(eta)
            assert len(words) == 16
            vals = set()
            for w in words:
                z = spinalg.CliffordEven.one(3)
                for i in w:
                    z = z * spinalg.alpha_exact(3, i, +1)
                vals.add(z.terms)
            assert len(vals) == 1
            # alpha_j(2 pi) = -1, exactly, via quarter turns
            for n in (2, 3, 4):
                minus_one = spinalg.CliffordEven.make(
                    n, {(): spinalg.QSqrt2(-1)}
                )
                for j in range(1, n + 1):
                    q = spinalg.alpha_exact(n, j, +1)
                    z = q * q * q * q
                    assert z.terms == minus_one.terms
            # hat(sigma) in Quat, exhaustively for n <= 4
            for n in (2, 3, 4):
                quat = {z.terms for z in spinalg.quat_elements(n)}
                for sigma in symgrp.all_permutations(n):
                    assert spinalg.hat(sigma).terms in quat


class TestCriterion9Accessibility:
    def test_closed_forms_and_sampling(self):
        with budget(30.0):
            x, y, z, t1, t2 = sp.symbols("x y z t1 t2", positive=True)
            L = [[1, 0, 0], [x, 1, 0], [z, y, 1]]
            c = triang.factor_along(L, (1, 2, 1), require_positive=False)
            assert [sp.simplify(v) for v in c] == [x - z / y, y, z / y]
            ct = triang.factor_along(L, (2, 1, 2), require_positive=False)
            assert [sp.simplify(v) for v in ct] == [z / x, x, y - z / x]
            c1, c2, c3 = x - z / y, y, z / y
            qp2 = triang.accessibility_quasiproduct(L, (1, 2))
            assert sp.simplify(qp2.g(2, (t1,)) - c2 * c3 / (c1 + c3 - t1)) == 0
            qp3 = triang.accessibility_quasiproduct(L, (1, 2, 1))
            assert sp.simplify(
                qp3.g(3, (t1, t2)) - c2 * (c1 - t1) / (c2 - t2)
            ) == 0

            # rational instance x=7, y=3, z=15
            L7 = [[1, 0, 0],
                  [Fraction(7), 1, 0],
                  [Fraction(15), Fraction(3), 1]]
            assert triang.factor_along(L7, (1, 2, 1)) == (
                Fraction(2), Fraction(3), Fraction(5))
            assert triang.factor_along(L7, (2, 1, 2)) == (
                Fraction(15, 7), Fraction(7), Fraction(6, 7))

            # quasiproduct soundness: 10^3 interior points, zero failures
            qp = triang.accessibility_quasiproduct(L7, (1, 2, 1))
            rng = random.Random(17)
            failures = 0
            for _ in range(1000):
                t = []
                for j in range(1, 4):
                    g = qp.g(j, tuple(t))
                    t.append(g * Fraction(rng.randint(1, 31), 32))
                prod = triang.product_along(2, (1, 2, 1), t)
                if not triang.is_ll(prod, L7):
                    failures += 1
            assert failures == 0
            # a boundary point (t_3 = g_3) fails the strict order
            t = []
            for j in range(1, 3):
                t.append(qp.g(j, tuple(t)) * Fraction(1, 2))
            t.append(qp.g(3, tuple(t)))
            prod = triang.product_along(2, (1, 2, 1), t)
            assert not triang.is_ll(prod, L7)


class TestCriterion10FrenetCircle:
    def test_circle(self):
        with budget(5.0):
            kappas = [math.pi * math.sqrt(j * (3 - j)) for j in (1, 2)]
            curve = curvelab.integrate_frame(2, kappas)
            for t in np.linspace(0.0, 1.0, 21):
                got = np.array(curve.matrix(float(t)))[:, 0]
                want = 0.5 * np.array([
                    1 + math.cos(2 * math.pi * t),
                    math.sqrt(2) * math.sin(2 * math.pi * t),
                    1 - math.cos(2 * math.pi * t),
                ])
                assert np.max(np.abs(got - want)) < 1e-8
            assert curvelab.singular_set(curve, grid=512) == ()


class TestCriterion11HausdorffContinuity:
    def test_perturbation_medians(self):
        with budget(120.0):
            rng = random.Random(4)
            # generic points in open strata: all minor roots simple and
            # well separated, so the perturbed singular sets move smoothly
            bases = [
                (polysect.build_section(letter(2, "aba")),
                 (Fraction(1, 3), Fraction(-1, 8))),
                (polysect.build_section(letter(3, "acb")),
                 (Fraction(1, 9), Fraction(1, 11))),
            ]
            for section, pt in bases:
                base_curve = section_curve(section, pt)
                base_sing = curvelab.singular_set(base_curve, grid=256)
                assert base_sing  # nonempty to begin with
                medians = []
                for eps in (1e-2, 1e-3, 1e-4):
                    dists = []
                    for _ in range(5):
                        angle = rng.uniform(0, 2 * math.pi)
                        delta = (
                            Fraction(round(eps * math.cos(angle) * 10**7), 10**7),
                            Fraction(round(eps * math.sin(angle) * 10**7), 10**7),
                        )
                        qt = tuple(a + b for a, b in zip(pt, delta))
                        curve = section_curve(section, qt)
                        sing = curvelab.singular_set(curve, grid=256)
                        assert sing, "nonempty singular set became empty"
                        dists.append(curvelab.hausdorff(base_sing, sing))
                    dists.sort()
                    medians.append(dists[len(dists) // 2])
                assert medians[0] > medians[1] > medians[2]
