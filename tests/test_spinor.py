"""Differential tests of the dense float spinor backend against the exact
Q(sqrt 2) arithmetic of ``CliffordEven``."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import spinalg, symgrp
from artifact.spinalg import CliffordEven, QSqrt2, Spinor


def quarter_turn_words(n):
    return st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))), max_size=8
    )


@st.composite
def rank_and_word(draw):
    n = draw(st.integers(2, 4))
    return n, draw(quarter_turn_words(n))


@st.composite
def rank_and_angles(draw):
    n = draw(st.integers(2, 4))
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    gens = st.tuples(st.integers(1, n), angle)
    return n, draw(st.lists(gens, min_size=1, max_size=6)), draw(
        st.lists(gens, min_size=1, max_size=6)
    )


def max_diff(z, w):
    return max((abs(c) for _, c in (z.to_float() - w.to_float()).terms), default=0.0)


class TestAgainstExact:
    @settings(max_examples=200, deadline=None)
    @given(rank_and_word())
    def test_product_reverse_project(self, case):
        n, word = case
        exact = CliffordEven.one(n)
        dense = Spinor.one(n)
        for j, sign in word:
            exact = exact * spinalg.alpha_exact(n, j, sign)
            dense = dense * spinalg.alpha_exact(n, j, sign).to_float()
        assert isinstance(dense, Spinor)
        assert max_diff(dense, exact) < 1e-12
        assert max_diff(dense.reverse(), exact.reverse()) < 1e-12
        want = np.array([[float(x) for x in row] for row in spinalg.project(exact)])
        assert np.abs(spinalg.project(dense) - want).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(rank_and_angles())
    def test_project_is_a_homomorphism_into_so(self, case):
        n, left, right = case
        z = w = Spinor.one(n)
        for j, theta in left:
            z = z * spinalg.alpha(n, j, theta)
        for j, theta in right:
            w = w * spinalg.alpha(n, j, theta)
        Pz, Pw, Pzw = (spinalg.project(x) for x in (z, w, z * w))
        assert np.abs(Pzw - Pz @ Pw).max() < 1e-12
        assert np.abs(Pzw @ Pzw.T - np.eye(n + 1)).max() < 1e-12
        assert abs(np.linalg.det(Pzw) - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_product_equals_blade_by_blade_product(self, n, data):
        blades = spinalg._tables(n).blades
        coeff = st.one_of(st.just(0.0), st.floats(-2, 2, allow_nan=False))
        a, b = ({blade: data.draw(coeff) for blade in blades} for _ in range(2))
        got = (Spinor.from_terms(n, a) * Spinor.from_terms(n, b)).terms
        want = tuple(sorted(spinalg._terms_mul(a, b).items()))
        assert got == want


class TestSpinorApi:
    def test_terms_sorted_without_zeros(self):
        z = CliffordEven.make(3, {(3, 4): 0.5, (): 0.0, (1, 2): -0.25})
        assert isinstance(z, Spinor)
        assert z.terms == (((1, 2), -0.25), ((3, 4), 0.5))
        assert z.coefficient((2, 1)) == -0.25
        assert z.coefficient((1, 3)) == 0.0

    def test_exact_operand_mixes_in(self):
        z = spinalg.alpha(2, 1, 0.3)
        q = spinalg.acute(symgrp.longest_element(2))
        assert max_diff(q * z, q.to_float() * z) == 0.0
        assert max_diff(z - q, z - q.to_float()) == 0.0

    def test_not_unit(self):
        z = Spinor.from_terms(2, {(): 2.0})
        assert not z.is_unit()
        with pytest.raises(spinalg.NotUnit):
            z.inverse()
        with pytest.raises(spinalg.NotUnit):
            spinalg.project(z)

    def test_clifford_exp_matches_alpha(self):
        for theta in (0.0, 0.4, 2.5, -3.0):
            biv = Spinor.from_terms(3, {(2, 3): -theta / 2})
            exp = spinalg.clifford_exp(biv)
            assert max_diff(exp, spinalg.alpha(3, 2, theta)) < 1e-14

    def test_multiplication_matrices(self):
        z = spinalg.alpha(3, 1, 0.7) * spinalg.alpha(3, 3, -0.2)
        y = spinalg.alpha(3, 2, 1.1)
        assert np.abs(z.left_matrix() @ y.v - (z * y).v).max() < 1e-15


class TestQSqrt2Order:
    def test_large_pell_pair(self):
        # a**2 - 2 b**2 = 1, so a - b sqrt2 = 1 / (a + b sqrt2) > 0
        a, b = 3, 2
        for _ in range(12):
            a, b = 3 * a + 4 * b, 2 * a + 3 * b
        assert a * a - 2 * b * b == 1
        x = QSqrt2(a, -b)
        assert float(x) == 0.0  # floats cannot see the sign
        assert x > 0 and not x < 0
        assert -x < 0 and not -x > 0
        assert QSqrt2(a) > QSqrt2(0, b)
        assert QSqrt2(0, b) < QSqrt2(a)

    def test_signs(self):
        cases = {
            (0, 0): 0, (1, 0): 1, (0, -1): -1, (3, -2): 1, (-3, 2): -1,
            (1, -1): -1, (Fraction(-7, 5), 1): 1,
        }
        for (p, q), sign in cases.items():
            assert QSqrt2(p, q).sign() == sign
