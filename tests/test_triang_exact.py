"""The exact Lo1 algebra of ``triang``: positivity is certified in the field
of the entries (``QQ``, whatever Python type carries a rational, or an
algebraic field), and the zero tests that need cancellation are exact."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import symgrp, triang

ETA_WORDS = [
    (n, word)
    for n in (1, 2, 3)
    for word in sorted(symgrp.all_reduced_words(symgrp.longest_element(n)))
]
RATIONAL_TYPES = [Fraction, sp.Rational]

positive = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))
nonpositive = st.builds(Fraction, st.integers(-30, 0), st.integers(1, 30))


def as_type(kind, values):
    return [kind(v.numerator, v.denominator) for v in values]


class TestPositiveFactorization:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(ETA_WORDS),
        kind=st.sampled_from(RATIONAL_TYPES),
        data=st.data(),
    )
    def test_roundtrip_and_order(self, case, kind, data):
        n, word = case
        t = as_type(kind, data.draw(st.lists(positive, min_size=len(word),
                                             max_size=len(word))))
        L = triang.product_along(n, word, t)
        got = triang.factor_along(L, word)
        assert got == tuple(t)
        assert all(type(v) is Fraction for v in got)
        assert triang.is_ll(triang.identity_matrix(n), L)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(ETA_WORDS),
        kind=st.sampled_from(RATIONAL_TYPES),
        data=st.data(),
    )
    def test_nonpositive_parameter_is_rejected(self, case, kind, data):
        n, word = case
        t = data.draw(st.lists(positive, min_size=len(word), max_size=len(word)))
        k = data.draw(st.integers(0, len(word) - 1))
        t[k] = data.draw(nonpositive)
        L = triang.product_along(n, word, as_type(kind, t))
        with pytest.raises(triang.NotFactorizable):
            triang.factor_along(L, word)

    def test_integer_entries(self):
        # ints divide in QQ, not as floats
        L = [[1, 0, 0], [7, 1, 0], [15, 3, 1]]
        assert triang.factor_along(L, (1, 2, 1)) == (2, 3, 5)

    @pytest.mark.parametrize("kind", RATIONAL_TYPES)
    def test_negative_middle_parameter(self, kind):
        t = as_type(kind, [Fraction(2), Fraction(-3), Fraction(5)])
        L = [[kind(v) for v in row] for row in triang.product_along(2, (1, 2, 1), t)]
        with pytest.raises(triang.NotFactorizable, match="nonpositive parameter -3$"):
            triang.factor_along(L, (1, 2, 1))
        assert not triang.is_ll(triang.identity_matrix(2), L)

    @pytest.mark.parametrize("kind", [int, Fraction, sp.Integer])
    def test_accessibility_needs_total_positivity(self, kind):
        L = [[kind(v) for v in row] for row in [[1, 0, 0], [1, 1, 0], [3, 1, 1]]]
        with pytest.raises(triang.NotTotallyPositive, match="parameter -2$"):
            triang.accessibility_quasiproduct(L, (1, 2))


class TestAlgebraicPositivity:
    # sqrt(2) puts the algebra in sympy's EX domain, beyond QQ

    def test_nonpositive_parameter_is_rejected(self):
        L = triang.product_along(2, (1, 2, 1), (sp.sqrt(2), -1, 1))
        with pytest.raises(triang.NotFactorizable, match="nonpositive parameter -1$"):
            triang.factor_along(L, (1, 2, 1))
        assert not triang.is_ll(triang.identity_matrix(2), L)

    def test_positive_parameters(self):
        t = (sp.sqrt(2), 1, sp.sqrt(2) - 1)
        L = triang.product_along(2, (1, 2, 1), t)
        assert triang.factor_along(L, (1, 2, 1)) == t
        assert triang.is_ll(triang.identity_matrix(2), L)
        assert triang.is_leq(triang.identity_matrix(2), L)

    def test_undecidable_sign_is_not_a_no(self):
        x = sp.Symbol("x")
        L = triang.product_along(2, (1, 2, 1), (x, 1, 1))
        for decide in (triang.is_ll, triang.is_leq):
            with pytest.raises(ValueError, match="cannot decide") as info:
                decide(triang.identity_matrix(2), L)
            assert not isinstance(info.value, triang.NotFactorizable)
        assert triang.factor_along(L, (1, 2, 1), require_positive=False) == (x, 1, 1)

    def test_accessibility_needs_total_positivity(self):
        # along (1, 2, 1) the parameters are sqrt(2) - 3, 1 and 3
        L = [[1, 0, 0], [sp.sqrt(2), 1, 0], [3, 1, 1]]
        with pytest.raises(triang.NotTotallyPositive,
                           match=r"nonpositive parameter -3 \+ sqrt\(2\)$"):
            triang.accessibility_quasiproduct(L, (1, 2))
        L[2][0] = 1  # sqrt(2) - 1, 1 and 1
        assert triang.accessibility_quasiproduct(L, (1, 2)).c1 == sp.sqrt(2) - 1

    def test_accessibility_skips_an_undecidable_sign(self):
        x = sp.Symbol("x")
        L = triang.product_along(2, (1, 2, 1), (x, 1, 1))
        assert triang.accessibility_quasiproduct(L, (1, 2)).c1 == x


class TestExactZeroTests:
    x = sp.Symbol("x")
    # (x**2 - 1)/(x - 1) - x - 1 is zero only after cancelling x - 1
    hidden_zero = (x**2 - 1) / (x - 1) - x - 1

    def test_degenerate_sum_after_cancellation(self):
        x = self.x
        with pytest.raises(triang.DegenerateSum):
            triang.commute_identity(1, (x**2 - 1) / (x - 1), 1, -(x + 1))

    def test_symbolic_commute_identity(self):
        x = self.x
        assert triang.commute_identity(1, x, 1, 1) == (1 / (x + 1), x + 1, x / (x + 1))

    def test_cell_of_a_hidden_identity(self):
        L = triang.identity_matrix(2)
        L[2][0] = self.hidden_zero
        assert triang.cell_of_unitriangular(L) == symgrp.identity(2)

    def test_inverse_of_a_hidden_identity(self):
        assert triang.mat_inv([[1, self.hidden_zero], [0, 1]]) == [[1, 0], [0, 1]]


class TestRejections:
    def test_residual_after_peeling(self):
        L = [[Fraction(v) for v in row] for row in [[1, 0, 0], [-2, 1, 0], [-2, -2, 1]]]
        with pytest.raises(triang.NotFactorizable, match="residual"):
            triang.factor_along(L, (1, 2))

    def test_word_not_reduced(self):
        with pytest.raises(ValueError, match="not reduced"):
            triang.factor_along(triang.exp_nilpotent(2, 1), (1, 1))

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            triang.jacobi(2, 3, 1)

    def test_prefix_length(self):
        qp = triang.accessibility_quasiproduct(triang.exp_nilpotent(2, 1), (1, 2))
        with pytest.raises(ValueError, match="prefix length"):
            qp.g(2, ())
