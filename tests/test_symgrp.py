import pytest

from artifact import symgrp
from artifact.symgrp import Permutation


def perm(*images):
    return Permutation(tuple(images))


class TestComposition:
    def test_convention_a_c_b(self):
        a = symgrp.letter_from_name(3, "a")
        b = symgrp.letter_from_name(3, "b")
        c = symgrp.letter_from_name(3, "c")
        acb = symgrp.compose(symgrp.compose(a, c), b)
        assert acb.images == (3, 1, 4, 2)

    def test_convention_a_b_a(self):
        a = symgrp.letter_from_name(2, "a")
        b = symgrp.letter_from_name(2, "b")
        aba = symgrp.compose(symgrp.compose(a, b), a)
        assert aba.images == (3, 2, 1)

    def test_identity_neutral(self):
        e = symgrp.identity(3)
        s = perm(2, 4, 1, 3)
        assert symgrp.compose(e, s) == s
        assert symgrp.compose(s, e) == s

    def test_inverse(self):
        s = perm(3, 1, 4, 2)
        assert symgrp.compose(s, symgrp.inverse(s)) == symgrp.identity(3)


class TestReducedWords:
    def test_reduced_word_roundtrip(self):
        for sigma in symgrp.all_permutations(3):
            w = symgrp.reduced_word(sigma)
            assert symgrp.from_word(3, w) == sigma
            assert len(w) == symgrp.inversions(sigma)

    def test_reduced_word_lex_least(self):
        for sigma in symgrp.all_permutations(3):
            words = symgrp.all_reduced_words(sigma)
            assert symgrp.reduced_word(sigma) == min(words)

    def test_eta_s3_has_two_reduced_words(self):
        eta = symgrp.longest_element(2)
        assert symgrp.all_reduced_words(eta) == {(1, 2, 1), (2, 1, 2)}

    def test_eta_s4_has_sixteen_reduced_words(self):
        eta = symgrp.longest_element(3)
        assert len(symgrp.all_reduced_words(eta)) == 16


class TestMult:
    def test_mult_acb(self):
        acb = symgrp.letter_from_name(3, "acb")
        assert symgrp.mult_vector(acb) == (2, 1, 2)

    def test_mult_longest(self):
        eta = symgrp.longest_element(2)
        assert symgrp.mult_vector(eta) == (2, 2)

    def test_permutation_from_mult_roundtrip(self):
        for n in (2, 3):
            for sigma in symgrp.all_permutations(n):
                m = symgrp.mult_vector(sigma)
                assert symgrp.permutation_from_mult(m, n) == sigma

    def test_unrealizable_mult(self):
        with pytest.raises(symgrp.NotARealizableMultVector):
            symgrp.permutation_from_mult((5, 0), 2)

    def test_r_bullet(self):
        assert symgrp.r_bullet(3) == 4
        assert [symgrp.r_bullet(n) for n in (2, 3, 4)] == [2, 4, 6]


class TestBruhat:
    def test_leq_reflexive_and_top(self):
        eta = symgrp.longest_element(2)
        for sigma in symgrp.all_permutations(2):
            assert symgrp.bruhat_leq(sigma, sigma)
            assert symgrp.bruhat_leq(sigma, eta)

    def test_covers_increase_length_by_one(self):
        for sigma in symgrp.all_permutations(3):
            for tau in symgrp.all_permutations(3):
                if symgrp.covers(sigma, tau):
                    assert (
                        symgrp.inversions(tau) == symgrp.inversions(sigma) + 1
                    )
                    assert symgrp.bruhat_leq(sigma, tau)


class TestWordSyntax:
    def test_bracket_grouping(self):
        word = symgrp.word_from_name(2, "a[ba]")
        assert len(word) == 2
        assert word[0] == symgrp.letter_from_name(2, "a")
        assert word[1] == symgrp.letter_from_name(2, "ba")

    def test_single_brackets(self):
        (w,) = symgrp.word_from_name(2, "[aba]")
        assert w == symgrp.longest_element(2)

    def test_plain_letters(self):
        word = symgrp.word_from_name(2, "aba")
        assert len(word) == 3

    def test_roundtrip_names(self):
        for text in ("a[ba]", "[aba]", "abab", "b[ab]"):
            word = symgrp.word_from_name(2, text)
            assert symgrp.word_name(word) == text

    def test_non_reduced_bracket_rejected(self):
        with pytest.raises(symgrp.NotReducedBracket):
            symgrp.word_from_name(2, "[aa]")

    @pytest.mark.parametrize("name", ["aa", "abab", "baba"])
    def test_non_reduced_letter_rejected(self, name):
        with pytest.raises(symgrp.NotReducedBracket):
            symgrp.letter_from_name(2, name)

    def test_empty_letter_rejected(self):
        with pytest.raises(ValueError):
            symgrp.letter_from_name(2, "")
