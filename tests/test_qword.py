"""The endpoint ``q_of_word`` as a product in Quat_{n+1}, checked against
the exact word table and the literal product of spinors; the word table
checked against its literal recursion."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import polysect, spinalg, symgrp
from artifact.spinalg import CliffordEven, IdentityLetter


@functools.lru_cache(maxsize=None)
def letters(n):
    return tuple(p for p in symgrp.all_permutations(n) if not p.is_identity())


@st.composite
def rank_and_word(draw):
    n = draw(st.integers(2, 4))
    return n, tuple(draw(st.lists(st.sampled_from(letters(n)), max_size=6)))


class TestQOfWord:
    @settings(max_examples=60, deadline=None)
    @given(rank_and_word())
    def test_matches_word_table(self, nw):
        n, word = nw
        assert spinalg.q_of_word(word, n) == spinalg.word_table(word, n).integer[-1]

    @settings(max_examples=60, deadline=None)
    @given(rank_and_word())
    def test_matches_literal_product(self, nw):
        n, word = nw
        a_eta = spinalg.acute(symgrp.longest_element(n))
        z = a_eta
        for sigma in word:
            z = z * (spinalg.acute(sigma) * spinalg.grave(sigma).inverse())
        z = z * a_eta
        assert spinalg.q_of_word(word, n).terms == z.terms

    @pytest.mark.parametrize("fn", [spinalg.q_of_word, spinalg.word_table])
    def test_errors(self, fn):
        a = symgrp.coxeter_generator(2, 1)
        with pytest.raises(IdentityLetter):
            fn((a, symgrp.identity(2)), 2)
        with pytest.raises(ValueError) as exc:
            fn((a, symgrp.coxeter_generator(3, 1)))
        assert type(exc.value) is ValueError
        with pytest.raises(ValueError) as exc:
            fn(())
        assert type(exc.value) is ValueError

    def test_no_dense_product_when_warm(self, monkeypatch):
        n = 3
        word = symgrp.word_from_name(n, "a[cb]ab[ac]")
        words = [word, word[::-1] + word, word[1:]]
        expected = [spinalg.q_of_word(w, n) for w in words]

        def forbidden(*args):
            raise AssertionError("dense product after the caches are warm")

        monkeypatch.setattr(CliffordEven, "__mul__", forbidden)
        monkeypatch.setattr(spinalg, "_terms_mul", forbidden)
        assert [spinalg.q_of_word(w, n) for w in words] == expected

    def test_caches_bounded_by_group(self):
        n = 3
        spinalg._hat_cached.cache_clear()
        spinalg._endpoint_cached.cache_clear()
        pool = letters(n)
        for k in range(len(pool)):
            spinalg.q_of_word(pool[k:] + pool[:k], n)
            spinalg.q_of_word(pool[: k + 1], n)
        assert spinalg._hat_cached.cache_info().currsize <= math.factorial(n + 1) - 1
        assert spinalg._endpoint_cached.cache_info().currsize <= 2 ** (n + 1)


class TestWordTableRecursion:
    @settings(max_examples=40, deadline=None)
    @given(rank_and_word())
    def test_matches_literal_recursion(self, nw):
        # B(w, 0) = 1, B(w, 1/2) = acute(eta), B(w, j) = B(w, j - 1/2)
        # acute(sigma_j), B(w, j + 1/2) = B(w, j - 1/2) hat(sigma_j) and
        # B(w, l + 1) = B(w, l + 1/2) acute(eta), by dense products
        n, word = nw
        a_eta = spinalg.acute(symgrp.longest_element(n))
        integer, half = [CliffordEven.one(n)], [a_eta]
        for sigma in word:
            hat = spinalg.acute(sigma) * spinalg.grave(sigma).inverse()
            integer.append(half[-1] * spinalg.acute(sigma))
            half.append(half[-1] * hat)
        integer.append(half[-1] * a_eta)
        table = spinalg.word_table(word, n)
        assert table.word == word
        assert table.integer == tuple(integer)
        assert table.half == tuple(half)
        assert table.q == tuple(b * a_eta.inverse() for b in half)
        assert all(spinalg.is_quat(q) for q in table.q)


class TestWordTableFromBlades:
    """Every entry of the word table is a signed blade times an element
    cached per letter or per signed blade, equal to the product chain it
    replaces."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_former_recursion(self, n, data):
        # the construction from the hat prefixes b_j by dense products:
        # q_j = (acute(eta) b_j acute(eta)) acute(eta)**-2, B(w, j + 1/2) =
        # q_j acute(eta), B(w, j) = B(w, j - 1/2) acute(sigma_j)
        word = tuple(data.draw(st.lists(st.sampled_from(letters(n)), max_size=6)))
        a = spinalg.acute(symgrp.longest_element(n))
        a2_inv = (a * a).inverse()
        q = tuple(
            a * spinalg._from_signed_blade(n, b) * a * a2_inv
            for b in spinalg._hat_prefixes(word)
        )
        half = tuple(qj * a for qj in q)
        integer = (
            (CliffordEven.one(n),)
            + tuple(h * spinalg.acute(s) for h, s in zip(half, word))
            + (half[-1] * a,)
        )
        table = spinalg.word_table(word, n)
        assert table.q == q
        assert table.half == half
        assert table.integer == integer
        assert all(type(z) is CliffordEven for z in table.integer + table.half)

    def test_caches_bounded_by_group(self):
        n = 3
        spinalg._cell_cached.cache_clear()
        spinalg._crossing_cached.cache_clear()
        pool = letters(n)
        for k in range(len(pool)):
            spinalg.word_table(pool[k:] + pool[:k], n)
        assert spinalg._crossing_cached.cache_info().currsize == len(pool)
        assert spinalg._cell_cached.cache_info().currsize <= 2 ** (n + 1)


def test_one_identity_letter_class():
    assert polysect.IdentityLetter is spinalg.IdentityLetter
    assert "IdentityLetter" in polysect.__all__
