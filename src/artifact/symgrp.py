"""Exact combinatorics of the symmetric group S_{n+1}.

Permutations are stored in one-line ("image") notation with 1-based
semantics: ``images[i-1] == i**sigma`` is the image of ``i`` under the
right action of ``sigma``.  Composition follows the right-exponent
convention ``i**(sigma*tau) == (i**sigma)**tau``, which is pinned by the
anchor identities ``a*c*b == [3142]`` (n = 3) and ``a*b*a == [321]``
(n = 2) for the Coxeter generators ``a = a_1``, ``b = a_2``, ``c = a_3``.

The module also provides reduced words, the strong Bruhat order, the
multiplicity vector ``mult(sigma)`` and its inverse, and the bound
``r_bullet(n)``.

>>> n = 3
>>> a, b, c = (coxeter_generator(n, j) for j in (1, 2, 3))
>>> compose(compose(a, c), b).images
(3, 1, 4, 2)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Permutation",
    "NotARealizableMultVector",
    "RankMismatch",
    "identity",
    "coxeter_generator",
    "longest_element",
    "compose",
    "inverse",
    "inversions",
    "mult_vector",
    "permutation_from_mult",
    "reduced_word",
    "all_reduced_words",
    "bruhat_leq",
    "covers",
    "r_bullet",
    "all_permutations",
    "from_word",
    "from_southwest_ranks",
    "letter_name",
    "letter_from_name",
    "word_name",
    "word_from_name",
    "NotReducedBracket",
]

GENERATOR_CHARS = "abcdefgh"


class NotARealizableMultVector(ValueError):
    """The given vector is not ``mult_vector`` of any permutation."""


class RankMismatch(ValueError):
    """Operands belong to symmetric groups of different ranks."""


@dataclass(frozen=True)
class Permutation:
    """Element of S_{n+1} in one-line notation.

    ``images`` is a tuple of the n+1 values ``1**sigma, ..., (n+1)**sigma``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection of 1..{m}: {self.images}")

    @property
    def n(self) -> int:
        """Rank: the group is S_{n+1}."""
        return len(self.images) - 1

    def __call__(self, i: int) -> int:
        """Image ``i**sigma`` (1-based)."""
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


def identity(n: int) -> Permutation:
    """Identity of S_{n+1}."""
    return Permutation(tuple(range(1, n + 2)))


def coxeter_generator(n: int, j: int) -> Permutation:
    """The adjacent transposition ``a_j`` swapping j and j+1 in S_{n+1}.

    >>> coxeter_generator(2, 1).images
    (2, 1, 3)
    """
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    images = list(range(1, n + 2))
    images[j - 1], images[j] = images[j], images[j - 1]
    return Permutation(tuple(images))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation ``eta: j -> n+2-j``.

    >>> longest_element(2).images
    (3, 2, 1)
    """
    return Permutation(tuple(range(n + 1, 0, -1)))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Product with ``i**(sigma*tau) == (i**sigma)**tau``.

    >>> a, b = coxeter_generator(2, 1), coxeter_generator(2, 2)
    >>> compose(compose(a, b), a).images
    (3, 2, 1)
    """
    if sigma.n != tau.n:
        raise RankMismatch(f"rank {sigma.n} vs {tau.n}")
    return Permutation(tuple(tau.images[v - 1] for v in sigma.images))


def inverse(sigma: Permutation) -> Permutation:
    images = [0] * len(sigma.images)
    for i, v in enumerate(sigma.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def inversions(sigma: Permutation) -> int:
    """Number of pairs i < j with ``i**sigma > j**sigma``.

    >>> inversions(Permutation((3, 1, 4, 2)))
    3
    """
    imgs = sigma.images
    return sum(
        1
        for i, j in itertools.combinations(range(len(imgs)), 2)
        if imgs[i] > imgs[j]
    )


def mult_vector(sigma: Permutation) -> tuple[int, ...]:
    """``mult_j(sigma) = (1^sigma + ... + j^sigma) - (1 + ... + j)``.

    >>> mult_vector(Permutation((3, 1, 4, 2)))
    (2, 1, 2)
    """
    out = []
    acc = 0
    for j, v in enumerate(sigma.images[:-1], start=1):
        acc += v - j
        out.append(acc)
    return tuple(out)


def permutation_from_mult(m: Sequence[int], n: int) -> Permutation:
    """Invert ``mult_vector`` via ``j^sigma = mult_j - mult_{j-1} + j``.

    >>> permutation_from_mult((2, 1, 2), 3).images
    (3, 1, 4, 2)
    """
    if len(m) != n:
        raise NotARealizableMultVector(f"expected {n} components, got {len(m)}")
    ext = (0, *m, 0)
    images = tuple(ext[j] - ext[j - 1] + j for j in range(1, n + 2))
    try:
        sigma = Permutation(images)
    except ValueError as exc:
        raise NotARealizableMultVector(str(m)) from exc
    if mult_vector(sigma) != tuple(m):
        raise NotARealizableMultVector(str(m))
    return sigma


def _right_descents(sigma: Permutation) -> list[int]:
    # In this convention sigma*a_i swaps the values i and i+1, which
    # shortens sigma iff i occurs after i+1 in one-line notation.
    inv_sigma = inverse(sigma)
    return [
        j
        for j in range(1, sigma.n + 1)
        if inv_sigma.images[j - 1] > inv_sigma.images[j]
    ]


def reduced_word(sigma: Permutation) -> tuple[int, ...]:
    """One reduced word (lexicographically least) for ``sigma``.

    The returned tuple ``(i_1, ..., i_k)`` satisfies
    ``sigma == a_{i_1} * ... * a_{i_k}`` with ``k == inversions(sigma)``.

    >>> reduced_word(Permutation((3, 1, 4, 2)))
    (1, 3, 2)
    """
    # Build from the left: i is a valid first letter iff a_i * sigma is
    # shorter; in this convention a_i * sigma swaps the entries at
    # positions i and i+1, so this is the plain one-line descent test.
    # Choosing the least i at each step gives the lexicographically least
    # reduced word.
    word: list[int] = []
    cur = sigma
    while not cur.is_identity():
        i = min(
            j
            for j in range(1, cur.n + 1)
            if cur.images[j - 1] > cur.images[j]
        )
        word.append(i)
        cur = compose(coxeter_generator(cur.n, i), cur)
    return tuple(word)


def all_reduced_words(sigma: Permutation) -> frozenset[tuple[int, ...]]:
    """All reduced words of ``sigma`` (guarded: rank <= 6).

    >>> sorted(all_reduced_words(Permutation((3, 2, 1))))
    [(1, 2, 1), (2, 1, 2)]
    """
    if sigma.n > 6:
        raise ValueError("all_reduced_words guarded to rank <= 6")
    return _all_reduced_words_cached(sigma)


@functools.lru_cache(maxsize=None)
def _all_reduced_words_cached(sigma: Permutation) -> frozenset[tuple[int, ...]]:
    if sigma.is_identity():
        return frozenset({()})
    out = set()
    for i in _right_descents(sigma):
        shorter = compose(sigma, coxeter_generator(sigma.n, i))
        for word in _all_reduced_words_cached(shorter):
            out.add(word + (i,))
    return frozenset(out)


def from_word(n: int, word: Iterable[int]) -> Permutation:
    """Product ``a_{i_1} * ... * a_{i_k}`` of Coxeter generators."""
    cur = identity(n)
    for i in word:
        cur = compose(cur, coxeter_generator(n, i))
    return cur


def from_southwest_ranks(m: int, rank: Callable[[int, int], int]) -> Permutation:
    """The Bruhat cell of an m x m matrix from its southwest ranks.

    ``rank(i, j)`` is the rank of rows i..m and columns 1..j (1-based) and
    equals ``#{k >= i : k**sigma <= j}``, so ``i**sigma`` is the least j at
    which deleting row i drops the rank.  A pattern that names no
    permutation raises ValueError.
    """

    def r(i: int, j: int) -> int:
        return rank(i, j) if i <= m else 0

    images = []
    for i in range(1, m + 1):
        img = next((j for j in range(1, m + 1) if r(i, j) == r(i + 1, j) + 1), None)
        if img is None:
            raise ValueError("southwest rank pattern is not a permutation")
        images.append(img)
    return Permutation(tuple(images))


def _rank_table(sigma: Permutation) -> list[list[int]]:
    """r[i][j] = #{k <= i : k^sigma <= j} for 0 <= i, j <= n+1."""
    m = len(sigma.images)
    r = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            r[i][j] = r[i - 1][j] + (1 if sigma.images[i - 1] <= j else 0)
    return r


def bruhat_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Strong Bruhat order via the rank-matrix criterion.

    ``sigma <= tau`` iff ``r_sigma(i, j) >= r_tau(i, j)`` for all i, j.

    >>> bruhat_leq(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    True
    """
    if sigma.n != tau.n:
        raise RankMismatch(f"rank {sigma.n} vs {tau.n}")
    rs, rt = _rank_table(sigma), _rank_table(tau)
    m = len(sigma.images)
    return all(
        rs[i][j] >= rt[i][j] for i in range(1, m + 1) for j in range(1, m + 1)
    )


def covers(sigma: Permutation, tau: Permutation) -> bool:
    """Covering relation of the Bruhat order: sigma <| tau."""
    return (
        inversions(tau) == inversions(sigma) + 1
        and bruhat_leq(sigma, tau)
    )


def r_bullet(n: int) -> int:
    """``r_bullet(n) = floor(((n+1)/2)^2)``, the max of mult_j over S_{n+1}.

    >>> r_bullet(3)
    4
    """
    if n < 2:
        raise ValueError("r_bullet requires n >= 2")
    return (n + 1) ** 2 // 4


def all_permutations(n: int) -> Iterator[Permutation]:
    """All elements of S_{n+1}."""
    for images in itertools.permutations(range(1, n + 2)):
        yield Permutation(images)


@functools.lru_cache(maxsize=None)
def letter_name(sigma: Permutation) -> str:
    """Render a letter as a string over a..h via its least reduced word.
    Memoized: a label names the same few letters over and over.

    >>> letter_name(Permutation((3, 1, 4, 2)))
    'acb'
    """
    word = reduced_word(sigma)
    if any(i > len(GENERATOR_CHARS) for i in word):
        raise ValueError("letter_name supports generator indices up to 8")
    return "".join(GENERATOR_CHARS[i - 1] for i in word)


class NotReducedBracket(ValueError):
    """Letter name (bracket content) that is not a reduced word."""


def word_name(word: Sequence[Permutation]) -> str:
    """Render a word as a string, bracketing multi-generator letters.

    Distinguishes ``a[ba] = (a, ba)``, ``[aba] = (aba)`` and
    ``aba = (a, b, a)``.

    >>> word_name([Permutation((2, 1, 3)), Permutation((3, 2, 1))])
    'a[aba]'
    """
    bits = []
    for sigma in word:
        name = letter_name(sigma)
        bits.append(name if len(name) == 1 else f"[{name}]")
    return "".join(bits) or "()"


def word_from_name(n: int, text: str) -> tuple[Permutation, ...]:
    """Parse the bracket notation back into a tuple of letters.

    >>> [w.images for w in word_from_name(2, 'a[ba]')]
    [(2, 1, 3), (2, 3, 1)]
    """
    if text in ("", "()"):
        return ()
    letters: list[Permutation] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "[":
            end = text.find("]", pos)
            if end < 0:
                raise ValueError(f"unbalanced bracket in {text!r}")
            letters.append(letter_from_name(n, text[pos + 1 : end]))
            pos = end + 1
        elif ch == "]":
            raise ValueError(f"unbalanced bracket in {text!r}")
        else:
            letters.append(letter_from_name(n, ch))
            pos += 1
    return tuple(letters)


def letter_from_name(n: int, name: str) -> Permutation:
    """Parse a non-empty string over a..h as a product of Coxeter
    generators; the string must be a reduced word (else
    :class:`NotReducedBracket`)."""
    if not name:
        raise ValueError("empty letter name")
    word = []
    for ch in name:
        i = GENERATOR_CHARS.find(ch)
        if i < 0 or i + 1 > n:
            raise ValueError(f"bad generator letter {ch!r} for rank {n}")
        word.append(i + 1)
    sigma = from_word(n, word)
    if inversions(sigma) != len(name):
        raise NotReducedBracket(f"letter name {name!r} is not a reduced word")
    return sigma
