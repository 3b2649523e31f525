"""Even Clifford algebra arithmetic for Spin_{n+1}.

The Clifford algebra is taken positive definite (``e_i**2 = +1``).  The
one-parameter subgroups are ``alpha_j(theta) = cos(theta/2) +
sin(theta/2) e_{j+1} e_j``, so that ``alpha_j(2*pi) == -1`` and the
projection ``Pi`` sends ``alpha_j(theta)`` to the rotation by ``theta``
in the ``(e_j, e_{j+1})`` plane.

Exact elements live over the ring ``{p + q*sqrt(2) : p, q rational}``
(:class:`QSqrt2`), which is closed under products of the quarter-turn
generators ``alpha_j(+-pi/2)``.  The maps ``acute``, ``grave`` and
``hat`` (``hat(sigma) = acute(sigma) * grave(sigma)**-1``), the lifted
signed-permutation group and the word table ``B(w, j)`` are all computed
bit-exactly in this ring by :class:`CliffordEven`, whose products go
blade by blade.

Each ``hat(sigma)`` lies in the finite group Quat_{n+1} of signed even
blades and is computed once per sigma, so the prefixes ``b_j = hat(sigma_1)
... hat(sigma_j)`` are signed blades; ``b -> acute(eta) b acute(eta)``,
computed once per b, gives ``q_of_word`` and the word table's Quat elements
q_j.  :func:`signed_cell` reads the signed cell of a spinor off one peel.

Floats are used only for curve-side evaluation (``alpha`` at generic
angles, the exponential, ``project``, ``theta_exit``).  The one
exponential of a bivector x is :func:`_exp_stack` of a stack of s_k, read
from :func:`_modes`, one diagonalization of x's left multiplication:
``clifford_exp`` is a stack of one, ``exp_h`` caches frak h's per n, and a
constant-curvature curve keeps its own.

A float element is a :class:`Spinor`: a dense numpy vector of
coefficients over the ``2**n`` even blades in sorted order.  Its products,
its left multiplication matrix, its reversion and the quadratic form of
``project`` are read from tables built once per n (:func:`_tables`) from
the exact blade product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import symgrp
from .symgrp import Permutation

__all__ = [
    "QSqrt2",
    "CliffordEven",
    "Spinor",
    "SpinWordTable",
    "NotUnit",
    "NotInLiftedSignedGroup",
    "IdentityLetter",
    "NoRootInInterval",
    "alpha",
    "alpha_exact",
    "acute",
    "grave",
    "hat",
    "project",
    "is_quat",
    "word_table",
    "q_of_word",
    "h_bivector",
    "clifford_exp",
    "exterior_exp",
    "exp_h",
    "spin_exp_h",
    "theta_exit",
    "cell_of_matrix",
    "quat_elements",
    "in_positive_cell",
    "signed_cell",
    "positive_chart",
]

Scalar = Union["QSqrt2", float]


class NotUnit(ValueError):
    """Element is not a unit spinor."""


class NotInLiftedSignedGroup(ValueError):
    """Element does not decompose as q * acute(sigma) with q in Quat."""


class IdentityLetter(ValueError):
    """A letter (of a word or of a section) equal to the identity permutation."""


class NoRootInInterval(ValueError):
    """theta_exit found no exit angle in (0, pi)."""


class QSqrt2:
    """Exact scalar ``p + q*sqrt(2)`` with rational p, q.

    >>> half_sqrt2 = QSqrt2(0, Fraction(1, 2))   # 1/sqrt(2)
    >>> (half_sqrt2 * half_sqrt2).p
    Fraction(1, 2)
    """

    __slots__ = ("p", "q")

    def __init__(self, p: object = 0, q: object = 0) -> None:
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("QSqrt2 is immutable")

    def __add__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        other = _as_qs(other)
        return QSqrt2(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other) -> "QSqrt2":
        other = _as_qs(other)
        return QSqrt2(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.p, -self.q)

    def __mul__(self, other) -> "QSqrt2":
        other = _as_qs(other)
        return QSqrt2(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (QSqrt2, int, Fraction)):
            other = _as_qs(other)
            return self.p == other.p and self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def sign(self) -> int:
        """Exact sign of ``p + q*sqrt(2)``: when p and q have opposite
        signs, the larger of ``p**2`` and ``2*q**2`` decides (they are never
        equal, sqrt(2) being irrational)."""
        sp = (self.p > 0) - (self.p < 0)
        sq = (self.q > 0) - (self.q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        return sp if self.p * self.p > 2 * self.q * self.q else sq

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __repr__(self) -> str:
        return f"QSqrt2({self.p}, {self.q})"


def _as_qs(x) -> QSqrt2:
    if isinstance(x, QSqrt2):
        return x
    return QSqrt2(x)


_ZERO = QSqrt2(0)
_ONE = QSqrt2(1)
_INV_SQRT2 = QSqrt2(0, Fraction(1, 2))

Blade = tuple[int, ...]


def _blade_mul(I: Blade, J: Blade) -> tuple[int, Blade]:
    """Product of basis blades with e_i**2 = +1; returns (sign, blade)."""
    seq = list(I) + list(J)
    sign = 1
    # insertion sort, counting transpositions
    for k in range(1, len(seq)):
        m = k
        while m > 0 and seq[m - 1] > seq[m]:
            seq[m - 1], seq[m] = seq[m], seq[m - 1]
            sign = -sign
            m -= 1
    # cancel equal neighbours (e_i * e_i = 1)
    out: list[int] = []
    for v in seq:
        if out and out[-1] == v:
            out.pop()
        else:
            out.append(v)
    return sign, tuple(out)


def _terms_mul(A: dict, B: dict) -> dict:
    out: dict[Blade, QSqrt2] = {}
    for I, x in A.items():
        for J, y in B.items():
            s, K = _blade_mul(I, J)
            c = x * y if s > 0 else -(x * y)
            if K in out:
                out[K] = out[K] + c
            else:
                out[K] = c
    return {K: c for K, c in out.items() if c}


def _reversion_sign(I: Blade) -> int:
    k = len(I)
    return -1 if (k * (k - 1) // 2) % 2 else 1


@dataclass(frozen=True)
class CliffordEven:
    """Exact element of the even Clifford algebra Cliff0_{n+1}.

    ``terms`` maps even blades (sorted index tuples) to :class:`QSqrt2`
    scalars.  :meth:`make` with float coefficients returns a
    :class:`Spinor` instead.
    """

    n: int
    terms: tuple[tuple[Blade, QSqrt2], ...]

    @staticmethod
    def make(n: int, terms: dict) -> "CliffordEven | Spinor":
        clean = {}
        for I, c in terms.items():
            if isinstance(c, float):
                return Spinor.from_terms(n, terms)
            if len(I) % 2 != 0:
                raise ValueError(f"odd blade {I} in even element")
            if any(not 1 <= i <= n + 1 for i in I):
                raise ValueError(f"blade index out of range in {I}")
            c = _as_qs(c)
            if c:
                clean[tuple(I)] = c
        return CliffordEven(n, tuple(sorted(clean.items())))

    @staticmethod
    def one(n: int) -> "CliffordEven":
        return CliffordEven.make(n, {(): _ONE})

    def tdict(self) -> dict:
        return dict(self.terms)

    def __mul__(self, other: "CliffordEven") -> "CliffordEven":
        if not isinstance(other, CliffordEven):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return CliffordEven.make(self.n, _terms_mul(self.tdict(), other.tdict()))

    def __neg__(self) -> "CliffordEven":
        return CliffordEven.make(self.n, {I: -c for I, c in self.terms})

    def reverse(self) -> "CliffordEven":
        """Anti-automorphism reversing each blade; inverse on unit spinors."""
        return CliffordEven.make(
            self.n, {I: -c if _reversion_sign(I) < 0 else c for I, c in self.terms}
        )

    def inverse(self) -> "CliffordEven":
        """Inverse of a unit spinor (equals reverse)."""
        if not self.is_unit():
            raise NotUnit(f"not a unit spinor: {self}")
        return self.reverse()

    def is_unit(self) -> bool:
        return (self * self.reverse()).tdict() == {(): _ONE}

    def to_float(self) -> "Spinor":
        return Spinor.from_terms(self.n, {I: float(c) for I, c in self.terms})

    def __str__(self) -> str:
        return _terms_str(self.terms)


def _terms_str(terms) -> str:
    if not terms:
        return "0"
    bits = []
    for I, c in terms:
        blade = "".join(f"e{i}" for i in I) or "1"
        bits.append(f"({c})*{blade}")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Dense float spinors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tables:
    """Blade index and multiplication tables of Cliff0_{n+1}.

    ``blades`` lists the even blades in sorted order (the order of
    ``CliffordEven.terms``).  For each pair of blades a and c,
    ``prod_index[a, c]`` is the one blade b with
    ``blades[a] * blades[b] = prod_sign[a, c] * blades[c]``.  ``grade``
    holds each blade's grade; the bivectors come in the order of the
    0-based pairs ``(i, j)``, i < j, that are the columns of
    ``bivector_ij``.

    ``quad`` holds quadratic forms of v (rows of ``quad @ outer(v, v)``,
    flattened): first the coefficients of ``z rev(z)``, then, for each odd
    blade (grade 1 first) and each column j, its coefficient in
    ``z e_j rev(z)``.
    """

    blades: tuple
    index: dict
    prod_index: np.ndarray
    prod_sign: np.ndarray
    rev_sign: np.ndarray
    grade: np.ndarray
    bivector_ij: np.ndarray
    not_bivector: np.ndarray
    quad: np.ndarray


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """Tables for rank n, built once from :func:`_blade_mul`."""
    m = n + 1
    by_grade = [list(itertools.combinations(range(1, m + 1), k)) for k in range(m + 1)]
    blades = sorted(b for k in range(0, m + 1, 2) for b in by_grade[k])
    odd = [b for k in range(1, m + 1, 2) for b in by_grade[k]]  # grade 1 first
    index = {b: a for a, b in enumerate(blades)}
    odd_index = {b: o for o, b in enumerate(odd)}
    N = len(blades)
    mul = np.zeros((N, N, N))  # mul[c, a, b]: sign of blade c in a * b
    prod_index = np.zeros((N, N), dtype=np.intp)
    prod_sign = np.zeros((N, N))
    for a, A in enumerate(blades):
        for b, B in enumerate(blades):
            s, C = _blade_mul(A, B)
            c = index[C]
            mul[c, a, b] = s
            prod_index[a, c] = b
            prod_sign[a, c] = s
    rev_sign = np.array([float(_reversion_sign(b)) for b in blades])
    quad = np.zeros((N + len(odd) * m, N, N))
    quad[:N] = mul * rev_sign
    for j in range(1, m + 1):
        for a, A in enumerate(blades):
            s1, K = _blade_mul(A, (j,))
            for b, B in enumerate(blades):
                s2, C = _blade_mul(K, B)
                quad[N + odd_index[C] * m + j - 1, a, b] += s1 * s2 * rev_sign[b]
    tables = _Tables(
        blades=tuple(blades),
        index=index,
        prod_index=prod_index,
        prod_sign=prod_sign,
        rev_sign=rev_sign,
        grade=np.array([len(b) for b in blades]),
        bivector_ij=np.array(by_grade[2]).T - 1,
        not_bivector=np.array([a for a, b in enumerate(blades) if len(b) != 2]),
        quad=quad.reshape(len(quad), N * N),
    )
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)  # shared by every caller
    return tables


class Spinor:
    """Float element of Cliff0_{n+1}: the coefficient vector ``v`` over
    the even blades ``_tables(n).blades``.  Treated as immutable.

    The product accumulates, for each output blade, the blade products in
    the order of the left factor's blades, as the exact blade-by-blade
    product does, so it returns the same floats.

    >>> (alpha(2, 1, math.pi) * alpha(2, 1, math.pi)).scalar_part()
    -1.0
    """

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: np.ndarray) -> None:
        self.n = n
        self.v = v

    @staticmethod
    def from_terms(n: int, terms: dict) -> "Spinor":
        index = _tables(n).index
        v = np.zeros(len(index))
        for I, c in terms.items():
            if tuple(I) not in index:
                raise ValueError(f"{I} is not a sorted even blade for n={n}")
            v[index[tuple(I)]] = float(c)
        return Spinor(n, v)

    @staticmethod
    def one(n: int) -> "Spinor":
        return Spinor.from_terms(n, {(): 1.0})

    @property
    def terms(self) -> tuple[tuple[Blade, float], ...]:
        """Nonzero coefficients in blade order, like ``CliffordEven.terms``."""
        blades = _tables(self.n).blades
        return tuple((blades[a], c) for a, c in enumerate(self.v.tolist()) if c != 0.0)

    def coefficient(self, blade: Blade) -> float:
        a = _tables(self.n).index.get(tuple(sorted(blade)))
        return 0.0 if a is None else float(self.v[a])

    def scalar_part(self) -> float:
        return float(self.v[0])

    def to_float(self) -> "Spinor":
        return self

    def _other(self, other) -> np.ndarray:
        other = other.to_float()
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return other.v

    def __mul__(self, other) -> "Spinor":
        t = _tables(self.n)
        w = self._other(other)
        # row a holds the products of blade a with the matching blades of w;
        # the sum over axis 0 adds them in blade order
        terms = self.v[:, None] * (t.prod_sign * w[t.prod_index])
        return Spinor(self.n, terms.sum(axis=0))

    def __rmul__(self, other) -> "Spinor":
        return other.to_float() * self

    def __sub__(self, other) -> "Spinor":
        return Spinor(self.n, self.v - self._other(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.v, other.v))

    def scale(self, x: float) -> "Spinor":
        return Spinor(self.n, self.v * x)

    def reverse(self) -> "Spinor":
        """Anti-automorphism reversing each blade; inverse on unit spinors."""
        return Spinor(self.n, self.v * _tables(self.n).rev_sign)

    def is_unit(self) -> bool:
        d = (self * self.reverse()).v
        d[0] -= 1.0
        return bool(np.abs(d).max() < 1e-12)

    def inverse(self) -> "Spinor":
        """Inverse of a unit spinor (equals reverse)."""
        if not self.is_unit():
            raise NotUnit(f"not a unit spinor: {self}")
        return self.reverse()

    def left_matrix(self) -> np.ndarray:
        """Matrix of ``y -> self * y`` on coefficient vectors: entry ``(c,
        prod_index[a, c])`` is ``prod_sign[a, c] * v[a]``, as in ``*``."""
        t, N = _tables(self.n), len(self.v)
        L = np.empty((N, N))
        L[np.arange(N), t.prod_index] = t.prod_sign * self.v[:, None]
        return L + 0.0  # no -0.0 entries

    def __str__(self) -> str:
        return _terms_str(self.terms)

    def __repr__(self) -> str:
        return f"Spinor({self.n}, {self.v!r})"


def alpha(n: int, j: int, theta: float) -> Spinor:
    """``alpha_j(theta) = cos(theta/2) + sin(theta/2) e_{j+1} e_j`` (float).

    >>> z = alpha(2, 1, 2 * math.pi)
    >>> z.coefficient(())
    -1.0
    """
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    t = _tables(n)
    v = np.zeros(len(t.blades))
    v[0] = math.cos(theta / 2)
    # e_{j+1} e_j = -e_j e_{j+1}: canonical blade (j, j+1) with sign -1
    v[t.index[(j, j + 1)]] = -math.sin(theta / 2)
    return Spinor(n, v)


def alpha_exact(n: int, j: int, sign: int) -> CliffordEven:
    """Exact quarter turn ``alpha_j(sign * pi/2)``, sign in {+1, -1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return CliffordEven.make(
        n, {(): _INV_SQRT2, (j, j + 1): -_INV_SQRT2 if sign > 0 else _INV_SQRT2}
    )


@functools.lru_cache(maxsize=None)
def _acute_cached(sigma: Permutation, sign: int) -> CliffordEven:
    z = CliffordEven.one(sigma.n)
    for i in symgrp.reduced_word(sigma):
        z = z * alpha_exact(sigma.n, i, sign)
    return z


def acute(sigma: Permutation) -> CliffordEven:
    """Product of ``alpha_{i}(pi/2)`` over any reduced word of sigma."""
    return _acute_cached(sigma, +1)


def grave(sigma: Permutation) -> CliffordEven:
    """Product of ``alpha_{i}(-pi/2)`` over any reduced word of sigma."""
    return _acute_cached(sigma, -1)


SignedBlade = tuple[Blade, int]


def _signed_blade(z: CliffordEven) -> SignedBlade:
    """``z = sign * blade`` as ``(blade, sign)``; raises
    :class:`NotInLiftedSignedGroup` unless z is in Quat."""
    if not is_quat(z):
        raise NotInLiftedSignedGroup(f"{z} is not in Quat")
    blade, c = z.terms[0]
    return blade, 1 if c == _ONE else -1


def _from_signed_blade(n: int, b: SignedBlade) -> CliffordEven:
    blade, sign = b
    return CliffordEven(n, ((blade, _ONE if sign > 0 else -_ONE),))


@functools.lru_cache(maxsize=None)
def _hat_cached(sigma: Permutation) -> SignedBlade:
    return _signed_blade(_acute_cached(sigma, +1) * _acute_cached(sigma, -1).inverse())


def hat(sigma: Permutation) -> CliffordEven:
    """``hat(sigma) = acute(sigma) * grave(sigma)**-1``, an element of Quat
    (computed once per sigma).

    >>> a1 = symgrp.coxeter_generator(2, 1)
    >>> hat(a1).terms
    (((1, 2), QSqrt2(-1, 0)),)
    """
    return _from_signed_blade(sigma.n, _hat_cached(sigma))


def project(z: "CliffordEven | Spinor") -> "list[list[QSqrt2]] | np.ndarray":
    """Rotation matrix of ``Pi(z)``: column j is ``z e_j rev(z)``.

    Exact elements give a list of rows of :class:`QSqrt2`; a
    :class:`Spinor` gives a float array, up to a grade-3+ residue of 1e-9.

    >>> [[float(x) for x in row] for row in project(CliffordEven.one(2))]
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    """
    if isinstance(z, Spinor):
        return _project_float(z.n, z.v)
    if not z.is_unit():
        raise NotUnit(f"not a unit spinor: {z}")
    n = z.n
    rev = z.reverse().tdict()
    zt = z.tdict()
    cols = []
    for j in range(1, n + 2):
        col_terms = _terms_mul(_terms_mul(zt, {(j,): _ONE}), rev)
        col = [_ZERO] * (n + 1)
        for I, c in col_terms.items():
            if len(I) != 1:
                raise NotUnit("conjugation did not preserve grade 1")
            col[I[0] - 1] = c
        cols.append(col)
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]


def _project_float(n: int, v: np.ndarray) -> np.ndarray:
    """``Pi`` of the float spinors with coefficient vectors ``v``: one
    vector (shape ``(N,)``, giving one matrix) or a stack ``(k, N)``
    (giving ``(k, n + 1, n + 1)``).

    The stack is one contraction of the outer products ``v v^T`` with the
    ``quad`` table, one matrix-vector product per row, so a row's matrix
    equals the matrix of that vector alone.  Every row must pass the unit
    check and the grade-1 residue check, else :class:`NotUnit`.
    """
    t = _tables(n)
    m, N = n + 1, len(t.blades)
    V = np.asarray(v, dtype=float)
    rows = V.reshape(-1, 1, N)
    outer = (rows.transpose(0, 2, 1) * rows).reshape(-1, 1, N * N)
    forms = (outer @ t.quad.T)[:, 0]
    unit = forms[:, :N]
    unit[:, 0] -= 1.0
    bad = ~(np.abs(unit).max(axis=1) < 1e-12)  # a non-finite row is bad too
    if bad.any():
        raise NotUnit(f"not a unit spinor: {Spinor(n, rows[np.argmax(bad), 0])}")
    cols = forms[:, N:].reshape(len(forms), -1, m)  # row: odd blade, grade 1 first
    if not np.abs(cols[:, m:]).max(initial=0.0) <= 1e-9:
        raise NotUnit("conjugation did not preserve grade 1")
    return cols[:, :m].reshape(V.shape[:-1] + (m, m))


def is_quat(z: CliffordEven) -> bool:
    """True iff z is +-(a single blade), i.e. an element of Quat_{n+1}."""
    if len(z.terms) != 1:
        return False
    _, c = z.terms[0]
    return c == _ONE or c == -_ONE


@dataclass(frozen=True)
class SpinWordTable:
    """Values ``B(w, j)`` and ``B(w, j + 1/2)`` along a word.

    ``integer[j]`` is B(w, j) for j = 0..l and ``integer[l + 1]`` the
    endpoint; ``half[j]`` is B(w, j + 1/2) = ``q[j]`` acute(eta), j = 0..l.
    """

    word: tuple[Permutation, ...]
    integer: tuple[CliffordEven, ...]
    half: tuple[CliffordEven, ...]
    q: tuple[CliffordEven, ...]


def _checked_word(
    word: Sequence[Permutation], n: int | None
) -> tuple[tuple[Permutation, ...], int]:
    word = tuple(word)
    if n is None:
        if not word:
            raise ValueError("need explicit n for the empty word")
        n = word[0].n
    for sigma in word:
        if sigma.is_identity():
            raise IdentityLetter("identity letter in word")
        if sigma.n != n:
            raise ValueError("rank mismatch in word")
    return word, n


def word_table(word: Sequence[Permutation], n: int | None = None) -> SpinWordTable:
    """The recursion B(w,0)=1, B(w,1/2)=acute(eta), B(w,j)=B(w,j-1/2)
    acute(sigma_j), B(w,j+1/2)=B(w,j-1/2) hat(sigma_j), endpoint
    B(w,l+1)=B(w,l+1/2) acute(eta), read from signed blades.

    With b_j the signed blades of :func:`_hat_prefixes`, the cell of the
    j-th gap is ``q_j = acute(eta) b_j acute(eta)**-1`` (one conjugation per
    signed blade), ``B(w, j + 1/2) = q_j acute(eta)``, and the crossing is
    ``B(w, j) = q_{j-1} (acute(eta) acute(sigma_j))`` with the bracket
    computed once per letter.  So the word enters only through the b_j, and
    each entry is a signed permutation of a cached element's terms, exact
    as the recursion.
    """
    word, n = _checked_word(word, n)
    a = acute(symgrp.longest_element(n))
    b = _hat_prefixes(word)
    cells = [_cell_cached(n, bj) for bj in b]
    half = tuple(_blade_times(qj, a) for qj in cells)
    crossings = tuple(
        _blade_times(qj, _crossing_cached(s)) for qj, s in zip(cells, word)
    )
    integer = (CliffordEven.one(n),) + crossings + (_endpoint_cached(n, b[-1]),)
    q = tuple(_from_signed_blade(n, qj) for qj in cells)
    return SpinWordTable(word, integer, half, q)


def _blade_times(b: SignedBlade, z: CliffordEven) -> CliffordEven:
    """``b * z`` for a signed blade b: a signed permutation of z's terms,
    with no product of coefficients."""
    blade, sign = b
    terms = {}
    for I, c in z.terms:
        s, K = _blade_mul(blade, I)
        terms[K] = c if s == sign else -c
    return CliffordEven(z.n, tuple(sorted(terms.items())))


@functools.lru_cache(maxsize=None)
def _crossing_cached(sigma: Permutation) -> CliffordEven:
    """``acute(eta) acute(sigma)``: the crossing of the letter sigma in the
    cell of the positive blade, ``B(w, j) = q_{j-1} acute(eta)
    acute(sigma_j)``."""
    return acute(symgrp.longest_element(sigma.n)) * acute(sigma)


@functools.lru_cache(maxsize=None)
def _cell_cached(n: int, b: SignedBlade) -> SignedBlade:
    """The signed cell ``q = acute(eta) b acute(eta)**-1`` of the signed
    blade b; raises unless q is in Quat."""
    a = acute(symgrp.longest_element(n))
    return _signed_blade(a * _from_signed_blade(n, b) * a.reverse())


@functools.lru_cache(maxsize=None)
def _endpoint_cached(n: int, b: SignedBlade) -> CliffordEven:
    a = acute(symgrp.longest_element(n))
    q = a * _from_signed_blade(n, b) * a
    _signed_blade(q)  # raises unless q is in Quat
    return q


def _hat_prefixes(word: tuple[Permutation, ...]) -> list[SignedBlade]:
    """The signed blades ``b_j = hat(sigma_1) ... hat(sigma_j)``, j = 0..l."""
    blade, sign = (), 1
    prefixes = [(blade, sign)]
    for sigma in word:
        h_blade, h_sign = _hat_cached(sigma)
        s, blade = _blade_mul(blade, h_blade)
        sign *= s * h_sign
        prefixes.append((blade, sign))
    return prefixes


def q_of_word(word: Sequence[Permutation], n: int | None = None) -> CliffordEven:
    """Endpoint ``acute(eta) hat(sigma_1) ... hat(sigma_l) acute(eta)``.

    The middle product is the last signed blade of :func:`_hat_prefixes`,
    and ``b -> acute(eta) b acute(eta)`` is computed once per signed blade
    b.  Equals ``word_table(word, n)``'s endpoint.

    >>> is_quat(q_of_word((), 2))
    True
    """
    word, n = _checked_word(word, n)
    return _endpoint_cached(n, _hat_prefixes(word)[-1])


def _a_sum(n: int, kappas: Sequence[float]) -> Spinor:
    """The bivector ``sum_j kappas[j - 1] frak a_j``, ``frak a_j = (1/2)
    e_{j+1} e_j`` (float)."""
    return Spinor.from_terms(
        n, {(j, j + 1): -0.5 * float(k) for j, k in enumerate(kappas, 1)}
    )


@functools.lru_cache(maxsize=None)
def h_bivector(n: int) -> Spinor:
    """The bivector for ``frak h = sum sqrt(j(n+1-j)) frak a_j`` (float)."""
    h = _a_sum(n, [math.sqrt(j * (n + 1 - j)) for j in range(1, n + 1)])
    h.v.setflags(write=False)  # cached: shared by every caller
    return h


def _modes(x: Spinor) -> tuple:
    """``(w, W)`` of a bivector x: with ``i L = V diag(w) V^H`` for its left
    multiplication L (real skew), row k of W is ``conj(V[0, k]) V[:, k]``."""
    w, V = np.linalg.eigh(1j * x.left_matrix())
    W = V.T * V[0].conj()[:, None]
    w.setflags(write=False)  # shared by every stack read from them
    W.setflags(write=False)
    return w, W


def _exp_stack(modes: tuple, s) -> np.ndarray:
    """Rows ``(k, 2**n)`` of ``exp(s_k x) = Re(exp(-i s_k w) @ W)`` for a 1-d
    stack ``s`` and ``(w, W) = _modes(x)``, taken row by row (as in
    :func:`_project_float`), so a row equals the row of that s alone.  A row
    with ``s_k == 0`` is exactly 1 (the minors that vanish there would turn
    to noise).  The phases carry an error of about ``eps * |s_k w|``, which
    leaves rows unit but wrong: past the unit tolerance 1e-12 it raises
    :class:`NotUnit`."""
    s = np.asarray(s, dtype=float)
    w, W = modes
    phase = float(np.abs(s).max(initial=0.0)) * float(np.abs(w).max())
    if not np.finfo(float).eps * phase <= 1e-12:
        raise NotUnit(f"exp(s x) has lost its phase: |s x| reaches {phase:.3g}")
    rows = (np.exp(-1j * s[:, None, None] * w) @ W)[:, 0].real
    rows[s == 0.0] = np.eye(len(w))[0]
    return rows


def clifford_exp(x: "CliffordEven | Spinor") -> Spinor:
    """Exponential of a bivector, ``exp(L) 1`` for its left multiplication
    L: :func:`_exp_stack` of a stack of one, so a bivector whose phase is
    lost to rounding raises :class:`NotUnit`."""
    xf = x.to_float()
    if xf.v[_tables(xf.n).not_bivector].any():
        raise ValueError(f"clifford_exp needs a bivector, got {xf}")
    return Spinor(xf.n, _exp_stack(_modes(xf), [1.0])[0])


def exterior_exp(C: np.ndarray) -> Spinor:
    """Exterior exponential ``sum_k <b^k>_{2k} / k!`` of the bivector
    ``b = sum_{i<j} C[i, j] e_{i+1} e_{j+1}`` (C is read above its diagonal).

    Written as ``b = sum_k t_k B_k`` over orthogonal planes, it is the
    product ``prod_k (1 + t_k B_k)``; for n <= 4 it is ``1 + b + <b^2>_4 / 2``.

    >>> exterior_exp(np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])).terms
    (((), 1.0), ((1, 2), 1.0))
    """
    n = len(C) - 1
    t = _tables(n)
    b = np.zeros(len(t.blades))
    b[t.grade == 2] = C[t.bivector_ij[0], t.bivector_ij[1]]
    b = Spinor(n, b)
    power, total = b, b.v.copy()
    total[0] = 1.0
    for k in range(2, (n + 1) // 2 + 1):  # power = <b^k>_{2k} / k!
        power = Spinor(n, np.where(t.grade == 2 * k, (power * b).v, 0.0) / k)
        total += power.v
    return Spinor(n, total)


@functools.lru_cache(maxsize=None)
def _h_modes(n: int) -> tuple:
    return _modes(h_bivector(n))


def exp_h(n: int, s) -> np.ndarray:
    """Coefficient rows ``(k, 2**n)`` of ``exp(s_k frak h)`` for a 1-d
    stack ``s``: :func:`_exp_stack` with the decomposition of frak h,
    cached per n.

    >>> exp_h(2, [0.0, math.pi]).round(12) + 0.0
    array([[ 1.,  0.,  0.,  0.],
           [-1.,  0.,  0.,  0.]])
    """
    return _exp_stack(_h_modes(n), s)


def spin_exp_h(n: int, t: float) -> Spinor:
    """``exp(t * frak h)`` in Spin_{n+1} (float): :func:`exp_h` of a stack
    of one."""
    return Spinor(n, exp_h(n, [t])[0])


# ---------------------------------------------------------------------------
# Cell identification and exit angles (numeric)
# ---------------------------------------------------------------------------


def cell_of_matrix(M: Sequence[Sequence[Scalar]]) -> Permutation:
    """Bruhat cell of a rotation matrix via the southwest rank pattern
    (:func:`symgrp.from_southwest_ranks`), with float ranks at 1e-9."""
    A = np.array(M, dtype=float)
    return symgrp.from_southwest_ranks(
        A.shape[0],
        lambda i, j: int(np.linalg.matrix_rank(A[i - 1 :, :j], tol=1e-9)),
    )


def _pivot_minor_spec(rho: Permutation, i: int) -> tuple[list[int], list[int]]:
    """Rows/cols (0-based) of the minor separating Bru_rho from Bru_{rho a_i}.

    For the covering ``rho a_i <| rho`` let p1, p2 be the positions of the
    values i, i+1 in rho (p1 > p2).  The southwest rank over rows p1..n+1
    and columns 1..i drops by one exactly on the smaller cell; the pivot
    rows are ``{k >= p1 : k**rho <= i}`` with their image columns.
    """
    inv_rho = symgrp.inverse(rho)
    p1, p2 = inv_rho(i), inv_rho(i + 1)
    if p1 <= p2:
        raise ValueError(f"rho a_{i} is not below rho")
    rows = [k for k in range(p1, rho.n + 2) if rho(k) <= i]
    cols = sorted(rho(k) for k in rows)
    return [r - 1 for r in rows], [c - 1 for c in cols]


def theta_exit(y: CliffordEven, i: int, rho: Permutation) -> float:
    """Exit angle: the theta in (0, pi) with ``y alpha_i(-theta)`` in
    ``Bru_{rho a_i}``, assuming y lies in ``Bru_rho`` with
    ``rho a_i <| rho``.

    Pi is a homomorphism and Pi(alpha_i(-theta)) is a Givens rotation in
    coordinates (i, i+1); the pivot minor contains the column of value i but
    never the column of value i+1, so the minor equals
    ``a cos(theta) - b sin(theta)`` where a (resp. b) is the minor with the
    original column i (resp. column i+1 substituted for it).  The root in
    (0, pi) is unique and computed in closed form.
    """
    rows, cols = _pivot_minor_spec(rho, i)
    M0 = project(y.to_float())
    sub = M0[np.ix_(rows, cols)]
    a = float(np.linalg.det(sub))
    ki = cols.index(i - 1)
    subb = sub.copy()
    subb[:, ki] = M0[np.ix_(rows, [i])][:, 0]
    b = float(np.linalg.det(subb))
    scale = math.hypot(a, b)
    if scale < 1e-13:
        raise NoRootInInterval(f"degenerate pivot minor for generator {i}")
    theta = math.atan2(a, b)
    if theta <= 0.0:
        theta += math.pi
    if theta >= math.pi:
        theta -= math.pi
    return theta


def quat_elements(n: int) -> list[CliffordEven]:
    """All elements of Quat_{n+1}: ``+-b`` over even blades b (exact)."""
    out = []
    for k in range(0, n + 2, 2):
        for blade in itertools.combinations(range(1, n + 2), k):
            base = CliffordEven.make(n, {blade: QSqrt2(1)})
            out.append(base)
            out.append(-base)
    return out


# largest peeled residue |z - 1| of an element of the positive cell
_CHART_TOL = 1e-6


def _peel_positive(z: "CliffordEven | Spinor") -> tuple[list[float], Spinor]:
    """Peel exit angles along the reduced word of eta, last letter first.

    Returns the angles in peeling order and the residual spinor; raises
    :class:`NoRootInInterval` when some exit angle does not exist.
    """
    n = z.n
    rho = eta = symgrp.longest_element(n)
    cur = z.to_float()
    thetas = []
    for i in reversed(symgrp.reduced_word(eta)):
        th = theta_exit(cur, i, rho)
        thetas.append(th)
        cur = cur * alpha(n, i, -th)
        rho = symgrp.compose(rho, symgrp.coxeter_generator(n, i))
    return thetas, cur


def signed_cell(z: "CliffordEven | Spinor") -> CliffordEven | None:
    """The q in Quat_{n+1} with z in ``q Bru_{acute eta}``, or None.

    Checks the matrix rank pattern and then peels exit angles along a
    reduced word of eta; they do not depend on q, so the residue is q.

    >>> i, j, k = symgrp.reduced_word(symgrp.longest_element(2))
    >>> y = alpha(2, i, 0.4) * alpha(2, j, 1.3) * alpha(2, k, 2.2)
    >>> signed_cell(y.scale(-1.0)) == -CliffordEven.one(2)
    True
    """
    try:
        if cell_of_matrix(project(z.to_float())) != symgrp.longest_element(z.n):
            return None
        _, cur = _peel_positive(z)
    except ValueError:  # NotUnit, NoRootInInterval
        return None
    q = np.round(cur.v)
    if not (np.abs(cur.v - q).max() < _CHART_TOL and np.abs(q).sum() == 1):
        return None
    (a,) = np.flatnonzero(q)
    return _from_signed_blade(z.n, (_tables(z.n).blades[a], int(q[a])))


def in_positive_cell(z: CliffordEven) -> bool:
    """Whether z lies in the signed open cell ``Bru_{acute eta}``."""
    return signed_cell(z) == CliffordEven.one(z.n)


def positive_chart(z: "CliffordEven | Spinor") -> list[float]:
    """Chart coordinates of z, exact or float, in ``Bru_{acute eta}``: the
    angles theta in (0, pi)**l with ``z = prod alpha_{i_k}(theta_k)`` along
    the reduced word of eta.  Raises :class:`NoRootInInterval` / ValueError
    when z is not in the signed cell."""
    thetas, cur = _peel_positive(z)
    resid = np.abs(cur.v[1:]).max(initial=0.0)
    if resid > _CHART_TOL or abs(cur.scalar_part() - 1.0) > _CHART_TOL:
        raise NotUnit("element is not in the positive open cell")
    return list(reversed(thetas))
