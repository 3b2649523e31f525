"""The unit lower-triangular group Lo1_{n+1} and total positivity.

Jacobi one-parameter subgroups ``jacobi(j, t) = I + t E_{j+1,j}``, the
nilpotent flow ``exp(t n)``, factorization along reduced words (with
exact verification by re-multiplication), the orders ``<<``
(``L0 << L1`` iff ``L0^-1 L1`` is totally positive) and ``<=``
(closure), accessibility quasiproducts, and the bridges to the
rotation-matrix picture: LU, positive QR, and the one rotation -> spin
lift (Cayley steps, with a diagonal sign matrix in front of a half-turn),
continuous along a rotation path.

The Lo1 algebra takes lists of rows of ints, ``Fraction``s or sympy
expressions (so the closed forms of the accessibility example come out
symbolically) and computes with sympy's ``DomainMatrix`` over the field
of the entries, where every zero test is exact; positivity is certified
exactly, by comparison over ``QQ`` and by sympy's assumptions otherwise.
It returns ``Fraction``s over ``QQ``, else sympy expressions.  The
rotation bridges (LU, QR, spin lift) are float numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import spinalg, symgrp
from .symgrp import Permutation

__all__ = [
    "Quasiproduct",
    "NotFactorizable",
    "NotTotallyPositive",
    "NotLUDecomposable",
    "NotARotation",
    "NearHalfTurn",
    "DegenerateSum",
    "identity_matrix",
    "jacobi",
    "exp_nilpotent",
    "commute_identity",
    "mat_mul",
    "mat_inv",
    "factor_along",
    "product_along",
    "is_ll",
    "is_leq",
    "cell_of_unitriangular",
    "accessibility_quasiproduct",
    "lu_of_rotation",
    "qr_positive",
]


class NotFactorizable(ValueError):
    """Matrix is not a positive product along the requested word."""


class NotTotallyPositive(ValueError):
    """Matrix is not totally positive (not in Pos_eta)."""


class NotLUDecomposable(ValueError):
    """A leading principal minor vanishes."""


class NotARotation(ValueError):
    """Matrix is not in SO_{n+1} within the lift's tolerance."""


class NearHalfTurn(ValueError):
    """Rotation with an eigenvalue at -1, where ``I + R`` is singular."""


class DegenerateSum(ValueError):
    """s1 + s3 = 0 in the commutation identity."""


Matrix = list  # list[list[entry]]


def _field(rows):
    """Rows of ints, Fractions or Exprs as a DomainMatrix over their field."""
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix.from_list_sympy(len(rows), len(rows[0]), rows).to_field()


def _entry(K, a):
    """``a`` in the field ``K`` as a Fraction over ``QQ``, else as an Expr."""
    return Fraction(int(a.numerator), int(a.denominator)) if K.is_QQ else K.to_sympy(a)


def _rows(M) -> Matrix:
    return [[_entry(M.domain, a) for a in row] for row in M.to_list()]


def _inverse(M):
    if not (M.is_lower and all(d == M.domain.one for d in M.diagonal())):
        raise ValueError("not a unit lower-triangular matrix")
    return M.inv()


def identity_matrix(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return _rows(_field(A) * _field(B))


def mat_inv(L: Matrix) -> Matrix:
    """Inverse of a unit lower-triangular matrix, else ``ValueError``.

    >>> mat_inv(exp_nilpotent(1, 3))
    [[Fraction(1, 1), Fraction(0, 1)], [Fraction(-3, 1), Fraction(1, 1)]]
    """
    return _rows(_inverse(_field(L)))


def jacobi(n: int, j: int, t) -> Matrix:
    """``I + t E_{j+1, j}`` in Lo1_{n+1}."""
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    M = identity_matrix(n)
    M[j][j - 1] = M[j][j - 1] + t
    return M


def exp_nilpotent(n: int, t) -> Matrix:
    """``exp(t n)`` with entry (i, j) = t**(i-j)/(i-j)! on and below the
    diagonal, computed in the ring of ``t``: an int is taken as a Fraction,
    and Fractions and sympy expressions stay as they are.

    >>> exp_nilpotent(1, 3)
    [[Fraction(1, 1), Fraction(0, 1)], [Fraction(3, 1), Fraction(1, 1)]]
    """
    if isinstance(t, int):
        t = Fraction(t)
    return [
        [t ** (i - j) / math.factorial(i - j) if i >= j else 0 * t
         for j in range(n + 1)]
        for i in range(n + 1)
    ]


def commute_identity(i: int, s1, s2, s3) -> tuple:
    """``l_i(s1) l_{i+1}(s2) l_i(s3) = l_{i+1}(~s1) l_i(~s2) l_{i+1}(~s3)``
    with ``~s = (s2 s3/(s1+s3), s1+s3, s1 s2/(s1+s3))``.

    >>> commute_identity(1, Fraction(1), Fraction(1), Fraction(1))
    (Fraction(1, 2), Fraction(2, 1), Fraction(1, 2))
    """
    S = _field([[s1, s2, s3]])
    a, b, c = S.to_list()[0]
    s = a + c
    if not s:
        raise DegenerateSum("s1 + s3 = 0")
    return tuple(_entry(S.domain, v) for v in (b * c / s, s, a * b / s))


def _product(n: int, word: Sequence[int], params: Sequence):
    """``prod jacobi(i_l, t_l)`` over the field of the parameters."""
    P = _field([list(params)])
    M = one = P.eye(n + 1, P.domain).to_dense()
    for i, t in zip(word, P.to_list()[0]):
        step = one.copy()
        step[i, i - 1] = t
        M = M * step
    return M


def product_along(n: int, word: Sequence[int], params: Sequence) -> Matrix:
    """``prod jacobi(i_l, t_l)`` for paired word letters and parameters."""
    return _rows(_product(n, word, params))


def _cell(M) -> Permutation:
    return symgrp.from_southwest_ranks(M.shape[0], lambda i, j: M[i - 1 :, :j].rank())


def cell_of_unitriangular(L: Matrix) -> Permutation:
    """Bruhat-type cell of a unit lower-triangular matrix via exact
    southwest ranks (:func:`symgrp.from_southwest_ranks`)."""
    return _cell(_field(L))


def _peel_parameter(M, sigma: Permutation, i: int):
    """Parameter t such that ``jacobi(i, -t) M`` lies in the cell of
    ``a_i sigma`` (shorter); solved from the pivot minor, affine in t."""
    rows = [k - 1 for k in range(i + 1, sigma.n + 2) if sigma(k) <= sigma(i + 1)]
    cols = sorted(sigma(k + 1) - 1 for k in rows)
    pivot = M.extract([i - 1 if r == i else r for r in rows], cols).det()
    if not pivot:
        raise NotFactorizable("degenerate pivot minor while peeling")
    return M.extract(rows, cols).det() / pivot


def _factor(M, word: Sequence[int], require_positive: bool = True) -> list:
    """:func:`factor_along` of a ``DomainMatrix``, parameters in its field."""
    n = M.shape[0] - 1
    sigma = symgrp.from_word(n, word)
    if symgrp.inversions(sigma) != len(word):
        raise ValueError("word is not reduced")
    K = M.domain
    one = M.eye(n + 1, K).to_dense()
    params = []
    for i in word:
        t = _peel_parameter(M, sigma, i)
        params.append(t)
        step = one.copy()
        step[i, i - 1] = -t
        M = step * M
        sigma = symgrp.compose(symgrp.coxeter_generator(n, i), sigma)
    if M != one:
        raise NotFactorizable("residual after peeling all letters")
    if require_positive:
        for t in params:
            positive = _positive(K, t)
            if positive is None:
                raise ValueError(f"cannot decide the sign of parameter {_entry(K, t)}")
            if not positive:
                raise NotFactorizable(f"nonpositive parameter {_entry(K, t)}")
    return params


def _positive(K, t) -> bool | None:
    """Whether ``t`` in the field ``K`` is positive, decided exactly: by
    comparison over ``QQ``, else by sympy's assumptions on its expression
    (never by the domain's ``is_positive``, which is no order on an
    algebraic field); None when they cannot decide (free symbols)."""
    if K.is_QQ:
        return t > 0
    return K.to_sympy(t).is_positive


def factor_along(L, word: Sequence[int], require_positive: bool = True) -> tuple:
    """Factor ``L = prod jacobi(i_l, t_l)`` along a reduced word.

    Peels generators from the left, solving each parameter from a pivot
    minor; the result is verified by exact re-multiplication.  With
    ``require_positive`` (the default) all parameters must be > 0, i.e.
    membership in Pos_sigma is certified; a sign that cannot be decided
    exactly (free symbols) raises a plain ``ValueError``.

    >>> L = product_along(2, (1, 2, 1), (Fraction(2), Fraction(3), Fraction(5)))
    >>> factor_along(L, (1, 2, 1))
    (Fraction(2, 1), Fraction(3, 1), Fraction(5, 1))
    """
    M = _field(L)
    return tuple(_entry(M.domain, t) for t in _factor(M, word, require_positive))


def is_ll(L0, L1) -> bool:
    """``L0 << L1`` iff ``L0^-1 L1`` factors positively along a word of eta.

    >>> is_ll(identity_matrix(2), exp_nilpotent(2, Fraction(1)))
    True
    """
    D = _inverse(_field(L0)) * _field(L1)
    try:
        _factor(D, symgrp.reduced_word(symgrp.longest_element(len(L0) - 1)))
        return True
    except NotFactorizable:
        return False


def is_leq(L0, L1) -> bool:
    """Closure order: ``L0 <= L1`` iff ``L0^-1 L1`` lies in the closure of
    Pos_eta, i.e. factors positively along a word of its own cell."""
    D = _inverse(_field(L0)) * _field(L1)
    try:
        _factor(D, symgrp.reduced_word(_cell(D)))
        return True
    except NotFactorizable:
        return False


@dataclass
class Quasiproduct:
    """Accessibility domain X_k = {t : 0 < t_j < g_j(t_1..t_{j-1})}.

    ``g(j, prefix)`` evaluates the rational bound function for the j-th
    coordinate given the previous ones (1-based j); ``c1 = g(1, ())``.
    """

    n: int
    word: tuple[int, ...]
    L_x: Matrix
    _eta_words: dict

    @property
    def c1(self):
        return self.g(1, ())

    def g(self, j: int, prefix: Sequence):
        if len(prefix) != j - 1:
            raise ValueError("prefix length must be j-1")
        i_j = self.word[j - 1]
        D = _product(self.n, self.word[: j - 1], prefix).inv() * _field(self.L_x)
        t = _factor(D, self._eta_words[i_j], require_positive=False)[0]
        return _entry(D.domain, t)

    def contains(self, point: Sequence) -> bool:
        for j, t in enumerate(point, start=1):
            if not (0 < t < self.g(j, point[: j - 1])):
                return False
        return True


def accessibility_quasiproduct(L_x, word: Sequence[int]) -> Quasiproduct:
    """Quasiproduct presentation of the accessibility set for ``word``.

    ``g_j`` is the first parameter of the factorization of
    ``L_prefix^-1 L_x`` along a reduced word of eta starting with the
    j-th letter of ``word``.  An ``L_x`` that is not totally positive
    raises :class:`NotTotallyPositive`: every parameter of its
    factorization along a word of eta whose sign :func:`_positive` decides
    must be positive; an undecidable sign (free symbols) is skipped.
    """
    n = len(L_x) - 1
    eta = symgrp.longest_element(n)
    M = _field(L_x)
    try:
        params = _factor(M, symgrp.reduced_word(eta), require_positive=False)
    except NotFactorizable as exc:
        raise NotTotallyPositive(str(exc)) from exc
    for t in params:
        if _positive(M.domain, t) is False:
            raise NotTotallyPositive(f"nonpositive parameter {_entry(M.domain, t)}")
    eta_words = {}
    for i in set(word):
        a_i = symgrp.coxeter_generator(n, i)
        eta_words[i] = (i,) + symgrp.reduced_word(symgrp.compose(a_i, eta))
    return Quasiproduct(n=n, word=tuple(word), L_x=L_x, _eta_words=eta_words)


# ---------------------------------------------------------------------------
# Bridges to the rotation-matrix picture
# ---------------------------------------------------------------------------


def lu_of_rotation(Q) -> tuple:
    """``Q = L U`` with L unit lower-triangular and U upper (Doolittle).

    ``Q`` is a square float array-like; L and U are float ndarrays.  A
    pivot below 1e-12 in absolute value raises :class:`NotLUDecomposable`.
    """
    U = np.array(Q, dtype=float)
    m = len(U)
    L = np.eye(m)
    for col in range(m):
        if abs(U[col, col]) < 1e-12:
            raise NotLUDecomposable(f"leading principal minor {col + 1} vanishes")
        for r in range(col + 1, m):
            f = U[r, col] / U[col, col]
            L[r, col] = f
            U[r] = U[r] - f * U[col]
    return L, U


def qr_positive(M) -> tuple:
    """QR with orthogonal Q and upper R with strictly positive diagonal.

    ``M`` is a square array-like of floats or a stack of them (shape
    ``(..., m, m)``); Q and R are float ndarrays of the same shape.  A
    stack is factored by one batched ``np.linalg.qr``, matrix by matrix,
    so each factor equals the factor of its matrix alone.
    """
    Q, R = np.linalg.qr(np.asarray(M, dtype=float))
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    Q *= signs[..., None, :]
    R *= signs[..., :, None]
    return Q, R


def _lift_rotation_step(n: int, R) -> "spinalg.Spinor":
    """Spin lift of a rotation R with no eigenvalue -1, by the Cayley transform.

    ``C = (R - I)(R + I)^-1`` is skew; on each invariant plane of R with
    angle theta it is ``tan(theta/2)`` times the plane's generator.  The
    lift is the exterior exponential of ``b = sum_{i<j} C[i, j] e_{i+1}
    e_{j+1}`` (``1 + b + <b^2>_4 / 2`` for n <= 4), normalised to a unit
    spinor: on each plane ``(1 + tan(theta/2) B) cos(theta/2)`` is
    ``exp(theta/2 B)``.  This is the lift with positive scalar part, the
    product of the ``cos(theta/2)``, and equals the exponential of half the
    principal logarithm ``logm(R)`` read as a bivector.

    It is valid for every R in SO_{n+1} whose angles stay away from pi.
    Raises :class:`NotARotation` when ``R^T R`` is not I within 1e-8 or
    ``det R < 0``, and :class:`NearHalfTurn` when ``I + R`` is numerically
    singular (an entry of C above 1e6: an angle within about 2e-6 of pi).
    """
    R = np.asarray(R, dtype=float)
    eye = np.eye(n + 1)
    if R.shape != eye.shape or not np.abs(R.T @ R - eye).max() <= 1e-8:
        raise NotARotation(f"not an orthogonal {n + 1}x{n + 1} matrix: {R}")
    try:
        C = np.linalg.solve(R + eye, R - eye)
        singular = not np.abs(C).max() <= 1e6
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        # an orthogonal R with I + R regular has det +1, so only a
        # singular I + R needs the determinant
        if np.linalg.det(R) < 0:
            raise NotARotation(f"determinant of {R} is negative")
        raise NearHalfTurn(f"I + R is singular for R = {R}")
    psi = spinalg.exterior_exp((C - C.T) / 2)
    return psi.scale(1.0 / np.linalg.norm(psi.v))


def _lift_rotation(n: int, R) -> "spinalg.Spinor":
    """A spin lift of an arbitrary rotation (sign chosen arbitrarily).

    A rotation with an eigenvalue -1 is lifted as ``lift(R D) e_F``: D is
    the diagonal sign matrix in SO_{n+1} with the largest ``det(I + R D)``
    and e_F the blade of the coordinates it negates, so ``Pi(e_F) = D``.
    Over all 2^(n+1) sign matrices ``det(I + R D)`` averages to 1 and
    vanishes when ``det D = -1``, so the chosen D has ``det(I + R D) >= 2``.
    """
    R = np.asarray(R, dtype=float)
    try:
        return _lift_rotation_step(n, R)
    except NearHalfTurn:
        pass
    signs = np.array(
        [d for d in itertools.product((1.0, -1.0), repeat=n + 1) if np.prod(d) > 0]
    )
    d = signs[np.argmax(np.linalg.det(np.eye(n + 1) + R * signs[:, None, :]))]
    flipped = tuple(int(i) + 1 for i in np.flatnonzero(d < 0))
    return _lift_rotation_step(n, R * d) * spinalg.Spinor.from_terms(n, {flipped: 1.0})


def _lift_path(n: int, mats) -> list["spinalg.Spinor"]:
    """The continuous spin lift of the rotations ``mats``: it starts at
    :func:`_lift_rotation` of ``mats[0]``, and each next lift is the
    previous one times the lift of the step ``mats[k]^T mats[k + 1]``."""
    out = [_lift_rotation(n, mats[0])]
    for prev, nxt in zip(mats, mats[1:]):
        out.append(out[-1] * _lift_rotation_step(n, prev.T @ nxt))
    return out


def _spin_distance(z, w) -> float:
    """Euclidean distance of the coefficient vectors of z and w."""
    d = (z.to_float() - w.to_float()).v
    return math.sqrt(float(d @ d))
