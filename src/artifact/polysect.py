"""Exact symbolic transversal sections and their stratum maps.

A transversal section to the stratum of a letter ``sigma`` is the
polynomial family ``M(x, t) = Mtilde(x) * exp(t n)`` built from the
signed pattern of ``Pi(acute(eta) acute(sigma))``: the pivot of row i
sits at column ``i**rho`` (``rho = eta sigma``) and the ``inv(sigma)``
free variables fill the positions ``(i, j)`` with ``j < i**rho`` and
``j**(rho^-1) < i`` in reading order.  The transversal slice sets the
last variable to zero.

A section is built once per letter, in sympy's sparse polynomial ring
``QQ[t, x...]``, and is read-only; both perturbed families of the acb
section are built in the ring too.  The southwest minors ``m_j`` are ring
determinants, and ``M``, the seed matrix and the minors as sympy
expressions are views computed on first read, for printing, the
discriminants ``d_j`` and mutual resultants ``r_{i,j}``, and a lambdify
over ``(t, x...)`` at once.  :func:`matrix_path` is the numeric entry
point: the float matrix path of a section at a rational point.
Classification of rational parameter points is exact.  Each minor is kept
as integer terms in ``t`` and the point variables, read from the ring
element, and is evaluated at a point in integers, leaving an integer
polynomial in t.

One exact root layer reads their roots by exact signs: ``_brackets``
brackets the real roots of an integer polynomial of degree at most 3 with
a nonzero discriminant (a cubic's around closed-form float guesses, each
proved by ``_certify``), and ``_nearest_double`` rounds a bracketed root to
the nearest double.  Two root sources read a point's roots as sorted
``(mult, bracket, factor)``, a bracket being integers ``(lo, hi, den)``:
``_simple_roots`` a generic point from its minors' trailing zeros (the
root t = 0, exactly) and the brackets of the rest, compared in integers,
``_isolated_roots`` any other point by one sympy call that factors the
minors and isolates the real roots of their irreducible factors;
:func:`classify_point` makes each root an event.  An event's exact time,
isolating interval and irreducible factor are resolved on first read; a
rational time is reported exactly.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring
from sympy.polys.rootisolation import dup_isolate_real_roots_list

from . import spinalg, symgrp, triang
from .spinalg import IdentityLetter
from .symgrp import Permutation

__all__ = [
    "SectionFamily",
    "ExactEvent",
    "PointClassification",
    "ZeroPolynomial",
    "UnrecognizedMultPattern",
    "IdentityLetter",
    "build_section",
    "build_perturbed_family",
    "matrix_path",
    "minors",
    "discriminants",
    "resultants",
    "classify_point",
    "stratum_map",
    "grid_points",
    "weighted_grid_points",
]


class ZeroPolynomial(ValueError):
    """A southwest minor vanished identically."""


class UnrecognizedMultPattern(ValueError):
    """A multiplicity vector not realizable by any permutation."""


# ---------------------------------------------------------------------------
# Section construction (sympy)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionFamily:
    """Polynomial transversal-section family for one letter, read-only.

    The family is held once, as ring elements over ``QQ[t, *point_vars]``
    (sympy's sparse polynomial ring): ``_M`` the rows of the section matrix
    with the transversal slice already applied, ``_seed`` those of the
    unsliced seed matrix (when applicable).  The southwest minors are
    ``DomainMatrix`` determinants in that ring, and :func:`classify_point`
    reads their integer terms; it never builds a sympy expression.

    ``M``, ``Mtilde_full`` and :func:`minors` are views computed on first
    read, as ``ImmutableMatrix`` and sympy expressions in ``x_vars`` (+
    optionally ``u``) and ``t``: for printing, the discriminants and
    resultants, and a lambdify over ``(t, x...)`` at once.  A float matrix
    path at one point is :func:`matrix_path`, read from the ring rows.
    ``x_weights`` holds the quasi-homogeneous weight of each of ``x_vars``.
    :func:`build_section` returns one shared section per letter.
    """

    sigma: Permutation
    n: int
    x_vars: tuple[sp.Symbol, ...]
    t: sp.Symbol
    x_weights: tuple[int, ...]
    _M: tuple = field(repr=False)
    _seed: tuple | None = field(default=None, repr=False)
    u: sp.Symbol | sp.Rational | None = None

    @property
    def point_vars(self) -> tuple[sp.Symbol, ...]:
        """Variables a classification point must supply values for."""
        if isinstance(self.u, sp.Symbol):
            return self.x_vars + (self.u,)
        return self.x_vars

    @cached_property
    def M(self) -> sp.ImmutableMatrix:
        return _expr_matrix(self._M)

    @cached_property
    def Mtilde_full(self) -> sp.ImmutableMatrix | None:
        return None if self._seed is None else _expr_matrix(self._seed)

    @cached_property
    def _ring_minors(self) -> tuple:
        """The southwest minors as ring elements."""
        n = self.n
        domain = self._M[0][0].ring.to_domain()
        out = []
        for j in range(1, n + 1):
            rows = [list(row[:j]) for row in self._M[n + 1 - j :]]
            mj = DomainMatrix(rows, (j, j), domain).det()
            if not mj:
                raise ZeroPolynomial(f"minor m_{j} vanishes identically")
            out.append(mj)
        return tuple(out)

    @cached_property
    def _minors(self) -> tuple:
        """The southwest minors as sympy expressions, read by :func:`minors`."""
        return tuple(mj.as_expr() for mj in self._ring_minors)

    @cached_property
    def _integer_minors(self) -> tuple:
        """Each minor as ``(terms, degree)``, read by :func:`classify_point`:
        the terms ``(k, e, c, s)`` of a positive integer multiple of it,
        ``c * t**k * prod_l x_l**e_l``, with ``s`` the total degree in the
        point variables missing from ``e``, and its degree in ``t``."""
        out = []
        for mj in self._ring_minors:
            terms = mj.terms()
            scale = math.lcm(*(int(c.denominator) for _, c in terms))
            top = max(sum(m[1:]) for m, _ in terms)
            out.append((
                tuple(
                    (m[0], m[1:], int(c.numerator) * scale // int(c.denominator),
                     top - sum(m[1:]))
                    for m, c in terms
                ),
                max(m[0] for m, _ in terms),
            ))
        return tuple(out)


def _expr_matrix(rows: Sequence) -> sp.ImmutableMatrix:
    return sp.ImmutableMatrix([[e.as_expr() for e in row] for row in rows])


@lru_cache(maxsize=None)
def _quarter_turn(n: int, i: int) -> np.ndarray:
    """``Pi(alpha_i(pi/2))``, a signed permutation matrix, in integers."""
    rows = spinalg.project(spinalg.alpha_exact(n, i, +1))
    Q = np.array([[int(v.p) for v in row] for row in rows])
    Q.setflags(write=False)  # cached: shared by every caller
    return Q


@lru_cache(maxsize=None)
def build_section(sigma: Permutation) -> SectionFamily:
    """Build the transversal section family for the letter ``sigma``: its
    pivots and their signs are those of ``Pi(acute(eta) acute(sigma))``,
    the product of the integer matrices ``Pi(alpha_i(pi/2))`` along reduced
    words of eta and sigma (Pi is a homomorphism).  Memoized: every caller
    shares the one read-only section of a letter.

    >>> aba = symgrp.letter_from_name(2, 'aba')
    >>> sp.pprint  # doctest: +SKIP
    >>> build_section(aba).Mtilde_full
    Matrix([
    [ 1,  0, 0],
    [x1,  1, 0],
    [x2, x3, 1]])
    """
    if sigma.is_identity():
        raise IdentityLetter("cannot build a section for the identity")
    n = sigma.n
    eta = symgrp.longest_element(n)
    rho = symgrp.compose(eta, sigma)
    rho_inv = symgrp.inverse(rho)
    Q0 = np.eye(n + 1, dtype=int)
    for i in symgrp.reduced_word(eta) + symgrp.reduced_word(sigma):
        Q0 = Q0 @ _quarter_turn(n, i)
    d_plus_1 = symgrp.inversions(sigma)
    xs = sp.symbols(f"x1:{d_plus_1 + 1}")
    t = sp.Symbol("t")
    positions = [
        (i, j)
        for i in range(1, n + 2)
        for j in range(1, n + 2)
        if j < rho(i) and rho_inv(j) < i
    ]
    if len(positions) != d_plus_1:
        raise AssertionError("variable count mismatch with inv(sigma)")
    R, _, *gens = ring((t,) + xs, QQ)
    seed = [[R.zero] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 2):
        seed[i - 1][rho(i) - 1] = R(int(Q0[i - 1, rho(i) - 1]))
    for x_l, (i, j) in zip(gens, positions):
        seed[i - 1][j - 1] = seed[i - 1][rho(i) - 1] * x_l
    seed = tuple(map(tuple, seed))
    return SectionFamily(
        sigma=sigma, n=n, x_vars=tuple(xs[:-1]), t=t,
        # quasi-homogeneous weight of the variable at (i, j): rho(i) - j
        x_weights=tuple(rho(i) - j for (i, j) in positions[:-1]),
        _M=_sliced_times_exp(seed, gens[-1]), _seed=seed,
    )


def _sliced_times_exp(seed: Sequence, last) -> tuple:
    """The rows of ``seed * exp(t n)`` on the transversal slice ``last = 0``,
    for a seed of ring elements: over the ring without the generator
    ``last``, whose first generator is ``t``."""
    rows = [[e.evaluate(last, 0) for e in row] for row in seed]
    R, shape = rows[0][0].ring, (len(rows), len(rows))
    domain = R.to_domain()
    exp = triang.exp_nilpotent(len(rows) - 1, R.gens[0])
    product = DomainMatrix(rows, shape, domain) * DomainMatrix(exp, shape, domain)
    return tuple(map(tuple, product.to_list()))


def build_perturbed_family(kind: str, u: object | None = None) -> SectionFamily:
    """One-parameter perturbations of the acb section (n = 3).

    ``kind`` is ``"betaprime"`` (curvature perturbation ``beta_1 = 1+ut``,
    ``beta_2 = 1``, ``beta_3 = 1-ut``: column j of the sliced seed plus the
    integral from 0 of ``beta_j`` times column j + 1) or ``"matrix_u"``
    (seed-matrix perturbation), both built in the ring.  ``u`` is a
    rational, or None for a symbolic parameter.
    """
    acb = symgrp.letter_from_name(3, "acb")
    base = build_section(acb)
    if u is not None and abs(Fraction(u)) >= 1:
        raise ValueError("perturbation parameter must satisfy |u| < 1")
    u_sym = sp.Symbol("u") if u is None else sp.Rational(Fraction(u))
    # a copy of the shared seed, over QQ[t, x1, x2, x3] (+ u)
    R = ring(base._seed[0][0].ring.symbols + ((u_sym,) if u is None else ()), QQ)[0]
    seed = [[e.set_ring(R) for e in row] for row in base._seed]
    if kind == "betaprime":
        ut = (R(u_sym) * R.gens[0]).drop(3)  # u t on the slice x3 = 0
        cols = [[e.evaluate(R.gens[3], 0) for e in col] for col in zip(*seed)]
        for j, beta in ((2, 1 - ut), (1, 1), (0, 1 + ut)):
            cols[j] = [c + _integral(beta * e) for c, e in zip(cols[j], cols[j + 1])]
        M, seed = tuple(zip(*cols)), None
    elif kind == "matrix_u":
        seed[2][1] = -R(u_sym)  # row 3 = (-1, -u, 0, 0)
        seed = tuple(map(tuple, seed))
        M = _sliced_times_exp(seed, R.gens[3])
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return SectionFamily(
        sigma=acb, n=3, x_vars=base.x_vars, t=base.t, u=u_sym,
        x_weights=base.x_weights, _M=M, _seed=seed,
    )


def _integral(p):
    """The integral of the ring element ``p`` in its first generator, from 0."""
    return p.ring.from_dict({(m[0] + 1,) + m[1:]: c / (m[0] + 1) for m, c in p.terms()})


def matrix_path(section: SectionFamily, values: Sequence) -> Callable:
    """``mfun(t)``, the section matrix at a rational point (one value per
    point variable) as a numpy function of t, for
    :func:`artifact.curvelab.frame_curve_from_matrix_path`: the ring rows
    evaluated at the point, over ``QQ[t]``, lambdified."""
    gens = section._M[0][0].ring.gens[1:]  # the point variables
    at = [(x, _qq(Fraction(v))) for x, v in zip(gens, values, strict=True)]
    rows = [[(e.evaluate(at) if at else e).as_expr() for e in row]
            for row in section._M]
    return sp.lambdify(section.t, sp.Matrix(rows), "numpy")


def minors(section: SectionFamily) -> tuple:
    """Southwest minors ``m_j = det M[n+2-j.., :j]`` as sympy polynomials."""
    return section._minors


def discriminants(section: SectionFamily) -> tuple:
    """``d_j = discrim_t(m_j)`` (standard normalization)."""
    return tuple(
        sp.factor(sp.discriminant(mj, section.t)) for mj in minors(section)
    )


def resultants(section: SectionFamily) -> dict[tuple[int, int], sp.Expr]:
    """``r[i, j] = res_t(m_i, m_j)`` for i < j."""
    ms = minors(section)
    out = {}
    for i, j in itertools.combinations(range(1, section.n + 1), 2):
        out[(i, j)] = sp.factor(sp.resultant(ms[i - 1], ms[j - 1], section.t))
    return out


# ---------------------------------------------------------------------------
# Exact classification of rational points
# ---------------------------------------------------------------------------


def _qq(v: Fraction):
    return QQ(v.numerator, v.denominator)


def _fraction(v) -> Fraction:
    return Fraction(int(v.numerator), int(v.denominator))


def _sign_at(g: Sequence[int], num: int, den: int) -> int:
    """The sign of the integer polynomial ``g`` at ``num / den``, ``den > 0``:
    of ``den**deg(g) * g(num / den)``, evaluated in integers."""
    value, scale = g[0], 1
    for c in g[1:]:
        scale *= den
        value = value * num + c * scale
    return (value > 0) - (value < 0)


def _minors_at(section: SectionFamily, values: Sequence[Fraction]) -> list:
    """Each minor at the point, a positive integer multiple of it as a
    polynomial in t (descending coefficients, no leading zeros)."""
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    out = []
    for terms, degree in section._integer_minors:
        p = [0] * (degree + 1)
        for k, e, c, s in terms:
            for x, el in zip(nums, e):
                c *= x**el
            p[degree - k] += c * den**s
        lead = next((i for i, c in enumerate(p) if c), None)
        if lead is None:
            raise ZeroPolynomial("minor vanishes identically at this point")
        out.append(p[lead:])
    return out


def _certify(p: Sequence[int], x: float) -> tuple | None:
    """A bracket of a root of ``p`` around the float ``x``, as integers ``(a,
    b, den)``: the dyadic rationals ``x -+ k`` units in the last place of
    ``x``, for the first ``k`` of 4, 64 and 4096 at which the exact signs of
    ``p`` differ (in integers); None when none does."""
    num, den = x.as_integer_ratio()
    step, scale = math.ulp(x).as_integer_ratio()  # x is a multiple: scale >= den
    mid = num * (scale // den)
    for k in (4, 64, 4096):
        a, b = mid - k * step, mid + k * step
        if _sign_at(p, a, scale) * _sign_at(p, b, scale) < 0:
            return a, b, scale
    return None


def _cubic_guesses(p: Sequence[int], three: bool) -> list | None:
    """Float guesses of the real roots of the integer cubic ``p``, three or
    one as ``three`` says: the trigonometric form, or Cardano's, of the
    monic cubic in floats, each followed by two Newton steps.  None when a
    coefficient or a guess is no finite float."""
    try:
        lead, b, c, d = (float(v) for v in p)
        b, c, d = b / lead, c / lead, d / lead
        q = (b * b - 3 * c) / 9
        r = (b * (2 * b * b - 9 * c) + 27 * d) / 54

        def newton(x: float) -> float:
            slope = (3 * x + 2 * b) * x + c
            return x - (((x + b) * x + c) * x + d) / slope if slope else x

        if three:
            s = math.sqrt(q)
            theta = math.acos(max(-1.0, min(1.0, r / (s * s * s))))
            guesses = [-2 * s * math.cos((theta + k * 2 * math.pi) / 3) - b / 3
                       for k in range(3)]
            # the smaller roots from the largest one, t**2 + e t + f, whose
            # coefficients are quotients: no cancellation against it
            x = newton(max(guesses, key=abs))
            f = -d / x
            e = (f - c) / x
            h = -(e + math.copysign(math.sqrt(max(e * e - 4 * f, 0.0)), e)) / 2
            guesses = [x, h, f / h]
        else:
            u = (abs(r) + math.sqrt(max(r * r - q**3, 0.0))) ** (1 / 3)
            u = -math.copysign(u, r)
            guesses = [u + (q / u if u else 0.0) - b / 3]
        guesses = [newton(newton(x)) for x in guesses]
    except (ArithmeticError, ValueError):  # no float, or sqrt of q < 0
        return None
    return guesses if all(map(math.isfinite, guesses)) else None


def _brackets(p: Sequence[int]) -> tuple | None:
    """The real roots of the primitive integer polynomial ``p`` (positive
    leading coefficient) as ``(den, brackets)``: sorted integer pairs ``(lo,
    hi)``, each holding one root in ``[lo / den, hi / den]``.  ``lo == hi``
    for a linear root, through ``isqrt`` of the discriminant for a
    quadratic (exact when it is a square), by :func:`_certify` around the
    floats of :func:`_cubic_guesses` for a cubic.  None at a zero
    discriminant, a degree above 3 or a root that does not certify."""
    if len(p) == 1:
        return 1, []
    if len(p) == 2:
        return p[0], [(-p[1], -p[1])]
    if len(p) == 3:
        a, b, c = p
        disc = b * b - 4 * a * c
        if disc <= 0:
            return (1, []) if disc else None
        # 2**32 sqrt(disc) is s, or lies in (s, s + 1) when irrational
        s = math.isqrt(disc << 64)
        w = int(s * s != disc << 64)
        return a << 33, [(lo, lo + w) for lo in (-(b << 32) - s - w, -(b << 32) + s)]
    if len(p) > 4:
        return None
    a, b, c, d = p
    disc = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)
    guesses = _cubic_guesses(p, disc > 0) if disc else None
    if guesses is None:
        return None
    out = [_certify(p, x) for x in guesses]
    if None in out:
        return None
    den = max(scale for _, _, scale in out)  # powers of two
    return den, sorted((lo * (den // sc), hi * (den // sc)) for lo, hi, sc in out)


def _key(num: int, den: int) -> int:
    """The ordered integer key of the double nearest ``num / den``, or of an
    infinity beyond the double range: consecutive doubles have consecutive
    keys, and both zeros have key 0."""
    try:
        x = num / den
    except OverflowError:
        x = math.inf if num > 0 else -math.inf
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits >> 63 == 0 else (1 << 63) - bits


def _ratio(key: int) -> tuple[int, int]:
    """The double with the ordered ``key`` as ``(num, den)``, ``den`` a power
    of two; an infinity reads as -+2**1024, and the keys past it continue in
    steps of its last place."""
    e, m = divmod(abs(key), 1 << 52)
    num, e = (m + (1 << 52), e - 1075) if e else (m, -1074)  # else subnormal
    num = -num if key < 0 else num
    return (num << e, 1) if e > 0 else (num, 1 << -e)


def _nearest_double(h: Sequence[int], lo: Fraction, hi: Fraction) -> float:
    """The double nearest the root of the integer polynomial ``h`` in the
    open interval ``(lo, hi)``, its only root there, a sign change and
    irrational; OverflowError beyond the double range.

    ``below(x)`` is whether x lies below the root: every x at or below
    ``lo`` does, none at or above ``hi`` (another root may lie just beyond
    an end), and one in between when ``h`` has its sign at ``lo`` there.
    Bisection over ordered keys (:func:`_key`) finds the adjacent doubles
    around the root, and ``below`` of their midpoint rounds: at most 64
    steps at any magnitude, all in integers."""
    (ln, ld), (hn, hd) = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    sign_lo = _sign_at(h, ln, ld)

    def below(num: int, den: int) -> bool:
        return num * ld <= ln * den or (
            num * hd < hn * den and _sign_at(h, num, den) == sign_lo)

    a, b = _key(ln, ld) - 1, _key(hn, hd) + 1
    while b - a > 1:
        m = (a + b) // 2
        a, b = (m, b) if below(*_ratio(m)) else (a, m)
    (na, da), (nb, db) = _ratio(a), _ratio(b)
    num, den = _ratio(b if below(na * db + nb * da, 2 * da * db) else a)
    return num / den


@lru_cache(maxsize=None)
def _letter(mult: tuple[int, ...], n: int) -> Permutation:
    """The letter whose multiplicity vector is ``mult``."""
    try:
        return symgrp.permutation_from_mult(mult, n)
    except symgrp.NotARealizableMultVector as exc:
        raise UnrecognizedMultPattern(f"mult {mult} names no letter") from exc


def _simple_roots(polys: Sequence[list[int]], domain) -> list | None:
    """The real roots of the integer polynomials ``polys`` (one per minor)
    as sorted ``(mult, (lo, hi, den), p)``, bracketed in ``[lo / den, hi /
    den]``, when every root off t = 0 is certified simple and no two
    polynomials share one; None otherwise.

    The root t = 0 is read exactly, from the trailing zero coefficients:
    ``mult[j]`` is their number in ``polys[j]``, the bracket is ``lo = hi =
    0`` and ``p`` is ``(1, 0)``.  Any other root is one of the stripped
    ``polys[j]``, with the unit multiplicity vector ``e_j``: ``p`` is that
    polynomial made primitive with a positive leading coefficient, and the
    bracket one of its :func:`_brackets`, which holds no root of another
    polynomial.  With a ``domain``, only the roots strictly inside
    it are kept, and a bracket that meets an end declines, as do a
    polynomial that :func:`_brackets` declines and brackets that meet.
    Brackets are ordered and compared in integers, over one common
    denominator.
    """
    found, zeros = [], []
    for j, p in enumerate(polys):
        k = len(p)
        while not p[k - 1]:  # p[0] is not zero
            k -= 1
        zeros.append(len(p) - k)
        g = math.gcd(*p[:k])
        p = tuple(c // g for c in p[:k]) if p[0] > 0 else tuple(-c // g for c in p[:k])
        read = _brackets(p)
        if read is None:
            return None
        mult = (0,) * j + (1,) + (0,) * (len(polys) - j - 1)
        found += [(mult, bracket, read[0], p) for bracket in read[1]]
    if any(zeros):
        found.append((tuple(zeros), (0, 0), 1, (1, 0)))
    ends = () if domain is None else (domain[0].denominator, domain[1].denominator)
    den = math.lcm(*(root[2] for root in found), *ends)
    ordered = sorted(
        (lo * (den // d), hi * (den // d), i)
        for i, (_, (lo, hi), d, _) in enumerate(found)
    )
    if any(not a[1] < b[0] for a, b in zip(ordered, ordered[1:])):
        return None
    if domain is not None:
        lo, hi = (end.numerator * (den // end.denominator) for end in domain)
        if any(not (b < lo or hi < a or lo < a and b < hi) for a, b, _ in ordered):
            return None
        ordered = [r for r in ordered if lo < r[0] < hi]  # each is inside or outside
    return [(found[i][0], (a, b, den), found[i][3]) for a, b, i in ordered]


def _isolated_roots(polys: Sequence[list[int]], domain) -> list:
    """The real roots of the integer polynomials ``polys`` (one per minor)
    in the open interval ``domain`` (on all of R when it is None) as sorted
    ``(mult, (lo, hi, den), g)``, for any point.

    One sympy call (``dup_isolate_real_roots_list``, continued fractions,
    Akritas-Strzebonski) factors every minor over ZZ and isolates the real
    roots of the distinct irreducible factors at once, each with the
    multiplicity ``k`` of its factor ``g`` in each minor ``j`` that it
    divides: ``mult[j]`` is ``k``, else 0.  A rational root may come back
    as ``(r, r)``, a root on an end of the domain always does and is
    dropped; the open brackets are disjoint.  Each bracket is put over the
    common denominator of its ends.
    """
    bounds = {} if domain is None else {"inf": _qq(domain[0]), "sup": _qq(domain[1])}
    out = []
    for (a, b), ks, g in dup_isolate_real_roots_list(polys, ZZ, basis=True, **bounds):
        a, b = _fraction(a), _fraction(b)
        if domain and a == b and a in domain:
            continue  # a root on an end of the domain
        mult = tuple(ks.get(j, 0) for j in range(len(polys)))
        den = math.lcm(a.denominator, b.denominator)
        lo, hi = (end.numerator * (den // end.denominator) for end in (a, b))
        out.append((mult, (lo, hi, den), tuple(int(c) for c in g)))
    return out


@lru_cache(maxsize=512)
def _irreducible_factors(h: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The irreducible factors of ``h`` over ZZ.  Memoized: a minor that
    does not depend on every coordinate repeats along a grid."""
    return tuple(tuple(int(c) for c in g) for g, _ in dup_factor_list(list(h), ZZ)[1])


@dataclass(frozen=True)
class ExactEvent:
    """One singular time of a section curve, exactly certified.

    ``letter`` and ``mult`` are known when the event is made.  The other
    fields are resolved once, on first read, from an integer factor of a
    minor that vanishes at the time (``_factor``) and the time's isolating
    bracket (``_bracket``, integers ``(lo, hi, den)`` for ``[lo / den, hi /
    den]``).  sympy's factors are irreducible; a generic point's factor is
    its minor without the factor t, or t itself, and only a cubic one is
    factored (memoized by its coefficients).  A rational time is a bracket
    with ``lo == hi`` or the root of a linear factor.

    ``certificate`` is the irreducible primitive integer factor of the
    minors that vanishes at the time (descending coefficients).  When it
    is linear the time is rational: ``root`` is that Fraction and
    ``interval`` is ``(root, root)``.  Otherwise ``root`` is None and
    ``interval`` is an open isolating interval of the time: it holds no
    other root of any minor.  At a generic point it is the root's bracket
    from :func:`_brackets`, elsewhere sympy's isolating interval.
    """

    letter: Permutation
    mult: tuple[int, ...]
    _bracket: tuple[int, int, int] = field(repr=False)
    _factor: tuple[int, ...] = field(repr=False)

    @cached_property
    def _exact(self) -> tuple:
        """``(root, interval, certificate)``."""
        lo, hi, den = self._bracket
        h = self._factor
        if lo == hi:
            r = Fraction(lo, den)
        else:
            if len(h) == 4:  # a generic point's cubic minor may be reducible
                (h,) = [g for g in _irreducible_factors(h)
                        if _sign_at(g, lo, den) != _sign_at(g, hi, den)]
            r = Fraction(-h[1], h[0]) if len(h) == 2 else None
        if r is None:
            return None, (Fraction(lo, den), Fraction(hi, den)), h
        return r, (r, r), (r.denominator, -r.numerator)

    @property
    def root(self) -> Fraction | None:
        return self._exact[0]

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self._exact[1]

    @property
    def certificate(self) -> tuple[int, ...]:
        return self._exact[2]

    @cached_property
    def approx(self) -> float:
        """The double nearest the time: ``float(root)`` for a rational time,
        else :func:`_nearest_double` of ``certificate`` over ``interval``.
        OverflowError when the time is beyond the double range."""
        if self.root is not None:
            return float(self.root)
        return _nearest_double(self.certificate, *self.interval)


@dataclass(frozen=True)
class PointClassification:
    point: tuple[Fraction, ...]
    events: tuple[ExactEvent, ...]

    @property
    def word(self) -> tuple[Permutation, ...]:
        return tuple(e.letter for e in self.events)

    @property
    def label(self) -> str:
        return symgrp.word_name(self.word)


def classify_point(
    section: SectionFamily,
    x: Sequence,
    domain: tuple | None = (Fraction(-1), Fraction(1)),
) -> PointClassification:
    """Exact itinerary of the section curve at a rational parameter point.

    Roots of the southwest minors are counted in the open interval
    ``domain`` (endpoints excluded, matching the convention that sing
    excludes the endpoints of the curve).  ``domain=None`` counts every
    real root, on all of R, with no end to exclude: for a section of a
    letter that is the germ label of the point's ray (see
    :func:`artifact.poset.letter_oracle_section`).  Each minor is evaluated
    at the point in integers, from its terms with cleared denominators
    (built once per section), as a positive integer multiple of it in t.

    A root source reads the real roots of those polynomials as sorted
    ``(mult, (lo, hi, den), factor)``: the root's multiplicity vector, an
    isolating bracket ``[lo / den, hi / den]`` and an integer factor of a
    minor that vanishes there.  :func:`_simple_roots` reads a generic point
    (the root t = 0 from trailing zeros, any other root simple and
    unshared), factoring nothing, and declines any other;
    :func:`_isolated_roots` reads every point, and its factors are
    irreducible.  Each root becomes an :class:`ExactEvent`, its
    letter named by ``mult`` (:func:`_letter`); an event's exact root,
    interval and certificate are resolved on first read, the same from
    both.

    >>> section = build_section(symgrp.letter_from_name(2, 'aba'))
    >>> cls = classify_point(section, (Fraction(1, 3), Fraction(-1, 18)))
    >>> cls.label
    '[ba]a'
    >>> [(e.root, e.mult) for e in cls.events]
    [(Fraction(-1, 3), (1, 2)), (Fraction(1, 3), (1, 0))]
    """
    values = tuple(Fraction(v) for v in x)
    if len(values) != len(section.point_vars):
        raise ValueError(
            f"expected {len(section.point_vars)} coordinates, got {len(values)}"
        )

    if domain is not None:
        domain = (Fraction(domain[0]), Fraction(domain[1]))
    polys = _minors_at(section, values)
    roots = _simple_roots(polys, domain)
    if roots is None:
        roots = _isolated_roots(polys, domain)
    events = tuple(
        ExactEvent(_letter(mult, section.n), mult, _bracket=bracket, _factor=factor)
        for mult, bracket, factor in roots
    )
    return PointClassification(point=values, events=events)


def grid_points(radius: Fraction, count: int) -> list[tuple[Fraction, Fraction]]:
    """A count x count rational grid on [-radius, radius]^2 (no zero row/col
    when count is even)."""
    return weighted_grid_points(radius, count, (1, 1))


def weighted_grid_points(
    radius: Fraction, count: int, weights: Sequence[int]
) -> list[tuple]:
    """A rational grid on ``prod_l [-radius**w_l, radius**w_l]``.

    The section variables are quasi-homogeneous of weights ``w_l``, so a
    faithful small neighbourhood of the origin scales each axis like
    ``radius**w_l`` rather than uniformly; an unweighted grid misses the
    strata living in the cusp regions (e.g. ``|x1| >> |x2|``).
    """
    radius = Fraction(radius)
    axes = []
    for w in weights:
        r = radius ** int(w)
        step = 2 * r / (count - 1) if count > 1 else r
        axes.append([-r + k * step for k in range(count)])
    return [tuple(pt) for pt in itertools.product(*axes)]


def stratum_map(section: SectionFamily, points: Iterable[Sequence]) -> list[dict]:
    """Classify each grid point on the domain (-1, 1); returns rows for CSV
    export."""
    rows = []
    for pt in points:
        cls = classify_point(section, pt)
        rows.append(
            {
                "point": tuple(Fraction(v) for v in pt),
                "label": cls.label,
                "roots": tuple(e.approx for e in cls.events),
            }
        )
    return rows
