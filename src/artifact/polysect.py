"""Exact symbolic transversal sections and their stratum maps.

A transversal section to the stratum of a letter ``sigma`` is the
polynomial family ``M(x, t) = Mtilde(x) * exp(t n)`` built from the
signed pattern of ``Pi(acute(eta) acute(sigma))``: the pivot of row i
sits at column ``i**rho`` (``rho = eta sigma``) and the ``inv(sigma)``
free variables fill the positions ``(i, j)`` with ``j < i**rho`` and
``j**(rho^-1) < i`` in reading order.  The transversal slice sets the
last variable to zero.

Southwest minors ``m_j``, their discriminants ``d_j`` and mutual
resultants ``r_{i,j}`` are computed symbolically (sympy).  Classification
of rational parameter points is exact: each minor is kept as a dense
multivariate polynomial over QQ in ``t`` and the point variables, and
sympy's ``dmp_eval_tail`` substitutes the point, leaving a polynomial in t
over QQ.  Its square-free decomposition over ZZ (``dup_sqf_list``) gives
the multiplicity of every root without factoring: the roots of all minors
are isolated once, as the simple roots of one square-free polynomial
(``dup_isolate_real_roots_sqf``), and a root's multiplicity in ``m_j`` is
the power of the square-free factor of ``m_j`` that vanishes there.  An
event's exact time, isolating interval and irreducible factor are resolved
on first read; a rational time is reported exactly, as a Fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np
import sympy as sp
from sympy.polys.densearith import dup_exquo, dup_mul
from sympy.polys.densetools import dmp_eval_tail, dup_clear_denoms, dup_eval
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf, dup_refine_real_root
from sympy.polys.sqfreetools import dup_sqf_list, dup_sqf_part

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


@dataclass
class SectionFamily:
    """Polynomial transversal-section family for one letter.

    ``M`` is the (n+1)x(n+1) sympy matrix in ``x_vars`` (+ optionally
    ``u``) and ``t``, with the transversal slice already applied.
    ``Mtilde_full`` keeps the unsliced seed matrix (when applicable).
    ``x_weights`` holds the quasi-homogeneous weight of each of ``x_vars``.
    """

    sigma: Permutation
    n: int
    x_vars: tuple[sp.Symbol, ...]
    t: sp.Symbol
    M: sp.Matrix
    x_weights: tuple[int, ...]
    Mtilde_full: sp.Matrix | None = None
    u: sp.Symbol | sp.Rational | None = None

    @property
    def point_vars(self) -> tuple[sp.Symbol, ...]:
        """Variables a classification point must supply values for."""
        if isinstance(self.u, sp.Symbol):
            return self.x_vars + (self.u,)
        return self.x_vars

    @cached_property
    def _minors(self) -> tuple:
        """The southwest minors, read by :func:`minors`."""
        n = self.n
        out = []
        for j in range(1, n + 1):
            mj = sp.expand(self.M[n + 1 - j :, :j].det())
            if mj == 0:
                raise ZeroPolynomial(f"minor m_{j} vanishes identically")
            out.append(mj)
        return tuple(out)

    @cached_property
    def _dense_minors(self) -> list:
        """Each minor as a dense QQ polynomial in ``t`` and the point
        variables, read by :func:`classify_point`."""
        return [
            sp.Poly(mj, self.t, *self.point_vars, domain=QQ).rep.to_list()
            for mj in self._minors
        ]


@lru_cache(maxsize=None)
def _quarter_turn(n: int, i: int) -> np.ndarray:
    """``Pi(alpha_i(pi/2))``, a signed permutation matrix, in integers."""
    rows = spinalg.project(spinalg.alpha_exact(n, i, +1))
    Q = np.array([[int(v.p) for v in row] for row in rows])
    Q.setflags(write=False)  # cached: shared by every caller
    return Q


def build_section(sigma: Permutation) -> SectionFamily:
    """Build the transversal section family for the letter ``sigma``: its
    pivots and their signs are those of ``Pi(acute(eta) acute(sigma))``,
    the product of the integer matrices ``Pi(alpha_i(pi/2))`` along reduced
    words of eta and sigma (Pi is a homomorphism).

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
    M0 = sp.zeros(n + 1, n + 1)
    positions = [
        (i, j)
        for i in range(1, n + 2)
        for j in range(1, n + 2)
        if j < rho(i) and rho_inv(j) < i
    ]
    if len(positions) != d_plus_1:
        raise AssertionError("variable count mismatch with inv(sigma)")
    for i in range(1, n + 2):
        M0[i - 1, rho(i) - 1] = int(Q0[i - 1, rho(i) - 1])
    for x_l, (i, j) in zip(xs, positions):
        M0[i - 1, j - 1] = M0[i - 1, rho(i) - 1] * x_l
    M_full = sp.expand(M0 * sp.Matrix(triang.exp_nilpotent(n, t)))
    M = sp.expand(M_full.subs(xs[-1], 0))
    # quasi-homogeneous weight of the variable at (i, j): rho(i) - j
    weights = tuple(rho(i) - j for (i, j) in positions[:-1])
    return SectionFamily(
        sigma=sigma, n=n, x_vars=tuple(xs[:-1]), t=t,
        M=M, Mtilde_full=M0, x_weights=weights,
    )


def build_perturbed_family(kind: str, u: object | None = None) -> SectionFamily:
    """One-parameter perturbations of the acb section (n = 3).

    ``kind`` is ``"betaprime"`` (curvature perturbation ``beta_1 = 1+ut``,
    ``beta_2 = 1``, ``beta_3 = 1-ut``, integrated symbolically) or
    ``"matrix_u"`` (seed-matrix perturbation).  ``u`` is a rational, or
    None for a symbolic parameter.
    """
    acb = symgrp.letter_from_name(3, "acb")
    base = build_section(acb)
    t = base.t
    u_sym: sp.Symbol | sp.Rational
    if u is None:
        u_sym = sp.Symbol("u")
    else:
        u_sym = sp.Rational(Fraction(u))
        if abs(Fraction(u)) >= 1:
            raise ValueError("perturbation parameter must satisfy |u| < 1")
    if kind == "betaprime":
        betas = [1 + u_sym * t, sp.Integer(1), 1 - u_sym * t]
        M0 = base.M.subs(t, 0)  # sliced seed
        cols = [M0[:, j] for j in range(4)]
        out = [None] * 4
        out[3] = cols[3]
        for j in (2, 1, 0):
            integrand = betas[j] * sp.Matrix(out[j + 1])
            out[j] = cols[j] + integrand.applyfunc(lambda e: sp.integrate(e, t))
        M = sp.expand(sp.Matrix.hstack(*out))
        return SectionFamily(
            sigma=acb, n=3, x_vars=base.x_vars, t=t, M=M,
            u=u_sym, x_weights=base.x_weights,
        )
    if kind == "matrix_u":
        Mt = base.Mtilde_full.copy()
        Mt[2, 1] = -u_sym  # row 3 = (-1, -u, 0, 0)
        M_full = sp.expand(Mt * sp.Matrix(triang.exp_nilpotent(3, t)))
        xs_all = sp.symbols("x1:4")
        M = sp.expand(M_full.subs(xs_all[-1], 0))
        return SectionFamily(
            sigma=acb, n=3, x_vars=base.x_vars, t=t, M=M,
            Mtilde_full=Mt, u=u_sym, x_weights=base.x_weights,
        )
    raise ValueError(f"unknown family kind {kind!r}")


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


def _sign(g: Sequence[int], v) -> int:
    """The sign of the integer polynomial ``g`` at the rational ``v``."""
    value = dup_eval(g, v, QQ)
    return (value > 0) - (value < 0)


@lru_cache(maxsize=512)
def _irreducible_factors(h: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The irreducible factors of ``h`` over ZZ.  Memoized: a minor that
    does not depend on every coordinate repeats along a grid."""
    return tuple(tuple(int(c) for c in g) for g, _ in dup_factor_list(list(h), ZZ)[1])


def _rational_roots(h: list[int]) -> list[Fraction]:
    """The rational roots of a square-free integer polynomial that is
    linear, quadratic or irreducible: a quadratic has them exactly when its
    discriminant is a perfect square."""
    if len(h) == 2:
        return [Fraction(-h[1], h[0])]
    if len(h) == 3:
        A, B, C = h
        disc = B * B - 4 * A * C
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            return [Fraction(-B - s, 2 * A), Fraction(-B + s, 2 * A)]
    return []


def _newton(h: list, lo: float, hi: float, sign_lo: int) -> float:
    """A float root of the integer polynomial ``h`` in ``[lo, hi]``, where
    it changes sign (``sign_lo`` at ``lo``): Newton's method from the
    midpoint, bisecting when a step leaves the bracket, until a step moves
    less than two units in the last place."""
    c = [float(v) for v in h]
    x = 0.5 * (lo + hi)
    for _ in range(100):
        p = dp = 0.0
        for v in c:
            dp = dp * x + p
            p = p * x + v
        if p == 0.0:
            return x
        if (p > 0) == (sign_lo > 0):
            lo = x
        else:
            hi = x
        step = x - p / dp if dp else lo  # a flat point bisects
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - x) <= 2 * math.ulp(x):
            return step
        x = step
    return x


@dataclass(frozen=True)
class ExactEvent:
    """One singular time of a section curve, exactly certified.

    ``letter`` and ``mult`` are known when the event is made.  The other
    fields are resolved once, on first read, from the square-free integer
    factor of a minor that vanishes at the time (``_factor``) and the
    time's isolating bracket (``_bracket``): a linear factor, or a
    quadratic one whose discriminant is a perfect square, gives a rational
    time; only a factor of degree >= 3 is factored (memoized by its
    coefficients), and only that one.

    ``certificate`` is the irreducible primitive integer factor of the
    minors that vanishes at the time (descending coefficients).  When it
    is linear the time is rational: ``root`` is that Fraction and
    ``interval`` is ``(root, root)``.  Otherwise ``root`` is None and
    ``interval`` is an open isolating interval of the time: it holds no
    other root of any minor.
    """

    letter: Permutation
    mult: tuple[int, ...]
    _bracket: tuple = field(repr=False)
    _factor: tuple[int, ...] = field(repr=False)

    @cached_property
    def _exact(self) -> tuple:
        """``(root, interval, certificate)``."""
        a, b = self._bracket
        lo, hi = _fraction(a), _fraction(b)
        h = [int(c) for c in self._factor]
        if a == b:
            r = lo
        else:
            if len(h) > 3:
                (h,) = [
                    list(g) for g in _irreducible_factors(tuple(h))
                    if _sign(g, a) != _sign(g, b)
                ]
            r = next((r for r in _rational_roots(h) if lo < r < hi), None)
        if r is None:
            return None, (lo, hi), tuple(h)
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
        """The time as a float, within 4 units in its last place of the
        exact value (a rational time is the nearest float).

        An irrational time is polished by Newton's method on
        ``certificate`` in floats from the midpoint of ``interval``, and
        the float ``x`` it returns is certified by the exact signs of
        ``certificate`` at the rationals ``x -+ d``, ``d`` one and then four
        units in the last place of ``x``: they differ, and ``interval``
        holds no other root.  When they do not certify, sympy refines the
        isolating interval to one unit and ``approx`` is its midpoint.
        """
        if self.root is not None:
            return float(self.root)
        h = list(self.certificate)
        lo, hi = self.interval
        x = _newton(h, float(lo), float(hi), _sign(h, _qq(lo)))
        ulp = Fraction(math.ulp(x))
        for k in (1, 4):
            below, above = Fraction(x) - k * ulp, Fraction(x) + k * ulp
            inside = lo < below and above < hi
            if inside and _sign(h, _qq(below)) != _sign(h, _qq(above)):
                return x
        a, b = dup_refine_real_root(h, _qq(lo), _qq(hi), ZZ, eps=_qq(ulp))
        return float((_fraction(a) + _fraction(b)) / 2)


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
    at the point by sympy's ``dmp_eval_tail`` on its dense QQ representation in
    ``(t, *point_vars)``, built once per section, and split into its
    square-free integer factors ``g_{j,k}`` (``m_j = c * prod_k g_{j,k}**k``).
    The square-free part of the product of all of them has the same roots
    as the minors, all simple; sympy isolates them once (continued
    fractions, Vincent-Akritas-Strzebonski).  The multiplicity of a root in
    ``m_j`` is the ``k`` whose ``g_{j,k}`` vanishes there, tested exactly at
    a rational root and by a sign change across an open bracket; the
    multiplicity vector names the letter.  Nothing is factored: the exact
    root, interval and certificate of an event are resolved on first read.

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

    point = [_qq(v) for v in values]
    factors = []  # (j, k, g_{j,k}): primitive, positive leading coefficient
    for j, dense in enumerate(section._dense_minors):
        p = dmp_eval_tail(dense, point, len(point), QQ)
        if not p:
            raise ZeroPolynomial("minor vanishes identically at this point")
        _, p = dup_clear_denoms(p, QQ, ZZ, convert=True)
        factors += [(j, k, g) for g, k in dup_sqf_list(p, ZZ)[1]]
    product = [ZZ.one]
    for _, _, g in factors:
        product = dup_mul(product, g, ZZ)

    square_free = dup_sqf_part(product, ZZ)
    if domain is None:
        brackets = dup_isolate_real_roots_sqf(square_free, ZZ)
    else:
        # a root on an end of the domain comes back as (end, end): drop it
        lo, hi = Fraction(domain[0]), Fraction(domain[1])
        brackets = [
            (a, b)
            for a, b in dup_isolate_real_roots_sqf(
                square_free, ZZ, inf=_qq(lo), sup=_qq(hi)
            )
            if a != b or lo < _fraction(a) < hi
        ]
    ends = {end for bracket in brackets for end in bracket}
    signs = [{end: _sign(g, end) for end in ends} for _, _, g in factors]

    out = []
    for a, b in brackets:
        mult = [0] * len(section._dense_minors)
        vanishing = []
        for (j, k, g), sign in zip(factors, signs):
            if a == b:
                vanishes = not sign[a]
            else:
                sa, sb = sign[a], sign[b]
                if not (sa and sb):
                    # a rational root of g on an end of the bracket would hide
                    # the sign change across it: divide its linear factor out
                    for end in (a, b):
                        if not sign[end]:
                            g = dup_exquo(g, [end.denominator, -end.numerator], ZZ)
                    sa, sb = _sign(g, a), _sign(g, b)
                vanishes = sa != sb
            if vanishes:
                mult[j] = k
                vanishing.append(g)
        mult = tuple(mult)
        try:
            letter = symgrp.permutation_from_mult(mult, section.n)
        except symgrp.NotARealizableMultVector as exc:
            raise UnrecognizedMultPattern(
                f"mult {mult} at root in ({_fraction(a)},{_fraction(b)})"
            ) from exc
        out.append(ExactEvent(
            letter=letter, mult=mult, _bracket=(a, b),
            _factor=tuple(min(vanishing, key=len)),
        ))
    return PointClassification(point=values, events=tuple(out))


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
