"""Exact symbolic transversal sections and their stratum maps.

A transversal section to the stratum of a letter ``sigma`` is the
polynomial family ``M(x, t) = Mtilde(x) * exp(t n)`` built from the
signed pattern of ``Pi(q acute(eta) acute(sigma))``: the pivot of row i
sits at column ``i**rho`` (``rho = eta sigma``) and the ``inv(sigma)``
free variables fill the positions ``(i, j)`` with ``j < i**rho`` and
``j**(rho^-1) < i`` in reading order.  The transversal slice sets the
last variable to zero.

Southwest minors ``m_j``, their discriminants ``d_j`` and mutual
resultants ``r_{i,j}`` are computed symbolically (sympy); classification
of rational parameter points is exact, via square-free decomposition,
coprime-basis refinement and Sturm root isolation over ``Fraction``
arithmetic (fast enough for dense grids).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import sympy as sp

from . import spinalg, symgrp
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
# Exact univariate polynomials over Fraction (ascending coefficient lists)
# ---------------------------------------------------------------------------

FPoly = list  # list[Fraction], ascending powers, no trailing zeros


def _trim(p: FPoly) -> FPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _degree(p: FPoly) -> int:
    return len(p) - 1  # degree of 0 is -1


def _add(p: FPoly, q: FPoly) -> FPoly:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _neg(p: FPoly) -> FPoly:
    return [-c for c in p]


def _mul(p: FPoly, q: FPoly) -> FPoly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _divmod(p: FPoly, q: FPoly) -> tuple[FPoly, FPoly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q) and _trim(rem):
        shift = len(rem) - len(q)
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        _trim(rem)
    return _trim(quo), rem


def _monic(p: FPoly) -> FPoly:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def _gcd(p: FPoly, q: FPoly) -> FPoly:
    a, b = list(p), list(q)
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _deriv(p: FPoly) -> FPoly:
    return _trim([c * i for i, c in enumerate(p)][1:])


def _eval(p: FPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _squarefree_decomposition(p: FPoly) -> list[tuple[FPoly, int]]:
    """Yun's algorithm: p = c * prod f_i**i with f_i square-free, coprime."""
    p = _monic(p)
    if _degree(p) < 1:
        return []
    dp = _deriv(p)
    a = _gcd(p, dp)
    b = _divmod(p, a)[0]
    c = _divmod(dp, a)[0]
    d = _add(c, _neg(_deriv(b)))
    out = []
    i = 1
    while _degree(b) >= 1:
        f = _gcd(b, d)
        if _degree(f) >= 1:
            out.append((f, i))
        b = _divmod(b, f)[0]
        c = _divmod(d, f)[0]
        d = _add(c, _neg(_deriv(b)))
        i += 1
    return out


def _coprime_basis(polys: Iterable[FPoly]) -> list[FPoly]:
    """Pairwise-coprime square-free basis generating all inputs."""
    basis: list[FPoly] = []
    stack = [_monic(p) for p in polys if _degree(p) >= 1]
    while stack:
        p = stack.pop()
        i = 0
        while i < len(basis) and _degree(p) >= 1:
            h = _gcd(p, basis[i])
            if _degree(h) < 1:
                i += 1
                continue
            b = basis.pop(i)
            for part in (_divmod(b, h)[0], h):
                if _degree(part) >= 1:
                    stack.append(part)
            p = _divmod(p, h)[0]
            i = 0
        if _degree(p) >= 1:
            basis.append(p)
    return basis


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _int_poly(p: FPoly) -> list[int]:
    """Primitive integer scaling of p (same roots and signs)."""
    if not p:
        return []
    den = 1
    for c in p:
        den = den * c.denominator // _gcd_int(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = _gcd_int(g, c)
    return [c // g for c in ints]


def _int_sign_at(ip: list[int], x: Fraction) -> int:
    """Sign of the integer polynomial at the rational point x."""
    num, den = x.numerator, x.denominator
    acc = 0
    powd = 1
    for c in reversed(ip):
        acc = acc * num + c * powd
        powd *= den
    return (acc > 0) - (acc < 0)


def _divisors(m: int) -> list[int]:
    m = abs(m)
    out = [d for d in range(1, int(m ** 0.5) + 1) if m % d == 0]
    return sorted(set(out + [m // d for d in out]))


def _rational_roots(p: FPoly) -> list[Fraction]:
    """All rational roots of p (exact, via the rational root theorem
    with the f(1) / f(-1) divisibility filters)."""
    if _degree(p) < 1:
        return []
    ints = _int_poly(p)
    shift = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        shift += 1
    roots = [Fraction(0)] if shift else []
    if len(ints) < 2:
        return roots
    f1 = sum(ints)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    if f1 == 0:
        roots.append(Fraction(1))
    if fm1 == 0:
        roots.append(Fraction(-1))
    for num in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if _gcd_int(num, q) != 1 or (num, q) == (1, 1):
                continue
            for sn in (num, -num):
                # p/q is a root only if (p - q) | f(1) and (p + q) | f(-1)
                if sn - q != 0 and (f1 % (sn - q)) != 0:
                    continue
                if sn + q != 0 and (fm1 % (sn + q)) != 0:
                    continue
                cand = Fraction(sn, q)
                if _int_sign_at(ints, cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _split_rational_roots(basis: list[FPoly]) -> list[FPoly]:
    """Split each basis element into linear factors (t - r) for its
    rational roots plus the remaining cofactor."""
    out = []
    for b in basis:
        rest = b
        for r in _rational_roots(b):
            lin = [-r, Fraction(1)]
            rest = _divmod(rest, lin)[0]
            out.append(lin)
        if _degree(rest) >= 1:
            out.append(rest)
    return out


def _sturm_chain(p: FPoly) -> list[list[int]]:
    """Sturm chain, each element scaled to a primitive integer poly."""
    chain = [list(p), _deriv(p)]
    while _degree(chain[-1]) >= 0:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_neg(rem))
    return [_int_poly(q) for q in chain if q]


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_int_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots_halfopen(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] (Sturm)."""
    return _variations(chain, a) - _variations(chain, b)


def _root_bound(p: FPoly) -> Fraction:
    lead = p[-1]
    return Fraction(1) + max(abs(c / lead) for c in p[:-1]) if len(p) > 1 else Fraction(1)


def _isolate_roots(p: FPoly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (a, b] for the roots of square-free p
    in (lo, hi]."""
    chain = _sturm_chain(p)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction) -> None:
        k = _count_roots_halfopen(chain, a, b)
        if k == 0:
            return
        if k == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        recurse(a, mid)
        recurse(mid, b)

    recurse(lo, hi)
    return sorted(out)


def _refine(p: FPoly, iv: tuple[Fraction, Fraction], width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating (a, b] for square-free p below the given width."""
    a, b = iv
    if a == b:
        return a, b
    ip = _int_poly(p)
    sb = _int_sign_at(ip, b)
    if sb == 0:  # exact rational root
        return b, b
    while b - a > width:
        mid = (a + b) / 2
        s = _int_sign_at(ip, mid)
        if s == 0:
            return mid, mid
        if s == sb:
            b = mid
        else:
            a = mid
    return a, b


# ---------------------------------------------------------------------------
# Section construction (sympy)
# ---------------------------------------------------------------------------


def _exp_nilpotent_sym(n: int, t: sp.Symbol) -> sp.Matrix:
    """exp(t*n) with entry (i, j) = t**(i-j) / (i-j)! below the diagonal."""
    m = n + 1
    return sp.Matrix(
        m, m,
        lambda i, j: t ** (i - j) / sp.factorial(i - j) if i >= j else sp.Integer(0),
    )


@dataclass
class SectionFamily:
    """Polynomial transversal-section family for one letter.

    ``M`` is the (n+1)x(n+1) sympy matrix in ``x_vars`` (+ optionally
    ``u``) and ``t``, with the transversal slice already applied.
    ``Mtilde_full`` keeps the unsliced seed matrix (when applicable).
    """

    sigma: Permutation
    n: int
    x_vars: tuple[sp.Symbol, ...]
    t: sp.Symbol
    M: sp.Matrix
    Mtilde_full: sp.Matrix | None = None
    M_full: sp.Matrix | None = None
    u: sp.Symbol | sp.Rational | None = None
    kind: str = "section"
    x_weights: tuple[int, ...] | None = None
    _minors: tuple | None = field(default=None, repr=False)
    _evaluators: list | None = field(default=None, repr=False)

    @property
    def point_vars(self) -> tuple[sp.Symbol, ...]:
        """Variables a classification point must supply values for."""
        if isinstance(self.u, sp.Symbol):
            return self.x_vars + (self.u,)
        return self.x_vars


def build_section(sigma: Permutation, q: "spinalg.CliffordEven | None" = None) -> SectionFamily:
    """Build the transversal section family for the letter ``sigma``.

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
    z0 = spinalg.acute(eta) * spinalg.acute(sigma)
    if q is not None:
        z0 = q * z0
    Q0 = spinalg.project(z0)

    def entry_sign(i: int, j: int) -> int:  # 1-based
        v = Q0[i - 1][j - 1]
        f = float(v)
        if abs(f - round(f)) > 0 or round(f) not in (-1, 0, 1):
            raise ValueError("pivot entry is not a sign")
        return int(round(f))

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
        M0[i - 1, rho(i) - 1] = entry_sign(i, rho(i))
    for x_l, (i, j) in zip(xs, positions):
        M0[i - 1, j - 1] = entry_sign(i, rho(i)) * x_l
    expn = _exp_nilpotent_sym(n, t)
    M_full = sp.expand(M0 * expn)
    M = sp.expand(M_full.subs(xs[-1], 0))
    # quasi-homogeneous weight of the variable at (i, j): rho(i) - j
    weights = tuple(rho(i) - j for (i, j) in positions[:-1])
    return SectionFamily(
        sigma=sigma, n=n, x_vars=tuple(xs[:-1]), t=t,
        M=M, Mtilde_full=M0, M_full=M_full, kind="section",
        x_weights=weights,
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
            u=u_sym, kind="betaprime", x_weights=base.x_weights,
        )
    if kind == "matrix_u":
        Mt = base.Mtilde_full.copy()
        Mt[2, 1] = -u_sym  # row 3 = (-1, -u, 0, 0)
        M_full = sp.expand(Mt * _exp_nilpotent_sym(3, t))
        xs_all = sp.symbols("x1:4")
        M = sp.expand(M_full.subs(xs_all[-1], 0))
        return SectionFamily(
            sigma=acb, n=3, x_vars=base.x_vars, t=t, M=M,
            Mtilde_full=Mt, M_full=M_full, u=u_sym, kind="matrix_u",
            x_weights=base.x_weights,
        )
    raise ValueError(f"unknown family kind {kind!r}")


def minors(section: SectionFamily) -> tuple:
    """Southwest minors ``m_j = det M[n+2-j.., :j]`` as sympy polynomials."""
    if section._minors is None:
        n = section.n
        out = []
        for j in range(1, n + 1):
            sub = section.M[n + 1 - j :, :j]
            mj = sp.expand(sub.det())
            if mj == 0:
                raise ZeroPolynomial(f"minor m_{j} vanishes identically")
            out.append(mj)
        section._minors = tuple(out)
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


@dataclass(frozen=True)
class ExactEvent:
    """One singular time of a section curve, exactly certified.

    ``root`` is a Fraction when the time is rational; otherwise
    ``interval`` is an isolating interval of the (square-free) minimal
    factor ``certificate``.
    """

    letter: Permutation
    mult: tuple[int, ...]
    root: Fraction | None
    interval: tuple[Fraction, Fraction]
    certificate: tuple[Fraction, ...]

    @property
    def approx(self) -> float:
        if self.root is not None:
            return float(self.root)
        a, b = self.interval
        return float(a + b) / 2


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


def _compile_evaluators(section: SectionFamily) -> list:
    """Per minor: list over t-powers of [(Fraction coeff, exponent tuple)]."""
    pvars = section.point_vars
    out = []
    for mj in minors(section):
        poly_t = sp.Poly(mj, section.t)
        coeffs = []
        for power, coeff in zip(
            range(poly_t.degree(), -1, -1), poly_t.all_coeffs()
        ):
            if coeff == 0:
                terms: list = []
            elif not pvars:
                terms = [(Fraction(sp.Rational(coeff)), ())]
            else:
                cp = sp.Poly(coeff, *pvars)
                terms = [
                    (Fraction(c.p, c.q), tuple(int(e) for e in mono))
                    for mono, c in zip(cp.monoms(), [sp.Rational(v) for v in cp.coeffs()])
                ]
            coeffs.append((power, terms))
        out.append(coeffs)
    return out


def _eval_minor(compiled, values: tuple[Fraction, ...]) -> FPoly:
    deg = max((p for p, _ in compiled), default=0)
    out = [Fraction(0)] * (deg + 1)
    for power, terms in compiled:
        acc = Fraction(0)
        for c, exps in terms:
            v = c
            for val, e in zip(values, exps):
                if e:
                    v *= val ** e
            acc += v
        out[power] = acc
    return _trim(out)


def classify_point(
    section: SectionFamily,
    x: Sequence,
    domain: tuple = (Fraction(-1), Fraction(1)),
) -> PointClassification:
    """Exact itinerary of the section curve at a rational parameter point.

    Roots of the southwest minors are counted in the open interval
    ``domain`` (endpoints excluded, matching the convention that sing
    excludes the endpoints of the curve).
    """
    values = tuple(Fraction(v) for v in x)
    if len(values) != len(section.point_vars):
        raise ValueError(
            f"expected {len(section.point_vars)} coordinates, got {len(values)}"
        )
    if section._evaluators is None:
        section._evaluators = _compile_evaluators(section)
    lo, hi = Fraction(domain[0]), Fraction(domain[1])

    ms: list[FPoly] = []
    for compiled in section._evaluators:
        p = _eval_minor(compiled, values)
        if not p:
            raise ZeroPolynomial("minor vanishes identically at this point")
        ms.append(p)

    # Square-free data per minor, coprime basis across minors.
    decomps = [_squarefree_decomposition(p) for p in ms]
    basis = _split_rational_roots(
        _coprime_basis(f for dec in decomps for f, _ in dec)
    )

    events: list[tuple[tuple[Fraction, Fraction], FPoly, tuple[int, ...]]] = []
    for b in basis:
        mult = []
        for dec in decomps:
            e = 0
            for f, i in dec:
                h = _gcd(b, f)
                if _degree(h) == _degree(b):
                    e = i
                    break
                if _degree(h) >= 1:
                    raise AssertionError("coprime basis refinement failed")
            mult.append(e)
        if _degree(b) == 1:
            r = -b[0] / b[1]
            if lo < r < hi:
                events.append(((r, r), b, tuple(mult)))
            continue
        for iv in _isolate_roots(b, lo, hi):
            events.append((iv, b, tuple(mult)))
    # exclude an exact root at the right endpoint (open interval)
    events = [
        ev for ev in events
        if not (ev[0][1] == hi and _eval(ev[1], hi) == 0)
    ]

    # Refine isolating intervals until pairwise disjoint, then sort.
    width = Fraction(1, 64)
    while True:
        refined = [(_refine(b, iv, width), b, mult) for iv, b, mult in events]
        spans = sorted((a, bnd) for (a, bnd), _, _ in refined)
        # strict disjointness: basis elements are coprime, so distinct
        # roots always separate under bisection and this terminates
        ok = all(s1[1] <= s2[0] for s1, s2 in zip(spans, spans[1:]))
        if ok:
            events = refined
            break
        width /= 16

    events.sort(key=lambda ev: ev[0])
    out = []
    for (a, b), cert, mult in events:
        try:
            letter = symgrp.permutation_from_mult(mult, section.n)
        except symgrp.NotARealizableMultVector as exc:
            raise UnrecognizedMultPattern(f"mult {mult} at root in ({a},{b})") from exc
        root = a if a == b else None
        out.append(
            ExactEvent(
                letter=letter, mult=mult, root=root,
                interval=(a, b), certificate=tuple(cert),
            )
        )
    return PointClassification(point=values, events=tuple(out))


def grid_points(radius: Fraction, count: int) -> list[tuple[Fraction, Fraction]]:
    """A count x count rational grid on [-radius, radius]^2 (no zero row/col
    when count is even)."""
    radius = Fraction(radius)
    step = 2 * radius / (count - 1) if count > 1 else radius
    axis = [-radius + k * step for k in range(count)]
    return [(x1, x2) for x1 in axis for x2 in axis]


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


def stratum_map(
    section: SectionFamily,
    points: Iterable[Sequence],
    domain: tuple = (Fraction(-1), Fraction(1)),
) -> list[dict]:
    """Classify each grid point; returns rows for CSV export."""
    rows = []
    for pt in points:
        cls = classify_point(section, pt, domain=domain)
        rows.append(
            {
                "point": tuple(Fraction(v) for v in pt),
                "label": cls.label,
                "roots": tuple(e.approx for e in cls.events),
            }
        )
    return rows
