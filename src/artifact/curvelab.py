"""Numeric engine for locally convex curves in Spin_{n+1}.

A curve is a :class:`FrameCurve`: an evaluator of the unit spinors
``z(t)`` over a whole stack of times in ``[ts[0], ts[-1]]``, where ``ts``
are the knots it is built from.  Every read is a stack: the spinors, the
rotation frames ``Pi(z(t))`` and their southwest minors, and ``curve(t)``
is a stack of one.  Synthesized and constant-curvature curves compute the
spinors of a stack a few array operations per segment and project them by
one contraction per stack.  Since ``Pi(z) = Pi(-z)``, a matrix path gives
its frames and minors straight from batched QRs, without the spin lift;
its node lifts are built only when a spinor is asked for (``curve(t)``, an
endpoint).  The module provides

* constant-curvature solutions of the frame equation
  ``z' = z * sum_j kappa_j a_j`` in closed form, the one-parameter
  subgroup ``z(t) = exp((t - t0) sum_j kappa_j a_j)`` (the exponential of
  the model arcs, with one decomposition per curve),
* Frenet frames of sphere curves by positive Gram-Schmidt and a
  continuous spin lift,
* detection of the singular set and the itinerary: zeros of the
  southwest minors of ``Pi(z(t))`` are located, clustered, and named by
  their vanishing orders, read from log-log slopes in one stacked read;
  anything unstable raises :class:`UnresolvedCluster` rather than guessing,
* synthesis of a curve with a prescribed itinerary from the word table
  ``B(w, j)`` (model arcs joined by chart connectors, the chart angles of
  the arcs' ends read once per letter and r),
* the ``u`` invariant of an ``acb`` event read off the unit-lower
  triangular chart of the curve, the chart fixed by the minors' signs, and
* Hausdorff distance between compact subsets of the parameter interval.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import spinalg, symgrp, triang
from .spinalg import Spinor
from .symgrp import Permutation

__all__ = [
    "NonPositiveCurvature",
    "DegenerateJet",
    "UnresolvedCluster",
    "PathNotAccessible",
    "NotAnAcbEvent",
    "SingularEvent",
    "FrameCurve",
    "integrate_frame",
    "frame_curve_from_matrix_path",
    "frenet_frame",
    "southwest_minors",
    "singular_events",
    "singular_set",
    "itinerary",
    "hausdorff",
    "is_convex_arc",
    "curve_with_itinerary",
    "u_invariant",
]


_log = logging.getLogger(__name__)


class NonPositiveCurvature(ValueError):
    """A curvature is not strictly positive."""


class DegenerateJet(ValueError):
    """The jet of a sphere curve is rank deficient (no Frenet frame)."""


class UnresolvedCluster(RuntimeError):
    """A zero cluster of the minors could not be classified reliably."""


class PathNotAccessible(RuntimeError):
    """Curve synthesis for the requested itinerary failed."""


class NotAnAcbEvent(ValueError):
    """The event at the given time is not an ``acb`` crossing."""


# ---------------------------------------------------------------------------
# FrameCurve
# ---------------------------------------------------------------------------

@dataclass
class FrameCurve:
    """A curve in Spin_{n+1}, read a stack of times at a time.

    ``spinors(times)`` maps a 1-d stack of times to the coefficient rows of
    the unit spinors ``z(t)``, shape ``(k, 2**n)``.  ``ts`` is the strictly
    increasing tuple of knots the curve is built from (lift nodes, segment
    ends, or just the domain ends of a closed form); its first and last
    entries bound the domain.

    ``curve(t)`` is the :class:`Spinor` at one time, a stack of one.
    :meth:`matrix` and :meth:`minors` take one time or a 1-d stack of
    times (one time is a stack of one) and evaluate the whole stack in one
    call.  The frames ``Pi(z(t))`` are the projections of the spinor stack,
    except on a matrix path, whose ``frames(times)`` takes its positive QR
    factors without the spin lift.  Every time read through the curve is
    checked against the domain (``ValueError``); ``spinors`` and ``frames``
    check nothing.
    """

    n: int
    ts: tuple
    spinors: Callable[[np.ndarray], np.ndarray]
    frames: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t1(self) -> float:
        return self.ts[-1]

    def _times(self, t) -> np.ndarray:
        """``t`` as a 1-d stack, every entry inside the domain."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (self.ts[0] - 1e-12 <= times) & (times <= self.ts[-1] + 1e-12)
        if not inside.all():
            bad = times[np.argmin(inside)]
            raise ValueError(f"t={bad} outside [{self.ts[0]}, {self.ts[-1]}]")
        return times

    def __call__(self, t: float) -> Spinor:
        return Spinor(self.n, self.spinors(self._times(t))[0])

    def matrix(self, t) -> np.ndarray:
        """``Pi(z(t))``: one matrix, or a ``(k, n+1, n+1)`` stack."""
        return self._frames(self._times(t)).reshape(np.shape(t) + (self.n + 1,) * 2)

    def minors(self, t) -> np.ndarray:
        """Southwest minors of :meth:`matrix`: shape ``(n,)`` or ``(k, n)``."""
        return southwest_minors(self._frames(self._times(t))).reshape(
            np.shape(t) + (self.n,)
        )

    def _frames(self, times: np.ndarray) -> np.ndarray:
        if self.frames is not None:
            return self.frames(times)
        return spinalg._project_float(self.n, self.spinors(times))


# ---------------------------------------------------------------------------
# Construction of FrameCurves
# ---------------------------------------------------------------------------


def integrate_frame(
    n: int,
    kappas: Sequence[float],
    t0: float = 0.0,
    t1: float = 1.0,
) -> FrameCurve:
    """The solution of ``z' = z * A``, ``z(t0) = 1``, for the constant
    curvatures ``A = sum_j kappa_j a_j``: ``z(t) = exp((t - t0) A)``.

    All n curvatures must be strictly positive floats
    (:class:`NonPositiveCurvature`).  A is decomposed once, and a stack of
    times is one :func:`~artifact.spinalg._exp_stack` product, so ``z(t)``
    is unit and ``z(t0)`` is exactly 1; a stack whose phases ``(t - t0) A``
    are lost to rounding raises :class:`~artifact.spinalg.NotUnit`.
    """
    if len(kappas) != n:
        raise ValueError(f"need {n} curvatures, got {len(kappas)}")
    for j, v in enumerate(kappas, 1):
        if not v > 0.0:  # NaN too
            raise NonPositiveCurvature(f"kappa_{j} = {v} <= 0")
    modes = spinalg._modes(spinalg._a_sum(n, kappas))
    t0 = float(t0)
    return FrameCurve(
        n, (t0, float(t1)), lambda ts: spinalg._exp_stack(modes, ts - t0)
    )


def frame_curve_from_matrix_path(
    n: int,
    mfun: Callable[[float], Sequence[Sequence[float]]],
    ts: Sequence[float],
) -> FrameCurve:
    """Curve from a matrix path with nondegenerate QR factors.

    ``mfun(t)`` need not be orthogonal: the frame is its positive QR
    factor ``Q`` (right upper-triangular factors do not change any
    southwest minor data).  Frames and minors over a stack of times come
    from batched QRs of the stacked ``mfun(t)``, without the spin lift;
    an overflowing or non-finite ``mfun(t)`` or a frame with ``max |Q^T Q
    - I| > 1e-8`` raises :class:`~artifact.triang.NotARotation`.  The spin
    lift is continuous along ``ts`` (:func:`~artifact.triang._lift_path`):
    the node frames and their lifts are built on the first spinor request
    (the lift of the first node also rejects ``det Q < 0``).  A stack of
    spinors is one batched frame read, and each row is the lift of its
    nearest node below times one Cayley step to its frame.
    """
    ts = [float(t) for t in ts]
    eye = np.eye(n + 1)

    def frames(times: np.ndarray) -> np.ndarray:
        M = np.empty((len(times),) + eye.shape)
        try:
            for k, t in enumerate(times.tolist()):
                M[k] = mfun(t)
        except OverflowError as exc:  # a float power of t past 1e308
            raise triang.NotARotation(f"frame at t={t} overflows") from exc
        Q = triang.qr_positive(M)[0]
        gram = Q.transpose(0, 2, 1) @ Q
        gram -= eye
        ok = np.isfinite(M).all(axis=(1, 2)) & (np.abs(gram).max(axis=(1, 2)) <= 1e-8)
        if not ok.all():
            k = np.argmin(ok)
            raise triang.NotARotation(f"frame at t={times[k]} is not a rotation: {Q[k]}")
        return Q

    nodes = []  # node frames and their lifts, built on the first spinor request

    def spinors(times: np.ndarray) -> np.ndarray:
        if not nodes:
            qs = frames(np.array(ts))
            nodes[:] = [qs, triang._lift_path(n, qs)]
        qs, lifts = nodes
        below = np.clip(np.searchsorted(ts, times, side="right") - 1, 0, len(ts) - 1)
        rows = [
            (lifts[k] * triang._lift_rotation_step(n, qs[k].T @ frame)).v
            for k, frame in zip(below.tolist(), frames(times))
        ]
        return np.reshape(rows, (len(times), 2**n))  # the 2^n even blades

    return FrameCurve(n, tuple(ts), spinors, frames)


def frenet_frame(
    jet: Callable[[float], Sequence[Sequence[float]]],
    ts: Sequence[float],
    n: int,
) -> FrameCurve:
    """Frenet frame curve of a sphere curve given by its jet.

    ``jet(t)`` returns the (n+1) x (n+1) matrix with columns
    ``gamma(t), gamma'(t), ..., gamma^(n)(t)``.  The frame is the
    positive Gram-Schmidt (QR) factor of the jet, taken by
    :func:`frame_curve_from_matrix_path`; a rank-deficient or
    orientation-reversing jet raises :class:`DegenerateJet`, at every
    evaluation and, for the nodes ``ts``, when the curve is built.
    """
    ts = [float(t) for t in ts]

    def checked_jet(t: float) -> np.ndarray:
        J = np.array(jet(t), dtype=float)
        if J.shape != (n + 1, n + 1):
            raise DegenerateJet(f"jet at t={t} has shape {J.shape}")
        det = np.linalg.det(J)
        if det <= 1e-12:
            raise DegenerateJet(f"jet at t={t} has determinant {det:.2e}")
        return J

    curve = frame_curve_from_matrix_path(n, checked_jet, ts)
    curve.matrix(ts)
    return curve


# ---------------------------------------------------------------------------
# Minors, singular set, itinerary
# ---------------------------------------------------------------------------


def southwest_minors(M) -> np.ndarray:
    """``m_j``: determinant of the last j rows and first j columns, j < m.

    ``M`` is one m x m matrix (giving shape ``(m - 1,)``) or a stack
    ``(..., m, m)`` (giving ``(..., m - 1)``).
    """
    A = np.asarray(M, dtype=float)
    m = A.shape[-1]
    return np.stack(
        [np.linalg.det(A[..., m - j :, :j]) for j in range(1, m)], axis=-1
    )


_GOLD = (3 - math.sqrt(5)) / 2  # the golden-section fraction


def _chandrupatla(a, b, c, fa, fb, fc) -> np.ndarray:
    """Chandrupatla's next point of each root bracket, as the fraction of
    the way from the newest point ``a`` to the end ``b`` of opposite sign
    (``c`` is the point dropped last): the inverse-quadratic step through
    the three points where their values admit it, else 1/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        t = fa / (fb - fa) * fc / (fb - fc) + (
            (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        )
    ok = (phi * phi < xi) & ((1 - phi) ** 2 < 1 - xi) & np.isfinite(t)
    return np.where(ok, t, 0.5)


def _dip_probes(X, F, golden) -> np.ndarray:
    """Three points to read inside each dip triple ``X`` with signed values
    ``F``: the point ``q`` where the parabola through the three values has
    least modulus, and its flanks ``q -+ s``, ``s = max(|q - x2|, 2.5e-13)``.
    Once ``q`` is nearer the minimum than the last step was long, the flanks
    enclose it and the next triple is ``s`` wide.  Where ``golden`` holds
    or ``q`` falls outside the triple, the points are the golden-section
    points of both halves (and ``x2`` again)."""
    x1, x2, x3 = X.T
    m1, m2, m3 = F.T
    # P(x2 + u) = m2 + beta u + gam u^2: its root nearest x2 (Muller's
    # step), or its vertex when it has no real root
    with np.errstate(divide="ignore", invalid="ignore"):
        d1, d3 = (m1 - m2) / (x1 - x2), (m3 - m2) / (x3 - x2)
        gam = (d3 - d1) / (x3 - x1)
        beta = d1 - gam * (x1 - x2)
        disc = beta * beta - 4 * gam * m2
        root = -2 * m2 / (beta + np.copysign(np.sqrt(abs(disc)), beta))
        q = x2 + np.where(m2 == 0, 0.0, np.where(disc >= 0, root, -beta / (2 * gam)))
        s = np.maximum(abs(q - x2), np.maximum(2.5e-13, np.spacing(abs(x2))))
        fit = np.clip(np.stack([q - s, q, q + s], axis=1), x1[:, None], x3[:, None])
    section = np.stack([x2 - _GOLD * (x2 - x1), x2, x2 + _GOLD * (x3 - x2)], axis=1)
    golden = golden | ~((x1 < q) & (q < x3))
    return np.where(golden[:, None], section, fit)


def _least_trio(X, F) -> tuple:
    """Per row, the point of least ``|F|`` other than the ends (columns 0
    and 2) and its nearest neighbours on either side, as ``(X, F)``."""
    rows = np.arange(len(X))[:, None]
    pick = abs(F)
    pick[:, [0, 2]] = np.inf  # the ends bound the minimum, they are not it
    best = pick.argmin(axis=1)[:, None]
    xm = X[rows, best]
    left = np.where(X < xm, X, -np.inf).argmax(axis=1)[:, None]
    right = np.where(X > xm, X, np.inf).argmin(axis=1)[:, None]
    trio = np.concatenate([left, best, right], axis=1)
    return X[rows, trio], F[rows, trio]


def _refine(curve: FrameCurve, grid_ts, vals, ks, sj, kd, dj) -> tuple:
    """Refine every bracket of every minor together, each step one stacked
    :meth:`FrameCurve.minors` call, for at most 200 steps.

    A sign-change bracket of minor ``sj`` starts on the grid interval
    ``[grid_ts[k], grid_ts[k + 1]]`` (``k`` in ``ks``; a grid zero is a
    bracket of width 0).  Its first point is the secant root, each later
    one Chandrupatla's step (:func:`_chandrupatla`), held at least 5e-15
    and one double inside the bracket: once the interpolation has
    converged, the next point lands across the root and the bracket
    closes.  It stops at width 1e-14, or when its midpoint rounds to an
    end (far from t = 0 doubles are wider), and its time is the midpoint.

    A dip bracket of minor ``dj`` is a triple ``x1 < x2 < x3`` with
    ``|m_j(x2)| <= |m_j(x1)|, |m_j(x3)|``, first the grid points ``k - 1,
    k, k + 1`` (``k`` in ``kd``).  Each step reads three points
    (:func:`_dip_probes`), golden-section ones when the last step did not
    halve the bracket, and keeps the least point read with its nearest
    neighbours.  It stops at width 1e-12, when no double lies inside it
    but ``x2``, or when its three ``|m_j|`` are equal to within four
    rounding units of ``|m_j(x2)|`` (a rounding plateau); its time is
    ``x2``.

    Returns the sign-change times, the dip times and ``|m_j|`` at them.
    """
    eps = np.finfo(float).eps
    ends = ks + (vals[ks, sj] != 0)
    a, b, fa, fb = grid_ts[ks], grid_ts[ends], vals[ks, sj], vals[ends, sj]
    c, fc = a.copy(), fa.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = fa / (fa - fb)  # the secant root
    trio = np.stack([kd - 1, kd, kd + 1], axis=1)
    X, F = grid_ts[trio], vals[trio, dj[:, None]]  # F: signed m_j
    width = np.full(len(dj), np.inf)  # each dip's width before its last step
    for _ in range(200):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((hi - lo >= 1e-14) & (lo < mid) & (mid < hi))
        (x1, x2, x3), (f1, f2, f3) = X.T, abs(F).T
        dips = np.flatnonzero(
            (x3 - x1 > 1e-12)
            & ((np.nextafter(x1, x2) < x2) | (np.nextafter(x2, x3) < x3))
            & (0.5 * (f1 + f3) - f2 > 4 * eps * f2)
        )
        if not len(live) + len(dips):
            break
        al, bl = a[live], b[live]
        inside = np.maximum(5e-15, np.spacing(np.maximum(abs(al), abs(bl))))
        tlim = inside / abs(bl - al)
        step = np.where(tlim < 0.5, np.clip(t[live], tlim, 1 - tlim), 0.5)
        xt = al + step * (bl - al)
        xt = np.where((lo[live] < xt) & (xt < hi[live]), xt, mid[live])
        P = _dip_probes(X[dips], F[dips], x3[dips] - x1[dips] > 0.5 * width[dips])
        width[dips] = x3[dips] - x1[dips]

        f = curve.minors(np.concatenate([xt, P.ravel()]))
        ft = f[np.arange(len(live)), sj[live]]
        fp = f[len(live) :].reshape(len(dips), 3, curve.n)
        fp = fp[np.arange(len(dips)), :, dj[dips]]

        # a is the newest point, b the end of opposite sign, c the point
        # dropped; a zero of m_j closes its bracket
        fal, fbl = fa[live], fb[live]
        same = (ft > 0) == (fal > 0)
        c[live], fc[live] = np.where(same, al, bl), np.where(same, fal, fbl)
        b[live] = np.where(ft == 0, xt, np.where(same, bl, al))
        fb[live] = np.where(same, fbl, fal)
        a[live], fa[live] = xt, ft
        t[live] = _chandrupatla(a[live], b[live], c[live], fa[live], fb[live], fc[live])
        X[dips], F[dips] = _least_trio(
            np.concatenate([X[dips], P], axis=1), np.concatenate([F[dips], fp], axis=1)
        )
    return 0.5 * (a + b), X[:, 1], abs(F[:, 1])


# a side of a centre is read on the ladder centre +- r * 0.55**k (k < 6),
# where the least-squares log-log slope is a fixed weight vector on log|m_j|
_LADDER = 0.55 ** np.arange(6.0)
_SLOPE = (np.arange(6.0) - 2.5) / (17.5 * math.log(0.55))


def _ladders(centres, reaches) -> np.ndarray:
    """Ladder times of each centre, reach (a row per centre) and side (+
    first): shape ``(centres, reaches, 2, 6)``."""
    d = np.asarray(reaches, dtype=float)[:, :, None, None] * _LADDER
    return np.asarray(centres, dtype=float)[:, None, None, None] + [[1.0], [-1.0]] * d


def _order(values, n: int, j: int, t: float) -> int:
    """The vanishing order k of ``m_{j+1}`` at ``t`` from its values on the
    ladders (shape ``(reaches, 2, 6)``, NaN on a side not read): every
    slope read must lie within 0.35 of k, and k at most the order of the
    top letter, else :class:`UnresolvedCluster`."""
    cap = (j + 1) * (n - j)
    slopes = np.log(abs(values) + 1e-300) @ _SLOPE
    read = ~np.isnan(slopes)
    k = np.rint(slopes[read].mean())
    if not (0 <= k <= cap and (abs(slopes[read] - k) <= 0.35).all()):
        raise UnresolvedCluster(
            f"no order of m_{j + 1} at t={t} fits the slopes "
            f"{np.round(slopes, 3).tolist()} (cap {cap})"
        )
    return int(k)


@dataclass(frozen=True)
class SingularEvent:
    """A singular time with its letter and multiplicity vector."""

    time: float
    letter: Permutation
    mult: tuple


def singular_events(
    curve: FrameCurve,
    grid: int = 1024,
    cluster_tol: float = 1e-6,
    zero_rel: float = 1e-8,
) -> list[SingularEvent]:
    """Locate and classify the singular set of ``curve`` on the open domain.

    The grid is one stacked :meth:`FrameCurve.minors` call.  A zero of a
    minor shows there as a sign change between grid points, or as a dip:
    an interior local minimum of ``|m_j|`` below ``1e-4 * max |m_j|``.
    :func:`_refine` refines every bracket of every minor together, one
    stacked call per step: a sign-change root to a bracket of 1e-14 by
    interpolating steps (most close in a few steps; a root of order 3
    sits in rounding noise, where the steps bisect), a dip to the least
    ``|m_j|`` it finds.  A dip is a root when that least value is below
    ``zero_rel * max |m_j|``.  Sorted roots closer than ``max(cluster_tol,
    1e-5 * span)`` share a cluster, so a ``cluster_tol`` below ``1e-5`` of
    the span has no effect: the default ``1e-6`` does nothing on a domain
    longer than 0.1.  The centres of all clusters and their ladders at two
    reaches are one stacked call, and :func:`_order` reads the vanishing
    order of each minor from its log-log slopes; an unresolved order or a
    vector that is not a letter raises :class:`UnresolvedCluster`.  An
    event with a sign-change root takes its time from the minors of least
    multiplicity; a dip-only time (every multiplicity even) is only as
    accurate as ``|m_j|`` is steep near its minimum.  The ends are not
    events: a root within 1e-9 of an end is dropped, and so is a root of
    ``m_j`` within one grid step of an end where ``|m_j| < zero_rel * max
    |m_j|``.
    """
    n = curve.n
    t0, t1 = curve.t0, curve.t1
    span = t1 - t0
    grid_ts = np.linspace(t0, t1, grid + 1)
    vals = curve.minors(grid_ts)  # (grid+1, n)
    a = np.abs(vals)
    scales = np.maximum(a.max(axis=0), 1e-12)
    # brackets (k, j) give roots (t, j, is_sign_change); a grid zero is one of width 0
    change = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0)
    # dip: interior local minimum of |v| below trigger
    dip = ~change
    dip[0] = False
    dip[1:] &= (a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:]) & (a[1:-1] < 1e-4 * scales)
    ks, js = np.nonzero(change)
    kd, jd = np.nonzero(dip)
    ts, td, fmin = _refine(curve, grid_ts, vals, ks, js, kd, jd)
    roots = list(zip(ts.tolist(), js.tolist(), itertools.repeat(True)))
    keep = fmin < zero_rel * scales[jd]
    roots += zip(td[keep].tolist(), jd[keep].tolist(), itertools.repeat(False))

    # keep only interior roots (open domain convention); a minor that
    # vanishes at an end has noise roots up to a grid step inside it
    edge = max(1e-9, 1e-9 * span)
    shadow = np.maximum(edge, (a[[0, -1]] < zero_rel * scales) * (span / grid))
    roots = [r for r in roots if t0 + shadow[0, r[1]] < r[0] < t1 - shadow[1, r[1]]]
    if not roots:
        return []

    roots.sort()
    clusters: list[list[tuple]] = [[roots[0]]]
    for r in roots[1:]:
        if r[0] - clusters[-1][-1][0] <= max(cluster_tol, 1e-5 * span):
            clusters[-1].append(r)
        else:
            clusters.append([r])

    # a reach stops a quarter of the way short of the neighbouring
    # clusters, whose zeros would bend the slopes; at most 1 % of the span,
    # it keeps the side away from the nearer end inside the domain
    centres = []
    for cl in clusters:
        pick = sorted(t for t, _, sc in cl if sc) or sorted(t for t, _, _ in cl)
        centres.append(pick[len(pick) // 2])
    mid = np.array(centres)
    before = np.array([-np.inf] + [cl[-1][0] for cl in clusters[:-1]])
    after = np.array([cl[0][0] for cl in clusters[1:]] + [np.inf])
    reach = np.minimum(0.01 * span, np.minimum(mid - before, after - mid) / 4)
    ladders = _ladders(centres, np.stack([reach, reach / 3.0], axis=1))
    inside = (ladders.min(axis=-1) >= t0) & (ladders.max(axis=-1) <= t1)
    at = curve.minors(np.concatenate([centres, ladders[inside].ravel()]))
    values = np.full(ladders.shape + (n,), np.nan)
    values[inside] = at[len(centres) :].reshape(-1, 6, n)

    events = []
    for c, (cl, center) in enumerate(zip(clusters, centres)):
        jset = {j for _, j, _ in cl}
        mult = tuple(
            0
            if j not in jset and abs(at[c, j]) > 1e-6 * scales[j]
            else _order(values[c, ..., j], n, j, center)
            for j in range(n)
        )
        try:
            letter = symgrp.permutation_from_mult(mult, n)
        except symgrp.NotARealizableMultVector as exc:
            raise UnresolvedCluster(
                f"multiplicity pattern {mult} at t={center} is not a letter"
            ) from exc
        if letter.is_identity():
            raise UnresolvedCluster(f"zero multiplicity cluster at t={center}")
        changes = [(t, j) for t, j, sc in cl if sc]
        if changes:
            # rounding noise spreads the sign changes of a root of order k
            # over about eps**(1/k): the time is read from the minors of
            # least multiplicity, whose roots bisection pins down
            least = min(mult[j] for _, j in changes)
            best = sorted(t for t, j in changes if mult[j] == least)
            center = best[len(best) // 2]
        events.append(SingularEvent(center, letter, mult))
    return events


def singular_set(curve: FrameCurve, **kw) -> tuple:
    """Sorted tuple of singular times (compact subset of the domain)."""
    return tuple(ev.time for ev in singular_events(curve, **kw))


def itinerary(curve: FrameCurve, **kw) -> tuple:
    """The itinerary word: letters of the singular events in time order."""
    return tuple(ev.letter for ev in singular_events(curve, **kw))


# ---------------------------------------------------------------------------
# Hausdorff distance and convexity
# ---------------------------------------------------------------------------


def hausdorff(X: Sequence[float], Y: Sequence[float]) -> float:
    """Hausdorff distance between compact subsets of the parameter line.

    Conventions: ``d(empty, empty) = 0`` and ``d(empty, X) = 1`` for
    nonempty X.
    """
    X, Y = sorted(X), sorted(Y)
    if not X and not Y:
        return 0.0
    if not X or not Y:
        return 1.0

    def directed(A, B):
        return max(min(abs(a - b) for b in B) for a in A)

    return max(directed(X, Y), directed(Y, X))


def is_convex_arc(curve: FrameCurve) -> bool:
    """Check convexity at ten equally spaced times, read as one stack:
    every chord ``z(s)^-1 z(t)`` (s < t) must lie in the signed open cell
    ``Bru_{acute eta}``."""
    ts = np.linspace(curve.t0, curve.t1, 10)
    spins = [Spinor(curve.n, v) for v in curve.spinors(ts)]
    for a in range(len(ts)):
        for b in range(a + 1, len(ts)):
            d = spins[a].reverse() * spins[b]
            if not spinalg.in_positive_cell(d):
                return False
    return True


# ---------------------------------------------------------------------------
# Curves with prescribed itinerary
# ---------------------------------------------------------------------------


def curve_with_itinerary(
    word,
    times: Optional[Sequence[float]] = None,
    n: Optional[int] = None,
    verify: bool = True,
) -> FrameCurve:
    """A curve from 1 to ``q_of_word(word)`` whose itinerary is ``word``.

    Crossing points are the word-table values ``B(w, j)``; around each a
    model arc ``B(w, j) exp(s c h)``, ``c = pi/4``, realizes the letter.
    Between crossings the curve stays inside a single signed open cell
    ``Bru_{q_j acute eta}``; the connectors interpolate linearly in the
    exact angle chart of that cell, which keeps them strictly inside the
    cell (no extra singular events).  With ``verify=True`` the itinerary
    is re-extracted on the default grid and compared (hard postcondition);
    failure raises :class:`PathNotAccessible`.
    """
    if isinstance(word, str):
        if n is None:
            raise ValueError("need n to parse a word name")
        word = symgrp.word_from_name(n, word)
    table = spinalg.word_table(word, n)
    word, n = table.word, table.integer[0].n
    ell = len(word)

    if ell == 0:
        # full model convex curve 1 -> hat(eta) = exp(pi h): the circle
        circle = [math.pi * math.sqrt(j * (n + 1 - j)) for j in range(1, n + 1)]
        curve = integrate_frame(n, circle)
        if triang._spin_distance(curve(1.0), table.integer[-1].to_float()) > 1e-8:
            raise PathNotAccessible("empty-word endpoint is not exp(pi h)")
        return curve

    if times is None:
        times = [(j + 1) / (ell + 1) for j in range(ell)]
    times = [float(t) for t in times]
    if len(times) != ell or any(
        not 0.0 < t < 1.0 for t in times
    ) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing inside (0, 1)")

    gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])] + [1.0 - times[-1]]
    d = min(gaps) / 3.0

    r = 0.5
    last_exc: Exception | None = None
    for attempt in range(1, 7):
        try:
            curve = _assemble_curve(table, times, d, r)
            if verify:
                got = itinerary(curve)
                if got != word:
                    raise PathNotAccessible(
                        f"re-extracted itinerary {symgrp.word_name(got)} "
                        "differs from request"
                    )
            if _log.isEnabledFor(logging.DEBUG):  # word_name costs 40 us
                _log.debug(
                    "synthesized %s on attempt %d, r = %g",
                    symgrp.word_name(word), attempt, r,
                )
            return curve
        except (
            UnresolvedCluster,
            PathNotAccessible,
            spinalg.NotUnit,
            spinalg.NoRootInInterval,
        ) as exc:
            last_exc = exc
            r *= 0.5
    raise PathNotAccessible(
        f"could not realize itinerary (last failure: {last_exc})"
    )


@functools.lru_cache(maxsize=None)
def _final_corner(n: int) -> tuple:
    """Chart-corner angle pattern in {0, pi}**l whose alpha product is
    ``acute(eta)**2``, a boundary corner of the positive cell."""
    eta = symgrp.longest_element(n)
    eta_word, a = symgrp.reduced_word(eta), spinalg.acute(eta)
    pats = np.array(list(itertools.product((0.0, math.pi), repeat=len(eta_word))))
    rows = _chart_product(n, Spinor.one(n), eta_word, pats)
    hits = np.flatnonzero(np.linalg.norm(rows - (a * a).to_float().v, axis=1) < 1e-9)
    if not len(hits):
        raise PathNotAccessible("endpoint is not a corner of the final chart")
    return tuple(pats[hits[0]].tolist())


@functools.lru_cache(maxsize=None)
def _right_blade(n: int, i: int) -> tuple:
    """Right multiplication by ``e_{i,i+1}`` as the signed permutation
    ``(src, sign)`` of blade columns: ``(Z e_{i,i+1})[:, c] = sign[c] *
    Z[:, src[c]]``."""
    t = spinalg._tables(n)
    src = np.argmax(t.prod_index == t.index[(i, i + 1)], axis=0)
    return src, t.prod_sign[src, np.arange(len(src))]


def _chart_product(n: int, q: Spinor, eta_word, thetas) -> np.ndarray:
    """Coefficient rows of ``q * prod_i alpha_{eta_word[i]}(thetas[:, i])``
    for a ``(k, len(eta_word))`` stack of angles.

    Each factor is the two-term update ``Z <- cos(th/2) Z - sin(th/2) Z
    e_{i,i+1}``; every output blade has one term of each, so the rows equal
    the :class:`Spinor` product chain bit for bit.
    """
    Z = np.tile(q.v, (len(thetas), 1))
    for i, th in zip(eta_word, thetas.T):
        src, sign = _right_blade(n, i)
        half = th[:, None] / 2
        Z = np.cos(half) * Z - np.sin(half) * (Z[:, src] * sign)
    return Z


@functools.lru_cache(maxsize=None)
def _arc_end_charts(sigma: Permutation, r: float) -> tuple:
    """Chart angles of the two ends of a model arc of the letter sigma,
    each in the cell it lies in.

    The arc of sigma_j is ``B(w, j) exp(s c h)``, ``|s| <= r``.  Its start
    is ``q_{j-1} acute(eta) acute(sigma) exp(-r c h)`` and its end ``q_j
    acute(eta) grave(sigma) exp(r c h)``; their charts in the cells of
    ``q_{j-1}`` and ``q_j`` depend on sigma and r alone, so each is read
    once per letter and r, as ``(start, end)``."""
    n = sigma.n
    a = spinalg.acute(symgrp.longest_element(n))
    c = math.pi / 4
    E = spinalg.exp_h(n, [-r * c, r * c])[:, None]
    rows = [
        (E @ (a * x).to_float().left_matrix().T)[k, 0]
        for k, x in enumerate((spinalg.acute(sigma), spinalg.grave(sigma)))
    ]
    return tuple(tuple(spinalg.positive_chart(Spinor(n, v))) for v in rows)


def _assemble_curve(table, times, d, r) -> FrameCurve:
    """Model arcs ``B(w, j) exp(s c h)`` joined by chart connectors, read
    a stack at a time: the stack is split by segment, and each segment is
    a few array operations (one :func:`~artifact.spinalg.exp_h` product
    per arc, one :func:`_chart_product` per connector).

    A connector runs in the chart of its cell ``q_j`` between the ends of
    the arcs around it, whose angles come from :func:`_arc_end_charts`
    per letter; only the arcs' crossings ``B(w, j)`` come from the word."""
    word = table.word
    n = word[0].n
    ell = len(word)
    eta_word = symgrp.reduced_word(symgrp.longest_element(n))
    c = math.pi / 4  # the model arcs are B(w, j) exp(s c h), |s| <= r

    # B(w, j) * row is the row times B's left multiplication matrix, taken
    # row by row so that a row does not depend on the rest of its stack
    arcs = [table.integer[j + 1].to_float().left_matrix().T for j in range(ell)]
    qs = [qj.to_float() for qj in table.q]
    charts = [_arc_end_charts(sigma, r) for sigma in word]

    def arc(j):
        return lambda t: (
            spinalg.exp_h(n, (t - times[j]) / d * r * c)[:, None] @ arcs[j]
        )[:, 0]

    segments = []  # (t_lo, t_hi, rows of a stack of times in [t_lo, t_hi])

    def add_chart_connector(q, th_from, th_to, t_lo, t_hi):
        th_from = np.array(th_from)

        def rows(t):
            s = ((t - t_lo) / (t_hi - t_lo))[:, None]
            end = np.array(_final_corner(n) if th_to is None else th_to)
            return _chart_product(n, q, eta_word, (1 - s) * th_from + s * end)

        segments.append((t_lo, t_hi, rows))

    # initial ramp: 1 -> C_1 inside the component q_0 = 1
    add_chart_connector(qs[0], [0.0] * len(eta_word), charts[0][0], 0.0, times[0] - d)
    for j in range(ell):
        segments.append((times[j] - d, times[j] + d, arc(j)))
        th_a = charts[j][1]
        if j + 1 < ell:
            th_c = charts[j + 1][0]
            add_chart_connector(qs[j + 1], th_a, th_c, times[j] + d, times[j + 1] - d)
        else:
            # endpoint B(w, l+1) = q_l acute(eta)**2 is a Quat point on the
            # boundary of the last component: approach it through that corner,
            # found on first use (by a chart product, which building avoids)
            add_chart_connector(qs[ell], th_a, None, times[-1] + d, 1.0)

    bounds = [seg[0] for seg in segments]

    def spinors(ts: np.ndarray) -> np.ndarray:
        seg = np.searchsorted(bounds, ts, side="right") - 1
        seg = np.clip(seg, 0, len(segments) - 1)
        out = np.empty((len(ts), 2**n))
        for k in np.unique(seg).tolist():
            lo, hi, rows = segments[k]
            at = seg == k
            out[at] = rows(np.clip(ts[at], lo, hi))
        return out

    return FrameCurve(n, tuple(bounds) + (1.0,), spinors)


# ---------------------------------------------------------------------------
# The u invariant of an acb event
# ---------------------------------------------------------------------------


_ACB = Permutation((3, 1, 4, 2))


def u_invariant(curve: FrameCurve, t_star: float) -> float:
    """The modulus ``u`` of an ``acb`` event at ``t_star`` (n = 3).

    The event must have multiplicity vector (2, 1, 2) (letter ``acb``),
    otherwise :class:`NotAnAcbEvent`.  The curve is written in the
    unit-lower triangular chart ``L(t)`` through the crossing and

        ``u = (b3 f1' - b1 f3') / (2 b1 b3 beta2)``

    with ``beta_i = (L^-1 L')_{i+1,i}``, ``f_i = beta_i / beta_2`` and
    ``b_i = f_i(t_star)``, all derivatives by Richardson-extrapolated
    central differences of step ``h = 2e-3`` (``4h`` for ``f``), inside a
    window of half-width ``min(0.05, 0.45 * span)`` around ``t_star``.
    The letter is read as by :func:`singular_events` (one reach, 0.2 w),
    and the chart is fixed by the minors' signs at ``t_star - w/2``, with
    those frames in one stacked :meth:`FrameCurve.matrix` call: no spinor
    is read.  The frames must lie in the domain, else NotAnAcbEvent.
    """
    n = curve.n
    if n != 3:
        raise NotAnAcbEvent(f"acb events require n = 3, curve has n = {n}")
    span = curve.t1 - curve.t0
    w = min(0.05, 0.45 * span)
    h = 2e-3
    t_in = t_star - 0.5 * w  # the frames below reach t_star +- (4h + h)
    if min(t_in, t_star - 4 * h - h) < curve.t0 or t_star + 4 * h + h > curve.t1:
        raise NotAnAcbEvent(f"event at t={t_star} is too close to a domain end")

    # one stacked read: the frame at t_in, the ladders, and L at the offsets
    # h * (0, +-1, +-1/2) of the five Richardson centres t_star + 4 * offsets
    H = 4 * h
    offsets = np.array([0.0, h, -h, h / 2, -h / 2])
    times = (t_star + 4 * offsets)[:, None] + offsets
    ladders = _ladders([t_star], [[0.2 * w]]).ravel()
    frames = curve.matrix(np.concatenate([[t_in], ladders, times.ravel()]))
    at_in, on_ladders, frames = np.split(frames, [1, 1 + len(ladders)])
    values = southwest_minors(on_ladders).reshape(1, 2, 6, 3)
    mult = tuple(_order(values[..., j], 3, j, t_star) for j in range(3))
    if mult != (2, 1, 2):
        raise NotAnAcbEvent(f"event at t={t_star} has mult {mult}, not (2, 1, 2)")

    # the signed cell q at t_in fixes the chart: Pi(q) = D is diagonal with
    # det D = 1, and m_j(D M) = (D's last j entries) m_j(M), so with r_j the
    # sign of m_j at t_in against m_j(Pi(acute eta)), D = diag(r_3, r_3 r_2,
    # r_2 r_1, r_1)
    eta = spinalg.acute(symgrp.longest_element(3))
    m = southwest_minors(np.stack([at_in[0], spinalg.project(eta.to_float())]))
    r = np.sign(m[0] * m[1])
    if not r.all():
        raise NotAnAcbEvent("incoming branch is not in an open signed cell")
    r = np.concatenate([[1.0], r, [1.0]])
    chart = spinalg.project((eta * spinalg.acute(_ACB)).to_float())
    A0inv = np.linalg.inv((r[1:] * r[:-1])[::-1, None] * chart)
    L = np.array([triang.lu_of_rotation(A0inv @ M)[0] for M in frames])
    L0, Lp, Lm, Lp2, Lm2 = L.reshape(5, 5, 4, 4).transpose(1, 0, 2, 3)
    d1 = (Lp - Lm) / (2 * h)
    d2 = (Lp2 - Lm2) / h
    B = np.linalg.solve(L0, (4 * d2 - d1) / 3)  # L^-1 L'
    beta = B[:, [1, 2, 3], [0, 1, 2]]
    b = beta[0]
    if abs(b[1]) < 1e-9:
        raise NotAnAcbEvent("beta_2 vanishes at the event")
    f = beta[:, [0, 2]] / beta[:, 1:2]  # f_1, f_3 at the centres
    d1 = (f[1] - f[2]) / (2 * H)
    d2 = (f[3] - f[4]) / H
    df = (4 * d2 - d1) / 3
    b1, b3 = f[0]
    return float((b3 * df[0] - b1 * df[1]) / (2 * b1 * b3 * b[1]))
