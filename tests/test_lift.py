"""The rotation -> spin lift: the Cayley formula of
``triang._lift_rotation_step``, the half-turn lift of
``triang._lift_rotation`` and their typed errors."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from artifact import curvelab, polysect, spinalg, symgrp, triang
from artifact.spinalg import Spinor


@st.composite
def skew_matrices(draw):
    """(n, S): S skew of size n+1 with eigen-angles at most 3."""
    n = draw(st.integers(2, 4))
    m = n + 1
    entries = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=m * m, max_size=m * m)
    )
    A = np.array(entries).reshape(m, m)
    S = A - A.T
    top = np.abs(np.linalg.eigvals(S)).max()
    angle = draw(st.floats(0.0, 3.0))
    return n, S * (angle / top) if top > 1e-6 else S


def half_bivector(S: np.ndarray) -> Spinor:
    m = len(S)
    return Spinor.from_terms(
        m - 1,
        {(i + 1, j + 1): 0.5 * S[i, j] for i in range(m) for j in range(i + 1, m)},
    )


class TestCayleyLift:
    @settings(max_examples=150, deadline=None)
    @given(skew_matrices())
    def test_matches_exp_of_half_log(self, nS):
        n, S = nS
        R = expm(S)
        z = triang._lift_rotation_step(n, R)
        want = spinalg.clifford_exp(half_bivector(S))
        assert np.abs(z.v - want.v).max() < 1e-12
        assert z.is_unit()
        assert z.scalar_part() > 0
        assert np.abs(spinalg.project(z) - R).max() < 1e-12

    def test_identity(self):
        for n in (2, 3, 4):
            assert triang._lift_rotation_step(n, np.eye(n + 1)) == Spinor.one(n)

    def test_exterior_exp_is_product_over_planes(self):
        # two orthogonal planes of R^5: (1 + s e1e2)(1 + t e3e4)
        s, t = 0.7, -1.3
        C = np.zeros((5, 5))
        C[0, 1], C[2, 3] = s, t
        got = spinalg.exterior_exp(C - C.T)
        want = Spinor.from_terms(4, {(): 1.0, (1, 2): s, (3, 4): t, (1, 2, 3, 4): s * t})
        assert np.abs(got.v - want.v).max() < 1e-15


def half_turns(n):
    """Diagonal half-turns of SO_{n+1} and one conjugated by a rotation."""
    m = n + 1
    out = []
    for k in range(2, m + 1, 2):
        out.append(np.diag([-1.0] * k + [1.0] * (m - k)))
        out.append(np.diag([1.0] * (m - k) + [-1.0] * k))
    upper = np.triu(np.ones((m, m)), 1)
    Q = expm(0.3 * (upper - upper.T))
    out.append(Q @ np.diag([-1.0, -1.0] + [1.0] * (m - 2)) @ Q.T)
    return out


class TestHalfTurns:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lift_projects_back(self, n):
        for R in half_turns(n):
            with pytest.raises(triang.NearHalfTurn):
                triang._lift_rotation_step(n, R)
            z = triang._lift_rotation(n, R)
            assert z.is_unit()
            assert np.abs(spinalg.project(z) - R).max() < 1e-12

    def test_examples(self):
        z = triang._lift_rotation(2, np.diag([-1.0, -1.0, 1.0]))
        assert abs(abs(z.coefficient((1, 2))) - 1.0) < 1e-15
        z = triang._lift_rotation(3, np.diag([1.0, -1.0, -1.0, 1.0]))
        assert abs(abs(z.coefficient((2, 3))) - 1.0) < 1e-15

    def test_generic_rotation_lifts_like_the_step(self):
        R = expm(0.4 * (np.eye(4, k=1) - np.eye(4, k=-1)))
        assert triang._lift_rotation(3, R) == triang._lift_rotation_step(3, R)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "R",
        [
            2.0 * np.eye(3),
            np.diag([-1.0, 1.0, 1.0]),  # orthogonal, det -1
            np.eye(4),  # wrong size for n = 2
            np.full((3, 3), np.nan),
        ],
    )
    def test_not_a_rotation(self, R):
        with pytest.raises(triang.NotARotation):
            triang._lift_rotation_step(2, R)
        with pytest.raises(triang.NotARotation):
            triang._lift_rotation(2, R)

    def test_near_half_turn(self):
        eps = 1e-9
        R = np.eye(3)
        R[:2, :2] = [[np.cos(np.pi - eps), -np.sin(np.pi - eps)],
                     [np.sin(np.pi - eps), np.cos(np.pi - eps)]]
        with pytest.raises(triang.NearHalfTurn):
            triang._lift_rotation_step(2, R)

    def test_errors_are_value_errors(self):
        assert issubclass(triang.NotARotation, ValueError)
        assert issubclass(triang.NearHalfTurn, ValueError)


class TestNoMatrixFunctions:
    """The lift reaches neither ``logm`` nor ``sqrtm``."""

    @pytest.fixture
    def no_matrix_functions(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("matrix function called")

        monkeypatch.setattr(scipy.linalg, "logm", boom)
        monkeypatch.setattr(scipy.linalg, "sqrtm", boom)

    def test_section_curve_label(self, no_matrix_functions):
        section = polysect.build_section(symgrp.letter_from_name(2, "aba"))
        point = (Fraction(1, 3), Fraction(-1, 8))
        mfun = polysect.matrix_path(section, point)
        curve = curvelab.frame_curve_from_matrix_path(
            section.n, mfun, np.linspace(-1.0, 1.0, 201)
        )
        events = curvelab.singular_events(curve)
        numeric = symgrp.word_name(tuple(ev.letter for ev in events))
        assert numeric == polysect.classify_point(section, point).label

    def test_half_turn(self, no_matrix_functions):
        triang._lift_rotation(3, np.diag([1.0, -1.0, -1.0, 1.0]))
