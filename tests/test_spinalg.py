import math
from fractions import Fraction

import numpy as np
import pytest

from artifact import spinalg, symgrp
from artifact.spinalg import CliffordEven, QSqrt2


def as_float_terms(z):
    return {blade: float(c) for blade, c in z.to_float().terms}


def assert_close(z, w, tol=1e-12):
    d = z.to_float() - w.to_float()
    assert all(abs(float(c)) < tol for _, c in d.terms)


class TestQSqrt2:
    def test_arithmetic(self):
        half = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)
        assert (half * half).p == Fraction(1, 2)
        assert (half * half).q == 0

    def test_exactness(self):
        a = QSqrt2(Fraction(1, 3), Fraction(2, 7))
        b = QSqrt2(Fraction(-2, 5), Fraction(1, 2))
        prod = a * b
        # (p1 + q1 s)(p2 + q2 s) = p1 p2 + 2 q1 q2 + (p1 q2 + p2 q1) s
        assert prod.p == Fraction(1, 3) * Fraction(-2, 5) + 2 * Fraction(2, 7) * Fraction(1, 2)
        assert prod.q == Fraction(1, 3) * Fraction(1, 2) + Fraction(-2, 5) * Fraction(2, 7)


class TestGenerators:
    def test_basis_vectors_square_to_plus_one(self):
        # e_i e_j * e_j e_i = +1 for the bivector blades
        for n in (2, 3):
            for i in range(1, n + 1):
                blade = CliffordEven.make(n, {(i, i + 1): QSqrt2(1)})
                sq = blade * blade
                assert_close(sq, CliffordEven.make(n, {(): QSqrt2(-1)}))
                # e_{i+1}e_i e_{i+1}e_i = -e_{i+1}e_{i+1}e_i e_i = -1
                # confirms e_i^2 = +1 convention

    def test_alpha_two_pi_is_minus_one(self):
        for n in (2, 3, 4):
            for j in range(1, n + 1):
                z = spinalg.alpha(n, j, 2 * math.pi)
                minus_one = CliffordEven.make(n, {(): -1.0})
                assert_close(z, minus_one, tol=1e-12)

    def test_alpha_projects_to_givens(self):
        n, j, theta = 3, 2, 0.7
        M = np.array(
            spinalg.project(spinalg.alpha(n, j, theta)), dtype=float
        )
        expected = np.eye(n + 1)
        c, s = math.cos(theta), math.sin(theta)
        expected[j - 1 : j + 1, j - 1 : j + 1] = [[c, -s], [s, c]]
        assert np.allclose(M, expected, atol=1e-12)


class TestLiftedGroup:
    def test_acute_reduced_word_independence(self):
        for n in (2, 3):
            for sigma in symgrp.all_permutations(n):
                words = symgrp.all_reduced_words(sigma)
                vals = set()
                for w in words:
                    z = CliffordEven.one(n)
                    for i in w:
                        z = z * spinalg.alpha_exact(n, i, +1)
                    vals.add(z.terms)
                assert len(vals) == 1

    def test_hat_in_quat(self):
        for n in (2, 3):
            quat = {z.terms for z in spinalg.quat_elements(n)}
            for sigma in symgrp.all_permutations(n):
                assert spinalg.hat(sigma).terms in quat

    def test_quat_has_two_to_n_plus_one_elements(self):
        for n in (2, 3):
            elems = spinalg.quat_elements(n)
            assert len(elems) == 2 ** (n + 1)
            assert len({z.terms for z in elems}) == 2 ** (n + 1)

    def test_hat_is_acute_grave_quotient(self):
        for sigma in symgrp.all_permutations(2):
            lhs = spinalg.hat(sigma)
            grave = spinalg.grave(sigma)
            acute = spinalg.acute(sigma)
            assert_close(lhs * grave, acute)


class TestWordTable:
    def test_endpoint_identity(self):
        n = 2
        word = symgrp.word_from_name(n, "abab")
        table = spinalg.word_table(word, n)
        eta = symgrp.longest_element(n)
        ell = len(word)
        endpoint = table.half[ell] * spinalg.acute(eta)
        assert_close(endpoint, table.integer[ell + 1])

    def test_q_values_in_quat(self):
        n = 2
        word = symgrp.word_from_name(n, "a[ba]")
        table = spinalg.word_table(word, n)
        quat = {z.terms for z in spinalg.quat_elements(n)}
        for j in range(len(word) + 1):
            assert table.q[j].terms in quat

    def test_q_of_word_quat(self):
        n = 3
        quat = {z.terms for z in spinalg.quat_elements(n)}
        word = symgrp.word_from_name(n, "a[cb]a")
        assert spinalg.q_of_word(word, n).terms in quat


class TestThetaExit:
    def test_roundtrip(self):
        rho = symgrp.Permutation((3, 1, 2))
        i = 2
        base = spinalg.acute(symgrp.compose(rho, symgrp.coxeter_generator(2, i)))
        for theta0 in (0.3, 1.1, 2.6):
            y = base.to_float() * spinalg.alpha(2, i, theta0)
            theta = spinalg.theta_exit(y, i, rho)
            assert abs(theta - theta0) < 1e-10

    def test_degenerate_raises(self):
        # acute(eta)^2 lies in Quat: a cell corner with a degenerate
        # pivot minor, not an interior point of the chart
        eta = symgrp.longest_element(2)
        z = (spinalg.acute(eta) * spinalg.acute(eta)).to_float()
        with pytest.raises(spinalg.NoRootInInterval):
            spinalg.theta_exit(z, symgrp.reduced_word(eta)[-1], eta)


class TestSignedCell:
    def test_alpha_products_in_positive_cell(self):
        import random

        rng = random.Random(7)
        n = 2
        eta = symgrp.longest_element(n)
        word = symgrp.reduced_word(eta)
        for _ in range(10):
            z = CliffordEven.one(n).to_float()
            for i in word:
                z = z * spinalg.alpha(n, i, rng.uniform(0.1, 3.0))
            assert spinalg.in_positive_cell(z)
            assert not spinalg.in_positive_cell(z * CliffordEven.make(n, {(): -1.0}))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signed_cell_of_every_quat_element(self, n):
        import random

        rng = random.Random(n)
        word = symgrp.reduced_word(symgrp.longest_element(n))
        for q in spinalg.quat_elements(n):
            z = q.to_float()
            for i in word:
                z = z * spinalg.alpha(n, i, rng.uniform(0.1, 3.0))
            assert spinalg.signed_cell(z) == q

    def test_cell_corner_has_no_signed_cell(self):
        for n in (2, 3):
            corner = spinalg.acute(symgrp.longest_element(n))
            assert spinalg.signed_cell(corner * corner) is None

    def test_non_unit_element_has_no_signed_cell(self):
        # twice a unit element of the open cell has that cell's rank
        # pattern, but its exit angles cannot be peeled
        i, j, k = symgrp.reduced_word(symgrp.longest_element(2))
        y = spinalg.alpha(2, i, 0.4) * spinalg.alpha(2, j, 1.3) * spinalg.alpha(2, k, 2.2)
        assert spinalg.signed_cell(y) == spinalg.CliffordEven.one(2)
        assert spinalg.signed_cell(y.scale(2.0)) is None

    @pytest.mark.parametrize(
        "thetas",
        [(0.0, 0.7, 1.9), (math.pi, 0.7, 1.9), (0.4, 0.7, 0.0), (0.4, 0.7, math.pi)],
        ids=["first-0", "first-pi", "last-0", "last-pi"],
    )
    def test_boundary_of_the_cell_has_no_signed_cell(self, thetas):
        # an end angle of 0 or pi leaves the open cell for its boundary,
        # where the rank pattern of the matrix drops below that of eta
        z = CliffordEven.one(2).to_float()
        for i, th in zip((1, 2, 1), thetas):
            z = z * spinalg.alpha(2, i, th)
        assert spinalg.signed_cell(z) is None
        assert not spinalg.in_positive_cell(z)

    def test_positive_chart_roundtrip(self):
        n = 2
        eta = symgrp.longest_element(n)
        word = symgrp.reduced_word(eta)
        thetas = [0.4, 1.3, 2.2]
        z = CliffordEven.one(n).to_float()
        for i, th in zip(word, thetas):
            z = z * spinalg.alpha(n, i, th)
        rec = spinalg.positive_chart(z)
        assert max(abs(a - b) for a, b in zip(rec, thetas)) < 1e-10


class TestCellOfMatrix:
    def test_cell_of_acute(self):
        for n in (2, 3):
            for sigma in symgrp.all_permutations(n):
                M = spinalg.project(spinalg.acute(sigma))
                assert spinalg.cell_of_matrix(M) == sigma


class TestProjectGradeOne:
    """At n = 5 the unit even element (1 + e1e2e3e4e5e6)/sqrt2 lies outside
    Spin_6: conjugation by it sends each vector out of grade 1."""

    HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))
    Z = CliffordEven.make(5, {(): HALF_SQRT2, (1, 2, 3, 4, 5, 6): HALF_SQRT2})

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_not_in_spin(self, exact):
        z = self.Z if exact else self.Z.to_float()
        assert z.is_unit()
        with pytest.raises(spinalg.NotUnit, match="did not preserve grade 1"):
            spinalg.project(z)


class TestProjectStack:
    def test_non_finite_row_is_not_unit(self):
        rows = np.stack([spinalg.Spinor.one(2).v, np.full(4, np.nan)])
        with pytest.raises(spinalg.NotUnit):
            spinalg._project_float(2, rows)


class TestSpinExpH:
    def test_circle_column(self):
        n = 2
        for t in (0.0, 0.25, 0.4, 1.0):
            z = spinalg.spin_exp_h(n, math.pi * t)
            M = np.array(spinalg.project(z), dtype=float)
            col = M[:, 0]
            expected = 0.5 * np.array(
                [
                    1 + math.cos(2 * math.pi * t),
                    math.sqrt(2) * math.sin(2 * math.pi * t),
                    1 - math.cos(2 * math.pi * t),
                ]
            )
            assert np.allclose(col, expected, atol=1e-12)


class TestOneExponential:
    def test_h_bivector_is_a_sum_of_the_a_j(self):
        for n in (2, 3, 4):
            roots = [math.sqrt(j * (n + 1 - j)) for j in range(1, n + 1)]
            assert spinalg.h_bivector(n) == spinalg._a_sum(n, roots)

    def test_exp_h_is_the_stack_of_h(self):
        s = np.array([0.0, 0.3, -2.0, math.pi])
        modes = spinalg._modes(spinalg.h_bivector(3))
        assert np.array_equal(spinalg.exp_h(3, s), spinalg._exp_stack(modes, s))

    @pytest.mark.parametrize("s", [1e13, -1e13, math.inf, math.nan])
    def test_lost_phase_is_not_unit(self, s):
        # eps |s w| beyond the unit tolerance: rows would be unit but wrong
        with pytest.raises(spinalg.NotUnit):
            spinalg.exp_h(2, [0.0, s])
        assert spinalg.spin_exp_h(2, 1000.0).is_unit()

    def test_lost_phase_of_one_bivector(self):
        with pytest.raises(spinalg.NotUnit):
            spinalg.clifford_exp(spinalg.h_bivector(2).scale(1e13))
