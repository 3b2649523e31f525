import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from artifact import symgrp, triang


def L_xyz(x, y, z):
    return [[1, 0, 0], [x, 1, 0], [z, y, 1]]


class TestJacobiProducts:
    def test_product_along_matches_manual(self):
        L = triang.product_along(2, (1, 2, 1), [Fraction(2), Fraction(3), Fraction(5)])
        assert L == L_xyz(Fraction(7), Fraction(3), Fraction(15))

    def test_exp_nilpotent_is_totally_positive(self):
        L = triang.exp_nilpotent(3, Fraction(1))
        eta = symgrp.longest_element(3)
        params = triang.factor_along(L, symgrp.reduced_word(eta))
        assert all(t > 0 for t in params)


class TestCommuteIdentity:
    def test_unit_triple(self):
        assert triang.commute_identity(1, 1, 1, 1) == (
            Fraction(1, 2),
            Fraction(2),
            Fraction(1, 2),
        )

    def test_random_exact(self):
        rng = random.Random(11)
        for _ in range(20):
            s = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            r = triang.commute_identity(1, *s)
            lhs = triang.product_along(2, (1, 2, 1), s)
            rhs = triang.product_along(2, (2, 1, 2), r)
            assert lhs == rhs


class TestFactorAlong:
    def test_aba_roundtrip(self):
        L = triang.product_along(2, (1, 2, 1), [Fraction(2), Fraction(3), Fraction(5)])
        assert triang.factor_along(L, (1, 2, 1)) == (
            Fraction(2),
            Fraction(3),
            Fraction(5),
        )

    def test_bab_closed_form(self):
        # same L in the other chart: (z/x, x, y - z/x) at x=7, y=3, z=15
        L = L_xyz(Fraction(7), Fraction(3), Fraction(15))
        assert triang.factor_along(L, (2, 1, 2)) == (
            Fraction(15, 7),
            Fraction(7),
            Fraction(6, 7),
        )

    def test_identity_not_factorizable(self):
        with pytest.raises(triang.NotFactorizable):
            triang.factor_along(triang.identity_matrix(2), (1, 2, 1))


class TestOrders:
    def test_identity_ll_exp_nilpotent(self):
        I = triang.identity_matrix(2)
        L = triang.exp_nilpotent(2, Fraction(1))
        assert triang.is_ll(I, L)

    def test_ll_irreflexive_leq_reflexive(self):
        L = triang.exp_nilpotent(2, Fraction(1))
        assert not triang.is_ll(L, L)
        assert triang.is_leq(L, L)

    def test_leq_on_a_smaller_cell(self):
        # L0^-1 L1 = jacobi(1, t) lies in the closure of Pos_eta iff t > 0
        L0 = triang.exp_nilpotent(2, Fraction(1))
        assert triang.is_leq(L0, triang.mat_mul(L0, triang.jacobi(2, 1, Fraction(2))))
        assert not triang.is_leq(
            L0, triang.mat_mul(L0, triang.jacobi(2, 1, Fraction(-2)))
        )

    def test_transitivity_spot_check(self):
        rng = random.Random(5)
        eta_word = (1, 2, 1)
        for _ in range(5):
            a = triang.product_along(
                2, eta_word, [Fraction(rng.randint(1, 5)) for _ in range(3)]
            )
            step = triang.product_along(
                2, eta_word, [Fraction(1, rng.randint(1, 5)) for _ in range(3)]
            )
            b = triang.mat_mul(a, step)
            c = triang.mat_mul(b, step)
            assert triang.is_ll(a, b) and triang.is_ll(b, c)
            assert triang.is_ll(a, c)


class TestAccessibility:
    def test_symbolic_closed_forms(self):
        x, y, z, t1, t2 = sp.symbols("x y z t1 t2", positive=True)
        L = L_xyz(x, y, z)
        c = triang.factor_along(L, (1, 2, 1), require_positive=False)
        assert [sp.simplify(v) for v in c] == [x - z / y, y, z / y]
        ct = triang.factor_along(L, (2, 1, 2), require_positive=False)
        assert [sp.simplify(v) for v in ct] == [z / x, x, y - z / x]

        c1, c2, c3 = x - z / y, y, z / y
        qp = triang.accessibility_quasiproduct(L, (1, 2))
        assert sp.simplify(qp.c1 - c1) == 0
        assert sp.simplify(qp.g(2, (t1,)) - c2 * c3 / (c1 + c3 - t1)) == 0
        qp3 = triang.accessibility_quasiproduct(L, (1, 2, 1))
        assert sp.simplify(qp3.g(3, (t1, t2)) - c2 * (c1 - t1) / (c2 - t2)) == 0

    def test_rational_instance(self):
        L = L_xyz(Fraction(7), Fraction(3), Fraction(15))
        qp = triang.accessibility_quasiproduct(L, (1, 2, 1))
        assert qp.c1 == Fraction(2)  # x - z/y = 7 - 5
        assert qp.contains((Fraction(1), Fraction(1), Fraction(1)))
        assert not qp.contains((Fraction(3), Fraction(1), Fraction(1)))

    def test_sampled_points_below_lx(self):
        L = L_xyz(Fraction(7), Fraction(3), Fraction(15))
        qp = triang.accessibility_quasiproduct(L, (1, 2, 1))
        rng = random.Random(3)
        for _ in range(25):
            t = []
            for j in range(1, 4):
                g = qp.g(j, tuple(t))
                t.append(g * Fraction(rng.randint(1, 9), 10))
            prod = triang.product_along(2, (1, 2, 1), t)
            assert triang.is_ll(prod, L)

    def test_not_totally_positive(self):
        with pytest.raises(triang.NotTotallyPositive):
            triang.accessibility_quasiproduct(triang.identity_matrix(2), (1, 2))


class TestRotationBridges:
    def test_qr_positive_roundtrip(self):
        rng = random.Random(2)
        M = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        while abs(np.linalg.det(np.array(M))) < 1e-3:
            M = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        Q, R = triang.qr_positive(M)
        Qa, Ra = np.array(Q), np.array(R)
        assert np.allclose(Qa @ Ra, np.array(M), atol=1e-10)
        assert np.allclose(Qa.T @ Qa, np.eye(3), atol=1e-10)
        assert all(Ra[i, i] > 0 for i in range(3))

    def test_lu_of_rotation(self):
        theta = 0.6
        c, s = math.cos(theta), math.sin(theta)
        Q = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        L, U = triang.lu_of_rotation(Q)
        La, Ua = np.array(L, dtype=float), np.array(U, dtype=float)
        assert np.allclose(La @ Ua, np.array(Q), atol=1e-12)
        assert np.allclose(np.tril(La), La) and np.allclose(np.diag(La), 1.0)


    def test_lu_of_rotation_matches_list_doolittle(self):
        # the row updates are the float operations of a list-of-rows
        # Doolittle, so the factors agree bit for bit
        rng = np.random.default_rng(4)
        for m in (2, 3, 4, 5):
            Q = rng.standard_normal((m, m))
            L = [[float(i == j) for j in range(m)] for i in range(m)]
            U = [list(row) for row in Q.tolist()]
            for col in range(m):
                for r in range(col + 1, m):
                    f = U[r][col] / U[col][col]
                    L[r][col] = f
                    U[r] = [a - f * b for a, b in zip(U[r], U[col])]
            La, Ua = triang.lu_of_rotation(Q)
            assert np.array_equal(La, L) and np.array_equal(Ua, U)

    def test_lu_of_rotation_zero_leading_minor(self):
        quarter_turn = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(triang.NotLUDecomposable):
            triang.lu_of_rotation(quarter_turn)


class TestMatInv:
    def test_random_exact(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                L = triang.identity_matrix(n)
                for i in range(n + 1):
                    for j in range(i):
                        L[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                assert triang.mat_mul(L, triang.mat_inv(L)) == triang.identity_matrix(n)

    def test_symbolic(self):
        x, y, z = sp.symbols("x y z")
        L = L_xyz(x, y, z)
        P = triang.mat_mul(L, triang.mat_inv(L))
        assert [[sp.expand(v) for v in row] for row in P] == triang.identity_matrix(2)

    @pytest.mark.parametrize(
        "M",
        [
            [[1, 1], [0, 1]],
            [[2, 0], [1, 1]],
            [[1, 0, 0], [1, 1, 0], [0, 0, 0]],
        ],
        ids=["upper-entry", "diagonal-2", "singular"],
    )
    def test_not_unit_lower_triangular(self, M):
        with pytest.raises(ValueError):
            triang.mat_inv(M)


class TestCellOfUnitriangular:
    def test_generic_is_longest(self):
        L = triang.exp_nilpotent(2, Fraction(1))
        assert triang.cell_of_unitriangular(L) == symgrp.longest_element(2)

    def test_identity_cell(self):
        assert triang.cell_of_unitriangular(
            triang.identity_matrix(2)
        ) == symgrp.identity(2)
