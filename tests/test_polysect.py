import inspect
import math
import time
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rootisolation import dup_refine_real_root

from artifact import polysect, symgrp


def letter(n, name):
    return symgrp.letter_from_name(n, name)


def classify_label(section, point):
    return polysect.classify_point(section, point).label


class TestAbaSection:
    section = polysect.build_section(letter(2, "aba"))

    def test_minors(self):
        t = self.section.t
        x1, x2 = self.section.x_vars
        m1, m2 = polysect.minors(self.section)
        assert sp.expand(m1 - (t**2 / 2 + x2)) == 0
        assert sp.expand(m2 - (t**2 / 2 + t * x1 - x2)) == 0

    def test_discriminants(self):
        x1, x2 = self.section.x_vars
        d1, d2 = polysect.discriminants(self.section)
        assert sp.expand(d1 - (-2 * x2)) == 0
        assert sp.expand(d2 - (x1**2 + 2 * x2)) == 0

    def test_resultant_identity(self):
        x1, x2 = self.section.x_vars
        d1, d2 = polysect.discriminants(self.section)
        r = polysect.resultants(self.section)[(1, 2)]
        assert sp.simplify(r - (-d1 * d2 / 4)) == 0

    def test_origin_is_the_letter(self):
        assert classify_label(self.section, (0, 0)) == "[aba]"

    def test_weights(self):
        assert self.section.x_weights == (1, 2)

    def test_region_labels(self):
        # representative points for the open regions around the origin
        assert classify_label(self.section, (Fraction(1, 4), Fraction(-1, 64))) == "baba"
        assert classify_label(self.section, (Fraction(-1, 4), Fraction(-1, 64))) == "abab"
        assert classify_label(self.section, (0, Fraction(-1, 64))) == "aa"
        assert classify_label(self.section, (0, Fraction(1, 64))) == "bb"


class TestAcbSection:
    section = polysect.build_section(letter(3, "acb"))

    def test_minors(self):
        t = self.section.t
        x1, x2 = self.section.x_vars
        m1, m2, m3 = polysect.minors(self.section)
        assert sp.expand(m1 - (t**2 / 2 + x2)) == 0
        assert sp.expand(m2 - (-t)) == 0
        assert sp.expand(m3 - (t**2 / 2 - x1)) == 0

    def test_discriminants_and_resultant(self):
        x1, x2 = self.section.x_vars
        d1, d2, d3 = polysect.discriminants(self.section)
        assert sp.expand(d1 - (-2 * x2)) == 0
        assert sp.expand(d3 - (2 * x1)) == 0
        r13 = polysect.resultants(self.section)[(1, 3)]
        assert sp.simplify(r13 - (x1 + x2) ** 2 / 4) == 0

    def test_antidiagonal_boundary_label(self):
        # on x2 = -x1, x1 > 0 the two double events merge letters
        assert classify_label(self.section, (Fraction(1, 10), Fraction(-1, 10))) == (
            "[ac]b[ac]"
        )

    def test_origin(self):
        assert classify_label(self.section, (0, 0)) == "[acb]"


class TestPerturbedFamilies:
    def test_betaprime_printed_formulas(self):
        u = sp.Symbol("u")
        fam = polysect.build_perturbed_family("betaprime", None)
        t = fam.t
        x1, x2 = fam.x_vars
        m1 = polysect.minors(fam)[0]
        assert sp.expand(m1 - (u * t**3 / 3 + t**2 / 2 + x2)) == 0
        d1 = polysect.discriminants(fam)[0]
        assert sp.simplify(d1 - (-x2 * (6 * u**2 * x2 + 1) / 2)) == 0
        r13 = polysect.resultants(fam)[(1, 3)]
        expected = u / 108 * (4 * u**2 * (x2 - x1) ** 3 + 9 * (x1 + x2) ** 2)
        assert sp.simplify(r13 - expected) == 0

    def test_matrix_u_at_zero_is_the_acb_section(self):
        fam = polysect.build_perturbed_family("matrix_u", 0)
        assert fam.M == polysect.build_section(letter(3, "acb")).M
        assert fam.u == 0

    def test_modulus_bound(self):
        with pytest.raises(ValueError):
            polysect.build_perturbed_family("betaprime", Fraction(3, 2))

    def test_close_root_ordering_regression(self):
        # two roots of different minors closer than the default isolation
        # width must still be ordered exactly (antidiagonal, u = +2/5)
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        for x1 in (Fraction(1, 275), Fraction(3, 275), Fraction(7, 275)):
            assert classify_label(fam, (x1, -x1)) == "acbac"
        famm = polysect.build_perturbed_family("betaprime", Fraction(-2, 5))
        for x1 in (Fraction(1, 275), Fraction(3, 275)):
            assert classify_label(famm, (x1, -x1)) == "cabca"


class TestClassifyPoint:
    def test_identity_letter_rejected(self):
        with pytest.raises(polysect.IdentityLetter):
            polysect.build_section(symgrp.identity(2))

    def test_multiplicities_recorded(self):
        section = polysect.build_section(letter(2, "aba"))
        cls = polysect.classify_point(section, (0, 0))
        (event,) = cls.events
        assert event.mult == (2, 2)
        assert event.root == 0

    def test_coordinate_count_checked(self):
        section = polysect.build_section(letter(2, "aba"))
        with pytest.raises(ValueError):
            polysect.classify_point(section, (0,))

    def test_domain_is_open(self):
        # a root exactly at t = 1 must not be counted
        section = polysect.build_section(letter(2, "aba"))
        cls = polysect.classify_point(section, (0, Fraction(-1, 2)))
        assert all(-1 < e.approx < 1 for e in cls.events)


class TestWeightedHomogeneity:
    """Each southwest minor of a section is weighted-homogeneous: with
    t -> lam t and x_l -> lam**w_l x_l it becomes lam**d_j m_j, where d_j is
    the letter's own multiplicity in m_j.  So the strata are cones, and the
    letter oracle may classify a grid point with every real root counted."""

    def test_every_minor_of_every_section(self):
        lam = sp.Symbol("lam")
        count = 0
        for n in (1, 2, 3):
            for sigma in symgrp.all_permutations(n):
                if sigma.is_identity():
                    continue
                section = polysect.build_section(sigma)
                scale = {section.t: lam * section.t}
                scale.update(
                    (x, lam**w * x)
                    for x, w in zip(section.x_vars, section.x_weights)
                )
                for m, d in zip(polysect.minors(section), symgrp.mult_vector(sigma)):
                    scaled = sp.Poly(sp.expand(m.subs(scale, simultaneous=True)), lam)
                    ((power,), coeff), = scaled.terms()
                    assert power == d, symgrp.letter_name(sigma)
                    assert sp.expand(coeff - m) == 0, symgrp.letter_name(sigma)
                    count += 1
        assert count == 1 + 5 * 2 + 23 * 3


class TestRingSections:
    """Sections are built in sympy's polynomial ring, once per letter, and
    read-only; ``M``, ``Mtilde_full`` and the minors are expression views."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ring_minors_equal_expression_determinants(self, n):
        # the determinant of the expression view is the reference: 1, 5, 23
        # and 119 letters of n = 1..4
        for sigma in symgrp.all_permutations(n):
            if sigma.is_identity():
                continue
            section = polysect.build_section(sigma)
            M = section.M
            expected = tuple(
                sp.expand(M[n + 1 - j :, :j].det()) for j in range(1, n + 1)
            )
            assert polysect.minors(section) == expected, symgrp.letter_name(sigma)

    def test_one_shared_read_only_section_per_letter(self):
        sigma = symgrp.letter_from_name(3, "acb")
        section = polysect.build_section(sigma)
        assert polysect.build_section(symgrp.letter_from_name(3, "acb")) is section
        for view in (section.M, section.Mtilde_full):
            with pytest.raises(TypeError):
                view[0, 0] = 1
        with pytest.raises(AttributeError):
            section.x_weights = ()

    def test_perturbations_leave_the_shared_section(self):
        acb = polysect.build_section(letter(3, "acb"))
        seed = acb.Mtilde_full
        polysect.build_perturbed_family("matrix_u", Fraction(2, 5))
        assert acb.Mtilde_full is seed
        assert seed[2, 1] == 0


t, x1, x2, x3, u = sp.symbols("t x1 x2 x3 u")
# the perturbed families' matrices and seeds, as printed by the expression build
BETAPRIME_M = [
    [-t**2*u/2 - t, -1, 0, 0],
    [t**5*u**2/30 - t**4*u/12 - t**3/6 - t**2*u*x1/2 - t*x1,
     t**3*u/6 - t**2/2 - x1, t**2*u/2 - t, -1],
    [-1, 0, 0, 0],
    [t**3*u/3 + t**2/2 + x2, t, 1, 0],
]
MATRIX_U_M = [
    [-t, -1, 0, 0],
    [-t**3/6 - t*x1, -t**2/2 - x1, -t, -1],
    [-t*u - 1, -u, 0, 0],
    [t**2/2 + x2, t, 1, 0],
]
MATRIX_U_SEED = [[0, -1, 0, 0], [0, -x1, 0, -1], [-1, -u, 0, 0], [x2, x3, 1, 0]]


@pytest.mark.parametrize("value", [None, Fraction(2, 5)])
@pytest.mark.parametrize(
    "kind, M, seed",
    [("betaprime", BETAPRIME_M, None), ("matrix_u", MATRIX_U_M, MATRIX_U_SEED)],
)
def test_perturbed_family_matrices(kind, M, seed, value):
    fam = polysect.build_perturbed_family(kind, value)
    at = {} if value is None else {u: sp.Rational(value)}
    assert fam.M == sp.Matrix(M).subs(at)
    if seed is None:
        assert fam.Mtilde_full is None
    else:
        assert fam.Mtilde_full == sp.Matrix(seed).subs(at)
    assert fam.point_vars == (x1, x2) + ((u,) if value is None else ())


@pytest.mark.parametrize(
    "section, point",
    [
        (polysect.build_section(letter(1, "a")), ()),
        (polysect.build_section(letter(2, "aba")), (Fraction(1, 3), Fraction(-1, 8))),
        (polysect.build_section(letter(3, "acb")), (0, Fraction(-7, 11))),
        (polysect.build_perturbed_family("betaprime", Fraction(2, 5)), (1, 0)),
        (polysect.build_perturbed_family("matrix_u", None), (1, 2, Fraction(-1, 3))),
    ],
    ids=["a", "aba", "acb", "betaprime", "matrix_u"],
)
def test_matrix_path_is_the_expression_matrix_at_the_point(section, point):
    # the ring rows at the point print as the expression view substituted
    at = dict(zip(section.point_vars, map(sp.Rational, point)))
    expected = sp.lambdify(section.t, section.M.subs(at), "numpy")
    got = polysect.matrix_path(section, point)
    assert inspect.getsource(got) == inspect.getsource(expected)
    with pytest.raises(ValueError):
        polysect.matrix_path(section, point + (0,))


class TestApprox:
    """``ExactEvent.approx`` is the double nearest the exact time, however
    large the certificate's coefficients or small the time against its
    isolating interval."""

    cba = polysect.build_section(letter(3, "cba"))

    @staticmethod
    def assert_nearest(approx, root: Fraction):
        """``root`` is within 2**-200 of the exact time."""
        assert approx == float(root)

    def test_certificate_beyond_the_float_range(self):
        # m_2 = t**2/2 - x2 vanishes at -+sqrt(2 x2); its certificate has
        # coefficients near 10**400
        x2 = Fraction(10**400 + 1, 3 * 10**400)
        cls = polysect.classify_point(self.cba, (0, x2))
        assert cls.label == "b[ac]b"
        low, _, high = cls.events
        assert max(abs(c) for c in low.certificate) > 10**400
        square = 2 * x2.numerator * x2.denominator << 400
        root = Fraction(math.isqrt(square), x2.denominator << 200)
        self.assert_nearest(high.approx, root)
        self.assert_nearest(low.approx, -root)

    def test_root_far_smaller_than_its_interval(self):
        # m_3 = t**2 + 10**160 t + 1 (times -1/6): the root near -1e-160
        # in the isolating interval (-1, 0)
        b = 10**160
        point = (Fraction(-b, 6), Fraction(b * b - 1, 6))
        cls = polysect.classify_point(self.cba, point)
        assert cls.label == "ca"
        event = cls.events[0]
        assert event.certificate == (1, b, 1)
        # -2 / (b + sqrt(b**2 - 4)), the root nearer zero
        root = Fraction(-2 << 1000, (b << 1000) + math.isqrt((b * b - 4) << 2000))
        self.assert_nearest(event.approx, root)

    def test_huge_coefficients_on_all_of_r(self):
        # the same point on all of R: six roots, from -1e160 to 1e160, whose
        # isolation once took seconds; one second is the budget
        b = 10**160
        start = time.perf_counter()
        cls = polysect.classify_point(
            self.cba, (Fraction(-b, 6), Fraction(b * b - 1, 6)), domain=None
        )
        approx = [e.approx for e in cls.events]
        elapsed = time.perf_counter() - start
        assert cls.label == "cbcabc"
        assert [e.mult for e in cls.events] == [
            (0, 0, 1), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        ]
        assert approx == [
            -1e160, -5.773502691896258e159, -1e-160, 0.0,
            5.773502691896258e159, 1e160,
        ]
        assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f} s"

    def test_cubic_certified_against_its_isolating_interval(self):
        # the cubic's bracket is +-4 ulps around numpy's root
        fam = polysect.build_perturbed_family("betaprime", Fraction(2, 5))
        cls = polysect.classify_point(fam, (Fraction(-1, 5), Fraction(-97, 495)))
        cubics = [e for e in cls.events if len(e.certificate) == 4]
        assert len(cubics) == 2
        for event in cubics:
            lo, hi = (polysect._qq(end) for end in event.interval)
            root, _ = dup_refine_real_root(
                list(event.certificate), lo, hi, ZZ, eps=QQ(1, 2**200)
            )
            self.assert_nearest(event.approx, polysect._fraction(root))

    def test_two_roots_within_one_ulp(self):
        # t**3 - 2 (10**20 t - 1)**2 vanishes at 1e-20 (1 -+ 7.1e-31), both
        # within one unit in the last place of 1/10**20, which lies between
        # them: the midpoint of the doubles around a root is beyond an end
        # of one of the two intervals, and that end decides
        h = [1, -2 * 10**40, 4 * 10**20, -2]
        c, eps = Fraction(1, 10**20), Fraction(1, 10**49)
        for lo, hi in ((c - eps, c), (c, c + eps)):
            assert polysect._sign(h, lo) != polysect._sign(h, hi)
            assert polysect._nearest_double(h, lo, hi) == float(c)

    def test_root_beyond_the_double_range(self):
        # aba at (0, -10**800 / 2): m_1 = t**2/2 + x2 vanishes at -+10**400
        section = polysect.build_section(letter(2, "aba"))
        point = (0, Fraction(-(10**800), 2))
        cls = polysect.classify_point(section, point, domain=None)
        assert [e.root for e in cls.events] == [-(10**400), 10**400]
        for event in cls.events:
            with pytest.raises(OverflowError):
                event.approx
        # the largest double, and the overflow threshold halfway past it
        big = 2**1024 - 2**971
        top = big + 2**970
        h = [1, 0, -(big * big + 1)]  # a root just above big rounds to it
        assert polysect._nearest_double(h, Fraction(big), Fraction(top)) == float(big)
        h = [1, 0, -(top * top + 1)]  # one just above top overflows
        with pytest.raises(OverflowError):
            polysect._nearest_double(h, Fraction(big), Fraction(top + 1))


class TestGrids:
    def test_grid_points_count(self):
        pts = polysect.grid_points(Fraction(1, 4), 5)
        assert len(pts) == 25
        assert all(
            abs(x) <= Fraction(1, 4) and abs(y) <= Fraction(1, 4)
            for x, y in pts
        )

    def test_weighted_grid_scales_axes(self):
        pts = polysect.weighted_grid_points(Fraction(1, 4), 3, (1, 2))
        xs = {p[0] for p in pts}
        ys = {p[1] for p in pts}
        assert max(xs) == Fraction(1, 4)
        assert max(ys) == Fraction(1, 16)
