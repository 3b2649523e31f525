from fractions import Fraction

import pytest
import sympy as sp

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
