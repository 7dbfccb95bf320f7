"""Exterior algebra core: wedge, contraction, star, pairing, blade order."""

from fractions import Fraction
from itertools import combinations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosym3 import contact
from cosym3.cellular import TwistMap, unit_translation_twist
from cosym3.contact import ALPHAS, PhiStarTable
from cosym3.exterior import (
    Basis,
    ModelDims,
    Multivector,
    _combine,
    _pull_back,
    hodge_star,
    interior,
    leading_blade,
    pairing,
    wedge,
)
from cosym3.linalg import det, sort_with_sign
from helpers import coefficients, homogeneous, multivectors, pull_back_reference

D1 = ModelDims(1)
D2 = ModelDims(2)


class TestWedge:
    def test_square_of_one_form_vanishes(self):
        z1 = Multivector.blade((0,))
        assert not wedge(z1, z1)

    def test_transposition_sign(self):
        e1, e2 = Multivector.blade((0,)), Multivector.blade((1,))
        assert wedge(e2, e1) == -wedge(e1, e2)
        assert wedge(e2, e1).terms == {(0, 1): -1}

    def test_disjoint_ordered_factors(self):
        eta2 = Multivector.blade((contact.eta_index(D1, 2),))
        eta3 = Multivector.blade((contact.eta_index(D1, 3),))
        assert wedge(eta2, eta3) == Multivector.blade((5, 6))

    @given(a=multivectors(), b=multivectors())
    def test_bilinear(self, a, b):
        c = Multivector.blade((2, 4))
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
        assert wedge(c, a + b) == wedge(c, a) + wedge(c, b)

    @given(
        p=st.integers(0, 3),
        q=st.integers(0, 3),
        data=st.data(),
    )
    def test_graded_anticommutative(self, p, q, data):
        a = data.draw(homogeneous(degree=p))
        b = data.draw(homogeneous(degree=q))
        sign = (-1) ** (p * q)
        assert wedge(a, b) == sign * wedge(b, a)

    @given(a=multivectors(max_terms=3), b=multivectors(max_terms=3), c=multivectors(max_terms=3))
    @settings(deadline=None)
    def test_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


scalars = st.integers(-3, 3).map(Fraction) | st.just(1)


class TestCombine:
    @given(pairs=st.lists(st.tuples(scalars, multivectors()), max_size=5))
    def test_matches_term_by_term_sum(self, pairs):
        reference = {}
        for scalar, form in pairs:
            for b, coeff in form.terms.items():
                reference[b] = reference.get(b, 0) + scalar * coeff
        result = _combine(pairs)
        assert result.terms == {b: c for b, c in reference.items() if c}
        assert all(type(c) is Fraction for c in result.terms.values())

    @given(a=multivectors(), b=multivectors(), c=coefficients())
    def test_cancellation_to_zero(self, a, b, c):
        assert _combine([(c, a), (1, b), (-c, a)]) == b
        assert _combine([(c, a), (-c, a)]) == Multivector.zero()
        assert a - a == Multivector.zero()

    def test_empty_is_zero(self):
        assert _combine([]) == Multivector.zero()
        assert _combine([(5, Multivector.zero())]) == Multivector.zero()


class TestConstructor:
    # Each invalid blade is built both before and after a valid blade of its
    # length has been seen: no blade is trusted for having been seen before.
    INVALID = [(41, 40, 42), (40, 40, 42), (-1, 40, 41)]

    def test_invalid_blades_always_raise(self):
        for bad in self.INVALID:
            with pytest.raises(ValueError):
                Multivector({bad: 1})
        assert Multivector.blade((40, 41, 42)).terms == {(40, 41, 42): 1}
        for bad in self.INVALID:
            with pytest.raises(ValueError):
                Multivector({bad: 1})
            with pytest.raises(ValueError):
                Multivector.blade(bad, Fraction(2))

    def test_zero_coefficients_dropped(self):
        mv = Multivector({(0,): 0, (1,): Fraction(0), (2,): 3, (3,): 0.0})
        assert mv.terms == {(2,): 3}
        assert not Multivector.blade((0, 1), 0)

    def test_int_coefficients_stay_int(self):
        mv = Multivector({(0,): 2, (1, 2): -1})
        for form in (mv, -mv, 3 * mv, Multivector.scalar(5), _combine([(2, mv), (1, mv)])):
            assert all(type(c) is int for c in form.terms.values())

    def test_other_coefficients_become_fractions(self):
        mv = Multivector({(0,): 0.5, (1,): 2.0})
        assert mv.terms == {(0,): Fraction(1, 2), (1,): Fraction(2)}
        assert all(type(c) is Fraction for c in mv.terms.values())

    def test_int_and_fraction_coefficients_agree(self):
        b = (1, 3)
        as_int, as_fraction = Multivector.blade(b, 3), Multivector.blade(b, Fraction(3))
        assert as_int == as_fraction
        assert repr(as_int) == repr(as_fraction)


class TestInterior:
    def test_dual_pairing(self):
        assert interior(0, Multivector.blade((0,))) == Multivector.scalar(1)

    def test_orthogonality(self):
        # zeta_2 exists for n = 2; contracting along the zeta_1 slot kills it.
        zeta2 = Multivector.blade((contact.zeta_index(D2, 2),))
        assert not interior(contact.zeta_index(D2, 1), zeta2)

    def test_antiderivation_sign(self):
        zeta1 = Multivector.blade((contact.zeta_index(D2, 1),))
        zeta2 = Multivector.blade((contact.zeta_index(D2, 2),))
        product = wedge(zeta2, zeta1)
        assert interior(contact.zeta_index(D2, 1), product) == -zeta2

    @given(v=st.integers(0, 6), omega=multivectors())
    def test_nilpotent(self, v, omega):
        assert not interior(v, interior(v, omega))

    @given(
        v=st.integers(0, 6),
        p=st.integers(0, 3),
        data=st.data(),
    )
    def test_leibniz(self, v, p, data):
        a = data.draw(homogeneous(degree=p))
        b = data.draw(multivectors())
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + (-1) ** p * wedge(a, interior(v, b))
        assert lhs == rhs

    @given(v=st.integers(0, 6), w=st.integers(0, 6), omega=multivectors())
    def test_anticommutator_with_wedge(self, v, omega, w):
        slot = Multivector.blade((w,))
        result = interior(v, wedge(slot, omega)) + wedge(slot, interior(v, omega))
        assert result == (omega if v == w else Multivector.zero())


class TestHodgeStar:
    def test_volume_form(self):
        vol = hodge_star(Multivector.scalar(1), D1)
        assert vol == Multivector.blade(tuple(range(7)))

    def test_star_squared_identity_example(self):
        omega = wedge(Multivector.blade((0,)), Multivector.blade((1,)))
        assert hodge_star(hodge_star(omega, D1), D1) == omega

    @pytest.mark.parametrize("dims", [D1, D2])
    def test_star_squared_full_matrix(self, dims):
        for k in range(dims.dim + 1):
            for blade in combinations(range(dims.dim), k):
                mv = Multivector.blade(blade)
                assert hodge_star(hodge_star(mv, dims), dims) == mv

    def test_star_contraction_identity_exhaustive(self):
        # *(rho ^ *omega) = (-1)^((D-k)(k-1)) i_Y omega over the whole
        # 128-dimensional algebra and every coframe slot, n = 1.
        D = D1.dim
        for k in range(D + 1):
            sign = (-1) ** ((D - k) * (k - 1))
            for blade in combinations(range(D), k):
                omega = Multivector.blade(blade)
                star_omega = hodge_star(omega, D1)
                for v in range(D):
                    lhs = hodge_star(
                        wedge(Multivector.blade((v,)), star_omega), D1
                    )
                    assert lhs == sign * interior(v, omega)

    def test_rejects_mixed_degree(self):
        mixed = Multivector.scalar(1) + Multivector.blade((0,))
        with pytest.raises(ValueError):
            hodge_star(mixed, D1)


def det_pairing(omega, kvector, diag):
    """Reference pairing: the sum of det[rho_i(V_j)] / k! over blade pairs,
    for the diagonal evaluation rho_i(V_j) = diag[i] if i == j else 0."""
    total = Fraction(0)
    for fb, fc in omega.terms.items():
        for vb, vc in kvector.terms.items():
            matrix = [[diag[i] if i == j else 0 for j in vb] for i in fb]
            total += fc * vc * det(matrix) / factorial(len(fb))
    return total


class TestPairing:
    @given(st.integers(0, 4).flatmap(
        lambda k: st.tuples(homogeneous(degree=k), homogeneous(degree=k))
    ))
    def test_equals_determinant_definition(self, forms):
        omega, other = forms
        kvec = omega + other  # shares blades with omega, so most pairings are nonzero
        assert pairing(omega, kvec) == det_pairing(omega, kvec, [1] * D1.dim)
        got = contact.pair_frame(D1, omega, kvec)
        assert got == det_pairing(omega, kvec, contact.eval_diag(D1))
        assert isinstance(got, Fraction)

    def test_frame_pair_minus_half(self):
        omega = Multivector.blade((0, 1))  # zeta_1 ^ phi_1* zeta_1
        kvec = wedge(Multivector.blade((0,)), Multivector.blade((1,)))
        assert contact.pair_frame(D1, omega, kvec) == Fraction(-1, 2)

    def test_eta_pair_half(self):
        omega = Multivector.blade((5, 6))
        kvec = wedge(Multivector.blade((5,)), Multivector.blade((6,)))
        assert contact.pair_frame(D1, omega, kvec) == Fraction(1, 2)

    def test_dual_basis(self):
        assert contact.pair_frame(D1, Multivector.blade((0,)), Multivector.blade((0,))) == 1

    def test_default_normalization(self):
        blade = Multivector.blade((0, 1, 2))
        assert pairing(blade, blade) == Fraction(1, 6)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairing(Multivector.blade((0,)), Multivector.blade((0, 1)))

    @given(a=homogeneous(degree=2), b=homogeneous(degree=2))
    def test_bilinear_in_first_slot(self, a, b):
        kvec = Multivector.blade((1, 3))
        assert pairing(a + b, kvec) == pairing(a, kvec) + pairing(b, kvec)


class TestLexOrder:
    def test_leading_blade_of_xi(self):
        xi = contact.xi_form(D1, 1)
        assert leading_blade(xi) == (0, 1)

    def test_leading_blade_of_zero(self):
        assert leading_blade(Multivector.zero()) is None

    def test_block_order(self):
        zeta_eta = (contact.zeta_index(D1, 1), contact.eta_index(D1, 1))
        phi_eta = (contact.phi_zeta_index(D1, 1, 1), contact.eta_index(D1, 1))
        pair = Multivector({phi_eta: 1, zeta_eta: 1})
        assert leading_blade(pair) == zeta_eta

    @given(omega=multivectors(), scalar=st.integers(1, 5))
    def test_leading_blade_scale_invariant(self, omega, scalar):
        assert leading_blade(omega) == leading_blade(Fraction(scalar) * omega)


# The kernel stores blades as bitmasks; these references work on tuples.
SLOTS = 6
ALL_BLADES = [b for k in range(SLOTS + 1) for b in combinations(range(SLOTS), k)]


def wedge_reference(a, b):
    if set(a) & set(b):
        return Multivector.zero()
    sign, merged = sort_with_sign(a + b)
    return Multivector.blade(merged, sign)


def interior_reference(v, blade):
    if v not in blade:
        return Multivector.zero()
    pos = blade.index(v)
    return Multivector.blade(blade[:pos] + blade[pos + 1 :], (-1) ** pos)


def star_reference(blade, dim):
    """The complement, signed so that blade ^ complement is the volume form."""
    comp = tuple(i for i in range(dim) if i not in blade)
    sign, _ = sort_with_sign(blade + comp)
    return Multivector.blade(comp, sign)


class TestKernelAgainstTuples:
    def test_wedge_every_blade_pair(self):
        for a in ALL_BLADES:
            for b in ALL_BLADES:
                got = wedge(Multivector.blade(a), Multivector.blade(b))
                assert got == wedge_reference(a, b), (a, b)

    def test_interior_every_slot_and_blade(self):
        for v in range(SLOTS):
            for blade in ALL_BLADES:
                got = interior(v, Multivector.blade(blade))
                assert got == interior_reference(v, blade), (v, blade)

    @pytest.mark.parametrize("dim", [SLOTS, D1.dim])
    def test_hodge_star_every_blade(self, dim):
        dims = SimpleNamespace(dim=dim)  # hodge_star reads only the coframe size
        for k in range(dim + 1):
            for blade in combinations(range(dim), k):
                got = hodge_star(Multivector.blade(blade, 3), dims)
                assert got == 3 * star_reference(blade, dim), blade

    def test_star_rejects_blades_beyond_the_coframe(self):
        with pytest.raises(ValueError, match="exceeds coframe size 7"):
            hodge_star(Multivector.blade((2, 7)), D1)

    def test_terms_give_tuple_blades(self):
        form = wedge(Multivector.blade((4,)), Multivector.blade((1, 3), 2))
        assert form.terms == {(1, 3, 4): 2}
        assert Multivector(form.terms) == form

    def test_output_follows_tuple_order_not_mask_order(self):
        # (0, 5) is mask 33 and (1, 2) is mask 6: the masks sort the other way.
        form = Multivector({(1, 2): 1, (0, 5): 1})
        assert repr(form) == "1*0^5 + 1*1^2"
        assert leading_blade(form) == (0, 5)
        assert leading_blade(Multivector({(3,): 2, (0, 1, 2): -1})) == (0, 1, 2)


class TestBasis:
    def test_masks_list_the_tuple_blades_in_order(self):
        basis = Basis(range(6, 0, -1))
        for k in basis.degrees():
            blades = tuple(combinations(range(1, 7), k))
            assert basis._masks[k] == tuple(sum(1 << i for i in b) for b in blades)
            assert basis.blades(k) == blades
            assert [basis.positions[k][b] for b in blades] == list(range(len(blades)))
        assert basis.blades(7) == ()

    @pytest.mark.parametrize("indices", [(1, 1), (0, -1)])
    def test_invalid_indices_rejected(self, indices):
        with pytest.raises(ValueError):
            Basis(indices)


class TestPullBack:
    """The one substitution routine, on pullback rows and on twist rows."""

    def test_whole_blade_of_a_structure_pair(self):
        # Under alpha = 1 zeta1 ^ phi1zeta1 goes to phi1zeta1 ^ -zeta1, which
        # is zeta1 ^ phi1zeta1 again.  Blades are masks here: bit i is slot i.
        row = PhiStarTable.build(D1).entries[1]
        blade = 1 << contact.zeta_index(D1, 1) | 1 << contact.phi_zeta_index(D1, 1, 1)
        assert _pull_back(blade, row) == (1, blade)

    def test_two_slots_with_one_image_give_sign_zero(self):
        # Slots 0 and 1 both go to slot 2: each alone survives, together the
        # second image lands on the first.
        row = ((2, 1), (2, -1), (0, 1))
        assert _pull_back(0b001, row) == (1, 0b100)
        assert _pull_back(0b010, row) == (-1, 0b100)
        assert _pull_back(0b011, row) == (0, 0)
        assert _pull_back(0b111, row) == (0, 0)

    @pytest.mark.parametrize("flip", [None, (2, 1), (1, 6)])
    def test_pull_back_matches_tuple_reference(self, flip):
        # Every blade at n = 1 against replacing each factor in the tuple
        # and sorting it.
        table = PhiStarTable.build(D1)
        if flip:
            table = table.with_sign_flip(*flip)
        for alpha in ALPHAS:
            row = table.entries[alpha]
            for k in range(D1.dim + 1):
                for blade in combinations(range(D1.dim), k):
                    mask = sum(1 << i for i in blade)
                    assert _pull_back(mask, row) == pull_back_reference(
                        blade, row, range(k)
                    ), (alpha, blade)

    @pytest.mark.parametrize("twist", [
        unit_translation_twist(),
        TwistMap(((1, -1), (2, -1), (3, -1), (4, -1))),
        TwistMap(((4, 1), (3, -1), (1, 1), (2, -1))),
    ], ids=["paper", "minus_id", "four_cycle"])
    def test_cube_rows_match_tuple_reference(self, twist):
        # A twist row over the 7-cube's slots, on the quaternion part q of
        # every cell: the image of q with the flat bits 5-7 ORed back in is
        # the cell with its quaternion factors replaced and sorted, the
        # boundary's face at 1, and it is never zero.
        cube = Basis(range(1, 8))
        for k in cube.degrees():
            for cell in cube.blades(k):
                q = sum(1 << a for a in cell if a <= 4)
                flat = sum(1 << a for a in cell if a > 4)
                sign, image = _pull_back(q, twist.row)
                quaternion = [p for p, a in enumerate(cell) if a <= 4]
                assert (sign, image | flat) == pull_back_reference(
                    cell, twist.row, quaternion
                ), cell
                assert sign in (1, -1), cell
