"""Graded operators and the identity suite on the rank-one model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosym3 import contact
from cosym3.contact import ALPHAS, PhiStarTable
from cosym3.exterior import ModelDims, Multivector, wedge
from cosym3.identities import verify_identities
from cosym3.operators import GradedOperator, OperatorSet, anticommutator, commutator
from helpers import FAULT_FINGERPRINTS, coefficients, fingerprint, multivectors

D1 = ModelDims(1)
OPS = OperatorSet(D1)
FULL = OPS.full
HOR = OPS.hor
TABLE_FLIPS = [
    (alpha, index)
    for alpha, entries in sorted(PhiStarTable.build(D1).entries.items())
    for index, entry in enumerate(entries)
    if entry is not None
]


def blade(*idx):
    return Multivector.blade(tuple(idx))


def every_operator(ops):
    """(label, operator) for every operator an OperatorSet builds."""
    out = [
        ("H", ops.H),
        ("id_full", ops.id_full),
        ("id_hor", ops.id_hor),
        ("zero_full", ops.zero_full(0)),
        ("zero_hor", ops.zero_hor(0)),
    ]
    for a in ALPHAS:
        for name in (
            "l", "lam", "e", "L_full", "L", "Lambda_star", "Lambda_full", "Lam", "K", "I"
        ):
            out.append((f"{name}{a}", getattr(ops, name)(a)))
        out += [(f"K_s{a},{s}", ops.K_s(a, s)) for s in range(ops.hor.max_degree + 2)]
    return out


EVERY_OPERATOR = every_operator(OPS)


class TestWedgeContractionPairs:
    def test_anticommutator_same_index_is_identity(self):
        result = anticommutator(OPS.lam(1), OPS.l(1))
        assert result == GradedOperator.identity(FULL)

    def test_anticommutator_mixed_indices_vanishes(self):
        result = anticommutator(OPS.lam(1), OPS.l(2))
        assert result == OPS.zero_full(0)

    def test_wedge_squares_to_zero(self):
        result = anticommutator(OPS.l(1), OPS.l(1))
        assert result == OPS.zero_full(2)


class TestProjections:
    def test_action_on_blades(self):
        e1 = OPS.e(1)
        eta1 = blade(contact.eta_index(D1, 1))
        assert e1.apply(eta1) == eta1
        assert not e1.apply(blade(0))

    def test_idempotent_and_commuting(self):
        e1, e2 = OPS.e(1), OPS.e(2)
        assert e1.compose(e1) == e1
        assert commutator(e1, e2) == OPS.zero_full(0)


class TestSector:
    # The eta-free sector is the horizontal basis: C(4n, k) blades in degree k.
    def test_degree_zero(self):
        assert HOR.blades(0) == ((),)

    def test_binomial_dimension(self):
        assert len(HOR.blades(2)) == 6

    def test_out_of_range(self):
        assert HOR.blades(5) == ()

    def test_cube_inverse_isomorphisms(self):
        l1, lam1 = OPS.l(1), OPS.lam(1)
        eta1 = contact.eta_index(D1, 1)
        for k in FULL.degrees():
            for b in FULL.blades(k):
                mv = Multivector.blade(b)
                if eta1 in b:
                    assert l1.apply(lam1.apply(mv)) == mv
                else:
                    assert lam1.apply(l1.apply(mv)) == mv


class TestLefschetzPair:
    def test_star_route_equals_contraction_route(self):
        assert OPS.Lambda_star(1) == OPS.Lambda_full(1)

    def test_commutes_with_projections(self):
        assert commutator(OPS.L_full(1), OPS.e(2)) == OPS.zero_full(2)

    def test_adjoint_on_xi_gives_twice_rank(self):
        # Direct contraction of the explicit two-form: the value is 2n
        # (matching [L, Lambda] = -H in degree zero), here 2.
        lam = OPS.Lambda_full(1)
        assert lam.apply(contact.xi_form(D1, 1)) == Multivector.scalar(2)

    def test_adjoint_on_xi_rank_two(self):
        dims = ModelDims(2)
        lam = OperatorSet(dims).Lambda_full(1)
        assert lam.apply(contact.xi_form(dims, 1)) == Multivector.scalar(4)

    def test_weight_operator(self):
        H = OPS.H
        assert H.apply(Multivector.scalar(1)) == Multivector.scalar(2)
        assert not H.apply(blade(0, 1))  # weight 2n - k vanishes at k = 2n
        top = Multivector.blade(tuple(range(4)))
        assert H.apply(top) == Fraction(-2) * top

    def test_weight_commutator(self):
        L = OPS.L(1)
        Lam = OPS.Lam(1)
        H = OPS.H
        assert commutator(L, Lam) == -H


class TestK:
    def test_single_factor_action(self):
        K1 = OPS.K(1)
        assert K1.apply(blade(0)) == blade(1)

    def test_mixed_commutators(self):
        L1 = OPS.L(1)
        Lam2 = OPS.Lam(2)
        Lam3 = OPS.Lam(3)
        assert commutator(L1, Lam2) == OPS.K(3)
        assert commutator(L1, Lam3) == -OPS.K(2)

    def test_zeta_x_anticommutators(self):
        # {zeta_s ^ -, i_X_s} = 1 and the four companion identities fixing
        # the contraction signs.
        z, pa, pb, pg = 0, 1, 2, 3

        def wedge_op(slot):
            return GradedOperator.from_function(
                1, FULL, lambda mv: wedge(Multivector.blade((slot,)), mv)
            )

        def contraction_op(slot):
            return GradedOperator.from_function(
                -1, FULL, lambda mv: contact.frame_interior(D1, slot, mv)
            )

        assert anticommutator(wedge_op(z), contraction_op(pa)) == OPS.zero_full(0)
        assert anticommutator(wedge_op(z), contraction_op(z)) == GradedOperator.identity(FULL)
        assert anticommutator(wedge_op(pb), contraction_op(pg)) == OPS.zero_full(0)
        assert (
            anticommutator(wedge_op(pb), contraction_op(pb))
            == GradedOperator.identity(FULL).scale(-1)
        )
        assert anticommutator(wedge_op(pa), contraction_op(z)) == OPS.zero_full(0)


class TestSubstitutionOperators:
    def test_zero_substitutions_is_identity(self):
        assert OPS.K_s(1, 0) == GradedOperator.identity(HOR)

    def test_one_substitution_is_k(self):
        assert OPS.K_s(1, 1) == OPS.K(1)

    def test_recursion_on_degree_two(self):
        # K_1 K_{1,1} = 2 K_{1,2} - 2 K_{1,0} on two-forms (k = 2).
        K = OPS.K(1)
        K0 = OPS.K_s(1, 0)
        K1 = OPS.K_s(1, 1)
        K2 = OPS.K_s(1, 2)
        for b in HOR.blades(2):
            mv = Multivector.blade(b)
            lhs = K.apply(K1.apply(mv))
            rhs = Fraction(2) * K2.apply(mv) - Fraction(2) * K0.apply(mv)
            assert lhs == rhs

    def test_top_substitution_is_full_pullback(self):
        I1 = OPS.I(1)
        for k in HOR.degrees():
            top = OPS.K_s(1, k)
            for b in HOR.blades(k):
                mv = Multivector.blade(b)
                assert top.apply(mv) == I1.apply(mv)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            OPS.K_s(1, -1)


class TestQuaternionAction:
    def test_square_on_one_forms(self):
        I1 = OPS.I(1)
        for b in HOR.blades(1):
            mv = Multivector.blade(b)
            assert I1.apply(I1.apply(mv)) == -mv

    def test_product_rule_apply_first_then_second(self):
        # Doing I_1 and then I_2 realizes I_3 on one-forms; the reverse
        # order flips the sign.
        I1, I2, I3 = (OPS.I(a) for a in (1, 2, 3))
        for b in HOR.blades(1):
            mv = Multivector.blade(b)
            assert I2.apply(I1.apply(mv)) == I3.apply(mv)
            assert I1.apply(I2.apply(mv)) == -I3.apply(mv)

    def test_square_on_two_forms(self):
        I1 = OPS.I(1)
        for b in HOR.blades(2):
            mv = Multivector.blade(b)
            assert I1.apply(I1.apply(mv)) == mv


class TestVerifySuite:
    def test_rank_one_all_pass(self):
        reports = verify_identities(1)
        assert len(reports) == 20
        assert [r.name for r in reports] == sorted(r.name for r in reports)
        failed = [r for r in reports if not r.passed]
        assert not failed

    def test_expected_identities_present(self):
        names = {r.name for r in verify_identities(1)}
        required = {
            "anticommutator_lambda_l",
            "anticommutator_nilpotence",
            "eta_projections",
            "cube_isomorphisms",
            "adjoint_via_star_equals_contraction",
            "weight_commutator",
            "mixed_commutators",
            "weight_grading",
            "bracket_closure",
            "substitution_recursion",
            "quaternion_relations",
        }
        assert required <= names

    @pytest.mark.parametrize(
        "alpha, index", TABLE_FLIPS, ids=[f"phi{a}[{i}]" for a, i in TABLE_FLIPS]
    )
    def test_corrupted_table_fails_with_witness(self, alpha, index):
        table = PhiStarTable.build(D1).with_sign_flip(alpha, index)
        reports = verify_identities(1, table)
        failed = [r for r in reports if not r.passed]
        assert failed
        assert all(r.witness is not None for r in failed)
        # The whole report list, witness text included, is pinned.
        assert (
            fingerprint([r.to_dict() for r in reports])
            == FAULT_FINGERPRINTS[f"phi{alpha}[{index}]"]
        )

    def test_unsupported_rank_rejected(self):
        with pytest.raises(ValueError):
            verify_identities(9)


class TestOperatorSet:
    @settings(deadline=None)
    @given(
        full=st.tuples(multivectors(FULL.max_degree), multivectors(FULL.max_degree)),
        hor=st.tuples(multivectors(HOR.max_degree), multivectors(HOR.max_degree)),
        c=coefficients(),
    )
    def test_apply_is_linear(self, full, hor, c):
        for label, op in EVERY_OPERATOR:
            x, y = full if op.basis is FULL else hor
            assert op.apply(c * x + y) == c * op.apply(x) + op.apply(y), label

    def test_each_operator_is_built_once(self):
        ops = OperatorSet(D1)
        assert ops.K_s(2, 1) is ops.K_s(2, 1)
        assert ops.H is ops.H
        assert ops.zero_hor(2) is ops.zero_hor(2)
        assert ops.L(1) is not ops.L_full(1)
        assert ops.L(1).basis is ops.hor and ops.L_full(1).basis is ops.full


class TestIntegerCoefficients:
    def test_every_column_is_integral(self):
        # Every operator entry is an integer; a Fraction among them would put
        # rational arithmetic back into every apply and compose.
        ops2 = OperatorSet(ModelDims(2))
        rank_two = [("H", ops2.H)] + [
            (f"{name}{a}", getattr(ops2, name)(a)) for name in ("L", "Lam", "K") for a in ALPHAS
        ]
        for n, operators in ((1, EVERY_OPERATOR), (2, rank_two)):
            for label, op in operators:
                for cols in op.blocks.values():
                    for col in cols:
                        assert all(type(c) is int for c in col.terms.values()), (n, label)


class TestGradedOperatorPlumbing:
    def test_shift_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OPS.l(1) + OPS.lam(1)

    def test_from_function_degree_validation(self):
        with pytest.raises(ValueError):
            GradedOperator.from_function(0, FULL, lambda mv: wedge(Multivector.blade((0,)), mv))

    def test_first_difference_reports_earliest_degree(self):
        ident = GradedOperator.identity(FULL)
        diff = ident.first_difference(GradedOperator.zero(FULL))
        assert diff is not None
        assert diff[0] == 0
