"""Graded operators and the identity suite on the rank-one model."""

import itertools
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosym3 import contact, exterior, identities, operators
from cosym3.contact import ALPHAS, PhiStarTable
from cosym3.exterior import Basis, ModelDims, Multivector, _mask_of, interior, wedge
from cosym3.identities import Witness, _differences, verify_identities
from cosym3.operators import (
    _EMPTY_COLUMN, GradedOperator, OperatorSet, _product, _replacements, anticommutator,
    commutator,
)
from cosym3.so41 import verify_module
from helpers import (
    FAULT_FINGERPRINTS, coefficients, column_items, fingerprint, image_items, multivectors,
    on_forms, reference_k, reference_k_s, reference_lambda_star, reference_operator_differences,
    reference_tables, reference_wedge_xi, witnesses,
)

D1 = ModelDims(1)
OPS = OperatorSet(D1)
FULL = OPS.full
HOR = OPS.hor


def sign_flips(dims: ModelDims) -> list[tuple[int, int]]:
    """(alpha, slot) of every signed entry of the built table."""
    return [
        (alpha, index)
        for alpha, entries in sorted(PhiStarTable.build(dims).entries.items())
        for index, entry in enumerate(entries)
        if entry is not None
    ]


TABLE_FLIPS = sign_flips(D1)
RANK_FLIPS = [(n, alpha, index) for n in (1, 2) for alpha, index in sign_flips(ModelDims(n))]
# Report fingerprints of the n = 1 tables drawn by ``seeded_table``.  Several
# relations fail in one degree block on these tables, so the pins fix which
# member and blade each family reports first, not only that it fails.
MULTI_FLIP_FINGERPRINTS = {
    0: "9a9d7aedfda786b4",
    1: "66f9bfd35a88b16e",
    2: "66f9bfd35a88b16e",
    3: "f4782a7a2c4f6585",
    4: "9990d8a8ff10d86c",
    5: "c538090423a2d58f",
    6: "b9ed6562ee80716e",
    7: "1a51a017a96dd085",
    8: "90eea81a72b040bd",
    9: "66f9bfd35a88b16e",
    10: "9f47c39ffb686332",
    11: "f652e8f44924b6cb",
}
# Report fingerprints of every single-sign flip of the n = 2 table.
RANK_TWO_FLIP_FINGERPRINTS = {
    "phi1[0]": "bd57ab8b8b8b2354",
    "phi1[1]": "20c0950b6566e912",
    "phi1[2]": "740b74a1e40c9717",
    "phi1[3]": "1d8ed40a27cd10c4",
    "phi1[4]": "eb5a20b43bb97d36",
    "phi1[5]": "4cfde3662e09e66f",
    "phi1[6]": "72da481b514d2e79",
    "phi1[7]": "2029f9be63d94c77",
    "phi1[9]": "bb9ccfe61738579c",
    "phi1[10]": "1101d27e3c3dcdbc",
    "phi2[0]": "2eae6a832b16d31a",
    "phi2[1]": "6e18ec736b705c9e",
    "phi2[2]": "bf645d99935b37ec",
    "phi2[3]": "b343ea79cec33d1d",
    "phi2[4]": "e711491550f0eeec",
    "phi2[5]": "b90e4edf3e25e8aa",
    "phi2[6]": "45162b1109a2e52b",
    "phi2[7]": "ceef6cdfdb3dea91",
    "phi2[8]": "4da5d1a6c04b2921",
    "phi2[10]": "5ccc53dece2bfc27",
    "phi3[0]": "d6459e741ec29fa2",
    "phi3[1]": "5bfdcdb0a5a883de",
    "phi3[2]": "009de8a80a259f65",
    "phi3[3]": "90f5f83a72f7154c",
    "phi3[4]": "8bf8a97996c2b834",
    "phi3[5]": "322635bc875b1203",
    "phi3[6]": "0f4f04db934ccd4d",
    "phi3[7]": "79d4e263492e68eb",
    "phi3[8]": "092fb205d1a863d2",
    "phi3[9]": "c433b7ccbadd673f",
}


def blade(*idx):
    return Multivector.blade(tuple(idx))


def flipped(table: PhiStarTable, flips) -> PhiStarTable:
    for alpha, index in flips:
        table = table.with_sign_flip(alpha, index)
    return table


def seeded_table(seed: int) -> PhiStarTable:
    """The n = 1 table with 2-5 distinct signs flipped, drawn by the seed."""
    rng = random.Random(seed)
    return flipped(PhiStarTable.build(D1), rng.sample(TABLE_FLIPS, rng.randint(2, 5)))


def report_fingerprint(reports) -> str:
    return fingerprint([r.to_dict() for r in reports])


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

    def test_an_empty_sector_is_counted(self):
        # Without the first three degree-5 blades, 0^1^2^3 ^ eta_a, each
        # one-eta sector of degree 5 is empty against C(4, 4) = 1.
        ops = OperatorSet(D1)
        ops.full._masks[5] = ops.full._masks[5][3:]
        stream = identities._differences(ops, identities._cube_isomorphisms(ops))
        sectors = [m for m in stream if m[0].startswith("k=")]
        assert [(m[0], m[1], m[3], m[4]) for m in sectors] == [
            ("k=5, sector=(1, 0, 0)", 5, 0, 1),
            ("k=5, sector=(0, 1, 0)", 5, 0, 1),
            ("k=5, sector=(0, 0, 1)", 5, 0, 1),
        ]


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
                1, FULL, on_forms(lambda mv: wedge(Multivector.blade((slot,)), mv))
            )

        def contraction_op(slot):
            return GradedOperator.from_function(
                -1, FULL, on_forms(lambda mv: contact.frame_interior(D1, slot, mv))
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


def assert_walk_matches_reference(ops):
    """Every K_{a,s}, s = 0 ... max_degree + 2, has the enumerated table, key
    order included."""
    for a in ALPHAS:
        for s in range(ops.hor.max_degree + 3):
            assert image_items(ops.K_s(a, s)) == image_items(reference_k_s(ops, a, s)), (a, s)


class TestSubstitutionWalk:
    """K_{a,s} from one recursion over each blade's lowest factor, against
    the enumeration of every s-subset of the blade's factors."""

    @pytest.mark.parametrize("n", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
    def test_walk_matches_reference_on_the_built_table(self, n):
        assert_walk_matches_reference(OperatorSet(ModelDims(n)))

    @pytest.mark.parametrize(
        "n, alpha, index", RANK_FLIPS, ids=[f"n{n}-phi{a}[{i}]" for n, a, i in RANK_FLIPS]
    )
    def test_walk_matches_reference_on_corrupted_table(self, n, alpha, index):
        dims = ModelDims(n)
        table = PhiStarTable.build(dims).with_sign_flip(alpha, index)
        assert_walk_matches_reference(OperatorSet(dims, table))

    @pytest.mark.parametrize("seed", sorted(MULTI_FLIP_FINGERPRINTS))
    def test_walk_matches_reference_on_multi_flip_table(self, seed):
        assert_walk_matches_reference(OperatorSet(D1, seeded_table(seed)))

    def test_walk_matches_reference_on_corrupted_table_images(self):
        # Images moved, not only signs: a horizontal slot killed, two slots
        # sent to one image and a slot sent to itself.  The walk reads the
        # row, not the pair structure, so the enumeration still agrees.
        dims = ModelDims(2)
        entries = dict(PhiStarTable.build(dims).entries)
        row = list(entries[1])
        row[0], row[2], row[5] = None, row[3], (5, -1)
        entries[1] = tuple(row)
        ops = OperatorSet(dims, PhiStarTable(dims, entries))
        assert_walk_matches_reference(ops)
        assert ops.K_s(1, 1) != OperatorSet(dims).K_s(1, 1)

    @settings(deadline=None, max_examples=20)
    @given(row=st.lists(
        st.none() | st.tuples(st.integers(0, 7), st.sampled_from([1, -1])), min_size=8, max_size=8
    ))
    @example(row=[(6, -1), None, (7, -1), (5, 1), (4, -1), (5, -1), (0, -1), (7, 1)])
    @example(row=[(0, 1), (1, -1), (7, -1), (4, 1), (4, 1), (7, -1), (5, 1), (5, -1)])
    def test_walk_matches_reference_on_random_rows(self, row):
        # Any row over the n = 2 horizontal slots: two slots may share an
        # image and a slot may be its own, so sums of zero occur on the way.
        # On the two examples a recursion that dropped those sums would put
        # some key later than the enumeration does.
        dims = ModelDims(2)
        entries = dict(PhiStarTable.build(dims).entries)
        entries[1] = tuple(row) + entries[1][8:]
        ops = OperatorSet(dims, PhiStarTable(dims, entries))
        for s in range(ops.hor.max_degree + 2):
            assert image_items(ops.K_s(1, s)) == image_items(reference_k_s(ops, 1, s)), s

    def test_reference_shares_no_code_with_pull_back(self, monkeypatch):
        # The enumerated reference substitutes on tuple blades: with the
        # package's one pull-back routine refusing every call it still gives
        # every K_{a,s}.
        ops = OperatorSet(D1)

        def refuse(*_):
            raise AssertionError("the reference reached _pull_back")

        monkeypatch.setattr(exterior, "_pull_back", refuse)
        monkeypatch.setattr(operators, "_pull_back", refuse)
        for a in ALPHAS:
            for s in range(ops.hor.max_degree + 2):
                assert reference_k_s(ops, a, s) == ops.K_s(a, s), (a, s)

    @pytest.mark.parametrize("n", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
    def test_no_pull_back_builds_a_substitution(self, monkeypatch, n):
        # The recursion writes every column itself; I_a, built after, is the
        # only operator here that pulls back, once per blade.
        calls = []
        pull_back = operators._pull_back

        def recorded(mask, row):
            calls.append(mask)
            return pull_back(mask, row)

        monkeypatch.setattr(operators, "_pull_back", recorded)
        ops = OperatorSet(ModelDims(n))
        for a in ALPHAS:
            for s in range(ops.hor.max_degree + 2):
                ops.K_s(a, s)
        assert calls == []
        ops.I(1)
        assert len(calls) == 2 ** ops.hor.max_degree

    def test_counts_past_the_top_degree_are_zero(self):
        ops = OperatorSet(D1)
        top = ops.hor.max_degree
        assert ops.K_s(2, top + 1) == ops.K_s(2, top + 5) == ops.zero_hor(0)
        assert ops.K_s(2, top) != ops.zero_hor(0)


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

    @pytest.mark.parametrize("seed", sorted(MULTI_FLIP_FINGERPRINTS))
    def test_multi_flip_reports_are_pinned(self, seed):
        reports = verify_identities(1, seeded_table(seed))
        assert report_fingerprint(reports) == MULTI_FLIP_FINGERPRINTS[seed]

    @settings(deadline=None, max_examples=15)
    @given(flips=st.lists(st.sampled_from(TABLE_FLIPS), min_size=2, max_size=6, unique=True))
    def test_multi_flip_tables_give_reports_not_exceptions(self, flips):
        reports = verify_identities(1, flipped(PhiStarTable.build(D1), flips))
        assert len(reports) == 20
        assert all(r.witness is not None for r in reports if not r.passed)

    def test_rank_two_single_flip_reports_are_pinned(self):
        table = PhiStarTable.build(ModelDims(2))
        pinned = {
            f"phi{alpha}[{index}]": report_fingerprint(
                verify_identities(2, table.with_sign_flip(alpha, index))
            )
            for alpha, entries in sorted(table.entries.items())
            for index, entry in enumerate(entries)
            if entry is not None
        }
        assert pinned == RANK_TWO_FLIP_FINGERPRINTS

    def test_a_pull_back_without_image_signs_splits_the_two_routes(self, monkeypatch):
        # I_a pulls back through ``_pull_back``, K_{a,s} does not: dropping
        # the image signs there changes I_a alone, so the endpoint K_{a,k} =
        # I_a fails, and so does I_a's own square; the recursion does not.
        pull_back = operators._pull_back

        def unsigned(mask, row):
            return pull_back(mask, tuple(hit and (hit[0], 1) for hit in row))

        monkeypatch.setattr(operators, "_pull_back", unsigned)
        reports = {r.name: r for r in verify_identities(1)}
        assert {name for name, r in reports.items() if not r.passed} == {
            "quaternion_relations", "substitution_endpoints"}
        witness = reports["substitution_endpoints"].witness
        assert (witness.member, witness.degree, witness.blade) == ("K_1,1 = I_1", 1, "phi1zeta1")
        ops = OperatorSet(D1)
        assert ops.I(1) != OPS.I(1)
        assert all(ops.K_s(a, s) == OPS.K_s(a, s) for a in ALPHAS for s in range(6))

    def test_a_passing_suite_reads_tables_only(self, monkeypatch):
        # Every operator identity is compared on image tables: a suite that
        # passes builds no column view and applies no operator to a form.
        def refuse(*_):
            raise AssertionError("a passing suite read a column")

        monkeypatch.setattr(GradedOperator, "blocks", property(refuse))
        monkeypatch.setattr(GradedOperator, "apply", refuse)
        for n in (1, 2):
            assert all(r.passed for r in verify_identities(n)), n

    def test_a_passing_suite_reads_masks_only(self, monkeypatch):
        # The identity suite and the so(4,1) check walk Basis._masks; the
        # tuple views are for the cellular complex and for tests.
        def refuse(*_):
            raise AssertionError("a passing suite read a tuple blade view")

        monkeypatch.setattr(Basis, "blades", refuse)
        monkeypatch.setattr(Basis, "_blades", property(refuse))
        monkeypatch.setattr(Basis, "positions", property(refuse))
        assert all(r.passed for r in verify_identities(2))
        assert verify_module(2).passed

    @pytest.mark.parametrize("n, eta_pair", [(1, "4^5"), (2, "8^9")])
    def test_value_rows_no_table_fault_reaches_are_pinned(self, monkeypatch, n, eta_pair):
        # No sign flip of the table reaches the frame evaluation, i_xi Xi_a = 0
        # or the eta-free images of the full-basis operators.  One more scalar
        # term on every frame contraction fails the first two; an L_full that
        # wedges with eta_1 ^ eta_2 fails the third.
        frame_interior = contact.frame_interior
        monkeypatch.setattr(
            contact, "frame_interior",
            lambda dims, slot, omega: frame_interior(dims, slot, omega) + Multivector.scalar(1),
        )
        reports = {r.name: r for r in verify_identities(n)}
        assert {name for name, r in reports.items() if not r.passed} == {
            "frame_evaluation_table", "xi_form_consistency"}
        assert reports["frame_evaluation_table"].witness == Witness(
            "rho=0, V=0", 1, "-", "2*1", "1*1")
        assert reports["xi_form_consistency"].witness == Witness(
            "i_xi_1 Xi_1", 2, "-", "1*1", "0")
        monkeypatch.undo()
        monkeypatch.setattr(OperatorSet, "L_full", lambda self, a: self.l(1).compose(self.l(2)))
        reports = {r.name: r for r in verify_identities(n)}
        assert {name for name, r in reports.items() if not r.passed} == {
            "adjoint_via_star_equals_contraction", "horizontal_sector_preserved",
            "wedge_adjoint_commute_with_projections"}
        assert reports["horizontal_sector_preserved"].witness == Witness(
            "L_1", 0, "1", f"1*{eta_pair}", "eta-free image")

    def test_unsupported_rank_rejected(self):
        with pytest.raises(ValueError):
            verify_identities(9)

    @pytest.mark.parametrize("n, table_n", [(2, 1), (1, 2)])
    def test_table_of_another_rank_rejected(self, n, table_n):
        with pytest.raises(ValueError) as err:
            verify_identities(n, PhiStarTable.build(ModelDims(table_n)))
        assert f"n = {table_n}" in str(err.value) and f"n = {n}" in str(err.value)


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
    def test_operators_on_different_bases_or_shifts_rejected(self):
        # Operators on the full and the eta-free basis have different column
        # lists; pairing them would silently mix two blade orders.
        for combination in (
            lambda: OPS.L_full(1).compose(OPS.K(1)),
            lambda: commutator(OPS.L_full(1), OPS.L(1)),
            lambda: anticommutator(OPS.id_hor, OPS.id_full),
            lambda: _product((1, OPS.K(1), OPS.K(2)), (1, OPS.l(1), OPS.lam(1))),
            # A sum of products of different shifts is not graded.
            lambda: _product((1, OPS.l(1), OPS.lam(1)), (1, OPS.l(1), OPS.l(2))),
            lambda: list(_differences(OPS, [("", OPS.L_full(1), OPS.L(1))])),
            lambda: list(_differences(OPS, [("", OPS.l(1), OPS.lam(1))])),
        ):
            with pytest.raises(ValueError):
                combination()

    def test_from_function_degree_validation(self):
        e0 = Multivector.blade((0,))
        with pytest.raises(ValueError, match=r"^image of degree-0 blade has degree 1, expected 0$"):
            GradedOperator.from_function(0, FULL, on_forms(lambda mv: wedge(e0, mv)))
        # A wrong degree found past the first column names that column's degree.
        with pytest.raises(ValueError, match=r"^image of degree-1 blade has degree 2, expected 1$"):
            GradedOperator.from_function(
                0, FULL, on_forms(lambda mv: wedge(e0, mv) if mv.terms == {(1,): 1} else mv)
            )
        with pytest.raises(ValueError, match=r"^form is not homogeneous: degrees \[0, 1\]$"):
            GradedOperator.from_function(0, FULL, on_forms(lambda mv: mv + wedge(e0, mv)))
        # A zero coefficient is no term, so its blade's degree is not checked.
        op = GradedOperator.from_function(0, FULL, lambda m: {m: 1, m ^ 1: 0})
        assert op == GradedOperator.identity(FULL)

    @pytest.mark.parametrize("weight", [
        lambda k: 1,
        lambda k: 2 - k,
        lambda k: int(k == 2),
        lambda k: Fraction(k, 3) - 1,
        lambda k: (-1) ** k * Fraction(k % 3, 2),
        lambda k: 0,
    ])
    def test_diagonal_is_the_column_function_route(self, weight):
        # Zero weights leave their columns out; key order, values and their
        # types are the column function's, and weight is read once per degree.
        for basis in (FULL, HOR):
            degrees = []
            op = GradedOperator.diagonal(basis, lambda k: degrees.append(k) or weight(k))
            old = GradedOperator.from_function(0, basis, lambda m: {m: weight(m.bit_count())})
            assert image_items(op) == image_items(old)
            assert [type(c) for column in op._images.values() for c in column.values()] == [
                type(c) for column in old._images.values() for c in column.values()]
            assert degrees == list(basis.degrees())

    def test_zero_operator_shares_one_empty_column(self):
        zero = GradedOperator.zero(HOR, 2)
        assert zero._images == {}
        columns = [col for cols in zero.blocks.values() for col in cols]
        assert len(columns) == 2 ** HOR.max_degree
        assert all(col is _EMPTY_COLUMN for col in columns) and not _EMPTY_COLUMN
        # Every operator from a column function (H's top-degree column is an
        # explicit zero coefficient), every product, scaled and negated one.
        ops = OperatorSet(D1)
        operators = [ops.l(1), ops.lam(1), ops.lam(2), ops.e(1), ops.L_full(1), ops.Lambda_full(2)]
        operators += [ops.Lambda_star(3), ops.H, ops.L(1), ops.Lam(2), ops.K(3), ops.K_s(1, 2)]
        operators += [ops.I(2), ops.id_hor, zero]
        products = [
            product(a, b)
            for a in operators
            for b in operators
            if a.basis is b.basis
            for product in (GradedOperator.compose, commutator, anticommutator)
        ]
        scaled = [result for op in operators for result in (op.scale(3), -op, op.scale(0))]
        for op in operators + products + scaled:
            # No table holds an empty column or a zero coefficient ...
            assert all(column and all(column.values()) for column in op._images.values())
        for op in products + scaled:
            # ... and the view is built on first read, once.
            assert op._blocks is None
            assert op.blocks is op.blocks
        for op in operators + products + scaled:
            images = op._images
            for k, cols in op.blocks.items():
                for x, mask, col in zip(op.basis.blades(k), op.basis._masks[k], cols):
                    if col:
                        assert images[mask] is col._terms
                    else:
                        assert col is _EMPTY_COLUMN and mask not in images
                        assert not op.apply(Multivector.blade(x))
        for op in operators:
            for factor, result in ((3, op.scale(3)), (-1, -op), (0, op.scale(0))):
                for k, cols in result.blocks.items():
                    assert cols == [factor * col for col in op.blocks[k]]

    def test_brackets_match_two_applications(self):
        # Reference route: on each basis blade x, [a, b] x = a(b x) - b(a x)
        # and {a, b} x = a(b x) + b(a x), with the sums taken on forms.
        for (la, a), (lb, b) in combinations_with_replacement(EVERY_OPERATOR, 2):
            if a.basis is not b.basis:
                continue
            brackets = commutator(a, b), anticommutator(a, b)
            for bracket in brackets:
                assert bracket.shift == a.shift + b.shift and bracket.basis is a.basis
            for k in a.basis.degrees():
                columns = zip(a.basis.blades(k), brackets[0].blocks[k], brackets[1].blocks[k])
                for x, comm, anti in columns:
                    ab = a.apply(b.apply(Multivector.blade(x)))
                    ba = b.apply(a.apply(Multivector.blade(x)))
                    assert comm == ab - ba and anti == ab + ba, (la, lb, x)


def reference_apply(op: GradedOperator, mv: Multivector) -> Multivector:
    """``op`` applied through the tuple view of its columns, blade by blade."""
    acc: dict = {}
    for blade, coeff in mv.terms.items():
        column = op.blocks[len(blade)][op.basis.positions[len(blade)][blade]]
        for image, c in column.terms.items():
            acc[image] = acc.get(image, 0) + coeff * c
    return Multivector(acc)


def mixed_forms(basis, seed: int, count: int = 2):
    """Seeded forms with terms of several degrees and Fraction coefficients."""
    rng = random.Random(seed)
    blades = [b for k in basis.degrees() for b in basis.blades(k)]
    return [
        Multivector({
            b: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            for b in rng.sample(blades, 6)
        })
        for _ in range(count)
    ]


class TestProductsAgainstReference:
    @pytest.mark.parametrize("n", [1, 2])
    def test_double_contraction_matches_two_frame_contractions(self, n):
        # Lambda_a = sum over the structure pairs (first, second) but the eta
        # pair of i_first i_second, each step one frame contraction.
        dims = ModelDims(n)
        ops = OperatorSet(dims)
        for a in ALPHAS:
            pairs = contact.structure_pairs(dims, a)[:-1]
            for op in (ops.Lambda_full(a), ops.Lam(a)):
                for k in op.basis.degrees():
                    for b, column in zip(op.basis.blades(k), op.blocks[k]):
                        mv = Multivector.blade(b)
                        expected = Multivector.zero()
                        for first, second in pairs:
                            inner = contact.frame_interior(dims, second, mv)
                            expected = expected + contact.frame_interior(dims, first, inner)
                        assert column == expected, (n, a, op.basis is ops.full, b)

    @pytest.mark.parametrize(
        "n, flip",
        [(1, None), (2, None)] + [(1, flip) for flip in TABLE_FLIPS],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_generator_columns_match_products_of_forms(self, n, flip):
        # K, L, L_full and Lambda_star are built on the blade mask; each column
        # equals its reference as forms, key order included, with int entries.
        dims = ModelDims(n)
        table = PhiStarTable.build(dims)
        if flip is not None:
            table = table.with_sign_flip(*flip)
        ops = OperatorSet(dims, table)
        for a in ALPHAS:
            cases = [
                (ops.K(a), lambda mv: reference_k(dims, a, mv)),
                (ops.L(a), lambda mv: reference_wedge_xi(dims, a, table, mv)),
                (ops.L_full(a), lambda mv: reference_wedge_xi(dims, a, table, mv)),
                (ops.Lambda_star(a), lambda mv: reference_lambda_star(dims, a, table, mv)),
            ]
            for op, reference in cases:
                for k, cols in op.blocks.items():
                    for x, col in zip(op.basis.blades(k), cols):
                        expected = reference(Multivector.blade(x))
                        assert list(col._terms.items()) == list(expected._terms.items()), (a, x)
                        assert all(type(c) is int for c in col._terms.values()), (a, x)

    def test_products_of_the_so41_generators_at_rank_two(self):
        # Every ordered pair of H, L_a, Lam_a and K_a at n = 2: compose and
        # both brackets, column by column, against the reference route applied
        # twice to each blade of the eta-free basis.
        ops = OperatorSet(ModelDims(2))
        generators = [("H", ops.H)] + [
            (f"{name}{a}", getattr(ops, name)(a)) for name in ("L", "Lam", "K") for a in ALPHAS
        ]
        basis = ops.hor
        once = {
            label: {
                x: reference_apply(op, Multivector.blade(x))
                for k in basis.degrees() for x in basis.blades(k)
            }
            for label, op in generators
        }
        for (la, a), (lb, b) in itertools.product(generators, repeat=2):
            products = a.compose(b), commutator(a, b), anticommutator(a, b)
            for k in basis.degrees():
                for i, x in enumerate(basis.blades(k)):
                    ab = reference_apply(a, once[lb][x])
                    ba = reference_apply(b, once[la][x])
                    got = [op.blocks[k][i] for op in products]
                    assert got == [ab, ab - ba, ab + ba], (la, lb, x)
            for op in products:
                for cols in op.blocks.values():
                    for col in cols:
                        assert all(type(c) is int for c in col.terms.values()), (la, lb)

    def test_sums_of_products_match_the_reference_route(self):
        # Three terms, scalars other than 1 and -1, and a diagonal weight: on
        # each blade x of degree k, the sum against the same sum on forms.
        weight = GradedOperator.diagonal(HOR, lambda k: k - 1)
        for a in ALPHAS:
            K, K0, K1, K2 = OPS.K(a), OPS.K_s(a, 0), OPS.K_s(a, 1), OPS.K_s(a, 2)
            total = _product((2, K2, OPS.id_hor), (-1, K0, weight), (3, K, K1))
            assert total.shift == 0 and total.basis is HOR
            for k in HOR.degrees():
                for x, col in zip(HOR.blades(k), total.blocks[k]):
                    mv = Multivector.blade(x)
                    expected = (
                        2 * reference_apply(K2, mv)
                        - (k - 1) * reference_apply(K0, mv)
                        + 3 * reference_apply(K, reference_apply(K1, mv))
                    )
                    assert col == expected, (a, x)

    @pytest.mark.parametrize(
        "flips", [(), ((1, 0), (2, 3), (3, 5))], ids=["built", "sign-flipped"]
    )
    def test_apply_compose_and_brackets_on_mixed_forms(self, flips):
        ops = OperatorSet(D1, flipped(PhiStarTable.build(D1), flips))
        operators = every_operator(ops)
        forms = {id(ops.full): mixed_forms(ops.full, 1), id(ops.hor): mixed_forms(ops.hor, 2)}
        for label, op in operators:
            for x in forms[id(op.basis)]:
                assert op.apply(x) == reference_apply(op, x), label
        for (la, a), (lb, b) in combinations_with_replacement(operators, 2):
            if a.basis is not b.basis:
                continue
            after = a.compose(b), commutator(a, b), anticommutator(a, b)
            for x in forms[id(a.basis)]:
                ab = reference_apply(a, reference_apply(b, x))
                ba = reference_apply(b, reference_apply(a, x))
                got = [reference_apply(op, x) for op in after]
                assert got == [ab, ab - ba, ab + ba], (la, lb)


@st.composite
def replacement_terms(draw):
    """(shift, terms): one to three (r, w, c) terms of slot tuples on the n = 1
    coframe, r and w of at most three slots each, all of shift |w| - |r|."""
    shift = draw(st.integers(-3, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(max(0, -shift), min(3, 3 - shift)))
        r, w = (
            tuple(sorted(draw(st.sets(st.integers(0, D1.dim - 1), min_size=k, max_size=k))))
            for k in (size, size + shift)
        )
        terms.append((r, w, draw(st.integers(-3, 3).filter(bool))))
    return shift, terms


def replaced_on_forms(r, w, c, mv):
    """c times: contract r's slots in ascending order, then wedge w in front."""
    for slot in r:
        mv = interior(slot, mv)
    return c * wedge(Multivector.blade(w), mv)


class TestReplacementRule:
    @given(replacement_terms())
    @example((-1, [((0, 2, 5), (1, 3), 1), ((1, 4), (6,), -2)]))
    @example((0, [((1, 4, 6), (0, 2, 5), 3), ((3,), (1,), -1)]))
    @example((1, [((), (0,), 1), ((), (0,), 1)]))
    @example((1, [((), (0,), 1), ((), (0,), -1), ((2,), (0, 1), 2)]))
    def test_rule_matches_contractions_then_wedge(self, case):
        # On every blade of the full n = 1 basis: terms that meet add.
        shift, terms = case
        op = _replacements(shift, FULL, [(_mask_of(r), _mask_of(w), c) for r, w, c in terms])
        assert all(c for column in op._images.values() for c in column.values())
        assert all(op._images.values())
        for k in FULL.degrees():
            for x in FULL.blades(k):
                mv = Multivector.blade(x)
                images = [replaced_on_forms(r, w, c, mv) for r, w, c in terms]
                assert op.apply(mv) == sum(images, Multivector.zero()), (terms, x)

    def test_terms_that_meet_add(self):
        basis = Basis(range(3))
        once = {m: {m | 1: 1} for m in (0b000, 0b010, 0b100, 0b110)}
        twice = {m: {m | 1: 2} for m in once}
        assert _replacements(1, basis, [(0, 1, 1), (0, 1, 1)])._images == twice
        # Terms that cancel leave no entry and no column, a third term puts
        # the entries back, and a zero term writes nothing.
        assert _replacements(1, basis, [(0, 1, 1), (0, 1, -1)])._images == {}
        assert _replacements(1, basis, [(0, 1, 1), (0, 1, -1), (0, 1, 1)])._images == once
        assert _replacements(1, basis, [(0, 1, 0)])._images == {}
        # Terms whose slots fall outside the basis write nothing.
        assert _replacements(1, basis, [(0, 0b1000, 1), (0b1000, 0b11000, 1)])._images == {}

    def test_a_term_of_another_shift_is_rejected(self):
        for terms in ([(0, 0b11, 1)], [(0, 0b1, 1), (0b1, 0b10, 1)], [(0, 0b11000, 1)]):
            with pytest.raises(ValueError, match="expected 1"):
                _replacements(1, Basis(range(3)), terms)

    @given(n=st.sampled_from([1, 2]), a=st.sampled_from(ALPHAS), data=st.data())
    def test_lambda_terms_are_frame_double_contractions(self, n, a, data):
        # Each term of Lambda_a through the rule is i_first i_second, each step
        # one frame contraction, on a blade holding the pair.
        dims = ModelDims(n)
        ops = OperatorSet(dims)
        pairs = contact.structure_pairs(dims, a)[:-1]
        i = data.draw(st.integers(0, len(pairs) - 1))
        first, second = pairs[i]
        others = data.draw(st.sets(st.integers(0, dims.horizontal_dim - 1)))
        mv = Multivector.blade(sorted(others | {first, second}))
        op = _replacements(-2, ops.hor, [ops._lambda_terms(a)[i]])
        inner = contact.frame_interior(dims, second, mv)
        assert op.apply(mv) == contact.frame_interior(dims, first, inner)


class TestDirectTables:
    """l_a, lambda_a, the slot replacements and Lambda_star write their tables
    directly; each table must be the one ``from_function`` builds from the
    per-blade column functions, every column's entry order included."""

    @pytest.mark.parametrize(
        "n, flip", [(1, None), (2, None), *((1, flip) for flip in TABLE_FLIPS)],
        ids=["n1", "n2", *(f"n1-phi{a}[{i}]" for a, i in TABLE_FLIPS)],
    )
    def test_direct_tables_match_the_column_route(self, n, flip):
        table = PhiStarTable.build(ModelDims(n))
        ops = OperatorSet(ModelDims(n), table if flip is None else table.with_sign_flip(*flip))
        for a in ALPHAS:
            references = reference_tables(ops, a)
            assert [name for name, _ in references] == [
                "l", "lam", "L_full", "L", "Lambda_full", "Lam", "K", "Lambda_star"]
            for name, reference in references:
                op = getattr(ops, name)(a)
                assert (op.shift, op.basis) == (reference.shift, reference.basis), (name, a)
                assert column_items(op) == column_items(reference), (name, a)


def one_column_changed(op: GradedOperator):
    """Copies of ``op`` that differ from it in one column of one degree: the
    first nonzero column with its first coefficient negated, the last nonzero
    column emptied, and the first zero column given a term."""
    basis = op.basis
    masks = [m for k in basis.degrees() for m in basis._masks[k]]
    nonzero = [m for m in masks if m in op._images]
    changes = []
    if nonzero:
        first = dict(op._images[nonzero[0]])
        target = next(iter(first))
        first[target] = -first[target]
        changes += [{nonzero[0]: first}, {nonzero[-1]: {}}]
    for m in masks:
        targets = basis._masks.get(m.bit_count() + op.shift, ())
        if m not in op._images and targets:
            changes.append({m: {targets[-1]: 5}})
            break
    return [
        GradedOperator.from_function(
            op.shift, basis, lambda m, change=change: dict(change.get(m, op._images.get(m, {})))
        )
        for change in changes
    ]


class TestValueRows:
    """A value row (description, degree, blade, got, expected) comes out of
    ``_differences`` unchanged when its two values differ, and not at all
    when they are equal."""

    def test_an_equal_row_yields_nothing(self):
        form = Multivector.blade((0, 4))
        rows = [
            ("count", 3, "-", 5, 5),
            ("form", 2, "-", form, Multivector.blade((0, 4))),
            ("zero", 2, "-", Multivector.zero(), Multivector.zero()),
        ]
        assert list(_differences(OPS, rows)) == []

    def test_an_unequal_row_yields_itself(self):
        rows = [
            ("count", 3, "-", 4, 5),
            ("equal", 1, "-", 1, 1),
            ("form", 1, "eta1", Multivector.blade((0,)), Multivector.blade((1,))),
            ("zero", 2, "-", Multivector.scalar(1), Multivector.zero()),
        ]
        got = list(_differences(OPS, rows))
        assert len(got) == 3 and all(g is r for g, r in zip(got, rows[:1] + rows[2:]))

    def test_a_form_against_a_string_is_a_mismatch(self):
        # A condition check states its condition as the expected value.
        for form in (Multivector.zero(), Multivector.scalar(1), Multivector.blade((4,))):
            row = ("condition", 2, "-", form, "eta-free form")
            assert list(_differences(OPS, [row])) == [row]

    @pytest.mark.parametrize("first", [
        ("row", 1, "-", 1, 2),
        ("operator", OPS.L(1), OPS.L(2)),
        [("same", OPS.L(1), OPS.L(1)), ("group", OPS.K(1), OPS.K(2))],
    ], ids=["row", "triple", "group"])
    def test_no_statement_after_the_first_mismatch_is_evaluated(self, first):
        def statements():
            yield "equal", 0, "-", 1, 1
            yield "same", OPS.L(1), OPS.L(1)
            yield first
            raise AssertionError("a statement after the witness was evaluated")

        witness = next(_differences(OPS, statements()))
        assert witness[0] == (first[0] if isinstance(first, tuple) else first[1][0])


class TestWholeTableFastPath:
    """``_differences`` compares two whole image tables first and
    searches block by block only when they differ: the witness stream must be
    the blockwise comparator's."""

    def test_one_changed_column_gives_the_reference_witnesses(self):
        for label, op in EVERY_OPERATOR:
            changes = one_column_changed(op)
            for changed in changes:
                assert changed != op
                for members in (
                    [(label, op, changed)],
                    [(label, changed, op)],
                    [("same", op, op), (label, op, changed), ("again", changed, changed)],
                    [(f"{label}, k={{}}".format, op, changed)],
                ):
                    got = witnesses(_differences(OPS, members))
                    assert got == witnesses(reference_operator_differences(OPS, members)), label
                    assert len(got) == 1 and got[0][0] in (label, f"{label}, k={got[0][1]}")
                # A group: two members that differ on the same blade come out
                # in member order, the equal member not at all.
                members = [[(label, op, changed), ("same", op, op), ("again", changed, op)]]
                got = witnesses(_differences(OPS, members))
                assert got == witnesses(reference_operator_differences(OPS, members)), label
                assert [w[0] for w in got] == [label, "again"] and got[0][1:3] == got[1][1:3]
            # A reversed group of every change comes out blade by blade, each
            # member on its own blade.
            members = [[(f"change {i}, k={{}}".format, op, c) for i, c in enumerate(changes)][::-1]]
            got = witnesses(_differences(OPS, members))
            assert got == witnesses(reference_operator_differences(OPS, members)), label
            assert len(got) == len(changes), label

    def test_explicit_zero_coefficients_compare_equal(self):
        n = D1.n
        # H's column function gives its top-degree blades the coefficient 0,
        # and this identity gives every blade one more term, with coefficient 0.
        weight = GradedOperator.from_function(0, HOR, lambda m: {m: 2 * n - m.bit_count()})
        identity = GradedOperator.from_function(0, HOR, lambda m: {m: 1, m ^ 1: 0})
        for label, op, expected in (("H", weight, OPS.H), ("id", identity, OPS.id_hor)):
            members = [(label, op, expected), (label, expected, op)]
            assert op == expected
            assert witnesses(_differences(OPS, members)) == []
            assert witnesses(reference_operator_differences(OPS, members)) == []

    def test_products_of_the_rank_two_generators(self):
        # All 100 composites a b of the n = 2 generators, each against the
        # reference route applied twice and against b a.
        ops = OperatorSet(ModelDims(2))
        generators = [("H", ops.H)] + [
            (f"{name}{a}", getattr(ops, name)(a)) for name in ("L", "Lam", "K") for a in ALPHAS
        ]
        basis = ops.hor
        blade_of = {m: x for k in basis.degrees() for x, m in zip(basis.blades(k), basis._masks[k])}
        once = {
            label: {m: reference_apply(op, Multivector.blade(x)) for m, x in blade_of.items()}
            for label, op in generators
        }
        unequal = 0
        for (la, a), (lb, b) in itertools.product(generators, repeat=2):
            product = a.compose(b)
            reference = GradedOperator.from_function(
                a.shift + b.shift, basis, lambda m: reference_apply(a, once[lb][m])._terms
            )
            reversed_order = b.compose(a)
            label = f"{la} {lb}"
            for other in (reference, reversed_order):
                members = [(label, product, other)]
                got = witnesses(_differences(ops, members))
                assert got == witnesses(reference_operator_differences(ops, members)), label
                assert (product == other) == (product.blocks == other.blocks) == (not got)
            assert product == reference, label
            unequal += product != reversed_order
        assert unequal

    def test_equality_agrees_with_blockwise_views(self):
        operators = [op for _, op in EVERY_OPERATOR]
        operators += [op.scale(-1) for op in operators[:6]]
        operators += [commutator(OPS.L(1), OPS.Lam(1)), -OPS.H, OPS.zero_hor(0), OPS.zero_full(0)]
        for a, b in itertools.product(operators, repeat=2):
            blockwise = a.shift == b.shift and a.blocks == b.blocks
            assert (a == b) == blockwise


def general_path(terms):
    """``_product`` of the terms on the general path: each operand copied
    once, with its diagonal flag cleared."""
    copies = {}
    for _, *pair in terms:
        for op in pair:
            if id(op) not in copies:
                copies[id(op)] = GradedOperator(op.shift, op.basis, op._images)
                copies[id(op)]._diagonal = False
    return _product(*[(scalar, copies[id(o)], copies[id(i)]) for scalar, o, i in terms])


def extra_products(ops):
    """Products with diagonal factors that the suite does not make: -H and
    Fraction weights, on either side, in sums and with both factors diagonal."""
    minus_h = -ops.H
    thirds = GradedOperator.diagonal(ops.hor, lambda k: Fraction(k, 3) - 1)
    K, L, Lam = ops.K(1), ops.L(2), ops.Lam(3)
    return [
        ((1, K, minus_h),),
        ((1, minus_h, L), (-1, L, minus_h)),
        ((Fraction(1, 2), thirds, Lam), (3, Lam, thirds), (-1, Lam, minus_h)),
        ((Fraction(-2, 3), thirds, minus_h),),
        ((1, thirds, thirds), (Fraction(1, 2), thirds, minus_h)),
        ((1, ops.I(2), ops.id_hor), (1, ops.id_hor, ops.I(2))),
    ]


class TestScalingPass:
    """A product whose every term is one operator X scaled by a diagonal
    factor is one pass over X's table: it must give the general path's
    table, on built and corrupted tables."""

    @pytest.mark.parametrize(
        "n, flip", [(1, None), *((1, flip) for flip in TABLE_FLIPS), (2, None)],
        ids=["n1", *(f"n1-phi{a}[{i}]" for a, i in TABLE_FLIPS), "n2"],
    )
    def test_suite_products_match_the_general_path(self, monkeypatch, n, flip):
        calls, recursion = [], []

        def recorded(*terms):
            calls.append(terms)
            return _product(*terms)

        def recursion_side(*terms):
            recursion.append(terms)
            return recorded(*terms)

        monkeypatch.setattr(operators, "_product", recorded)
        # The suite's only direct sums: the substitution recursion's right
        # sides, K_{a,s+1} and K_{a,s-1} each times a diagonal.
        monkeypatch.setattr(identities, "_product", recursion_side)
        table = PhiStarTable.build(ModelDims(n))
        verify_identities(n, table if flip is None else table.with_sign_flip(*flip))
        if flip is None:
            calls += extra_products(OperatorSet(ModelDims(n)))
        scaled = [terms for terms in calls if operators._scaled_copy(terms) is not None]
        for terms in calls:
            product, general = _product(*terms), general_path(terms)
            assert (product.shift, product._images) == (general.shift, general._images)
        assert scaled
        assert recursion and all(terms in scaled for terms in recursion)
        assert all(terms[0][1] is not terms[1][1] for terms in recursion)
        if flip is None:
            assert len(recursion) == 3 * 4 * n
            diagonals = [op for terms in scaled for _, *pair in terms for op in pair
                         if operators._is_diagonal(op)]
            minus_h = -OperatorSet(ModelDims(n)).H
            # An E_k (one degree of the eta-free sector kept, every other
            # weight zero); Fraction weights; -H; a term with both factors
            # diagonal.
            assert any(
                op.basis.max_degree == 4 * n and len({m.bit_count() for m in op._images}) == 1
                for op in diagonals
            )
            assert any(type(c) is Fraction for op in diagonals
                       for column in op._images.values() for c in column.values())
            assert any(op == minus_h for op in diagonals)
            assert any(operators._is_diagonal(outer) and operators._is_diagonal(inner)
                       for terms in scaled for _, outer, inner in terms)
