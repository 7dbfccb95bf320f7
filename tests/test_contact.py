"""Flat structure model: pullback tables, fundamental forms, frame pairing."""

import re
from itertools import combinations

import pytest

from cosym3 import contact
from cosym3.contact import ALPHAS, PhiStarTable, epsilon
from cosym3.exterior import ModelDims, Multivector, wedge, wedge_all

D1 = ModelDims(1)
D2 = ModelDims(2)


def _phi(table, alpha, mv):
    return contact.phi_star(table, alpha, mv)


class TestEpsilon:
    def test_normalization(self):
        assert epsilon(1, 2, 3) == 1
        assert epsilon(3, 2, 1) == -1
        assert epsilon(1, 1, 2) == 0

    def test_total_antisymmetry(self):
        for a in ALPHAS:
            for b in ALPHAS:
                for c in ALPHAS:
                    assert epsilon(a, b, c) == -epsilon(b, a, c)
                    assert epsilon(a, b, c) == -epsilon(a, c, b)


class TestPhiStarTable:
    def test_zeta_maps_to_pulled_back_slot(self):
        table = PhiStarTable.build(D1)
        zeta1 = Multivector.blade((contact.zeta_index(D1, 1),))
        assert _phi(table, 1, zeta1) == Multivector.blade(
            (contact.phi_zeta_index(D1, 1, 1),)
        )

    def test_composition_is_minus_third(self):
        table = PhiStarTable.build(D2)
        for s in (1, 2):
            zeta = Multivector.blade((contact.zeta_index(D2, s),))
            lhs = _phi(table, 1, _phi(table, 2, zeta))
            assert lhs == -_phi(table, 3, zeta)
            assert _phi(table, 2, _phi(table, 1, zeta)) == _phi(table, 3, zeta)

    def test_eta_rule_from_epsilon(self):
        # eta_3 o phi_2 = eps(3, 2, 1) eta_1 = -eta_1.
        table = PhiStarTable.build(D1)
        eta3 = Multivector.blade((contact.eta_index(D1, 3),))
        eta1 = Multivector.blade((contact.eta_index(D1, 1),))
        assert _phi(table, 2, eta3) == -eta1

    def test_kills_own_reeb_form(self):
        table = PhiStarTable.build(D1)
        for alpha in ALPHAS:
            eta = Multivector.blade((contact.eta_index(D1, alpha),))
            assert not _phi(table, alpha, eta)

    def test_squares_to_minus_identity_off_own_eta(self):
        table = PhiStarTable.build(D2)
        for alpha in ALPHAS:
            for idx in range(D2.horizontal_dim):
                one_form = Multivector.blade((idx,))
                assert _phi(table, alpha, _phi(table, alpha, one_form)) == -one_form

    @pytest.mark.parametrize("dims", [D1, D2])
    def test_pulls_back_blades_factor_by_factor(self, dims):
        # The wedge of the one-form pullbacks, an independent route through
        # the wedge kernel.
        table = PhiStarTable.build(dims)
        for alpha in ALPHAS:
            for k in range(dims.horizontal_dim + 1):
                for blade in combinations(range(dims.horizontal_dim), k):
                    factors = (_phi(table, alpha, Multivector.blade((i,))) for i in blade)
                    assert _phi(table, alpha, Multivector.blade(blade)) == wedge_all(factors)

    def test_blades_with_own_reeb_form_pull_back_to_zero(self):
        table = PhiStarTable.build(D1)
        for alpha in ALPHAS:
            eta = contact.eta_index(D1, alpha)
            for k in range(1, D1.dim + 1):
                for blade in combinations(range(D1.dim), k):
                    if eta in blade:
                        assert not _phi(table, alpha, Multivector.blade(blade))

    def test_sign_flip_hook(self):
        table = PhiStarTable.build(D1)
        flipped = table.with_sign_flip(1, 0)
        img, sign = table.image(1, 0)
        assert flipped.image(1, 0) == (img, -sign)
        with pytest.raises(ValueError):
            table.with_sign_flip(1, contact.eta_index(D1, 1))
        for alpha, index, named in ((1, -1, "0..6"), (1, 99, "0..6"), (4, 0, "[1, 2, 3]")):
            with pytest.raises(ValueError, match=re.escape(named)):
                table.with_sign_flip(alpha, index)


class TestFrameEvaluation:
    def test_contraction_signs(self):
        # i_{phi_a X_s} (phi_a* zeta_t) = -delta_st, the slot-sign table.
        diag = contact.eval_diag(D2)
        for i in range(D2.dim):
            rho = Multivector.blade((i,))
            for j in range(D2.dim):
                got = contact.frame_interior(D2, j, rho)
                if i == j:
                    assert got == Multivector.scalar(diag[i])
                else:
                    assert not got

    def test_phi_slot_sign_is_minus_one(self):
        slot = contact.phi_zeta_index(D1, 1, 1)
        rho = Multivector.blade((slot,))
        assert contact.frame_interior(D1, slot, rho) == Multivector.scalar(-1)


class TestFundamentalForm:
    def test_structure_pairings(self):
        for dims in (D1, D2):
            phi1 = contact.fundamental_form(dims, 1)
            z1 = Multivector.blade((contact.zeta_index(dims, 1),))
            p1 = Multivector.blade((contact.phi_zeta_index(dims, 1, 1),))
            p2 = Multivector.blade((contact.phi_zeta_index(dims, 2, 1),))
            xi2 = Multivector.blade((contact.eta_index(dims, 2),))
            xi3 = Multivector.blade((contact.eta_index(dims, 3),))
            assert contact.pair_frame(dims, phi1, wedge(z1, p1)) == -1
            assert contact.pair_frame(dims, phi1, wedge(z1, p2)) == 0
            assert contact.pair_frame(dims, phi1, wedge(xi2, xi3)) == -1

    def test_vanishes_off_structure_pairs(self):
        from itertools import combinations

        for alpha in ALPHAS:
            phi = contact.fundamental_form(D1, alpha)
            listed = {frozenset(p) for p in contact.structure_pairs(D1, alpha)}
            for i, j in combinations(range(D1.dim), 2):
                value = contact.pair_frame(D1, phi, Multivector.blade((i, j)))
                if frozenset((i, j)) in listed:
                    assert value in (-1, 1)
                else:
                    assert value == 0


class TestXiForm:
    @pytest.mark.parametrize("dims", [D1, D2])
    def test_two_routes_agree(self, dims):
        for alpha in ALPHAS:
            assert contact.xi_form(dims, alpha) == contact.xi_form_from_fundamental(
                dims, alpha
            )

    def test_reeb_contraction_vanishes(self):
        for alpha in ALPHAS:
            xi = contact.xi_form(D1, alpha)
            for mu in ALPHAS:
                slot = contact.eta_index(D1, mu)
                assert not contact.frame_interior(D1, slot, xi)

    def test_explicit_rank_one_value(self):
        assert contact.xi_form(D1, 1) == Multivector.blade((0, 1)) - Multivector.blade(
            (2, 3)
        )

    def test_corrupted_table_breaks_agreement(self):
        table = PhiStarTable.build(D1).with_sign_flip(1, 0)
        assert contact.xi_form(D1, 1, table) != contact.xi_form_from_fundamental(D1, 1)


class TestLabels:
    def test_coframe_labels(self):
        assert contact.coframe_label(D1, 0) == "zeta1"
        assert contact.coframe_label(D1, 1) == "phi1zeta1"
        assert contact.coframe_label(D1, 4) == "eta1"
        assert contact.format_blade(D1, (0, 1)) == "zeta1^phi1zeta1"
        assert contact.format_blade(D1, ()) == "1"

    def test_label_round_trip_indices(self):
        for s in (1, 2):
            assert contact.coframe_label(D2, contact.zeta_index(D2, s)) == f"zeta{s}"
        for alpha in ALPHAS:
            idx = contact.phi_zeta_index(D2, alpha, 2)
            assert contact.coframe_label(D2, idx) == f"phi{alpha}zeta2"
