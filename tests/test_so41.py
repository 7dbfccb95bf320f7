"""so(4,1): defining relations, bracket table, module isomorphism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosym3.linalg import sparse_rank
from cosym3.so41 import (
    BASIS_PAIRS,
    E1,
    GENERATOR_NAMES,
    ModuleReport,
    PairCheck,
    basis_t,
    bracket,
    bracket_table_checks,
    iso_map,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    satisfies_defining_relation,
    t,
    verify_module,
)
from helpers import FAULT_FINGERPRINTS, FINGERPRINTS, fingerprint


class TestDefiningRelation:
    def test_rotation_block(self):
        t12 = basis_t(1, 2)
        assert mat_add(mat_mul(t12, E1), mat_mul(E1, mat_transpose(t12))) == mat_scale(
            0, E1
        )

    def test_boost_block(self):
        t15 = basis_t(1, 5)
        assert satisfies_defining_relation(t15)

    def test_all_basis_elements(self):
        assert all(satisfies_defining_relation(basis_t(i, j)) for i, j in BASIS_PAIRS)

    def test_linear_independence(self):
        vectors = [
            {
                (i, j): value
                for i, row in enumerate(basis_t(a, b))
                for j, value in enumerate(row)
                if value
            }
            for a, b in BASIS_PAIRS
        ]
        assert sparse_rank(vectors) == 10

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            basis_t(2, 2)
        with pytest.raises(ValueError):
            basis_t(0, 5)
        with pytest.raises(ValueError):
            t(5, 1)


class TestBracket:
    def test_shared_first_index(self):
        assert bracket(basis_t(1, 2), basis_t(1, 3)) == mat_scale(-1, basis_t(2, 3))

    def test_boost_pair(self):
        assert bracket(basis_t(1, 5), basis_t(2, 5)) == basis_t(1, 2)

    def test_ladder_combination(self):
        lhs = bracket(
            mat_add(basis_t(1, 5), basis_t(1, 4)),
            mat_sub(basis_t(1, 5), basis_t(1, 4)),
        )
        assert lhs == mat_scale(-2, basis_t(4, 5))

    def test_published_table(self):
        for name, ok in bracket_table_checks():
            assert ok, name

    @given(
        p=st.sampled_from(BASIS_PAIRS),
        q=st.sampled_from(BASIS_PAIRS),
    )
    def test_closure_under_bracket(self, p, q):
        assert satisfies_defining_relation(bracket(basis_t(*p), basis_t(*q)))


class TestIsoMap:
    def test_weight_target(self):
        assert iso_map("H") == mat_scale(2, t(4, 5))

    def test_k_targets_use_extended_symbols(self):
        assert iso_map("K2") == mat_scale(2, t(3, 1))
        assert iso_map("K2") == mat_scale(-2, basis_t(1, 3))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            iso_map("Q1")

    def test_image_rank(self):
        vectors = [
            {
                (i, j): value
                for i, row in enumerate(iso_map(name))
                for j, value in enumerate(row)
                if value
            }
            for name in GENERATOR_NAMES
        ]
        assert sparse_rank(vectors) == 10


class TestModule:
    def test_rank_one_module(self):
        report = verify_module(1)
        assert report.passed
        assert len(report.pairs) == 45
        assert report.operator_span_rank == 10
        assert report.image_rank == 10

    def test_rank_two_module(self):
        report = verify_module(2)
        assert report.passed
        assert report.operator_span_rank == 10
        # Every pair and the module summary are pinned.
        module = report.to_dict()
        pinned = {p["pair"]: fingerprint(p) for p in module.pop("pairs")}
        pinned["module"] = fingerprint(module)
        assert pinned == FINGERPRINTS["so41-n2"]

    def test_corrupted_k3_fails_naming_k3(self):
        report = verify_module(1, corrupt_generator="K3")
        assert not report.passed
        failing = [p for p in report.pairs if not p.ok]
        assert failing
        assert any("K3" in p.name for p in failing)
        # Every failure involves K3 directly or through its span expansion.
        assert all("K3" in p.name or "K3" in p.detail for p in failing)
        with pytest.raises(ValueError) as err:
            verify_module(1, corrupt_generator="K4")
        assert all(name in str(err.value) for name in GENERATOR_NAMES)

    @pytest.mark.parametrize("name", GENERATOR_NAMES)
    def test_every_negated_generator_fails_with_detail(self, name):
        report = verify_module(1, corrupt_generator=name)
        assert not report.passed
        assert any(p.detail for p in report.pairs if not p.ok)
        assert fingerprint(report.to_dict()) == FAULT_FINGERPRINTS[f"neg {name}"]

    @pytest.mark.slow
    def test_rank_three_module(self):
        report = verify_module(3)
        assert report.passed
        assert report.operator_span_rank == 10

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            verify_module(4)

    def test_failures_list_conditions_then_pairs(self):
        pairs = [PairCheck("H", "K1", False, "escapes"), PairCheck("H", "K2", True)]
        report = ModuleReport(1, False, 9, False, 9, 9, pairs)
        assert report.failures() == [
            "defining relations", "basis rank", "bracket table",
            "operator span rank", "image rank", "[H, K1]",
        ]
        assert not report.passed
        clean = ModuleReport(1, True, 10, True, 10, 10, pairs[1:])
        assert clean.failures() == [] and clean.passed
