"""so(4,1): defining relations, bracket table, module isomorphism."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosym3 import so41
from cosym3.linalg import sparse_rank
from cosym3.so41 import (
    _IMAGES,
    BASIS_PAIRS,
    GENERATOR_NAMES,
    ModuleReport,
    PairCheck,
    _matrix_side_checks,
    bracket,
    bracket_table_checks,
    build_generators,
    mat_mul,
    satisfies_defining_relation,
    t,
    verify_module,
)
from cosym3.operators import GradedOperator
from helpers import FAULT_FINGERPRINTS, FINGERPRINTS, fingerprint, reference_pairs

# A dense reference for the sparse matrices: lists of rows, multiplied by the
# textbook triple loop.
E1 = [[(1 if i == j else 0) * (-1 if i == 4 else 1) for j in range(5)] for i in range(5)]


def dense(m):
    return [[m.get((i, j), 0) for j in range(5)] for i in range(5)]


def dense_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(5)) for j in range(5)] for i in range(5)]


def dense_transpose(a):
    return [[a[j][i] for j in range(5)] for i in range(5)]


def lin(*terms):
    """The sparse matrix sum of c * m over the (c, m) terms, zeros dropped."""
    out = {}
    for c, m in terms:
        for key, value in m.items():
            out[key] = out.get(key, 0) + c * value
    return {key: value for key, value in out.items() if value}


class TestDefiningRelation:
    def test_rotation_block(self):
        t12 = dense(t(1, 2))
        lhs = dense_mul(t12, E1)
        rhs = dense_mul(E1, dense_transpose(t12))
        assert [[x + y for x, y in zip(r, s)] for r, s in zip(lhs, rhs)] == dense({})

    def test_boost_block(self):
        t15 = t(1, 5)
        assert satisfies_defining_relation(t15)

    def test_all_basis_elements(self):
        assert all(satisfies_defining_relation(t(i, j)) for i, j in BASIS_PAIRS)

    @pytest.mark.parametrize(
        "matrix",
        [{(0, 1): 1, (1, 0): 1}, {(0, 4): 1, (4, 0): -1}, {(2, 2): 1}, {(4, 4): -3}],
        ids=["symmetric rotation", "wrong-sign boost", "diagonal", "diagonal e5"],
    )
    def test_rejects_non_members(self, matrix):
        assert not satisfies_defining_relation(matrix)

    def test_one_sided_entry_rejected(self):
        assert not satisfies_defining_relation({(1, 3): 1})
        assert not satisfies_defining_relation({(3, 4): 2})

    def test_linear_independence(self):
        assert sparse_rank([t(a, b) for a, b in BASIS_PAIRS]) == 10

    def test_basis_elements_are_sparse(self):
        assert t(2, 4) == {(1, 3): 1, (3, 1): -1}
        assert t(3, 5) == {(2, 4): 1, (4, 2): 1}
        assert t(4, 2) == {(1, 3): -1, (3, 1): 1}
        assert t(5, 3) == {(2, 4): -1, (4, 2): -1}

    def test_antisymmetric_on_every_pair(self):
        # The fifth slot included: t_5j = -t_j5.
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    assert t(j, i) == lin((-1, t(i, j))), (i, j)

    @pytest.mark.parametrize("i, j", [(2, 2), (5, 5), (0, 5), (5, 0), (1, 6), (6, 1)])
    def test_invalid_indices(self, i, j):
        with pytest.raises(ValueError):
            t(i, j)


class TestBracket:
    def test_shared_first_index(self):
        assert bracket(t(1, 2), t(1, 3)) == lin((-1, t(2, 3)))

    def test_boost_pair(self):
        assert bracket(t(1, 5), t(2, 5)) == t(1, 2)

    def test_ladder_combination(self):
        lhs = bracket(
            lin((1, t(1, 5)), (1, t(1, 4))),
            lin((1, t(1, 5)), (-1, t(1, 4))),
        )
        assert lhs == lin((-2, t(4, 5)))

    def test_every_basis_pair_matches_dense_product(self):
        for p in BASIS_PAIRS:
            for q in BASIS_PAIRS:
                a, b = dense(t(*p)), dense(t(*q))
                ab, ba = dense_mul(a, b), dense_mul(b, a)
                result = bracket(t(*p), t(*q))
                assert dense(result) == [
                    [x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)
                ], (p, q)
                assert all(result.values()), (p, q)

    def test_mat_mul_matches_dense_product(self):
        a = lin((2, t(1, 5)), (-1, t(2, 3)), (3, t(1, 4)))
        b = lin((1, t(3, 5)), (5, t(1, 2)))
        assert dense(mat_mul(a, b)) == dense_mul(dense(a), dense(b))
        assert mat_mul(a, {}) == {} and mat_mul({}, b) == {}

    def test_metric_rule_on_all_pairs(self):
        checks = bracket_table_checks()
        expected = [f"[t{i}{j}, t{k}{l}]" for (i, j), (k, l) in combinations(BASIS_PAIRS, 2)]
        assert [name for name, _ in checks] == expected
        assert len(checks) == 45
        for name, ok in checks:
            assert ok, name

    @pytest.mark.parametrize("term", range(4))
    def test_each_rule_term_decides_ten_rows(self, term, monkeypatch):
        # For (i, j) before (k, l) the last term, d_il g_i t_jk, never applies;
        # with both orders checked every term is reached.
        negated = tuple(
            (-sign, *rest) if m == term else (sign, *rest)
            for m, (sign, *rest) in enumerate(so41._RULE)
        )
        monkeypatch.setattr(so41, "_RULE", negated)
        assert sum(not ok for _, ok in bracket_table_checks()) == 10

    def test_wrong_bracket_on_a_disjoint_pair_is_flagged(self, monkeypatch):
        # [t12, t34] = 0 follows from the rule alone; no pattern lists it.
        right = so41.bracket

        def wrong(a, b):
            out = right(a, b)
            return lin((1, out), (1, t(1, 3))) if (a, b) == (t(1, 2), t(3, 4)) else out

        monkeypatch.setattr(so41, "bracket", wrong)
        _matrix_side_checks.cache_clear()
        try:
            assert [name for name, ok in bracket_table_checks() if not ok] == ["[t12, t34]"]
            report = verify_module(1)
            assert not report.bracket_table_ok
            assert report.failures() == ["bracket table"]
        finally:
            _matrix_side_checks.cache_clear()

    @given(
        p=st.sampled_from(BASIS_PAIRS),
        q=st.sampled_from(BASIS_PAIRS),
    )
    def test_closure_under_bracket(self, p, q):
        assert satisfies_defining_relation(bracket(t(*p), t(*q)))


class TestIsoMap:
    def test_weight_target(self):
        assert _IMAGES["H"] == lin((2, t(4, 5)))

    def test_k_targets_use_extended_symbols(self):
        assert _IMAGES["K2"] == lin((2, t(3, 1)))
        assert _IMAGES["K2"] == lin((-2, t(1, 3)))

    def test_ladder_targets(self):
        assert _IMAGES["L3"] == lin((1, t(3, 5)), (1, t(3, 4)))
        assert _IMAGES["Lambda3"] == lin((1, t(3, 5)), (-1, t(3, 4)))

    def test_generator_names_in_report_order(self):
        assert GENERATOR_NAMES == [
            "H", "L1", "L2", "L3", "Lambda1", "Lambda2", "Lambda3", "K1", "K2", "K3",
        ]

    def test_image_rank(self):
        assert sparse_rank(list(_IMAGES.values())) == 10


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

    def test_to_dict_keys(self):
        module = verify_module(1).to_dict()
        assert list(module) == [
            "n", "defining_relations_ok", "basis_rank", "bracket_table_ok",
            "operator_span_rank", "image_rank", "pairs", "passed",
        ]
        assert list(module["pairs"][0]) == ["pair", "ok", "detail"]

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

    def test_rank_three_module(self):
        report = verify_module(3)
        assert report.passed
        assert report.operator_span_rank == 10

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            verify_module(4)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_rank_must_be_an_int(self, n):
        # Both pass the SUPPORTED_RANKS guard, as 2.0 == 2 and True == 1: 2.0
        # then raised TypeError in the basis build, and True ran as n = 1.
        with pytest.raises(ValueError, match="rank must be a nonnegative int"):
            verify_module(n)

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


def rank_deficient_generators(n):
    """The generators with L2 := L1 and K3 := 3 K1: rank 8, and two of them
    dependent on earlier ones."""
    gens = build_generators(n)
    gens["L2"] = gens["L1"]
    gens["K3"] = gens["K1"].scale(3)
    return gens


class TestCertifiedMembership:
    @pytest.mark.parametrize("corrupt", [None, *GENERATOR_NAMES])
    @pytest.mark.parametrize("n", [1, 2])
    def test_pairs_match_the_full_solve(self, n, corrupt):
        gens = build_generators(n)
        if corrupt is not None:
            gens[corrupt] = gens[corrupt].scale(-1)
        assert verify_module(n, corrupt).to_dict()["pairs"] == reference_pairs(gens)

    @pytest.mark.slow
    @pytest.mark.parametrize("corrupt", [None, "K3"])
    def test_rank_three_pairs_match_the_full_solve(self, corrupt):
        gens = build_generators(3)
        if corrupt is not None:
            gens[corrupt] = gens[corrupt].scale(-1)
        assert verify_module(3, corrupt).to_dict()["pairs"] == reference_pairs(gens)

    @pytest.mark.parametrize("corrupt, built", [(None, 10), ("K3", 11)])
    def test_no_commutator_table_is_built(self, corrupt, built, monkeypatch):
        # The ten generators and the negated copy: each bracket is solved and
        # certified on its packed sum.
        count = 0
        real_init = GradedOperator.__init__

        def init(self, *args):
            nonlocal count
            count += 1
            real_init(self, *args)

        monkeypatch.setattr(GradedOperator, "__init__", init)
        verify_module(2, corrupt)
        assert count == built

    @pytest.mark.parametrize("n", [1, 2])
    def test_rank_deficient_generators_match_the_full_solve(self, n, monkeypatch):
        # The dependent generators get coefficient 0 on the lead keys as in
        # the full solve; both failure verdicts occur.
        monkeypatch.setattr(so41, "build_generators", rank_deficient_generators)
        report = verify_module(n)
        assert report.operator_span_rank == 8
        pairs = report.to_dict()["pairs"]
        assert pairs == reference_pairs(rank_deficient_generators(n))
        details = {p["detail"].split(":")[0] for p in pairs if not p["ok"]}
        assert details == {
            "commutator escapes the span", "matrix bracket disagrees with the span expansion",
        }

    def test_every_solve_reads_the_ten_lead_keys(self, monkeypatch):
        calls = []
        real = so41.solve_in_span

        def spy(vectors, target):
            calls.append((vectors, target))
            return real(vectors, target)

        monkeypatch.setattr(so41, "solve_in_span", spy)
        assert verify_module(2).passed
        assert len(calls) == 45
        leads = set().union(*calls[0][0])
        assert len(leads) == 10
        for vectors, target in calls:
            assert len(vectors) == 10 and set().union(*vectors) == leads
            assert set(target) <= leads

    def test_a_solver_that_skips_an_escaping_entry_is_caught(self, monkeypatch):
        # [H, L1] gets one extra entry, top blade -> scalar, that no generator
        # has, and the solver drops every key outside the generators: it
        # answers [H, L1]'s true expansion (L1: -2).  Only the residue over the
        # full commutator sees the extra entry.
        made = {}
        real_sum, real_solve = so41._packed_sum, so41.solve_in_span

        def build(n):
            made.update(build_generators(n))
            return made

        def packed_sum(terms, width):
            out = real_sum(terms, width)
            (_, x, y), _ = terms
            if x is made["H"] and y is made["L1"]:
                top = x.basis._masks[x.basis.max_degree][0]
                out[top << width] = out.get(top << width, 0) + 1
            return out

        def solver(vectors, target):
            keys = set().union(*vectors)
            return real_solve(vectors, {k: v for k, v in target.items() if k in keys})

        monkeypatch.setattr(so41, "build_generators", build)
        monkeypatch.setattr(so41, "_packed_sum", packed_sum)
        monkeypatch.setattr(so41, "solve_in_span", solver)
        report = verify_module(1)
        h, l1 = made["H"], made["L1"]
        terms, width = ((1, h, l1), (-1, l1, h)), so41._width(h.basis)
        injected = {k: v for k, v in packed_sum(terms, width).items() if v}
        extra = injected.keys() - {k for k, v in real_sum(terms, width).items() if v}
        assert len(extra) == 1
        assert not extra & set().union(*(so41._flatten(op).keys() for op in made.values()))
        assert solver([so41._flatten(op) for op in made.values()], injected) == [
            0, -2, 0, 0, 0, 0, 0, 0, 0, 0,
        ]
        failing = [(p.name, p.detail) for p in report.pairs if not p.ok]
        assert failing == [("[H, L1]", "commutator escapes the span")]
