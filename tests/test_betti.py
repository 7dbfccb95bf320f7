"""Betti arithmetic: the Reeb convolution, constraints, power-product ranks."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosym3 import betti
from cosym3.betti import (
    HorizontalBettiSequence,
    PowerProductRank,
    betti_from_horizontal,
    check_bounds,
    check_divisibility,
    check_horizontal_constraints,
    s_k_rank,
)
from cosym3.cellular import HomologyResult, cross_check, invariant_cohomology_oracle
from cosym3.contact import PhiStarTable
from cosym3.exterior import ModelDims, Multivector
from cosym3.identities import verify_identities
from cosym3.so41 import verify_module


class TestConvolution:
    def test_torus_binomials(self):
        bh = HorizontalBettiSequence.from_sector_counts(ModelDims(1))
        assert betti_from_horizontal(bh) == tuple(comb(7, p) for p in range(8))

    def test_k3_series(self):
        bh = HorizontalBettiSequence(1, (1, 0, 22, 0, 1))
        b = betti_from_horizontal(bh)
        assert b[:3] == (1, 3, 25)
        assert sum(b) == 24 * 8

    def test_quotient_sequence(self):
        bh = HorizontalBettiSequence(1, (1, 0, 4, 0, 1))
        assert betti_from_horizontal(bh) == (1, 3, 7, 13, 13, 7, 3, 1)

    @given(j=st.integers(0, 4))
    def test_delta_input_spreads_kernel(self, j):
        values = [0] * 5
        values[j] = 1
        b = betti_from_horizontal(HorizontalBettiSequence(1, values))
        expected = [0] * 8
        for offset, weight in enumerate((1, 3, 3, 1)):
            if j + offset < 8:
                expected[j + offset] = weight
        assert list(b) == expected

    @given(
        a=st.lists(st.integers(0, 9), min_size=5, max_size=5),
        b=st.lists(st.integers(0, 9), min_size=5, max_size=5),
    )
    def test_linear(self, a, b):
        ha = HorizontalBettiSequence(1, a)
        hb = HorizontalBettiSequence(1, b)
        hsum = HorizontalBettiSequence(1, (x + y for x, y in zip(a, b)))
        assert betti_from_horizontal(hsum) == tuple(
            x + y for x, y in zip(betti_from_horizontal(ha), betti_from_horizontal(hb))
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            HorizontalBettiSequence(1, (1, 0, 4))

    @pytest.mark.parametrize("entry", [0.5, 2.0, "1", None, True, Fraction(1)])
    def test_non_integer_entries_rejected(self, entry):
        # A float once convolved to (1, 3.5, 8.5, ...) and passed the checks.
        with pytest.raises(ValueError, match="integers"):
            HorizontalBettiSequence(1, [1, entry, 4, 0, 1])

    @pytest.mark.parametrize("n", [0.5, 1.0, -1, "1", None, True])
    def test_rank_must_be_a_nonnegative_int(self, n):
        # n = 0.5 once passed with 4n + 1 = 3 values, and the convolution
        # then raised TypeError.
        with pytest.raises(ValueError, match="rank must be a nonnegative int"):
            HorizontalBettiSequence(n, [1, 2, 3])

    def test_values_kept_as_a_tuple(self):
        # A list is stored as a tuple, so the sequence equals and hashes like
        # one built from a tuple.
        from_list = HorizontalBettiSequence(1, [1, 0, 4, 0, 1])
        from_tuple = HorizontalBettiSequence(1, (1, 0, 4, 0, 1))
        assert from_list.values == (1, 0, 4, 0, 1)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


class TestDivisibility:
    def test_torus_passes(self):
        b = betti_from_horizontal(HorizontalBettiSequence.from_sector_counts(ModelDims(1)))
        report = check_divisibility(b)
        assert report.passed
        assert report.items[0].detail.startswith("sum=8")

    def test_quotient_passes(self):
        report = check_divisibility((1, 3, 7, 13, 13, 7, 3, 1))
        assert report.passed

    def test_negative_control(self):
        report = check_divisibility((1, 2, 0, 0))
        assert not report.passed
        assert not report.items[0].ok


class TestBounds:
    def test_quotient_margins(self):
        report = check_bounds((1, 3, 7, 13, 13, 7, 3, 1))
        assert report.passed
        assert [item.margin for item in report.items] == [0, 0, 1, 3]

    def test_torus_passes(self):
        b = betti_from_horizontal(HorizontalBettiSequence.from_sector_counts(ModelDims(1)))
        assert check_bounds(b).passed

    def test_negative_control(self):
        report = check_bounds((1, 3, 5, 13, 13, 5, 3, 1))
        assert not report.passed
        failing = [item for item in report.items if not item.ok]
        assert failing[0].name == "b2 >= 6"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_checks_degrees_up_to_2n_plus_1(self, n):
        # The lower half of the 4n + 4 numbers: k = 0 .. 2n + 1.
        b = betti_from_horizontal(HorizontalBettiSequence.from_sector_counts(ModelDims(n)))
        names = [item.name for item in check_bounds(b).items]
        assert len(names) == 2 * n + 2 == min(2 * n + 1, len(b) - 1) + 1
        assert names[-1] == f"b{2 * n + 1} >= {comb(2 * n + 3, 2)}"


class TestHorizontalConstraints:
    def test_quotient_passes(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 0, 4, 0, 1)))
        assert report.passed

    def test_divisible_odd_entry_passes(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 4, 6, 4, 1)))
        divisibility_items = [i for i in report.items if "divisible" in i.name]
        assert all(i.ok for i in divisibility_items)

    def test_negative_control(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 2, 6, 4, 1)))
        assert not report.passed

    def test_palindromy_is_warning_only(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 0, 4, 0, 2)))
        assert report.passed
        palindromy = next(i for i in report.items if i.name == "bh palindromic")
        assert palindromy.warning and not palindromy.ok


class TestPowerProductRank:
    def test_rank_one_k_one(self):
        result = s_k_rank(1, 1)
        assert result.rank == 3 == result.expected
        assert result.passed

    def test_rank_two_k_two(self):
        result = s_k_rank(2, 2)
        assert result.rank == 6 == result.expected

    def test_scalar_case(self):
        assert s_k_rank(1, 0).rank == 1

    def test_k_above_rank_rejected(self):
        with pytest.raises(ValueError):
            s_k_rank(1, 2)

    def test_leading_blades_distinct_and_predicted(self):
        for n in range(4):
            for k in range(n + 1):
                result = s_k_rank(n, k)
                assert isinstance(result, PowerProductRank)
                assert result.leading_distinct
                assert result.leading_match_predicted

    def test_first_leading_blade_is_xi1_power(self):
        # Enumeration starts at (k, 0, 0): the pure power of the first form.
        result = s_k_rank(1, 1)
        assert result.leading_blades[0] == (0, 1)

    def test_zero_product_records_empty_blade_and_fails(self, monkeypatch):
        # Powers run (2,0,0), (1,1,0), (1,0,1), (0,2,0), ...: (1,0,1) is third.
        real = betti._xi_power_product
        monkeypatch.setattr(
            betti,
            "_xi_power_product",
            lambda dims, powers: Multivector() if powers == (1, 0, 1) else real(dims, powers),
        )
        result = s_k_rank(2, 2)
        assert result.leading_blades[2] == ()
        assert all(lead != () for i, lead in enumerate(result.leading_blades) if i != 2)
        assert result.leading_match_predicted is False
        assert result.passed is False

    def test_to_dict_keys(self):
        assert list(s_k_rank(1, 1).to_dict()) == [
            "n", "k", "rank", "expected", "leading_distinct", "leading_match_predicted", "passed"
        ]


class TestTorusConsistencyLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_counts_satisfy_all_constraints(self, n):
        dims = ModelDims(n)
        bh = HorizontalBettiSequence.from_sector_counts(dims)
        b = betti_from_horizontal(bh)
        assert b == tuple(comb(4 * n + 3, p) for p in range(4 * n + 4))
        assert check_divisibility(b).passed
        assert check_bounds(b).passed
        report = check_horizontal_constraints(bh)
        assert report.passed
        assert next(i for i in report.items if i.name == "bh palindromic").ok


class TestPassedIsPlainBool:
    """``passed`` is a bool on every result type, never a bound method that
    ``if report.passed:`` would read as true."""

    def test_constraint_report(self):
        assert check_divisibility((1, 2, 0, 0)).passed is False

    def test_cross_check_report(self):
        result = HomologyResult((1, 3, 7, 13, 13, 7, 3, 2), (), (), "integer")
        assert cross_check(result, invariant_cohomology_oracle()).passed is False

    def test_module_report(self):
        assert verify_module(1, corrupt_generator="K3").passed is False

    def test_power_product_rank(self):
        result = dataclasses.replace(s_k_rank(1, 1), rank=2)
        assert result.passed is False

    def test_identity_report(self):
        dims = ModelDims(1)
        alpha, index = next(
            (alpha, index)
            for alpha, entries in sorted(PhiStarTable.build(dims).entries.items())
            for index, entry in enumerate(entries)
            if entry is not None
        )
        reports = verify_identities(1, PhiStarTable.build(dims).with_sign_flip(alpha, index))
        failed = [r for r in reports if not r.passed]
        assert failed
        assert all(r.passed is False for r in failed)
