"""Betti arithmetic: the Reeb convolution, constraints, power-product ranks."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosym3.betti import (
    HorizontalBettiSequence,
    PowerProductRank,
    betti_from_horizontal,
    check_bounds,
    check_divisibility,
    check_horizontal_constraints,
    s_k_rank,
)
from cosym3.exterior import ModelDims


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
        b = betti_from_horizontal(HorizontalBettiSequence(1, tuple(values)))
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
        ha = HorizontalBettiSequence(1, tuple(a))
        hb = HorizontalBettiSequence(1, tuple(b))
        hsum = HorizontalBettiSequence(1, tuple(x + y for x, y in zip(a, b)))
        assert betti_from_horizontal(hsum) == tuple(
            x + y for x, y in zip(betti_from_horizontal(ha), betti_from_horizontal(hb))
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            HorizontalBettiSequence(1, (1, 0, 4))


class TestDivisibility:
    def test_torus_passes(self):
        b = betti_from_horizontal(HorizontalBettiSequence.from_sector_counts(ModelDims(1)))
        report = check_divisibility(b)
        assert report.passed()
        assert report.items[0].detail.startswith("sum=8")

    def test_quotient_passes(self):
        report = check_divisibility((1, 3, 7, 13, 13, 7, 3, 1))
        assert report.passed()

    def test_negative_control(self):
        report = check_divisibility((1, 2, 0, 0))
        assert not report.passed()
        assert not report.items[0].ok


class TestBounds:
    def test_quotient_margins(self):
        report = check_bounds((1, 3, 7, 13, 13, 7, 3, 1), 1)
        assert report.passed()
        assert [item.margin for item in report.items] == [0, 0, 1, 3]

    def test_torus_passes(self):
        b = betti_from_horizontal(HorizontalBettiSequence.from_sector_counts(ModelDims(1)))
        assert check_bounds(b, 1).passed()

    def test_negative_control(self):
        report = check_bounds((1, 3, 5, 13, 13, 5, 3, 1), 1)
        assert not report.passed()
        failing = [item for item in report.items if not item.ok]
        assert failing[0].name == "b2 >= 6"


class TestHorizontalConstraints:
    def test_quotient_passes(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 0, 4, 0, 1)))
        assert report.passed()

    def test_divisible_odd_entry_passes(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 4, 6, 4, 1)))
        divisibility_items = [i for i in report.items if "divisible" in i.name]
        assert all(i.ok for i in divisibility_items)

    def test_negative_control(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 2, 6, 4, 1)))
        assert not report.passed()

    def test_palindromy_is_warning_only(self):
        report = check_horizontal_constraints(HorizontalBettiSequence(1, (1, 0, 4, 0, 2)))
        assert report.passed()
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


class TestTorusConsistencyLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_counts_satisfy_all_constraints(self, n):
        dims = ModelDims(n)
        bh = HorizontalBettiSequence.from_sector_counts(dims)
        b = betti_from_horizontal(bh)
        assert b == tuple(comb(4 * n + 3, p) for p in range(4 * n + 4))
        assert check_divisibility(b).passed()
        assert check_bounds(b, n).passed()
        report = check_horizontal_constraints(bh)
        assert report.passed()
        assert next(i for i in report.items if i.name == "bh palindromic").ok
