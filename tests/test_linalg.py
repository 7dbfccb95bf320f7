"""The sparse elimination core against dense and Leibniz references."""

import copy
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosym3 import linalg
from cosym3.linalg import (
    det,
    rank,
    smith_normal_form,
    solve_in_span,
    sort_with_sign,
    sparse_rank,
)


def dense_rank(rows):
    """The dense Gauss-Jordan ``rank`` used before the sparse core."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def dense_det(rows):
    """The dense Gaussian ``det`` used before the sparse core."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return result


def permutation_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_det(rows):
    """Sum over permutations of signed products, with no elimination at all."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(permutation_sign(perm))
        for row, col in enumerate(perm):
            term *= rows[row][col]
        total += term
    return total


def dense_solve_in_span(vectors, target):
    """The dense elimination ``solve_in_span`` used before the sparse core.

    One augmented row per coordinate; columns are eliminated in order, so a
    column without a pivot (a vector in the span of the earlier ones) gets
    coefficient 0.
    """
    keys = sorted({k for v in vectors for k in v} | set(target))
    width = len(vectors)
    rows = [
        [Fraction(v.get(key, 0)) for v in vectors] + [Fraction(target.get(key, 0))]
        for key in keys
    ]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][width]:
            return None
    coeffs = [Fraction(0)] * width
    for row_idx, col in enumerate(pivots):
        coeffs[col] = rows[row_idx][width]
    return coeffs


def combine(vectors, coeffs):
    out: dict = {}
    for vec, c in zip(vectors, coeffs):
        for key, val in vec.items():
            out[key] = out.get(key, 0) + c * val
    return {k: v for k, v in out.items() if v}


# Plain ints too: the core must take them as given and divide them exactly.
# The values are the ints in [-3, 3] and every Fraction there with
# denominator at most 3, listed so that a draw is one choice.  The ints are
# listed four times, so that about half the draws are plain ints.
INTS = list(range(-3, 4))
FRACTIONS = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)})
values = st.sampled_from(INTS * 4 + FRACTIONS)
sparse_vectors = st.dictionaries(st.integers(0, 5), values, max_size=4)


def weights(count):
    return st.lists(values, min_size=count, max_size=count)


@st.composite
def systems(draw):
    """Small systems with duplicate and dependent vectors and both kinds of target."""
    vectors = draw(st.lists(sparse_vectors, max_size=4))
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        if draw(st.booleans()):
            derived = dict(vectors[draw(st.integers(0, len(vectors) - 1))])
        else:
            derived = combine(vectors, draw(weights(len(vectors))))
        vectors.insert(draw(st.integers(0, len(vectors))), derived)
    in_span = draw(st.booleans())
    if in_span:
        target = combine(vectors, draw(weights(len(vectors))))
    else:
        target = draw(sparse_vectors)
    return vectors, target, in_span


class TestSolveInSpan:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_matches_dense_reference(self, system):
        vectors, target, in_span = system
        coeffs = solve_in_span(vectors, target)
        assert coeffs == dense_solve_in_span(vectors, target)
        assert coeffs is not None or not in_span
        if coeffs is not None:
            assert len(coeffs) == len(vectors)
            assert all(type(c) in (int, Fraction) for c in coeffs)
            assert combine(vectors, coeffs) == {k: v for k, v in target.items() if v}

    def test_empty_vector_list(self):
        assert solve_in_span([], {}) == []
        assert solve_in_span([], {0: Fraction(1)}) is None

    def test_later_duplicate_gets_zero(self):
        v = {0: Fraction(2), 3: Fraction(-1)}
        assert solve_in_span([v, dict(v)], {0: Fraction(4), 3: Fraction(-2)}) == [2, 0]

    def test_int_division_is_exact(self):
        coeffs = solve_in_span([{0: 2}], {0: 1})
        assert coeffs == [Fraction(1, 2)]
        assert type(coeffs[0]) is Fraction

    def test_integral_solve_keeps_ints(self):
        # A pivot that divides the entry exactly gives an int quotient.
        coeffs = solve_in_span([{0: 1}, {1: 2}], {0: 3, 1: 4})
        assert coeffs == [3, 2]
        assert [type(c) for c in coeffs] == [int, int]
        # det stays a Fraction even when every quotient is an int.
        assert type(det([[1, 2], [3, 4]])) is Fraction
        assert type(det([[2, 0], [0, 3]])) is Fraction


class TestSparseRank:
    @given(st.lists(sparse_vectors, max_size=6))
    def test_matches_dense_rank(self, vectors):
        dense = [[vec.get(k, 0) for k in range(6)] for vec in vectors]
        assert sparse_rank(vectors) == dense_rank(dense)


ROW_KINDS = ["keep", "keep", "zero", "duplicate", "dependent"]


@st.composite
def dense_matrices(draw, square=False):
    """Small dense matrices with dependent, duplicate and zero rows mixed in."""
    size = draw(st.integers(0, 5))
    ncols = size if square else draw(st.integers(0, 5))
    nrows = size if square else draw(st.integers(0, 5))
    # One flat draw of the entries, cut into rows.
    flat = draw(st.lists(values, min_size=nrows * ncols, max_size=nrows * ncols))
    rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=nrows, max_size=nrows))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[draw(st.integers(0, nrows - 1))])
        elif kind == "dependent":
            coeffs = draw(weights(len(rows)))
            rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    return rows


class TestRank:
    @settings(max_examples=200, deadline=None)
    @given(dense_matrices())
    def test_matches_dense_reference(self, rows):
        assert rank(rows) == dense_rank(rows)

    def test_empty_and_zero_column_matrices(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0
        assert rank([[0, 0], [0, 0]]) == 0

    def test_fraction_entries(self):
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]) == 2


class TestDet:
    @settings(max_examples=200, deadline=None)
    @given(dense_matrices(square=True))
    def test_matches_dense_and_leibniz(self, rows):
        expected = leibniz_det(rows)
        assert det(rows) == expected
        assert dense_det(rows) == expected
        assert isinstance(det(rows), Fraction)

    @settings(max_examples=100, deadline=None)
    @given(dense_matrices(square=True), st.data())
    def test_row_permutation_multiplies_by_sign(self, rows, data):
        perm = data.draw(st.permutations(range(len(rows))))
        permuted = [rows[i] for i in perm]
        assert det(permuted) == permutation_sign(perm) * det(rows)
        assert det(permuted) == leibniz_det(permuted)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 0, 0], [1, 2, 3], [4, 5, 6]]) == 0

    @pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["int", "Fraction"])
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["zero", "repeat", "combination"])
    def test_singular_at_any_row(self, monkeypatch, scale, position, kind):
        # The dependent row goes in at ``position``.  The elimination stops at
        # the first row that reduces to zero: a zero row at once, a repeat of
        # its neighbour at the later copy, a combination of the other four
        # rows at the last row.
        rows = [[scale * v for v in row] for row in
                ([2, 1, 0, 3, 1], [1, 0, 4, 1, 2], [0, 5, 1, 2, 0], [3, 0, 0, 1, 1])]
        dependent, stop = {
            "zero": ([0] * 5, position),
            "repeat": (list(rows[max(position - 1, 0)]), max(position, 1)),
            "combination": ([a - 2 * b + c - d for a, b, c, d in zip(*rows)], 4),
        }[kind]
        rows.insert(position, dependent)
        reduced = []  # the pivot count at each ``_reduce`` call

        def counted(cur, pivots, combo=None):
            reduced.append(len(pivots))
            return real(cur, pivots, combo)

        real = linalg._reduce
        monkeypatch.setattr(linalg, "_reduce", counted)
        result = det(rows)
        assert type(result) is Fraction
        assert result == 0 == leibniz_det(rows)
        assert reduced == list(range(stop + 1))

    def test_empty_is_one(self):
        assert det([]) == 1

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            det([[1, 2], [3]])


class TestSmithNormalFormWithoutUnits:
    """With no +-1 entry the pivot is the first entry of least magnitude; the
    scan stops at the first +-2, since no smaller nonzero integer is left."""

    # (matrix, invariant factors, recorded unit-pivot columns)
    CASES = [
        ([[4, 2], [2, 6]], [2, 10], set()),
        # The only unit comes from row operations alone, so its column is recorded.
        ([[2], [3]], [1], {0}),
        ([[2, 0], [3, 0]], [1], {0}),
        ([[3, 6], [9, 3]], [3, 15], set()),  # no 2: the whole matrix is scanned
        ([[6, 4, 0], [0, -2, 2], [2, 0, 6]], [2, 2, 14], set()),
        ([[4, 6, 9], [3, 0, 2], [-2, 4, 0]], [1, 1, 52], set()),
        ([[6, 9, 3], [4, 0, 8], [0, 3, 2]], [1, 1, 180], set()),
        ([[4, 4, 0], [0, 6, 6], [2, 0, 2]], [2, 2, 24], set()),
        ([[-2, 2, 0, 0], [0, -2, 2, 0], [0, 0, -2, 2], [2, 0, 0, -2]], [2, 2, 2], set()),
    ]

    @pytest.mark.parametrize("matrix, factors, units", CASES, ids=[str(c[0]) for c in CASES])
    def test_factors_and_pivots(self, matrix, factors, units):
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        pivots = set()
        assert smith_normal_form(rows, pivots) == factors
        assert pivots == units
        assert smith_normal_form(rows) == factors
        assert len(factors) == rank(matrix)
        if len(matrix) == len(matrix[0]) == len(factors):
            assert math.prod(factors) == abs(leibniz_det(matrix))


class TestCallerInputs:
    """The core reduces copies of its inputs: explicit zero entries are dropped,
    and no caller's vector or target is changed or kept as a pivot."""

    # v2 = 2 v0 + v1, v3 is zero, and the target is v0 + 2 v1.
    VECTORS = [
        {0: 2, 1: 0, 3: -1},
        {0: 0, 1: 1, 2: 3},
        {0: 4, 1: 1, 2: 3, 3: -2, 5: 0},
        {2: 0},
    ]
    TARGET = {0: 2, 1: 2, 2: 6, 3: -1, 4: 0}

    def test_explicit_zero_entries(self):
        vectors = copy.deepcopy(self.VECTORS)
        nonzero = [{k: v for k, v in vec.items() if v} for vec in vectors]
        assert sparse_rank(vectors) == sparse_rank(nonzero) == 2
        assert solve_in_span(vectors, dict(self.TARGET)) == [1, 2, 0, 0]
        assert solve_in_span(nonzero, {k: v for k, v in self.TARGET.items() if v}) == [1, 2, 0, 0]
        assert solve_in_span(vectors, {4: 0}) == [0, 0, 0, 0]
        assert solve_in_span(vectors, {5: 1, 0: 0}) is None
        rows = [[0, 2, 0], [0, 0, 0], [1, 0, 0]]
        assert rank(rows) == 2 and det(rows) == 0
        assert det([[0, 2, 0], [0, 0, 3], [1, 0, 0]]) == 6
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_rank_pivots_are_the_echelon_leads(self):
        # v0 leads at 3; v1 at 2; v2 = 2 v0 + v1 adds no lead; v3 is zero.
        pivots = set()
        assert sparse_rank(copy.deepcopy(self.VECTORS), pivots) == 2
        assert pivots == {3, 2}
        assert sparse_rank([{0: 1, 2: 1}, {2: 1}], pivots) == 2
        assert pivots == {3, 2, 0}  # added to, never cleared

    @pytest.mark.parametrize("zeros", [True, False])
    def test_inputs_are_unchanged(self, zeros):
        # Without zero entries a vector is copied whole; with them, filtered.
        vectors = [{k: v for k, v in vec.items() if v or zeros} for vec in self.VECTORS]
        target = dict(self.TARGET)
        rows = [[0, 2, 1], [0, 0, 0], [1, 0, 2]]
        before = copy.deepcopy((vectors, target, rows))
        sparse_rank(vectors)
        solve_in_span(vectors, target)
        solve_in_span(vectors, {5: 1})
        rank(rows)
        det(rows)
        assert (vectors, target, rows) == before
        assert all(list(v.items()) == list(b.items()) for v, b in zip(vectors, before[0]))

    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_repeated_solves_agree(self, system):
        # A pivot that aliased a caller's dict would be reduced in place by the
        # first solve, and the second would start from other vectors.
        vectors, target, _ = system
        before = copy.deepcopy((vectors, target))
        first = solve_in_span(vectors, target)
        assert solve_in_span(vectors, target) == first
        assert sparse_rank(vectors) == sparse_rank(vectors)
        assert (vectors, target) == before


class TestSortWithSign:
    @given(st.lists(st.integers(-20, 20), unique=True, max_size=8))
    def test_matches_permutation_sign(self, items):
        sign, ordered = sort_with_sign(items)
        assert ordered == tuple(sorted(items))
        # items[i] lands at position perm[i] of the sorted tuple.
        perm = [ordered.index(x) for x in items]
        assert sign == permutation_sign(perm)

    def test_fixed_cases(self):
        assert sort_with_sign(()) == (1, ())
        assert sort_with_sign((3, 1, 2)) == (1, (1, 2, 3))
        assert sort_with_sign([2, 1]) == (-1, (1, 2))
