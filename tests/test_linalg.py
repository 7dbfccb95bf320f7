"""Sparse span solve and rank against the dense Gauss-Jordan reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cosym3.linalg import rank, solve_in_span, sparse_rank


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


values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
sparse_vectors = st.dictionaries(st.integers(0, 5), values, max_size=4)


def weights(count):
    return st.lists(values, min_size=count, max_size=count)


@st.composite
def systems(draw):
    """Small systems with duplicate and dependent vectors and both kinds of target."""
    vectors = draw(st.lists(sparse_vectors, max_size=4))
    for _ in range(draw(st.integers(0, 3)) if vectors else 0):
        if draw(st.booleans()):
            derived = dict(draw(st.sampled_from(vectors)))
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
            assert combine(vectors, coeffs) == {k: v for k, v in target.items() if v}

    def test_empty_vector_list(self):
        assert solve_in_span([], {}) == []
        assert solve_in_span([], {0: Fraction(1)}) is None

    def test_later_duplicate_gets_zero(self):
        v = {0: Fraction(2), 3: Fraction(-1)}
        assert solve_in_span([v, dict(v)], {0: Fraction(4), 3: Fraction(-2)}) == [2, 0]


class TestSparseRank:
    @given(st.lists(sparse_vectors, max_size=6))
    def test_matches_dense_rank(self, vectors):
        dense = [[vec.get(k, 0) for k in range(6)] for vec in vectors]
        assert sparse_rank(vectors) == rank(dense)
