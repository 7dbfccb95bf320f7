"""The twisted seven-torus quotient: cells, boundaries, homology, oracle."""

import dataclasses
import itertools
import math
import random
import re
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosym3 import cellular
from cosym3.cellular import (
    FLAT_AXES,
    QUATERNION_AXES,
    ComplexConsistencyError,
    TwistMap,
    boundary,
    build_complex,
    cross_check,
    exterior_power_matrix,
    homology,
    invariant_cohomology_oracle,
    unit_translation_twist,
)
from cosym3.betti import HorizontalBettiSequence, betti_from_horizontal
from cosym3.exterior import Basis
from cosym3.linalg import det, rank, smith_normal_form, sort_with_sign, sparse_rank
from helpers import FINGERPRINTS, fingerprint
from test_linalg import leibniz_det

IDENTITY = TwistMap(((1, 1), (2, 1), (3, 1), (4, 1))).matrix()
# The paper's twist, the identity, -id and an orientation-reversing flip.
SAMPLE_TWISTS = (
    unit_translation_twist(),
    TwistMap(((1, 1), (2, 1), (3, 1), (4, 1))),
    TwistMap(((1, -1), (2, -1), (3, -1), (4, -1))),
    unit_translation_twist().with_sign_flip(3),
)


def all_b4_twists():
    return [
        TwistMap(tuple(zip(perm, signs)))
        for perm in itertools.permutations((1, 2, 3, 4))
        for signs in itertools.product((1, -1), repeat=4)
    ]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _twist_cell_reference(cell, twist):
    """(image, sign) of a tuple cell: quaternion axes through the twist,
    flat axes fixed, then sorted back into ascending order."""
    labels = []
    sign = 1
    for axis in cell:
        if axis in QUATERNION_AXES:
            img, s = twist.images[axis - 1]
            labels.append(img)
            sign *= s
        else:
            labels.append(axis)
    parity, image = sort_with_sign(labels)
    return image, sign * parity


def _boundary_reference(cell, twist):
    """The boundary on tuples: per flat axis at position pos, the twisted
    face at 1 minus the face at 0, with sign (-1)^pos."""
    chain = {}
    for pos, axis in enumerate(cell):
        if axis in FLAT_AXES:
            outer = -1 if pos % 2 else 1
            rest = cell[:pos] + cell[pos + 1 :]
            image, sign = _twist_cell_reference(rest, twist)
            for face, value in ((image, outer * sign), (rest, -outer)):
                new = chain.get(face, 0) + value
                if new:
                    chain[face] = new
                else:
                    del chain[face]
    return chain


class TestTwistMap:
    def test_right_multiplication_images(self):
        tw = TwistMap.right_multiplication_by_i()
        assert tw.images[0] == (2, 1)
        assert tw.images[2] == (4, -1)  # j * i = -k

    def test_unit_translation_sends_j_to_k(self):
        tw = unit_translation_twist()
        assert tw.images[2] == (4, 1)

    def test_row_over_cube_slots(self):
        tw = unit_translation_twist()
        assert tw.row == (None, *tw.images)
        assert tw.row[3] == (4, 1)  # slot 3 is the j axis
        # The row is derived, not a field: equality, hash and repr see images only.
        assert tw == TwistMap(tw.images) and hash(tw) == hash(TwistMap(tw.images))
        assert "row" not in repr(tw)

    def test_order_four(self):
        for tw in (unit_translation_twist(), TwistMap.right_multiplication_by_i()):
            powers = [tw.matrix()]
            for _ in range(3):
                powers.append(matmul(tw.matrix(), powers[-1]))
            assert [p == IDENTITY for p in powers] == [False, False, False, True]

    def test_inverse(self):
        tw = TwistMap.right_multiplication_by_i()
        assert matmul(tw.matrix(), tw.inverse().matrix()) == IDENTITY
        assert tw.inverse() == unit_translation_twist()

    def test_rejects_non_signed_permutations(self):
        with pytest.raises(ValueError, match=r"\(1, 1\) of axis 2 repeats axis 1"):
            TwistMap(((1, 1), (1, 1), (3, 1), (4, 1)))
        for images in (
            ((1, 1), (2, 1), (3, 1)),
            ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1)),
            ((1, 1), (2, 1), (3, 1), (5, 1)),
            ((0, 1), (2, 1), (3, 1), (4, 1)),
            ((1, 1), (2, 2), (3, 1), (4, 1)),
            ((1, 1), (2, 1), (3, 0), (4, 1)),
        ):
            with pytest.raises(ValueError):
                TwistMap(images)

    def test_rejects_bare_axes(self):
        with pytest.raises(ValueError, match="image 1 of axis 1 is not an"):
            TwistMap((1, 2, 3, 4))

    def test_rejects_three_entry_images(self):
        with pytest.raises(ValueError, match=r"image \(2, 1, 1\) of axis 1 is not an"):
            TwistMap(((2, 1, 1), (1, 1), (3, 1), (4, 1)))

    def test_rejects_float_signs(self):
        with pytest.raises(ValueError, match=r"image \(2, 1.0\) of axis 1 is not an"):
            TwistMap(((2, 1.0), (1, 1), (3, 1), (4, 1)))

    def test_rejects_bool_signs_and_images(self):
        with pytest.raises(ValueError, match=r"image \(2, True\) of axis 1 is not an"):
            TwistMap(((2, True), (1, 1), (3, 1), (4, 1)))
        with pytest.raises(ValueError, match=r"image \(True, 1\) of axis 1 is not an"):
            TwistMap(((True, 1), (2, 1), (3, 1), (4, 1)))

    def test_list_images_stored_as_tuple(self):
        images = [(2, 1), (1, -1), (4, -1), (3, 1)]
        tw = TwistMap(images)
        assert type(tw.images) is tuple
        assert tw == TwistMap.right_multiplication_by_i()
        assert hash(tw) == hash(TwistMap.right_multiplication_by_i())

    def test_determinant_magnitude(self):
        assert abs(det(unit_translation_twist().matrix())) == 1

    def test_power(self):
        tw = unit_translation_twist()
        m = tw.matrix()
        cube = matmul(m, matmul(m, m))
        assert cube == tw.inverse().matrix()
        assert matmul(m, cube) == IDENTITY


class TestBoundary:
    def test_one_cells_are_cycles(self):
        for axis in range(1, 8):
            assert boundary((axis,)) == {}

    def test_pure_torus_two_cell(self):
        assert boundary((1, 2)) == {}

    def test_twisted_two_cell(self):
        # d({3,5}) = {3} - {4}: crossing the flat direction turns j into k.
        assert boundary((3, 5)) == {(3,): 1, (4,): -1}

    def test_rejects_non_cells(self):
        for cell in ((1, 5, 8), (0, 5), (5, 3)):
            with pytest.raises(ValueError, match="is not a cell of the unit 7-cube"):
                boundary(cell)

    def test_degree_values(self):
        assert boundary((3, 5)).get((3,), 0) == 1
        assert boundary((3, 5)).get((4,), 0) == -1
        assert boundary((1, 2)).get((1,), 0) == 0


class TestCubeStructure:
    """The cells are one blade basis; only flat directions carry faces."""

    CUBE = Basis(range(1, 8))

    def test_faces_drop_one_flat_axis(self):
        faces = 0
        for twist in SAMPLE_TWISTS:
            for k in self.CUBE.degrees():
                for cell in self.CUBE.blades(k):
                    allowed = set()
                    for axis in set(cell) & set(FLAT_AXES):
                        rest = tuple(a for a in cell if a != axis)
                        allowed |= {rest, _twist_cell_reference(rest, twist)[0]}
                    chain = boundary(cell, twist)
                    assert set(chain) <= allowed, (twist, cell)
                    faces += len(chain)
        assert faces > 0

    def test_boundary_matches_tuple_reference(self):
        # Every (cell, twist) pair of the 384 B4 twists, chain order included;
        # the twist changes on every call, so no call reuses the one before.
        twists = all_b4_twists()
        for cell in (cell for k in self.CUBE.degrees() for cell in self.CUBE.blades(k)):
            for twist in twists:
                chain = boundary(cell, twist)
                assert list(chain.items()) == list(_boundary_reference(cell, twist).items()), (
                    twist, cell
                )

    # ``boundary`` writes each face once, with no accumulation: the faces of
    # two flat bits differ in their flat part, and the two faces of one bit
    # meet only when the twist fixes the cell's quaternion part q.

    def test_flat_one_cell_pair_cancels(self):
        # Both faces of a flat 1-cell are the empty cell, and every twist fixes it with +1.
        for twist in all_b4_twists():
            assert twist.face_images[0] == (1, 0)
            for axis in FLAT_AXES:
                assert boundary((axis,), twist) == {}, (twist, axis)

    def test_top_quaternion_pair_meets_by_orientation(self):
        # q = (1, 2, 3, 4) is fixed by every twist, with the sign of its determinant:
        # the pair cancels when the twist keeps orientation and leaves -2 when it reverses it.
        kept = reversed_ = 0
        for twist in all_b4_twists():
            chain = boundary((1, 2, 3, 4, 5), twist)
            if det(twist.matrix()) == 1:
                assert chain == {}, twist
                kept += 1
            else:
                assert list(chain.items()) == [((1, 2, 3, 4), -2)], twist
                reversed_ += 1
        assert kept == reversed_ == 192

    def test_meeting_and_apart_pairs_keep_order(self):
        flip_4 = TwistMap(((1, 1), (2, 1), (3, 1), (4, -1)))
        negate_3 = TwistMap(((2, 1), (1, 1), (3, -1), (4, 1)))
        paper = unit_translation_twist()
        cases = [
            # Meeting pairs of three flat bits: three keys, one per bit, in bit order.
            ((1, 2, 3, 4, 5, 6, 7), flip_4,
             [((1, 2, 3, 4, 6, 7), -2), ((1, 2, 3, 4, 5, 7), 2), ((1, 2, 3, 4, 5, 6), -2)]),
            # The paper twist fixes j ^ k with +1, so both pairs cancel.
            ((3, 4, 5, 6), paper, []),
            ((3, 4, 5, 6), negate_3, [((3, 4, 6), -2), ((3, 4, 5), 2)]),
            ((3, 5, 6), negate_3, [((3, 6), 2), ((3, 5), -2)]),
            # Pairs that stay apart: the face at 1, then the face at 0, per bit.
            ((3, 5, 6), paper, [((4, 6), -1), ((3, 6), 1), ((4, 5), 1), ((3, 5), -1)]),
        ]
        for cell, twist, expected in cases:
            chain = boundary(cell, twist)
            assert list(chain.items()) == expected, (cell, twist)
            assert chain == _boundary_reference(cell, twist)

    def test_pairs_of_a_cell_all_meet_or_none(self):
        # Every flat bit of a cell leaves the same q, so one chain never mixes
        # a meeting pair with one that stays apart: it has 2, 1 or 0 faces per bit.
        for twist in all_b4_twists():
            for cell in (cell for k in self.CUBE.degrees() for cell in self.CUBE.blades(k)):
                bits = len(set(cell) & set(FLAT_AXES))
                q = tuple(a for a in cell if a in QUATERNION_AXES)
                image, sign = _twist_cell_reference(q, twist)
                expected = 2 * bits if image != q else (bits if sign < 0 else 0)
                assert len(boundary(cell, twist)) == expected, (twist, cell)

    def test_quaternion_cells_are_cycles(self):
        for twist in SAMPLE_TWISTS:
            for k in range(len(QUATERNION_AXES) + 1):
                for cell in itertools.combinations(QUATERNION_AXES, k):
                    assert boundary(cell, twist) == {}, (twist, cell)

    def test_cells_are_the_blade_basis(self):
        # Every twist's complex reads its cells from the one cube Basis.
        cube = build_complex().basis
        assert [cube.blades(k) for k in cube.degrees()] == [
            self.CUBE.blades(k) for k in self.CUBE.degrees()
        ]
        for twist in SAMPLE_TWISTS:
            assert build_complex(twist).basis is cube

    def test_consistency_error_names_cells(self, monkeypatch):
        real = cellular.boundary

        def flipped(cell, twist):
            chain = real(cell, twist)
            if cell == (3, 5):
                chain[(4,)] = -chain[(4,)]
            return chain

        monkeypatch.setattr(cellular, "boundary", flipped)
        with pytest.raises(ComplexConsistencyError) as caught:
            build_complex()
        # The first 3-cell with (3, 5) as a face; its d^2 lands on the 1-cell (4,).
        assert caught.value.cell == (3, 5, 6)
        assert caught.value.chain == {(4,): -2}
        # The constructor checks d^2 = 0, not build_complex.
        assert caught.traceback[-1].name == "__post_init__"


class TestComplex:
    def test_cell_counts(self):
        assert build_complex().cell_counts() == (1, 7, 21, 35, 35, 21, 7, 1)

    def test_boundary_squared_zero_as_matrices(self):
        # Compose the position-keyed columns: sum_i d_k[j][i] * d_{k-1}[i] = 0.
        multiplied = 0
        for twist in SAMPLE_TWISTS:
            cx = build_complex(twist)
            for k in range(2, 8):
                lower = cx.boundaries[k - 1]
                assert len(lower) == cx.cell_counts()[k - 1]
                for j, column in enumerate(cx.boundaries[k]):
                    product = {}
                    for i, value in column.items():
                        for m, inner in lower[i].items():
                            product[m] = product.get(m, 0) + value * inner
                            multiplied += 1
                    assert not any(product.values()), (twist, k, j)
        assert multiplied > 0

    def test_second_boundary_nonzero(self):
        cx = build_complex()
        assert len(smith_normal_form(cx.boundaries[2])) >= 1

    def test_triples_export(self):
        cx = build_complex()
        triples = cx.triples(2)
        assert triples
        assert all(len(t) == 3 and t[2] for t in triples)
        # Row-major: strictly increasing (row, col).
        assert all(a[:2] < b[:2] for a, b in zip(triples, triples[1:]))
        rebuilt = [{} for _ in range(cx.cell_counts()[2])]
        for row, col, value in triples:
            rebuilt[col][row] = value
        assert rebuilt == cx.boundaries[2]


def sparse_rows(matrix):
    """The rows of a dense matrix as sparse dicts keyed by column index."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def determinantal_divisors(matrix):
    """gcd of all k x k minors for k = 1, 2, ..., from Leibniz determinants."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    divisors = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                minor = [[matrix[r][c] for c in cols] for r in rows]
                g = math.gcd(g, int(leibniz_det(minor)))
        divisors.append(g)
    return divisors


@st.composite
def integer_matrices(draw):
    """Up to 4 x 5, all entries from a unit-heavy or from a non-unit alphabet."""
    alphabet = draw(st.sampled_from([(-1, 0, 0, 1, 1), (0, 2, -2, 3, -4, 6, 9)]))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    entry = st.sampled_from(alphabet)
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


class TestSmithNormalForm:
    @given(integer_matrices())
    @settings(deadline=None, max_examples=200)
    def test_products_are_determinantal_divisors(self, matrix):
        # d1 ... dk is the gcd of the k x k minors, and 0 beyond the rank.
        factors = smith_normal_form(sparse_rows(matrix))
        divisors = determinantal_divisors(matrix)
        assert [math.prod(factors[:k]) for k in range(1, len(factors) + 1)] == (
            divisors[: len(factors)]
        )
        assert all(d == 0 for d in divisors[len(factors) :])

    def test_pinned_cases(self):
        example = sparse_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(example) == [2, 2, 156]
        assert smith_normal_form(sparse_rows([])) == []
        assert smith_normal_form(sparse_rows([[]])) == []
        assert smith_normal_form(sparse_rows([[2, 0, 4], [6, 0, 3], [4, 0, 8]])) == [1, 18]
        # Unit pivots alone clear this one: no row or column is left over.
        assert smith_normal_form(sparse_rows([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])) == [1, 1]

    def test_two_by_two(self):
        assert smith_normal_form(sparse_rows([[2, 0], [0, 3]])) == [1, 6]

    def test_zero_matrix(self):
        assert smith_normal_form(sparse_rows([[0, 0], [0, 0]])) == []

    def test_divisibility_example(self):
        factors = smith_normal_form(sparse_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        for earlier, later in zip(factors, factors[1:]):
            assert later % earlier == 0

    @given(
        matrix=st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_chain_and_rank_match_rational_rank(self, matrix):
        factors = smith_normal_form(sparse_rows(matrix))
        assert all(f > 0 for f in factors)
        for earlier, later in zip(factors, factors[1:]):
            assert later % earlier == 0
        assert len(factors) == rank(matrix)

    def test_boundary_columns_and_rows_agree(self):
        # homology reads each boundary as columns; the transpose must not matter.
        for twist in SAMPLE_TWISTS:
            cx = build_complex(twist)
            for k in range(1, 8):
                columns = cx.boundaries[k]
                rows = [{} for _ in range(cx.cell_counts()[k - 1])]
                for j, column in enumerate(columns):
                    for i, value in column.items():
                        rows[i][j] = value
                assert smith_normal_form(columns) == smith_normal_form(rows), (twist, k)
                assert sparse_rank(columns) == sparse_rank(rows), (twist, k)

    def test_pivot_columns(self):
        # The only unit of [[2, 3]] appears after a column operation, where
        # columns no longer name the input's keys: nothing is recorded.
        pivots = set()
        assert smith_normal_form(sparse_rows([[2, 3]]), pivots) == [1]
        assert pivots == set()
        assert smith_normal_form(sparse_rows([[2, 0], [0, 3]]), pivots) == [1, 6]
        assert pivots == set()
        # Unimodular: a unit in each row, by row operations alone.
        assert smith_normal_form(sparse_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), pivots) == [1, 1, 1]
        assert pivots == {0, 1, 2}

    @given(integer_matrices())
    @settings(deadline=None, max_examples=100)
    def test_pivot_output_changes_no_factor(self, matrix):
        pivots = set()
        factors = smith_normal_form(sparse_rows(matrix), pivots)
        assert factors == smith_normal_form(sparse_rows(matrix))
        assert pivots <= {j for row in sparse_rows(matrix) for j in row}
        assert len(pivots) <= factors.count(1)

    @given(diag=st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    def test_diagonal_input(self, diag):
        size = len(diag)
        matrix = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
        factors = smith_normal_form(sparse_rows(matrix))
        assert len(factors) == sum(1 for d in diag if d)


class TestHomology:
    def test_betti_sequence(self):
        cx = build_complex()
        result = homology(cx, "integer")
        assert result.betti == (1, 3, 7, 13, 13, 7, 3, 1)

    def test_rational_route_agrees(self):
        cx = build_complex()
        assert homology(cx, "rational").betti == homology(cx, "integer").betti

    def test_connectivity_euler_palindrome(self):
        result = homology(build_complex(), "integer")
        assert result.betti[0] == 1
        assert result.euler_characteristic() == 0
        assert result.is_palindromic()

    def test_b2_bound(self):
        result = homology(build_complex(), "integer")
        assert result.betti[2] < 21
        assert result.betti[2] != 25

    def test_torsion_reported_not_empty_in_degree_one(self):
        # Torsion is reported as computed (no asserted target); the quotient
        # does carry two-torsion in degree one, so the field is exercised.
        result = homology(build_complex(), "integer")
        assert result.torsion[0] == ()
        assert all(f > 1 for layer in result.torsion for f in layer)

    def test_bad_coefficients(self):
        with pytest.raises(ValueError):
            homology(build_complex(), "real")


class TestOracle:
    def test_fixed_dimensions(self):
        oracle = invariant_cohomology_oracle()
        assert oracle.values == (1, 0, 4, 0, 1)

    def test_degree_zero_and_one(self):
        oracle = invariant_cohomology_oracle()
        assert oracle.get(0) == 1
        assert oracle.get(1) == 0

    def test_exterior_power_entries_are_minors(self):
        # Integer matrices that are not signed permutations, some with a zero
        # row or a zero column: every entry is the determinant of its minor.
        rng = random.Random(19)
        shapes = {"plain": 0, "zero row": 0, "zero column": 0}
        for trial in range(60):
            n = rng.randint(1, 4)
            matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            shape = ("plain", "zero row", "zero column")[trial % 3]
            if shape == "zero row":
                matrix[rng.randrange(n)] = [0] * n
            elif shape == "zero column":
                col = rng.randrange(n)
                for row in matrix:
                    row[col] = 0
            if all(sorted(map(abs, row)) == [0] * (n - 1) + [1] for row in matrix):
                continue  # a signed permutation (or a repeated unit row)
            shapes[shape] += 1
            for k in range(n + 1):
                subsets = list(itertools.combinations(range(n), k))
                expected = [
                    [int(det([[matrix[r][c] for c in cols] for r in rows])) for cols in subsets]
                    for rows in subsets
                ]
                assert exterior_power_matrix(matrix, k) == expected, (matrix, k)
        assert min(shapes.values()) >= 10

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(0, 4), shape=st.sampled_from(
        ["dense", "zero rows", "zero columns", "any"]
    ))
    def test_exterior_power_against_all_minors(self, data, n, shape):
        # Against ``det`` of every k x k minor; ``det`` itself runs on exactly
        # the minors without an all-zero row.
        entries = st.integers(-2, 2).filter(bool) if shape == "dense" else st.integers(-2, 2)
        matrix = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
                                    max_size=n))
        if shape != "dense" and n:
            for i in data.draw(st.sets(st.integers(0, n - 1), min_size=int(shape != "any"))):
                for j in range(n):
                    if shape == "zero columns":
                        matrix[j][i] = 0
                    else:
                        matrix[i][j] = 0
        calls = []
        with unittest.mock.patch.object(
            cellular, "det", lambda minor: calls.append(minor) or det(minor)
        ):
            for k in range(n + 1):
                subsets = list(itertools.combinations(range(n), k))
                minors = [[[[matrix[r][c] for c in cols] for r in rows] for cols in subsets]
                          for rows in subsets]
                calls.clear()
                assert exterior_power_matrix(matrix, k) == [
                    [int(det(minor)) for minor in line] for line in minors
                ], (matrix, k)
                assert calls == [
                    minor for line in minors for minor in line if all(any(row) for row in minor)
                ], (matrix, k)

    def test_exterior_power_endpoints(self):
        matrix = unit_translation_twist().matrix()
        assert exterior_power_matrix(matrix, 0) == [[1]]
        top = exterior_power_matrix(matrix, 4)
        assert top == [[1]]  # determinant one: orientation preserved

    def test_convolution_matches_cellular(self):
        oracle = invariant_cohomology_oracle()
        cellular_betti = homology(build_complex(), "integer").betti
        assert betti_from_horizontal(oracle) == cellular_betti


class TestRouteAgreement:
    def test_every_b4_twist(self):
        """Integer, rational and oracle routes agree on all 384 signed axis permutations.

        This is route agreement only: the paper-example claims (b2 = 7, a
        palindromic sequence) hold for the paper's twist, not for every one.
        """
        twists = all_b4_twists()
        assert len(set(twists)) == 384
        recorded = FINGERPRINTS["twists-b4.torsion"]
        for twist in twists:
            cx = build_complex(twist)
            result = homology(cx, "integer")
            integral = result.betti
            assert homology(cx, "rational").betti == integral, twist
            oracle = betti_from_horizontal(invariant_cohomology_oracle(twist))
            assert oracle == integral, twist
            # Torsion has no second route yet; pin it to the recorded value.
            key = "".join(f"{img}{'+' if sign > 0 else '-'}" for img, sign in twist.images)
            assert fingerprint(result.to_dict()["torsion"]) == recorded[key], key


class TestClearing:
    def test_every_b4_twist_matches_the_uncleared_boundaries(self):
        # The reference eliminates every column of every boundary: no clearing.
        for twist in all_b4_twists():
            cx = build_complex(twist)
            factors = [smith_normal_form(cx.boundaries[k]) for k in range(1, 8)]
            integral = homology(cx, "integer")
            assert integral.boundary_ranks == tuple(map(len, factors)), twist
            assert integral.torsion == (
                *(tuple(f for f in layer if f > 1) for layer in factors), ()
            ), twist
            ranks = tuple(sparse_rank(cx.boundaries[k]) for k in range(1, 8))
            assert homology(cx, "rational").boundary_ranks == ranks, twist

    def test_a_unit_after_a_column_operation_clears_nothing(self):
        # d e = 2a + 3b and d a = 3c, d b = -2c, so d^2 = 0.  Smith reaches the
        # unit of d e only after a column operation (b - a); clearing b would
        # leave d a alone and report Z/3 in degree zero, where there is none.
        cx = cellular.ChainComplexZ(
            Basis(range(1, 3)), [[{}], [{(): 3}, {(): -2}], [{(1,): 2, (2,): 3}]]
        )
        for coefficients in ("integer", "rational"):
            result = homology(cx, coefficients)
            assert result.betti == (0, 0, 0) and result.boundary_ranks == (1, 1)
        assert homology(cx, "integer").torsion == ((), (), ())

    def test_a_hand_built_complex_is_checked(self):
        # d e = a and d a = c, d b = 0: d^2 e = c.  Clearing would take a,
        # the pivot of d e, out of d_1 and report rank d_1 = 0, not 1.
        with pytest.raises(ComplexConsistencyError) as caught:
            cellular.ChainComplexZ(Basis(range(1, 3)), [[{}], [{(): 1}, {}], [{(1,): 1}]])
        assert caught.value.cell == (1, 2)
        assert caught.value.chain == {(): 1}

    @pytest.mark.parametrize("chains, message", [
        # d a = a: a face of degree 1 on a 1-cell, once built with rational
        # Betti numbers (0, 1, 1).
        ([[{}], [{(1,): 1}, {}], [{}]], r"face \(1,\) of cell \(1,\) is not a cell of degree 0"),
        ([[{(): 1}], [{}, {}], [{}]], r"face \(\) of cell \(\) is not a cell of degree -1"),
        ([[{}], [{}, {}], [{(3,): 1}]], r"face \(3,\) of cell \(1, 2\) is not a cell of degree 1"),
    ], ids=["degree 1 face of a 1-cell", "face of a 0-cell", "no cell"])
    def test_a_face_of_the_wrong_degree_is_rejected(self, chains, message):
        with pytest.raises(ValueError, match=message):
            cellular.ChainComplexZ(Basis(range(1, 3)), chains)

    def test_each_route_clears_its_own_pivots(self, monkeypatch):
        # d_k reaches each route without the k-cells that its own elimination
        # of d_{k+1} pivoted on: all rank(d_{k+1}) of them over Q, and over Z
        # the units taken before the first column operation.
        passed = {"smith_normal_form": [], "sparse_rank": []}
        for name, lengths in passed.items():
            real = getattr(cellular, name)
            monkeypatch.setattr(
                cellular, name,
                lambda columns, pivots, real=real, lengths=lengths: (
                    lengths.append(len(columns)) or real(columns, pivots)
                ),
            )
        cx = build_complex()
        counts = cx.cell_counts()
        ranks = homology(cx, "rational").boundary_ranks + (0,)
        assert passed["sparse_rank"] == [counts[k] - ranks[k] for k in range(7, 0, -1)]
        assert homology(cx, "integer").boundary_ranks == ranks[:-1]
        assert passed["smith_normal_form"] == [1, 7, 19, 29, 27, 15, 5]


class TestCrossCheck:
    def test_passes_on_true_build(self):
        result = homology(build_complex(), "integer")
        report = cross_check(result, invariant_cohomology_oracle())
        assert report.passed
        assert all(item.ok for item in report.items)

    def test_sign_flip_detected(self):
        for axis in (0, 5):
            with pytest.raises(ValueError, match=re.escape("(1, 2, 3, 4)")):
                unit_translation_twist().with_sign_flip(axis)
        # d^2 = 0 holds for any one twist, which commutes with itself, so the
        # flip builds; against the paper twist's oracle the routes disagree,
        # and the flipped twist reverses orientation, so palindromy fails too.
        twisted = unit_translation_twist().with_sign_flip(3)
        result = homology(build_complex(twisted), "integer")
        report = cross_check(result, invariant_cohomology_oracle())
        failed = [item for item in report.items if not item.ok]
        assert [item.name for item in failed] == [
            "cellular betti = convolved oracle",
            "betti sequence palindromic",
        ]
        assert failed[0].detail.startswith("first differing degree 1:")

    def test_length_mismatch_fails(self):
        # The quotient's sequence followed by zeros agrees with it on every
        # shared degree: only the whole-sequence comparison sees the extra ones.
        result = homology(build_complex(), "integer")
        quotient = "[1, 3, 7, 13, 13, 7, 3, 1]"
        long_oracle = HorizontalBettiSequence(2, (1, 0, 4, 0, 1, 0, 0, 0, 0))
        long_result = dataclasses.replace(result, betti=result.betti + (0,))
        for result, oracle, detail in (
            (result, long_oracle,
             f"cellular={quotient}, oracle=[1, 3, 7, 13, 13, 7, 3, 1, 0, 0, 0, 0]"),
            (long_result, invariant_cohomology_oracle(),
             f"cellular=[1, 3, 7, 13, 13, 7, 3, 1, 0], oracle={quotient}"),
        ):
            report = cross_check(result, oracle)
            assert not report.passed
            assert (report.items[0].ok, report.items[0].detail) == (
                False, f"first differing degree 8: {detail}"
            )
