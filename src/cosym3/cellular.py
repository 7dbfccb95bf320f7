"""Cellular homology of the seven-dimensional twisted torus quotient.

The space is (T^4 x R^3) / Z^3 where each unit translation in the three flat
directions twists the quaternionic torus T^4 = H / Z^4 by right quaternion
multiplication.  Cells are the coordinate subcubes of the unit 7-cube,
indexed by subsets of {1, ..., 7}: coordinates 1-4 are the quaternion axes
(1, i, j, k) and 5-7 the flat directions.  A cell is a blade over the axes,
so the cells of every twist are one ``exterior.Basis``, built once.  Each
twist keeps its own ``face_images``: the image of every quaternion part of a
cell through ``exterior._pull_back``, the routine of the structure pullbacks
``phi_a^*``, with the twist's row.

Bringing a point with a flat coordinate at 1 back to the fundamental domain
multiplies the quaternion by the *inverse* generator, q -> q * i^(-1); that
is the face identification used by the boundary operator, pinned by the face
image j -> k of the 2-cell {3, 5}.  In a quaternion direction the face at 1
is the face at 0 (plain torus identification), so the two cancel and only
the flat directions carry a boundary.  Orientation conventions: faces of a
cell are taken in ascending coordinate order with alternating signs, counting
the face at 1 minus the face at 0.

The homology is checked against an independent oracle, the twist's
invariants on the exterior algebra: ``cross_check`` is one table of
(name, ok, detail) claims over the two Betti sequences.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from functools import cache, cached_property
from itertools import combinations

from .betti import HorizontalBettiSequence, betti_from_horizontal
from .exterior import Basis, _contraction_parity, _pull_back
from .linalg import det, rank, smith_normal_form, sparse_rank

Cell = tuple[int, ...]

QUATERNION_AXES = (1, 2, 3, 4)
FLAT_AXES = (5, 6, 7)
TOTAL_DIM = len(QUATERNION_AXES) + len(FLAT_AXES)

# The cells of every twist.  A face of a k-cell is a (k-1)-cell, so the
# basis's degree k - 1 position table keys the boundary columns of degree k.
# A cell's mask has bit ``axis`` set per axis; ``_CELL_OF`` converts back.
_CUBE = Basis(range(1, TOTAL_DIM + 1))
_CELL_OF = {m: cell for k in _CUBE.degrees() for m, cell in zip(_CUBE._masks[k], _CUBE.blades(k))}
_QUATERNION_MASK = sum(1 << axis for axis in QUATERNION_AXES)
_FLAT_BITS = tuple(1 << axis for axis in FLAT_AXES)

# The faces of every cell, whatever the twist: per flat bit in ascending
# order, (outer sign, face at 0 as a cell, its quaternion part q, its flat part).
_FACES = {
    cell: tuple(
        (-1 if _contraction_parity(mask, bit) else 1, _CELL_OF[mask ^ bit],
         (mask ^ bit) & _QUATERNION_MASK, (mask ^ bit) & ~_QUATERNION_MASK)
        for bit in _FLAT_BITS
        if mask & bit
    )
    for mask, cell in _CELL_OF.items()
}
# Submasks of the quaternion axes, the keys of a twist's face images.
_QUATERNION_SUBMASKS = tuple(
    q for q in range(_QUATERNION_MASK + 1) if not q & ~_QUATERNION_MASK
)


class ComplexConsistencyError(Exception):
    """Raised when the boundary of a boundary fails to vanish."""

    def __init__(self, cell: Cell, chain: dict):
        self.cell = cell
        self.chain = chain
        super().__init__(f"boundary squared is nonzero on cell {set(cell)}: {chain}")


@dataclass(frozen=True)
class TwistMap:
    """Signed permutation of the four quaternion axes.

    ``images[axis - 1] = (axis', sign)`` meaning the unit vector along
    ``axis`` maps to ``sign`` times the unit vector along ``axis'``.  Images
    and signs are ``int``; a list of images is stored as a tuple.
    """

    images: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        if len(images) != len(QUATERNION_AXES):
            raise ValueError(f"a twist has {len(QUATERNION_AXES)} images, got {len(images)}")
        seen = set()
        for axis, entry in enumerate(images, start=1):
            if type(entry) is not tuple or len(entry) != 2 or {type(x) for x in entry} != {int}:
                raise ValueError(f"image {entry!r} of axis {axis} is not an (axis, sign) pair of ints")
            img, sign = entry
            if img not in QUATERNION_AXES:
                raise ValueError(f"image {entry} of axis {axis} is not on an axis 1-4")
            if img in seen:
                raise ValueError(f"image {entry} of axis {axis} repeats axis {img}")
            if sign not in (1, -1):
                raise ValueError(f"image {entry} of axis {axis} has a sign other than +-1")
            seen.add(img)
        object.__setattr__(self, "images", images)

    @cached_property
    def row(self) -> tuple[tuple[int, int] | None, ...]:
        """The ``exterior._pull_back`` row over the cube's slots; slot 0 is no axis."""
        return (None, *self.images)

    @cached_property
    def face_images(self) -> dict[int, tuple[int, int]]:
        """``_pull_back(q, row)`` for every quaternion submask q: the sign and
        image the twist gives the quaternion part of a face at 1."""
        return {q: _pull_back(q, self.row) for q in _QUATERNION_SUBMASKS}

    @classmethod
    def right_multiplication_by_i(cls) -> "TwistMap":
        # q * i sends (a, b, c, d) to (-b, a, d, -c): 1->2, 2->-1, 3->-4, 4->3.
        return cls(((2, 1), (1, -1), (4, -1), (3, 1)))

    def inverse(self) -> "TwistMap":
        out: list[tuple[int, int]] = [(0, 0)] * len(self.images)
        for axis, (img, sign) in enumerate(self.images, start=1):
            out[img - 1] = (axis, sign)
        return TwistMap(tuple(out))

    def matrix(self) -> list[list[int]]:
        rows = [[0] * len(self.images) for _ in self.images]
        for axis, (img, sign) in enumerate(self.images, start=1):
            rows[img - 1][axis - 1] = sign
        return rows

    def with_sign_flip(self, axis: int) -> "TwistMap":
        """Negate one image; self-test hook for negative controls."""
        if axis not in QUATERNION_AXES:
            raise ValueError(f"axis must be one of {QUATERNION_AXES}, got {axis}")
        img, sign = self.images[axis - 1]
        return TwistMap(self.images[: axis - 1] + ((img, -sign),) + self.images[axis:])


def unit_translation_twist() -> TwistMap:
    """Quaternion coordinate action of crossing a flat face at 1.

    This is right multiplication by the inverse of i (the inverse deck
    generator), the map sending the j axis to the k axis.
    """
    return TwistMap.right_multiplication_by_i().inverse()


# The default twist of every function, with its face images, made once.
_PAPER_TWIST = unit_translation_twist()


def boundary(cell: Cell, twist: TwistMap = _PAPER_TWIST) -> dict[Cell, int]:
    """Integer boundary chain of a cell.

    Faces are taken per coordinate in ascending order with alternating signs,
    the face at 1 minus the face at 0.  Only flat directions contribute: there
    the face at 1 carries the remaining cell through the unit-translation
    twist.  In a quaternion direction the face at 1 is the face at 0 itself
    (plain torus identification), so the pair cancels and is never formed; a
    cell inside the quaternion axes is a cycle.

    Both faces come from tables: the face at 0 from ``_FACES``, and the face
    at 1 is the twist's image of its quaternion part q, read from the twist's
    ``face_images``, with the flat bits ORed back in.  Every quaternion slot lies
    below every flat slot, so the face is q times its flat part, and the
    image of q is again a quaternion blade in front of that same flat part:
    the sign is the image's alone.

    Each face is written straight into the chain, the face at 1 before the
    face at 0, flat bit by flat bit; nothing is accumulated.  The faces of
    two flat bits differ in their flat part, so only the two faces of one
    bit can meet, when the twist fixes q: they cancel when its sign is +1
    and leave -2 times the outer sign when it is -1.
    """
    images = twist.face_images
    faces = _FACES.get(cell)
    if faces is None:
        raise ValueError(f"{cell} is not a cell of the unit 7-cube")
    chain: dict[Cell, int] = {}
    for outer, rest, q, flat in faces:
        sign, image = images[q]
        if image != q:
            chain[_CELL_OF[image | flat]] = outer * sign  # at 1
            chain[rest] = -outer  # at 0
        elif sign < 0:
            chain[rest] = -2 * outer
    return chain


@dataclass
class ChainComplexZ:
    """Integer cellular chain complex over the cells of a ``Basis``.

    ``chains[k][j]`` is the boundary chain of ``basis.blades(k)[j]``, keyed
    by face cell, as ``boundary`` returns it.  The constructor, the one way
    to build a complex, keys each chain of a degree-k cell by face position
    among the degree k - 1 cells (``basis.positions[k - 1]``; any other face
    raises ``ValueError``) and checks d^2 = 0 on it in the same pass, degree
    by degree: the first cell whose boundary has a nonzero boundary raises
    ``ComplexConsistencyError``.
    """

    basis: Basis  # the cells: basis.blades(k) in degree k
    chains: InitVar[list[list[dict[Cell, int]]]]
    # boundaries[k][j]: sparse column of basis.blades(k)[j], keyed by face position
    boundaries: list[list[dict[int, int]]] = field(init=False)

    def __post_init__(self, chains: list[list[dict[Cell, int]]]) -> None:
        positions, blades = self.basis.positions, self.basis.blades
        self.boundaries = []
        for k, layer in zip(self.basis.degrees(), chains, strict=True):
            lower, columns = (self.boundaries[k - 1] if k else []), []
            faces = positions.get(k - 1, {})
            for cell, chain in zip(blades(k), layer, strict=True):
                column: dict[int, int] = {}
                acc: dict[int, int] = {}
                for face, value in chain.items():
                    try:
                        i = faces[face]
                    except KeyError:
                        raise ValueError(
                            f"face {face} of cell {cell} is not a cell of degree {k - 1}"
                        ) from None
                    column[i] = value
                    for m, inner in lower[i].items():
                        acc[m] = acc.get(m, 0) + value * inner
                if any(acc.values()):
                    raise ComplexConsistencyError(
                        cell, {blades(k - 2)[m]: v for m, v in acc.items() if v}
                    )
                columns.append(column)
            self.boundaries.append(columns)

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(self.basis.blades(k)) for k in self.basis.degrees())

    def triples(self, k: int) -> list[tuple[int, int, int]]:
        """Sparse (row, col, value) triples of the k-th boundary matrix, row-major."""
        return sorted(
            (i, j, value)
            for j, column in enumerate(self.boundaries[k])
            for i, value in column.items()
        )


def build_complex(twist: TwistMap = _PAPER_TWIST) -> ChainComplexZ:
    """The twist's complex on the cube's cells: one ``boundary`` call per cell."""
    return ChainComplexZ(
        _CUBE, [[boundary(cell, twist) for cell in _CUBE.blades(k)] for k in _CUBE.degrees()]
    )


@dataclass
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    boundary_ranks: tuple[int, ...]
    coefficients: str  # "integer" or "rational"

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def is_palindromic(self) -> bool:
        return self.betti == self.betti[::-1]

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "boundary_ranks": list(self.boundary_ranks),
            "euler_characteristic": self.euler_characteristic(),
            "palindromic": self.is_palindromic(),
        }


def homology(complex_: ChainComplexZ, coefficients: str = "integer") -> HomologyResult:
    """Homology of the chain complex, in each degree of its ``cell_counts``.

    With integer coefficients the ranks and torsion come from Smith normal
    forms over Z (``linalg.smith_normal_form``); with rational coefficients
    the ranks come from the exact sparse elimination over Q
    (``linalg.sparse_rank``), and there is no torsion.  Both take the boundary
    columns as the rows of the transpose, which has the same rank and
    invariant factors, and must agree on the free ranks, which the tests pin.

    Both walk k downward and clear (Chen and Kerber, "Persistent homology
    computation with a twist", EuroCG 2011): the k-cells that the elimination
    of d_{k+1} pivoted on (its ``pivots``) are left out of d_k.  As d^2 = 0,
    which every ``ChainComplexZ`` checks when it is built, their columns are
    combinations of the kept ones, so ranks and invariant factors stay.  Each
    route clears with its own pivots only, so the two stay independent.
    """
    if coefficients not in ("integer", "rational"):
        raise ValueError("coefficients must be 'integer' or 'rational'")
    counts = complex_.cell_counts()
    top = len(counts) - 1
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [()] * (top + 1)
    cleared: set[int] = set()
    for k in range(top, 0, -1):
        columns = [col for j, col in enumerate(complex_.boundaries[k]) if j not in cleared]
        cleared = set()
        if coefficients == "integer":
            factors = smith_normal_form(columns, cleared)
            ranks[k] = len(factors)
            torsion[k - 1] = tuple(f for f in factors if f > 1)
        else:
            ranks[k] = sparse_rank(columns, cleared)
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))
    return HomologyResult(
        betti=betti,
        torsion=tuple(torsion),
        boundary_ranks=tuple(ranks[1 : top + 1]),
        coefficients=coefficients,
    )


# ---------------------------------------------------------------------------
# Independent oracle: invariants of the twist on the exterior algebra
# ---------------------------------------------------------------------------


@cache
def _exterior_subsets(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The k-subsets of range(n), in order, with their masks: Lambda^k's labels."""
    return tuple((cols, sum(1 << c for c in cols)) for cols in combinations(range(n), k))


def exterior_power_matrix(matrix: list[list[int]], k: int) -> list[list[int]]:
    """Induced matrix on the k-th exterior power, entries as k x k minors.

    A minor is built and passed to ``det`` only when each of its rows meets
    its columns, read off each row's support (its nonzero columns as a mask);
    any other minor has an all-zero row and is 0.  For a signed permutation
    that leaves one minor per row subset.
    """
    subsets = _exterior_subsets(len(matrix), k)
    support = [sum(1 << c for c, v in enumerate(row) if v) for row in matrix]
    out = []
    for rows, _ in subsets:
        supports = [support[r] for r in rows]
        line = []
        for cols, mask in subsets:
            for row_support in supports:
                if not row_support & mask:
                    line.append(0)
                    break
            else:
                line.append(int(det([[matrix[r][c] for c in cols] for r in rows])))
        out.append(line)
    return out


def invariant_cohomology_oracle(twist: TwistMap = _PAPER_TWIST) -> HorizontalBettiSequence:
    """Fixed-subspace dimensions of the twist acting on the exterior algebra.

    For each degree k the induced matrix on the k-th exterior power of the
    quaternion coordinate space is computed and the dimension of its fixed
    subspace extracted by a brute-force kernel computation of (M - id).
    These are the horizontal Betti numbers of the quotient: the full ones
    follow by the (1, 3, 3, 1) convolution, which the cross-check compares
    against the cellular computation.
    """
    base = twist.matrix()
    values = []
    for k in range(len(base) + 1):
        m = exterior_power_matrix(base, k)
        size = len(m)
        shifted = [
            [m[i][j] - (1 if i == j else 0) for j in range(size)] for i in range(size)
        ]
        values.append(size - rank(shifted))
    return HorizontalBettiSequence(1, values)


@dataclass
class CrossCheckItem:
    name: str
    ok: bool
    detail: str = ""

@dataclass
class CrossCheckReport:
    items: list[CrossCheckItem]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def cross_check(
    result: HomologyResult, oracle: HorizontalBettiSequence
) -> CrossCheckReport:
    """Compare the cellular Betti numbers against the invariant oracle.

    Equality is degreewise over both whole sequences, so a side that ends
    early differs at its first missing degree; on top of it the second Betti
    number must differ from both product candidates (21 for the plain
    seven-torus, 25 for the K3 pattern), which is the non-product conclusion
    for this example.  Each claim is one (name, ok, detail) row.
    """
    expected, betti = betti_from_horizontal(oracle), result.betti
    degrees = range(max(len(expected), len(betti)))
    mismatch = next((k for k in degrees if expected[k : k + 1] != betti[k : k + 1]), None)
    chi = result.euler_characteristic()
    rows = [
        (
            "cellular betti = convolved oracle",
            mismatch is None,
            f"first differing degree {mismatch}: cellular={list(betti)}, oracle={list(expected)}"
            if mismatch is not None
            else f"both equal {list(betti)}",
        ),
        ("b2 < 21 (not the seven-torus product)", betti[2] < 21, f"b2={betti[2]}"),
        ("b2 != 25 (not the K3 product)", betti[2] != 25, f"b2={betti[2]}"),
        ("euler characteristic 0", chi == 0, f"chi={chi}"),
        ("betti sequence palindromic", result.is_palindromic(), f"betti={list(betti)}"),
        ("b0 = 1 (connected)", betti[0] == 1, f"b0={betti[0]}"),
    ]
    return CrossCheckReport([CrossCheckItem(*row) for row in rows])
