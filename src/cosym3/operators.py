"""Graded operators on the blade algebra, materialized as per-degree blocks.

Identity verification downstream reduces to exact equality of these blocks;
at the ranks exercised here (n <= 3) every carrier is desk-scale, so the
operators are stored column-by-column as multivector images of basis blades.

Two carriers appear: the full blade algebra, and the eta-free ("horizontal")
sector spanned by blades missing all three Reeb one-forms.  The wedge and
contraction operators built from horizontal data preserve the sector, which
is what lets the degree-weight and substitution operators live there.

Every product reads an operator through its image table, source blade mask ->
the column's own mask dict for each nonzero column, built the first time a
product needs it.  ``compose`` and both brackets are one entry-wise routine:
it walks the nonzero source columns of its operands, accumulates every
(source, target) entry of the whole result in one dict, and splits the
nonzero entries back into columns, so a bracket's two composites are never
materialized and every zero column is one shared empty column.  The
generator columns are built on the blade mask, one pass over terms taken once
per operator: the double contractions Lambda_a and K_a over their frame
slots, with the contraction parity of ``exterior`` and the frame signs of
``eval_diag``, and L_a over Xi_a's blades, with the popcount sign of
``wedge``.  Lambda_star conjugates L_full's cached image table by the star.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import combinations
from typing import Callable

from . import contact
from .contact import PhiStarTable, cyclic, phi_zeta_index, zeta_index
from .exterior import (
    Basis, Coeff, ModelDims, Multivector, _contraction_parity, _flips, _pull_back, hodge_star,
    interior, wedge,
)

# The quaternionic ranks n of the identity suite and the so(4,1) module check.
SUPPORTED_RANKS = (1, 2, 3)


class GradedOperator:
    """A degree-homogeneous linear operator stored as per-degree columns.

    Products read the columns through the image table, source mask -> the
    column's own ``_terms`` dict for each nonzero column, built on first use:
    most bracket results are only compared, and never need one.
    """

    __slots__ = ("shift", "basis", "blocks", "_images")

    def __init__(self, shift: int, basis: Basis, blocks: dict[int, list[Multivector]]):
        self.shift = shift
        self.basis = basis
        self.blocks = blocks
        self._images: dict[int, dict[int, Coeff]] | None = None

    def _image_table(self) -> dict[int, dict[int, Coeff]]:
        if self._images is None:
            masks = self.basis._masks
            self._images = {
                m: col._terms
                for k, cols in self.blocks.items()
                for m, col in zip(masks[k], cols)
                if col._terms
            }
        return self._images

    @classmethod
    def from_function(
        cls, shift: int, basis: Basis, fn: Callable[[Multivector], Multivector]
    ) -> "GradedOperator":
        """Columns ``fn(blade)`` over the basis; the blades passed in are the
        basis's shared unit forms."""
        blocks: dict[int, list[Multivector]] = {}
        for k in basis.degrees():
            cols = [fn(unit) for unit in basis.units(k)]
            target = k + shift
            if {m.bit_count() for col in cols for m in col._terms} - {target}:
                bad = next(
                    col for col in cols if any(m.bit_count() != target for m in col._terms)
                )
                raise ValueError(
                    f"image of degree-{k} blade has degree {bad.degree()}, expected {target}"
                )
            blocks[k] = cols
        return cls(shift, basis, blocks)

    @classmethod
    def identity(cls, basis: Basis) -> "GradedOperator":
        return cls.from_function(0, basis, lambda mv: mv)

    @classmethod
    def zero(cls, basis: Basis, shift: int = 0) -> "GradedOperator":
        return cls.from_function(shift, basis, lambda mv: _EMPTY_COLUMN)

    def apply(self, mv: Multivector) -> Multivector:
        images = self._image_table()
        acc: dict[int, Coeff] = {}
        get = acc.get
        for m, coeff in mv._terms.items():
            for image, c in images.get(m, _NO_TERMS).items():
                acc[image] = get(image, 0) + coeff * c
        return Multivector(_masks=acc)

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self after other."""
        return _product(self, other, 0)

    def __neg__(self) -> "GradedOperator":
        return self.scale(-1)

    def scale(self, scalar) -> "GradedOperator":
        blocks = {
            k: [scalar * col if col else _EMPTY_COLUMN for col in cols]
            for k, cols in self.blocks.items()
        }
        return GradedOperator(self.shift, self.basis, blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.shift == other.shift and self.blocks == other.blocks


# The one empty column of every zero operator and product result, and the
# image of a blade whose column is empty.
_EMPTY_COLUMN = Multivector.zero()
_NO_TERMS: dict[int, Coeff] = {}


def _product(a: GradedOperator, b: GradedOperator, sign: int) -> GradedOperator:
    """a b + sign * b a, with sign 0 for the composite a b alone.

    Entry by entry over the nonzero columns only: every product term adds to
    one dict for the whole operator, keyed by source mask shifted past the
    basis width, OR target mask.  The nonzero entries are then split back
    into per-source columns, which are also the result's image table.
    """
    if a.basis is not b.basis:
        raise ValueError("operators on different bases have no product")
    basis = a.basis
    width = max(basis.indices, default=-1) + 1
    a_images, b_images = a._image_table(), b._image_table()
    acc: dict[int, Coeff] = {}
    get = acc.get
    passes = [(a_images, b_images, 1)]
    if sign:
        passes.append((b_images, a_images, sign))
    for outer, inner, scalar in passes:
        for source, column in inner.items():
            source <<= width
            for middle, coeff in column.items():
                image = outer.get(middle)
                if image is not None:
                    coeff *= scalar
                    for target, c in image.items():
                        key = source | target
                        acc[key] = get(key, 0) + coeff * c
    low = (1 << width) - 1
    columns: dict[int, dict[int, Coeff]] = {}
    for key, c in acc.items():
        if c:
            source = key >> width
            if source in columns:
                columns[source][key & low] = c
            else:
                columns[source] = {key & low: c}
    blocks = {
        k: [
            _EMPTY_COLUMN if (column := columns.get(m)) is None else Multivector(_masks=column)
            for m in masks
        ]
        for k, masks in basis._masks.items()
    }
    result = GradedOperator(a.shift + b.shift, basis, blocks)
    result._images = columns
    return result


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return _product(a, b, -1)


def anticommutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return _product(a, b, 1)


def _cached(build):
    """Method decorator: one entry per operator, keyed by name and arguments,
    in the instance's own cache (so a dropped model frees its operators)."""
    name = build.__name__

    @wraps(build)
    def get(self, *args):
        key = (name, *args)
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    return get


class OperatorSet:
    """The operators of one model, each built on first use and then cached.

    This is the only constructor of the model's operators: the identity suite
    and the so(4,1) module check both take theirs from here.  Operators live
    on the full blade basis (``full``) or on the eta-free sector (``hor``);
    both bases are built on first use.
    """

    def __init__(self, dims: ModelDims, table: PhiStarTable | None = None):
        if table is not None and table.dims != dims:
            raise ValueError(
                f"the table is for rank n = {table.dims.n}, the operators for n = {dims.n}"
            )
        self.dims = dims
        self.table = table if table is not None else PhiStarTable.build(dims)
        self._cache: dict = {}

    @cached_property
    def full(self) -> Basis:
        return Basis(range(self.dims.dim))

    @cached_property
    def hor(self) -> Basis:
        return Basis(range(self.dims.horizontal_dim))

    @_cached
    def l(self, a: int) -> GradedOperator:
        """Wedge with eta_a (degree +1)."""
        eta = Multivector.blade((contact.eta_index(self.dims, a),))
        return GradedOperator.from_function(+1, self.full, lambda mv: wedge(eta, mv))

    @_cached
    def lam(self, a: int) -> GradedOperator:
        """Contraction with the Reeb vector xi_a (degree -1)."""
        idx = contact.eta_index(self.dims, a)
        return GradedOperator.from_function(-1, self.full, lambda mv: interior(idx, mv))

    @_cached
    def e(self, a: int) -> GradedOperator:
        """Projection onto blades containing eta_a (l_a after lambda_a)."""
        return self.l(a).compose(self.lam(a))

    def _wedge_xi(self, a: int, basis: Basis) -> GradedOperator:
        """``wedge(Xi_a, -)`` on the mask, with Xi_a's ``_flips`` taken once."""
        terms = contact.xi_form(self.dims, a, self.table)._terms
        xi = [(x, c, _flips(x)) for x, c in terms.items()]

        def column(mv: Multivector) -> Multivector:
            acc: dict[int, Coeff] = {}
            for x, c, flips in xi:
                for m, coeff in mv._terms.items():
                    if not x & m:
                        value = -c * coeff if (m & flips).bit_count() & 1 else c * coeff
                        acc[x | m] = acc.get(x | m, 0) + value
            return Multivector(_masks=acc)

        return GradedOperator.from_function(+2, basis, column)

    @_cached
    def L_full(self, a: int) -> GradedOperator:
        """Wedge with the horizontal two-form Xi_a (degree +2)."""
        return self._wedge_xi(a, self.full)

    @_cached
    def L(self, a: int) -> GradedOperator:
        """L_a on the eta-free sector, which it preserves."""
        return self._wedge_xi(a, self.hor)

    @_cached
    def Lambda_star(self, a: int) -> GradedOperator:
        """Adjoint of L_a by star conjugation (degree -2); the star needs the
        whole coframe, so this one lives on the full basis only."""
        dims = self.dims
        wedge_xi = self.L_full(a)
        return GradedOperator.from_function(
            -2, self.full, lambda mv: hodge_star(wedge_xi.apply(hodge_star(mv, dims)), dims)
        )

    def _double_contraction(self, a: int, basis: Basis) -> GradedOperator:
        """Sum of the frame contractions i_first i_second over the structure
        pairs of ``a`` but the eta pair, one pass over the pairs per blade."""
        negative = contact._negative_slots(self.dims)
        pairs = [
            (1 << first, 1 << second)
            for first, second in contact.structure_pairs(self.dims, a)[:-1]
        ]

        def column(mv: Multivector) -> Multivector:
            acc: dict[int, Coeff] = {}
            for m, coeff in mv._terms.items():
                for first, second in pairs:
                    if m & first and m & second:
                        inner = m ^ second
                        odd = (
                            _contraction_parity(m, second)
                            ^ _contraction_parity(inner, first)
                            ^ ((first | second) & negative).bit_count()
                        )
                        image = inner ^ first
                        acc[image] = acc.get(image, 0) + (-coeff if odd & 1 else coeff)
            return Multivector(_masks=acc)

        return GradedOperator.from_function(-2, basis, column)

    @_cached
    def Lambda_full(self, a: int) -> GradedOperator:
        """Adjoint of L_a as the explicit double-contraction sum (degree -2)."""
        return self._double_contraction(a, self.full)

    @_cached
    def Lam(self, a: int) -> GradedOperator:
        """Lambda_a on the eta-free sector, which it preserves."""
        return self._double_contraction(a, self.hor)

    @_cached
    def K(self, a: int) -> GradedOperator:
        """Degree-0 wedge/contraction sum on the eta-free sector, arising as
        [L_a, Lambda_b] pieces."""
        dims = self.dims
        negative = contact._negative_slots(dims)
        _, b, c = cyclic(a)
        terms = []  # (wedge bit, contraction bit, parity of frame sign and scalar)
        for s in range(1, dims.n + 1):
            z = zeta_index(dims, s)
            pa = phi_zeta_index(dims, a, s)
            pb = phi_zeta_index(dims, b, s)
            pc = phi_zeta_index(dims, c, s)
            for factor, slot, odd in ((pa, z, 0), (z, pa, 0), (pc, pb, 0), (pb, pc, 1)):
                terms.append((1 << factor, 1 << slot, odd ^ (negative >> slot & 1)))

        def column(mv: Multivector) -> Multivector:
            # Contract the slot out, then move the factor in from the front.
            acc: dict[int, Coeff] = {}
            for factor, bit, odd in terms:
                for m, coeff in mv._terms.items():
                    if m & bit and not (inner := m ^ bit) & factor:
                        if odd ^ _contraction_parity(m, bit) ^ _contraction_parity(inner, factor):
                            coeff = -coeff
                        acc[inner | factor] = acc.get(inner | factor, 0) + coeff
            return Multivector(_masks=acc)

        return GradedOperator.from_function(0, self.hor, column)

    @property
    @_cached
    def H(self) -> GradedOperator:
        """Degree weight 2n - k on the eta-free sector."""
        n = self.dims.n
        return GradedOperator.from_function(
            0, self.hor, lambda mv: (2 * n - mv.degree()) * mv
        )

    @_cached
    def K_s(self, a: int, s: int) -> GradedOperator:
        """s-fold substitution operator on the eta-free sector.

        Sends a blade to the sum over all s-subsets of its factors of the
        blade with those factors replaced by their pullback images.
        Substituting zero factors is the identity; one factor gives the
        derivation extension of the pullback; substituting more factors than
        the degree gives zero.
        """
        if s < 0:
            raise ValueError("substitution count must be nonnegative")
        row = self.table.entries[a]

        def column(mv: Multivector) -> Multivector:
            acc: dict[int, Coeff] = {}
            for m, coeff in mv._terms.items():
                factors = [1 << i for i in range(m.bit_length()) if m >> i & 1]
                for chosen in combinations(factors, s):
                    sign, image = _pull_back(m, row, sum(chosen))
                    if sign:
                        acc[image] = acc.get(image, 0) + sign * coeff
            return Multivector(_masks=acc)

        return GradedOperator.from_function(0, self.hor, column)

    @_cached
    def I(self, a: int) -> GradedOperator:
        """Full substitution: the pullback of a form of any degree."""
        return GradedOperator.from_function(
            0, self.hor, lambda mv: contact.phi_star(self.table, a, mv)
        )

    @property
    @_cached
    def id_full(self) -> GradedOperator:
        return GradedOperator.identity(self.full)

    @property
    @_cached
    def id_hor(self) -> GradedOperator:
        return GradedOperator.identity(self.hor)

    @_cached
    def zero_full(self, shift: int) -> GradedOperator:
        return GradedOperator.zero(self.full, shift)

    @_cached
    def zero_hor(self, shift: int) -> GradedOperator:
        return GradedOperator.zero(self.hor, shift)
