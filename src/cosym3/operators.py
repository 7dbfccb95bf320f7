"""Graded operators on the blade algebra, stored as image tables.

An operator is stored whole, as one image table: the source mask of each
nonzero column -> that column's mask dict, target mask -> nonzero
coefficient (n <= 3 keeps every carrier desk-scale).  Equal operators have
equal tables, so a whole identity is one dict comparison.  Two carriers
appear: the full blade algebra, and the eta-free ("horizontal") sector
spanned by blades missing all three Reeb one-forms, which the operators built
from horizontal data preserve.

``from_function`` keeps the nonzero columns of a column function on the blade
mask; ``compose`` and both brackets are one entry-wise routine over the
nonzero columns.  The double contractions and K_a pass over their frame slots
with ``exterior``'s contraction parity and ``eval_diag``'s frame signs, L_a
over Xi_a's blades with ``wedge``'s popcount sign, K_{a,s} and I_a through
``_pull_back``.  l_a, lambda_a and the star send distinct blades to distinct
blades, so their signs come from one ``wedge``, ``interior`` or ``hodge_star``
of a sum of blades.

``blocks`` (the ``Multivector`` columns of each degree, in basis order) is a
read-only view built on first read, for the column-by-column identity
families, witness formatting and the benchmark's operator counters; deleting
it waits for a benchmark revision that counts the table.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import chain, combinations
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
    """A degree-homogeneous linear operator stored as its image table, which
    holds no empty column and no zero coefficient; a blade missing from it has
    an empty column."""

    __slots__ = ("shift", "basis", "_images", "_blocks")

    def __init__(self, shift: int, basis: Basis, images: dict[int, dict[int, Coeff]]):
        self.shift = shift
        self.basis = basis
        self._images = images
        self._blocks: dict[int, list[Multivector]] | None = None

    @property
    def blocks(self) -> dict[int, list[Multivector]]:
        """Read-only view: the columns of each degree in basis order, forms on
        the table's dicts, every zero column the one shared empty column."""
        if self._blocks is None:
            images = self._images
            self._blocks = {
                k: [Multivector(_masks=images[m]) if m in images else _EMPTY_COLUMN
                    for m in masks]
                for k, masks in self.basis._masks.items()
            }
        return self._blocks

    @classmethod
    def from_function(
        cls, shift: int, basis: Basis, fn: Callable[[int], dict[int, Coeff]]
    ) -> "GradedOperator":
        """Column ``fn(mask)`` for each basis blade: a new dict, target mask ->
        coefficient, whose zero coefficients are dropped."""
        images: dict[int, dict[int, Coeff]] = {}
        for m in chain.from_iterable(basis._masks.values()):
            column = fn(m)
            if not all(column.values()):
                column = {t: c for t, c in column.items() if c}
            if column:
                images[m] = column
        # On a term of the wrong degree, the first column (in basis order) with one.
        if {t.bit_count() - m.bit_count() for m, column in images.items() for t in column} - {shift}:
            m, column = next(
                (m, column) for m, column in images.items()
                if any(t.bit_count() - m.bit_count() != shift for t in column)
            )
            degrees = sorted({t.bit_count() for t in column})
            if len(degrees) > 1:
                raise ValueError(f"form is not homogeneous: degrees {degrees}")
            k = m.bit_count()
            raise ValueError(
                f"image of degree-{k} blade has degree {degrees[0]}, expected {k + shift}"
            )
        return cls(shift, basis, images)

    @classmethod
    def identity(cls, basis: Basis) -> "GradedOperator":
        return cls.from_function(0, basis, lambda m: {m: 1})

    @classmethod
    def zero(cls, basis: Basis, shift: int = 0) -> "GradedOperator":
        return cls.from_function(shift, basis, lambda m: {})

    def apply(self, mv: Multivector) -> Multivector:
        images = self._images
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

    def scale(self, scalar: Coeff) -> "GradedOperator":
        images = self._images if scalar else {}
        return GradedOperator(self.shift, self.basis, {
            m: {t: scalar * c for t, c in column.items()} for m, column in images.items()
        })

    def __eq__(self, other: object) -> bool:
        """Same shift, same blades and the same image table."""
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return (self.shift, self.basis.indices, self._images) == (
            other.shift, other.basis.indices, other._images)


# The one empty column of every ``blocks`` view, and the image of a blade
# missing from a table.
_EMPTY_COLUMN = Multivector.zero()
_NO_TERMS: dict[int, Coeff] = {}


def _product(a: GradedOperator, b: GradedOperator, sign: int) -> GradedOperator:
    """a b + sign * b a, with sign 0 for the composite a b alone.

    Entry by entry over the nonzero columns only: every product term adds to
    one dict for the whole operator, keyed by source mask shifted past the
    basis width, OR target mask.  The nonzero entries are then split back
    into per-source columns, the result's image table.
    """
    if a.basis is not b.basis:
        raise ValueError("operators on different bases have no product")
    basis = a.basis
    width = max(basis.indices, default=-1) + 1
    acc: dict[int, Coeff] = {}
    get = acc.get
    passes = [(a._images, b._images, 1)]
    if sign:
        passes.append((b._images, a._images, sign))
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
    return GradedOperator(a.shift + b.shift, basis, columns)


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

    @cached_property
    def _every_blade(self) -> Multivector:
        """The sum of the blades of the full basis."""
        return Multivector(_masks=dict.fromkeys(chain.from_iterable(self.full._masks.values()), 1))

    @_cached
    def l(self, a: int) -> GradedOperator:
        """Wedge with eta_a (degree +1), signs from one ``wedge`` of every blade."""
        bit = 1 << contact.eta_index(self.dims, a)
        signs = wedge(Multivector(_masks={bit: 1}), self._every_blade)._terms
        return GradedOperator.from_function(
            +1, self.full, lambda m: {} if m & bit else {m | bit: signs[m | bit]}
        )

    @_cached
    def lam(self, a: int) -> GradedOperator:
        """Contraction with the Reeb vector xi_a (degree -1), signs from one
        ``interior`` of every blade."""
        idx = contact.eta_index(self.dims, a)
        bit = 1 << idx
        signs = interior(idx, self._every_blade)._terms
        return GradedOperator.from_function(
            -1, self.full, lambda m: {m ^ bit: signs[m ^ bit]} if m & bit else {}
        )

    @_cached
    def e(self, a: int) -> GradedOperator:
        """Projection onto blades containing eta_a (l_a after lambda_a)."""
        return self.l(a).compose(self.lam(a))

    def _wedge_xi(self, a: int, basis: Basis) -> GradedOperator:
        """``wedge(Xi_a, -)`` on the mask, with Xi_a's ``_flips`` taken once.
        Distinct blades of Xi_a missing the blade land on distinct blades."""
        terms = contact.xi_form(self.dims, a, self.table)._terms
        xi = [(x, c, _flips(x)) for x, c in terms.items()]
        return GradedOperator.from_function(+2, basis, lambda m: {
            x | m: -c if (m & flips).bit_count() & 1 else c
            for x, c, flips in xi
            if not x & m
        })

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
        """Adjoint of L_a by star conjugation (degree -2): each blade starred,
        sent through ``L_full``'s table and starred back, the star's signs from
        one ``hodge_star`` per degree.  The star needs the whole coframe, so
        this one lives on the full basis only."""
        full = (1 << self.dims.dim) - 1
        signs = {}  # blade -> the sign of its star, the complement blade
        for masks in self.full._masks.values():
            starred = hodge_star(Multivector(_masks=dict.fromkeys(masks, 1)), self.dims)
            signs.update((full ^ image, sign) for image, sign in starred._terms.items())
        images = self.L_full(a)._images
        return GradedOperator.from_function(-2, self.full, lambda m: {
            full ^ t: signs[m] * c * signs[t] for t, c in images.get(full ^ m, _NO_TERMS).items()
        })

    def _double_contraction(self, a: int, basis: Basis) -> GradedOperator:
        """Sum of the frame contractions i_first i_second over the structure
        pairs of ``a`` but the eta pair, one pass over the pairs per blade."""
        negative = contact._negative_slots(self.dims)
        pairs = [
            (1 << first, 1 << second)
            for first, second in contact.structure_pairs(self.dims, a)[:-1]
        ]
        # Distinct pairs contract a blade to distinct blades.
        return GradedOperator.from_function(-2, basis, lambda m: {
            m ^ first ^ second: -1 if (
                _contraction_parity(m, second)
                ^ _contraction_parity(m ^ second, first)
                ^ ((first | second) & negative).bit_count()
            ) & 1 else 1
            for first, second in pairs
            if m & first and m & second
        })

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
        # Contract the slot out, then move the factor in from the front.  The
        # terms replace distinct slots by other slots: no two images coincide.
        return GradedOperator.from_function(0, self.hor, lambda m: {
            inner | factor: -1 if (
                odd ^ _contraction_parity(m, bit) ^ _contraction_parity(inner, factor)
            ) else 1
            for factor, bit, odd in terms
            if m & bit and not (inner := m ^ bit) & factor
        })

    @property
    @_cached
    def H(self) -> GradedOperator:
        """Degree weight 2n - k on the eta-free sector."""
        n = self.dims.n
        return GradedOperator.from_function(0, self.hor, lambda m: {m: 2 * n - m.bit_count()})

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

        def column(m: int) -> dict[int, Coeff]:
            acc: dict[int, Coeff] = {}
            factors = [1 << i for i in range(m.bit_length()) if m >> i & 1]
            for chosen in combinations(factors, s):
                sign, image = _pull_back(m, row, sum(chosen))
                if sign:
                    acc[image] = acc.get(image, 0) + sign
            return acc

        return GradedOperator.from_function(0, self.hor, column)

    @_cached
    def I(self, a: int) -> GradedOperator:
        """Full substitution: the pullback of a form of any degree, every
        factor of the blade replaced, as in ``contact.phi_star``."""
        row = self.table.entries[a]

        def column(m: int) -> dict[int, Coeff]:
            sign, image = _pull_back(m, row, m)
            return {image: sign} if sign else {}

        return GradedOperator.from_function(0, self.hor, column)

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
