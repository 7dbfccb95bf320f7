"""Graded operators on the blade algebra, stored as image tables.

An operator is stored whole, as one image table: the source mask of each
nonzero column -> that column's mask dict, target mask -> nonzero
coefficient (n <= 3 keeps every carrier desk-scale).  Equal operators have
equal tables, so a whole identity is one dict comparison.  Two carriers
appear: the full blade algebra, and the eta-free ("horizontal") sector
spanned by blades missing all three Reeb one-forms, which the operators built
from horizontal data preserve.

``from_function`` keeps the nonzero columns of a column function on the blade
mask; only I_a goes through it, every other operator writes its table
directly.  ``diagonal`` writes {m: {m: w}} for a weight of the degree.
An operator is diagonal when its shift is 0 and every column is {m: w}; a
cached flag, found from the table on first use, records it.  ``_product`` is
the one sum-of-products routine: it takes (scalar, outer, inner) terms, so
``compose``, both brackets and any sum of composites are one call.  When
every term is an operator times a diagonal it is one scaling pass over each
such operator's table; otherwise it splits into columns the ``_packed_sum``,
under the one key source << width | target that ``_flatten`` also writes and
the so(4,1) check reads directly.  ``_replacements`` is the one
slot-replacement rule of L_a, Lambda_a and K_a: a (r, w, c) term writes a
blade as r times the kept slots, r's slots in ascending order, drops r and
puts w in front, times c; each term checks its degree once and adds into the
table on just the blades it reads, so columns come in the order of the terms.
I_a, which replaces every factor of a blade, goes through ``_pull_back``; the
K_{a,s}, which replace s of them, share no code with it, as one recursion over
each blade's lowest factor writes all of them.  l_a, lambda_a and the star
send distinct blades to distinct blades, so their signs come from one
``wedge``, ``interior`` or ``hodge_star`` of a sum of blades.

``blocks`` (the ``Multivector`` columns of each degree, in basis order) is a
read-only view built on first read.  Only the tests and the benchmark's
operator counters read it; deleting it waits for a benchmark revision that
counts the table.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import chain
from typing import Callable, Iterable

from . import contact
from .contact import PhiStarTable, cyclic, phi_zeta_index, zeta_index
from .exterior import (
    Basis, Coeff, ModelDims, Multivector, _flips, _mask_of, _pull_back, hodge_star, interior,
    wedge,
)

# The quaternionic ranks n of the identity suite and the so(4,1) module check.
SUPPORTED_RANKS = (1, 2, 3)


class GradedOperator:
    """A degree-homogeneous linear operator stored as its image table, which
    holds no empty column and no zero coefficient; a blade missing from it has
    an empty column."""

    __slots__ = ("shift", "basis", "_images", "_blocks", "_diagonal")

    def __init__(self, shift: int, basis: Basis, images: dict[int, dict[int, Coeff]]):
        self.shift = shift
        self.basis = basis
        self._images = images
        self._blocks: dict[int, list[Multivector]] | None = None
        # Whether every column is {m: w}, found on first use in ``_product``.
        self._diagonal: bool | None = None

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
        images = _nonzero({m: fn(m) for m in chain.from_iterable(basis._masks.values())})
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
    def diagonal(cls, basis: Basis, weight: Callable[[int], Coeff]) -> "GradedOperator":
        """Degree 0: each blade of degree k times ``weight(k)``, in basis order;
        the columns of a zero weight are empty."""
        images = {}
        for k, masks in basis._masks.items():
            w = weight(k)
            if w:
                images.update((m, {m: w}) for m in masks)
        op = cls(0, basis, images)
        op._diagonal = True
        return op

    @classmethod
    def identity(cls, basis: Basis) -> "GradedOperator":
        return cls.diagonal(basis, lambda k: 1)

    @classmethod
    def zero(cls, basis: Basis, shift: int = 0) -> "GradedOperator":
        return cls(shift, basis, {})

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
        return _product((1, self, other))

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


def _product(*terms: tuple[Coeff, GradedOperator, GradedOperator]) -> GradedOperator:
    """The sum of ``scalar * outer inner`` over the (scalar, outer, inner) terms.

    When every term is an operator times a diagonal, the result is one
    scaling pass per such operator's table (``_scaled_copy``).  Otherwise it
    is the ``_packed_sum`` of the terms, its nonzero entries split back into
    per-source columns, the result's image table.
    """
    _, first, second = terms[0]
    basis, shift = first.basis, first.shift + second.shift
    for _, outer, inner in terms:
        if outer.basis is not basis or inner.basis is not basis:
            raise ValueError("operators on different bases have no product")
        if outer.shift + inner.shift != shift:
            raise ValueError("products of different shifts have no sum")
    scaled = _scaled_copy(terms)
    if scaled is not None:
        return GradedOperator(shift, basis, scaled)
    width = _width(basis)
    low = (1 << width) - 1
    columns: dict[int, dict[int, Coeff]] = {}
    for key, c in _packed_sum(terms, width).items():
        if c:
            source = key >> width
            if source in columns:
                columns[source][key & low] = c
            else:
                columns[source] = {key & low: c}
    return GradedOperator(shift, basis, columns)


def _width(basis: Basis) -> int:
    """The bits of a target mask, below the source in a packed key."""
    return max(basis.indices, default=-1) + 1


def _packed_sum(terms: Iterable[tuple], width: int) -> dict[int, Coeff]:
    """The sum of the (scalar, outer, inner) terms' ``scalar * outer inner`` as
    one dict keyed source << width | target, which orders as the (source,
    target) pairs; entries whose terms cancel stay, as 0."""
    acc: dict[int, Coeff] = {}
    get = acc.get
    for scalar, outer, inner in terms:
        outer = outer._images
        for source, column in inner._images.items():
            source <<= width
            for middle, coeff in column.items():
                image = outer.get(middle)
                if image is not None:
                    coeff *= scalar
                    for target, c in image.items():
                        key = source | target
                        acc[key] = get(key, 0) + coeff * c
    return acc


def _flatten(op: GradedOperator) -> dict[int, Coeff]:
    """The operator's entries as one sparse vector under the packed key."""
    width = _width(op.basis)
    return {m << width | t: c for m, column in op._images.items() for t, c in column.items()}


def _is_diagonal(op: GradedOperator) -> bool:
    """Whether op has shift 0 and every column {m: w}; found once per operator."""
    if op._diagonal is None:
        op._diagonal = op.shift == 0 and all(
            len(column) == 1 and m in column for m, column in op._images.items()
        )
    return op._diagonal


def _scaled_copy(
    terms: tuple[tuple[Coeff, GradedOperator, GradedOperator], ...]
) -> dict[int, dict[int, Coeff]] | None:
    """The table of the sum when every term is an operator X after a diagonal
    or a diagonal after X, X free to differ between terms; None otherwise.

    Each entry (m -> t) of each X is multiplied by the sum of scalar * w(m)
    over X's terms with the diagonal inner and of scalar * w(t) over those
    with it outer, w read from the diagonal's table; the scaled entries of
    every X are added into one table, zero entries and empty columns dropped.
    """
    # id(X) -> (X, m -> sum of scalar * w(m), t -> sum of scalar * w(t))
    weights: dict[int, tuple] = {}
    for scalar, outer, inner in terms:
        # X is the factor that is not diagonal; of two diagonals, one met before.
        if _is_diagonal(outer) and (id(inner) in weights or not _is_diagonal(inner)):
            x, diagonal, side = inner, outer, 2
        elif _is_diagonal(inner):
            x, diagonal, side = outer, inner, 1
        else:
            return None
        sums = weights.setdefault(id(x), (x, {}, {}))[side]
        for m, column in diagonal._images.items():
            sums[m] = sums.get(m, 0) + scalar * column[m]
    (x, sources, targets), *rest = weights.values()
    columns: dict[int, dict[int, Coeff]] = {}
    if not any(targets.values()):
        for m, column in x._images.items():
            a = sources.get(m)
            if a:
                columns[m] = dict(column) if a == 1 else {t: a * c for t, c in column.items()}
    else:
        for m, column in x._images.items():
            a = sources.get(m, 0)
            scaled = {}
            for t, c in column.items():
                factor = a + targets.get(t, 0)
                if factor:
                    scaled[t] = factor * c
            if scaled:
                columns[m] = scaled
    for x, sources, targets in rest:  # each further X added entry by entry
        for m, column in x._images.items():
            a = sources.get(m, 0)
            total = columns.setdefault(m, {})
            for t, c in column.items():
                if entry := total.get(t, 0) + (a + targets.get(t, 0)) * c:
                    total[t] = entry
                else:
                    total.pop(t, None)
            if not total:
                del columns[m]
    return columns


def _replacements(
    shift: int, basis: Basis, terms: list[tuple[int, int, Coeff]]
) -> GradedOperator:
    """The sum of the slot replacements over the (r, w, c) terms.

    A blade m holding the slots r, whose kept slots m ^ r miss w, is written
    as r times the kept slots, r's slots in ascending order; r is dropped and
    w put in front, so the image is c times the blade of kept | w, negated
    once for each kept slot below an odd number of r's slots and once for
    each below an odd number of w's.  A term of shift |w| - |r| other than
    ``shift`` raises ValueError; a zero term, or one with a slot outside the
    basis, writes nothing.  Each term walks only its blades, the kept slots
    running over the submasks of the basis outside r | w; images that two
    terms share add, and sums of zero are dropped.
    """
    every = _mask_of(basis.indices)
    images: dict[int, dict[int, Coeff]] = {}
    for r, w, c in terms:
        if w.bit_count() - r.bit_count() != shift:
            raise ValueError(f"a term of shift {w.bit_count() - r.bit_count()}, expected {shift}")
        if not c or (r | w) & ~every:
            continue
        free, swap, flips = every & ~(r | w), r ^ w, (_flips(r) ^ _flips(w)) & ~r
        kept = free
        while True:
            m = r | kept
            image, coeff = m ^ swap, -c if (kept & flips).bit_count() & 1 else c
            column = images.get(m)
            if column is None:
                images[m] = {image: coeff}
            elif total := column.get(image, 0) + coeff:
                column[image] = total
            else:  # two terms cancel
                del column[image]
                if not column:
                    del images[m]
            if not kept:
                break
            kept = (kept - 1) & free
    return GradedOperator(shift, basis, images)


def _prepend(column: dict[int, Coeff], bit: int, sign: Coeff, images: dict[int, Coeff]) -> None:
    """Add sign times the slot ``bit`` put in front of each image t into column:
    negated when t has an odd number of slots below bit, dropped when t holds it."""
    below = bit - 1
    for t, c in images.items():
        if not t & bit:
            c = -sign * c if (t & below).bit_count() & 1 else sign * c
            column[t | bit] = column.get(t | bit, 0) + c


def _nonzero(columns: dict[int, dict[int, Coeff]]) -> dict[int, dict[int, Coeff]]:
    """The columns without their zero coefficients, empty columns dropped."""
    images = {}
    for m, column in columns.items():
        if not all(column.values()):
            column = {t: c for t, c in column.items() if c}
        if column:
            images[m] = column
    return images


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return _product((1, a, b), (-1, b, a))


def anticommutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return _product((1, a, b), (1, b, a))


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
        images = wedge(Multivector(_masks={bit: 1}), self._every_blade)._terms
        return GradedOperator(+1, self.full, {t ^ bit: {t: c} for t, c in images.items()})

    @_cached
    def lam(self, a: int) -> GradedOperator:
        """Contraction with the Reeb vector xi_a (degree -1), signs from one
        ``interior`` of every blade."""
        idx = contact.eta_index(self.dims, a)
        bit = 1 << idx
        images = interior(idx, self._every_blade)._terms
        return GradedOperator(-1, self.full, {t ^ bit: {t: c} for t, c in images.items()})

    @_cached
    def e(self, a: int) -> GradedOperator:
        """Projection onto blades containing eta_a (l_a after lambda_a)."""
        return self.l(a).compose(self.lam(a))

    def _xi_terms(self, a: int) -> list[tuple[int, int, Coeff]]:
        """Wedge with Xi_a: each of its blades put in front, nothing dropped."""
        return [(0, x, c) for x, c in contact.xi_form(self.dims, a, self.table)._terms.items()]

    @_cached
    def L_full(self, a: int) -> GradedOperator:
        """Wedge with the horizontal two-form Xi_a (degree +2)."""
        return _replacements(+2, self.full, self._xi_terms(a))

    @_cached
    def L(self, a: int) -> GradedOperator:
        """L_a on the eta-free sector, which it preserves."""
        return _replacements(+2, self.hor, self._xi_terms(a))

    @cached_property
    def _star_signs(self) -> dict[int, Coeff]:
        """Blade -> the sign of its star: one ``hodge_star`` per degree."""
        full = (1 << self.dims.dim) - 1
        signs = {}
        for masks in self.full._masks.values():
            starred = hodge_star(Multivector(_masks=dict.fromkeys(masks, 1)), self.dims)
            signs.update((full ^ image, sign) for image, sign in starred._terms.items())
        return signs

    @_cached
    def Lambda_star(self, a: int) -> GradedOperator:
        """Adjoint of L_a by star conjugation (degree -2): one pass over
        ``L_full``'s table, both ends of each entry starred.  The star needs
        the whole coframe, so this one lives on the full basis only."""
        full, signs = (1 << self.dims.dim) - 1, self._star_signs
        return GradedOperator(-2, self.full, {
            full ^ m: {full ^ t: signs[full ^ m] * c * signs[t] for t, c in column.items()}
            for m, column in self.L_full(a)._images.items()
        })

    def _lambda_terms(self, a: int) -> list[tuple[int, int, Coeff]]:
        """i_first i_second over the structure pairs of ``a`` but the eta pair,
        negated once per negative frame slot and once more when first < second
        (contracting in ascending order is then i_second i_first)."""
        negative = contact._negative_slots(self.dims)
        return [
            (1 << first | 1 << second, 0,
             -1 if (first < second) ^ (negative >> first ^ negative >> second) & 1 else 1)
            for first, second in contact.structure_pairs(self.dims, a)[:-1]
        ]

    @_cached
    def Lambda_full(self, a: int) -> GradedOperator:
        """Adjoint of L_a as the explicit double-contraction sum (degree -2)."""
        return _replacements(-2, self.full, self._lambda_terms(a))

    @_cached
    def Lam(self, a: int) -> GradedOperator:
        """Lambda_a on the eta-free sector, which it preserves."""
        return _replacements(-2, self.hor, self._lambda_terms(a))

    def _k_terms(self, a: int) -> list[tuple[int, int, Coeff]]:
        """K_a's 4n (contraction bit, wedge bit, sign) replacements: per s,
        zeta_s and phi_a zeta_s replace each other, phi_c zeta_s replaces
        phi_b zeta_s and minus phi_b zeta_s replaces phi_c zeta_s, each sign
        negated once more on a negative frame slot."""
        dims = self.dims
        negative = contact._negative_slots(dims)
        _, b, c = cyclic(a)
        terms = []
        for s in range(1, dims.n + 1):
            z = zeta_index(dims, s)
            pa = phi_zeta_index(dims, a, s)
            pb = phi_zeta_index(dims, b, s)
            pc = phi_zeta_index(dims, c, s)
            for factor, slot, odd in ((pa, z, 0), (z, pa, 0), (pc, pb, 0), (pb, pc, 1)):
                terms.append((1 << slot, 1 << factor, -1 if odd ^ (negative >> slot & 1) else 1))
        return terms

    @_cached
    def K(self, a: int) -> GradedOperator:
        """Degree-0 wedge/contraction sum on the eta-free sector, arising as
        [L_a, Lambda_b] pieces."""
        return _replacements(0, self.hor, self._k_terms(a))

    @cached_property
    def H(self) -> GradedOperator:
        """Degree weight 2n - k on the eta-free sector."""
        n = self.dims.n
        return GradedOperator.diagonal(self.hor, lambda k: 2 * n - k)

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
        every = self._substitutions(a)
        return every[min(s, len(every) - 1)]

    @_cached
    def _substitutions(self, a: int) -> tuple[GradedOperator, ...]:
        """K_{a,s} for s = 0 ... max_degree + 1 (the last one zero), by a
        recursion over each blade's lowest factor e: column s of e ^ rest is
        the image of e put in front of column s - 1 of rest, then e put in
        front of column s of rest, both built before it in basis order.  The
        columns the recursion reads keep their sums of zero, so every key
        lands where the enumeration of the s-subsets in ``combinations`` order
        first puts it; the tables drop them."""
        row = self.table.entries[a]
        by_size: list[dict[int, dict[int, Coeff]]] = [{} for _ in range(self.hor.max_degree + 2)]
        blades = chain.from_iterable(self.hor._masks.values())
        by_size[0][next(blades)] = {0: 1}  # the empty blade comes first
        for m in blades:
            low = m & -m
            rest, hit = m ^ low, row[low.bit_length() - 1]
            for s in range(m.bit_count() + 1):
                column: dict[int, Coeff] = {}
                if s and hit is not None:
                    _prepend(column, 1 << hit[0], hit[1], by_size[s - 1].get(rest, _NO_TERMS))
                _prepend(column, low, 1, by_size[s].get(rest, _NO_TERMS))
                if column:
                    by_size[s][m] = column
        return tuple(GradedOperator(0, self.hor, _nonzero(columns)) for columns in by_size)

    @_cached
    def I(self, a: int) -> GradedOperator:
        """Full substitution: the pullback of a form of any degree, every
        factor of the blade replaced, as in ``contact.phi_star``."""
        row = self.table.entries[a]

        def column(m: int) -> dict[int, Coeff]:
            sign, image = _pull_back(m, row)
            return {image: sign} if sign else {}

        return GradedOperator.from_function(0, self.hor, column)

    @cached_property
    def id_full(self) -> GradedOperator:
        return GradedOperator.identity(self.full)

    @cached_property
    def id_hor(self) -> GradedOperator:
        return GradedOperator.identity(self.hor)

    @_cached
    def zero_full(self, shift: int) -> GradedOperator:
        return GradedOperator.zero(self.full, shift)

    @_cached
    def zero_hor(self, shift: int) -> GradedOperator:
        return GradedOperator.zero(self.hor, shift)
