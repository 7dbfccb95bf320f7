"""Graded operators on the blade algebra, materialized as per-degree blocks.

Identity verification downstream reduces to exact equality of these blocks;
at the ranks exercised here (n <= 3) every carrier is desk-scale, so the
operators are stored column-by-column as multivector images of basis blades.

Two carriers appear: the full blade algebra, and the eta-free ("horizontal")
sector spanned by blades missing all three Reeb one-forms.  The wedge and
contraction operators built from horizontal data preserve the sector, which
is what lets the degree-weight and substitution operators live there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable

from . import contact
from .contact import PhiStarTable, cyclic, phi_zeta_index, zeta_index
from .exterior import Blade, ModelDims, Multivector, hodge_star, interior, wedge


class Basis:
    """Ordered blade basis over a fixed index set, graded by degree."""

    def __init__(self, indices: Iterable[int]):
        self.indices = tuple(sorted(indices))
        self._blades = {
            k: tuple(combinations(self.indices, k))
            for k in range(len(self.indices) + 1)
        }
        self._positions = {
            k: {blade: i for i, blade in enumerate(blades)}
            for k, blades in self._blades.items()
        }

    @property
    def max_degree(self) -> int:
        return len(self.indices)

    def degrees(self) -> range:
        return range(self.max_degree + 1)

    def blades(self, k: int) -> tuple[Blade, ...]:
        return self._blades.get(k, ())

    def position(self, blade: Blade) -> int:
        return self._positions[len(blade)][blade]


def full_basis(dims: ModelDims) -> Basis:
    return Basis(range(dims.dim))


def horizontal_basis(dims: ModelDims) -> Basis:
    return Basis(range(dims.horizontal_dim))


class GradedOperator:
    """A degree-homogeneous linear operator stored as per-degree columns."""

    __slots__ = ("name", "shift", "basis", "blocks")

    def __init__(self, name: str, shift: int, basis: Basis,
                 blocks: dict[int, list[Multivector]]):
        self.name = name
        self.shift = shift
        self.basis = basis
        self.blocks = blocks

    @classmethod
    def from_function(
        cls,
        name: str,
        shift: int,
        basis: Basis,
        fn: Callable[[Multivector], Multivector],
    ) -> "GradedOperator":
        blocks: dict[int, list[Multivector]] = {}
        for k in basis.degrees():
            cols = []
            for blade in basis.blades(k):
                image = fn(Multivector.blade(blade))
                if image and image.degree() != k + shift:
                    raise ValueError(
                        f"{name}: image of degree-{k} blade has degree "
                        f"{image.degree()}, expected {k + shift}"
                    )
                cols.append(image)
            blocks[k] = cols
        return cls(name, shift, basis, blocks)

    @classmethod
    def identity(cls, basis: Basis, name: str = "id") -> "GradedOperator":
        return cls.from_function(name, 0, basis, lambda mv: mv)

    @classmethod
    def zero(cls, basis: Basis, shift: int = 0, name: str = "0") -> "GradedOperator":
        return cls.from_function(name, shift, basis, lambda mv: Multivector.zero())

    def apply(self, mv: Multivector) -> Multivector:
        out = Multivector.zero()
        for blade, coeff in mv.terms.items():
            column = self.blocks[len(blade)][self.basis.position(blade)]
            if column:
                out = out + coeff * column
        return out

    def column(self, blade: Blade) -> Multivector:
        return self.blocks[len(blade)][self.basis.position(blade)]

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self after other."""
        blocks = {
            k: [self.apply(col) for col in cols]
            for k, cols in other.blocks.items()
        }
        return GradedOperator(
            f"{self.name}*{other.name}", self.shift + other.shift, self.basis, blocks
        )

    def _binary(self, other: "GradedOperator", op, sym: str) -> "GradedOperator":
        if self.shift != other.shift:
            raise ValueError(f"shift mismatch: {self.shift} vs {other.shift}")
        blocks = {
            k: [op(a, b) for a, b in zip(cols, other.blocks[k])]
            for k, cols in self.blocks.items()
        }
        return GradedOperator(f"{self.name}{sym}{other.name}", self.shift, self.basis, blocks)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return self._binary(other, lambda a, b: a + b, "+")

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self._binary(other, lambda a, b: a - b, "-")

    def __neg__(self) -> "GradedOperator":
        return self.scale(-1)

    def scale(self, scalar) -> "GradedOperator":
        c = Fraction(scalar)
        blocks = {k: [c * col for col in cols] for k, cols in self.blocks.items()}
        return GradedOperator(f"{scalar}*{self.name}", self.shift, self.basis, blocks)

    def is_zero(self) -> bool:
        return all(not col for cols in self.blocks.values() for col in cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.shift == other.shift and self.blocks == other.blocks

    def first_difference(
        self, other: "GradedOperator"
    ) -> tuple[int, Blade, Multivector, Multivector] | None:
        """First (degree, blade) where the two operators disagree."""
        if self.shift != other.shift:
            raise ValueError("operators of different shifts are never equal")
        for k in sorted(self.blocks):
            for blade, a, b in zip(self.basis.blades(k), self.blocks[k], other.blocks[k]):
                if a != b:
                    return k, blade, a, b
        return None


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return a.compose(b) - b.compose(a)


def anticommutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return a.compose(b) + b.compose(a)


# ---------------------------------------------------------------------------
# Operator constructors
# ---------------------------------------------------------------------------


def op_l(dims: ModelDims, alpha: int, basis: Basis | None = None) -> GradedOperator:
    """Wedge with eta_alpha (degree +1)."""
    basis = basis or full_basis(dims)
    eta = Multivector.blade((contact.eta_index(dims, alpha),))
    return GradedOperator.from_function(
        f"l{alpha}", +1, basis, lambda mv: wedge(eta, mv)
    )


def op_lambda(dims: ModelDims, alpha: int, basis: Basis | None = None) -> GradedOperator:
    """Contraction with the Reeb vector xi_alpha (degree -1)."""
    basis = basis or full_basis(dims)
    idx = contact.eta_index(dims, alpha)
    return GradedOperator.from_function(
        f"lambda{alpha}", -1, basis, lambda mv: interior(idx, mv)
    )


def op_L(
    dims: ModelDims,
    alpha: int,
    basis: Basis | None = None,
    table: PhiStarTable | None = None,
) -> GradedOperator:
    """Wedge with the horizontal two-form (degree +2)."""
    basis = basis or full_basis(dims)
    xi = contact.xi_form(dims, alpha, table)
    return GradedOperator.from_function(f"L{alpha}", +2, basis, lambda mv: wedge(xi, mv))


def op_Lambda_star(
    dims: ModelDims,
    alpha: int,
    basis: Basis | None = None,
    table: PhiStarTable | None = None,
) -> GradedOperator:
    """Adjoint of L_alpha obtained by star conjugation (degree -2).

    Only defined on the full basis: the star needs the whole coframe.
    """
    basis = basis or full_basis(dims)
    if basis.indices != tuple(range(dims.dim)):
        raise ValueError("star conjugation requires the full blade basis")
    xi = contact.xi_form(dims, alpha, table)

    def fn(mv: Multivector) -> Multivector:
        return hodge_star(wedge(xi, hodge_star(mv, dims)), dims)

    return GradedOperator.from_function(f"Lambda{alpha}*", -2, basis, fn)


def op_Lambda(
    dims: ModelDims, alpha: int, basis: Basis | None = None
) -> GradedOperator:
    """Adjoint of L_alpha as the explicit double-contraction sum (degree -2)."""
    basis = basis or full_basis(dims)
    _, beta, gamma = cyclic(alpha)
    pairs = []
    for s in range(1, dims.n + 1):
        pairs.append((zeta_index(dims, s), phi_zeta_index(dims, alpha, s)))
        pairs.append((phi_zeta_index(dims, beta, s), phi_zeta_index(dims, gamma, s)))

    def fn(mv: Multivector) -> Multivector:
        out = Multivector.zero()
        for first, second in pairs:
            out = out + contact.frame_interior(
                dims, first, contact.frame_interior(dims, second, mv)
            )
        return out

    return GradedOperator.from_function(f"Lambda{alpha}", -2, basis, fn)


def op_K(dims: ModelDims, alpha: int, basis: Basis | None = None) -> GradedOperator:
    """Degree-0 wedge/contraction sum arising as [L_alpha, Lambda_beta] pieces."""
    basis = basis or horizontal_basis(dims)
    _, beta, gamma = cyclic(alpha)
    terms = []  # (wedge slot, contraction slot, scalar)
    for s in range(1, dims.n + 1):
        z = zeta_index(dims, s)
        pa = phi_zeta_index(dims, alpha, s)
        pb = phi_zeta_index(dims, beta, s)
        pg = phi_zeta_index(dims, gamma, s)
        terms.append((pa, z, 1))
        terms.append((z, pa, 1))
        terms.append((pg, pb, 1))
        terms.append((pb, pg, -1))

    def fn(mv: Multivector) -> Multivector:
        out = Multivector.zero()
        for wslot, cslot, scalar in terms:
            contracted = contact.frame_interior(dims, cslot, mv)
            if contracted:
                out = out + scalar * wedge(Multivector.blade((wslot,)), contracted)
        return out

    return GradedOperator.from_function(f"K{alpha}", 0, basis, fn)


def op_H(dims: ModelDims, basis: Basis | None = None) -> GradedOperator:
    """Degree weight 2n - k on the eta-free sector."""
    basis = basis or horizontal_basis(dims)

    def fn(mv: Multivector) -> Multivector:
        k = mv.degree()
        if k is None:
            return mv
        return Fraction(2 * dims.n - k) * mv

    return GradedOperator.from_function("H", 0, basis, fn)


def substitute_blade(
    dims: ModelDims,
    table: PhiStarTable,
    alpha: int,
    blade: Blade,
    positions: tuple[int, ...],
) -> Multivector:
    """Apply the pullback to the chosen factors of a blade, in place.

    Each selected slot is replaced by its pullback image; the result is
    re-sorted with the usual wedge signs, and vanishes on repeated factors.
    """
    chosen = set(positions)
    indices: list[int] = []
    sign = 1
    for pos, idx in enumerate(blade):
        if pos in chosen:
            hit = table.image(alpha, idx)
            if hit is None:
                return Multivector.zero()
            img, s = hit
            sign *= s
            indices.append(img)
        else:
            indices.append(idx)
    if len(set(indices)) != len(indices):
        return Multivector.zero()
    # Parity of the sort permutation.
    inversions = sum(
        1
        for a in range(len(indices))
        for b in range(a + 1, len(indices))
        if indices[a] > indices[b]
    )
    if inversions % 2:
        sign = -sign
    return Multivector.blade(tuple(sorted(indices)), sign)


def op_K_s(
    dims: ModelDims,
    alpha: int,
    s: int,
    basis: Basis | None = None,
    table: PhiStarTable | None = None,
) -> GradedOperator:
    """s-fold substitution operator on the eta-free sector.

    Sends a blade to the sum over all s-subsets of its factors of the blade
    with those factors replaced by their pullback images.  Substituting zero
    factors is the identity; one factor gives the derivation extension of the
    pullback; substituting more factors than the degree gives zero.
    """
    if s < 0:
        raise ValueError("substitution count must be nonnegative")
    basis = basis or horizontal_basis(dims)
    table = table if table is not None else PhiStarTable.build(dims)

    def fn(mv: Multivector) -> Multivector:
        out = Multivector.zero()
        for blade, coeff in mv.terms.items():
            for positions in combinations(range(len(blade)), s):
                piece = substitute_blade(dims, table, alpha, blade, positions)
                if piece:
                    out = out + coeff * piece
        return out

    return GradedOperator.from_function(f"K{alpha},{s}", 0, basis, fn)


def op_I(
    dims: ModelDims,
    alpha: int,
    basis: Basis | None = None,
    table: PhiStarTable | None = None,
) -> GradedOperator:
    """Full substitution: the pullback applied to every factor of a blade."""
    basis = basis or horizontal_basis(dims)
    table = table if table is not None else PhiStarTable.build(dims)

    def fn(mv: Multivector) -> Multivector:
        out = Multivector.zero()
        for blade, coeff in mv.terms.items():
            piece = substitute_blade(dims, table, alpha, blade, tuple(range(len(blade))))
            if piece:
                out = out + coeff * piece
        return out

    return GradedOperator.from_function(f"I{alpha}", 0, basis, fn)


class OperatorSet:
    """Lazily built cache of the operators of one model.

    Each operator is materialized once, on first use; the identity suite and
    the so(4,1) module check both take theirs from here.
    """

    def __init__(self, dims: ModelDims, table: PhiStarTable | None = None):
        self.dims = dims
        self.table = table if table is not None else PhiStarTable.build(dims)
        self._cache: dict = {}

    @cached_property
    def full(self) -> Basis:
        return full_basis(self.dims)

    @cached_property
    def hor(self) -> Basis:
        return horizontal_basis(self.dims)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def l(self, a):
        return self._get(("l", a), lambda: op_l(self.dims, a, self.full))

    def lam(self, a):
        return self._get(("lam", a), lambda: op_lambda(self.dims, a, self.full))

    def e(self, a):
        """Projection onto blades containing eta_a (l_a after lambda_a)."""
        return self._get(("e", a), lambda: self.l(a).compose(self.lam(a)))

    def L_full(self, a):
        return self._get(("Lf", a), lambda: op_L(self.dims, a, self.full, self.table))

    def Lambda_star(self, a):
        return self._get(
            ("Lsf", a), lambda: op_Lambda_star(self.dims, a, self.full, self.table)
        )

    def Lambda_full(self, a):
        return self._get(("Lcf", a), lambda: op_Lambda(self.dims, a, self.full))

    def L(self, a):
        return self._get(("L", a), lambda: op_L(self.dims, a, self.hor, self.table))

    def Lam(self, a):
        return self._get(("Lam", a), lambda: op_Lambda(self.dims, a, self.hor))

    def K(self, a):
        return self._get(("K", a), lambda: op_K(self.dims, a, self.hor))

    def K_s(self, a, s):
        return self._get(("Ks", a, s), lambda: op_K_s(self.dims, a, s, self.hor, self.table))

    def I(self, a):
        return self._get(("I", a), lambda: op_I(self.dims, a, self.hor, self.table))

    @property
    def H(self):
        return self._get("H", lambda: op_H(self.dims, self.hor))

    @property
    def id_full(self):
        return self._get("idf", lambda: GradedOperator.identity(self.full))

    @property
    def id_hor(self):
        return self._get("idh", lambda: GradedOperator.identity(self.hor))

    def zero_full(self, shift=0):
        return self._get(("0f", shift), lambda: GradedOperator.zero(self.full, shift))

    def zero_hor(self, shift=0):
        return self._get(("0h", shift), lambda: GradedOperator.zero(self.hor, shift))
