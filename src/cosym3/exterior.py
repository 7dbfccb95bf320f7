"""Exact exterior algebra over an ordered orthonormal coframe.

A blade is a strictly increasing tuple of coframe indices in ``[0, dim)``;
a form is a sparse map from blades to nonzero exact coefficients: ``int``
where every step is integral (the whole operator layer), ``Fraction`` where
the code divides.  The identities verified downstream are algebraic, and
rounding would weaken them to approximations.

Orientation convention: the volume form is the full blade ``(0, ..., dim-1)``
with coefficient +1.  The blade order follows the coframe index order, so the
lexicographic order used for leading-blade arguments is plain tuple order.
A ``Basis`` lists the blades of each degree in that order; operator columns
and the cells of ``cellular`` are both indexed by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Mapping

from .linalg import Coeff

Blade = tuple[int, ...]


@dataclass(frozen=True)
class ModelDims:
    """Coframe bookkeeping for quaternionic rank ``n``: total size 4n + 3."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("rank n must be nonnegative")

    @property
    def dim(self) -> int:
        return 4 * self.n + 3

    @property
    def horizontal_dim(self) -> int:
        return 4 * self.n


class Basis:
    """Ordered blade basis over a fixed index set, graded by degree."""

    def __init__(self, indices: Iterable[int]):
        self.indices = tuple(sorted(indices))
        self._blades = {
            k: tuple(combinations(self.indices, k))
            for k in range(len(self.indices) + 1)
        }
        # Blade -> index in its degree's column list; blades of different
        # degrees are different keys, so one dict serves every degree.
        self.positions = {
            blade: i for blades in self._blades.values() for i, blade in enumerate(blades)
        }

    @property
    def max_degree(self) -> int:
        return len(self.indices)

    def degrees(self) -> range:
        return range(self.max_degree + 1)

    def blades(self, k: int) -> tuple[Blade, ...]:
        return self._blades.get(k, ())


_EXACT = (int, Fraction)

# Every blade that has passed ``_as_blade`` in this process.  Validation is a
# pure function of the blade, so each distinct blade is checked once; only
# valid blades are ever added.
_VALID_BLADES: set[Blade] = set()


def _as_blade(indices: Iterable[int]) -> Blade:
    blade = tuple(indices)
    if any(nxt <= prev for nxt, prev in zip(blade[1:], blade)):
        raise ValueError(f"blade indices must be strictly increasing: {blade}")
    if blade and blade[0] < 0:
        raise ValueError(f"blade indices must be nonnegative: {blade}")
    return blade


class Multivector:
    """Sparse form with exact coefficients.

    ``int`` and ``Fraction`` coefficients are stored as given, anything else
    is converted to ``Fraction``; zero coefficients are dropped.  Instances are treated as immutable values; no operation mutates its
    operands, which keeps everything safe for concurrent use.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Blade, Coeff] | None = None):
        data: dict[Blade, Coeff] = {}
        if terms:
            valid = _VALID_BLADES
            for blade, coeff in terms.items():
                if type(coeff) not in _EXACT:
                    coeff = Fraction(coeff)
                if coeff:
                    if blade not in valid:
                        blade = _as_blade(blade)
                        valid.add(blade)
                    data[blade] = coeff
        self.terms = data

    @classmethod
    def zero(cls) -> "Multivector":
        return cls()

    @classmethod
    def scalar(cls, value: Coeff) -> "Multivector":
        return cls({(): value})

    @classmethod
    def blade(cls, indices: Iterable[int], coeff: Coeff = 1) -> "Multivector":
        return cls({tuple(indices): coeff})

    def degree(self) -> int | None:
        """Degree of a homogeneous form, None for zero, error when mixed."""
        degs = {len(b) for b in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Multivector") -> "Multivector":
        return _combine(((1, self), (1, other)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return _combine(((1, self), (-1, other)))

    def __neg__(self) -> "Multivector":
        return Multivector({b: -c for b, c in self.terms.items()})

    def __rmul__(self, scalar) -> "Multivector":
        c = scalar if type(scalar) in _EXACT else Fraction(scalar)
        return Multivector({b: c * v for b, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for blade, coeff in sorted(self.terms.items()):
            name = "^".join(str(i) for i in blade) if blade else "1"
            bits.append(f"{coeff}*{name}")
        return " + ".join(bits)


def _combine(pairs: Iterable[tuple[Coeff, Multivector]]) -> Multivector:
    """The linear combination ``sum(scalar * form)``, accumulated in one pass."""
    acc: dict[Blade, Coeff] = {}
    get = acc.get
    for scalar, form in pairs:
        if scalar == 1:
            for blade, coeff in form.terms.items():
                acc[blade] = get(blade, 0) + coeff
        else:
            for blade, coeff in form.terms.items():
                acc[blade] = get(blade, 0) + scalar * coeff
    return Multivector(acc)


def _merge_sign(a: Blade, b: Blade) -> tuple[int, Blade]:
    """Merge two blades; sign is the parity of the shuffle, 0 on overlap."""
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    acc: dict[Blade, Coeff] = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            sign, merged = _merge_sign(ba, bb)
            if sign:
                acc[merged] = acc.get(merged, 0) + sign * ca * cb
    return Multivector(acc)


def wedge_all(factors: Iterable[Multivector]) -> Multivector:
    result = Multivector.scalar(1)
    for f in factors:
        result = wedge(result, f)
    return result


def interior(v: int, omega: Multivector) -> Multivector:
    """Contraction with the vector dual to coframe slot ``v``.

    Antiderivation of degree -1; anticommutes with itself to zero, and
    ``{blade(v) ^ -, interior(v, -)} = id`` on the whole algebra.
    """
    if v < 0:
        raise ValueError("coframe index must be nonnegative")
    acc: dict[Blade, Coeff] = {}
    for blade, coeff in omega.terms.items():
        try:
            pos = blade.index(v)
        except ValueError:
            continue
        sign = -1 if pos % 2 else 1
        rest = blade[:pos] + blade[pos + 1 :]
        acc[rest] = acc.get(rest, 0) + sign * coeff
    return Multivector(acc)


def complement_sign(blade: Blade) -> int:
    """Parity of the shuffle placing ``blade`` before its complement."""
    inversions = sum(a - pos for pos, a in enumerate(blade))
    return -1 if inversions % 2 else 1


def hodge_star(omega: Multivector, dims: ModelDims) -> Multivector:
    """Hodge star for the orthonormal coframe, volume = the full blade.

    Requires homogeneous input; in odd total dimension the square of the
    star is the identity.
    """
    omega.degree()  # raises on non-homogeneous input
    dim = dims.dim
    acc: dict[Blade, Coeff] = {}
    for blade, coeff in omega.terms.items():
        if blade and blade[-1] >= dim:
            raise ValueError(f"blade {blade} exceeds coframe size {dim}")
        in_blade = set(blade)
        comp = tuple(i for i in range(dim) if i not in in_blade)
        acc[comp] = acc.get(comp, 0) + complement_sign(blade) * coeff
    return Multivector(acc)


def pairing(omega: Multivector, kvector: Multivector) -> Fraction:
    """Natural pairing of a k-form with a k-vector in the dual frame.

    For decomposables this is ``det[rho_i(V_j)] / k!``.  The evaluation
    matrix of the dual frame is the identity, so the determinant is 1 on
    equal blades and 0 otherwise, and the pairing is ``sum_b omega_b V_b / k!``.
    The 1/k! weight is the normalization that makes the unit coframe/frame
    pairs evaluate to 1/2 in degree two.
    """
    if not omega or not kvector:
        return Fraction(0)
    k = omega.degree()
    if k != kvector.degree():
        raise ValueError("pairing requires equal degrees")
    total = sum(c * kvector.terms.get(b, 0) for b, c in omega.terms.items())
    return Fraction(total, factorial(k))


def leading_blade(omega: Multivector) -> Blade | None:
    """Lexicographically first blade with nonzero coefficient; None for 0."""
    if not omega.terms:
        return None
    return min(omega.terms)
