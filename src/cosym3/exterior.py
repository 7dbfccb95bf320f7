"""Exact exterior algebra over an ordered orthonormal coframe.

At the public boundary a blade is a strictly increasing tuple of coframe
indices in ``[0, dim)``.  Inside the kernel it is an ``int`` bitmask, bit i
set when slot i is a factor: the bitmap representation of Dorst, Fontijne and
Mann, *Geometric Algebra for Computer Science* (2007), ch. 19.  Two blades
overlap when their masks share a bit, and every reordering sign is the parity
of a popcount.  A form is a sparse map from blades to nonzero exact
coefficients: ``int`` where every step is integral (the whole operator
layer), ``Fraction`` where the code divides.  The identities verified
downstream are algebraic, and rounding would weaken them to approximations.

Orientation convention: the volume form is the full blade ``(0, ..., dim-1)``
with coefficient +1.  The blade order follows the coframe index order, so the
lexicographic order used for leading-blade arguments is plain tuple order.
Mask order is not that order ((0, 5) is mask 33, (1, 2) is mask 6), so
whatever is ordered for output sorts by tuple.  A ``Basis`` holds the masks
of each degree, listed in the tuple order of their blades; operator columns
and the cells of ``cellular`` are both indexed by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"rank must be a nonnegative int, got {self.n!r}")

    @property
    def dim(self) -> int:
        return 4 * self.n + 3

    @property
    def horizontal_dim(self) -> int:
        return 4 * self.n


class Basis:
    """Ordered blade basis over a fixed index set, graded by degree: masks,
    with the tuple blades and their positions as views built on first read."""

    def __init__(self, indices: Iterable[int]):
        self.indices = tuple(sorted(indices))
        _mask_of(self.indices)  # rejects repeated and negative indices
        bits = [1 << i for i in self.indices]
        self._masks = {k: tuple(map(sum, combinations(bits, k))) for k in self.degrees()}

    @property
    def max_degree(self) -> int:
        return len(self.indices)

    def degrees(self) -> range:
        return range(self.max_degree + 1)

    @cached_property
    def _blades(self) -> dict[int, tuple[Blade, ...]]:
        return {k: tuple(combinations(self.indices, k)) for k in self.degrees()}

    def blades(self, k: int) -> tuple[Blade, ...]:
        return self._blades.get(k, ())

    @cached_property
    def positions(self) -> dict[int, dict[Blade, int]]:
        """Per degree k, blade -> index in the degree-k column list: a blade
        of another degree is no key of that table."""
        return {k: {b: i for i, b in enumerate(blades)} for k, blades in self._blades.items()}


_EXACT = (int, Fraction)


def _mask_of(blade: Blade) -> int:
    """The mask of a blade, validated."""
    blade = tuple(blade)
    if any(nxt <= prev for nxt, prev in zip(blade[1:], blade)):
        raise ValueError(f"blade indices must be strictly increasing: {blade}")
    if blade and blade[0] < 0:
        raise ValueError(f"blade indices must be nonnegative: {blade}")
    mask = 0
    for i in blade:
        mask |= 1 << i
    return mask


def _blade_of(mask: int) -> Blade:
    blade = []
    while mask:
        low = mask & -mask
        blade.append(low.bit_length() - 1)
        mask ^= low
    return tuple(blade)


def _flips(mask: int) -> int:
    """The slots lying below an odd number of the slots of ``mask``.

    Moving a blade ``b`` to the right of ``mask`` passes the pairs
    (i in mask, j in b, i > j), so its sign is the parity of
    ``(b & _flips(mask)).bit_count()``.
    """
    flips = 0
    while mask:
        top = 1 << (mask.bit_length() - 1)
        flips ^= top - 1
        mask ^= top
    return flips


class Multivector:
    """Sparse form with exact coefficients.

    Built from a map of tuple blades to coefficients: ``int`` and
    ``Fraction`` coefficients are stored as given, anything else is
    converted to ``Fraction``, and zero coefficients are dropped.  The
    kernel stores mask -> coefficient (``_terms``) and builds its results
    through the private keyword ``_masks``; ``terms`` gives the tuple view.
    Instances are treated as immutable values; no operation mutates its
    operands, which keeps everything safe for concurrent use.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Blade, Coeff] | None = None,
        *,
        _masks: dict[int, Coeff] | None = None,
    ):
        if _masks is not None:
            # Kernel results: a fresh dict of valid masks and exact
            # coefficients, kept as it is unless it holds a zero.
            if all(_masks.values()):
                self._terms = _masks
            else:
                self._terms = {m: c for m, c in _masks.items() if c}
            return
        data: dict[int, Coeff] = {}
        if terms:
            for blade, coeff in terms.items():
                if type(coeff) not in _EXACT:
                    coeff = Fraction(coeff)
                if coeff:
                    data[_mask_of(blade)] = coeff
        self._terms = data

    @property
    def terms(self) -> dict[Blade, Coeff]:
        """The terms keyed by tuple blades, as a new dict."""
        return {_blade_of(m): c for m, c in self._terms.items()}

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
        degs = {m.bit_count() for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "Multivector") -> "Multivector":
        return _combine(((1, self), (1, other)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return _combine(((1, self), (-1, other)))

    def __neg__(self) -> "Multivector":
        return Multivector(_masks={m: -c for m, c in self._terms.items()})

    def __rmul__(self, scalar) -> "Multivector":
        c = scalar if type(scalar) in _EXACT else Fraction(scalar)
        return Multivector(_masks={m: c * v for m, v in self._terms.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for blade, coeff in sorted(self.terms.items()):
            name = "^".join(str(i) for i in blade) if blade else "1"
            bits.append(f"{coeff}*{name}")
        return " + ".join(bits)


def _combine(pairs: Iterable[tuple[Coeff, Multivector]]) -> Multivector:
    """The linear combination ``sum(scalar * form)``, accumulated in one pass."""
    acc: dict[int, Coeff] = {}
    get = acc.get
    for scalar, form in pairs:
        if scalar == 1:
            for m, coeff in form._terms.items():
                acc[m] = get(m, 0) + coeff
        else:
            if type(scalar) not in _EXACT:
                scalar = Fraction(scalar)
            for m, coeff in form._terms.items():
                acc[m] = get(m, 0) + scalar * coeff
    return Multivector(_masks=acc)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    acc: dict[int, Coeff] = {}
    get = acc.get
    b_terms = b._terms.items()
    for ma, ca in a._terms.items():
        flips = _flips(ma)
        for mb, cb in b_terms:
            if ma & mb:
                continue
            m = ma | mb
            if (mb & flips).bit_count() & 1:
                acc[m] = get(m, 0) - ca * cb
            else:
                acc[m] = get(m, 0) + ca * cb
    return Multivector(_masks=acc)


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
    return _interior(v, omega, 0)


def _interior(v: int, omega: Multivector, negate: int) -> Multivector:
    """``interior(v, omega)``, negated when ``negate`` is 1."""
    if v < 0:
        raise ValueError("coframe index must be nonnegative")
    bit = 1 << v
    # Distinct blades containing v contract to distinct blades: no sums.
    return Multivector(_masks={
        m ^ bit: -c if _contraction_parity(m, bit) ^ negate else c
        for m, c in omega._terms.items()
        if m & bit
    })


def _contraction_parity(mask: int, bit: int) -> int:
    """Sign parity of contracting the factor ``bit`` out of the blade ``mask``:
    the factor is first moved to the front, past the factors below it."""
    return (mask & (bit - 1)).bit_count() & 1


def _pull_back(mask: int, row: tuple) -> tuple[int, int]:
    """The blade ``mask`` with every factor i replaced by its image
    ``row[i] = (j, s)``, s times slot j, or None when killed: ``(sign, mask)``,
    with sign 0 when a factor is killed or two factors share an image.
    The rows are ``contact``'s pullbacks and ``cellular``'s twists.

    The images are taken in ascending factor order, each added to the right
    of what is built so far and moved past the slots above it: a popcount.
    """
    image = 0
    sign = 1
    moves = 0
    while mask:
        low = mask & -mask
        mask ^= low
        hit = row[low.bit_length() - 1]
        if hit is None:
            return 0, 0
        j, s = hit
        bit = 1 << j
        if image & bit:
            return 0, 0
        moves += (image >> j).bit_count()
        image |= bit
        sign *= s
    return (-sign if moves & 1 else sign), image


def hodge_star(omega: Multivector, dims: ModelDims) -> Multivector:
    """Hodge star for the orthonormal coframe, volume = the full blade.

    Requires homogeneous input; in odd total dimension the square of the
    star is the identity.  Placing a degree-k blade before its complement
    passes, for each factor i, the i - (its position) complement slots below
    it: the sign is the parity of the sum of the factors minus k(k-1)/2.
    """
    omega.degree()  # raises on non-homogeneous input
    dim = dims.dim
    full = (1 << dim) - 1
    odd_slots = int("10" * dim, 2)  # bits 1, 3, 5, ...
    acc: dict[int, Coeff] = {}
    for m, coeff in omega._terms.items():
        if m >> dim:
            raise ValueError(f"blade {_blade_of(m)} exceeds coframe size {dim}")
        k = m.bit_count()
        odd = ((m & odd_slots).bit_count() + k * (k - 1) // 2) & 1
        acc[full ^ m] = -coeff if odd else coeff
    return Multivector(_masks=acc)


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
    other = kvector._terms
    total = sum(c * other.get(m, 0) for m, c in omega._terms.items())
    return Fraction(total, factorial(k))


def leading_blade(omega: Multivector) -> Blade | None:
    """Lexicographically first blade with nonzero coefficient; None for 0."""
    if not omega._terms:
        return None
    return min(map(_blade_of, omega._terms))
