"""Betti-number arithmetic and the rank bounds for the horizontal sector.

The full Betti numbers of a model of rank n are the (1, 3, 3, 1)-convolution
of the horizontal ones (equivalently, multiplication of the Poincare series
by (1+t)^3, the three Reeb circles).  A full sequence is a plain tuple of
ints: it is always such a convolution or a homology result, so it has no
invariants of its own to check.  Every constraint item comes from one of
two builders: "value divisible by 4", or "value >= bound" with its margin
rather than a bare boolean, since the torus saturates several of the bounds
and it is useful to see by how much everything else clears them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb

from . import contact
from .exterior import Blade, ModelDims, Multivector, leading_blade, wedge_all
from .linalg import sparse_rank

REEB_KERNEL = (1, 3, 3, 1)


@dataclass(frozen=True)
class HorizontalBettiSequence:
    """Dimensions of the eta-free sector by degree: length 4n + 1."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"rank must be a nonnegative int, got {self.n!r}")
        if len(self.values) != 4 * self.n + 1:
            raise ValueError(
                f"length must be 4n + 1 = {4 * self.n + 1}, got {len(self.values)}"
            )
        for v in self.values:
            if type(v) is not int:
                raise ValueError(f"Betti numbers are integers, got {v!r}")
            if v < 0:
                raise ValueError("Betti numbers are nonnegative")

    @classmethod
    def from_sector_counts(cls, dims: ModelDims) -> "HorizontalBettiSequence":
        """The torus model: C(4n, k) eta-free blades in degree k."""
        return cls(dims.n, tuple(comb(dims.horizontal_dim, k) for k in range(dims.horizontal_dim + 1)))

    def get(self, k: int) -> int:
        if 0 <= k < len(self.values):
            return self.values[k]
        return 0

    def is_palindromic(self) -> bool:
        return self.values == self.values[::-1]


def betti_from_horizontal(bh: HorizontalBettiSequence) -> tuple[int, ...]:
    """b_0 .. b_{4n+3}: the horizontal sequence convolved with (1, 3, 3, 1)."""
    return tuple(
        sum(REEB_KERNEL[i] * bh.get(k - i) for i in range(4)) for k in range(4 * bh.n + 4)
    )


@dataclass
class ConstraintItem:
    name: str
    ok: bool
    margin: int | None = None
    warning: bool = False
    detail: str = ""

@dataclass
class ConstraintReport:
    name: str
    items: list[ConstraintItem]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items if not item.warning)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _divisible_by_four(label: str, shown: str, value: int) -> ConstraintItem:
    """``label divisible by 4``, no margin; the detail reads ``shown=value, remainder=r``."""
    remainder = value % 4
    return ConstraintItem(
        f"{label} divisible by 4", remainder == 0, detail=f"{shown}={value}, remainder={remainder}"
    )


def _at_least(label: str, value: int, bound: int) -> ConstraintItem:
    """``label >= bound`` with margin value - bound; the detail reads ``label=value``."""
    margin = value - bound
    return ConstraintItem(f"{label} >= {bound}", margin >= 0, margin, detail=f"{label}={value}")


def check_divisibility(values: tuple[int, ...]) -> ConstraintReport:
    """b_{k-1} + b_k must be divisible by four for every odd k."""
    items = [
        _divisible_by_four(f"b{k - 1} + b{k}", "sum", values[k - 1] + values[k])
        for k in range(1, len(values), 2)
    ]
    return ConstraintReport("divisibility", items)


def check_bounds(values: tuple[int, ...]) -> ConstraintReport:
    """b_k >= C(k+2, 2) over the lower half of the sequence, with margins.

    For the 4n + 4 Betti numbers of rank n that is k = 0 .. 2n + 1.
    """
    items = [_at_least(f"b{k}", values[k], comb(k + 2, 2)) for k in range(len(values) // 2)]
    return ConstraintReport("lower bounds", items)


def check_horizontal_constraints(bh: HorizontalBettiSequence) -> ConstraintReport:
    """Odd horizontal numbers divisible by four; bh_{2p} >= C(p+2, 2) for p <= n.

    Palindromy of the horizontal sequence is reported as a warning item: it
    is expected of the models treated here but is not one of the hard
    constraints, so only strict mode escalates it.
    """
    items = [
        _divisible_by_four(f"bh{k}", f"bh{k}", bh.values[k]) for k in range(1, len(bh.values), 2)
    ]
    items += [
        _at_least(f"bh{2 * p}", value, comb(p + 2, 2))
        for p, value in enumerate(bh.values[: 2 * bh.n + 1 : 2])
    ]
    items.append(
        ConstraintItem(
            "bh palindromic", bh.is_palindromic(), warning=True, detail=f"values={list(bh.values)}"
        )
    )
    return ConstraintReport("horizontal constraints", items)


# ---------------------------------------------------------------------------
# Rank of the power products of the horizontal two-forms
# ---------------------------------------------------------------------------


def _xi_power_product(dims: ModelDims, powers: tuple[int, int, int]) -> Multivector:
    factors = []
    for alpha, power in zip(contact.ALPHAS, powers):
        factors.extend(contact.xi_form(dims, alpha) for _ in range(power))
    return wedge_all(factors)


def predicted_leading_blade(dims: ModelDims, powers: tuple[int, int, int]) -> Blade:
    """First blade (in coframe order) of the power product Xi_1^k1 Xi_2^k2 Xi_3^k3.

    The leading term pairs zeta_t with phi_1*zeta_t for the first k1 values
    of t, then with phi_2*zeta_t, then phi_3*zeta_t.
    """
    k1, k2, k3 = powers
    indices: list[int] = []
    for offset, (start, count) in enumerate(((0, k1), (k1, k2), (k1 + k2, k3))):
        for t in range(start + 1, start + count + 1):
            indices.append(contact.zeta_index(dims, t))
            indices.append(contact.phi_zeta_index(dims, offset + 1, t))
    return tuple(sorted(indices))


@dataclass
class PowerProductRank:
    n: int
    k: int
    rank: int
    expected: int
    leading_blades: list[Blade]
    leading_distinct: bool
    leading_match_predicted: bool

    @property
    def passed(self) -> bool:
        return self.rank == self.expected and self.leading_distinct and self.leading_match_predicted

    def to_dict(self) -> dict:
        data = asdict(self)
        del data["leading_blades"]
        return {**data, "passed": self.passed}


def s_k_rank(n: int, k: int) -> PowerProductRank:
    """Exact rank of {Xi_1^k1 ^ Xi_2^k2 ^ Xi_3^k3 : k1 + k2 + k3 = k}.

    Also verifies the supporting mechanism: the lexicographically leading
    blades of the C(k+2, 2) products are pairwise distinct and equal the
    predicted interleavings.  A zero product has no leading blade: it is
    recorded as () and fails the prediction.  Requires k <= n, where the
    products are nonzero and the leading-term argument applies.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > n:
        raise ValueError(f"k = {k} exceeds the rank n = {n}")
    dims = ModelDims(n)
    powers = [(k1, k2, k - k1 - k2) for k1 in range(k, -1, -1) for k2 in range(k - k1, -1, -1)]
    products = [_xi_power_product(dims, p) for p in powers]
    leads = [leading_blade(product) for product in products]
    leading = [() if lead is None else lead for lead in leads]
    return PowerProductRank(
        n=n,
        k=k,
        rank=sparse_rank([product._terms for product in products]),
        expected=comb(k + 2, 2),
        leading_blades=leading,
        leading_distinct=len(set(leading)) == len(leading),
        leading_match_predicted=leads == [predicted_leading_blade(dims, p) for p in powers],
    )
