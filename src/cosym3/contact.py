"""Flat local model of an almost-contact 3-structure on an orthonormal coframe.

Coframe layout for rank ``n`` (all downstream lexicographic arguments rely on
this block order):

    zeta_1 .. zeta_n | phi1*zeta_* | phi2*zeta_* | phi3*zeta_* | eta_1, eta_2, eta_3

The three structure endomorphisms act on one-forms by pullback, and on a whole
blade with every factor replaced by its image (``phi_star``, through
``exterior._pull_back``, the substitution routine that the twists of
``cellular`` share).  Because the pullback of ``phi_a`` applied to the
pulled-back elements picks up a minus sign (``phi_a`` squares to minus the
identity off the Reeb directions), the frame vector paired with the coframe
slot ``phi_a*zeta_s`` is minus ``phi_a X_s``; the ``eval_diag`` table records
exactly these signs, and every contraction by a frame vector routes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exterior import Coeff, ModelDims, Multivector, _combine, _interior, _pull_back, pairing, wedge

ALPHAS = (1, 2, 3)
_CYCLIC = {1: (1, 2, 3), 2: (2, 3, 1), 3: (3, 1, 2)}


def epsilon(a: int, b: int, c: int) -> int:
    """Totally antisymmetric symbol with epsilon(1, 2, 3) = +1."""
    if {a, b, c} != {1, 2, 3}:
        return 0
    return 1 if (a, b, c) in _CYCLIC.values() else -1


def cyclic(alpha: int) -> tuple[int, int, int]:
    """The cyclic permutation (alpha, beta, gamma) of (1, 2, 3)."""
    return _CYCLIC[alpha]


def zeta_index(dims: ModelDims, s: int) -> int:
    if not 1 <= s <= dims.n:
        raise ValueError(f"s must be in 1..{dims.n}")
    return s - 1


def phi_zeta_index(dims: ModelDims, alpha: int, s: int) -> int:
    if alpha not in ALPHAS:
        raise ValueError("alpha must be 1, 2 or 3")
    if not 1 <= s <= dims.n:
        raise ValueError(f"s must be in 1..{dims.n}")
    return alpha * dims.n + s - 1


def eta_index(dims: ModelDims, alpha: int) -> int:
    if alpha not in ALPHAS:
        raise ValueError("alpha must be 1, 2 or 3")
    return 4 * dims.n + alpha - 1


def structure_pairs(dims: ModelDims, alpha: int) -> list[tuple[int, int]]:
    """Frame bivector slots on which the fundamental form pairs to -1,
    in the cyclic order used by its defining table."""
    _, beta, gamma = cyclic(alpha)
    pairs = []
    for s in range(1, dims.n + 1):
        pairs.append((zeta_index(dims, s), phi_zeta_index(dims, alpha, s)))
        pairs.append((phi_zeta_index(dims, beta, s), phi_zeta_index(dims, gamma, s)))
    pairs.append((eta_index(dims, beta), eta_index(dims, gamma)))
    return pairs


def coframe_label(dims: ModelDims, index: int) -> str:
    """Human-readable name of a coframe slot, for witnesses and reports."""
    n = dims.n
    if index < 0 or index >= dims.dim:
        raise ValueError(f"index {index} out of range for dim {dims.dim}")
    if index >= 4 * n:
        return f"eta{index - 4 * n + 1}"
    block, s = divmod(index, n)
    if block == 0:
        return f"zeta{s + 1}"
    return f"phi{block}zeta{s + 1}"


def format_blade(dims: ModelDims, blade: tuple[int, ...]) -> str:
    if not blade:
        return "1"
    return "^".join(coframe_label(dims, i) for i in blade)


def eval_diag(dims: ModelDims) -> tuple[int, ...]:
    """Diagonal of the coframe/frame evaluation matrix rho_i(V_i).

    +1 on the zeta and eta slots, -1 on the pulled-back slots; off-diagonal
    evaluations all vanish.
    """
    n = dims.n
    return (1,) * n + (-1,) * (3 * n) + (1, 1, 1)


def _negative_slots(dims: ModelDims) -> int:
    """The mask of the slots whose ``eval_diag`` sign is -1: a frame blade
    pairs and contracts like its coframe blade, negated once per such slot."""
    return sum(1 << i for i, d in enumerate(eval_diag(dims)) if d < 0)


def pair_frame(dims: ModelDims, omega: Multivector, kvector: Multivector) -> Fraction:
    """Pair a form with a k-vector written in the frame basis.

    The frame evaluation is diagonal, so a frame blade pairs like its coframe
    blade times the product of its ``eval_diag`` signs.
    """
    negative = _negative_slots(dims)
    return pairing(omega, Multivector(_masks={
        m: -c if (m & negative).bit_count() & 1 else c for m, c in kvector._terms.items()
    }))


def frame_interior(dims: ModelDims, slot: int, omega: Multivector) -> Multivector:
    """Contraction with the frame vector occupying coframe slot ``slot``."""
    return _interior(slot, omega, _negative_slots(dims) >> slot & 1)


@dataclass(frozen=True)
class PhiStarTable:
    """Signed permutation-with-kill describing each pullback on the coframe.

    ``entries[alpha][i]`` is ``(image_index, sign)`` or None when the slot is
    annihilated (each pullback kills its own Reeb one-form).
    """

    dims: ModelDims
    entries: dict[int, tuple[tuple[int, int] | None, ...]]

    def __post_init__(self) -> None:
        """A malformed table raises here, not deep inside a pullback."""
        dim = self.dims.dim
        if set(self.entries) != set(ALPHAS):
            raise ValueError(f"a table has one row per alpha in {ALPHAS}, got {list(self.entries)}")
        for alpha, row in self.entries.items():
            if type(row) is not tuple or len(row) != dim:
                raise ValueError(f"row {alpha} is not a tuple of {dim} entries: {row!r}")
            for slot, entry in enumerate(row):
                if entry is not None and not (
                    type(entry) is tuple and list(map(type, entry)) == [int, int]
                    and 0 <= entry[0] < dim and entry[1] in (1, -1)
                ):
                    raise ValueError(
                        f"row {alpha}, slot {slot}: {entry!r} is neither None nor an (image, sign)"
                        f" pair of ints with 0 <= image < {dim} and sign +-1"
                    )

    @classmethod
    def build(cls, dims: ModelDims) -> "PhiStarTable":
        return cls(dims, {a: tuple(cls._image(dims, a, i) for i in range(dims.dim)) for a in ALPHAS})

    @staticmethod
    def _image(dims: ModelDims, alpha: int, index: int) -> tuple[int, int] | None:
        n = dims.n
        if index < n:  # zeta_s
            return phi_zeta_index(dims, alpha, index + 1), 1
        if index < 4 * n:  # phi_beta* zeta_s
            beta, s = divmod(index, n)
            s += 1
            if beta == alpha:
                return zeta_index(dims, s), -1
            gamma = next(g for g in ALPHAS if g not in (alpha, beta))
            return phi_zeta_index(dims, gamma, s), -epsilon(alpha, beta, gamma)
        beta = index - 4 * n + 1  # eta_beta
        if beta == alpha:
            return None
        gamma = next(g for g in ALPHAS if g not in (alpha, beta))
        return eta_index(dims, gamma), -epsilon(alpha, beta, gamma)

    def image(self, alpha: int, index: int) -> tuple[int, int] | None:
        return self.entries[alpha][index]

    def with_sign_flip(self, alpha: int, index: int) -> "PhiStarTable":
        """Copy with one sign negated; self-test hook for negative controls."""
        if alpha not in self.entries:
            raise ValueError(f"alpha must be one of {sorted(self.entries)}, got {alpha}")
        row = list(self.entries[alpha])
        if not 0 <= index < len(row):
            raise ValueError(f"slot must be in 0..{len(row) - 1}, got {index}")
        if row[index] is None:
            raise ValueError("cannot flip the sign of an annihilated slot")
        img, sign = row[index]
        row[index] = (img, -sign)
        entries = dict(self.entries)
        entries[alpha] = tuple(row)
        return PhiStarTable(self.dims, entries)


def phi_star(table: PhiStarTable, alpha: int, omega: Multivector) -> Multivector:
    """Pullback of a form of any degree: every factor of each blade is
    replaced by its image."""
    row = table.entries[alpha]
    acc: dict[int, Coeff] = {}
    for m, coeff in omega._terms.items():
        sign, image = _pull_back(m, row)
        if sign:
            acc[image] = acc.get(image, 0) + sign * coeff
    return Multivector(_masks=acc)


def _default_table(dims: ModelDims, table: PhiStarTable | None) -> PhiStarTable:
    return table if table is not None else PhiStarTable.build(dims)


def frame_phi_image(dims: ModelDims, alpha: int, slot: int) -> tuple[int, int] | None:
    """Action of the structure endomorphism on the frame vector at ``slot``.

    Returns ``(image_slot, sign)`` or None (the endomorphism kills its own
    Reeb vector).  This is the frame-side table, fixed directly by the
    quaternion-like structure equations; the coframe pullback table above is
    its transpose-dual and is validated against it by the test suite.
    """
    n = dims.n
    if slot < n:  # X_s
        return phi_zeta_index(dims, alpha, slot + 1), 1
    if slot < 4 * n:  # phi_beta X_s
        beta, s = divmod(slot, n)
        s += 1
        if beta == alpha:
            return zeta_index(dims, s), -1
        gamma = next(g for g in ALPHAS if g not in (alpha, beta))
        return phi_zeta_index(dims, gamma, s), epsilon(alpha, beta, gamma)
    beta = slot - 4 * n + 1  # xi_beta
    if beta == alpha:
        return None
    gamma = next(g for g in ALPHAS if g not in (alpha, beta))
    return eta_index(dims, gamma), epsilon(alpha, beta, gamma)


def frame_phi_coefficient(dims: ModelDims, alpha: int, i: int, j: int) -> int:
    """Metric coefficient g(V_i, phi_alpha V_j) over the orthonormal frame."""
    hit = frame_phi_image(dims, alpha, j)
    if hit is None or hit[0] != i:
        return 0
    return hit[1]


def fundamental_form(dims: ModelDims, alpha: int) -> Multivector:
    """The fundamental two-form, assembled from its frame values.

    Built slotwise from g(V_i, phi_alpha V_j), independently of the coframe
    pullback table, so agreement with the explicit horizontal sum below is a
    real consistency check rather than a restatement.
    """
    diag = eval_diag(dims)
    acc: dict[tuple[int, ...], int] = {}
    for j in range(dims.dim):
        hit = frame_phi_image(dims, alpha, j)
        if hit is None:
            continue
        i, sign = hit
        if i < j:
            # Dual of the frame bivector V_i ^ V_j under the 1/k! pairing.
            acc[(i, j)] = acc.get((i, j), 0) + 2 * sign * diag[i] * diag[j]
    return Multivector(acc)


def xi_form(dims: ModelDims, alpha: int, table: PhiStarTable | None = None) -> Multivector:
    """Horizontal two-form as the explicit sum over the coframe:
    zeta_s ^ phi_a*zeta_s - phi_b*zeta_s ^ phi_c*zeta_s for cyclic (a, b, c)."""
    table = _default_table(dims, table)
    _, beta, gamma = cyclic(alpha)
    pieces = []
    for s in range(1, dims.n + 1):
        z = Multivector.blade((zeta_index(dims, s),))
        pieces.append((1, wedge(z, phi_star(table, alpha, z))))
        pieces.append((-1, wedge(phi_star(table, beta, z), phi_star(table, gamma, z))))
    return _combine(pieces)


def xi_form_from_fundamental(dims: ModelDims, alpha: int) -> Multivector:
    """Horizontal two-form recovered as (Phi_a + 2 eta_b ^ eta_c) / 2."""
    _, beta, gamma = cyclic(alpha)
    etas = wedge(
        Multivector.blade((eta_index(dims, beta),)),
        Multivector.blade((eta_index(dims, gamma),)),
    )
    return Fraction(1, 2) * (fundamental_form(dims, alpha) + 2 * etas)
