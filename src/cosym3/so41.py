"""The matrix Lie algebra so(4,1) and its isomorphism onto the operator span.

The algebra is realized concretely: 5x5 matrices A with
A E1 = -E1 A^t for E1 = diag(1, 1, 1, 1, -1), spanned by the ten integer
basis elements t_ij, i < j.  One rule gives t_ij for every i != j, with
t_ji = -t_ij, and the bracket table is the metric rule of so(4,1) checked
on all 45 pairs of basis elements.  A matrix is the dict
``{(row, col): entry}`` of its nonzero entries (0-based), the sparse vector
format that ``linalg`` reads, so the basis rank and the image rank go
through the same elimination core as the operator span.  The module check
expresses each commutator of the materialized operators in the operator
span and compares the result with the matrix-side bracket through the
assignment

    H -> 2 t45,  L_a -> t_a5 + t_a4,  Lambda_a -> t_a5 - t_a4,  K_a -> 2 t_bc

so the structure constants are extracted once from each side rather than
trusted twice.  The generators are eliminated once, for their rank and
echelon lead keys; on those keys they are independent exactly when the
full ones are, so a solve over the generators cut down to the keys gives
the full solve's coefficients.  Its residue over the full tables certifies
the answer (McConnell et al., "Certifying algorithms", Comput. Sci. Rev.
5, 2011): zero proves membership, nonzero that the commutator escapes the
span.  Every matrix here is integer; the only rationals are the solved
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .contact import ALPHAS, cyclic
from .exterior import ModelDims
from .linalg import Coeff, _subtract, solve_in_span, sparse_rank
from .operators import SUPPORTED_RANKS, GradedOperator, OperatorSet, commutator

Mat5 = dict[tuple[int, int], Coeff]

# The diagonal of E1.
_E1 = (1, 1, 1, 1, -1)


def _combination(*terms: tuple[Coeff, Mat5]) -> Mat5:
    """The matrix sum of ``c * m`` over the ``(c, m)`` terms."""
    out: Mat5 = {}
    for c, m in terms:
        _subtract(out, -c, m)
    return out


def mat_mul(a: Mat5, b: Mat5) -> Mat5:
    out: Mat5 = {}
    for (i, k), x in a.items():
        _subtract(out, -x, {(i, j): y for (row, j), y in b.items() if row == k})
    return out


def satisfies_defining_relation(a: Mat5) -> bool:
    """A E1 = -E1 A^t, the membership condition for so(4,1).

    E1 is diagonal, so entrywise this reads a_ij e_j = -e_i a_ji; a pair with
    both entries zero holds trivially, so only the stored entries are read.
    """
    return all(v * _E1[j] == -_E1[i] * a.get((j, i), 0) for (i, j), v in a.items())


def t(i: int, j: int) -> Mat5:
    """Basis element t_ij = g_i E_ij - g_j E_ji for i != j in 1..5, where E_ij
    is the matrix unit and g_i the i-th diagonal entry of E1.

    So t_ji = -t_ij; for i < j this is E_ij - E_ji off the fifth slot and
    E_i5 + E_5i on it.
    """
    if i == j or not (1 <= i <= 5 and 1 <= j <= 5):
        raise ValueError("t_ij requires i != j in 1..5")
    return {(i - 1, j - 1): _E1[i - 1], (j - 1, i - 1): -_E1[j - 1]}


def bracket(a: Mat5, b: Mat5) -> Mat5:
    out = mat_mul(a, b)
    _subtract(out, 1, mat_mul(b, a))
    return out


BASIS_PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]

# The matrix image of each operator-span generator, in report order.
_IMAGES: dict[str, Mat5] = {
    "H": _combination((2, t(4, 5))),
    **{f"L{a}": _combination((1, t(a, 5)), (1, t(a, 4))) for a in ALPHAS},
    **{f"Lambda{a}": _combination((1, t(a, 5)), (-1, t(a, 4))) for a in ALPHAS},
    **{f"K{a}": _combination((2, t(*cyclic(a)[1:]))) for a in ALPHAS},
}

GENERATOR_NAMES = list(_IMAGES)


def _m(i: int, j: int) -> Mat5:
    """M_ij = g_i g_j t_ij = (E_ij - E_ji) E1, the basis the metric rule is
    stated in: t_ij negated when 5 is in {i, j}."""
    return _combination((_E1[i - 1] * _E1[j - 1], t(i, j)))


def bracket_table_checks() -> list[tuple[str, bool]]:
    """[M_ij, M_kl] = g_jk M_il - g_ik M_jl - g_jl M_ik + g_il M_jk, g = E1,
    checked exactly on each of the 45 unordered pairs of basis elements."""
    checks: list[tuple[str, bool]] = []
    for idx, (i, j) in enumerate(BASIS_PAIRS):
        for k, l in BASIS_PAIRS[idx + 1 :]:
            # Each term sign * g_pq * M_rs; g is diagonal, so only p == q counts.
            terms = ((1, j, k, i, l), (-1, i, k, j, l), (-1, j, l, i, k), (1, i, l, j, k))
            rule = [(sign * _E1[p - 1], _m(r, s)) for sign, p, q, r, s in terms if p == q]
            ok = bracket(_m(i, j), _m(k, l)) == _combination(*rule)
            checks.append((f"[t{i}{j}, t{k}{l}]", ok))
    return checks


def _flatten(op: GradedOperator) -> dict[int, Coeff]:
    """The operator's entries as one sparse vector keyed source << width |
    target, as ``_product`` packs them: ordered as the (source, target) pairs."""
    width = max(op.basis.indices, default=-1) + 1
    return {
        source << width | target: coeff
        for source, column in op._images.items()
        for target, coeff in column.items()
    }


@cache
def _matrix_side_checks() -> tuple[bool, int, bool, int]:
    """Defining relations, basis rank and bracket table of the t_ij basis, and
    the rank of the generator images.

    They depend on neither n nor the table, so one process computes them once,
    on first use.
    """
    defining_ok = all(satisfies_defining_relation(t(i, j)) for i, j in BASIS_PAIRS)
    defining_ok = defining_ok and all(
        satisfies_defining_relation(bracket(t(*p), t(*q)))
        for p in BASIS_PAIRS
        for q in BASIS_PAIRS
    )
    basis_rank = sparse_rank([t(i, j) for i, j in BASIS_PAIRS])
    table_ok = all(ok for _, ok in bracket_table_checks())
    image_rank = sparse_rank(list(_IMAGES.values()))
    return defining_ok, basis_rank, table_ok, image_rank


def build_generators(n: int) -> dict[str, GradedOperator]:
    """The ten span generators materialized on the eta-free sector."""
    ops = OperatorSet(ModelDims(n))
    gens: dict[str, GradedOperator] = {"H": ops.H}
    for a in ALPHAS:
        gens[f"L{a}"] = ops.L(a)
        gens[f"Lambda{a}"] = ops.Lam(a)
        gens[f"K{a}"] = ops.K(a)
    return gens


@dataclass
class PairCheck:
    left: str
    right: str
    ok: bool
    detail: str = ""

    @property
    def name(self) -> str:
        return f"[{self.left}, {self.right}]"


@dataclass
class ModuleReport:
    n: int
    defining_relations_ok: bool
    basis_rank: int
    bracket_table_ok: bool
    operator_span_rank: int
    image_rank: int
    pairs: list[PairCheck]

    def failures(self) -> list[str]:
        """Names of the failed checks: the rank and table conditions in a
        fixed order, then every failing bracket pair."""
        conditions = [
            ("defining relations", self.defining_relations_ok),
            ("basis rank", self.basis_rank == 10),
            ("bracket table", self.bracket_table_ok),
            ("operator span rank", self.operator_span_rank == 10),
            ("image rank", self.image_rank == 10),
        ]
        failed = [name for name, ok in conditions if not ok]
        return failed + [p.name for p in self.pairs if not p.ok]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "defining_relations_ok": self.defining_relations_ok,
            "basis_rank": self.basis_rank,
            "bracket_table_ok": self.bracket_table_ok,
            "operator_span_rank": self.operator_span_rank,
            "image_rank": self.image_rank,
            "pairs": [
                {"pair": p.name, "ok": p.ok, "detail": p.detail} for p in self.pairs
            ],
            "passed": self.passed,
        }


def verify_module(n: int, corrupt_generator: str | None = None) -> ModuleReport:
    """Check that the operator span carries the so(4,1) structure.

    For every unordered generator pair the commutator of the materialized
    operators is solved exactly on the generators' lead keys, and its
    residue against that combination must be zero (else it escapes the
    span); the same coefficients must reproduce the matrix bracket.
    ``corrupt_generator`` negates one operator first (negative-control hook).
    """
    if n not in SUPPORTED_RANKS:
        raise ValueError(f"module verification supports n in {SUPPORTED_RANKS}")
    if corrupt_generator not in (None, *GENERATOR_NAMES):
        raise ValueError(
            f"corrupt_generator must be one of {GENERATOR_NAMES}, got {corrupt_generator!r}"
        )
    defining_ok, basis_rank, table_ok, image_rank = _matrix_side_checks()

    gens = build_generators(n)
    if corrupt_generator is not None:
        gens[corrupt_generator] = gens[corrupt_generator].scale(-1)
    flat = {name: _flatten(gens[name]) for name in GENERATOR_NAMES}
    leads: set = set()
    span_rank = sparse_rank([flat[name] for name in GENERATOR_NAMES], leads)
    restricted = [{k: flat[name][k] for k in leads if k in flat[name]} for name in GENERATOR_NAMES]

    pairs: list[PairCheck] = []
    for idx, left in enumerate(GENERATOR_NAMES):
        for right in GENERATOR_NAMES[idx + 1 :]:
            residue = _flatten(commutator(gens[left], gens[right]))
            # On the lead keys the independent generators span every vector,
            # so the solve always answers; the residue decides the verdict.
            coeffs = solve_in_span(restricted, {k: residue[k] for k in leads if k in residue})
            for c, name in zip(coeffs, GENERATOR_NAMES):
                if c:
                    _subtract(residue, c, flat[name])
            if residue:
                pairs.append(
                    PairCheck(left, right, False, "commutator escapes the span")
                )
                continue
            matrix_side = bracket(_IMAGES[left], _IMAGES[right])
            expected = _combination(*zip(coeffs, _IMAGES.values()))
            ok = matrix_side == expected
            detail = "" if ok else (
                "matrix bracket disagrees with the span expansion: "
                + ", ".join(
                    f"{name}:{c}" for name, c in zip(GENERATOR_NAMES, coeffs) if c
                )
            )
            pairs.append(PairCheck(left, right, ok, detail))
    return ModuleReport(
        n=n,
        defining_relations_ok=defining_ok,
        basis_rank=basis_rank,
        bracket_table_ok=table_ok,
        operator_span_rank=span_rank,
        image_rank=image_rank,
        pairs=pairs,
    )
