"""The matrix Lie algebra so(4,1) and its isomorphism onto the operator span.

The algebra is realized concretely: 5x5 matrices A with
A E1 = -E1 A^t for E1 = diag(1, 1, 1, 1, -1), spanned by the ten integer
basis elements t_ij.  The module check expresses each commutator of the
materialized operators in the operator span by an exact linear solve and
compares the result with the matrix-side bracket through the assignment

    H -> 2 t45,  L_a -> t_a5 + t_a4,  Lambda_a -> t_a5 - t_a4,  K_a -> 2 t_bc

so the structure constants are extracted once from each side rather than
trusted twice.  Every matrix here is integer; the only rationals are the
solved coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .contact import ALPHAS, cyclic
from .exterior import ModelDims
from .linalg import Coeff, solve_in_span, sparse_rank
from .operators import SUPPORTED_RANKS, GradedOperator, OperatorSet, commutator

Mat5 = tuple[tuple[Coeff, ...], ...]

E1: Mat5 = tuple(
    tuple((1 if i == j else 0) * (1 if i < 4 else -1) for j in range(5))
    for i in range(5)
)


def _zeros() -> list[list[Coeff]]:
    return [[0] * 5 for _ in range(5)]


def _freeze(rows: list[list[Coeff]]) -> Mat5:
    return tuple(tuple(row) for row in rows)


def mat_add(a: Mat5, b: Mat5) -> Mat5:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat5, b: Mat5) -> Mat5:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Coeff, a: Mat5) -> Mat5:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat5, b: Mat5) -> Mat5:
    out = _zeros()
    for i in range(5):
        for k in range(5):
            if a[i][k]:
                for j in range(5):
                    out[i][j] += a[i][k] * b[k][j]
    return _freeze(out)


def mat_transpose(a: Mat5) -> Mat5:
    return tuple(tuple(a[j][i] for j in range(5)) for i in range(5))


MAT_ZERO: Mat5 = _freeze(_zeros())


def satisfies_defining_relation(a: Mat5) -> bool:
    """A E1 = -E1 A^t, the membership condition for so(4,1)."""
    return mat_mul(a, E1) == mat_scale(-1, mat_mul(E1, mat_transpose(a)))


def basis_t(i: int, j: int) -> Mat5:
    """Basis element t_ij for 1 <= i < j <= 5.

    For j = 5 this is e_i5 + e_5i, otherwise e_ij - e_ji; the extended symbol
    t_ji = -t_ij for i < j <= 4 is available through :func:`t`.
    """
    if not (1 <= i < j <= 5):
        raise ValueError("basis_t requires 1 <= i < j <= 5")
    rows = _zeros()
    if j == 5:
        rows[i - 1][4] = 1
        rows[4][i - 1] = 1
    else:
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    return _freeze(rows)


def t(i: int, j: int) -> Mat5:
    """t_ij extended by antisymmetry to i > j (only off the fifth slot)."""
    if i < j:
        return basis_t(i, j)
    if i > j:
        if i == 5:
            raise ValueError("t_5j is not defined; use basis_t(j, 5)")
        return mat_scale(-1, basis_t(j, i))
    raise ValueError("t_ii is not defined")


def bracket(a: Mat5, b: Mat5) -> Mat5:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


BASIS_PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]

GENERATOR_NAMES = (
    ["H"]
    + [f"L{a}" for a in ALPHAS]
    + [f"Lambda{a}" for a in ALPHAS]
    + [f"K{a}" for a in ALPHAS]
)


def iso_map(name: str) -> Mat5:
    """Matrix image of an operator-span generator."""
    if name == "H":
        return mat_scale(2, t(4, 5))
    if name.startswith("Lambda"):
        a = int(name[len("Lambda") :])
        return mat_sub(t(a, 5), t(a, 4))
    if name.startswith("L"):
        a = int(name[1:])
        return mat_add(t(a, 5), t(a, 4))
    if name.startswith("K"):
        a = int(name[1:])
        _, b, c = cyclic(a)
        return mat_scale(2, t(b, c))
    raise ValueError(f"unknown generator name: {name}")


def bracket_table_checks() -> list[tuple[str, bool]]:
    """All published bracket patterns of the t_ij basis, checked exactly."""
    checks: list[tuple[str, bool]] = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                checks.append(
                    (f"[t{i}{j}, t{i}{k}] = -t{j}{k}",
                     bracket(basis_t(i, j), basis_t(i, k)) == mat_scale(-1, basis_t(j, k)))
                )
                checks.append(
                    (f"[t{i}{j}, t{j}{k}] = t{i}{k}",
                     bracket(basis_t(i, j), basis_t(j, k)) == basis_t(i, k))
                )
                checks.append(
                    (f"[t{i}{k}, t{j}{k}] = -t{i}{j}",
                     bracket(basis_t(i, k), basis_t(j, k)) == mat_scale(-1, basis_t(i, j)))
                )
    for i in range(1, 5):
        for j in range(i + 1, 5):
            checks.append(
                (f"[t{i}{j}, t{i}5] = -t{j}5",
                 bracket(basis_t(i, j), basis_t(i, 5)) == mat_scale(-1, basis_t(j, 5)))
            )
            checks.append(
                (f"[t{i}{j}, t{j}5] = t{i}5",
                 bracket(basis_t(i, j), basis_t(j, 5)) == basis_t(i, 5))
            )
            checks.append(
                (f"[t{i}5, t{j}5] = t{i}{j}",
                 bracket(basis_t(i, 5), basis_t(j, 5)) == basis_t(i, j))
            )
    return checks


def _flatten(op: GradedOperator) -> dict:
    vec = {}
    for k, cols in op.blocks.items():
        for pos, col in enumerate(cols):
            for blade, coeff in col.terms.items():
                vec[(k, pos, blade)] = coeff
    return vec


def _mat_to_vec(m: Mat5) -> dict:
    return {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v}


@cache
def _matrix_side_checks() -> tuple[bool, int, bool]:
    """Defining relations, basis rank and bracket table of the t_ij basis.

    They depend on neither n nor the table, so one process computes them once,
    on first use.
    """
    defining_ok = all(satisfies_defining_relation(basis_t(i, j)) for i, j in BASIS_PAIRS)
    defining_ok = defining_ok and all(
        satisfies_defining_relation(bracket(basis_t(*p), basis_t(*q)))
        for p in BASIS_PAIRS
        for q in BASIS_PAIRS
    )
    basis_rank = sparse_rank([_mat_to_vec(basis_t(i, j)) for i, j in BASIS_PAIRS])
    table_ok = all(ok for _, ok in bracket_table_checks())
    return defining_ok, basis_rank, table_ok


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
    operators is expressed in the span by an exact solve; the same
    coefficients must reproduce the matrix bracket of the images.
    ``corrupt_generator`` negates one operator first (negative-control hook).
    """
    if n not in SUPPORTED_RANKS:
        raise ValueError(f"module verification supports n in {SUPPORTED_RANKS}")
    if corrupt_generator not in (None, *GENERATOR_NAMES):
        raise ValueError(
            f"corrupt_generator must be one of {GENERATOR_NAMES}, got {corrupt_generator!r}"
        )
    defining_ok, basis_rank, table_ok = _matrix_side_checks()

    gens = build_generators(n)
    if corrupt_generator is not None:
        gens[corrupt_generator] = gens[corrupt_generator].scale(-1)
    flat = {name: _flatten(gens[name]) for name in GENERATOR_NAMES}
    span_rank = sparse_rank([flat[name] for name in GENERATOR_NAMES])
    image_rank = sparse_rank([_mat_to_vec(iso_map(name)) for name in GENERATOR_NAMES])

    pairs: list[PairCheck] = []
    for idx, left in enumerate(GENERATOR_NAMES):
        for right in GENERATOR_NAMES[idx + 1 :]:
            coeffs = solve_in_span(
                [flat[name] for name in GENERATOR_NAMES],
                _flatten(commutator(gens[left], gens[right])),
            )
            if coeffs is None:
                pairs.append(
                    PairCheck(left, right, False, "commutator escapes the span")
                )
                continue
            matrix_side = bracket(iso_map(left), iso_map(right))
            expected = MAT_ZERO
            for name, c in zip(GENERATOR_NAMES, coeffs):
                if c:
                    expected = mat_add(expected, mat_scale(c, iso_map(name)))
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
