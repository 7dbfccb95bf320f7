"""Exhaustive operator-identity verification on exact graded matrices.

Each identity family is a lazy stream of mismatches: a generator that yields
``(member, degree, blade_label, got, expected)`` for every place where the
identity fails, in a fixed order, and nothing where it holds.  The first
mismatch of a family is its witness, so a family stops building operators as
soon as it fails.  Every operator identity is stated one way, as a
(description, lhs, rhs) triple of whole operators, and compared by one
comparator, ``_operator_differences``: by image tables first, and the
columns of unequal ones blade by blade.  Triples that must be searched
together form a group, whose members are compared on each blade in turn.
What is not an operator statement (dimension counts, forms and tables) is a
data check.  The suite is total: a corrupted structure table produces fail
reports, never exceptions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations
from math import comb

from . import contact
from .contact import ALPHAS, PhiStarTable, cyclic, epsilon
from .exterior import ModelDims, Multivector, _blade_of, _combine, wedge
from .operators import (
    SUPPORTED_RANKS, GradedOperator, OperatorSet, _product, anticommutator, commutator,
)


@dataclass
class Witness:
    """Locates the first failing blade of an identity."""

    member: str
    degree: int
    blade: str
    lhs: str
    rhs: str


@dataclass
class IdentityReport:
    name: str
    statement: str
    passed: bool
    max_degree: int
    witness: Witness | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _column(op: GradedOperator, mask: int) -> Multivector:
    """The column of ``op`` on one blade, as a form: one side of a witness."""
    return op.apply(Multivector(_masks={mask: 1}))


def _operator_differences(ops: OperatorSet, groups):
    """Differing columns of operator identities, each a (description, lhs,
    rhs) triple.

    ``groups`` holds triples and lists of triples.  A list is one group,
    searched blade by blade in basis order with every member compared on each
    blade in turn; a triple alone is a group of one.  A description is a
    string, or a function of the witness degree such as a bound
    ``str.format``.  Equal operators, the usual case, are told apart by one
    comparison of their tables; only unequal ones are searched.  ``groups``
    is consumed lazily, so the operators of later groups are not built once
    the caller has its witness.
    """
    for group in groups:
        members = group if isinstance(group, list) else [group]
        basis = members[0][1].basis
        for _, lhs, rhs in members:
            if lhs.shift != rhs.shift:
                raise ValueError("operators of different shifts are never equal")
            if lhs.basis is not basis or rhs.basis is not basis:
                raise ValueError("operators on different bases are never compared")
        unequal = [(desc, lhs, rhs) for desc, lhs, rhs in members if lhs._images != rhs._images]
        if not unequal:
            continue
        for k in basis.degrees():
            for mask in basis._masks[k]:
                for desc, lhs, rhs in unequal:
                    if lhs._images.get(mask) != rhs._images.get(mask):
                        yield (
                            desc(k) if callable(desc) else desc, k,
                            contact.format_blade(ops.dims, _blade_of(mask)),
                            _column(lhs, mask), _column(rhs, mask),
                        )


def _operator_family(members):
    """Family stream of a generator of (description, lhs, rhs) operator triples."""
    return lambda ops: _operator_differences(ops, members(ops))


@_operator_family
def _lambda_l(ops: OperatorSet):
    for a in ALPHAS:
        for b in ALPHAS:
            target = ops.id_full if a == b else ops.zero_full(0)
            yield f"{{lambda_{a}, l_{b}}}", anticommutator(ops.lam(a), ops.l(b)), target


@_operator_family
def _wedge_contraction_nilpotence(ops: OperatorSet):
    for a in ALPHAS:
        for b in ALPHAS:
            yield f"{{l_{a}, l_{b}}}", anticommutator(ops.l(a), ops.l(b)), ops.zero_full(2)
            yield (
                f"{{lambda_{a}, lambda_{b}}}",
                anticommutator(ops.lam(a), ops.lam(b)),
                ops.zero_full(-2),
            )


@_operator_family
def _projections(ops: OperatorSet):
    for a in ALPHAS:
        yield f"e_{a}^2 = e_{a}", ops.e(a).compose(ops.e(a)), ops.e(a)
        for b in ALPHAS:
            if a < b:
                yield f"[e_{a}, e_{b}]", commutator(ops.e(a), ops.e(b)), ops.zero_full(0)


def _cube_isomorphisms(ops: OperatorSet):
    """{lambda_a, l_a} = id: l_a lambda_a vanishes off the eta_a sector and
    lambda_a l_a on it, so each round trip is the identity where the other
    vanishes.  The pair restricts to inverse isomorphisms between the
    eta_a-free and eta_a-containing sectors, which therefore have the
    binomial dimensions."""
    dims = ops.dims
    yield from _operator_differences(ops, (
        (f"alpha={a}", anticommutator(ops.lam(a), ops.l(a)), ops.id_full) for a in ALPHAS
    ))
    # Sector dimension count: blades sorted by eta-pattern, the eta bits of
    # the mask (eta_a at bit a - 1).  Every pattern is compared, so an empty
    # sector is counted too.
    for k in ops.full.degrees():
        counts = Counter(mask >> dims.horizontal_dim for mask in ops.full._masks[k])
        for pattern in range(1 << len(ALPHAS)):
            weight = pattern.bit_count()
            expected = comb(dims.horizontal_dim, k - weight) if k >= weight else 0
            count = counts[pattern]
            if count != expected:
                sector = tuple(pattern >> (a - 1) & 1 for a in ALPHAS)
                yield f"k={k}, sector={sector}", k, "-", count, expected


@_operator_family
def _lambda_routes(ops: OperatorSet):
    for a in ALPHAS:
        yield f"alpha={a}", ops.Lambda_star(a), ops.Lambda_full(a)


@_operator_family
def _projection_commutation(ops: OperatorSet):
    for a in ALPHAS:
        for m in ALPHAS:
            yield f"[L_{a}, e_{m}]", commutator(ops.L_full(a), ops.e(m)), ops.zero_full(2)
            yield (
                f"[Lambda_{a}, e_{m}]",
                commutator(ops.Lambda_full(a), ops.e(m)),
                ops.zero_full(-2),
            )


@_operator_family
def _wedge_pairs_commute(ops: OperatorSet):
    for a in ALPHAS:
        for b in ALPHAS:
            if a < b:
                yield f"[L_{a}, L_{b}]", commutator(ops.L_full(a), ops.L_full(b)), ops.zero_full(4)
                yield (
                    f"[Lambda_{a}, Lambda_{b}]",
                    commutator(ops.Lambda_full(a), ops.Lambda_full(b)),
                    ops.zero_full(-4),
                )


def _sector_preservation(ops: OperatorSet):
    # K and I are materialized on the horizontal basis, where closure of the
    # images is enforced by construction; nothing further to check for them.
    dims = ops.dims
    for prefix, build in (
        ("L", ops.L_full), ("Lambda", ops.Lambda_full), ("star-Lambda", ops.Lambda_star)
    ):
        for a in ALPHAS:
            op = build(a)
            for k in ops.hor.degrees():
                for mask in ops.hor._masks[k]:
                    if any(m >> dims.horizontal_dim for m in op._images.get(mask, ())):
                        label = contact.format_blade(dims, _blade_of(mask))
                        yield f"{prefix}_{a}", k, label, _column(op, mask), "eta-free image"


@_operator_family
def _l_lambda_h(ops: OperatorSet):
    for a in ALPHAS:
        yield f"alpha={a}", commutator(ops.L(a), ops.Lam(a)), -ops.H


@_operator_family
def _l_lambda_k(ops: OperatorSet):
    for a in ALPHAS:
        _, b, c = cyclic(a)
        yield f"[L_{a}, Lambda_{b}] = K_{c}", commutator(ops.L(a), ops.Lam(b)), ops.K(c)
        yield f"[L_{a}, Lambda_{c}] = -K_{b}", commutator(ops.L(a), ops.Lam(c)), -ops.K(b)


@_operator_family
def _h_weights(ops: OperatorSet):
    for a in ALPHAS:
        yield f"[K_{a}, H]", commutator(ops.K(a), ops.H), ops.zero_hor(0)
        yield f"[L_{a}, H]", commutator(ops.L(a), ops.H), ops.L(a).scale(2)
        yield f"[Lambda_{a}, H]", commutator(ops.Lam(a), ops.H), ops.Lam(a).scale(-2)


@_operator_family
def _bracket_closure(ops: OperatorSet):
    for a in ALPHAS:
        _, b, c = cyclic(a)
        K = ops.K(a)
        yield f"[K_{a}, L_{a}]", commutator(K, ops.L(a)), ops.zero_hor(2)
        yield f"[K_{a}, Lambda_{a}]", commutator(K, ops.Lam(a)), ops.zero_hor(-2)
        yield f"[K_{a}, L_{b}]", commutator(K, ops.L(b)), ops.L(c).scale(-2)
        yield f"[K_{a}, L_{c}]", commutator(K, ops.L(c)), ops.L(b).scale(2)
        yield f"[K_{a}, Lambda_{b}]", commutator(K, ops.Lam(b)), ops.Lam(c).scale(-2)
        yield f"[K_{a}, Lambda_{c}]", commutator(K, ops.Lam(c)), ops.Lam(b).scale(2)
        yield f"[K_{a}, K_{b}]", commutator(K, ops.K(b)), ops.K(c).scale(-2)


@_operator_family
def _substitution_recursion(ops: OperatorSet):
    """K_a K_{a,s} = (s+1) K_{a,s+1} - K_{a,s-1} D_s, where D_s is k - s + 1
    on degree k.  Both sides vanish below degree s.  Each D_s is built once,
    on first use, for all three a."""

    @cache
    def D(s: int) -> GradedOperator:
        return GradedOperator.diagonal(ops.hor, lambda k: k - s + 1)

    for a in ALPHAS:
        for s in range(1, ops.hor.max_degree + 1):
            yield (
                f"alpha={a}, k={{}}, s={s}".format,
                ops.K(a).compose(ops.K_s(a, s)),
                _product((s + 1, ops.K_s(a, s + 1), ops.id_hor), (-1, ops.K_s(a, s - 1), D(s))),
            )


@_operator_family
def _substitution_endpoints(ops: OperatorSet):
    """Zero substitutions is the identity, one substitution is K_a, and
    substituting every factor of a degree-k blade is the full pullback:
    K_{a,k} E_k = I_a E_k, where E_k projects onto degree k.  Each E_k is
    built once, on first use, for all three a."""

    @cache
    def E(k: int) -> GradedOperator:
        return GradedOperator.diagonal(ops.hor, lambda j: int(j == k))

    for a in ALPHAS:
        yield f"K_{a},0 = id", ops.K_s(a, 0), ops.id_hor
        yield f"K_{a},1 = K_{a}", ops.K_s(a, 1), ops.K(a)
        for k in ops.hor.degrees():
            yield f"K_{a},{k} = I_{a}", ops.K_s(a, k).compose(E(k)), ops.I(a).compose(E(k))


@_operator_family
def _quaternion_relations(ops: OperatorSet):
    """On odd degrees the full substitutions generate the quaternions.

    Composition is written apply-first-then-second: doing I_a and then I_b
    equals I_c for cyclic (a, b, c), the reverse order gives -I_c, and each
    I_a squares to minus the identity; on even degrees the squares are +id.
    With P = (-1)^k and Q the projection onto odd degrees: I_a^2 = P,
    I_b I_a Q = I_c Q and I_a I_b Q = -I_c Q, the three searched as one group.
    """
    parity = GradedOperator.diagonal(ops.hor, lambda k: (-1) ** k)
    odd = GradedOperator.diagonal(ops.hor, lambda k: k % 2)
    for a in ALPHAS:
        _, b, c = cyclic(a)
        Ia, Ib = ops.I(a), ops.I(b)
        Ic_odd = ops.I(c).compose(odd)
        yield [
            (f"I_{a}^2, k={{}}".format, Ia.compose(Ia), parity),
            (f"I_{a} then I_{b} = I_{c}, k={{}}".format, Ib.compose(Ia).compose(odd), Ic_odd),
            (f"I_{b} then I_{a} = -I_{c}, k={{}}".format, Ia.compose(Ib).compose(odd), -Ic_odd),
        ]


def _xi_consistency(ops: OperatorSet):
    dims = ops.dims
    for a in ALPHAS:
        explicit = contact.xi_form(dims, a, ops.table)
        via_phi = contact.xi_form_from_fundamental(dims, a)
        if explicit != via_phi:
            yield f"alpha={a}", 2, "-", explicit, via_phi
        for m in ALPHAS:
            contracted = contact.frame_interior(
                dims, contact.eta_index(dims, m), explicit
            )
            if contracted:
                yield f"i_xi_{m} Xi_{a}", 2, "-", contracted, 0
        if any(m >> dims.horizontal_dim for m in explicit._terms):
            yield f"alpha={a}", 2, "-", explicit, "eta-free form"


def _fundamental_pairings(ops: OperatorSet):
    """The fundamental form pairs to -1 exactly on the structure bivectors
    (in cyclic order) and to zero on every other frame bivector.  The
    explicit horizontal sum is used, so table corruption shows up here."""
    dims = ops.dims
    for a in ALPHAS:
        _, beta, gamma = cyclic(a)
        etas = wedge(
            Multivector.blade((contact.eta_index(dims, beta),)),
            Multivector.blade((contact.eta_index(dims, gamma),)),
        )
        phi = 2 * contact.xi_form(dims, a, ops.table) - 2 * etas
        listed = contact.structure_pairs(dims, a)
        for i, j in listed:
            kvec = wedge(Multivector.blade((i,)), Multivector.blade((j,)))
            value = contact.pair_frame(dims, phi, kvec)
            if value != -1:
                yield f"alpha={a}, pair=({i},{j})", 2, "-", value, -1
        listed_sets = {frozenset(p) for p in listed}
        for i, j in combinations(range(dims.dim), 2):
            if frozenset((i, j)) in listed_sets:
                continue
            value = contact.pair_frame(dims, phi, Multivector.blade((i, j)))
            if value != 0:
                yield f"alpha={a}, pair=({i},{j})", 2, "-", value, 0


def _frame_evaluation(ops: OperatorSet):
    """Contractions of coframe elements by frame vectors are diagonal with
    the recorded signs (in particular i_{phi_a X_s} phi_a* zeta_t = -delta_st)."""
    dims = ops.dims
    diag = contact.eval_diag(dims)
    for i in range(dims.dim):
        rho = Multivector.blade((i,))
        for j in range(dims.dim):
            value = contact.frame_interior(dims, j, rho)
            expected = (
                Multivector.scalar(diag[i]) if i == j else Multivector.zero()
            )
            if value != expected:
                yield f"rho={i}, V={j}", 1, "-", value, expected


def _pullback_composition(ops: OperatorSet):
    dims = ops.dims
    table = ops.table

    def apply2(first: int, then: int, mv: Multivector) -> Multivector:
        return contact.phi_star(table, then, contact.phi_star(table, first, mv))

    for a in ALPHAS:
        _, b, c = cyclic(a)
        for idx in range(dims.horizontal_dim):
            one_form = Multivector.blade((idx,))
            image_c = contact.phi_star(table, c, one_form)
            checks = [
                # phi_a* after phi_b*, then phi_b* after phi_a*, then phi_a* twice.
                (f"phi_{a}* phi_{b}* on slot {idx}", apply2(b, a, one_form), -image_c),
                (f"phi_{b}* phi_{a}* on slot {idx}", apply2(a, b, one_form), image_c),
                (f"phi_{a}*^2 on slot {idx}", apply2(a, a, one_form), -one_form),
            ]
            for desc, got, expected in checks:
                if got != expected:
                    yield desc, 1, contact.coframe_label(dims, idx), got, expected
    # eta_a o phi_b = sum_c eps(a, b, c) eta_c, slot by slot.
    for a in ALPHAS:
        for b in ALPHAS:
            eta_a = Multivector.blade((contact.eta_index(dims, a),))
            got = contact.phi_star(table, b, eta_a)
            expected = _combine(
                (epsilon(a, b, g), Multivector.blade((contact.eta_index(dims, g),)))
                for g in ALPHAS
            )
            if got != expected:
                yield f"phi_{b}* eta_{a}", 1, f"eta{a}", got, expected


def _frame_duality(ops: OperatorSet):
    """Coframe pullback = transpose-dual of the frame action through the
    evaluation signs: P[j][i] * d_j = d_i * F[i][j]."""
    dims = ops.dims
    diag = contact.eval_diag(dims)
    for a in ALPHAS:
        pull = [[0] * dims.dim for _ in range(dims.dim)]
        for i in range(dims.dim):
            hit = ops.table.image(a, i)
            if hit is not None:
                j, sign = hit
                pull[j][i] = sign
        for i in range(dims.dim):
            for j in range(dims.dim):
                got = pull[j][i] * diag[j]
                expected = diag[i] * contact.frame_phi_coefficient(dims, a, i, j)
                if got != expected:
                    yield f"alpha={a}, (i,j)=({i},{j})", 1, "-", got, expected


# One row per family: (name, statement, max_degree, stream).  max_degree is a
# number or the OperatorSet basis ("full" or "hor") whose top degree it is.
# The rows run in this order on one shared operator cache.
_FAMILIES = [
    ("anticommutator_lambda_l", "{lambda_a, l_b} = delta_ab * id", "full", _lambda_l),
    ("anticommutator_nilpotence", "{l_a, l_b} = 0 and {lambda_a, lambda_b} = 0", "full",
     _wedge_contraction_nilpotence),
    ("eta_projections", "e_a = l_a lambda_a is idempotent; the three projections commute",
     "full", _projections),
    ("cube_isomorphisms", "lambda_a l_a = id off the eta_a sector, l_a lambda_a = id on it; "
     "sector dimensions are C(4n, k - eta-weight)", "full", _cube_isomorphisms),
    ("adjoint_via_star_equals_contraction",
     "star L_a star = sum_s (i_X i_phi_a X + i_phi_b X i_phi_c X)", "full", _lambda_routes),
    ("wedge_adjoint_commute_with_projections", "[L_a, e_m] = 0 and [Lambda_a, e_m] = 0",
     "full", _projection_commutation),
    ("wedge_pairs_commute", "[L_a, L_b] = 0 and [Lambda_a, Lambda_b] = 0", "full",
     _wedge_pairs_commute),
    ("horizontal_sector_preserved",
     "L_a, Lambda_a, K_a, I_a send eta-free blades to eta-free blades", "hor",
     _sector_preservation),
    ("weight_commutator", "[L_a, Lambda_a] = -H on the eta-free sector", "hor", _l_lambda_h),
    ("mixed_commutators",
     "[L_a, Lambda_b] = K_c and [L_a, Lambda_c] = -K_b for cyclic (a, b, c)", "hor",
     _l_lambda_k),
    ("weight_grading", "[K_a, H] = 0, [L_a, H] = 2 L_a, [Lambda_a, H] = -2 Lambda_a", "hor",
     _h_weights),
    ("bracket_closure",
     "[K_a, L_a] = 0, [K_a, Lambda_a] = 0, [K_a, L_b] = -2 L_c, [K_a, L_c] = 2 L_b, "
     "[K_a, Lambda_b] = -2 Lambda_c, [K_a, Lambda_c] = 2 Lambda_b, [K_a, K_b] = -2 K_c",
     "hor", _bracket_closure),
    ("substitution_recursion",
     "K_a K_{a,s} = (s+1) K_{a,s+1} - (k-s+1) K_{a,s-1} on each degree k", "hor",
     _substitution_recursion),
    ("substitution_endpoints", "K_{a,0} = id; K_{a,1} = K_a; K_{a,k} = I_a on degree k",
     "hor", _substitution_endpoints),
    ("quaternion_relations",
     "odd degrees: I_a^2 = -id, I_a-then-I_b = I_c, I_b-then-I_a = -I_c; "
     "even degrees: I_a^2 = id", "hor", _quaternion_relations),
    ("xi_form_consistency",
     "explicit horizontal sum = (Phi_a + 2 eta_b ^ eta_c)/2; i_xi Xi_a = 0; Xi_a is eta-free",
     2, _xi_consistency),
    ("fundamental_form_pairings",
     "<Phi_a, V ^ W> = -1 on the structure pairs, 0 on all other frame bivectors", 2,
     _fundamental_pairings),
    ("frame_evaluation_table",
     "i_{V_j} rho_i = eval_diag[i] * delta_ij over all frame/coframe slots", 1,
     _frame_evaluation),
    ("pullback_composition",
     "phi_a* phi_b* = -phi_c*, phi_b* phi_a* = phi_c* on eta-free one-forms; "
     "phi_a*^2 = -id there; eta rules follow the antisymmetric symbol", 1,
     _pullback_composition),
    ("pullback_frame_duality", "pullback table is the transpose-dual of the frame action", 1,
     _frame_duality),
]


def verify_identities(n: int, table: PhiStarTable | None = None) -> list[IdentityReport]:
    """Run the whole identity suite for rank n; reports sorted by name.

    A sign-corrupted table may be passed to exercise the negative-control
    path; failures come back as reports with witnesses, never exceptions.
    """
    if n not in SUPPORTED_RANKS:
        raise ValueError(f"rank n must be one of {SUPPORTED_RANKS}")
    ops = OperatorSet(ModelDims(n), table)
    reports = []
    for name, statement, max_degree, stream in _FAMILIES:
        if isinstance(max_degree, str):
            max_degree = getattr(ops, max_degree).max_degree
        mismatch = next(stream(ops), None)
        witness = None
        if mismatch is not None:
            member, degree, blade, got, expected = mismatch
            witness = Witness(member, degree, blade, str(got), str(expected))
        reports.append(IdentityReport(name, statement, witness is None, max_degree, witness))
    return sorted(reports, key=lambda r: r.name)
