"""Shared hypothesis strategies and recorded fault fingerprints for the tests."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from cosym3 import contact, so41
from cosym3.exterior import (
    Multivector, _combine, _flips, _interior, hodge_star, interior, wedge,
)
from cosym3.linalg import solve_in_span, sort_with_sign
from cosym3.operators import GradedOperator, commutator


def blades(dim: int, degree: int | None = None):
    if degree is None:
        return st.sets(st.integers(0, dim - 1), max_size=dim).map(
            lambda s: tuple(sorted(s))
        )
    return st.sets(st.integers(0, dim - 1), min_size=degree, max_size=degree).map(
        lambda s: tuple(sorted(s))
    )


def coefficients():
    return st.integers(-4, 4).filter(bool).map(Fraction)


def multivectors(dim: int = 7, max_terms: int = 4):
    return st.dictionaries(blades(dim), coefficients(), max_size=max_terms).map(
        Multivector
    )


def homogeneous(dim: int = 7, degree: int = 2, max_terms: int = 4):
    return st.dictionaries(
        blades(dim, degree), coefficients(), max_size=max_terms
    ).map(Multivector)


# Reference columns of the generators, written as products of forms: the
# operators build the same columns, key order included, on the blade mask.


def reference_k(dims, a, mv):
    """K_a mv as the combination of wedge(blade, frame contraction) over the
    4n terms (factor, contracted slot, scalar)."""
    negative = contact._negative_slots(dims)
    _, b, c = contact.cyclic(a)
    terms = []
    for s in range(1, dims.n + 1):
        z = contact.zeta_index(dims, s)
        pa, pb, pc = (contact.phi_zeta_index(dims, x, s) for x in (a, b, c))
        terms += [(pa, z, 1), (z, pa, 1), (pc, pb, 1), (pb, pc, -1)]
    return _combine(
        (scalar, wedge(Multivector.blade((factor,)), contracted))
        for factor, slot, scalar in terms
        if (contracted := _interior(slot, mv, negative >> slot & 1))
    )


def pull_back_reference(blade, row, positions):
    """(sign, mask) of the tuple blade with the factors at ``positions``
    replaced by their images in ``row``, then sorted back into order; sign 0
    when an image is killed or repeats a slot of the result."""
    indices = list(blade)
    sign = 1
    for pos in positions:
        if row[blade[pos]] is None:
            return 0, 0
        indices[pos], s = row[blade[pos]]
        sign *= s
    if len(set(indices)) < len(indices):
        return 0, 0
    parity, image = sort_with_sign(indices)
    return sign * parity, sum(1 << i for i in image)


def reference_k_s(ops, a, s):
    """K_{a,s} by enumerating every s-subset of each blade's factors, in
    ``combinations`` order, and substituting each on the tuple blade through
    ``pull_back_reference``: no code shared with either route in the package."""
    row = ops.table.entries[a]

    def column(m):
        acc = {}
        blade = tuple(i for i in range(m.bit_length()) if m >> i & 1)
        for positions in combinations(range(len(blade)), s):
            sign, image = pull_back_reference(blade, row, positions)
            if sign:
                acc[image] = acc.get(image, 0) + sign
        return acc

    return GradedOperator.from_function(0, ops.hor, column)


def image_items(op):
    """An operator's image table as nested item lists: equal exactly when the
    tables are equal with every key order the same."""
    return [(m, list(column.items())) for m, column in op._images.items()]


# The per-blade column functions of the generators that write their tables
# directly: ``from_function`` over these is the reference route.


def reference_replacements(shift, basis, terms):
    """The slot replacements of the (r, w, c) terms, each blade testing every
    term; terms that meet on a blade must not occur."""
    moves = [(r | w, r, r ^ w, (_flips(r) ^ _flips(w)) & ~r, c) for r, w, c in terms]
    return GradedOperator.from_function(shift, basis, lambda m: {
        m ^ swap: -c if (m & flips).bit_count() & 1 else c
        for read, r, swap, flips, c in moves
        if m & read == r
    })


def reference_tables(ops, a):
    """(name, operator) for l_a, lambda_a, L_full, L, Lambda_full, Lam, K_a and
    Lambda_star through ``from_function``: l_a and lambda_a read one ``wedge``
    or ``interior`` of every blade, Lambda_star stars each blade, reads the
    reference L_full and stars back."""
    dims = ops.dims
    idx = contact.eta_index(dims, a)
    bit = 1 << idx
    every = Multivector(_masks={m: 1 for masks in ops.full._masks.values() for m in masks})
    wedged = wedge(Multivector(_masks={bit: 1}), every)._terms
    contracted = interior(idx, every)._terms
    xi = [(0, x, c) for x, c in contact.xi_form(dims, a, ops.table)._terms.items()]
    pairs = ops._lambda_terms(a)
    l_full = reference_replacements(+2, ops.full, xi)
    full = (1 << dims.dim) - 1
    signs = {}  # blade -> the sign of its star, the complement blade
    for masks in ops.full._masks.values():
        starred = hodge_star(Multivector(_masks=dict.fromkeys(masks, 1)), dims)
        signs.update((full ^ image, sign) for image, sign in starred._terms.items())
    return [
        ("l", GradedOperator.from_function(
            +1, ops.full, lambda m: {} if m & bit else {m | bit: wedged[m | bit]})),
        ("lam", GradedOperator.from_function(
            -1, ops.full, lambda m: {m ^ bit: contracted[m ^ bit]} if m & bit else {})),
        ("L_full", l_full),
        ("L", reference_replacements(+2, ops.hor, xi)),
        ("Lambda_full", reference_replacements(-2, ops.full, pairs)),
        ("Lam", reference_replacements(-2, ops.hor, pairs)),
        ("K", reference_replacements(0, ops.hor, ops._k_terms(a))),
        ("Lambda_star", GradedOperator.from_function(-2, ops.full, lambda m: {
            full ^ t: signs[m] * c * signs[t]
            for t, c in l_full._images.get(full ^ m, {}).items()
        })),
    ]


def column_items(op):
    """An operator's image table with each column as an item list: equal
    exactly when the tables are equal with each column's key order the same,
    whatever the order of the columns."""
    return {m: list(column.items()) for m, column in op._images.items()}


def reference_wedge_xi(dims, a, table, mv):
    """L_a mv and L_full(a) mv: the wedge with Xi_a."""
    return wedge(contact.xi_form(dims, a, table), mv)


def reference_lambda_star(dims, a, table, mv):
    """Lambda_star(a) mv: the wedge with Xi_a conjugated by the star."""
    return hodge_star(reference_wedge_xi(dims, a, table, hodge_star(mv, dims)), dims)


def on_forms(fn):
    """A mask column function for ``GradedOperator.from_function`` from a map
    of forms: the blade mask as a unit form in, the image's mask dict out."""
    return lambda m: fn(Multivector(_masks={m: 1}))._terms


def reference_differences(ops, k, blades, members):
    """Columns where the members of one degree-k block differ.

    Each member is ``(description, got_columns, expected_columns)``, two
    column lists over ``blades``.  Blade by blade, in basis order, every
    member is compared, in member order.
    """
    descs = [desc for desc, _, _ in members]
    for blade, *pairs in zip(blades, *(zip(got, exp) for _, got, exp in members)):
        for desc, (got, expected) in zip(descs, pairs):
            if got._terms != expected._terms:
                yield desc, k, contact.format_blade(ops.dims, blade), got, expected


def reference_operator_differences(ops, groups):
    """The blockwise operator comparator: each group (a (description, lhs,
    rhs) triple, or a list of triples compared together) is read through the
    ``blocks`` views, degree block by degree block, and
    ``reference_differences`` locates the witnesses.  A description may be
    a function of the degree."""
    for group in groups:
        members = group if isinstance(group, list) else [group]
        basis = members[0][1].basis
        for k in basis.degrees():
            yield from reference_differences(ops, k, basis.blades(k), [
                (desc(k) if callable(desc) else desc, lhs.blocks[k], rhs.blocks[k])
                for desc, lhs, rhs in members
            ])


def witnesses(stream) -> list[tuple]:
    """A mismatch stream as (member, degree, blade, lhs, rhs) with both sides
    formatted, as a report's witness holds them."""
    return [(member, k, blade, str(got), str(expected)) for member, k, blade, got, expected in stream]


# Read only: the benchmark's recorded verdict fingerprints.
FINGERPRINTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "fingerprints.json").read_text()
)
FAULT_FINGERPRINTS = FINGERPRINTS["faults-n1"]


def fingerprint(obj) -> str:
    """First 16 hex digits of the sha256 of the compact sorted JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_pairs(gens):
    """The pair checks of ``so41.verify_module`` as its report dicts, each
    commutator solved against the full flattened generators: one full-length
    ``linalg.solve_in_span`` per pair, whose None is the escape verdict."""
    names = so41.GENERATOR_NAMES
    flat = [so41._flatten(gens[name]) for name in names]
    pairs = []
    for left, right in combinations(names, 2):
        coeffs = solve_in_span(flat, so41._flatten(commutator(gens[left], gens[right])))
        if coeffs is None:
            ok, detail = False, "commutator escapes the span"
        else:
            expected = so41._combination(*zip(coeffs, so41._IMAGES.values()))
            ok = so41.bracket(so41._IMAGES[left], so41._IMAGES[right]) == expected
            detail = "" if ok else "matrix bracket disagrees with the span expansion: " + ", ".join(
                f"{name}:{c}" for name, c in zip(names, coeffs) if c
            )
        pairs.append({"pair": f"[{left}, {right}]", "ok": ok, "detail": detail})
    return pairs
