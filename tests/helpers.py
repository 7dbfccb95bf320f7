"""Shared hypothesis strategies and recorded fault fingerprints for the tests."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from cosym3 import contact
from cosym3.exterior import Multivector, _combine, _interior, _pull_back, hodge_star, wedge
from cosym3.operators import GradedOperator


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


def reference_k_s(ops, a, s):
    """K_{a,s} by enumerating every s-subset of each blade's factors, in
    ``combinations`` order, and pulling each back."""
    row = ops.table.entries[a]

    def column(m):
        acc = {}
        factors = [1 << i for i in range(m.bit_length()) if m >> i & 1]
        for chosen in combinations(factors, s):
            sign, image = _pull_back(m, row, sum(chosen))
            if sign:
                acc[image] = acc.get(image, 0) + sign
        return acc

    return GradedOperator.from_function(0, ops.hor, column)


def image_items(op):
    """An operator's image table as nested item lists: equal exactly when the
    tables are equal with every key order the same."""
    return [(m, list(column.items())) for m, column in op._images.items()]


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
