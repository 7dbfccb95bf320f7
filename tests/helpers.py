"""Shared hypothesis strategies and recorded fault fingerprints for the tests."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from cosym3 import contact
from cosym3.exterior import Multivector, _combine, _interior, hodge_star, wedge
from cosym3.identities import _differences


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


def reference_operator_differences(ops, members):
    """The blockwise operator comparator: for each (description, lhs, rhs)
    triple, every degree block of the ``blocks`` views whose columns differ
    goes to ``identities._differences``, which locates the witnesses."""
    for desc, lhs, rhs in members:
        basis = lhs.basis
        for k in basis.degrees():
            got, expected = lhs.blocks[k], rhs.blocks[k]
            if [col._terms for col in got] != [col._terms for col in expected]:
                yield from _differences(ops, k, basis.blades(k), [(desc, got, expected)])


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
