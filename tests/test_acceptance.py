"""Acceptance suite: the exit criteria, one test per criterion.

Every tolerance is zero: each criterion is an exact algebraic statement
checked in rational or integer arithmetic.  Run with ``pytest -s
tests/test_acceptance.py`` to see one pass/fail line per criterion.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from cosym3 import cellular, contact
from cosym3.betti import (
    HorizontalBettiSequence,
    betti_from_horizontal,
    check_bounds,
    check_divisibility,
    s_k_rank,
)
from cosym3.cellular import (
    boundary,
    build_complex,
    cross_check,
    homology,
    invariant_cohomology_oracle,
    unit_translation_twist,
)
from cosym3.contact import ALPHAS, PhiStarTable, cyclic, structure_pairs
from cosym3.exterior import ModelDims, Multivector, wedge
from cosym3.identities import verify_identities
from cosym3.so41 import bracket_table_checks, verify_module
from helpers import FINGERPRINTS, fingerprint

QUOTIENT_BETTI = (1, 3, 7, 13, 13, 7, 3, 1)


def announce(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number} ({description}): PASS")


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_1_operator_identity_suite(n):
    """Every operator identity holds as an exact matrix equality."""
    reports = verify_identities(n)
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.name, r.witness) for r in failed]
    required = {
        "anticommutator_lambda_l",
        "anticommutator_nilpotence",
        "eta_projections",
        "cube_isomorphisms",
        "adjoint_via_star_equals_contraction",
        "weight_commutator",
        "mixed_commutators",
        "weight_grading",
        "bracket_closure",
        "substitution_recursion",
        "quaternion_relations",
    }
    assert required <= {r.name for r in reports}
    if n == 2:
        # Each family's report, statement included, is pinned.
        pinned = {r.name: fingerprint(r.to_dict()) for r in reports}
        assert pinned == FINGERPRINTS["identities-n2"]
    announce(1, f"operator identity suite, n = {n}")


def test_criterion_2_so41_module():
    """Bracket table reproduced; the 45-pair homomorphism check passes."""
    for name, ok in bracket_table_checks():
        assert ok, name
    report = verify_module(1)
    assert report.passed
    assert len(report.pairs) == 45
    assert report.image_rank == 10
    assert report.operator_span_rank == 10
    announce(2, "so(4,1) bracket table and module homomorphism")


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_3_fundamental_form_table(n):
    """All structure pairings equal -1, everything else 0, plus the
    half-integer building blocks."""
    dims = ModelDims(n)
    for alpha in ALPHAS:
        _, beta, gamma = cyclic(alpha)
        phi = contact.fundamental_form(dims, alpha)
        listed = structure_pairs(dims, alpha)
        for i, j in listed:
            kvec = wedge(Multivector.blade((i,)), Multivector.blade((j,)))
            assert contact.pair_frame(dims, phi, kvec) == -1
        listed_sets = {frozenset(p) for p in listed}
        for i, j in combinations(range(dims.dim), 2):
            if frozenset((i, j)) not in listed_sets:
                value = contact.pair_frame(dims, phi, Multivector.blade((i, j)))
                assert value == 0
        # Half-integer building blocks of the table.
        for s in range(1, n + 1):
            z = Multivector.blade((contact.zeta_index(dims, s),))
            pa = Multivector.blade((contact.phi_zeta_index(dims, alpha, s),))
            pb = Multivector.blade((contact.phi_zeta_index(dims, beta, s),))
            pg = Multivector.blade((contact.phi_zeta_index(dims, gamma, s),))
            assert contact.pair_frame(dims, wedge(z, pa), wedge(z, pa)) == Fraction(-1, 2)
            assert contact.pair_frame(dims, wedge(pb, pg), wedge(pb, pg)) == Fraction(1, 2)
        eb = Multivector.blade((contact.eta_index(dims, beta),))
        eg = Multivector.blade((contact.eta_index(dims, gamma),))
        assert contact.pair_frame(dims, wedge(eb, eg), wedge(eb, eg)) == Fraction(1, 2)
    announce(3, f"fundamental form pairing table, n = {n}")


def test_criterion_4_power_product_ranks():
    """Rank C(k+2, 2) for all 0 <= k <= n <= 3, with the distinct
    leading-blade mechanism."""
    for n in range(4):
        for k in range(n + 1):
            result = s_k_rank(n, k)
            assert result.rank == comb(k + 2, 2), (n, k, result.rank)
            assert result.leading_distinct
            assert result.leading_match_predicted
    announce(4, "power product ranks with leading-blade mechanism")


def test_criterion_5_betti_arithmetic():
    """Torus binomials, the K3 series with 25 at t^2, and the constraint
    checks on valid fixtures and negative controls."""
    torus = betti_from_horizontal(HorizontalBettiSequence(1, (1, 4, 6, 4, 1)))
    assert torus == tuple(comb(7, p) for p in range(8))
    assert sum(torus) == 128

    k3 = betti_from_horizontal(HorizontalBettiSequence(1, (1, 0, 22, 0, 1)))
    expected_k3 = [0] * 8
    for i, a in enumerate((1, 0, 22, 0, 1)):
        for j, b in enumerate((1, 3, 3, 1)):
            expected_k3[i + j] += a * b
    assert list(k3) == expected_k3
    assert k3[2] == 25

    for fixture in (torus, k3, QUOTIENT_BETTI):
        assert check_divisibility(fixture).passed
        assert check_bounds(fixture).passed
    assert not check_divisibility((1, 2, 0, 0)).passed
    assert not check_bounds((1, 3, 5, 13, 13, 5, 3, 1)).passed
    announce(5, "Betti arithmetic with positive and negative fixtures")


def test_criterion_6_quotient_homology():
    """Boundary squared zero, the published degree, the non-product bounds,
    palindromy, Euler characteristic, and agreement of the two independent
    homology computations."""
    complex_ = build_complex()  # raises if boundary squared is nonzero
    assert boundary((3, 5)).get((3,), 0) == 1
    integral = homology(complex_, "integer")
    rational = homology(complex_, "rational")
    assert integral.betti == rational.betti == QUOTIENT_BETTI
    assert integral.betti[2] < 21
    assert integral.betti[2] != 25
    assert integral.is_palindromic()
    assert integral.euler_characteristic() == 0
    oracle = invariant_cohomology_oracle()
    assert oracle.values == (1, 0, 4, 0, 1)
    assert betti_from_horizontal(oracle) == integral.betti
    assert cross_check(integral, oracle).passed
    announce(6, "quotient homology, two independent computations")


def test_criterion_7_negative_controls():
    """A single injected sign flip is always detected with a witness."""
    table = PhiStarTable.build(ModelDims(1)).with_sign_flip(1, 0)
    reports = verify_identities(1, table)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert all(r.witness is not None for r in failed)

    flipped = unit_translation_twist().with_sign_flip(3)
    broken = build_complex(flipped)
    report = cross_check(homology(broken, "integer"), invariant_cohomology_oracle())
    assert not report.passed
    assert any(not item.ok for item in report.items)

    corrupted = verify_module(1, corrupt_generator="K3")
    assert not corrupted.passed
    assert any("K3" in p.name for p in corrupted.pairs if not p.ok)
    announce(7, "negative controls detect injected sign errors")


def test_operator_identity_suite_rank_three():
    """The full identity suite at n = 3."""
    reports = verify_identities(3)
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.name, r.witness) for r in failed]
