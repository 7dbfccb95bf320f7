"""Exact linear algebra helpers.

Everything here works over exact numbers, on sparse vectors (dicts from
hashable keys to coefficients) except in the dense ``rank`` and ``det``.  Over
the rationals there is one sparse elimination loop (``_reduce``), behind
ranks, determinants and span membership; it takes ``int`` and ``Fraction``
entries as given, keeps an ``int`` quotient when the pivot divides the entry
exactly and makes a ``Fraction`` only otherwise.  Over the integers one sparse
Smith loop gives integral homology: it eliminates on the same dict rows with
``_subtract``, clearing a column under each +-1 pivot by row operations alone,
and reduces rows and columns only around the few non-unit pivots left.  No
floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

Coeff = int | Fraction


def sort_with_sign(items: Sequence) -> tuple[int, tuple]:
    """Sign of the permutation that sorts the distinct ``items``, and the sorted tuple.

    The inversions are counted by taking the items out in sorted order: the
    ones still in front of the next smallest are exactly those larger than it.
    """
    ordered = sorted(items)
    rest = list(items)
    inversions = 0
    for item in ordered:
        i = rest.index(item)
        inversions += i
        del rest[i]
    return (-1 if inversions % 2 else 1), tuple(ordered)


def _subtract(vec: dict, factor: Coeff, other: Mapping) -> None:
    """``vec -= factor * other`` in place, dropping entries that become zero."""
    for key, val in other.items():
        new = vec.get(key, 0) - factor * val
        if new:
            vec[key] = new
        else:
            vec.pop(key, None)


def _reduce(cur: dict, pivots: dict, combo: dict | None = None) -> Hashable | None:
    """Reduce ``cur`` in place against ``pivots`` (lead -> (vector, combo)).

    When ``combo`` is given, every step is repeated on it, against the pivots'
    combinations.  Returns the new leading key of ``cur``, or None once it is
    zero.
    """
    while cur:
        lead = max(cur)
        if lead not in pivots:
            return lead
        basis, basis_combo = pivots[lead]
        num, den = cur[lead], basis[lead]
        if type(num) is int and type(den) is int and not num % den:
            factor: Coeff = num // den
        else:
            factor = Fraction(num, den)  # not `/`: two ints give a float
        _subtract(cur, factor, basis)
        if combo is not None:
            _subtract(combo, factor, basis_combo)
    return None


def _echelon(vectors: Sequence[Mapping[Hashable, Coeff]], combos: bool = False) -> dict:
    """Pivots of the vectors in order; one in the span of earlier ones adds none.

    A pivot's combination (vector index -> coefficient) is tracked only when
    ``combos`` is set, and is None otherwise.
    """
    pivots: dict = {}
    for i, vec in enumerate(vectors):
        # A new dict, reduced in place: a C-level copy unless an entry is zero.
        cur = dict(vec) if all(vec.values()) else {k: v for k, v in vec.items() if v}
        combo = {i: 1} if combos else None
        lead = _reduce(cur, pivots, combo)
        if lead is not None:
            pivots[lead] = (cur, combo)
    return pivots


def sparse_rank(vectors: Sequence[Mapping[Hashable, Coeff]], pivots: set | None = None) -> int:
    """Rank of a family of sparse vectors (dicts with mutually comparable keys).

    The echelon's lead keys go into ``pivots`` when it is given: each echelon
    vector combines the input ones and is zero past its lead."""
    echelon = _echelon(vectors)
    if pivots is not None:
        pivots.update(echelon)
    return len(echelon)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over the rationals."""
    return len(_echelon([{j: v for j, v in enumerate(row) if v} for row in rows]))


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix over the rationals.

    The empty matrix has determinant 1.  The rows are echelonized in order
    with ``_reduce``, each copied once into a sparse dict: the pivot from row
    i is row i minus multiples of earlier pivots (a unit lower triangular
    change, so the determinant is unchanged) and has entries only at columns
    up to its lead, so the determinant is the sign of the permutation row ->
    lead times the product of the pivot entries.  The i-th pivot inserted is
    row i's, so the leads in insertion order are that permutation.  The
    first row that reduces to zero makes the matrix singular, and the
    elimination stops there with 0.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    pivots: dict = {}
    for row in rows:
        cur = {j: v for j, v in enumerate(row) if v}
        lead = _reduce(cur, pivots)
        if lead is None:
            return Fraction(0)
        pivots[lead] = (cur, None)
    result = 1
    for lead, (vec, _) in pivots.items():
        result *= vec[lead]
    return Fraction(sort_with_sign(list(pivots))[0] * result)


def solve_in_span(
    vectors: Sequence[Mapping[Hashable, Coeff]],
    target: Mapping[Hashable, Coeff],
) -> list[Coeff] | None:
    """Express ``target`` as an exact linear combination of ``vectors``.

    Returns the coefficient list, or None when the target lies outside the
    span.  The solution is deterministic: the vectors are taken in order, a
    vector that lies in the span of the earlier ones gets coefficient 0, and
    the target is written uniquely over the remaining independent ones.
    """
    cur = {k: v for k, v in target.items() if v}
    combo: dict = {}
    if _reduce(cur, _echelon(vectors, combos=True), combo) is not None:
        return None
    return [-combo.get(i, 0) for i in range(len(vectors))]


def smith_normal_form(
    vectors: Sequence[Mapping[Hashable, int]], pivots: set | None = None
) -> list[int]:
    """Invariant factors of a sparse integer matrix, as a divisibility chain.

    Returns the nonnegative diagonal of the Smith normal form with
    d1 | d2 | ... and trailing zeros stripped, so ``len(result)`` is the rank.
    The rows are dicts with hashable keys, as for ``sparse_rank``; columns do
    as well, since the transpose has the same invariant factors.  Each step
    pivots on an entry of smallest magnitude (the first +-1 found, if any;
    else the first entry of least magnitude, the scan stopping at the first
    +-2, as no smaller nonzero integer is left) and
    reduces the other rows' entries in its column modulo the pivot.  A +-1
    pivot clears its column, and then column operations would touch only its
    own row, so the row is dropped with a factor 1.  A larger pivot also
    reduces its row modulo itself by column operations; it is dropped once its
    row and column are clear, else a smaller remainder is the next pivot (Dumas,
    Saunders and Villard, J. Symbolic Comput. 32, 2001).  Arbitrary precision.

    When ``pivots`` is given, the columns of the +-1 pivots taken before the
    first column operation go into it.  Up to then each row combines input
    rows over Z, and the pivot rows are a triangle with +-1 on its diagonal
    at those columns.  A column operation mixes columns, so they no longer
    name the input's keys and a unit found after one is not recorded.
    """
    # New dicts, reduced in place: C-level copies unless an entry is zero.
    rows = [dict(vec) if all(vec.values()) else {j: v for j, v in vec.items() if v} for vec in vectors]
    rows = [row for row in rows if row]
    units, diag = 0, []  # the count of +-1 pivots, the other pivots' factors
    while rows:
        for i0, row in enumerate(rows):
            if 1 in (values := row.values()) or -1 in values:
                for j0, p in row.items():
                    if p == 1 or p == -1:
                        break
                break
        else:
            least = None  # the first entry of least magnitude; no +-1 is left, so a +-2 is least
            for i, row in enumerate(rows):
                for j, v in row.items():
                    if least is None or abs(v) < least:
                        least, i0, j0 = abs(v), i, j
                        if least == 2:
                            break
                if least == 2:
                    break
        pivot_row = rows.pop(i0)
        p = pivot_row[j0]
        unit = p == 1 or p == -1
        kept = []
        for row in rows:
            q = row.get(j0)
            if q:
                _subtract(row, q * p if unit else q // p, pivot_row)  # 1 / p = p for a unit
            if row:
                kept.append(row)
        rows = kept
        if unit:
            units += 1
            if pivots is not None:
                pivots.add(j0)
            continue
        quotients = {j: v // p for j, v in pivot_row.items() if j != j0 and v // p}
        if quotients:
            pivots = None  # the column operations below rename the columns
        for row in rows + [pivot_row]:
            if j0 in row:
                _subtract(row, row[j0], quotients)
        if len(pivot_row) == 1 and not any(j0 in row for row in rows):
            diag.append(abs(p))
        else:
            rows.append(pivot_row)
    # Units lead the chain; one pass chains the rest, as diag(a, b) ~ diag(gcd,
    # lcm) under unimodular operations and diag[i] ends as the gcd of diag[i:].
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [1] * units + diag
