"""Exact linear algebra helpers.

Everything here works over exact numbers.  Over the rationals there is one
sparse elimination loop (``_reduce``), behind ranks, determinants and span
membership; it takes ``int`` and ``Fraction`` entries as given and makes a
``Fraction`` only at its one division.  Over the integers a Smith normal form
gives integral homology.  No floating point anywhere.
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


def _subtract(vec: dict, factor: Fraction, other: Mapping) -> None:
    """``vec -= factor * other`` in place, dropping entries that become zero."""
    for key, val in other.items():
        new = vec.get(key, 0) - factor * val
        if new:
            vec[key] = new
        else:
            vec.pop(key, None)


def _reduce(cur: dict, combo: dict, pivots: dict) -> Hashable | None:
    """Reduce ``cur`` in place against ``pivots`` (lead -> (vector, combo)).

    Every step is repeated on ``combo``.  Returns the new leading key of
    ``cur``, or None once it is zero.
    """
    while cur:
        lead = max(cur)
        if lead not in pivots:
            return lead
        basis, basis_combo = pivots[lead]
        factor = Fraction(cur[lead], basis[lead])  # not `/`: two ints give a float
        _subtract(cur, factor, basis)
        _subtract(combo, factor, basis_combo)
    return None


def _echelon(vectors: Sequence[Mapping[Hashable, Coeff]]) -> dict:
    """Pivots of the vectors in order; one in the span of earlier ones adds none."""
    pivots: dict = {}
    for i, vec in enumerate(vectors):
        cur = {k: v for k, v in vec.items() if v}
        combo = {i: 1}
        lead = _reduce(cur, combo, pivots)
        if lead is not None:
            pivots[lead] = (cur, combo)
    return pivots


def sparse_rank(vectors: Sequence[Mapping[Hashable, Coeff]]) -> int:
    """Rank of a family of sparse vectors (dicts with mutually comparable keys)."""
    return len(_echelon(vectors))


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix over the rationals."""
    return len(_echelon([dict(enumerate(row)) for row in rows]))


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix over the rationals.

    The empty matrix has determinant 1.  The rows are echelonized in order:
    the pivot from row i has combination i plus earlier rows (unit lower
    triangular, so the determinant is unchanged) and entries only at columns
    up to its lead, so the determinant is the sign of the permutation
    row -> lead times the product of the pivot entries.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    pivots = _echelon([dict(enumerate(row)) for row in rows])
    if len(pivots) < n:
        return Fraction(0)
    lead_of = [0] * n
    result = Fraction(1)
    for lead, (vec, combo) in pivots.items():
        lead_of[max(combo)] = lead
        result *= vec[lead]
    return sort_with_sign(lead_of)[0] * result


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
    if _reduce(cur, combo, _echelon(vectors)) is not None:
        return None
    return [-combo.get(i, 0) for i in range(len(vectors))]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of an integer matrix, as a divisibility chain.

    Returns the nonnegative diagonal of the Smith normal form with
    d1 | d2 | ... and trailing zeros stripped, so ``len(result)`` is the rank.
    Arbitrary-precision throughout.
    """
    m = [[int(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # Pick the nonzero entry of smallest magnitude as pivot.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        clean = True
        for i in range(t + 1, nrows):
            q = m[i][t] // m[t][t]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            if m[i][t]:
                clean = False
        for j in range(t + 1, ncols):
            q = m[t][j] // m[t][t]
            if q:
                for i in range(nrows):
                    m[i][j] -= q * m[i][t]
            if m[t][j]:
                clean = False
        if clean:
            diag.append(abs(m[t][t]))
            t += 1
    # Normalize the diagonal into a divisibility chain: diag(a, b) and
    # diag(gcd, lcm) are equivalent under unimodular operations.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = math.gcd(diag[i], diag[j])
                    lcm = diag[i] * diag[j] // g
                    diag[i], diag[j] = g, lcm
                    changed = True
    return diag
