"""Shared hypothesis strategies and recorded fault fingerprints for the tests."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from cosym3.exterior import Multivector


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


# Read only: the benchmark's recorded verdict fingerprints.
FINGERPRINTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "fingerprints.json").read_text()
)
FAULT_FINGERPRINTS = FINGERPRINTS["faults-n1"]


def fingerprint(obj) -> str:
    """First 16 hex digits of the sha256 of the compact sorted JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
