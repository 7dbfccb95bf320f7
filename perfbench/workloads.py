"""The four benchmark workloads: seeded inputs, one call per unit, verdicts.

A unit is one call into cosym3 that yields verdicts.  Every verdict is checked
against an answer that does not come from cosym3 (below) and against the
fingerprint recorded in ``fingerprints.json``.

Known answers:

* ``identities-n2``: all 20 identity families pass, with no witness.
* ``so41-n2``: all 45 bracket pairs pass; the defining relations and the
  bracket table hold and the three ranks are 10.
* ``twists-b4``: the Betti numbers (integer and rational routes) are the
  (1, 3, 3, 1) convolution of dim Fix(Lambda^k T), which is computed here as
  the average over the cyclic group of T of the sums of principal k x k
  minors; the oracle returns those dimensions; and each cross-check item's
  verdict follows from that Betti sequence.
* ``faults-n1``: every single-sign fault gives a failing report with a
  witness.

Torsion has no independent check yet, so its fingerprint is only a
regression reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from cosym3 import cellular, cli, identities, so41
from cosym3.contact import PhiStarTable
from cosym3.exterior import ModelDims

WORKLOADS = ("identities-n2", "so41-n2", "twists-b4", "faults-n1")

IDENTITY_FAMILIES = 20
SO41_PAIRS = 45
REEB_KERNEL = (1, 3, 3, 1)


@dataclass
class Unit:
    key: str
    call: Callable[[], object]


@dataclass
class Verdict:
    key: str
    fingerprint: str
    known_ok: bool
    torsion: str | None = None


def fingerprint(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dump_json(report: cli.Report) -> str:
    """The serialization ``cosym3 --json`` performs."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def all_twists() -> list[cellular.TwistMap]:
    """The 384 signed permutations of the four quaternion axes (B4)."""
    return [
        cellular.TwistMap(tuple(zip(perm, signs)))
        for perm in itertools.permutations((1, 2, 3, 4))
        for signs in itertools.product((1, -1), repeat=4)
    ]


def twist_key(twist: cellular.TwistMap) -> str:
    return "".join(f"{img}{'+' if sign > 0 else '-'}" for img, sign in twist.images)


def table_faults(n: int) -> list[tuple[str, PhiStarTable]]:
    base = PhiStarTable.build(ModelDims(n))
    return [
        (f"phi{alpha}[{index}]", base.with_sign_flip(alpha, index))
        for alpha in sorted(base.entries)
        for index, entry in enumerate(base.entries[alpha])
        if entry is not None
    ]


def _twist_unit(twist: cellular.TwistMap):
    complex_ = cellular.build_complex(twist)
    integral = cellular.homology(complex_, "integer")
    rational = cellular.homology(complex_, "rational")
    oracle = cellular.invariant_cohomology_oracle(twist)
    return integral, rational, oracle, cellular.cross_check(integral, oracle)


def make_units(workload: str, seed: int) -> list[Unit]:
    """The workload's units, in the order the seed draws."""
    rng = random.Random(seed)
    if workload == "identities-n2":
        return [Unit("identities-n2", lambda: dump_json(cli.run_identities(2)))]
    if workload == "so41-n2":
        return [Unit("so41-n2", lambda: dump_json(cli.run_so41(2)))]
    if workload == "twists-b4":
        twists = all_twists()
        rng.shuffle(twists)
        return [Unit(twist_key(t), lambda t=t: _twist_unit(t)) for t in twists]
    if workload == "faults-n1":
        units = [
            Unit(key, lambda table=table: identities.verify_identities(1, table))
            for key, table in table_faults(1)
        ]
        units += [
            Unit(f"neg {g}", lambda g=g: so41.verify_module(1, corrupt_generator=g))
            for g in so41.GENERATOR_NAMES
        ]
        rng.shuffle(units)
        return units
    raise ValueError(f"unknown workload {workload!r}")


def verdicts_per_unit(workload: str) -> int:
    return {"identities-n2": IDENTITY_FAMILIES, "so41-n2": SO41_PAIRS + 1}.get(workload, 1)


# ---------------------------------------------------------------------------
# Verdicts and the answers they are checked against
# ---------------------------------------------------------------------------


def verdicts(workload: str, unit: Unit, result) -> list[Verdict]:
    if workload == "identities-n2":
        items = json.loads(result)["identities"]
        out = [
            Verdict(item["name"], fingerprint(item), item["passed"] and item["witness"] is None)
            for item in items
        ]
        if len(items) != IDENTITY_FAMILIES:
            out.append(Verdict("family count", str(len(items)), False))
        return out
    if workload == "so41-n2":
        module = json.loads(result)["module"]
        out = [Verdict(p["pair"], fingerprint(p), p["ok"]) for p in module["pairs"]]
        summary = {k: v for k, v in module.items() if k != "pairs"}
        out.append(
            Verdict(
                "module",
                fingerprint(summary),
                summary["defining_relations_ok"]
                and summary["bracket_table_ok"]
                and summary["basis_rank"] == summary["operator_span_rank"]
                == summary["image_rank"] == 10,
            )
        )
        if len(module["pairs"]) != SO41_PAIRS:
            out.append(Verdict("pair count", str(len(module["pairs"])), False))
        return out
    if workload == "twists-b4":
        integral, rational, oracle, check = result
        fixed = fixed_dimensions(unit.key)
        betti = convolve(fixed)
        record = {
            "betti": list(integral.betti),
            "rational_betti": list(rational.betti),
            "boundary_ranks": list(integral.boundary_ranks),
            "oracle": list(oracle.values),
            "cross_check": check.to_dict(),
        }
        known = (
            integral.betti == rational.betti == betti
            and oracle.values == fixed
            and [item.ok for item in check.items] == cross_check_verdicts(betti)
        )
        return [
            Verdict(unit.key, fingerprint(record), known, fingerprint(integral.to_dict()["torsion"]))
        ]
    if workload == "faults-n1":
        if isinstance(result, so41.ModuleReport):
            record = result.to_dict()
            failing = [p for p in result.pairs if not p.ok]
            known = not result.passed and bool(failing) and all(p.detail for p in failing)
        else:
            record = [r.to_dict() for r in result]
            failing = [r for r in result if not r.passed]
            known = bool(failing) and all(r.witness is not None for r in failing)
        return [Verdict(unit.key, fingerprint(record), known)]
    raise ValueError(f"unknown workload {workload!r}")


def _parse_twist(key: str) -> list[list[int]]:
    """Matrix of a twist from its key: column ``axis`` holds sign * e_image."""
    matrix = [[0] * 4 for _ in range(4)]
    for axis in range(4):
        image, sign = int(key[2 * axis]), key[2 * axis + 1]
        matrix[image - 1][axis] = 1 if sign == "+" else -1
    return matrix


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _det(m) -> int:
    """Leibniz determinant of a small integer matrix."""
    size = len(m)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
            if not term:
                break
        total += term
    return total


def fixed_dimensions(key: str) -> tuple[int, ...]:
    """dim Fix(Lambda^k T) for k = 0..4, by averaging characters.

    The trace of Lambda^k g is the sum of the principal k x k minors of g; the
    fixed subspace of a finite cyclic group has dimension equal to the mean
    trace over the group.
    """
    generator = _parse_twist(key)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    group = [identity]
    power = generator
    while power != identity:
        group.append(power)
        power = _matmul(generator, power)
    dims = []
    for k in range(5):
        total = sum(
            _det([[g[r][c] for c in rows] for r in rows])
            for g in group
            for rows in itertools.combinations(range(4), k)
        )
        if total % len(group):
            raise ArithmeticError(f"character average is not an integer for {key}")
        dims.append(total // len(group))
    return tuple(dims)


def convolve(horizontal: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(horizontal) + len(REEB_KERNEL) - 1)
    for i, h in enumerate(horizontal):
        for j, r in enumerate(REEB_KERNEL):
            out[i + j] += h * r
    return tuple(out)


def cross_check_verdicts(betti: tuple[int, ...]) -> list[bool]:
    """Expected outcome of each item of ``cellular.cross_check``, in order."""
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    return [True, betti[2] < 21, betti[2] != 25, euler == 0, betti == betti[::-1], betti[0] == 1]
