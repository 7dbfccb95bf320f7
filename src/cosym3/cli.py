"""Batch command-line front end.

Subcommands run the verification suites and print human-readable or JSON
reports.  Each subcommand is one entry in ``build_parser``'s table (flags,
runner, text renderer); ``main`` only parses, runs and emits.  Exit codes
are a stable contract: 0 success, 1 verification failure, 2 usage error.
JSON output carries ``schema_version`` and round-trips every number shown in
text mode; item ordering is deterministic (sorted identity names, ascending
degrees).  ``--boundaries text`` prints the boundary triples in text mode;
with ``--json`` either value embeds them.  No environment variable is read;
``report`` runs its suites in sequence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__, betti, cellular, identities, so41
from .betti import HorizontalBettiSequence, betti_from_horizontal
from .contact import PhiStarTable
from .exterior import ModelDims
from .operators import SUPPORTED_RANKS

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """A flag value argparse cannot check alone; ``main`` exits 2 on it."""


@dataclass
class Report:
    command: str
    n: int | None
    payload: dict
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def status(self, strict: bool = False) -> str:
        if self.failures or (strict and self.warnings):
            return "fail"
        return "pass"

    def to_dict(self, strict: bool = False) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "cosym3",
            "version": __version__,
            "command": self.command,
            "n": self.n,
            "status": self.status(strict),
            "failures": self.failures,
            "warnings": self.warnings,
            **self.payload,
        }


def _failed_items(reports) -> tuple[list[str], list[str]]:
    """The failed items of constraint reports as ``"report: item"`` strings,
    split into (failures, warnings) by each item's ``warning`` flag."""
    failures: list[str] = []
    warnings: list[str] = []
    for rep in reports:
        for item in rep.items:
            if not item.ok:
                (warnings if item.warning else failures).append(f"{rep.name}: {item.name}")
    return failures, warnings


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def run_identities(n: int, inject_sign_error: bool = False) -> Report:
    table = None
    if inject_sign_error:
        table = PhiStarTable.build(ModelDims(n)).with_sign_flip(1, 0)
    reports = identities.verify_identities(n, table)
    failures = [r.name for r in reports if not r.passed]
    payload = {"identities": [r.to_dict() for r in reports]}
    return Report("verify-identities", n, payload, failures)


def _identities_text(report: Report) -> list[str]:
    lines = [f"identity suite, n = {report.n}"]
    for item in report.payload["identities"]:
        status = "PASS" if item["passed"] else "FAIL"
        lines.append(f"  {status}  {item['name']}: {item['statement']}")
        if item["witness"]:
            w = item["witness"]
            lines.append(
                f"        witness [{w['member']}] degree {w['degree']} blade {w['blade']}"
            )
            lines.append(f"        lhs = {w['lhs']}")
            lines.append(f"        rhs = {w['rhs']}")
    return lines


# ---------------------------------------------------------------------------
# so41-check
# ---------------------------------------------------------------------------


def run_so41(n: int, inject_sign_error: bool = False) -> Report:
    module = so41.verify_module(
        n, corrupt_generator="K3" if inject_sign_error else None
    )
    return Report("so41-check", n, {"module": module.to_dict()}, module.failures())


def _so41_text(report: Report) -> list[str]:
    m = report.payload["module"]
    lines = [f"so(4,1) module check, n = {report.n}"]
    lines.append(
        f"  defining relations: {'PASS' if m['defining_relations_ok'] else 'FAIL'}"
    )
    lines.append(f"  basis rank: {m['basis_rank']} (expected 10)")
    lines.append(f"  bracket table: {'PASS' if m['bracket_table_ok'] else 'FAIL'}")
    lines.append(f"  operator span rank: {m['operator_span_rank']} (expected 10)")
    lines.append(f"  image rank: {m['image_rank']} (expected 10)")
    for pair in m["pairs"]:
        status = "PASS" if pair["ok"] else "FAIL"
        detail = f" ({pair['detail']})" if pair["detail"] else ""
        lines.append(f"  {status}  {pair['pair']}{detail}")
    return lines


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------


def run_betti(bh: HorizontalBettiSequence) -> Report:
    full = betti_from_horizontal(bh)
    divisibility = betti.check_divisibility(full)
    bounds = betti.check_bounds(full)
    horizontal = betti.check_horizontal_constraints(bh)
    failures, warnings = _failed_items((divisibility, bounds, horizontal))
    payload = {
        "bh": list(bh.values),
        "betti": list(full),
        "series": list(full),
        "divisibility": divisibility.to_dict(),
        "bounds": bounds.to_dict(),
        "horizontal": horizontal.to_dict(),
    }
    return Report("betti", bh.n, payload, failures, warnings)


def _betti_command(args: argparse.Namespace) -> Report:
    """The ``betti`` runner: ``--bh`` is checked against ``--n`` before the run.
    Every comma-separated field must be an integer; an empty one is a usage error."""
    try:
        values = [int(x) for x in args.bh.split(",")]
    except ValueError:
        raise _UsageError("--bh must be a comma-separated integer list") from None
    try:
        bh = HorizontalBettiSequence(args.n, values)
    except ValueError as err:  # wrong length or a negative entry
        raise _UsageError(f"--bh: {err}") from None
    return run_betti(bh)


def _betti_text(report: Report) -> list[str]:
    lines = [f"betti arithmetic, n = {report.n}"]
    lines.append(f"  bh = {','.join(str(v) for v in report.payload['bh'])}")
    lines.append(f"  b  = {','.join(str(v) for v in report.payload['betti'])}")
    for section in ("divisibility", "bounds", "horizontal"):
        rep = report.payload[section]
        lines.append(f"  {rep['name']}:")
        for item in rep["items"]:
            status = "PASS" if item["ok"] else ("WARN" if item["warning"] else "FAIL")
            margin = f", margin {item['margin']}" if item["margin"] is not None else ""
            lines.append(f"    {status}  {item['name']} ({item['detail']}{margin})")
    return lines


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def run_homology(
    integer: bool = False,
    inject_sign_error: bool = False,
    include_boundaries: str | None = None,
) -> Report:
    twist = cellular.unit_translation_twist()
    if inject_sign_error:
        twist = twist.with_sign_flip(3)
    failures: list[str] = []
    payload: dict = {}
    try:
        complex_ = cellular.build_complex(twist)
    except cellular.ComplexConsistencyError as err:
        failures.append(f"boundary squared nonzero on cell {sorted(err.cell)}")
        payload["boundary_squared_zero"] = False
        return Report("homology", None, payload, failures)
    payload["boundary_squared_zero"] = True
    payload["cell_counts"] = list(complex_.cell_counts())

    integral = cellular.homology(complex_, "integer")
    rational = cellular.homology(complex_, "rational")
    if integral.betti != rational.betti:
        failures.append("integer and rational Betti numbers disagree")
    shown = integral if integer else rational
    payload["homology"] = shown.to_dict()
    payload["torsion"] = [list(t) for t in integral.torsion]
    payload["betti"] = list(integral.betti)
    payload["b2"] = integral.betti[2]

    # The paper twist's oracle on purpose: --inject-sign-error shows as a route disagreement.
    oracle = cellular.invariant_cohomology_oracle()
    payload["oracle_bh"] = list(oracle.values)
    payload["oracle_betti"] = list(betti_from_horizontal(oracle))
    check = cellular.cross_check(integral, oracle)
    payload["cross_check"] = check.to_dict()
    failures.extend(item.name for item in check.items if not item.ok)

    sequence_checks = [
        betti.check_divisibility(integral.betti),
        betti.check_bounds(integral.betti),
    ]
    payload["constraints"] = [rep.to_dict() for rep in sequence_checks]
    sequence_failures, warnings = _failed_items(sequence_checks)
    failures.extend(sequence_failures)

    if include_boundaries:
        counts = complex_.cell_counts()
        payload["boundaries"] = [
            {"k": k, "rows": rows, "cols": cols, "entries": [list(t) for t in complex_.triples(k)]}
            for k, (rows, cols) in enumerate(zip(counts, counts[1:]), start=1)
        ]
        payload["boundaries_format"] = include_boundaries
    return Report("homology", None, payload, failures, warnings)


def _homology_text(report: Report) -> list[str]:
    lines = ["cellular homology of the twisted seven-torus quotient"]
    if not report.payload.get("boundary_squared_zero", True):
        lines.append("  FAIL  boundary squared nonzero")
        return lines
    payload = report.payload
    lines.append(f"  cell counts: {payload['cell_counts']}")
    hom = payload["homology"]
    lines.append(f"  coefficients: {hom['coefficients']}")
    lines.append(f"  boundary ranks: {hom['boundary_ranks']}")
    lines.append(f"  betti: {payload['betti']}")
    lines.append(f"  torsion: {payload['torsion']}")
    lines.append(f"  euler characteristic: {hom['euler_characteristic']}")
    lines.append(f"  oracle horizontal: {payload['oracle_bh']}")
    lines.append(f"  oracle betti: {payload['oracle_betti']}")
    for item in payload["cross_check"]["items"]:
        status = "PASS" if item["ok"] else "FAIL"
        lines.append(f"  {status}  {item['name']} ({item['detail']})")
    for rep in payload["constraints"]:
        for item in rep["items"]:
            status = "PASS" if item["ok"] else "FAIL"
            lines.append(f"  {status}  {rep['name']}: {item['name']}")
    b2 = payload["b2"]
    if b2 < 21 and b2 != 25:
        lines.append(
            f"  verdict: b2 = {b2} rules out both product patterns "
            "(21 for the seven-torus, 25 for K3 x T^3): "
            "not a product cohomology"
        )
    if payload.get("boundaries") and payload.get("boundaries_format") == "text":
        for entry in payload["boundaries"]:
            lines.append(
                f"  boundary {entry['k']}: {entry['rows']} x {entry['cols']} sparse triples"
            )
            for row, col, value in entry["entries"]:
                lines.append(f"    {row} {col} {value}")
    return lines


# ---------------------------------------------------------------------------
# report (aggregate)
# ---------------------------------------------------------------------------


def run_report(n: int) -> Report:
    torus = HorizontalBettiSequence.from_sector_counts(ModelDims(n))
    results = {
        "identities": run_identities(n),
        "so41": run_so41(n),
        "betti_torus": run_betti(torus),
        "homology": run_homology(),
    }
    ranks = [betti.s_k_rank(n, k) for k in range(0, n + 1)]
    failures = [f"power product rank k={r.k}" for r in ranks if not r.passed]
    warnings: list[str] = []
    for name, sub in sorted(results.items()):
        failures.extend(f"{name}: {f}" for f in sub.failures)
        warnings.extend(f"{name}: {w}" for w in sub.warnings)
    payload = {
        "suites": {name: results[name].to_dict() for name in sorted(results)},
        "power_product_ranks": [r.to_dict() for r in ranks],
    }
    return Report("report", n, payload, failures, warnings)


def _report_text(report: Report) -> list[str]:
    lines = [f"aggregate verification report, n = {report.n}"]
    for name, sub in report.payload["suites"].items():
        lines.append(f"  suite {name}: {sub['status'].upper()}")
    for rank in report.payload["power_product_ranks"]:
        status = "PASS" if rank["passed"] else "FAIL"
        lines.append(
            f"  {status}  power product rank k={rank['k']}: "
            f"{rank['rank']} (expected {rank['expected']})"
        )
    if report.failures:
        lines.append("  failures:")
        for failure in report.failures:
            lines.append(f"    - {failure}")
    return lines


# ---------------------------------------------------------------------------
# the subcommand table and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosym3",
        description=(
            "Exact verification suites for the flat 3-structure operator "
            "algebra, Betti constraints, and the twisted-torus homology."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run, render, ranks=(), hook=None, **flags):
        """Declare one subcommand: ``--n`` when it has ranks, the shared ``--json``
        and ``--strict``, its own flags, the ``--inject-sign-error`` self-test
        hook when it has one, and its runner and text renderer."""
        p = sub.add_parser(name, help=help_text)
        if ranks:
            p.add_argument(
                "--n", type=int, default=1, choices=ranks, help="quaternionic rank"
            )
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--strict", action="store_true", help="treat warnings as failures")
        for flag, options in flags.items():
            p.add_argument(f"--{flag}", **options)
        if hook:
            p.add_argument(
                "--inject-sign-error", action="store_true", help=f"{hook} (self-test hook)"
            )
        p.set_defaults(run=run, render=render)

    command("verify-identities", "run the operator identity suite",
            lambda a: run_identities(a.n, a.inject_sign_error), _identities_text,
            SUPPORTED_RANKS, hook="flip one sign in the structure table")
    command("so41-check", "verify the so(4,1) module structure",
            lambda a: run_so41(a.n, a.inject_sign_error), _so41_text,
            SUPPORTED_RANKS, hook="negate the K3 generator")
    command("betti", "Betti arithmetic and constraint checks", _betti_command, _betti_text,
            (0, 1, 2, 3), bh={"required": True,
                              "help": "comma-separated horizontal Betti numbers, length 4n + 1"})
    command("homology", "cellular homology of the example",
            lambda a: run_homology(a.integer, a.inject_sign_error, a.boundaries),
            _homology_text,
            integer={"action": "store_true",
                     "help": "display integral homology (ranks and torsion via Smith forms)"},
            boundaries={"choices": ("text", "json"),
                        "help": "include the boundary matrices as sparse triples"},
            hook="flip one sign in the twist")
    command("report", "run every suite and aggregate",
            lambda a: run_report(a.n), _report_text, (1, 2))
    return parser


def _emit(report: Report, as_json: bool, strict: bool, text_lines) -> int:
    if as_json:
        print(json.dumps(report.to_dict(strict), indent=2, sort_keys=True))
    else:
        print("\n".join([*text_lines(report), f"overall: {report.status(strict).upper()}"]))
    return EXIT_OK if report.status(strict) == "pass" else EXIT_VERIFICATION_FAILURE


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        report = args.run(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(report, args.json, args.strict, args.render)


if __name__ == "__main__":
    sys.exit(main())
