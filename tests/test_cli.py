"""Command-line contract: exit codes, JSON schema, text/JSON round-trip."""

import json
from pathlib import Path

from cosym3.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILURE,
    SCHEMA_VERSION,
    main,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


class TestExitCodes:
    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, ["verify-identities", "--n", "1"])
        assert code == EXIT_OK
        assert "overall: PASS" in out

    def test_identities_bad_rank(self, capsys):
        assert main(["verify-identities", "--n", "9"]) == EXIT_USAGE

    def test_identities_injected_failure(self, capsys):
        code, out, _ = run(capsys, ["verify-identities", "--n", "1", "--inject-sign-error"])
        assert code == EXIT_VERIFICATION_FAILURE
        assert "FAIL" in out
        assert "witness" in out

    def test_so41_pass(self, capsys):
        code, _, _ = run(capsys, ["so41-check", "--n", "1"])
        assert code == EXIT_OK

    def test_so41_bad_rank(self, capsys):
        assert main(["so41-check", "--n", "4"]) == EXIT_USAGE

    def test_so41_injected_failure(self, capsys):
        code, out, _ = run(capsys, ["so41-check", "--n", "1", "--inject-sign-error"])
        assert code == EXIT_VERIFICATION_FAILURE
        assert "K3" in out

    def test_homology_pass(self, capsys):
        code, out, _ = run(capsys, ["homology"])
        assert code == EXIT_OK
        assert "not a product cohomology" in out

    def test_homology_injected_failure(self, capsys):
        code, _, _ = run(capsys, ["homology", "--strict", "--inject-sign-error"])
        assert code == EXIT_VERIFICATION_FAILURE

    def test_betti_length_mismatch(self, capsys):
        code, _, err = run(capsys, ["betti", "--n", "1", "--bh", "1,0,4"])
        assert code == EXIT_USAGE
        assert "length" in err

    def test_betti_bad_integer(self, capsys):
        assert main(["betti", "--n", "1", "--bh", "1,0,x,0,1"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


class TestBettiCommand:
    def test_quotient_sequence(self, capsys):
        code, out, _ = run(capsys, ["betti", "--n", "1", "--bh", "1,0,4,0,1"])
        assert code == EXIT_OK
        assert "1,3,7,13,13,7,3,1" in out

    def test_k3_sequence(self, capsys):
        code, payload = run_json(capsys, ["betti", "--n", "1", "--bh", "1,0,22,0,1", "--json"])
        assert code == EXIT_OK
        assert payload["betti"][:3] == [1, 3, 25]

    def test_torus_binomials(self, capsys):
        code, payload = run_json(capsys, ["betti", "--n", "1", "--bh", "1,4,6,4,1", "--json"])
        assert code == EXIT_OK
        assert payload["betti"] == [1, 7, 21, 35, 35, 21, 7, 1]

    def test_failing_fixture(self, capsys):
        code, payload = run_json(capsys, ["betti", "--n", "1", "--bh", "1,1,4,0,1", "--json"])
        assert code == EXIT_VERIFICATION_FAILURE
        assert payload["status"] == "fail"

    def test_strict_escalates_palindromy_warning(self, capsys):
        argv = ["betti", "--n", "1", "--bh", "1,0,4,0,2"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--strict"]) == EXIT_VERIFICATION_FAILURE


class TestJsonSchema:
    def test_identities_schema(self, capsys):
        code, payload = run_json(capsys, ["verify-identities", "--n", "1", "--json"])
        assert code == EXIT_OK
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["tool"] == "cosym3"
        assert payload["status"] == "pass"
        assert len(payload["identities"]) == 20
        names = [item["name"] for item in payload["identities"]]
        assert names == sorted(names)
        for item in payload["identities"]:
            assert set(item) == {"name", "statement", "passed", "max_degree", "witness"}

    def test_so41_includes_45_pairs(self, capsys):
        code, payload = run_json(capsys, ["so41-check", "--n", "1", "--json"])
        assert code == EXIT_OK
        assert len(payload["module"]["pairs"]) == 45

    def test_homology_schema(self, capsys):
        code, payload = run_json(capsys, ["homology", "--json"])
        assert code == EXIT_OK
        assert payload["b2"] == 7
        assert payload["betti"] == [1, 3, 7, 13, 13, 7, 3, 1]
        assert payload["oracle_bh"] == [1, 0, 4, 0, 1]
        assert payload["cross_check"]["passed"] is True

    def test_homology_boundary_dump(self, capsys):
        code, payload = run_json(capsys, ["homology", "--json", "--boundaries", "json"])
        assert code == EXIT_OK
        dumps = payload["boundaries"]
        assert [entry["k"] for entry in dumps] == list(range(1, 8))
        entry2 = dumps[1]
        assert entry2["rows"] == 7 and entry2["cols"] == 21
        assert all(len(t) == 3 for t in entry2["entries"])

    def test_homology_boundary_text(self, capsys):
        code, out, _ = run(capsys, ["homology", "--boundaries", "text"])
        assert code == EXIT_OK
        assert "boundary 2: 7 x 21 sparse triples" in out

    def test_text_and_json_agree(self, capsys):
        _, payload = run_json(capsys, ["betti", "--n", "1", "--bh", "1,0,4,0,1", "--json"])
        _, text, _ = run(capsys, ["betti", "--n", "1", "--bh", "1,0,4,0,1"])
        assert ",".join(str(v) for v in payload["betti"]) in text
        for item in payload["bounds"]["items"]:
            assert str(item["margin"]) in text

    def test_integer_flag_switches_coefficients(self, capsys):
        _, rational = run_json(capsys, ["homology", "--json"])
        _, integral = run_json(capsys, ["homology", "--json", "--integer"])
        assert rational["homology"]["coefficients"] == "rational"
        assert integral["homology"]["coefficients"] == "integer"
        assert rational["betti"] == integral["betti"]


class TestReport:
    def test_default_json_is_byte_stable(self, capsys):
        # Recorded once with `cosym3 report --n 1 --json`; never re-record it
        # to make a change pass.
        code, out, _ = run(capsys, ["report", "--n", "1", "--json"])
        assert code == EXIT_OK
        assert out.encode() == (GOLDEN / "report_n1.json").read_bytes()

    def test_aggregate_passes(self, capsys):
        code, payload = run_json(capsys, ["report", "--n", "1", "--json"])
        assert code == EXIT_OK
        assert payload["status"] == "pass"
        assert set(payload["suites"]) == {"betti_torus", "homology", "identities", "so41"}
        assert all(s["status"] == "pass" for s in payload["suites"].values())
        assert [r["k"] for r in payload["power_product_ranks"]] == [0, 1]

    def test_aggregate_rank_two(self, capsys):
        code, payload = run_json(capsys, ["report", "--n", "2", "--json"])
        assert code == EXIT_OK
        assert payload["status"] == "pass"
        assert [r["k"] for r in payload["power_product_ranks"]] == [0, 1, 2]
