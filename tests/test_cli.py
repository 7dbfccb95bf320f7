"""Command-line contract: exit codes, JSON schema, text/JSON round-trip."""

import hashlib
import json
from pathlib import Path

from cosym3 import cellular
from cosym3.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILURE,
    SCHEMA_VERSION,
    main,
)

GOLDEN = Path(__file__).parent / "golden"

# sha256 of stdout and the exit code, recorded once per command; never
# re-record them to make a change pass.
PINNED_OUTPUTS = {
    "homology": ("8f145708a5fe0880521834236f783ff588707cdfc2d9736471d700dbd5bf2351", 0),
    "homology --json": ("2d23dc3695822612626bcae8a6fdbbe7faeba30644f40745c92f28f01de10e76", 0),
    "homology --json --integer --boundaries json": (
        "165697b4fbce86f1483d600095e8e1c149e778e7c33ea0f255c835c826675ca1", 0),
    "homology --integer --boundaries text": (
        "53118f253bbdbcfbc61b6e4e0ec3042acf782104841bf0e11c6497a72b6717d1", 0),
    "homology --json --inject-sign-error": (
        "f6f305b555e6409168fd33d0aadbe613557d508b5721b91bb0a4b33f1f8a4731", 1),
    "verify-identities --n 1": (
        "4c68bd41f228c4879c69b36131c41ca7cd239bde5c4218811181256d6a256b3c", 0),
    "verify-identities --n 1 --inject-sign-error --json": (
        "db80bb02e068c4b51b8ea66912c689768d5b7ca48c6a3af03a368fc66e8b7a09", 1),
    "so41-check --n 1 --inject-sign-error": (
        "d365814818c9de7e102e4a52ec2a6c985b272c1effe15c2c67e46de3ed2b06fc", 1),
    "so41-check --n 1 --inject-sign-error --json": (
        "1ffce29d3d7abf539bd735d7e33e3caafab1d0411aeca524893e31a1f40f0ca6", 1),
    "verify-identities --n 2 --inject-sign-error --json": (
        "ca62159f453c1b5556b7bd158d5e99609442320e83d4f0a8ced08c75de75c3d0", 1),
    "so41-check --n 2 --inject-sign-error --json": (
        "6aa61b7af363da16cbe37e993e6146349afd9058595308c9fadbac12ec7c10b1", 1),
    "betti --n 1 --bh 1,0,4,0,2 --json --strict": (
        "70be8f59afc8f3fff0162606023c6f86c32686c0ad99d578f604d00ed23074b0", 1),
    "report --n 2 --json": (
        "04742f1e19ec1da6b7708f96dd5c722a82c7277a222f9c0a9d8ee43b058b8be8", 0),
}


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

    def test_boundary_squared_failure_is_reported(self, capsys, monkeypatch):
        # No signed-permutation twist breaks d^2 = 0, so corrupt one face sign.
        real = cellular.boundary

        def flipped(cell, twist=None):
            chain = real(cell, twist)
            if cell == (3, 5):
                chain[(4,)] = -chain[(4,)]
            return chain

        monkeypatch.setattr(cellular, "boundary", flipped)
        code, out, _ = run(capsys, ["homology"])
        assert code == EXIT_VERIFICATION_FAILURE
        assert "boundary squared nonzero" in out
        code, payload = run_json(capsys, ["homology", "--json"])
        assert code == EXIT_VERIFICATION_FAILURE
        assert payload["boundary_squared_zero"] is False
        assert "boundary squared nonzero on cell [3, 5, 6]" in payload["failures"]

    def test_betti_length_mismatch(self, capsys):
        code, _, err = run(capsys, ["betti", "--n", "1", "--bh", "1,0,4"])
        assert code == EXIT_USAGE
        assert "length" in err

    def test_betti_bad_integer(self, capsys):
        assert main(["betti", "--n", "1", "--bh", "1,0,x,0,1"]) == EXIT_USAGE

    def test_betti_negative_entry(self, capsys):
        code, out, err = run(capsys, ["betti", "--n", "1", "--bh", "1,0,-4,0,1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "nonnegative" in err

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

    def test_pinned_outputs_are_byte_stable(self, capsys):
        changed = {}
        for command, pinned in PINNED_OUTPUTS.items():
            code, out, _ = run(capsys, command.split())
            got = (hashlib.sha256(out.encode()).hexdigest(), code)
            if got != pinned:
                changed[command] = got
        assert not changed

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
