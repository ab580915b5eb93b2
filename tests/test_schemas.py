"""Every document the command line prints conforms to its shipped schema in
docs/schemas/, parsed as strict JSON (no NaN or Infinity)."""

import json
import math
from pathlib import Path

import jsonschema
import pytest

import spectral_pair.verify as verify
from spectral_pair import Mat3, MatrixPair, SingularMatrix, jsonio, random_pair
from spectral_pair.cli import main

from conftest import (
    FIXTURE_B,
    PAIR_FIXTURE,
    nan_eigenvalue_pair,
    SPECTRAL_FIXTURE,
    oversized_integer_pair_file,
    scaled_pair_file,
    strict_loads,
)

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def validate(doc, name: str) -> None:
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, schema", [
    pytest.param(("random-pair", "--seed", "7"), "pair", id="random-pair"),
    pytest.param(("spectral", PAIR_FIXTURE), "spectral", id="spectral"),
    pytest.param(("check", PAIR_FIXTURE), "check", id="check"),
    pytest.param(("act", "--word", "S,I,T", SPECTRAL_FIXTURE), "spectral",
                 id="act"),
    pytest.param(("act", "--word", "T", "--side", "matrix", PAIR_FIXTURE),
                 "pair", id="act-matrix"),
])
def test_document_matches_schema(argv, schema, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    validate(strict_loads(out), schema)


def test_verify_lines_match_report_schema(capsys):
    code, out, _ = run(capsys, "verify", "--seeds", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8   # seven properties and the summary
    for line in lines:
        validate(strict_loads(line), "report")


def test_a_nan_residual_fails_verify_in_strict_json(monkeypatch, capsys):
    """A property that returns NaN on seed 1 fails, with that seed and
    component, and every line stays strict JSON: a non-finite residual is
    written as its repr."""
    def nan_on_seed_1(drawn, rebuilt, seed):
        return {"h1": 0.0, "h2": math.nan if seed == 1 else 1e-9}

    monkeypatch.setitem(verify.PROPERTIES, "commute_swap", nan_on_seed_1)
    code, out, _ = run(capsys, "verify", "--seeds", "3")
    assert code == 5
    lines = [strict_loads(line) for line in out.strip().splitlines()]
    for line in lines:
        validate(line, "report")
    by_operation = {line["operation"]: line for line in lines}
    swap = by_operation["commute_swap"]
    assert swap["status"] == "fail" and swap["max_residual"] == "nan"
    assert swap["per_component"] == {"h2": "nan"}
    assert swap["failing_seed"] == 1
    assert by_operation["summary"]["status"] == "fail"
    assert by_operation["summary"]["max_residual"] == "nan"
    assert all(line["status"] == "pass" for name, line in by_operation.items()
               if name not in ("commute_swap", "summary"))


def test_verify_lines_with_skipped_seeds_match_report_schema(monkeypatch,
                                                            capsys):
    """A property that skipped seeds lists them in ``skipped``; with every
    seed skipped it ran none, which fails it."""
    def singular(sd):
        raise SingularMatrix("forced", which=None)

    monkeypatch.setattr(verify, "reconstruct", singular)
    code, out, _ = run(capsys, "verify", "--seeds", "2")
    assert code == 5
    lines = [strict_loads(line) for line in out.strip().splitlines()]
    for line in lines:
        validate(line, "report")
    skipped = {line["operation"]: line["skipped"]
               for line in lines if "skipped" in line}
    assert skipped == dict.fromkeys(
        ("round_trip_forward", "round_trip_backward"),
        [{"seed": 0, "code": "singular_matrix"},
         {"seed": 1, "code": "singular_matrix"}])
    assert all(line["status"] == "fail" and line["seeds_run"] == 0
               for line in lines if "skipped" in line)


def test_error_lines_match_error_schema(tmp_path, capsys):
    code, _, err = run(capsys, "act", "--matrix", "2,0,0,1", SPECTRAL_FIXTURE)
    assert code == 4
    validate(strict_loads(err), "error")

    # the determinant of B overflows to NaN, which the detail carries
    code, _, err = run(capsys, "spectral", scaled_pair_file(tmp_path, "b", 1e110))
    assert code == 3
    doc = strict_loads(err)
    validate(doc, "error")
    assert doc["error"]["code"] == "singular_matrix"
    assert doc["error"]["detail"]["det"] == "nan"

    # a 400-digit integer entry is a schema error, not a traceback
    code, _, err = run(capsys, "spectral", oversized_integer_pair_file(tmp_path))
    assert code == 2
    doc = strict_loads(err)
    validate(doc, "error")
    assert doc["error"]["code"] == "schema"

    # a --matrix entry past the bound is a schema error, before decomposing
    code, _, err = run(capsys, "decompose", "--matrix", "1,1000000000000,0,1")
    assert code == 2
    doc = strict_loads(err)
    validate(doc, "error")
    assert doc["error"]["code"] == "schema"


@pytest.mark.parametrize("argv", [
    pytest.param(("act", "--word", ",".join(["T"] * 300)), id="word"),
    pytest.param(("act", "--matrix", "1,300,0,1"), id="matrix"),
])
def test_long_shear_word_is_a_coded_error(argv, capsys):
    # the divisor point grows with each shear until the on-curve check's
    # scale overflows; that fails the check instead of raising OverflowError
    code, out, err = run(capsys, *argv, SPECTRAL_FIXTURE)
    assert (code, out) == (3, "")
    doc = strict_loads(err.splitlines()[-1])
    validate(doc, "error")
    assert doc["error"]["code"] == "intermediate_degeneracy"


def pair_file(tmp_path, name: str, pair) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_doc(pair)))
    return str(path)


# a triangular A keeps its characteristic polynomial small, so its
# eigenvalues pass the leading-coefficient test, while the adjugate of each
# A - hI holds entries near 1e320 whose squares overflow
TRIANGULAR_A = Mat3.from_rows([[1, 1e160, 0], [0, 2, 1e160], [0, 0, 3.5]])


def test_overflowing_adjugate_is_a_coded_report(tmp_path, capsys):
    path = pair_file(tmp_path, "triangular", MatrixPair(TRIANGULAR_A, FIXTURE_B))
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    doc = strict_loads(out)
    validate(doc, "check")
    notes = {c["name"]: c["note"] for c in doc["checks"]}
    assert (notes["eigenvalue_separation"], notes["gauge_entries"]) \
        == ("rank_not_two", "unavailable")


@pytest.mark.parametrize("command", ["check", "spectral"])
def test_overflowing_modulus_is_a_coded_error(command, tmp_path, capsys):
    # entries near 8.7e102: the characteristic polynomial's coefficients
    # have finite parts whose moduli overflow, and read inf
    pair = random_pair(31)
    path = pair_file(tmp_path, "big", pair._replace(a=pair.a.scaled(2.0 ** 341)))
    code, out, err = run(capsys, command, path)
    assert code == 3
    if command == "check":
        doc = strict_loads(out)
        validate(doc, "check")
        notes = [c["note"] for c in doc["checks"]]
        assert "degenerate_leading_coefficient" in notes
    else:
        doc = strict_loads(err)
        validate(doc, "error")
        assert doc["error"]["code"] == "degenerate_leading_coefficient"


def test_overflowing_eigenbasis_matrix_is_a_coded_report(tmp_path, capsys):
    # B x 2^1023 is singular to the forward map, and B k overflows on the
    # report's way to the divisor point, which then misses the curve; the
    # normal form and the axis points, later stages, are unavailable
    pair = random_pair(3)
    path = pair_file(tmp_path, "huge_b", pair._replace(b=pair.b.scaled(2.0 ** 1023)))
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    doc = strict_loads(out)
    validate(doc, "check")
    assert [(c["passed"], c["note"]) for c in doc["checks"][3:]] == [
        (False, "unavailable"), (True, ""), (False, "invariant_violation"),
        (False, "unavailable")]


def test_nan_eigenvalues_are_a_coded_report(tmp_path, capsys):
    # the characteristic polynomial of A holds inf - inf; its NaN roots
    # fail the separation test, which tests their finiteness
    path = pair_file(tmp_path, "nan_eigenvalues", nan_eigenvalue_pair())
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    doc = strict_loads(out)
    validate(doc, "check")
    notes = {c["name"]: (c["passed"], c["note"]) for c in doc["checks"]}
    assert (notes["eigenvalue_separation"], notes["gauge_entries"]) \
        == ((False, "repeated_eigenvalues"), (False, "unavailable"))


@pytest.mark.parametrize("letters", [
    pytest.param(("--word", "T"), id="word"),
    pytest.param(("--matrix", "1,1,0,1"), id="matrix"),
])
def test_overflowing_matrix_product_is_a_coded_error(letters, tmp_path, capsys):
    # A B of a pair scaled by 1e160 has entries near 1e320
    a, b = random_pair(0)
    path = pair_file(tmp_path, "huge", MatrixPair(a.scaled(1e160), b.scaled(1e160)))
    code, out, err = run(capsys, "act", *letters, "--side", "matrix", path)
    assert (code, out) == (3, "")
    doc = strict_loads(err.splitlines()[-1])
    validate(doc, "error")
    assert doc["error"] == {"code": "non_finite_entries",
                            "message": "Mat3 entries must be finite"}


@pytest.mark.parametrize("argv", [
    pytest.param(("spectral", "/nonexistent/pair.json"), id="read"),
    pytest.param(("spectral", PAIR_FIXTURE, "-o", "/nonexistent/out.json"),
                 id="write"),
])
def test_io_failure_is_an_error_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    doc = strict_loads(err)
    validate(doc, "error")
    assert doc["error"]["code"] == "io"
