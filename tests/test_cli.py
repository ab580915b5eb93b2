import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_pair
from spectral_pair import jsonio, spectral_residuals
from spectral_pair import cli as cli_module
from spectral_pair.cli import main

from conftest import (
    PAIR_FIXTURE,
    SPECTRAL_FIXTURE,
    overflowing_spectral_doc,
    oversized_integer_pair_file,
    scaled_pair_file,
    strict_loads,
)
from test_spectral import near_gap_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_spectral(text: str):
    return jsonio.doc_to_spectral(jsonio.loads(text))


def test_spectral_golden(capsys):
    code, out, _ = run(capsys, "spectral", PAIR_FIXTURE)
    assert code == 0
    got = load_spectral(out)
    expected = load_spectral(Path(SPECTRAL_FIXTURE).read_text())
    assert max(spectral_residuals(got, expected).values()) < 1e-12


def test_spectral_gauge_degenerate(tmp_path, capsys):
    doc = {"A": [[[1, 0], [0, 0], [0, 0]],
                 [[0, 0], [2, 0], [0, 0]],
                 [[0, 0], [0, 0], [3, 0]]],
           "B": [[[1, 0], [0, 0], [0, 0]],
                 [[0, 0], [1, 0], [0, 0]],
                 [[0, 0], [0, 0], [1, 0]]]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectral", str(path))
    assert code == 3
    # the forward map forms no gauge: both gauge entries vanish, so y = 0
    # and the divisor margin reads 0
    assert json.loads(err)["error"]["code"] == "degenerate_divisor"


@pytest.mark.parametrize("content", [
    b"{oops",
    b"[" * 100_000,   # nested deeper than the JSON decoder recurses
    b"\xff\xfe",      # not UTF-8
], ids=["unparsable", "too_deep", "not_utf8"])
def test_spectral_malformed_json(content, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "spectral", str(path))
    assert code == 2
    assert json.loads(err)["error"]["code"] == "schema"


def test_spectral_oversized_integer_is_a_schema_error(tmp_path, capsys):
    code, out, err = run(capsys, "spectral", oversized_integer_pair_file(tmp_path))
    assert (code, out) == (2, "")
    payload = strict_loads(err)["error"]
    assert payload["code"] == "schema"
    assert payload["message"] == "A[0][0]: components must be finite"


def test_spectral_missing_file(capsys):
    code, _, err = run(capsys, "spectral", "/nonexistent/nope.json")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "io"


def test_reconstruct_round_trip(capsys):
    # the fixture pair is already normalized, so reconstruction returns it
    code, out, _ = run(capsys, "reconstruct", SPECTRAL_FIXTURE)
    assert code == 0
    pair = jsonio.doc_to_pair(jsonio.loads(out))
    expected = jsonio.doc_to_pair(jsonio.loads(Path(PAIR_FIXTURE).read_text()))
    assert max(abs(x - y) for x, y in
               zip(pair.a.entries, expected.a.entries)) < 1e-9
    assert max(abs(x - y) for x, y in
               zip(pair.b.entries, expected.b.entries)) < 1e-8


def test_reconstruct_off_curve_rejected(tmp_path, capsys):
    doc = jsonio.loads(Path(SPECTRAL_FIXTURE).read_text())
    doc["divisor"]["L"][0] += 0.01
    path = tmp_path / "off_curve.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "reconstruct", str(path))
    assert code == 3
    payload = json.loads(err)["error"]
    assert payload["code"] == "invariant_violation"
    assert payload["detail"]["component"] == "divisor"


def test_reconstruct_nan_curve_residual_rejected(tmp_path, capsys):
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(overflowing_spectral_doc()))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert (code, out) == (3, "")
    payload = strict_loads(err)["error"]
    assert payload["code"] == "invariant_violation"
    assert payload["detail"]["residual"] == "nan"


@pytest.mark.parametrize("argv", [["reconstruct"], ["act", "--word", "S"]])
def test_overflowing_modulus_fails_load(argv, tmp_path, capsys):
    # the parts of h[0] are finite, but its modulus, 2.1e308, is not
    doc = jsonio.loads(Path(SPECTRAL_FIXTURE).read_text())
    doc["h"][0] = [1.5e308, 1.5e308]
    path = tmp_path / "overflowing_modulus.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (3, "")
    payload = strict_loads(err)["error"]
    assert payload["code"] == "invariant_violation"
    assert payload["detail"] == {"component": "p_plus", "residual": "inf"}


def test_act_word_swap_matches_swapped_pair(tmp_path, capsys):
    code, out, _ = run(capsys, "act", "--word", "S", SPECTRAL_FIXTURE)
    assert code == 0
    acted = load_spectral(out)

    pair_doc = jsonio.loads(Path(PAIR_FIXTURE).read_text())
    swapped_doc = {"A": pair_doc["B"], "B": pair_doc["A"]}
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(swapped_doc))
    code, out2, _ = run(capsys, "spectral", str(path))
    assert code == 0
    assert max(spectral_residuals(acted, load_spectral(out2)).values()) < 1e-6


def test_act_identity_matrix_echoes_canonical(capsys):
    code, out, err = run(capsys, "act", "--matrix", "1,0,0,1", SPECTRAL_FIXTURE)
    assert code == 0
    assert json.loads(err)["info"]["word"] == ""
    got = load_spectral(out)
    expected = load_spectral(Path(SPECTRAL_FIXTURE).read_text())
    assert max(spectral_residuals(got, expected).values()) < 1e-7


def test_act_non_unit_determinant(capsys):
    code, _, err = run(capsys, "act", "--matrix", "2,0,0,1", SPECTRAL_FIXTURE)
    assert code == 4
    assert json.loads(err)["error"]["code"] == "determinant_not_unit"


def test_act_bad_word_letter(capsys):
    code, _, err = run(capsys, "act", "--word", "S,X", SPECTRAL_FIXTURE)
    assert code == 2


def test_act_matrix_side(capsys):
    code, out, _ = run(capsys, "act", "--word", "T", "--side", "matrix",
                       PAIR_FIXTURE)
    assert code == 0
    acted = jsonio.doc_to_pair(jsonio.loads(out))
    original = jsonio.doc_to_pair(jsonio.loads(Path(PAIR_FIXTURE).read_text()))
    expected_b = original.a @ original.b
    assert acted.a.entries == original.a.entries
    assert max(abs(x - y) for x, y in
               zip(acted.b.entries, expected_b.entries)) < 1e-12


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seeds", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["operation"] == "summary"
    assert summary["status"] == "pass"
    assert summary["max_residual"] < 1e-6
    operations = {line["operation"] for line in lines[:-1]}
    assert {"round_trip_forward", "round_trip_backward", "commute_swap",
            "commute_invert", "commute_shear", "conjugation_invariance",
            "word_consistency"} <= operations


def test_verify_unattainable_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--seeds", "2",
                       "--tolerance", "1e-15")
    assert code == 5
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [line for line in lines[:-1] if line["status"] == "fail"]
    assert failing
    assert all("failing_seed" in line for line in failing)


def test_verify_rejects_bad_seed_count(capsys):
    code, _, err = run(capsys, "verify", "--seeds", "0")
    assert code == 2


def test_verify_rejects_a_negative_base_seed(capsys, monkeypatch):
    """Seeds n and -n draw the same pair, so a negative base would report
    a positive seed's pair under another number; nothing runs."""
    monkeypatch.setattr("spectral_pair.verify.run_suite", None)
    code, out, err = run(capsys, "verify", "--seeds", "1",
                         "--base-seed", "-7")
    assert code == 2 and out == ""
    assert strict_loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "0"])
def test_verify_rejects_a_tolerance_that_is_not_positive_and_finite(
        tolerance, capsys, monkeypatch):
    """A NaN tolerance would fail every property, and a negative one every
    property with a residual; both are malformed input, as ``--seeds 0``
    is, and nothing runs."""
    monkeypatch.setattr("spectral_pair.verify.run_suite", None)
    code, out, err = run(capsys, "verify", "--seeds", "1",
                         "--tolerance", tolerance)
    assert code == 2 and out == ""
    assert strict_loads(err)["error"]["code"] == "schema"


def test_verify_rejects_a_tolerance_whose_multiple_overflows(capsys,
                                                            monkeypatch):
    """``word_consistency``'s tolerance is ten times the base, so 1e308
    would give it an infinite tolerance; 1e306 runs."""
    code, out, err = run(capsys, "verify", "--seeds", "1",
                         "--tolerance", "1e306")
    assert code == 0 and err == ""
    assert all(line["tolerance"] in (1e306, 1e307)
               for line in map(strict_loads, out.splitlines()[:-1]))
    monkeypatch.setattr("spectral_pair.verify.run_suite", None)
    code, out, err = run(capsys, "verify", "--seeds", "1",
                         "--tolerance", "1e308")
    assert code == 2 and out == ""
    assert strict_loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize("matrix", ["1,2,3", "1,x,0,1"],
                         ids=["three-entries", "non-integer"])
def test_malformed_matrix_is_a_schema_error(matrix, capsys):
    code, out, err = run(capsys, "decompose", "--matrix", matrix)
    assert (code, out) == (2, "")
    assert strict_loads(err)["error"]["code"] == "schema"


def test_random_pair_deterministic(capsys):
    code, out1, _ = run(capsys, "random-pair", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "random-pair", "--seed", "7")
    assert out1 == out2  # byte identical
    code, out3, _ = run(capsys, "random-pair", "--seed", "8")
    assert out3 != out1


def test_random_pair_rejects_a_negative_seed(capsys, monkeypatch):
    """Seeds n and -n draw the same pair, so ``--seed -7`` would print
    seed 7's pair under another number; nothing is drawn."""
    monkeypatch.setattr("spectral_pair.randgen.random_pair", None)
    code, out, err = run(capsys, "random-pair", "--seed", "-7")
    assert code == 2 and out == ""
    assert strict_loads(err)["error"]["code"] == "schema"


def test_random_pair_passes_checks(capsys):
    for seed in (0, 1, 2):
        code, out, _ = run(capsys, "random-pair", "--seed", str(seed))
        assert code == 0
        path_free = jsonio.doc_to_pair(jsonio.loads(out))
        from spectral_pair import general_position_report
        assert general_position_report(path_free).passed


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", PAIR_FIXTURE)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "determinant_a", "determinant_b", "eigenvalue_separation",
        "divisor_denominator", "divisor_on_curve", "gauge_entries"]


@pytest.mark.parametrize("which, scale", [
    pytest.param("a", 1e-110, id="a"),
    pytest.param("b", 1e-110, id="b"),
    # |U0| underflows to 0, so the gauge ratio reads 0 (1/u12 would overflow)
    pytest.param("b", 1e-310, id="b-1e-310"),
    # |M|^3 overflows, and the determinant is inf or inf - inf
    pytest.param("a", 1e110, id="a-1e110"),
    pytest.param("b", 1e110, id="b-1e110"),
])
def test_check_tiny_matrix_prints_report(which, scale, tmp_path, capsys):
    # scaled by 1e-110 or less, the matrix's |M|^3 underflows to 0; scaled
    # by 1e110 it overflows
    code, out, _ = run(capsys, "check", scaled_pair_file(tmp_path, which, scale))
    assert code in (0, 3)
    assert len(json.loads(out)["checks"]) == 6


def test_check_reports_a_gauge_fix_that_overflows(tmp_path, capsys):
    # B's (1,2) and (1,3) entries have finite parts and moduli above
    # 1.8e308: B fails its determinant check, and the divisor stage's |g_j|
    # overflows, which fails the divisor check with the determinant's code;
    # the normal form, a later stage, is unavailable
    z = 1.5e308 * (1 + 1j)
    pair = spectral_pair.MatrixPair(
        spectral_pair.Mat3.diagonal(1, 2, 3.5),
        spectral_pair.Mat3((1, z, z, 0.5, 2, 1, 1j, 3, 1)))
    path = tmp_path / "huge_gauge_entries.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_doc(pair)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 3
    checks = strict_loads(out)["checks"]
    assert len(checks) == 6
    assert [c["name"] for c in checks if not c["passed"]][:2] \
        == ["determinant_b", "divisor_denominator"]
    assert [c["note"] for c in checks[3:]] == [
        "singular_matrix", "unavailable", "unavailable"]


@pytest.mark.parametrize("argv", [
    pytest.param(("spectral",), id="spectral"),
    pytest.param(("act", "--side", "matrix", "--word", "I"), id="act-matrix"),
])
def test_huge_matrix_is_a_coded_singular_matrix(argv, tmp_path, capsys):
    code, _, err = run(capsys, *argv, scaled_pair_file(tmp_path, "a", 1e110))
    assert code == 3
    # the determinant in the detail is not finite; the line stays JSON
    assert strict_loads(err)["error"]["code"] == "singular_matrix"


@pytest.mark.parametrize("draw", [11, 48])
def test_a_relisting_that_fails_the_d2_test_names_its_prefix(draw, tmp_path,
                                                             capsys):
    # near-gap pairs at a relative gap of 1e-4: the final relisting of
    # T,T,I moves the first eigenvalue, and the U it reconstructs, with the
    # close pair listed second and third, misses d2 by about 1e-4
    rng = random.Random("near-gap word")
    for _ in range(draw + 1):
        pair = near_gap_pair(rng, 1e-4)
    sd = spectral_pair.spectral_data(pair)
    with pytest.raises(spectral_pair.IntermediateDegeneracy) as info:
        spectral_pair.act_word_spectral(spectral_pair.parse_word("T,T,I"), sd)
    assert info.value.__cause__.detail["component"] == "d2"
    path = tmp_path / "spectral.json"
    path.write_text(jsonio.dumps(jsonio.spectral_to_doc(sd)))
    code, out, err = run(capsys, "act", "--word", "T,T,I", str(path))
    assert (code, out) == (3, "")
    error = strict_loads(err.splitlines()[-1])["error"]
    assert error["code"] == "intermediate_degeneracy"
    assert error["detail"] == {"prefix": "T,T,I",
                               "cause": "invariant_violation"}


def test_intermediate_degeneracy_names_its_prefix_and_cause(tmp_path, capsys):
    # on seed 8 the last shear of I,T^12 leaves d2 = det(A^12 B) singular
    # against the scale of its invariants, which the relisting tests
    path = tmp_path / "spectral.json"
    path.write_text(jsonio.dumps(jsonio.spectral_to_doc(
        spectral_pair.spectral_data(spectral_pair.random_pair(8)))))
    word = "I," + ",".join("T" * 12)
    code, out, err = run(capsys, "act", "--word", word, str(path))
    assert (code, out) == (3, "")
    error = strict_loads(err.splitlines()[-1])["error"]
    assert error["code"] == "intermediate_degeneracy"
    assert error["detail"] == {"prefix": word, "cause": "singular_matrix"}


def test_decompose_subcommand(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "3,5,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["recomposed"] == doc["matrix"] == [3, 5, 1, 2]


@pytest.mark.parametrize("command", [
    ("decompose",),
    ("act", SPECTRAL_FIXTURE),
])
def test_matrix_entry_bound_is_checked_before_decomposing(command, capsys,
                                                          monkeypatch):
    # 1,N,0,1 decomposes into a word of N shears
    def no_decomposition(m):
        raise AssertionError("decompose_gl2z was called")

    monkeypatch.setattr("spectral_pair.gl2z.decompose_gl2z",
                        no_decomposition)
    code, out, err = run(capsys, command[0], "--matrix", "1,1000000000000,0,1",
                         *command[1:])
    assert (code, out) == (2, "")
    payload = strict_loads(err)["error"]
    assert payload["code"] == "schema"
    assert payload["detail"] == {"bound": cli_module.MAX_MATRIX_ENTRY}


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "spectral", PAIR_FIXTURE, "-o", str(target))
    assert code == 0
    assert out == ""
    got = load_spectral(target.read_text())
    expected = load_spectral(Path(SPECTRAL_FIXTURE).read_text())
    assert max(spectral_residuals(got, expected).values()) < 1e-12


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(Path(PAIR_FIXTURE).read_bytes()), encoding="utf-8"))
    code, out, _ = run(capsys, "spectral", "-")
    assert code == 0
    load_spectral(out)


def test_stdin_not_utf8_is_the_files_schema_error(tmp_path, capsys,
                                                  monkeypatch):
    """Bytes that are not UTF-8 get the same exit code, error code and
    message from stdin as from a file, whatever error handler the text
    layer of stdin has: under a C or POSIX locale the interpreter reads
    stdin with ``surrogateescape``, which decodes any bytes."""
    import io
    path = tmp_path / "broken.json"
    path.write_bytes(b"\xff\xfe")
    from_file = run(capsys, "spectral", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape"))
    from_stdin = run(capsys, "spectral", "-")
    assert from_stdin == from_file
    code, out, err = from_stdin
    assert (code, out) == (2, "")
    payload = strict_loads(err)["error"]
    assert payload["code"] == "schema"
    assert payload["message"].startswith("input is not UTF-8")


@pytest.mark.skipif(shutil.which("spectral-pair") is None,
                    reason="console script not installed")
def test_console_script_entry_point():
    proc = subprocess.run(["spectral-pair", "decompose", "--matrix", "0,1,1,0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["word"] == "S"


def test_module_entry_point():
    # the child finds the package where this process found it
    src = str(Path(spectral_pair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_pair.cli", "random-pair", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    jsonio.doc_to_pair(jsonio.loads(proc.stdout))
