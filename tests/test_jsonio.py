import json
import math
import random
from pathlib import Path

import pytest

from spectral_pair import (
    InvariantViolation,
    RepeatedEigenvalues,
    SchemaError,
    SpectralPairError,
    act_word_spectral,
    canonical_form,
    invert_spectral,
    jsonio,
    parse_word,
    random_pair,
    reconstruct,
    shear_spectral,
    spectral_data,
    spectral_residuals,
    swap_spectral,
)

from conftest import (
    overflowing_spectral_doc,
    oversized_integer_pair_file,
    rng_matrix,
)


def test_pair_round_trip_bit_exact(seeded_pairs):
    rng = random.Random(1)
    for _ in range(20):
        m = rng_matrix(rng)
        doc = jsonio.matrix_to_json(m)
        back = jsonio.json_to_matrix(json.loads(json.dumps(doc)), "m")
        assert back.entries == m.entries  # bit-exact doubles
    for pair in seeded_pairs[:10]:
        doc = json.loads(json.dumps(jsonio.pair_to_doc(pair)))
        back = jsonio.doc_to_pair(doc)
        assert back.a.entries == pair.a.entries
        assert back.b.entries == pair.b.entries


def test_spectral_round_trip_bit_exact(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        doc = json.loads(json.dumps(jsonio.spectral_to_doc(sd)))
        back = jsonio.doc_to_spectral(doc)
        assert back.h == sd.h
        assert back.coeffs == sd.coeffs
        assert (back.divisor.L, back.divisor.M) == (sd.divisor.L, sd.divisor.M)


def test_malformed_json_rejected():
    with pytest.raises(SchemaError):
        jsonio.loads("{not json")


def test_json_nested_past_the_recursion_limit_is_a_schema_error():
    with pytest.raises(SchemaError, match="malformed JSON"):
        jsonio.loads("[" * 100_000)


def test_missing_keys_rejected():
    with pytest.raises(SchemaError):
        jsonio.doc_to_pair({"A": [[[0, 0]] * 3] * 3})
    with pytest.raises(SchemaError):
        jsonio.doc_to_spectral({"h": [[1, 0]] * 3, "divisor": {}})


def test_bad_complex_shapes_rejected():
    for bad in ([1.0], [1.0, 2.0, 3.0], ["x", 0.0], [math.inf, 0.0], [True, 0.0]):
        with pytest.raises(SchemaError):
            jsonio.json_to_complex(bad, "z")


@pytest.mark.parametrize("load, doc, where", [
    (jsonio.doc_to_pair, [1, 2], "pair document"),
    (jsonio.doc_to_spectral, "h", "spectral document"),
    (jsonio.doc_to_pair, {"A": [[[1, 0]] * 3] * 2, "B": []}, "A"),
    (jsonio.doc_to_spectral, {"h": [[1, 0]] * 2, "coefficients": {},
                              "divisor": {}}, "h"),
], ids=["pair-not-object", "spectral-not-object", "matrix-not-3x3",
        "h-with-two-values"])
def test_malformed_document_is_a_schema_error(load, doc, where):
    with pytest.raises(SchemaError) as info:
        load(doc)
    assert info.value.detail == {"where": where}


def test_oversized_integer_is_a_schema_error(tmp_path):
    # float() of an integer beyond the float range raises OverflowError
    for bad in ([10 ** 400, 0.0], [0, -10 ** 400]):
        with pytest.raises(SchemaError, match="components must be finite"):
            jsonio.json_to_complex(bad, "z")
    doc = jsonio.loads(Path(oversized_integer_pair_file(tmp_path)).read_text())
    with pytest.raises(SchemaError) as info:
        jsonio.doc_to_pair(doc)
    assert info.value.detail == {"where": "A[0][0]"}


def test_off_curve_divisor_fails_load(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    doc = jsonio.spectral_to_doc(sd)
    doc["divisor"]["L"][0] += 0.01
    with pytest.raises(InvariantViolation) as info:
        jsonio.doc_to_spectral(doc)
    assert info.value.detail.get("component") == "divisor"


def test_nan_curve_residual_fails_load():
    doc = json.loads(json.dumps(overflowing_spectral_doc()))
    with pytest.raises(InvariantViolation) as info:
        jsonio.doc_to_spectral(doc)
    assert info.value.detail.get("component") == "divisor"
    assert math.isnan(info.value.detail["residual"])


def test_inconsistent_eigenvalues_fail_load(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    doc = jsonio.spectral_to_doc(sd)
    doc["h"][0][0] += 0.5
    with pytest.raises(InvariantViolation):
        jsonio.doc_to_spectral(doc)


def test_repeated_h_loads_but_fails_reconstruction():
    # consistent symmetric functions with h2 == h3: load passes invariants,
    # reconstruction rejects
    h = (1.0, 2.0, 2.0)
    e1, e2, e3 = 5.0, 8.0, 4.0
    doc = {
        "h": [[x, 0.0] for x in h],
        "coefficients": {
            "d1": [e3, 0.0], "d2": [1.0, 0.0], "p_plus": [e1, 0.0],
            "p_minus": [e2, 0.0], "q_plus": [0.0, 0.0],
            "q_minus": [0.0, 0.0], "r_plus": [0.0, 0.0],
            "r_minus": [0.0, 0.0], "t": [0.0, 0.0],
        },
        "divisor": {"L": [0.0, 0.0], "M": [0.0, 0.0]},
    }
    # L = M = 0 sits on the curve iff the constant term vanishes; it does:
    # evaluating at (0 : 0 : 1) picks out d2... so adjust d2 to 0 is not
    # allowed (nonzero determinant); use the (0,0) divisor only if on curve.
    doc["coefficients"]["d2"] = [0.0, 0.0]
    sd = jsonio.doc_to_spectral(doc)
    with pytest.raises(RepeatedEigenvalues):
        reconstruct(sd)


def test_normalized_pair_document(seeded_pairs):
    npair = reconstruct(spectral_data(seeded_pairs[0]))
    doc = jsonio.normalized_to_pair_doc(npair)
    back = jsonio.doc_to_pair(doc)
    sd1 = spectral_data(seeded_pairs[0])
    sd2 = spectral_data(back)
    assert max(spectral_residuals(sd1, sd2).values()) < 1e-7


def perturbed_documents():
    """(label, document) for the spectral documents of seeds 0-2 and of
    (A x 1e-5, B) for seeds 0-1, with the real part, the imaginary part or
    both of one of the 15 components set to 0, 1e-320, 1e-200, 1e200 or
    1.5e308: 1125 documents, each component finite."""
    pairs = [random_pair(seed) for seed in range(3)]
    pairs += [p._replace(a=p.a.scaled(1e-5)) for p in pairs[:2]]
    for n, pair in enumerate(pairs):
        doc = jsonio.spectral_to_doc(spectral_data(pair))
        places = [("h", i) for i in range(3)]
        places += [("coefficients", k) for k in doc["coefficients"]]
        places += [("divisor", "L"), ("divisor", "M")]
        for group, key in places:
            for value in (0.0, 1e-320, 1e-200, 1e200, 1.5e308):
                for parts in ((0,), (1,), (0, 1)):
                    perturbed = json.loads(json.dumps(doc))
                    for part in parts:
                        perturbed[group][key][part] = value
                    yield (n, key, value, parts), perturbed


def test_every_spectral_document_that_loads_ends_ok_or_coded():
    """Loading a document raises only a package error, and so does each
    computation on a document that loads: ``canonical_form``,
    ``reconstruct``, the three actions and the word S,I,T."""
    word = parse_word("S,I,T")
    calls = (canonical_form, reconstruct, swap_spectral, invert_spectral,
             shear_spectral, lambda sd: act_word_spectral(word, sd))
    loaded, crashes = 0, []
    for label, doc in perturbed_documents():
        try:
            sd = jsonio.doc_to_spectral(doc)
        except SpectralPairError:
            continue
        except Exception as exc:
            crashes.append((label, "load", repr(exc)))
            continue
        loaded += 1
        for i, call in enumerate(calls):
            try:
                call(sd)
            except SpectralPairError:
                pass
            except Exception as exc:
                crashes.append((label, i, repr(exc)))
    assert crashes == []
    # 168 since the symmetric-function test's scale follows max|h|^k below
    # 1: h no longer hides a perturbed p_plus, p_minus or d1 of A x 1e-5
    assert loaded == 168


@pytest.mark.xfail(strict=True, reason=(
    "the on-curve test divides |C(L, M, 1)| by max(1, |L|, |M|)^3, and |M| "
    "is about 1.1e5 here, so the document loads and reconstruct returns a "
    "pair whose d2 is off by a relative 1.0; ROADMAP item 3 (scale) lists "
    "the floors behind it"))
def test_a_document_with_d2_set_to_0_fails_to_load_or_reconstruct():
    pair = random_pair(0)
    pair = pair._replace(a=pair.a.scaled(1e-5))
    doc = jsonio.spectral_to_doc(spectral_data(pair))
    doc["coefficients"]["d2"] = [0.0, 0.0]
    with pytest.raises(SpectralPairError):
        reconstruct(jsonio.doc_to_spectral(doc))
