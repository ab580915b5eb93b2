"""JSON interchange: pair, spectral and report documents.

Complex numbers are two-element [re, im] arrays.  Floats are serialized by
Python's shortest round-trip repr (up to 17 significant digits), so
load(save(x)) reproduces every double bit-exactly and golden files are
platform-stable.  Loading validates structure first (SchemaError) and then
data invariants (InvariantViolation and friends).
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import SchemaError
from .linalg import Mat3
from .spectral import (
    CurveCoefficients,
    DivisorPoint,
    MatrixPair,
    NormalizedPair,
    SpectralData,
    validate_spectral_data,
)


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def json_to_complex(value: Any, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise SchemaError(f"{where}: expected a [re, im] pair of numbers",
                          where=where)
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError:   # an integer literal beyond the float range
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SchemaError(f"{where}: components must be finite", where=where)
    return complex(re, im)


def _expect_mapping(doc: Any, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object", where=where)
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}", where=where)


def matrix_to_json(m: Mat3) -> list[list[list[float]]]:
    return [[complex_to_json(z) for z in row] for row in m.rows()]


def json_to_matrix(value: Any, where: str) -> Mat3:
    if not isinstance(value, list) or len(value) != 3 \
            or any(not isinstance(row, list) or len(row) != 3 for row in value):
        raise SchemaError(f"{where}: expected a 3x3 array", where=where)
    entries = tuple(json_to_complex(value[i][j], f"{where}[{i}][{j}]")
                    for i in range(3) for j in range(3))
    return Mat3(entries)


def pair_to_doc(pair: MatrixPair) -> dict:
    return {"A": matrix_to_json(pair.a), "B": matrix_to_json(pair.b)}


def doc_to_pair(doc: Any) -> MatrixPair:
    _expect_mapping(doc, ("A", "B"), "pair document")
    return MatrixPair(json_to_matrix(doc["A"], "A"), json_to_matrix(doc["B"], "B"))


def normalized_to_pair_doc(np: NormalizedPair) -> dict:
    return pair_to_doc(np.as_pair())


def spectral_to_doc(sd: SpectralData) -> dict:
    return {
        "h": [complex_to_json(z) for z in sd.h],
        "coefficients": {k: complex_to_json(v) for k, v in sd.coeffs.items()},
        "divisor": {"L": complex_to_json(sd.divisor.L),
                    "M": complex_to_json(sd.divisor.M)},
    }


def doc_to_spectral(doc: Any) -> SpectralData:
    """Parse and validate a spectral document; invalid invariants (divisor
    off the curve, eigenvalues inconsistent with the coefficients) fail the
    load."""
    _expect_mapping(doc, ("h", "coefficients", "divisor"), "spectral document")
    if not isinstance(doc["h"], list) or len(doc["h"]) != 3:
        raise SchemaError("h: expected exactly three complex values", where="h")
    h = tuple(json_to_complex(doc["h"][i], f"h[{i}]") for i in range(3))
    _expect_mapping(doc["coefficients"], CurveCoefficients._fields,
                    "coefficients")
    coeffs = CurveCoefficients(**{
        k: json_to_complex(doc["coefficients"][k], f"coefficients.{k}")
        for k in CurveCoefficients._fields})
    _expect_mapping(doc["divisor"], ("L", "M"), "divisor")
    divisor = DivisorPoint(json_to_complex(doc["divisor"]["L"], "divisor.L"),
                           json_to_complex(doc["divisor"]["M"], "divisor.M"))
    return validate_spectral_data(SpectralData(h, coeffs, divisor))


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    # RecursionError: nested deeper than the decoder recurses
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
