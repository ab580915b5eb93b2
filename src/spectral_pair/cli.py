"""Command-line front end.

    spectral-pair spectral     pair.json -> spectral data
    spectral-pair reconstruct  spectral.json -> normalized pair
    spectral-pair act          apply a generator word or GL(2,Z) matrix
    spectral-pair verify       run the property suite over seeded pairs
    spectral-pair random-pair  deterministic general-position pair
    spectral-pair decompose    GL(2,Z) matrix -> generator word

Data goes to stdout (or --output); errors are structured JSON on stderr.
Exit codes: 0 success, 1 I/O, 2 malformed input, 3 general-position or data
invariant failure, 4 determinant not a unit, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Each command imports the modules it runs when it runs, so a cold start
# compiles only those: `spectral` needs neither `gl2z` nor `verify`.
from .errors import (
    DeterminantNotUnit,
    SchemaError,
    SpectralPairError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_GENERAL_POSITION = 3
EXIT_DETERMINANT = 4
EXIT_VERIFY = 5

#: largest |entry| that ``--matrix`` accepts.  The decomposition emits one
#: letter per unit of each Euclid quotient, so ``1,N,0,1`` is a word of N
#: letters: the bound caps the word, and the time to build and act with it.
MAX_MATRIX_ENTRY = 10 ** 5


def _strict(value):
    """``value`` as strict JSON takes it: JSON has no NaN or Infinity, so a
    non-finite float goes out as its repr, "nan", "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _fail(code: int, error_code: str, message: str, **detail) -> int:
    payload = {"error": {"code": error_code, "message": message}}
    if detail:
        payload["error"]["detail"] = {
            k: _strict(v) for k, v in detail.items()
            if isinstance(v, (str, int, float, bool, list, dict))}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _read_document(path: str):
    from . import jsonio
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8: {exc}") from exc
    return jsonio.loads(text)


class _IOFailure(Exception):
    pass


def _write_document(doc, path: str | None) -> None:
    from . import jsonio
    text = jsonio.dumps(doc)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc


def _parse_gl2z(text: str):
    from .gl2z import GL2ZMatrix
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise SchemaError("--matrix expects four comma-separated integers")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"--matrix entries must be integers: {exc}") from exc
    if max(abs(a), abs(b), abs(c), abs(d)) > MAX_MATRIX_ENTRY:
        raise SchemaError(f"--matrix entries must not exceed {MAX_MATRIX_ENTRY}"
                          " in absolute value", bound=MAX_MATRIX_ENTRY)
    return GL2ZMatrix(a, b, c, d)


def _cmd_spectral(args) -> int:
    from . import jsonio
    from .spectral import spectral_data
    pair = jsonio.doc_to_pair(_read_document(args.input))
    sd = spectral_data(pair)
    _write_document(jsonio.spectral_to_doc(sd), args.output)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from . import jsonio
    from .reconstruct import reconstruct
    sd = jsonio.doc_to_spectral(_read_document(args.input))
    np = reconstruct(sd)
    _write_document(jsonio.normalized_to_pair_doc(np), args.output)
    return EXIT_OK


def _cmd_act(args) -> int:
    from . import jsonio
    from .gl2z import (act_word_on_pair, act_word_spectral, decompose_gl2z,
                       parse_word, word_to_str)
    if args.word is not None:
        try:
            word = parse_word(args.word)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    else:
        matrix = _parse_gl2z(args.matrix)
        word = decompose_gl2z(matrix)
        print(json.dumps({"info": {"matrix": [matrix.a, matrix.b,
                                              matrix.c, matrix.d],
                                   "word": word_to_str(word)}}),
              file=sys.stderr)
    doc = _read_document(args.input)
    if args.side == "matrix":
        pair = jsonio.doc_to_pair(doc)
        out = jsonio.pair_to_doc(act_word_on_pair(word, pair))
    else:
        sd = jsonio.doc_to_spectral(doc)
        out = jsonio.spectral_to_doc(act_word_spectral(word, sd))
    _write_document(out, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from ._kernels_py import BACKEND
    from .spectral import worst_residual
    from .tolerances import TOLERANCE_MULTIPLIERS
    from .verify import run_suite
    if args.seeds < 1:
        raise SchemaError("--seeds must be at least 1")
    # seeds n and -n draw the same pair
    if args.base_seed < 0:
        raise SchemaError("--base-seed must not be negative")
    # written so that a NaN fails
    if not 0.0 < args.tolerance < math.inf:
        raise SchemaError("--tolerance must be a positive finite number")
    # a property's tolerance is the base times its multiplier
    multiplier = max(TOLERANCE_MULTIPLIERS.values())
    if args.tolerance * multiplier == math.inf:
        raise SchemaError(f"--tolerance times {multiplier:g}, the largest "
                          "per-property multiplier, must be finite")
    results = run_suite(args.seeds, args.tolerance, args.base_seed)
    all_passed = True
    for r in results:
        status = "pass" if r.passed else "fail"
        all_passed = all_passed and r.passed
        line = {
            "operation": r.operation,
            "status": status,
            "max_residual": _strict(r.max_residual),
            "tolerance": _strict(r.tolerance),
            "seeds_run": r.seeds_run,
            "per_component": {k: _strict(v)
                              for k, v in r.per_component.items()},
        }
        if r.skipped:
            line["skipped"] = r.skipped
        if not r.passed and r.worst_seed is not None:
            line["failing_seed"] = r.worst_seed
        print(json.dumps(line))
    overall = worst_residual([r.max_residual for r in results])
    print(json.dumps({"operation": "summary",
                      "status": "pass" if all_passed else "fail",
                      "max_residual": _strict(overall),
                      "backend": BACKEND}))
    return EXIT_OK if all_passed else EXIT_VERIFY


def _cmd_random_pair(args) -> int:
    from . import jsonio
    from .randgen import random_pair
    # seeds n and -n draw the same pair
    if args.seed < 0:
        raise SchemaError("--seed must not be negative")
    pair = random_pair(args.seed)
    _write_document(jsonio.pair_to_doc(pair), args.output)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .gl2z import decompose_gl2z, matrix_of_word, word_to_str
    matrix = _parse_gl2z(args.matrix)
    word = decompose_gl2z(matrix)
    recomposed = matrix_of_word(word)
    _write_document({"matrix": [matrix.a, matrix.b, matrix.c, matrix.d],
                     "word": word_to_str(word),
                     "length": len(word),
                     "recomposed": [recomposed.a, recomposed.b,
                                    recomposed.c, recomposed.d]},
                    args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import jsonio
    from .spectral import general_position_report
    pair = jsonio.doc_to_pair(_read_document(args.input))
    report = general_position_report(pair)
    doc = {"passed": report.passed,
           "checks": [{"name": c.name, "passed": c.passed,
                       "margin": c.margin, "threshold": c.threshold,
                       "note": c.note}
                      for c in report.checks]}
    _write_document(doc, args.output)
    return EXIT_OK if report.passed else EXIT_GENERAL_POSITION


def build_parser() -> argparse.ArgumentParser:
    from .tolerances import DEFAULT_TOLERANCE
    parser = argparse.ArgumentParser(
        prog="spectral-pair",
        description="Spectral data of 3x3 matrix pairs and the GL(2,Z) action")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="pair document -> spectral document")
    p.add_argument("input", help="pair JSON path, or - for stdin")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("reconstruct",
                       help="spectral document -> normalized pair document")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("act", help="apply a generator word or GL(2,Z) matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help='comma-separated letters, e.g. "S,I,T"')
    group.add_argument("--matrix", help='four integers "a,b,c,d" with det +-1')
    p.add_argument("--side", choices=("spectral", "matrix"), default="spectral",
                   help="act on a spectral document or on a pair document")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("verify", help="run the property suite on seeded pairs")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="base tolerance (default: %(default)g)")
    p.add_argument("--base-seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random-pair",
                       help="deterministic general-position pair for a seed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_random_pair)

    p = sub.add_parser("decompose", help="GL(2,Z) matrix -> generator word")
    p.add_argument("--matrix", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check", help="general-position report for a pair")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IOFailure as exc:
        return _fail(EXIT_IO, "io", str(exc))
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, exc.code, str(exc), **exc.detail)
    except DeterminantNotUnit as exc:
        return _fail(EXIT_DETERMINANT, exc.code, str(exc), **exc.detail)
    except SpectralPairError as exc:
        return _fail(EXIT_GENERAL_POSITION, exc.code, str(exc), **exc.detail)


if __name__ == "__main__":
    sys.exit(main())
