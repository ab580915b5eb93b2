"""Bit-level fingerprint of the package's numeric outputs.

Prints the ``repr`` of every field of ``run_suite(200)`` and, for seeds
0-299, of ``generation_attempts``, the general-position report,
``spectral_data``, the S, I and T images of the spectral data, the
``verify_commutation`` residuals of S, I and T, and ``act_word_spectral``
of the word I,T,S.  A call that raises prints its error class, code,
message and detail instead.  Two checkouts whose numeric outputs agree to
the last bit print the same text, so a refactor that must not move a bit
is checked with

    python tests/fingerprint.py > before.txt    # in the parent checkout
    python tests/fingerprint.py > after.txt     # in the changed checkout
    cmp before.txt after.txt

The package is imported from the ``src`` directory of the checkout that
holds this file.  The name does not match ``test_*.py``, so pytest does not
collect it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spectral_pair import (  # noqa: E402  (needs the path above)
    Generator,
    GeneralPositionError,
    act_spectral,
    act_word_spectral,
    general_position_report,
    generation_attempts,
    random_pair,
    spectral_data,
    verify_commutation,
)
from spectral_pair.verify import run_suite  # noqa: E402

SEEDS = range(300)
SUITE_SEEDS = 200
WORD = (Generator.INVERT, Generator.SHEAR, Generator.SWAP)


def outcome(fn, *args) -> str:
    """``repr`` of the value, or of the error, of ``fn(*args)``."""
    try:
        return repr(fn(*args))
    except GeneralPositionError as exc:
        return repr((type(exc).__name__, exc.code, str(exc), exc.detail))


def main() -> None:
    for result in run_suite(SUITE_SEEDS):
        print("suite", repr(vars(result)))
    for seed in SEEDS:
        pair = random_pair(seed)
        print(seed, "attempts", generation_attempts(seed))
        print(seed, "report", outcome(general_position_report, pair))
        print(seed, "spectral", outcome(spectral_data, pair))
        try:
            sd = spectral_data(pair)
        except GeneralPositionError:
            continue
        for g in Generator:
            print(seed, g.name, outcome(act_spectral, g, sd))
            print(seed, "commute", g.name, outcome(verify_commutation, g, pair))
        print(seed, "word ITS", outcome(act_word_spectral, WORD, sd))


if __name__ == "__main__":
    main()
