"""Bit-level fingerprint of the package's numeric outputs.

The first section prints the ``repr`` of every field of ``run_suite(200)``
and, for seeds 0-299, of ``generation_attempts``, the general-position
report, ``normalize_pair``, the error that ``forward`` records,
``spectral_data``, the S, I and T images of the spectral data, the
``verify_commutation`` residuals of S, I and T, and ``act_word_spectral``
of the word I,T,S.

The edge section prints, for pairs off ``random_pair``'s generator, the
general-position report, ``normalize_pair``, the error that ``forward``
records, ``spectral_data``, the shear T of the matrices, and the S, I and
T images of the spectral data with the ``canonical_form`` of each.  The
pairs are the pairs of seeds 0-39 with A, B or both scaled by 2^k (every
11th k from -1074, and 498, 511, 1022 and 1023, where the entries stay
finite) or by 1e-310, 1e-110, 1e110 and 1e150; seeded real pairs; seeded
pairs whose relative eigenvalue gap is 1e-6 to 3e-4; seeded real pairs
with extreme entries, up to 1e300, and a pair whose A has a characteristic
polynomial with NaN coefficients; and the tests' ``DEGENERATE_PAIRS``.

A call that raises prints its error class, code, message and detail, as
does the error that ``forward`` records; in
the edge section any exception does, so that uncoded errors are compared
too.  Two checkouts whose numeric outputs agree to the last bit print the
same text.  The package is imported from the ``src`` directory of the
checkout that holds this file.

    python tests/fingerprint.py                 # print the fingerprint
    python tests/fingerprint.py --against REV   # compare with revision REV

``--against`` clones the repository into a temporary directory, checks out
REV there, copies this script into the clone, and fingerprints both the
clone and this checkout, uncommitted changes included.  It prints
``identical``, or for each of the sections ``suite``, ``seeds`` and
``edge`` the number of lines that differ, a table of them by item, and the
first few differences, and exits 1.  The table splits each item's lines
into "values moved" (the same outcome with other numbers) and "outcome
changed" (ok against an error, another error code, a check that passes
on one side only, or a line printed on one side only).  The clone reads the local repository, so it needs no
network.  The name does not match ``test_*.py``, so pytest does not
collect it.
"""

import argparse
import cmath
import difflib
import math
import random
import re
import shutil
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spectral_pair import (  # noqa: E402  (needs the path above)
    Generator,
    GeneralPositionError,
    Mat3,
    MatrixPair,
    act_on_pair,
    act_spectral,
    act_word_spectral,
    canonical_form,
    general_position_report,
    generation_attempts,
    inv3,
    normalize_pair,
    random_pair,
    spectral_data,
    verify_commutation,
    well_conditioned_matrix,
)
from spectral_pair.spectral import forward  # noqa: E402
from spectral_pair.verify import run_suite  # noqa: E402
from test_spectral import DEGENERATE_PAIRS  # noqa: E402

SEEDS = range(300)
SUITE_SEEDS = 200
WORD = (Generator.INVERT, Generator.SHEAR, Generator.SWAP)

EDGE_SEEDS = range(40)
SCALES = ([2.0 ** k for k in (*range(-1074, 1024, 11), 498, 511, 1022, 1023)]
          + [1e-310, 1e-110, 1e110, 1e150])
EDGE_DRAWS = 200
EXTREME_DRAWS = 60
#: the entries of the extreme pairs: small ones, and extreme ones whose
#: products, squares or cubes overflow or underflow.  The script defines
#: its own pairs, because ``--against`` runs it in a checkout of another
#: revision, whose tests may not have them.
SMALL_ENTRIES = (0.0, 1.0, -1.0, 3.0)
EXTREME_ENTRIES = (1e154, -1e154, 1e160, -1e160, 1e200, -1e200, 1e300,
                   -1e300, 1e-160)


def described(exc: Exception) -> tuple:
    """The class, code, message and detail of an error."""
    return (type(exc).__name__, getattr(exc, "code", None), str(exc),
            getattr(exc, "detail", None))


def outcome(fn, *args, catch=GeneralPositionError) -> str:
    """``repr`` of the value, or of the error, of ``fn(*args)``."""
    try:
        return repr(fn(*args))
    except catch as exc:
        return repr(described(exc))


def forward_error(pair):
    """The error ``forward(pair)`` records, described, or None."""
    error = forward(pair).error
    return None if error is None else described(error)


def scaled(m, s):
    """``m.scaled(s)``, or None when an entry overflows."""
    try:
        return m.scaled(s)
    except ValueError:
        return None


def edge_pairs():
    """(label, pair) for every pair of the edge section."""
    for seed in EDGE_SEEDS:
        a, b = random_pair(seed)
        for s in SCALES:
            sa, sb = scaled(a, s), scaled(b, s)
            for which, pair in (("a", (sa, b)), ("b", (a, sb)),
                                ("ab", (sa, sb))):
                if None not in pair:
                    yield f"{seed} {which}*{s!r}", MatrixPair(*pair)
    rng = random.Random("fingerprint:real")
    for k in range(EDGE_DRAWS):
        yield (f"real {k}", MatrixPair(
            Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))),
            Mat3(tuple(rng.uniform(-1, 1) for _ in range(9)))))
    rng = random.Random("fingerprint:near-gap")
    lo, hi = math.log10(1e-6), math.log10(3e-4)
    for k in range(EDGE_DRAWS):
        h1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        h3 = h1 + cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        gap = 10 ** rng.uniform(lo, hi) * max(abs(h1), abs(h3))
        h2 = h1 + gap * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        v = well_conditioned_matrix(rng)
        b = Mat3(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(9)))
        yield (f"near-gap {k}",
               MatrixPair(v @ Mat3.diagonal(h1, h2, h3) @ inv3(v), b))
    # tr A = 1, but A's characteristic polynomial has c1 = c0 = NaN
    yield "extreme nan-eigenvalues", MatrixPair(
        Mat3.from_rows([[1e160, 1e160, 0], [-1e160, -1e160, 0], [0, 0, 1]]),
        random_pair(0).b)
    rng = random.Random("fingerprint:extreme")
    for k in range(EXTREME_DRAWS):
        share = (0.1, 0.3, 0.7)[k % 3]
        entries = [rng.choice(EXTREME_ENTRIES if rng.random() < share
                              else SMALL_ENTRIES) for _ in range(18)]
        yield (f"extreme {k}",
               MatrixPair(Mat3(entries[:9]), Mat3(entries[9:])))
    for name, pair in DEGENERATE_PAIRS.items():
        yield f"degenerate {name}", pair


def print_edges() -> None:
    for label, pair in edge_pairs():
        print(label, "report",
              outcome(general_position_report, pair, catch=Exception))
        print(label, "normalize",
              outcome(normalize_pair, pair, catch=Exception))
        print(label, "forward", outcome(forward_error, pair, catch=Exception))
        print(label, "spectral", outcome(spectral_data, pair, catch=Exception))
        print(label, "matrix", Generator.SHEAR.name, outcome(
            act_on_pair, Generator.SHEAR, pair, catch=Exception))
        try:
            sd = spectral_data(pair)
        except Exception:
            continue
        for g in Generator:
            print(label, g.name, outcome(act_spectral, g, sd, catch=Exception))
            try:
                image = act_spectral(g, sd)
            except Exception:
                continue
            print(label, "canonical", g.name,
                  outcome(canonical_form, image, catch=Exception))


def print_fingerprint() -> None:
    for result in run_suite(SUITE_SEEDS):
        print("suite", repr(vars(result)))
    for seed in SEEDS:
        pair = random_pair(seed)
        print(seed, "attempts", generation_attempts(seed))
        print(seed, "report", outcome(general_position_report, pair))
        print(seed, "normalize", outcome(normalize_pair, pair))
        print(seed, "forward", outcome(forward_error, pair))
        print(seed, "spectral", outcome(spectral_data, pair))
        try:
            sd = spectral_data(pair)
        except GeneralPositionError:
            continue
        for g in Generator:
            print(seed, g.name, outcome(act_spectral, g, sd))
            print(seed, "commute", g.name, outcome(verify_commutation, g, pair))
        print(seed, "word ITS", outcome(act_word_spectral, WORD, sd))
    print_edges()


#: second words of the lines that the seeds section prints
SEED_ITEMS = {"attempts", "report", "normalize", "forward", "spectral",
              "commute", "word",
              *(g.name for g in Generator)}
SHOWN_DIFFERENCES = 3
SHOWN_WIDTH = 300


def section(line: str) -> str:
    first, _, rest = line.partition(" ")
    if first == "suite":
        return "suite"
    second = rest.partition(" ")[0]
    return "seeds" if first.isdigit() and second in SEED_ITEMS else "edge"


#: the first words of the edge section's labels that name a family of
#: pairs; every other label is a scaled pair of a seed
EDGE_FAMILIES = {"real", "near-gap", "extreme", "degenerate"}
#: a number in a ``repr``: an int, a float or a complex, inf and nan
#: included, not inside a name such as ``u12``
_PART = r"(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)"
NUMBER = re.compile(rf"(?<![\w.])-?{_PART}(?:[-+]{_PART}j|j)?(?![\w.])")


def split(line: str) -> tuple[str, str, str]:
    """(key, item, value) of a line: the key names the line, the item is
    what the line prints (``report``, ``commute SWAP``, ``canonical
    INVERT``, ``matrix SHEAR``, a property of the suite, ...), in the edge
    section prefixed by the family of the pair (``real``, ``near-gap``,
    ``extreme``, ``degenerate`` or ``scaled``), and the value is the
    ``repr`` printed."""
    words = line.split(" ")
    if words[0] == "suite":
        item = re.search(r"'operation': '(\w+)'", line).group(1)
        return f"suite {item}", item, line
    label = 1 if section(line) == "seeds" else 2
    width = 2 if words[label] in ("commute", "word", "canonical",
                                  "matrix") else 1
    key = " ".join(words[:label + width])
    item = " ".join(words[label:label + width])
    if label == 2:
        family = words[0] if words[0] in EDGE_FAMILIES else "scaled"
        item = f"{family} {item}"
    return key, item, " ".join(words[label + width:])


def summarize(old: list[str], new: list[str]) -> dict[str, Counter]:
    """Item -> counts of its differing lines, "values moved" or "outcome
    changed", over the lines of one section; lines pair by their key."""
    before = {key: (item, value) for key, item, value in map(split, old)}
    after = {key: (item, value) for key, item, value in map(split, new)}
    table: dict[str, Counter] = {}
    for key in before.keys() | after.keys():
        item, old_value = before.get(key, (None, None))
        item, new_value = after.get(key, (item, None))
        if old_value == new_value:
            continue
        same = (None not in (old_value, new_value)
                and NUMBER.sub("#", old_value) == NUMBER.sub("#", new_value))
        table.setdefault(item, Counter())[
            "values moved" if same else "outcome changed"] += 1
    return table


def compare(before: list[str], after: list[str]) -> int:
    """Print ``identical``, or the differing lines per section; the count
    of a section is its changed lines on the longer side of each change."""
    if before == after:
        print("identical")
        return 0
    for name in ("suite", "seeds", "edge"):
        old = [line for line in before if section(line) == name]
        new = [line for line in after if section(line) == name]
        changes = [op for op in difflib.SequenceMatcher(
            None, old, new, autojunk=False).get_opcodes() if op[0] != "equal"]
        count = sum(max(i2 - i1, j2 - j1) for _, i1, i2, j1, j2 in changes)
        print(f"{name}: {count} differing lines")
        for item, counts in sorted(summarize(old, new).items()):
            print(f"  {item}: {counts['values moved']} values moved, "
                  f"{counts['outcome changed']} outcome changed")
        shown = [(sign, line) for _, i1, i2, j1, j2 in changes
                 for sign, lines in (("-", old[i1:i2]), ("+", new[j1:j2]))
                 for line in lines]
        for sign, line in shown[:2 * SHOWN_DIFFERENCES]:
            print(f"  {sign} {line[:SHOWN_WIDTH]}")
    return 1


def against(rev: str) -> int:
    """Fingerprint revision ``rev`` and this checkout, and compare them."""
    def git(*args, cwd=ROOT) -> str:
        return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                              stdout=subprocess.PIPE).stdout.strip()

    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        clone = Path(tmp) / "checkout"
        # --shared borrows the objects of this repository, so any commit it
        # holds can be checked out, on a branch or not
        git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT),
            str(clone))
        git("checkout", "--quiet", "--detach", commit, cwd=clone)
        script = clone / "tests" / Path(__file__).name
        shutil.copyfile(__file__, script)
        with tempfile.TemporaryFile("w+") as out_rev, \
                tempfile.TemporaryFile("w+") as out_here:
            runs = [subprocess.Popen([sys.executable, str(path)], stdout=out,
                                     text=True)
                    for path, out in ((script, out_rev), (__file__, out_here))]
            if any([run.wait() for run in runs]):
                sys.exit("a fingerprint run failed")
            out_rev.seek(0)
            out_here.seek(0)
            return compare(out_rev.read().splitlines(),
                           out_here.read().splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare this checkout with revision REV")
    args = parser.parse_args()
    if args.against is None:
        print_fingerprint()
        return 0
    return against(args.against)


if __name__ == "__main__":
    sys.exit(main())
