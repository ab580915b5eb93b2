"""The benchmark's workloads: inputs made from a seed, and one op each.

Every workload is a closed loop with one client: op ``i + 1`` starts when op
``i`` has returned.  ``op(i)`` returns ``None`` when its result was checked
and is within tolerance, or the name of the failure; a
``GeneralPositionError`` it raises is a coded rejection, any other exception
a failure (see ``classify``).  The ops call only public ``spectral_pair``
functions, or the CLI through ``python -m spectral_pair.cli``.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spectral_pair import (
    GeneralPositionError,
    Generator,
    Mat3,
    MatrixPair,
    act_word_on_pair,
    act_word_spectral,
    canonical_form,
    decompose_gl2z,
    general_position_report,
    inv3,
    matrix_of_word,
    normalize_pair,
    random_pair,
    reconstruct,
    spectral_data,
    spectral_residuals,
    verify_commutation,
    well_conditioned_matrix,
    word_to_str,
)
from spectral_pair import jsonio
from spectral_pair.verify import (
    DEFAULT_TOLERANCE,
    PROPERTIES,
    TOLERANCE_MULTIPLIERS,
    run_suite,
)

TOL = DEFAULT_TOLERANCE
WORD_TOL = DEFAULT_TOLERANCE * TOLERANCE_MULTIPLIERS["word_consistency"]

REJECT_CODES = (
    "general_position", "degenerate_leading_coefficient", "singular_matrix",
    "rank_not_two", "repeated_eigenvalues", "gauge_degenerate",
    "degenerate_divisor", "linear_system_singular", "coincident_points",
    "line_on_curve", "inputs_not_incident", "swapped_pair_degenerate",
    "singular_a", "invariant_violation", "intermediate_degeneracy", "other")
FAIL_KINDS = ("closed_form_mismatch", "over_tolerance", "cli_mismatch",
              "other")
OUTCOMES = (("ok",) + tuple(f"rejected.{c}" for c in REJECT_CODES)
            + tuple(f"failed.{k}" for k in FAIL_KINDS))

GENERATORS = (Generator.SWAP, Generator.INVERT, Generator.SHEAR)


def classify(workload, i: int) -> str:
    """Outcome of op ``i``: ``ok``, ``rejected.<code>`` or
    ``failed.<kind>``."""
    try:
        failure = workload.op(i)
    except GeneralPositionError as exc:
        return f"rejected.{exc.code if exc.code in REJECT_CODES else 'other'}"
    except Exception as exc:  # an uncoded error fails the op, not the run
        code = getattr(exc, "code", None)
        return f"failed.{code if code in FAIL_KINDS else 'other'}"
    return "ok" if failure is None else f"failed.{failure}"


def pair_residual(lhs, rhs) -> float:
    """Largest relative entry difference of two normalized pairs."""
    values = list(zip(lhs.h, rhs.h)) + list(zip(lhs.u.entries, rhs.u.entries))
    return max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in values)


def _random_word(rng: random.Random, length: int):
    return tuple(rng.choice(GENERATORS) for _ in range(length))


class Workload:
    name = ""
    # percentile reported as op_tail_ms: fixed per workload, the highest whose
    # run-to-run spread stayed under a third of its bound with at least ten
    # delivered ops beyond it in a 15 s run at the first measured rate
    tail_percentile = 90.0
    # ops the traced run always completes; count metrics are taken over them
    count_ops = 1
    tracer = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> str | None:
        raise NotImplementedError

    def generator_seeds(self) -> list[int]:
        """Seeds of the ``random_pair`` draws this workload stands on."""
        return []

    def close(self) -> None:
        pass


class VerifySuite(Workload):
    """One op is ``run_suite(1, base_seed=s)``: one seed through all seven
    properties, seven ``random_pair`` draws included.  The seeds cycle over
    100 consecutive ones from a seeded base, as ``spectral-pair verify
    --seeds 100 --base-seed <base>`` runs them."""

    name = "verify-suite"
    tail_percentile = 95.0
    pool = 100
    count_ops = 25

    def setup(self, seed):
        self.base = random.Random(f"{self.name}:{seed}").randrange(1 << 30)
        # property -> [skipped seeds, max residual / tolerance] over count_ops
        self.details = {name: [0, 0.0] for name in PROPERTIES}

    def op(self, i):
        failed = False
        for result in run_suite(1, base_seed=self.base + i % self.pool):
            if result.seeds_run and not result.passed:
                failed = True
            if i < self.count_ops:
                detail = self.details[result.operation]
                detail[0] += len(result.skipped)
                detail[1] = max(detail[1],
                                result.max_residual / result.tolerance)
        return "over_tolerance" if failed else None

    def generator_seeds(self):
        return [self.base + i for i in range(self.count_ops)]


class DiagramStream(Workload):
    """Pairs drawn at set-up; one op is the forward map, the reconstruct
    round trip, the S, I and T diagrams and one word on both sides."""

    name = "diagram-stream"
    tail_percentile = 95.0
    # word lengths cycle through seven evenly spaced values in 1..6, so each
    # pool costs the same and the median op falls inside the length-4 group
    # rather than on the gap between two equally large groups
    lengths = (1, 2, 3, 4, 4, 5, 6)
    pool = 7 * len(lengths)
    count_ops = pool

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = [rng.randrange(1 << 30) for _ in range(self.pool)]
        self.pairs = [random_pair(s) for s in self.seeds]
        self.words = [_random_word(rng, self.lengths[k % len(self.lengths)])
                      for k in range(self.pool)]

    def op(self, i):
        pair = self.pairs[i % self.pool]
        word = self.words[i % self.pool]
        sd = spectral_data(pair)
        again = spectral_data(reconstruct(sd).as_pair())
        if max(spectral_residuals(sd, again).values()) > TOL:
            return "over_tolerance"
        for g in GENERATORS:
            if verify_commutation(g, pair).max_residual > TOL:
                return "over_tolerance"
        lhs = act_word_spectral(word, sd)
        rhs = canonical_form(spectral_data(act_word_on_pair(word, pair)))
        if max(spectral_residuals(lhs, rhs).values()) > WORD_TOL:
            return "over_tolerance"
        return None

    def generator_seeds(self):
        return self.seeds


def _expected(make_doc) -> tuple[str, str]:
    """What the CLI must print: the document's text, or the error code."""
    try:
        return "ok", jsonio.dumps(make_doc())
    except GeneralPositionError as exc:
        return "rejected", exc.code


def _check_doc(report) -> dict:
    return {"passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "margin": c.margin, "threshold": c.threshold,
                        "note": c.note}
                       for c in report.checks]}


def _decompose_doc(m) -> dict:
    word = decompose_gl2z(m)
    back = matrix_of_word(word)
    return {"matrix": [m.a, m.b, m.c, m.d], "word": word_to_str(word),
            "length": len(word),
            "recomposed": [back.a, back.b, back.c, back.d]}


class CliDocs(Workload):
    """One op is one cold ``python -m spectral_pair.cli`` process; the
    commands rotate over documents written at set-up, and each output must
    equal the in-process document byte for byte."""

    name = "cli-docs"
    tail_percentile = 75.0
    commands = ("spectral", "reconstruct", "act-word", "act-matrix", "check",
                "decompose")
    count_ops = len(commands)
    pool = 4

    def __init__(self, workdir: Path, env: dict, traced_cli: Path):
        self.root = workdir
        self.env = env
        self.traced_cli = traced_cli
        self.dir = None

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        self.root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-docs-", dir=self.root))
        self.seeds = [rng.randrange(1 << 30) for _ in range(self.pool)]
        self.cases = []   # per pool entry: command -> (argv, expected)
        for k, s in enumerate(self.seeds):
            pair = random_pair(s)
            pair_path = self.dir / f"pair{k}.json"
            pair_path.write_text(jsonio.dumps(jsonio.pair_to_doc(pair)))
            spectral_text = jsonio.dumps(jsonio.spectral_to_doc(
                spectral_data(pair)))
            spectral_path = self.dir / f"spectral{k}.json"
            spectral_path.write_text(spectral_text)
            sd = jsonio.doc_to_spectral(jsonio.loads(spectral_text))
            # a word with every generator, and a GL(2,Z) matrix
            letters = [*GENERATORS, *_random_word(rng, rng.randint(0, 3))]
            rng.shuffle(letters)
            word = tuple(letters)
            matrix = matrix_of_word(_random_word(rng, rng.randint(3, 6)))
            matrix_arg = f"{matrix.a},{matrix.b},{matrix.c},{matrix.d}"
            self.cases.append({
                "spectral": (["spectral", str(pair_path)], _expected(
                    lambda: jsonio.spectral_to_doc(spectral_data(pair)))),
                "reconstruct": (["reconstruct", str(spectral_path)], _expected(
                    lambda: jsonio.normalized_to_pair_doc(reconstruct(sd)))),
                "act-word": (["act", "--word", word_to_str(word),
                              str(spectral_path)], _expected(
                    lambda: jsonio.spectral_to_doc(
                        act_word_spectral(word, sd)))),
                "act-matrix": (["act", f"--matrix={matrix_arg}", "--side",
                                "matrix", str(pair_path)], _expected(
                    lambda: jsonio.pair_to_doc(
                        act_word_on_pair(decompose_gl2z(matrix), pair)))),
                "check": (["check", str(pair_path)], _expected(
                    lambda: _check_doc(general_position_report(pair)))),
                "decompose": (["decompose", f"--matrix={matrix_arg}"],
                              _expected(lambda: _decompose_doc(matrix))),
            })

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "spectral_pair.cli", *argv]
        else:
            spans = self.dir / "spans.json"
            cmd = [sys.executable, str(self.traced_cli), str(spans), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, timeout=120)
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text()), self.tracer.op)
        return proc

    def op(self, i):
        command = self.commands[i % len(self.commands)]
        argv, (kind, expected) = self.cases[
            (i // len(self.commands)) % self.pool][command]
        proc = self._run(argv)
        if kind == "rejected":
            if proc.returncode == 3 and json.loads(
                    proc.stderr.splitlines()[-1])["error"]["code"] == expected:
                raise _CliRejection(expected)
            return "cli_mismatch"
        if proc.returncode != 0 or proc.stdout != expected:
            return "cli_mismatch"
        return None

    def generator_seeds(self):
        return self.seeds

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


class _CliRejection(GeneralPositionError):
    """A coded rejection reported by the CLI, re-raised in the harness."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def _complex_in_disk(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) <= 1:
            return z


def _annulus_point(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if 0.5 <= abs(z) <= 2.0:
            return z


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


class BoundaryMix(Workload):
    """General-position inputs outside ``random_pair``'s generator: real
    pairs, rescaled pairs, pairs with small eigenvalue gaps and plain random
    pairs.  One op is the general-position report, the forward round trip
    and one commuting diagram."""

    name = "boundary-mix"
    tail_percentile = 95.0
    per_kind = 60
    count_ops = 4 * per_kind

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        n = self.per_kind
        inputs = []
        for _ in range(n):   # real-valued pairs
            inputs.append(MatrixPair(
                Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))),
                Mat3(tuple(rng.uniform(-1, 1) for _ in range(9)))))
        self.seeds = [rng.randrange(1 << 30) for _ in range(n)]
        # (sA, tB) with s and t in 1e-3..1e4
        for s, us, ut in zip(self.seeds, _stratified(rng, n),
                             _stratified(rng, n)):
            base = random_pair(s)
            inputs.append(MatrixPair(base.a.scaled(10 ** (-3 + 7 * us)),
                                     base.b.scaled(10 ** (-3 + 7 * ut))))
        lo, hi = math.log10(1e-6), math.log10(3e-4)
        for u in _stratified(rng, n):   # relative eigenvalue gap 1e-6..3e-4
            h1 = _annulus_point(rng)
            h3 = _annulus_point(rng)
            while abs(h3 - h1) < 0.3:
                h3 = _annulus_point(rng)
            gap = 10 ** (lo + (hi - lo) * u) * max(abs(h1), abs(h3))
            h2 = h1 + gap * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            v = well_conditioned_matrix(rng)
            a_mat = v @ Mat3.diagonal(h1, h2, h3) @ inv3(v)
            inputs.append(MatrixPair(
                a_mat, Mat3(tuple(_complex_in_disk(rng) for _ in range(9)))))
        for _ in range(n):   # plain complex pairs
            inputs.append(MatrixPair(
                Mat3(tuple(_complex_in_disk(rng) for _ in range(9))),
                Mat3(tuple(_complex_in_disk(rng) for _ in range(9)))))
        self.inputs = [(pair, GENERATORS[k % 3])
                       for k, pair in enumerate(inputs)]
        rng.shuffle(self.inputs)

    def op(self, i):
        pair, g = self.inputs[i % len(self.inputs)]
        general_position_report(pair)
        back = reconstruct(spectral_data(pair))
        if pair_residual(normalize_pair(pair), back) > TOL:
            return "over_tolerance"
        if verify_commutation(g, pair).max_residual > TOL:
            return "over_tolerance"
        return None

    def generator_seeds(self):
        return self.seeds
