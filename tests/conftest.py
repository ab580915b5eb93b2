import json
import random
from pathlib import Path

import pytest

import spectral_pair.spectral as spectral_module
from spectral_pair import (
    CurveCoefficients,
    DivisorPoint,
    Mat3,
    MatrixPair,
    SpectralData,
    jsonio,
    random_pair,
)
from spectral_pair import _kernels_py as kernels
from spectral_pair import cubic

# exact integer fixture: the whole forward map lands on integers, so every
# stage can be checked by hand.
FIXTURE_A = Mat3.diagonal(1, 2, 3)
FIXTURE_B = Mat3.from_rows([[2, 1, 1], [5, 3, -2], [7, 1, 4]])
FIXTURE_H = (1 + 0j, 2 + 0j, 3 + 0j)
FIXTURE_COEFFS = {
    "d1": 6, "d2": -22, "p_plus": 6, "p_minus": 11, "q_plus": 9,
    "q_minus": 16, "r_plus": 29, "r_minus": 19, "t": 34,
}
FIXTURE_DIVISOR = (-9 + 0j, 2 + 0j)

# tr A = 1, but c1 and c0 of A's characteristic polynomial are inf - inf =
# NaN, which the leading-coefficient test skips, so the roots are NaN
NAN_EIGENVALUE_A = Mat3.from_rows(
    [[1e160, 1e160, 0], [-1e160, -1e160, 0], [0, 0, 1]])

#: the entries of ``extreme_entry_pairs``: small ones, and extreme ones
#: whose products, squares or cubes overflow or underflow
SMALL_ENTRIES = (0.0, 1.0, -1.0, 3.0)
EXTREME_ENTRIES = (1e154, -1e154, 1e160, -1e160, 1e200, -1e200, 1e300,
                   -1e300, 1e-160)

FIXTURES = Path(__file__).parent / "fixtures"
PAIR_FIXTURE = str(FIXTURES / "pair_fixture.json")
SPECTRAL_FIXTURE = str(FIXTURES / "spectral_fixture.json")


@pytest.fixture
def fixture_pair() -> MatrixPair:
    return MatrixPair(FIXTURE_A, FIXTURE_B)


@pytest.fixture(scope="session")
def seeded_pairs() -> list[MatrixPair]:
    """The first 100 deterministic general-position pairs, shared across
    tests to keep the suite fast."""
    return [random_pair(seed) for seed in range(100)]


def nan_eigenvalue_pair() -> MatrixPair:
    return MatrixPair(NAN_EIGENVALUE_A, random_pair(0).b)


def extreme_entry_pairs(count: int, seed: int = 0) -> list[MatrixPair]:
    """Seeded real pairs whose entries are extreme with probability 0.1,
    0.3 or 0.7 in turn, and small otherwise."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        share = (0.1, 0.3, 0.7)[i % 3]
        entries = [rng.choice(EXTREME_ENTRIES if rng.random() < share
                              else SMALL_ENTRIES) for _ in range(18)]
        pairs.append(MatrixPair(Mat3(entries[:9]), Mat3(entries[9:])))
    return pairs


def rng_complex(rng: random.Random, radius: float = 1.0) -> complex:
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def rng_matrix(rng: random.Random, radius: float = 1.0) -> Mat3:
    return Mat3(tuple(rng_complex(rng, radius) for _ in range(9)))


def third_intersection(coeffs, p1, p2):
    """Third point where the chord through the coordinate triples p1 and p2
    meets the cubic, by the chord construction's own steps: each point
    normalized once, then the deflation."""
    p1n, p2n = cubic._normalized(p1), cubic._normalized(p2)
    third, _ = cubic._third_intersection(coeffs, coeffs.max_magnitude(),
                                         p1n, p2n,
                                         kernels.eval_curve9(coeffs, *p2n))
    return third


def scaled_pair_file(tmp_path, which: str, scale: float) -> str:
    """Path of a copy of the pair fixture with matrix ``which`` ("a" or "b")
    scaled by ``scale``."""
    pair = jsonio.doc_to_pair(jsonio.loads(Path(PAIR_FIXTURE).read_text()))
    pair = pair._replace(**{which: getattr(pair, which).scaled(scale)})
    path = tmp_path / f"pair_{which}_{scale:g}.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_doc(pair)))
    return str(path)


def oversized_integer_pair_file(tmp_path) -> str:
    """Path of a copy of the pair fixture whose entry A[0][0] has a
    400-digit integer real part, beyond the float range."""
    doc = json.loads(Path(PAIR_FIXTURE).read_text())
    doc["A"][0][0][0] = 10 ** 400
    path = tmp_path / "pair_oversized_integer.json"
    path.write_text(json.dumps(doc))
    return str(path)


def overflowing_spectral_doc() -> dict:
    """A spectral document whose divisor point is off the curve, although
    its scaled curve residual overflows to NaN: h = (1e100, 2e100, 3e100)
    with matching p_plus, p_minus and d1, the other six coefficients 1,
    and L = M = 1e3."""
    h1, h2, h3 = h = (1e100, 2e100, 3e100)
    coeffs = CurveCoefficients(
        d1=h1 * h2 * h3, d2=1, p_plus=h1 + h2 + h3,
        p_minus=h1 * h2 + h1 * h3 + h2 * h3,
        q_plus=1, q_minus=1, r_plus=1, r_minus=1, t=1)
    return jsonio.spectral_to_doc(
        SpectralData(h, coeffs, DivisorPoint(1e3, 1e3)))


def recording_validations(monkeypatch) -> list:
    """The spectral data that are validated from now on, in order.  Every
    validation, ``validate_spectral_data``'s and the forward map's, goes
    through ``spectral._validated``."""
    calls = []
    original = spectral_module._validated

    def recording(sd, **kwargs):
        calls.append(sd)
        return original(sd, **kwargs)

    monkeypatch.setattr(spectral_module, "_validated", recording)
    return calls


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
