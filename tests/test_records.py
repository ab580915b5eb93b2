"""Value semantics of the package's records.

Plain records are ``NamedTuple``s; ``Mat3`` and ``GL2ZMatrix`` are slotted
value classes, because they define arithmetic that a tuple would turn into
repetition or concatenation.  Either way a record compares and hashes by
value, refuses assignment and prints as it did when the records were
dataclasses.
"""

import copy
import pickle

import pytest

import spectral_pair.linalg as linalg
from spectral_pair import (
    CubicPoly,
    CurveCoefficients,
    DivisorPoint,
    Generator,
    GeneralPositionReport,
    GL2ZMatrix,
    Mat3,
    MatrixPair,
    NormalizedPair,
    SpectralData,
    random_pair,
    spectral_data,
    verify_commutation,
)
from spectral_pair.spectral import Forward, PositionCheck, forward


def records():
    """Two equal, separately built instances of every record."""
    def build():
        pair = random_pair(3)
        drawn = forward(pair)
        sd = drawn.sd
        return {
            "Mat3": pair.a,
            "GL2ZMatrix": GL2ZMatrix(3, 5, 1, 2),
            "CubicPoly": CubicPoly.from_roots(1, 2, 3),
            "MatrixPair": pair,
            "NormalizedPair": drawn.np,
            "CurveCoefficients": sd.coeffs,
            "DivisorPoint": sd.divisor,
            "SpectralData": sd,
            "PositionCheck": drawn.report.checks[0],
            "GeneralPositionReport": drawn.report,
            "Forward": drawn,
            "CommutationReport": verify_commutation(Generator.INVERT, pair),
        }
    return build(), build()


FIRST, SECOND = records()


@pytest.mark.parametrize("name", sorted(FIRST))
def test_records_compare_by_value(name):
    first, second = FIRST[name], SECOND[name]
    assert first is not second
    assert first == second
    assert not first != second


@pytest.mark.parametrize("name", sorted(set(FIRST) - {"CommutationReport"}))
def test_records_hash_by_value(name):
    assert hash(FIRST[name]) == hash(SECOND[name])


def test_commutation_report_is_unhashable():
    # its per-component residuals are a dict
    with pytest.raises(TypeError):
        hash(FIRST["CommutationReport"])


@pytest.mark.parametrize("name", sorted(FIRST))
def test_records_refuse_assignment(name):
    record = FIRST[name]
    field = (record.__slots__ if name in ("Mat3", "GL2ZMatrix")
             else record._fields)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert FIRST[name] == SECOND[name]


@pytest.mark.parametrize("name", ["Mat3", "GL2ZMatrix"])
def test_value_classes_copy_and_pickle(name):
    record = FIRST[name]
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_value_classes_differ_from_other_types():
    m, g = FIRST["Mat3"], FIRST["GL2ZMatrix"]
    assert m != m.entries
    assert g != (3, 5, 1, 2)
    assert m != g


def test_reprs_match_the_dataclass_text():
    assert repr(GL2ZMatrix(1, 1, 0, 1)) == "GL2ZMatrix(a=1, b=1, c=0, d=1)"
    assert repr(Mat3.identity()) == (
        "Mat3(entries=((1+0j), 0j, 0j, 0j, (1+0j), 0j, 0j, 0j, (1+0j)))")
    assert repr(spectral_data(random_pair(0))) == (
        "SpectralData(h=((-0.31771367667661987-0.9643329988281467j), "
        "(1.1351943561390905-0.78674909568429j), "
        "(1.3776874061001925+1.03181761176121j)), "
        "coeffs=CurveCoefficients(d1=(-0.6704989511205826-2.31876384907005j), "
        "d2=(0.6127239194322682+0.8062927929788224j), "
        "p_plus=(2.195168085562663-0.7192644827512269j), "
        "p_minus=(1.8136752941852512-2.413697216209968j), "
        "q_plus=(-0.8703708020274844+0.49315052982783464j), "
        "q_minus=(-0.34888125268277376-0.3000696348807792j), "
        "r_plus=(2.4974051689485877+2.479120177264651j), "
        "r_minus=(-2.5635962170819067-0.11478778091716607j), "
        "t=(-0.11251476753097567+2.290904670462907j)), "
        "divisor=DivisorPoint(L=(-0.8627717784011182-0.708837227332441j), "
        "M=(1.041744256643879+0.44546821561827876j)))")


@pytest.mark.parametrize("operation", [
    lambda m: 2 * m, lambda m: m * 2, lambda m: m * m])
def test_mat3_has_no_tuple_arithmetic(operation):
    with pytest.raises(TypeError):
        operation(Mat3.identity())


def test_mat3_sum_is_entrywise():
    m = FIRST["Mat3"]
    assert (m + m).entries == tuple(2 * z for z in m.entries)


def test_gl2z_has_no_tuple_arithmetic():
    g = GL2ZMatrix(1, 1, 0, 1)
    with pytest.raises(TypeError):
        2 * g
    assert g * g == GL2ZMatrix(1, 2, 0, 1)


def test_curve_coefficients_are_their_nine_values():
    c = FIRST["CurveCoefficients"]
    assert len(c) == 9
    assert tuple(c) == tuple(getattr(c, k) for k in c._fields)
    assert dict(c.items()) == c._asdict()


def test_defaults_are_kept():
    assert GeneralPositionReport().checks == ()
    assert PositionCheck("x", True, 1.0, 0.5).note == ""


def test_mat3_check_runs_once_per_construction(monkeypatch):
    seen = []
    check = Mat3.__post_init__

    def counting(mat):
        seen.append(mat)
        check(mat)

    monkeypatch.setattr(Mat3, "__post_init__", counting)
    built = [Mat3.identity(), Mat3.diagonal(1, 2, 3),
             Mat3.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])]
    built.append(built[0] @ built[2])
    built.append(built[1] + built[2])
    built.append(built[2].scaled(2))
    built.append(linalg.inv3(built[2]))
    assert seen == built
    assert all(a is b for a, b in zip(seen, built))
    with pytest.raises(ValueError, match="^Mat3 entries must be finite$"):
        Mat3((float("nan"),) * 9)
    assert len(seen) == len(built) + 1


def test_records_are_the_named_tuples_the_api_documents():
    for cls in (CubicPoly, MatrixPair, NormalizedPair, CurveCoefficients,
                DivisorPoint, SpectralData, PositionCheck,
                GeneralPositionReport, Forward):
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls
    for value in (Mat3.identity(), GL2ZMatrix(1, 1, 0, 1)):
        assert not isinstance(value, tuple)
        assert not hasattr(value, "__dict__")
