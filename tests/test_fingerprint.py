"""The per-item summary of ``tests/fingerprint.py --against``."""

from fingerprint import outcome_changes, section, split, summarize

OK = "SpectralData(h=((1+2j), (-0.5+0j), (3e-08-1j)), divisor=(nan+infj))"


def test_lines_split_into_key_item_and_value():
    assert split("7 commute SWAP " + OK) == ("7 commute SWAP", "commute SWAP", OK)
    assert split("7 report " + OK) == ("7 report", "report", OK)
    assert split("real 3 canonical INVERT " + OK) == (
        "real 3 canonical INVERT", "real canonical INVERT", OK)
    assert split("5 b*1e+110 SHEAR " + OK) == (
        "5 b*1e+110 SHEAR", "scaled SHEAR", OK)
    assert split("extreme 3 matrix SHEAR " + OK) == (
        "extreme 3 matrix SHEAR", "extreme matrix SHEAR", OK)
    suite = "suite {'operation': 'commute_swap', 'max_residual': 1e-12}"
    assert split(suite) == ("suite commute_swap", "commute_swap", suite)
    assert [section(line) for line in (
        "7 word ITS x", "7 normalize x", "7 forward None",
        "near-gap 2 report x", "degenerate gauge spectral x",
        "5 b*1e+110 forward None")] == [
        "seeds", "seeds", "seeds", "edge", "edge", "edge"]


def test_moved_values_and_changed_outcomes_are_told_apart():
    error = "('SingularMatrix', 'singular_matrix', 'matrix is singular', {'det': 0.0})"
    before = ["1 SWAP " + OK,
              "1 INVERT " + OK,
              "1 SHEAR " + error,
              "1 word ITS " + error,
              "1 commute SWAP " + OK,
              "2 report PositionCheck(name='gauge', passed=True, margin=0.5)",
              "2 spectral " + OK]
    after = ["1 SWAP " + OK.replace("(1+2j)", "(1.0000000000000002+2j)"),
             "1 INVERT " + error,
             "1 SHEAR " + error.replace("0.0", "1e-300"),
             "1 word ITS " + error.replace("'singular_matrix'", "'rank_not_two'"),
             "1 commute SWAP " + OK,
             "2 report PositionCheck(name='gauge', passed=False, margin=-0.5)",
             "2 spectral " + OK.replace("-0.5+0j", "-0.5-0j"),
             "2 SWAP " + OK]
    table = summarize(before, after)
    assert {item: dict(counts) for item, counts in table.items()} == {
        "SWAP": {"values moved": 1, "outcome changed": 1},
        "INVERT": {"outcome changed": 1},
        "SHEAR": {"values moved": 1},
        "word ITS": {"outcome changed": 1},
        "report": {"outcome changed": 1},
        "spectral": {"values moved": 1},
    }


def test_changed_outcomes_are_counted_by_pair():
    error = "('SingularMatrix', 'singular_matrix', 'matrix is singular', {'det': 0.0})"
    uncoded = "('OverflowError', None, 'math range error', None)"
    before = ["1 INVERT " + OK,
              "2 INVERT " + OK,
              "3 INVERT " + error,
              "1 SHEAR " + error,
              "1 SWAP " + uncoded,
              "2 SWAP " + OK]
    after = ["1 INVERT " + error,
             "2 INVERT " + error.replace("0.0", "1e-300"),
             "3 INVERT " + OK,
             "1 SHEAR " + error.replace("0.0", "1e-300"),
             "1 SWAP " + error,
             "4 INVERT " + error]
    assert {item: dict(counts)
            for item, counts in outcome_changes(before, after).items()} == {
        "INVERT": {("SpectralData", "singular_matrix"): 2,
                   ("singular_matrix", "SpectralData"): 1,
                   ("absent", "singular_matrix"): 1},
        "SWAP": {("OverflowError", "singular_matrix"): 1,
                 ("SpectralData", "absent"): 1},
    }
