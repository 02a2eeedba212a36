import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import DEFAULT_DOMAIN, PhaseDomain
from gcrb.errors import CountsParseError
from gcrb.ingest import (
    CountsTable,
    fold_phase,
    parse_counts,
    write_counts,
)

PI = math.pi


def parse_text(text):
    return parse_counts(io.StringIO(text))


def assert_tables_equal(got, want):
    """Same columns: float64 labels and an int64 (E, 4) counts table with
    the same values, and the same ids."""
    assert got.phase_label.dtype == np.float64 and got.counts.dtype == np.int64
    assert got.counts.shape == (len(got.phase_label), 4)
    assert got.phase_label.tolist() == list(want.phase_label)
    assert got.counts.tolist() == [list(row) for row in want.counts]
    assert got.acquisition_id == tuple(want.acquisition_id)


def test_header_only_file_is_empty():
    table = parse_text("phase_rad,c0,c1,c2,c3\n")
    assert_tables_equal(table, CountsTable([], [], ()))
    assert table.counts.shape == (0, 4)


def test_single_row_maps_directly():
    table = parse_text("phase_rad,c0,c1,c2,c3\n0.0,500,250,0,250\n")
    assert_tables_equal(table, CountsTable([0.0], [(500, 250, 0, 250)], ("",)))


def test_acquisition_id_column():
    table = parse_text(
        "phase_rad,c0,c1,c2,c3,acquisition_id\n1.5,1,2,3,4,run-007\n"
    )
    assert table.acquisition_id == ("run-007",)


def test_negative_count_is_rejected_with_line_number():
    with pytest.raises(CountsParseError) as err:
        parse_text("phase_rad,c0,c1,c2,c3\n0.0,1,2,3,4\n0.1,5,-3,1,0\n")
    assert err.value.line_errors[0][0] == 3
    assert "c1" in err.value.line_errors[0][1]


def test_all_bad_lines_are_reported():
    text = (
        "phase_rad,c0,c1,c2,c3\n"
        "0.0,1,2,3,4\n"
        "oops,1,2,3,4\n"
        "0.2,1,2,3\n"
        "0.3,1,2,x,4\n"
    )
    with pytest.raises(CountsParseError) as err:
        parse_text(text)
    assert [n for n, _ in err.value.line_errors] == [3, 4, 5]


def test_parse_error_survives_a_pickle_round_trip():
    # a forked child hands its exception to the parent pickled
    err = CountsParseError([(3, "bad"), (5, "c1 is negative")])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is CountsParseError
    assert back.line_errors == err.line_errors
    assert str(back) == str(err)


def test_bad_header_rejected():
    with pytest.raises(CountsParseError):
        parse_text("phase,c0,c1,c2,c3\n")
    with pytest.raises(CountsParseError):
        parse_text("")


def test_fractional_count_rejected():
    with pytest.raises(CountsParseError):
        parse_text("phase_rad,c0,c1,c2,c3\n0.0,1.5,2,3,4\n")


def test_digit_separators_and_non_ascii_digits_rejected():
    # Python's int() and float() accept both; the schema allows neither
    with pytest.raises(CountsParseError) as err:
        parse_text("phase_rad,c0,c1,c2,c3\n0_1.5,1_000,2,3,4\n")
    assert err.value.line_errors == [
        (2, "phase_rad is not a finite number: '0_1.5'"),
        (2, "c0 must be a non-negative integer: '1_000'"),
    ]
    with pytest.raises(CountsParseError) as err:
        parse_text("phase_rad,c0,c1,c2,c3\n0.5,1,2,3,4\n\u0661.5,\u0661\u0662,2,3,4\n")
    assert [n for n, _ in err.value.line_errors] == [3, 3]
    # plain decimal and exponent forms, with surrounding blanks, still parse
    table = parse_text("phase_rad,c0,c1,c2,c3\n-1.5e-3, 12 ,0,7,3\n.25,1,2,3,4\n")
    assert_tables_equal(table, CountsTable([-1.5e-3, 0.25], [(12, 0, 7, 3), (1, 2, 3, 4)],
                                           ("", "")))


def test_count_beyond_float64_precision_rejected():
    # counts are analyzed as float64, which holds integers exactly up to 2**53
    top = 2 ** 53
    table = parse_text(f"phase_rad,c0,c1,c2,c3\n0.1,{top},0,0,{top:025d}\n")
    assert table.counts.tolist() == [[top, 0, 0, top]]
    huge = "1" + "0" * 5000
    with pytest.raises(CountsParseError) as err:
        parse_text(f"phase_rad,c0,c1,c2,c3\n0.1,{top + 1},0,0,0\n0.2,1,{10 ** 400},2,{huge}\n")
    assert [(n, msg.split()[0]) for n, msg in err.value.line_errors] == [
        (2, "c0"), (3, "c1"), (3, "c3")]


row_strategy = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.tuples(*[st.integers(min_value=0, max_value=10 ** 7)] * 4),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_"),
        max_size=12,
    ),
)


def table_of(rows):
    """The CountsTable of (label, counts, id) rows."""
    labels, counts, ids = zip(*rows) if rows else ((), (), ())
    return CountsTable(np.array(labels, dtype=float),
                       np.array(counts, dtype=np.int64).reshape(-1, 4), ids)


@given(rows=st.lists(row_strategy, max_size=20))
@settings(max_examples=100, deadline=None)
def test_round_trip(rows):
    table = table_of(rows)
    buf = io.StringIO()
    write_counts(table, buf)
    assert_tables_equal(parse_text(buf.getvalue()), table)


def test_round_trip_via_file(tmp_path):
    path = tmp_path / "counts.csv"
    # the id column is written when some id is non-empty, and a file without
    # one parses to empty ids
    for ids, header in ((("a1", "a2"), "phase_rad,c0,c1,c2,c3,acquisition_id"),
                        (("", "a2"), "phase_rad,c0,c1,c2,c3,acquisition_id"),
                        (("", ""), "phase_rad,c0,c1,c2,c3")):
        table = CountsTable(np.array([0.125, 2.8]), np.array([[10, 20, 30, 40], [9990, 3, 17, 0]]),
                            ids)
        write_counts(table, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == header
        assert_tables_equal(parse_counts(path), table)
        write_counts(parse_counts(path), path)
        assert path.read_text(encoding="utf-8") == text


def test_to_tally():
    # the parsed counts are the integer (E, 4) table that report_counts
    # takes, and each row sums to its shot count; the labels and ids are
    # columns of their own
    table = parse_text("phase_rad,c0,c1,c2,c3,acquisition_id\n"
                       "0.0,500,250,0,250,\n0.3,0,0,0,0,\n2.8,2600,2500,2400,2500,big\n")
    assert table.counts.dtype == np.int64 and table.counts.shape == (3, 4)
    assert table.counts.sum(axis=1).tolist() == [1000, 0, 10000]
    assert table.acquisition_id == ("", "", "big")


def test_phase_labels_are_finite_reals_stored_as_floats(tmp_path):
    # write_counts is where library labels enter: each is written as the
    # repr of its float
    path = tmp_path / "counts.csv"
    for label in (np.float64(0.3), np.int64(1), 2):
        write_counts(CountsTable([label], np.array([[1, 2, 3, 4]]), ("",)), path)
        assert parse_counts(path).phase_label.tolist() == [float(label)]
    for labels in ([True], [np.True_], ["0.3"], [None], [math.nan], [math.inf],
                   [0.1, True], np.array([0.2, math.nan]), 0.3, [[0.3]], [10 ** 400],
                   [0.1, 10 ** 400], [1 + 0j], [0.1, np.True_]):
        with pytest.raises(ValueError, match="phase label"):
            write_counts(CountsTable(labels, np.ones((np.size(labels), 4), int),
                                     ("",) * np.size(labels)), path)


def test_written_counts_and_column_lengths_are_checked(tmp_path):
    path = tmp_path / "counts.csv"
    counts = np.array([[1, 2, 3, 4]])
    # counts go through check_counts: integers in [0, 2**53], one row of
    # four per label; integer-valued floats are counts too
    write_counts(CountsTable([0.1], np.array([[1.0, 2, 3, 4]]), ("",)), path)
    assert parse_counts(path).counts.tolist() == [[1, 2, 3, 4]]
    for bad in (2 ** 53 + 1, 10 ** 400, math.inf, math.nan, 1e300, -1, 1.5, True, "5",
                np.True_, None, 1 + 0j):
        with pytest.raises(ValueError, match="counts must be"):
            write_counts(CountsTable([0.1], [[0, 0, bad, 0]], ("",)), path)
    for bad in ([1, 2, 3, 4], [[1, 2, 3]], np.ones((1, 1, 4), int)):
        with pytest.raises(ValueError, match=r"\(E, 4\) table"):
            write_counts(CountsTable([0.1], bad, ("",)), path)
    # the columns have one entry per row
    for labels, ids in (([0.1, 0.2], ("",)), ([0.1], ("", "")), ([0.1, 0.2], ("", ""))):
        with pytest.raises(ValueError, match="length"):
            write_counts(CountsTable(labels, counts, ids), path)


def test_fold_phase():
    folded = fold_phase(2.8, DEFAULT_DOMAIN)
    assert folded == pytest.approx(2.8 - PI / 2.0, rel=1e-12)
    assert 0.0 <= folded < PI / 2.0
    assert fold_phase(0.7, DEFAULT_DOMAIN) == pytest.approx(0.7, rel=1e-15)
    assert 0.0 <= fold_phase(-0.1, DEFAULT_DOMAIN) < PI / 2.0
    other = PhaseDomain(0.5, 1.5)
    assert 0.5 <= fold_phase(9.9, other) < 1.5
    assert type(folded) is float


def test_fold_phase_folds_arrays_elementwise():
    # an array folds to the bits of each element folded alone by math.fmod
    def fold_one(phase, domain):
        folded = domain.lower + math.fmod(phase - domain.lower, domain.width)
        if folded < domain.lower:
            folded += domain.width
        return domain.lower if folded >= domain.upper else folded

    rng = np.random.default_rng(8)
    phases = np.concatenate([rng.uniform(-20.0, 20.0, 2000), 10.0 ** rng.uniform(-20, 3, 500),
                             [0.0, -0.0, -1e-17, 0.5, 1.5, 3.5, PI / 2.0, -PI, 2.8, 9.9]])
    for domain in (DEFAULT_DOMAIN, PhaseDomain(0.5, 1.5), PhaseDomain(-1e-3, 2.0)):
        folded = fold_phase(phases, domain)
        assert isinstance(folded, np.ndarray) and folded.shape == phases.shape
        want = np.array([fold_one(p, domain) for p in phases.tolist()])
        assert folded.tobytes() == want.tobytes()
        assert fold_phase(phases.reshape(5, -1), domain).tobytes() == want.tobytes()


def test_fold_phase_stays_below_upper():
    # -1e-17 + pi/2 rounds to pi/2 itself, which is congruent to the lower end
    assert fold_phase(-1e-17, DEFAULT_DOMAIN) == 0.0
    for k in (-3, -1, 0, 1, 2, 5):
        assert fold_phase(k * DEFAULT_DOMAIN.width, DEFAULT_DOMAIN) == 0.0
    other = PhaseDomain(0.5, 1.5)
    assert fold_phase(math.nextafter(0.5, 0.0), other) == 0.5
    assert fold_phase(3.5, other) == 0.5
