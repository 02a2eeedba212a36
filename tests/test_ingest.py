import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrb.bayes import DEFAULT_DOMAIN, PhaseDomain
from gcrb.errors import CountsParseError
from gcrb.ingest import (
    CountsRecord,
    fold_phase,
    parse_counts,
    write_counts,
)

PI = math.pi


def parse_text(text):
    return parse_counts(io.StringIO(text))


def test_header_only_file_is_empty():
    assert parse_text("phase_rad,c0,c1,c2,c3\n") == []


def test_single_row_maps_directly():
    records = parse_text("phase_rad,c0,c1,c2,c3\n0.0,500,250,0,250\n")
    assert records == [CountsRecord(0.0, (500, 250, 0, 250))]


def test_acquisition_id_column():
    records = parse_text(
        "phase_rad,c0,c1,c2,c3,acquisition_id\n1.5,1,2,3,4,run-007\n"
    )
    assert records[0].acquisition_id == "run-007"


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
    records = parse_text("phase_rad,c0,c1,c2,c3\n-1.5e-3, 12 ,0,7,3\n.25,1,2,3,4\n")
    assert records == [CountsRecord(-1.5e-3, (12, 0, 7, 3)), CountsRecord(0.25, (1, 2, 3, 4))]


def test_count_beyond_float64_precision_rejected():
    # counts are analyzed as float64, which holds integers exactly up to 2**53
    top = 2 ** 53
    records = parse_text(f"phase_rad,c0,c1,c2,c3\n0.1,{top},0,0,{top:025d}\n")
    assert records[0].counts == (top, 0, 0, top)
    huge = "1" + "0" * 5000
    with pytest.raises(CountsParseError) as err:
        parse_text(f"phase_rad,c0,c1,c2,c3\n0.1,{top + 1},0,0,0\n0.2,1,{10 ** 400},2,{huge}\n")
    assert [(n, msg.split()[0]) for n, msg in err.value.line_errors] == [
        (2, "c0"), (3, "c1"), (3, "c3")]


record_strategy = st.builds(
    CountsRecord,
    phase_label=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    counts=st.tuples(*[st.integers(min_value=0, max_value=10 ** 7)] * 4),
    acquisition_id=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_"),
        max_size=12,
    ),
)


@given(records=st.lists(record_strategy, max_size=20))
@settings(max_examples=100, deadline=None)
def test_round_trip(records):
    buf = io.StringIO()
    write_counts(records, buf)
    assert parse_text(buf.getvalue()) == records


def test_round_trip_via_file(tmp_path):
    records = [
        CountsRecord(0.125, (10, 20, 30, 40), "a1"),
        CountsRecord(2.8, (9990, 3, 17, 0), "a2"),
    ]
    path = tmp_path / "counts.csv"
    write_counts(records, path)
    assert parse_counts(path) == records


def test_to_tally():
    # a record's counts are its tally, a row of the integer counts table that
    # report_counts takes; the metadata are dropped
    records = [CountsRecord(0.0, (500, 250, 0, 250)), CountsRecord(0.3, (0, 0, 0, 0)),
               CountsRecord(2.8, (2600, 2500, 2400, 2500), "big")]
    table = np.array([r.counts for r in records])
    assert table.dtype.kind == "i"
    assert table.sum(axis=1).tolist() == [1000, 0, 10000]


def test_phase_labels_are_finite_reals_stored_as_floats():
    for label in (np.float64(0.3), np.int64(1), 2):
        record = CountsRecord(label, (1, 2, 3, 4))
        assert type(record.phase_label) is float and record.phase_label == float(label)
    for label in (True, np.True_, "0.3", None, math.nan, math.inf):
        with pytest.raises(ValueError, match="phase label"):
            CountsRecord(label, (1, 2, 3, 4))


def test_fold_phase():
    folded = fold_phase(2.8, DEFAULT_DOMAIN)
    assert folded == pytest.approx(2.8 - PI / 2.0, rel=1e-12)
    assert 0.0 <= folded < PI / 2.0
    assert fold_phase(0.7, DEFAULT_DOMAIN) == pytest.approx(0.7, rel=1e-15)
    assert 0.0 <= fold_phase(-0.1, DEFAULT_DOMAIN) < PI / 2.0
    other = PhaseDomain(0.5, 1.5, 64)
    assert 0.5 <= fold_phase(9.9, other) < 1.5


def test_fold_phase_stays_below_upper():
    # -1e-17 + pi/2 rounds to pi/2 itself, which is congruent to the lower end
    assert fold_phase(-1e-17, DEFAULT_DOMAIN) == 0.0
    for k in (-3, -1, 0, 1, 2, 5):
        assert fold_phase(k * DEFAULT_DOMAIN.width, DEFAULT_DOMAIN) == 0.0
    other = PhaseDomain(0.5, 1.5, 64)
    assert fold_phase(math.nextafter(0.5, 0.0), other) == 0.5
    assert fold_phase(3.5, other) == 0.5
