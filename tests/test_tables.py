import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.tables import csv_text

# Header text with the characters a window id brings ("[0.25,1]", "(0,10]") and a CSV quote.
_TEXT = st.text(
    st.one_of(
        st.sampled_from(',"[]() .'),
        st.characters(blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_VALUES = st.one_of(st.none(), _FLOATS, _FLOATS.map(np.float64), st.integers(), st.integers(0, 9).map(np.int64), _TEXT)


@st.composite
def _tables(draw):
    header = draw(st.lists(_TEXT, min_size=1, max_size=5))
    rows = draw(st.lists(st.lists(_VALUES, min_size=len(header), max_size=len(header)), max_size=6))
    return header, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_tables())
def test_csv_text_round_trips_through_csv_reader(table):
    header, rows = table
    text = csv_text(header, rows)
    assert text.endswith("\n") and "\r" not in text
    assert len(text.split("\n")) == len(rows) + 2  # no field holds a line break, so one line per row
    read_header, *read_rows = csv.reader(io.StringIO(text, newline=""))
    assert read_header == header
    assert len(read_rows) == len(rows)
    for row, read in zip(rows, read_rows):
        assert len(read) == len(row)
        for value, field in zip(row, read):
            if value is None:
                assert field == ""
            elif isinstance(value, float) and math.isnan(value):
                assert field == "nan"
            elif isinstance(value, float):
                assert float(field).hex() == float(value).hex()  # .17g reads back bit for bit, sign of 0 too
            else:
                assert field == str(value)


def test_csv_text_quotes_only_fields_that_need_it():
    text = csv_text(("n", "distance_[0.25,1]", 'say "x"'), [(8, 0.1, None), (16, float("nan"), "(0,10]")])
    assert text == 'n,"distance_[0.25,1]","say ""x"""\n8,0.10000000000000001,\n16,nan,"(0,10]"\n'
