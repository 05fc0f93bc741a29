"""Property tests of the study CSV schema: template emission equals
formatting each value on its own, parsing inverts emission, and the one
writer's plain join equals what ``csv.writer`` writes."""

import csv
import io
from dataclasses import fields

import numpy as np
import pytest

from ovlomax import EfficiencyCell, StudyRow, emit_rows_csv, emit_tables, parse_rows_csv
from ovlomax.estimators import METHODS, SOURCES
from ovlomax.overlap import MEASURES
from ovlomax.study import _write_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
               -1e300, 999999.5, 9.999995, 0.1, float("inf"), float("-inf"), float("nan")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats().map(np.float64))
ints = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1).map(np.uint64),
                 st.integers(-2**63, 2**63 - 1).map(np.int64))
sixg = st.one_of(st.sampled_from(EDGE_FLOATS[:-1]),
                 st.floats(allow_nan=False)).map(lambda x: float(f"{x:.6g}"))


def cell(v) -> str:
    """One value as the schema writes it: strings as they are, integers in
    full, other numbers at six significant digits, None as empty."""
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.6g}"


def value_rows(items, kind) -> tuple:
    names = [f.name for f in fields(kind)]
    return names, [[cell(getattr(item, name)) for name in names] for item in items]


def per_value_csv(items, kind) -> str:
    """The schema written one value at a time, joined with no quoting."""
    names, rows = value_rows(items, kind)
    return "".join(",".join(line) + "\n" for line in [names, *rows])


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def study_rows(number, integer, names=None):
    def name(known):
        return st.sampled_from(known) if names is None else names

    return st.lists(st.builds(
        StudyRow, method=name(METHODS), measure=name(MEASURES),
        R=number, r1=integer, r2=integer, m=integer, reps=integer, abs_bias=number,
        signed_bias=number, mse=number, coverage=number, ci_length=number,
        efficiency=st.one_of(st.none(), number), formula_source=name(SOURCES),
        seed=integer), max_size=8)


@settings(deadline=None)
@given(study_rows(floats, ints))
def test_rows_csv_equals_per_value_formatting(rows):
    assert emit_rows_csv(rows) == per_value_csv(rows, StudyRow)


@settings(deadline=None)
@given(study_rows(sixg, st.integers(0, 2**64 - 1)))
def test_parse_inverts_emit(rows):
    assert parse_rows_csv(emit_rows_csv(rows)) == rows


@settings(deadline=None)
@given(r_values=st.lists(st.floats(1e-6, 1e6).map(lambda x: float(f"{x:.6g}")),
                         min_size=1, max_size=3, unique=True),
       set_sizes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          min_size=1, max_size=3, unique=True),
       cycles=st.lists(st.integers(1, 50), min_size=1, max_size=2, unique=True),
       data=st.data())
def test_eff_table_csv_equals_per_value_formatting(r_values, set_sizes, cycles, data):
    maybe = st.one_of(st.none(), floats)
    # in the table's own order: cycle count, measure, R, (r1, r2)
    cells = [EfficiencyCell(meas, R, r1, r2, m, data.draw(maybe), data.draw(maybe))
             for m in sorted(cycles) for meas in MEASURES for R in sorted(r_values)
             for r1, r2 in sorted(set_sizes)]
    assert emit_tables(cells, "eff_table", "csv") == per_value_csv(cells, EfficiencyCell)



# text that csv.writer quotes (comma, quote, line feed), or that the writer's
# plain join must not take on trust (carriage return), mixed with other text
field_text = st.text(st.one_of(st.sampled_from(',"\r\n a0.-'), st.characters()), max_size=5)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(field_text, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=5))


@settings(deadline=None)
@hypothesis.example(table=(["a"], [[""]]))  # csv.writer writes "" for the empty field
@hypothesis.example(table=(["a", "b"], [["", ""], ["x,y", 'say "hi"'], ["\r", "\n"]]))
@given(tables())
def test_write_csv_equals_csv_writer(table):
    header, rows = table
    lines = [",".join(row) + "\n" for row in rows]
    assert _write_csv(header, lines, rows) == csv_writer_text(header, rows)


@settings(deadline=None)
@given(study_rows(floats, ints, names=field_text))
def test_rows_csv_quotes_names_like_csv_writer(rows):
    # a library StudyRow may hold any text; emission quotes it as csv.writer does
    assert emit_rows_csv(rows) == csv_writer_text(*value_rows(rows, StudyRow))


# values whose sixth significant digit rounds (half-way cases included)
ROUNDING = [999999.5, 9999995.0, 9.999995, 1.0000005, 0.1234565, 123456.5, 2.5e-7,
            1.5e-300, 1e16, 1e-5, 0.0001, 123456789.0, 4.9999995e-310]
FORMAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                float("inf"), float("-inf"), float("nan"), *ROUNDING, *(-x for x in ROUNDING)]


@pytest.mark.parametrize("x", FORMAT_EDGES, ids=repr)
def test_percent_template_formats_like_format(x):
    assert "%.6g" % x == format(x, ".6g")
    assert "%.6g" % np.float64(x) == format(np.float64(x), ".6g")


@settings(deadline=None)
@given(st.floats() | st.floats(width=32) | st.integers(-10**20, 10**20))
def test_percent_template_formats_like_format_anywhere(x):
    assert "%.6g" % x == format(x, ".6g")


def test_write_csv_refuses_to_guess_unquoted_fields():
    # tables of numbers and fixed names pass no field texts; a line whose
    # commas do not match its header would be ambiguous, so it is an error
    with pytest.raises(ValueError, match="needs quoting"):
        _write_csv(["a", "b"], ["x,y,z\n"])
