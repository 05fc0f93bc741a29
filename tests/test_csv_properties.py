"""Property tests of the package's text schemas.  Study CSV: template
emission equals formatting each value on its own, parsing inverts emission,
and the one writer's plain join equals what ``csv.writer`` writes.  Report
JSON: ``to_json`` writes what ``json.dumps(indent=2)`` writes."""

import csv
import functools
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from ovlomax import (ConfigError, EfficiencyCell, StudyRow, emit_rows_csv, emit_tables,
                     parse_rows_csv)
from ovlomax.estimators import METHODS, SOURCES, ConfidenceInterval
from ovlomax.overlap import MEASURES
from ovlomax.reports import EstimateReport, MeasureReport
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


def study_rows(number, integer, names=None, ratio=None, size=None, min_size=0):
    """Lists of rows; ``ratio`` and ``size`` draw ``R`` and the four design
    counts when given, and ``number`` and ``integer`` otherwise."""
    def name(known):
        return st.sampled_from(known) if names is None else names

    ratio = number if ratio is None else ratio
    size = integer if size is None else size
    return st.lists(st.builds(
        StudyRow, method=name(METHODS), measure=name(MEASURES),
        R=ratio, r1=size, r2=size, m=size, reps=size, abs_bias=number,
        signed_bias=number, mse=number, coverage=number, ci_length=number,
        efficiency=st.one_of(st.none(), number), formula_source=name(SOURCES),
        seed=integer), min_size=min_size, max_size=8)


# rows that a saved study CSV may hold: R positive and finite, design counts >= 1
saved_rows = functools.partial(
    study_rows, sixg, st.integers(0, 2**64 - 1),
    ratio=st.one_of(st.sampled_from([x for x in EDGE_FLOATS if 0.0 < x < math.inf]),
                    st.floats(5e-324, 1.7976931348623157e308)).map(lambda x: float(f"{x:.6g}")),
    size=st.integers(1, 2**64 - 1))


@settings(deadline=None)
@given(study_rows(floats, ints))
def test_rows_csv_equals_per_value_formatting(rows):
    assert emit_rows_csv(rows) == per_value_csv(rows, StudyRow)


@settings(deadline=None)
@given(saved_rows())
def test_parse_inverts_emit(rows):
    assert parse_rows_csv(emit_rows_csv(rows)) == rows


@settings(deadline=None)
@given(saved_rows(min_size=1), st.data())
def test_parse_names_the_line_of_an_out_of_domain_value(rows, data):
    k = data.draw(st.integers(0, len(rows) - 1))
    name, value = data.draw(st.one_of(
        st.tuples(st.just("R"), st.sampled_from([0.0, -0.0, -0.5, -1e-300, math.inf,
                                                 -math.inf, math.nan])),
        st.tuples(st.sampled_from(["r1", "r2", "m", "reps"]), st.integers(-2**63, 0))))
    setattr(rows[k], name, value)
    with pytest.raises(ConfigError, match=rf"^study CSV line {k + 2}: {name} = "):
        parse_rows_csv(emit_rows_csv(rows))


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


# text a report's names and warnings may hold: quotes, backslashes, control
# characters and non-ASCII, besides arbitrary text
report_text = st.one_of(st.sampled_from(['say "hi"', "C:\\temp\\", "\x00\x1f\t\n\r\x7f",
                                         "delta \u2265 0, \u00fcber \U0001f600", "\ud800", ""]),
                        st.text())


def estimate_reports(allow_nan: bool):
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             1.7976931348623157e308, float("inf"), float("-inf")] + [float("nan")] * allow_nan
    number = st.one_of(st.sampled_from(edges), st.floats(allow_nan=allow_nan),
                       st.floats(allow_nan=allow_nan).map(np.float64))
    maybe = st.one_of(st.none(), number)
    interval = st.one_of(st.none(), st.builds(
        ConfidenceInterval, lo=number, hi=number, level=number, bias_corrected=st.booleans(),
        clamped=st.booleans()))
    measure = st.builds(MeasureReport, measure=st.one_of(st.sampled_from(MEASURES), report_text),
                        point=number, variance=maybe, bias=maybe, interval=interval,
                        interval_corrected=interval)
    return st.builds(
        EstimateReport, method=report_text, formula_source=report_text, level=number,
        n1=st.integers(), n2=st.integers(), alpha1=number, alpha2=number, ratio_raw=number,
        ratio_unbiased=number, ratio_variance=maybe,
        measures=st.lists(measure, max_size=3).map(tuple),
        warnings=st.lists(report_text, max_size=3).map(tuple))


@settings(deadline=None)
@hypothesis.example((True, EstimateReport(
    "srs", "derived", 0.95, 3, 2, float("nan"), float("inf"), float("-inf"), -0.0, None,
    (MeasureReport("rho", 5e-324, None, float("nan"), None,
                   ConfidenceInterval(0.0, 1.0, 0.95, True, False)),),
    ('a "quoted" C:\\path', "\x07\u00fc\U0001f600"))))
@hypothesis.example((False, EstimateReport("", "", 0.5, 0, 0, 1.0, 1.0, 1.0, 1.0, 1.0, (), ())))
@given(st.booleans().flatmap(lambda allow_nan: st.tuples(st.just(allow_nan),
                                                          estimate_reports(allow_nan))))
def test_report_json_equals_json_dumps(case):
    allow_nan, report = case
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2) + "\n"
    if not allow_nan:
        assert EstimateReport.from_json(text) == report
