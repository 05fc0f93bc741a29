"""Property tests of the package's text schemas.  Study CSV: column
emission equals formatting each value on its own, emission refuses exactly
the rows parsing refuses and parsing inverts it, and the one writer, of
columns, writes what ``csv.writer`` writes of their rows or refuses a field
that needs quoting.  Report JSON: the one writer writes what
``json.dumps(indent=2)`` writes."""

import csv
import functools
import io
import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from ovlomax import (STUDY_CSV_COLUMNS, ConfigError, EfficiencyCell, StudyRow, emit_rows_csv,
                     emit_tables, parse_rows_csv)
from ovlomax.estimators import METHODS, SOURCES, ConfidenceInterval
from ovlomax.overlap import MEASURES
from ovlomax.reports import EstimateReport, MeasureReport, _json_into, _json_text
from ovlomax.study import _write_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
               -1e300, 999999.5, 9.999995, 0.1, float("inf"), float("-inf"), float("nan")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats().map(np.float64))
# seeds of every integer type, inside the row rule's [0, 2**64)
ints = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1).map(np.uint64),
                 st.integers(0, 2**63 - 1).map(np.int64))
sixg = st.one_of(st.sampled_from(EDGE_FLOATS[:-1]),
                 st.floats(allow_nan=False)).map(lambda x: float(f"{x:.6g}"))
# values inside the study CSV's row rule: R positive and finite, design counts >= 1
positive = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if 0.0 < x < math.inf]),
                     st.floats(5e-324, 1.7976931348623157e308))
counts = st.one_of(st.integers(1, 2**64 - 1), st.integers(1, 2**64 - 1).map(np.uint64),
                   st.integers(1, 2**63 - 1).map(np.int64))


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


def study_rows(number, integer, ratio, size, names=st.sampled_from, min_size=0):
    """Lists of rows: ``ratio`` draws ``R``, ``size`` the four design counts,
    and ``names(known)`` each name field, ``number`` and ``integer`` the rest."""
    return st.lists(st.builds(
        StudyRow, method=names(METHODS), measure=names(MEASURES),
        R=ratio, r1=size, r2=size, m=size, reps=size, abs_bias=number,
        signed_bias=number, mse=number, coverage=number, ci_length=number,
        efficiency=st.one_of(st.none(), number), formula_source=names(SOURCES),
        seed=integer), min_size=min_size, max_size=8)


# rows that a saved study CSV may hold, values at six significant digits
saved_rows = functools.partial(
    study_rows, sixg, st.integers(0, 2**64 - 1),
    positive.map(lambda x: float(f"{x:.6g}")), st.integers(1, 2**64 - 1))


@settings(deadline=None)
@given(study_rows(floats, ints, st.one_of(positive, positive.map(np.float64)), counts))
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
        parse_rows_csv(per_value_csv(rows, StudyRow))


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



# text that csv.writer quotes (comma, quote, line feed) or that would split a
# line (carriage return), mixed with other text
field_text = st.text(st.one_of(st.sampled_from(',"\r\n a0.-'), st.characters()), max_size=5)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(field_text, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=5))


@settings(deadline=None)
@hypothesis.example(table=(["a"], [[""]]))  # csv.writer writes "" for the empty field
@hypothesis.example(table=(["a", "b"], [["", ""], ["x,y", 'say "hi"'], ["\r", "\n"]]))
@hypothesis.example(table=(["a", "b"], [["", "1.5"], ["x", "-"]]))
@given(tables())
def test_write_csv_equals_csv_writer(table):
    # the writer quotes nothing: it writes the join where csv.writer would quote
    # nothing and no bare carriage return splits a line, and refuses the rest
    header, rows = table
    columns = [[row[k] for row in rows] for k in range(len(header))]
    plain = "".join(",".join(row) + "\n" for row in [header, *rows])
    if len(header) > 1 and "\r" not in plain and plain == csv_writer_text(header, rows):
        assert _write_csv(header, columns) == plain
    else:
        with pytest.raises(ValueError, match="needs quoting"):
            _write_csv(header, columns)


def parse_refusal(row) -> str | None:
    """What :func:`parse_rows_csv` says of ``row`` alone, after naming its line,
    every field quoted so that any text reads back as it is; None if it
    reads the row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
        value_rows([row], StudyRow)[1])
    try:
        parse_rows_csv(",".join(STUDY_CSV_COLUMNS) + "\n" + buf.getvalue())
    except ConfigError as exc:
        return str(exc).partition(": ")[2]
    return None


def known_or_not(known):
    return st.one_of(st.sampled_from(known), st.sampled_from(["a,b", 'x"y', "srs ", "derivd", ""]),
                     field_text)


# one field of a valid row set outside the row rule: names that need quoting,
# a negative and a NaN ratio, no replications, a seed on either side of [0, 2**64)
OFF_DOMAIN = [("method", "a,b"), ("R", -0.5), ("R", math.nan), ("reps", 0),
              ("formula_source", 'x"y'), ("seed", -1), ("seed", 2**64)]
VALID_ROW = StudyRow("rss", "rho", 0.5, 2, 3, 8, 100, 0.01, -0.01, 0.002, 0.95, 0.1, 1.25,
                     "derived", 12345)


@settings(deadline=None)
@hypothesis.example(rows=[VALID_ROW, VALID_ROW])
@given(st.one_of(saved_rows(), study_rows(
    sixg, st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, -2**63, 2**64, 2**70])),
    st.one_of(positive.map(lambda x: float(f"{x:.6g}")),
              st.sampled_from([0.0, -0.0, -0.5, -1e-300, math.inf, -math.inf, math.nan])),
    st.integers(-2, 2**64 - 1), names=known_or_not)))
def test_emit_refuses_exactly_the_rows_parse_refuses(rows):
    # half the lists lie inside the row rule, half draw every field across it
    refused = [(k, why) for k, why in enumerate(map(parse_refusal, rows)) if why is not None]
    if refused:
        k, why = refused[0]
        with pytest.raises(ConfigError) as exc:
            emit_rows_csv(rows)
        assert str(exc.value) == f"study row {k}: {why}"
    else:
        assert parse_rows_csv(emit_rows_csv(rows)) == rows


@pytest.mark.parametrize("name, value", OFF_DOMAIN)
def test_emit_refuses_a_row_parse_refuses(name, value):
    rows = [VALID_ROW, replace(VALID_ROW, **{name: value})]
    with pytest.raises(ConfigError, match=rf"^study row 1: {name} = "):
        emit_rows_csv(rows)
    assert parse_refusal(rows[1]).startswith(f"{name} = ")
    assert parse_rows_csv(emit_rows_csv(rows[:1])) == rows[:1]


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
    # the tables hold numbers and fixed names; a record whose commas do not
    # match its header would be ambiguous, so it is an error
    with pytest.raises(ValueError, match="needs quoting"):
        _write_csv(["a", "b"], [["x,y"], ["z"]])


@pytest.mark.parametrize("columns", [[["1", "2"], ["3"]], [[], ["3"]], [["1"], ["3", "4"]]])
def test_write_csv_refuses_columns_of_unequal_length(columns):
    # plain zip would stop at the shortest column and drop the rest
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
        _write_csv(["a", "b"], columns)


@pytest.mark.parametrize("columns", [[], [[]], [[], [], []], [["1"]], [["1"], ["2"], ["3"]]])
def test_write_csv_refuses_a_column_count_off_the_header(columns):
    with pytest.raises(ValueError, match="needs quoting"):
        _write_csv(["a", "b"], columns)


def test_write_csv_of_no_records_is_the_header_alone():
    assert _write_csv(["a", "b"], [[], []]) == "a,b\n"
    assert _write_csv(("a", "b", "c"), ((), (), ())) == "a,b,c\n"


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
    assert text == json.dumps(asdict(report), indent=2) + "\n"
    if not allow_nan:
        assert EstimateReport.from_json(text) == report


# JSON documents of dicts, lists and tuples, whose leaves may be reports
json_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), report_text,
              estimate_reports(allow_nan=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(report_text, inner, max_size=3)),
    max_leaves=10)


@settings(deadline=None)
@hypothesis.example({})
@hypothesis.example({"a": [], "b": {}, "c": [{}], "d": ((),)})
@hypothesis.example({"datasets": {"x": {"n": 2, "values": [0.5, 1e300]}}, "reports": []})
@given(json_documents)
def test_json_writer_of_dicts_and_lists_equals_json_dumps(doc):
    # a report inside a document is written as json.dumps writes its asdict
    want = json.dumps(doc, indent=2, default=asdict)
    pieces = []
    _json_into(pieces, doc)
    assert "".join(pieces) == want
    assert _json_text(doc) == want + "\n"
