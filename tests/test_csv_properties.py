"""Property tests of the study CSV schema: column-at-a-time emission equals
formatting each value on its own, and parsing inverts emission."""

from dataclasses import fields

import numpy as np
import pytest

from ovlomax import EfficiencyCell, StudyRow, emit_rows_csv, emit_tables, parse_rows_csv
from ovlomax.estimators import METHODS, SOURCES
from ovlomax.overlap import MEASURES

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


def per_value_csv(items, kind) -> str:
    """The schema written one value at a time: strings as they are, integers
    in full, other numbers at six significant digits, None as empty."""

    def cell(v):
        if isinstance(v, str):
            return v
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{v:.6g}"

    names = [f.name for f in fields(kind)]
    lines = [names] + [[cell(getattr(item, name)) for name in names] for item in items]
    return "".join(",".join(line) + "\n" for line in lines)


def study_rows(number, integer):
    return st.lists(st.builds(
        StudyRow, method=st.sampled_from(METHODS), measure=st.sampled_from(MEASURES),
        R=number, r1=integer, r2=integer, m=integer, reps=integer, abs_bias=number,
        signed_bias=number, mse=number, coverage=number, ci_length=number,
        efficiency=st.one_of(st.none(), number), formula_source=st.sampled_from(SOURCES),
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
