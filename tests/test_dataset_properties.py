"""Property tests of the dataset parsers: any text either parses or fails
with :class:`DatasetParseError`, never with another exception, a ranked
file naming a huge rank or cycle fails at once, and the two CSV readers
skip blank and comment lines and name the physical line of a bad record."""

import string
import time

import numpy as np
import pytest

from ovlomax import ConfigError, StudyRow, emit_rows_csv, parse_rows_csv
from ovlomax.estimators import METHODS, SOURCES
from ovlomax.overlap import MEASURES
from ovlomax.reports import DatasetParseError, parse_dataset, parse_ranked_dataset
from ovlomax.sampling import RankedSample

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# tokens a data file is made of, good and bad
TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "#", "nan", "inf", "-0", "1e400", "1e-400", "0x10", "1_0",
                     '"', '"1"', "1,2", "\x00", "\r", "\u2028", "rank", "cycle", "value"]),
    st.text(max_size=4),
)
SEPARATORS = st.sampled_from([",", " ", ", ", "\t", ";", ",,"])
PLAIN_LINE = st.builds(str.join, SEPARATORS, st.lists(TOKENS, max_size=4))
# a ranked line: a slot of a small design, any three tokens, or any tokens
SMALL = st.integers(1, 3).map(str)
RANKED_LINE = st.one_of(st.tuples(SMALL, SMALL, st.floats(1e-3, 1e3).map(repr)),
                        st.tuples(TOKENS, TOKENS, TOKENS),
                        st.lists(TOKENS, max_size=4)).map(",".join)
HEADER = st.one_of(st.just("rank,cycle,value"),
                   st.sampled_from(["Rank, Cycle, Value", "rank,cycle", "rank,cycle,value,x"]))
PLAIN_TEXT = st.one_of(st.text(max_size=80), st.lists(PLAIN_LINE, max_size=6).map("\n".join))
RANKED_TEXT = st.one_of(st.text(max_size=80), st.builds(
    lambda header, lines: "\n".join([header, *lines]), HEADER, st.lists(RANKED_LINE, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(PLAIN_TEXT)
def test_plain_data_parses_or_names_the_fault(text):
    try:
        data = parse_dataset(text)
    except DatasetParseError:
        return
    assert data.n >= 1 and np.isfinite(data.values).all() and (data.values > 0).all()


@settings(max_examples=300, deadline=None)
@given(RANKED_TEXT)
def test_ranked_data_parses_or_names_the_fault(text):
    try:
        sample = parse_ranked_dataset(text)
    except DatasetParseError:
        return
    assert isinstance(sample, RankedSample)
    assert sample.values.shape == (sample.design.r, sample.design.m)
    assert np.isfinite(sample.values).all() and (sample.values > 0).all()


ROW_ONE = "rank=1 cycle=2, rank=1 cycle=3, rank=1 cycle=4, rank=1 cycle=5, rank=1 cycle=6"


@pytest.mark.parametrize("rank, cycle, shown", [
    (1000, 1000, ROW_ONE),
    (10**6, 1, ", ".join(f"rank={i} cycle=1" for i in range(3, 8))),
])
def test_huge_rank_and_cycle_fail_at_once(rank, cycle, shown):
    # completeness is a count, and only the first five holes are looked for,
    # so the cost does not grow with rank * cycle (listing every hole of these
    # million-slot grids took 0.3-0.6 s); the sizes stay small enough that a
    # parser which does list them cannot exhaust memory
    text = f"rank,cycle,value\n1,1,2.5\n{rank},{cycle},3\n2,1,4\n"
    start = time.perf_counter()
    with pytest.raises(DatasetParseError) as exc:
        parse_ranked_dataset(text)
    assert time.perf_counter() - start < 0.05
    assert str(exc.value) == (f"incomplete design ({rank} ranks x {cycle} cycles): "
                              f"missing {shown} (and {rank * cycle - 3 - 5} more)")


@pytest.mark.parametrize("text", ["", "# no header\n\n  # nor here\n"])
def test_a_ranked_file_without_a_header_fails_at_line_one(text):
    with pytest.raises(DatasetParseError) as exc:
        parse_ranked_dataset(text)
    assert str(exc.value) == "line 1: expected header 'rank,cycle,value'"


def test_an_unclosed_quote_runs_to_the_last_physical_line():
    # the open field takes in the blank and comment lines after it, so the
    # record, and its error, end on the file's last line
    with pytest.raises(DatasetParseError) as exc:
        parse_ranked_dataset('rank,cycle,value\n1,1,"x\n\n# c')
    assert str(exc.value) == "line 4: rank/cycle must be integers, value numeric (got '1,1,x')"


COMMENT = st.text(string.printable.strip(), max_size=8).map("#".__add__)
BLANK = st.sampled_from(["", " ", "\t  "])
SIXG = st.floats(-1e3, 1e3).map(lambda x: float(f"{x:.6g}"))
STUDY_ROWS = st.lists(st.builds(
    StudyRow, method=st.sampled_from(METHODS), measure=st.sampled_from(MEASURES),
    R=st.floats(1e-3, 1e3).map(lambda x: float(f"{x:.6g}")), r1=st.integers(1, 9),
    r2=st.integers(1, 9), m=st.integers(1, 9), reps=st.integers(1, 10**6), abs_bias=SIXG,
    signed_bias=SIXG, mse=SIXG, coverage=SIXG, ci_length=SIXG,
    efficiency=st.one_of(st.none(), SIXG), formula_source=st.sampled_from(SOURCES),
    seed=st.integers(0, 2**64 - 1)), min_size=1, max_size=5)


def with_filler(data, lines: list, filler) -> list:
    """``lines`` in order with up to two ``filler`` lines before each and at the end."""
    out = []
    for line in lines:
        out += [*data.draw(st.lists(filler, max_size=2)), line]
    return out + data.draw(st.lists(filler, max_size=2))


def with_bad_line(data, lines: list, bad: str) -> tuple:
    """``lines`` with ``bad`` inserted after the first, and its physical line."""
    at = data.draw(st.integers(1, len(lines)))
    return [*lines[:at], bad, *lines[at:]], at + 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_ranked_file_with_comments_and_blank_lines(r, m, data):
    slots = data.draw(st.permutations([(i, k) for i in range(1, r + 1) for k in range(1, m + 1)]))
    value = st.floats(1e-3, 1e3).map(repr)
    records = [f"{i},{k},{data.draw(value)}" for i, k in slots]
    clean = parse_ranked_dataset("\n".join(["rank,cycle,value", *records]))
    tail = st.one_of(st.just(""), st.builds(str.__add__, st.sampled_from(["", " "]), COMMENT))
    lines = with_filler(data, [line + data.draw(tail) for line in ["rank,cycle,value", *records]],
                        st.one_of(BLANK, COMMENT))
    parsed = parse_ranked_dataset("\n".join(lines))
    assert parsed.design == clean.design
    assert parsed.values.tobytes() == clean.values.tobytes()

    header = next(n for n, line in enumerate(lines) if line.startswith("rank"))
    bad = data.draw(st.sampled_from(["1,1", "1,x,2.5", "0,1,2.5", "1,1,-2.5", "1,1,2.5,3"]))
    rest, lineno = with_bad_line(data, lines[header:], bad)
    with pytest.raises(DatasetParseError) as exc:
        parse_ranked_dataset("\n".join([*lines[:header], *rest]))
    assert exc.value.lineno == header + lineno


@settings(max_examples=150, deadline=None)
@given(STUDY_ROWS, st.data())
def test_study_csv_with_blank_lines(rows, data):
    text = emit_rows_csv(rows)
    lines = with_filler(data, text.splitlines(), st.just(""))
    assert parse_rows_csv("\n".join(lines) + "\n") == rows

    header_line, first = text.splitlines()[:2]
    header = lines.index(header_line)
    bad = data.draw(st.sampled_from([first.rsplit(",", 1)[0], "nope," + first.split(",", 1)[1]]))
    rest, lineno = with_bad_line(data, lines[header:], bad)
    with pytest.raises(ConfigError, match=f"^study CSV line {header + lineno}: "):
        parse_rows_csv("\n".join([*lines[:header], *rest]) + "\n")
