"""Property tests of the dataset parsers: any text either parses or fails
with :class:`DatasetParseError`, never with another exception, and a ranked
file naming a huge rank or cycle fails at once."""

import time

import numpy as np
import pytest

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
