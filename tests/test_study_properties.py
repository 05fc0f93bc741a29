"""Property test of the study engine: seeds and seeding words travel from
the parent process to the workers, and the result does not depend on how
many workers there are."""

import pytest

from ovlomax import StudyConfig, run_study
from ovlomax.estimators import SOURCES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=6, deadline=None)
@hypothesis.given(
    r_values=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3, unique=True),
    set_sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                       min_size=1, max_size=2, unique=True),
    m=st.integers(1, 3),
    replications=st.integers(1, 4),
    master_seed=st.integers(0, 2**64 - 1),
    source=st.sampled_from(SOURCES),
)
def test_two_workers_equal_one(r_values, set_sizes, m, replications, master_seed, source):
    cfg = StudyConfig(r_values=r_values, set_sizes=set_sizes, cycles=(m,),
                      replications=replications, master_seed=master_seed,
                      formula_source=source)
    one, two = run_study(cfg, workers=1), run_study(cfg, workers=2)
    assert one.rows == two.rows
    assert one.rows_corrected == two.rows_corrected
    assert one.skipped == two.skipped
