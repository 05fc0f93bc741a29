"""Property tests of the study engine and its config: seeds and state words
travel from the parent process to the workers, and the result does not
depend on how many workers there are; a valid config survives its JSON round
trip."""

import json
from dataclasses import fields

import pytest

from ovlomax import StudyConfig, run_study
from ovlomax.estimators import SOURCES
from ovlomax.study import ConfigError

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
    assert one.csv_corrected == two.csv_corrected
    assert one.skipped == two.skipped


ratios = st.lists(st.floats(1e-150, 1e150), min_size=1, max_size=4)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    r_values=ratios,
    alpha2=st.floats(1e-150, 1e150),
    set_sizes=st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=1, max_size=4),
    cycles=st.lists(st.integers(1, 50), min_size=1, max_size=3),
    replications=st.integers(1, 10**6),
    level_alpha0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    master_seed=st.integers(0, 2**70),
    formula_source=st.sampled_from(SOURCES),
    figure_r_grid=st.none() | ratios,
)
def test_config_json_round_trip(**values):
    try:
        cfg = StudyConfig(**values)
    except ConfigError:  # alpha2 too large or too small for its grid
        hypothesis.reject()
    text = cfg.to_json()
    assert StudyConfig.from_json(text) == cfg
    assert list(json.loads(text)) == [f.name for f in fields(StudyConfig)
                                      if getattr(cfg, f.name) is not None]
