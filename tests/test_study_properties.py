"""Property tests of the study engine and its config: the design groups
partition the grid, seeds and state words travel from the parent process to
the workers, and the result does not depend on how many workers there are; a
valid config survives its JSON round trip."""

import json
from dataclasses import fields

import pytest

from conftest import recorded_pools

from ovlomax import StudyConfig, run_study, study
from ovlomax.estimators import SOURCES, _refusal
from ovlomax.study import ConfigError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# ratios distinct at six significant digits, the precision a config compares them at
distinct_ratios = st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3,
                           unique_by=lambda r: f"{r:.6g}")


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    r_values=distinct_ratios,
    set_sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                       min_size=1, max_size=3, unique=True),
    cycles=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
    source=st.sampled_from(SOURCES),
)
def test_design_groups_partition_the_grid(r_values, set_sizes, cycles, source):
    cfg = StudyConfig(r_values=r_values, set_sizes=set_sizes, cycles=cycles,
                      formula_source=source)
    cells = study._enumerate_cells(cfg)
    groups, skipped = study._design_groups(cfg, cells)
    ran = [i for indices, _method, _designs in groups for i in indices]
    assert sorted(ran + list(skipped)) == list(range(len(cells)))
    # group g is every width-th cell from g: one design, one cell per R in config order
    width = len(cells) // len(cfg.r_values)
    accepted = []
    for g, (_R, *design) in enumerate(cells[:width]):
        indices, method = list(range(g, len(cells), width)), design[-1]
        assert cells[g::width] == [(R, *design) for R in cfg.r_values]
        designs = study._designs(*design)
        reason = _refusal(method, *designs, source)
        if reason is None:
            accepted.append((indices, method, designs))
        else:
            assert [skipped[i] for i in indices] == [reason] * len(indices)
    assert groups == accepted


@hypothesis.settings(max_examples=6, deadline=None)
@hypothesis.given(
    r_values=distinct_ratios,
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
    one = run_study(cfg, workers=1)
    # a slab per accepted design group: two or more run over a real pool of two
    with recorded_pools(1) as pools:
        two = run_study(cfg, workers=2)
    groups = len(study._design_groups(cfg, study._enumerate_cells(cfg))[0])
    assert pools == ([2] if groups > 1 else [])
    assert one.rows == two.rows
    assert one.csv_corrected == two.csv_corrected
    assert one.skipped == two.skipped


# ratios down to 1e-300 and up to 1e306 reach both of the config's range refusals
ratios = st.lists(st.floats(1e-300, 1e306), min_size=1, max_size=4)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    r_values=ratios,
    set_sizes=st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), min_size=1, max_size=4),
    cycles=st.lists(st.integers(1, 50), min_size=1, max_size=3),
    replications=st.integers(1, 10**6),
    level_alpha0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    master_seed=st.integers(0, 2**64 - 1),
    formula_source=st.sampled_from(SOURCES),
    figure_r_grid=st.none() | ratios,
)
def test_config_json_round_trip(**values):
    try:
        cfg = StudyConfig(**values)
    except ConfigError:  # a ratio too large or too small for its grid, or a repeated value
        hypothesis.reject()
    text = cfg.to_json()
    assert StudyConfig.from_json(text) == cfg
    assert list(json.loads(text)) == [f.name for f in fields(StudyConfig)
                                      if getattr(cfg, f.name) is not None]
