"""Property tests of the study engine and its config: the design groups
partition the grid, and a valid config survives its JSON round trip."""

import json
from dataclasses import fields

import pytest

from ovlomax import StudyConfig, study
from ovlomax.estimators import SOURCES, _refusal
from ovlomax.study import DEFAULT_FIGURE_R_GRID, ConfigError

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
    figures=st.booleans(),
)
def test_design_groups_partition_the_grid(r_values, set_sizes, cycles, source, figures):
    cfg = StudyConfig(r_values=r_values, set_sizes=set_sizes, cycles=cycles,
                      formula_source=source)
    cells = study._enumerate_cells(cfg, figures)
    namespace = int(figures)
    groups, skipped = study._design_groups(cfg, cells, namespace)
    ran = [i for _ns, indices, *_ in groups for i in indices]
    assert sorted(ran + list(skipped)) == list(range(len(cells)))
    # group g is every width-th cell from g: one design, one cell per R in grid order;
    # the figure grid is its R grid at the first set sizes and cycle count
    grid = DEFAULT_FIGURE_R_GRID if figures else cfg.r_values
    width = len(cells) // len(grid)
    assert width == (3 if figures else 3 * len(set_sizes) * len(cycles))
    accepted = []
    for g, (_R, *design) in enumerate(cells[:width]):
        indices, method = list(range(g, len(cells), width)), design[-1]
        assert cells[g::width] == [(R, *design) for R in grid]
        designs = study._designs(*design)
        reason = _refusal(method, *designs, source)
        if reason is None:
            accepted.append((namespace, indices, grid, method, designs))
        else:
            assert [skipped[i] for i in indices] == [reason] * len(indices)
    assert groups == accepted


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
