"""The study engine's contract, through ``run_study``, ``StudyConfig``, the
two CSV texts, ``figure_csv`` and ``metadata`` alone, so that it holds
whatever the seed layout.  The last test's oracle is the exact law: the raw
srs ratio at R is R times an F(2 n1, 2 n2) variate, and the derived bayes
correction maps the bayes ratio onto the corrected srs ratio."""

import csv
import io
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from conftest import recorded_pools

from ovlomax import (METHODS, SOURCES, DegenerateDesignError, RssDesign, SrsDesign, StudyConfig,
                     assess, overlap_value, run_study)
from ovlomax._seeds import derive_seeds


def cells(cfg):
    """``(R, r1, r2, m, method)`` of each study cell, in the order of its index."""
    return [(R, r1, r2, m, method) for R in cfg.r_values for r1, r2 in cfg.set_sizes
            for m in cfg.cycles for method in METHODS]


def refusal(cfg, r1, r2, m, method):
    """The estimators' reason to refuse a cell's designs, or None."""
    designs = ((RssDesign(r1, m), RssDesign(r2, m)) if method == "rss"
               else (SrsDesign(r1 * m), SrsDesign(r2 * m)))
    try:
        assess([0.5], method, *designs, cfg.formula_source)
    except DegenerateDesignError as exc:
        return str(exc)
    return None


def records(text):
    return list(csv.DictReader(io.StringIO(text)))


def row_keys(text):
    return [(r["method"], r["R"], int(r["r1"]), int(r["r2"]), int(r["m"]), int(r["seed"]))
            for r in records(text)]


def expected_rows(cfg):
    """The ``row_keys`` a study owes: a row per measure of each cell the
    estimators accept, in cell order, seeded by the cell's index."""
    return [(method, "%.6g" % R, r1, r2, m, int(derive_seeds(cfg.master_seed, 0, idx)[0]))
            for idx, (R, r1, r2, m, method) in enumerate(cells(cfg))
            if refusal(cfg, r1, r2, m, method) is None for _measure in range(3)]


@settings(max_examples=6, deadline=None)
@given(r_values=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3,
                         unique_by=lambda r: f"{r:.6g}"),
       set_sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          min_size=1, max_size=2, unique=True),
       m=st.integers(1, 3), replications=st.integers(1, 4),
       master_seed=st.integers(0, 2**64 - 1), source=st.sampled_from(SOURCES))
# srs and bayes refused at (2, 1), bayes at n1 = 1 too; sets of 5 ranked by a network, of 6 sorted
@example(r_values=[0.25, 0.8], set_sizes=[(2, 1), (1, 3)], m=1, replications=5, master_seed=9,
         source="as-published")
@example(r_values=[0.3, 1.4], set_sizes=[(5, 6)], m=2, replications=5, master_seed=12,
         source="derived")
def test_same_bytes_at_one_and_two_workers_and_on_a_rerun(r_values, set_sizes, m, replications,
                                                          master_seed, source):
    cfg = StudyConfig(r_values=r_values, set_sizes=set_sizes, cycles=(m,),
                      replications=replications, master_seed=master_seed, formula_source=source)
    one = run_study(cfg, workers=1, figures=True)
    with recorded_pools(1) as pools:  # a slab per design group
        two = run_study(cfg, workers=2, figures=True)
    again = run_study(cfg, workers=1, figures=True)
    # the groups that run: three methods at each set size of the study grid and
    # at the first of the figure grid, less the refused ones; two or more share a pool
    refused = {(s["r1"], s["r2"], s["method"]) for s in one.metadata["skipped_cells"]}
    groups = 3 * len(set_sizes) + 3 - len(refused) - sum(d[:2] == set_sizes[0] for d in refused)
    assert pools == ([2] if groups > 1 else [])
    for run in (two, again):
        assert (run.csv, run.csv_corrected) == (one.csv, one.csv_corrected)
        assert (run.figure_csv, run.metadata) == (one.figure_csv, one.metadata)


@pytest.mark.parametrize("source", SOURCES)
def test_refused_design_groups_are_reported_and_have_no_rows(source):
    # n of 1 to 6 in each population meets every refusal: n2 < 3, and n1 = 1 as-published
    sizes = [(r1, r2) for r1 in (1, 2, 3) for r2 in (1, 2, 3)]
    cfg = StudyConfig(r_values=(0.25, 0.8), set_sizes=sizes, cycles=(1, 2), replications=2,
                      master_seed=5, formula_source=source)
    res = run_study(cfg, figures=True)
    reasons = [(cell, refusal(cfg, *cell[1:])) for cell in cells(cfg)]
    assert res.metadata["skipped_cells"] == res.skipped == [
        dict(zip(("R", "r1", "r2", "m", "method"), cell), reason=why)
        for cell, why in reasons if why]
    assert {why.split(":")[0] for _cell, why in reasons if why} == (
        {"n2 = 1 < 3", "n2 = 2 < 3"} | ({"n1 = 1"} if source == "as-published" else set()))
    assert row_keys(res.csv) == row_keys(res.csv_corrected) == expected_rows(cfg)
    # the figure grid's design, (1, 1) at m = 1, runs rss alone
    assert {r["method"] for r in records(res.figure_csv)} == {"rss"}


@pytest.mark.parametrize("figures", [False, True])
@pytest.mark.parametrize("changes", [
    dict(r_values=(0.1, 0.5, 0.9, 1.0, 1.7), set_sizes=((2, 2), (4, 3)),
         formula_source="as-published"),
    dict(r_values=(0.25, 0.8), set_sizes=((2, 1), (2, 2))),  # refused cells keep their indices
])
def test_each_row_is_seeded_by_its_cell_index(changes, figures):
    cfg = StudyConfig(cycles=(2, 3), replications=3, master_seed=2**40 + 1, **changes)
    res = run_study(cfg, figures=figures)  # the figure grid draws from namespace 1
    assert row_keys(res.csv) == row_keys(res.csv_corrected) == expected_rows(cfg)


def test_the_figure_curves_draw_apart_from_the_study():
    # the same design and ratios, from seed namespace 1 in place of 0
    cfg = StudyConfig(r_values=(0.25, 0.5), set_sizes=((2, 2),), cycles=(2,), replications=5,
                      master_seed=11, figure_r_grid=(0.25, 0.5))
    res = run_study(cfg, figures=True)
    study = {(r["method"], r["measure"], r["R"]): r["signed_bias"] for r in records(res.csv)}
    curves = {(r["method"], r["measure"], r["R"]): r["bias"] for r in records(res.figure_csv)}
    assert curves.keys() == study.keys() and curves != study


def f_law(n1, n2, nodes=4001):
    """Trapezoid nodes and weights of F(2 n1, 2 n2), uniform in log F over
    [F^-1(1e-13), F^-1(1 - 1e-13)]."""
    law = stats.f(2 * n1, 2 * n2)
    y = np.linspace(np.log(law.ppf(1e-13)), np.log(law.isf(1e-13)), nodes)
    weights = law.pdf(np.exp(y)) * np.exp(y) * (y[1] - y[0])
    weights[[0, -1]] /= 2.0
    return np.exp(y), weights


def per_replication(a, truth):
    """Each aggregate's value in a replication, by (CSV, column), from the
    assessment ``a`` of its corrected ratio, shaped like ``truth``."""
    point, lo, hi, lo_c, hi_c = (v.reshape(truth.shape) for v in (
        a.point, a.lo, a.hi, a.lo_corrected, a.hi_corrected))
    err = point - truth
    return {("plain", "signed_bias"): err, ("plain", "mse"): err**2,
            ("plain", "coverage"): (lo <= truth) & (truth <= hi), ("plain", "ci_length"): hi - lo,
            ("corrected", "coverage"): (lo_c <= truth) & (truth <= hi_c),
            ("corrected", "ci_length"): hi_c - lo_c}


def test_paper_m8_srs_and_bayes_aggregates_follow_the_exact_f_law():
    cfg = StudyConfig.from_json(
        files("ovlomax.data").joinpath("configs/paper_m8.json").read_text(encoding="utf-8"))
    res = run_study(cfg)
    observed = {(kind, r["method"], r["measure"], r["R"], r["r1"], r["r2"]): r
                for kind, text in (("plain", res.csv), ("corrected", res.csv_corrected))
                for r in records(text)}
    (m,), r_values, z = cfg.cycles, np.array(cfg.r_values), {}
    for r1, r2 in cfg.set_sizes:
        n1, n2 = r1 * m, r2 * m
        x, weights = f_law(n1, n2)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        ratios = np.multiply.outer(r_values, x * (n2 - 1) / n2)  # corrected, (R, node)
        for method in ("srs", "bayes"):
            block = assess(ratios.ravel(), method, SrsDesign(n1), SrsDesign(n2),
                           cfg.formula_source, 1.0 - cfg.level_alpha0)
            for measure, a in block.items():
                truth = np.broadcast_to(overlap_value(measure, r_values)[:, None], ratios.shape)
                for (kind, column), g in per_replication(a, truth).items():
                    mean = g @ weights
                    sd = np.sqrt(g**2 @ weights - mean**2)
                    for R, mu, sigma in zip(cfg.r_values, mean, sd):
                        got = observed[kind, method, measure, "%.6g" % R, str(r1), str(r2)]
                        z[kind, column, method, measure, R, r1, r2] = (
                            (float(got[column]) - mu) / (sigma / np.sqrt(cfg.replications)))
    values = np.array(list(z.values()))
    worst = max(z, key=lambda k: abs(z[k]))
    assert values.size == 2880 and np.abs(values).max() <= 4.5, (worst, z[worst])
    assert abs(values.mean()) <= 0.1 and 0.9 <= values.std() <= 1.1, (values.mean(), values.std())
