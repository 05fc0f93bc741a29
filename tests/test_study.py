"""Study configuration, simulation grid, table emission, discrepancy report."""

import csv
import io
import json
import math
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from importlib.resources import files

import numpy as np
import pytest

from ovlomax import (
    ConfigError,
    DegenerateDesignError,
    DomainError,
    EfficiencyCell,
    MissingCellError,
    RssDesign,
    SrsDesign,
    StudyConfig,
    StudyRow,
    discrepancy_report,
    efficiency_grid,
    emit_rows_csv,
    emit_tables,
    parse_rows_csv,
    run_study,
)
from ovlomax import _seeds, study
from ovlomax.estimators import SOURCES, _assess_designs
from ovlomax.overlap import MEASURES
from ovlomax.study import (
    DEFAULT_FIGURE_R_GRID,
    DEFAULT_R_VALUES,
    DEFAULT_SET_SIZES,
    STUDY_CSV_COLUMNS,
)

SMOKE = files("ovlomax.data").joinpath("configs/smoke.json")
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max


def annotated_cells(cfg, res):
    """Analytic efficiency over the config grid with the study's simulated
    values, as ``simulate --out-dir`` writes efficiency.csv."""
    return efficiency_grid(cfg.r_values, cfg.set_sizes, cfg.cycles, cfg.formula_source,
                           empirical=res.efficiency)


def tiny_config(**over):
    base = dict(
        r_values=(0.5,),
        set_sizes=((2, 2),),
        cycles=(2,),
        replications=5,
        master_seed=11,
    )
    base.update(over)
    return StudyConfig(**base)



class TestStudyConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"r_values": 0.5}, "r_values must be a sequence of numbers"),
        ({"cycles": 8}, "cycles must be a sequence of integers"),
    ])
    def test_scalar_in_place_of_a_sequence(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            StudyConfig(**kwargs)
        assert type(exc.value) is ConfigError
        assert str(exc.value) == message

    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.r_values == DEFAULT_R_VALUES
        assert cfg.set_sizes == DEFAULT_SET_SIZES
        assert cfg.cycles == (8,)
        assert cfg.replications == 1000
        assert cfg.formula_source == "derived"

    def test_sequences_coerced_to_tuples(self):
        cfg = StudyConfig(r_values=[0.5], set_sizes=[[2, 3]], cycles=[4])
        assert cfg.r_values == (0.5,)
        assert cfg.set_sizes == ((2, 3),)
        assert cfg.cycles == (4,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_values": ()},
            {"r_values": (0.5, -1.0)},
            {"r_values": (0.5, math.inf)},
            {"r_values": "abc"},
            {"set_sizes": ()},
            {"set_sizes": ((0, 2),)},
            {"set_sizes": ((2,),)},
            {"cycles": ()},
            {"cycles": (0,)},
            {"replications": 0},
            {"replications": 2.5},
            {"r_values": (0.5, 1e308)},
            {"figure_r_grid": (1e-300, 0.5)},
            {"level_alpha0": 0.0},
            {"level_alpha0": 1.0},
            {"master_seed": -1},
            {"master_seed": 1.5},
            {"formula_source": "exact"},
            {"figure_r_grid": ()},
            {"figure_r_grid": (0.5, 0.0)},
            {"replications": True},
            {"master_seed": True},
            {"master_seed": False},
            {"replications": np.int64(0)},
            {"replications": np.bool_(True)},
            {"master_seed": np.int64(-1)},
            {"master_seed": 2**64},
            {"master_seed": 2**70},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StudyConfig(**kwargs)

    def test_frozen_and_checked_once_when_made(self):
        # a config cannot be changed after its check, so it has no second check
        cfg = tiny_config()
        with pytest.raises(FrozenInstanceError):
            cfg.replications = 0
        assert cfg.replications == 5 and not hasattr(StudyConfig, "validate")

    @pytest.mark.parametrize("kwargs", [{"replications": 0}, {"master_seed": 2**64},
                                        {"r_values": (0.5, 0.5)}])
    def test_replace_checks_the_config_it_makes(self, kwargs):
        with pytest.raises(ConfigError):
            replace(tiny_config(), **kwargs)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"cycles": [true]}', "cycles"),
            ('{"cycles": [8.0]}', "cycles"),
            ('{"set_sizes": [[2.7, 3]]}', "set_sizes"),
            ('{"set_sizes": [[2, false]]}', "set_sizes"),
            ('{"r_values": [true]}', "r_values"),
            ('{"r_values": ["0.5"]}', "r_values"),
            ('{"figure_r_grid": [0.5, true]}', "figure_r_grid"),
            # alpha2 is no longer a field: a config that still sets it is
            # refused by name, whatever its value
            ('{"alpha2": true}', "alpha2"),
            ('{"alpha2": "2"}', "alpha2"),
            ('{"alpha2": null}', "alpha2"),
            ('{"level_alpha0": "0.1"}', "level_alpha0"),
        ],
    )
    def test_no_silent_coercion(self, text, field):
        with pytest.raises(ConfigError, match=field):
            StudyConfig.from_json(text)

    # smoke.json draws samples of at most n = 6, so a shape of 1e302 is fine
    # there; each case makes a sample's sum of T overflow, the fourth by a
    # shape just over the largest that n = 6 allows, the last two by the
    # sample size alone at population 2's shape 1, the last past the float range
    @pytest.mark.parametrize("changes, size, shape", [
        ({"r_values": [0.5, 1e308]}, "up to 6", "1e+308"),
        ({"figure_r_grid": [0.25, 1e306]}, "up to 6", "1e+306"),
        ({"r_values": [0.5, 1e302], "cycles": [1000]}, "up to 3000", "1e+302"),
        ({"r_values": [0.5, sys.float_info.max / (6 * -math.log(TINY)) * 1.001]},
         "up to 6", f"{sys.float_info.max / (6 * -math.log(TINY)) * 1.001:.6g}"),
        ({"cycles": [10**306]}, "up to 3e+306", "1"),
        ({"set_sizes": [[10**400, 2]]}, "more than 1.8e308", "1"),
    ], ids=[f"changes{i}" for i in range(6)])
    def test_ratio_grid_whose_sums_overflow_is_refused(self, changes, size, shape):
        data = {**json.loads(SMOKE.read_text(encoding="utf-8")), **changes}
        message = (f"^a sample of {re.escape(size)} values \\(set_sizes x cycles\\) at shape "
                   f"{re.escape(shape)} \\(the largest R of r_values and figure_r_grid, or "
                   "population 2's 1\\) is too large")
        with pytest.raises(ConfigError, match=message):
            StudyConfig.from_dict(data)

    # the least T, at the smallest shape and u = 1 - 2**-53, must be a normal
    # float; the last case lies just under that bound
    @pytest.mark.parametrize("changes", [
        {"r_values": [1e-300, 0.5]},
        {"figure_r_grid": [1e-300, 0.5]},
        {"r_values": [5e-324]},
        {"r_values": [0.999 * TINY / -math.log1p(-(2.0**-53))]},
    ])
    def test_ratio_grid_whose_draws_are_subnormal_is_refused(self, changes):
        data = {**json.loads(SMOKE.read_text(encoding="utf-8")), **changes}
        message = r"^r_values or figure_r_grid reaches R = \S+, too small"
        with pytest.raises(ConfigError, match=message):
            StudyConfig.from_dict(data)

    # every output keys a cell by R at six significant digits, so 0.5000001
    # repeats 0.5; efficiency_grid checks its grids by the same rules
    @pytest.mark.parametrize("changes, message", [
        ({"r_values": [0.5, 0.8, 0.5000001]}, "r_values repeats R = 0.5 "),
        ({"figure_r_grid": [0.25, 0.5, 0.25]}, "figure_r_grid repeats R = 0.25 "),
        ({"set_sizes": [[2, 2], [3, 2], [2, 2]]}, "set_sizes repeats the pair (2, 2)"),
        ({"cycles": [8, 8]}, "cycles repeats 8"),
    ])
    def test_grid_that_repeats_a_value_is_refused(self, changes, message):
        data = {**json.loads(SMOKE.read_text(encoding="utf-8")), **changes}
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            StudyConfig.from_dict(data)
        if "figure_r_grid" not in changes:
            with pytest.raises(ConfigError, match="^" + re.escape(message)):
                efficiency_grid(**changes)

    def test_numpy_integer_counts_accepted(self):
        cfg = StudyConfig(set_sizes=[(np.int64(2), np.int32(3))], cycles=[np.int8(4)],
                          r_values=[np.float32(0.5), 1], replications=np.int64(10),
                          master_seed=np.uint32(3))
        assert cfg.set_sizes == ((2, 3),) and type(cfg.set_sizes[0][0]) is int
        assert cfg.cycles == (4,) and type(cfg.cycles[0]) is int
        assert cfg.replications == 10 and type(cfg.replications) is int
        assert cfg.master_seed == 3 and type(cfg.master_seed) is int
        assert cfg.r_values == (0.5, 1.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as exc:
            StudyConfig.from_dict({"replications": 10, "repz": 3})
        assert "repz" in str(exc.value)

    @pytest.mark.parametrize("text, key", [
        ('{"replications": 10, "replications": 20}', "replications"),
        ('{"cycles": [8], "r_values": [0.5], "cycles": [8]}', "cycles"),  # even at one value
        ('{"replications": 10, "repz": 1, "repz": 2}', "repz"),
    ])
    def test_from_json_rejects_a_repeated_key(self, text, key):
        # json.loads alone would keep the last value and run 20 replications
        with pytest.raises(ConfigError, match=f"^repeated configuration key: {key}$"):
            StudyConfig.from_json(text)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict([1, 2])

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_json("{not json")

    def test_json_round_trip(self):
        cfg = tiny_config(figure_r_grid=(0.25, 0.75))
        back = StudyConfig.from_json(cfg.to_json())
        assert back == cfg
        assert list(cfg.to_dict()) == [f.name for f in fields(StudyConfig)]

    def test_json_round_trip_without_figure_grid(self):
        cfg = tiny_config()
        back = StudyConfig.from_json(cfg.to_json())
        assert back == cfg
        assert "figure_r_grid" not in cfg.to_dict()


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["paper_m8.json", "paper_m40.json", "smoke.json"])
    def test_loads(self, name):
        from importlib.resources import files

        text = files("ovlomax.data").joinpath(f"configs/{name}").read_text(encoding="utf-8")
        cfg = StudyConfig.from_json(text)
        assert cfg.replications >= 1

    def test_reference_grids(self):
        from importlib.resources import files

        cfgs = {
            name: StudyConfig.from_json(
                files("ovlomax.data").joinpath(f"configs/{name}.json").read_text(encoding="utf-8")
            )
            for name in ("paper_m8", "paper_m40")
        }
        assert cfgs["paper_m8"].cycles == (8,)
        assert cfgs["paper_m40"].cycles == (40,)
        for cfg in cfgs.values():
            assert cfg.r_values == DEFAULT_R_VALUES
            assert cfg.set_sizes == DEFAULT_SET_SIZES
            assert cfg.replications == 1000


def reference_rows(cfg, namespace=0):
    """The rows of a study built one (cell, measure) at a time from the cell
    aggregates, rounding each value as it is stored."""

    def round6(x):
        return float(f"{float(x):.6g}")

    cells = study._enumerate_cells(cfg)
    aggs, skipped = study._cell_outcomes(cfg, {namespace: cells})[namespace]
    outcomes = {idx: {meas: dict(zip(study._AGGREGATES, aggs[idx, k].tolist()))
                      for k, meas in enumerate(MEASURES)}
                for idx in range(len(cells)) if idx not in skipped}
    mse_srs = {(*cell[:4], meas): outcomes[idx][meas]["mse"]
               for idx, cell in enumerate(cells)
               if cell[4] == "srs" and idx in outcomes for meas in MEASURES}
    rows, rows_corrected = [], []
    for idx, (R, r1, r2, m, method) in enumerate(cells):
        if idx in skipped:
            continue
        for meas in MEASURES:
            agg = outcomes[idx][meas]
            efficiency = None
            base = mse_srs.get((R, r1, r2, m, meas))
            # an efficiency only between two normal MSEs
            if method == "rss" and base is not None and all(
                    TINY <= v <= HUGE for v in (base, agg["mse"])):
                efficiency = round6(base / agg["mse"])
            common = dict(method=method, measure=meas, R=round6(R), r1=r1, r2=r2, m=m,
                          reps=cfg.replications, abs_bias=round6(abs(agg["signed_bias"])),
                          signed_bias=round6(agg["signed_bias"]), mse=round6(agg["mse"]),
                          efficiency=efficiency, formula_source=cfg.formula_source,
                          seed=int(_seeds.derive_seeds(cfg.master_seed, namespace, idx)[0]))
            rows.append(StudyRow(coverage=round6(agg["coverage"]),
                                 ci_length=round6(agg["ci_length"]), **common))
            rows_corrected.append(StudyRow(coverage=round6(agg["coverage_corrected"]),
                                           ci_length=round6(agg["ci_length_corrected"]),
                                           **common))
    return rows, rows_corrected


# small grids for the row-pass and figure references: one plain cell; an
# srs/bayes group skipped for n2 < 3 first; irrational ratios; n1 = 1,
# where the as-published bayes cell is skipped
REFERENCE_CONFIGS = {
    "plain": dict(),
    "skipped_first": dict(r_values=(0.25, 0.8), set_sizes=((2, 1), (3, 2)), cycles=(2,),
                          figure_r_grid=(0.3, 0.6)),
    "irrational_R": dict(r_values=(1 / 3, 0.5, 2 / 3, 2.0), set_sizes=((3, 2), (2, 2)),
                         cycles=(2, 3), formula_source="as-published", figure_r_grid=(1 / 3,)),
    "bayes_n1": dict(r_values=(0.5, 0.2), set_sizes=((1, 3), (2, 2)), cycles=(1, 2)),
}


class TestRunStudy:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_rows_equal_per_row_reference(self, name):
        # the CSV texts are the reference rows as emit_rows_csv writes them,
        # under either source, and the rows parse back
        for source in SOURCES:
            cfg = tiny_config(**{**REFERENCE_CONFIGS[name], "formula_source": source})
            rows, rows_corrected = reference_rows(cfg)
            res = run_study(cfg)
            assert res.csv == emit_rows_csv(rows)
            assert res.csv_corrected == emit_rows_csv(rows_corrected)
            assert (res.rows, parse_rows_csv(res.csv_corrected)) == (rows, rows_corrected)
            assert any(row.efficiency is not None for row in res.rows)

    def test_reference_configs_cover_skips_signs_and_missing_efficiencies(self):
        seen = set()
        for over in REFERENCE_CONFIGS.values():
            for source in SOURCES:
                res = run_study(tiny_config(**{**over, "formula_source": source}))
                seen |= {s["reason"].split(":")[0] for s in res.skipped}
                seen |= {"negative bias" for r in res.rows if r.signed_bias < 0}
                seen |= {"no efficiency" for r in res.rows
                         if r.method == "rss" and r.efficiency is None}
                seen |= {"R = 1/3" for r in res.rows if r.R == 0.333333}
        assert seen == {"n2 = 2 < 3", "n1 = 1", "negative bias", "no efficiency", "R = 1/3"}

    def test_signed_zeros_and_rounding_signs(self, monkeypatch):
        # aggregates the simulation seldom gives: a zero and a negative-zero
        # bias, biases whose sixth digit rounds up, and a zero rss mse, which
        # leaves that cell with no efficiency
        real = study._cell_outcomes

        def crafted(cfg, grids, workers=1):
            outcomes = real(cfg, grids, workers)
            aggs = outcomes[0][0]
            aggs[0, :, 0] = [0.0, -0.0, -4.9999996e-7]
            aggs[1, :, 0] = [-1e-300, -123456.75, 9.9999996]
            aggs[1, 0, 1] = 0.0
            return outcomes

        monkeypatch.setattr(study, "_cell_outcomes", crafted)
        cfg = tiny_config()
        res = run_study(cfg)
        rows, rows_corrected = reference_rows(cfg)
        assert res.csv == emit_rows_csv(rows)
        assert res.csv_corrected == emit_rows_csv(rows_corrected)
        first = list(csv.DictReader(io.StringIO(res.csv)))[:6]
        assert [(r["signed_bias"], r["abs_bias"]) for r in first] == [
            ("0", "0"), ("-0", "0"), ("-5e-07", "5e-07"),
            ("-1e-300", "1e-300"), ("-123457", "123457"), ("10", "10")]
        assert first[3]["method"] == "rss" and first[3]["efficiency"] == ""
        assert first[4]["efficiency"] != ""

    def test_row_counts_and_fields(self):
        cfg = tiny_config()
        res = run_study(cfg)
        # one grid cell, three methods, three measures
        assert len(res.rows) == 9
        assert len(parse_rows_csv(res.csv_corrected)) == 9
        assert res.skipped == []
        for row in res.rows:
            assert row.reps == 5
            assert row.formula_source == "derived"
            assert row.abs_bias == abs(row.signed_bias)
            assert row.mse >= 0.0
            assert 0.0 <= row.coverage <= 1.0
            assert row.coverage * cfg.replications == pytest.approx(
                round(row.coverage * cfg.replications), abs=1e-9
            )
            assert row.ci_length >= 0.0

    def test_single_replication_mse_is_squared_error(self):
        res = run_study(tiny_config(replications=1))
        for row in res.rows:
            assert row.mse == pytest.approx(row.signed_bias**2, rel=1e-4)

    @pytest.mark.parametrize("source", SOURCES)
    def test_aggregate_refuses_a_non_finite_bias(self, source):
        # a corrected ratio of exactly one has no printed Weitzman bias: its NaN
        # corrected bounds must not count as interval misses
        cfg = tiny_config(formula_source=source, replications=3)
        blocks = [(np.array([[0.8, 1.0, 1.25]]), "rss", RssDesign(2, 2), RssDesign(2, 2))]
        if source == "as-published":
            with pytest.raises(DomainError, match="^bias must be finite"):
                study._aggregate(cfg, blocks, [0.5])
        else:
            assert np.isfinite(study._aggregate(cfg, blocks, [0.5])).all()

    def test_master_seed_changes_output(self):
        a = run_study(tiny_config())
        b = run_study(tiny_config(master_seed=12))
        assert a.rows != b.rows

    def test_corrected_rows_differ_only_in_interval_columns(self):
        res = run_study(tiny_config())
        corrected = parse_rows_csv(res.csv_corrected)
        for plain, corr in zip(res.rows, corrected):
            assert plain.method == corr.method and plain.measure == corr.measure
            assert plain.signed_bias == corr.signed_bias
            assert plain.mse == corr.mse
            assert plain.seed == corr.seed
        assert any(
            p.ci_length != c.ci_length or p.coverage != c.coverage
            for p, c in zip(res.rows, corrected)
        )

    def test_metadata(self):
        cfg = tiny_config()
        res = run_study(cfg)
        md = res.metadata
        assert md["config"] == cfg.to_dict()
        assert md["columns"] == list(STUDY_CSV_COLUMNS)
        assert md["namespace"] == 0
        assert "PCG64" in md["rng"]
        assert md["seed_layout"] == 1


class TestCsvRoundTrip:
    def test_header_line(self):
        text = emit_rows_csv([])
        assert text == ",".join(STUDY_CSV_COLUMNS) + "\n"

    def test_wrong_header_rejected(self):
        text = emit_rows_csv([])
        tampered = text.replace("mse", "msq")
        with pytest.raises(ConfigError):
            parse_rows_csv(tampered)

    def test_record_the_csv_module_refuses_names_its_line(self):
        # a bare carriage return inside an unquoted field
        text = emit_rows_csv([]) + "s\rrs,rho,0.5,2,2,2,10,0.1,0.1,0.1,0.9,0.2,,derived,1\n"
        with pytest.raises(ConfigError, match="^study CSV line 2: new-line character seen"):
            parse_rows_csv(text)


def single_cell_efficiency(measure, R, r1, r2, m, source="derived"):
    """MSE(srs)/MSE(rss) of one cell, each MSE from a one-block kernel call."""
    k = MEASURES.index(measure)
    mse = []
    for method, d1, d2 in (("srs", SrsDesign(r1 * m), SrsDesign(r2 * m)),
                           ("rss", RssDesign(r1, m), RssDesign(r2, m))):
        _point, variance, bias, *_ = _assess_designs([([R], method, d1, d2)], source, 0.95)
        mse.append(float(variance[k, 0] + bias[k, 0] * bias[k, 0]))
    return mse[0] / mse[1]


class TestAnalyticEfficiency:
    def test_the_quotient_needs_two_normal_mses(self):
        normal, other = [TINY, 1.0, HUGE], [0.0, 5e-324, 1e-310, math.inf, math.nan]
        srs, rss = np.array(normal + other + normal), np.array(normal + normal + other)
        with np.errstate(all="raise"):
            eff = study._efficiency(srs, rss)
        assert eff.tolist() == [1.0] * 3 + [None] * 8

    def test_both_tables_take_the_one_quotient(self, monkeypatch):
        callers, real = [], study._efficiency

        def recorded(srs_mse, rss_mse):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(srs_mse, rss_mse)

        monkeypatch.setattr(study, "_efficiency", recorded)
        run_study(tiny_config())
        efficiency_grid((0.5,), ((2, 2),), (2,))
        assert callers == ["run_study", "efficiency_grid"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", SOURCES)
    def test_an_mse_outside_the_normal_floats_gives_no_value(self, source):
        # the delta and lambda MSEs leave the float range at R = 1e300 (0 derived,
        # inf as-published) and are subnormal, a quotient of wrong digits, at 1e-160
        for R in (1e300, 1e-160):
            cells = efficiency_grid(r_values=[R], set_sizes=((2, 3),), cycles=(8,), source=source)
            effs = {c.measure: c.analytic_eff for c in cells}
            assert effs["delta"] is None and effs["lambda"] is None
            assert math.isfinite(effs["rho"])

    def test_frozen_reference_cell(self):
        cell = efficiency_grid(r_values=(0.1,), set_sizes=((2, 2),), cycles=(8,))[0]
        assert (cell.measure, cell.R, cell.r1, cell.r2, cell.m) == ("rho", 0.1, 2, 2, 8)
        assert cell.analytic_eff == pytest.approx(1.4863987012628372, rel=1e-12)

    def test_ranked_sets_win_at_default_cells(self):
        cells = efficiency_grid(r_values=(0.5,), set_sizes=((2, 2), (3, 3), (5, 5)), cycles=(8,))
        assert len(cells) == 3 * 3
        assert all(c.analytic_eff > 1.0 for c in cells)

    def test_degenerate_design_gap_vanishes_asymptotically(self):
        # set size one makes the two draws identical in distribution, but the
        # simple-random mse uses exact finite-sample ratio moments while the
        # ranked-set mse uses the first-order approximation, so the ratio only
        # approaches one as the sample grows
        cells = efficiency_grid(r_values=(0.5,), set_sizes=((1, 1),), cycles=(8, 80, 20000))
        eff = [c.analytic_eff for c in cells if c.measure == "rho"]
        assert eff[0] > eff[1] > eff[2] > 1.0
        assert eff[2] == pytest.approx(1.0, abs=1e-4)

    def test_grid_size(self):
        cells = efficiency_grid(r_values=(0.5,), set_sizes=((2, 2), (2, 3)), cycles=(8, 40))
        assert len(cells) == 2 * 3 * 1 * 2
        assert all(isinstance(c, EfficiencyCell) for c in cells)

    @pytest.mark.parametrize("grid, message", [
        ({"cycles": (0,)}, "^cycles must be integers >= 1$"),
        ({"set_sizes": ((0, 2),)}, "^set_sizes must hold integers >= 1$"),
        ({"r_values": (-1,)}, "^r_values must be nonempty, positive, and finite$"),
    ])
    def test_grids_are_checked_like_a_config(self, grid, message):
        with pytest.raises(ConfigError, match=message):
            efficiency_grid(**grid)

    @pytest.mark.parametrize("source", ["derived", "as-published"])
    def test_single_cell_function_equals_grid(self, source):
        cells = efficiency_grid(cycles=(8, 40), source=source)
        assert len(cells) == 2 * 3 * len(DEFAULT_R_VALUES) * len(DEFAULT_SET_SIZES)
        for c in cells:
            want = single_cell_efficiency(c.measure, c.R, c.r1, c.r2, c.m, source)
            assert want == c.analytic_eff

    @pytest.mark.parametrize("source", ["derived", "as-published"])
    def test_stacked_grid_equals_single_cells(self, source):
        # R = 1: the as-published Weitzman bias is NaN there, so the cell has no
        # efficiency; R = 1/3: rounded in the cells; r2 * m < 3: degenerate srs
        # designs inside stacked blocks
        r_values = (1.0, 1.0 / 3.0, 0.5, 2.5)
        set_sizes = ((2, 1), (1, 2), (2, 2), (3, 5), (1, 1))
        cycles = (1, 2, 8)
        cells = efficiency_grid(r_values, set_sizes, cycles, source)
        assert len(cells) == 3 * len(r_values) * len(set_sizes) * len(cycles)
        exact = {round(R, 6): R for R in r_values}
        degenerate = nan = 0
        for c in cells:
            if c.r2 * c.m < 3:
                assert c.analytic_eff is None
                with pytest.raises(DegenerateDesignError):
                    single_cell_efficiency(c.measure, exact[c.R], c.r1, c.r2, c.m, source)
                degenerate += 1
                continue
            want = single_cell_efficiency(c.measure, exact[c.R], c.r1, c.r2, c.m, source)
            if math.isnan(want):
                assert c.analytic_eff is None, c
                nan += 1
            else:
                assert c.analytic_eff == want, c
                assert c.analytic_eff > 0.0
        # all but (3, 5) at m = 1, and (2, 1), (1, 1) at m = 2
        assert degenerate == 3 * len(r_values) * 6
        # only the as-published Weitzman coefficient at R = 1, in every usable design
        assert nan == (len(set_sizes) * len(cycles) - 6 if source == "as-published" else 0)

    @pytest.mark.parametrize("source", SOURCES)
    def test_grid_over_cycles_equals_single_cycle_grids(self, source):
        # one kernel call over every cycle count, in the order given, equals
        # one grid per cycle count; refused srs designs stay None
        r_values, set_sizes = (0.1, 1.0 / 3.0, 0.8, 2.5), ((1, 1), (2, 2), (3, 5), (2, 1))
        cycles = (8, 1, 40)
        got = efficiency_grid(r_values, set_sizes, cycles, source)
        want = [c for m in cycles for c in efficiency_grid(r_values, set_sizes, (m,), source)]
        assert len(got) == len(want) == 3 * len(r_values) * len(set_sizes) * len(cycles)
        for g, w in zip(got, want):
            assert (g.measure, g.R, g.r1, g.r2, g.m) == (w.measure, w.R, w.r1, w.r2, w.m)
            assert g.analytic_eff == w.analytic_eff, g
        # at one cycle only (3, 5) leaves both srs samples with three values or more
        refused = {(c.r1, c.r2, c.m) for c in got if c.analytic_eff is None}
        assert refused == {(1, 1, 1), (2, 2, 1), (2, 1, 1)}

    def test_grid_is_one_kernel_call(self, monkeypatch):
        blocks, kernel = [], study._assess_designs

        def counted(items, *args):
            blocks.append(len(items))
            return kernel(items, *args)

        monkeypatch.setattr(study, "_assess_designs", counted)
        efficiency_grid(cycles=(8, 40))
        # both methods, both cycle counts, every set size
        assert blocks == [2 * 2 * len(DEFAULT_SET_SIZES)]

    def test_discrepancy_report_takes_one_grid(self, monkeypatch):
        calls, grid = [], study.efficiency_grid

        def counted(*args, **kwargs):
            calls.append(args)
            return grid(*args, **kwargs)

        monkeypatch.setattr(study, "efficiency_grid", counted)
        discrepancy_report()
        assert len(calls) == 1

    def test_degenerate_srs_design_has_no_analytic_eff(self):
        # one cycle: r2 = 2 leaves the srs side with n2 = 2 < 3
        cells = efficiency_grid(r_values=(0.5,), set_sizes=((2, 2), (2, 3)), cycles=(1,))
        assert [c.analytic_eff is None for c in cells] == [True, False] * 3
        assert all(c.analytic_eff > 0.0 for c in cells if c.r2 == 3)

    def test_cell_ratio_rounded_like_study_rows(self):
        third = 1.0 / 3.0
        cell = efficiency_grid(r_values=(third,), set_sizes=((2, 2),), cycles=(8,))[0]
        assert cell.R == 0.333333
        assert cell.analytic_eff == single_cell_efficiency("rho", third, 2, 2, 8)

    def test_cells_from_result_annotated(self):
        cfg = tiny_config()
        res = run_study(cfg)
        cells = annotated_cells(cfg, res)
        assert len(cells) == 3  # one grid cell, three measures
        rss_eff = {r.measure: r.efficiency for r in res.rows if r.method == "rss"}
        for c in cells:
            assert c.empirical_eff == rss_eff[c.measure]
            assert c.analytic_eff > 0.0


class TestEmitTables:
    def setup_method(self):
        self.cfg = tiny_config(r_values=(0.5, 0.8))
        self.res = run_study(self.cfg)
        self.cells = annotated_cells(self.cfg, self.res)

    def test_eff_table_text(self):
        out = emit_tables(self.cells, "eff_table", "text")
        assert "Relative efficiency" in out
        assert "m=2" in out
        assert "measure=rho" in out

    def test_eff_table_csv(self):
        out = emit_tables(self.cells, "eff_table", "csv")
        recs = list(csv.reader(io.StringIO(out)))
        assert recs[0] == ["measure", "R", "r1", "r2", "m", "analytic_eff", "empirical_eff"]
        assert len(recs) == 1 + len(self.cells)

    def test_eff_table_json(self):
        doc = json.loads(emit_tables(self.cells, "eff_table", "json"))
        assert doc["layout"] == "eff_table"
        assert len(doc["cells"]) == len(self.cells)

    def test_bias_table_text(self):
        out = emit_tables(self.res.rows, "bias_table", "text")
        assert "empirical coverage" in out
        assert "srs:|bias|" in out

    def test_bias_table_csv_round_trips(self):
        out = emit_tables(self.res.rows, "bias_table", "csv")
        assert parse_rows_csv(out) is not None

    def test_bias_table_json(self):
        doc = json.loads(emit_tables(self.res.rows, "bias_table", "json"))
        assert doc["layout"] == "bias_table"
        assert len(doc["cells"]) == len(self.res.rows)

    def test_missing_cells_named(self):
        # drop the R = 0.8 cells of one measure: each is named
        cells = [c for c in self.cells if not (c.R == 0.8 and c.measure == "lambda")]
        with pytest.raises(MissingCellError) as exc:
            emit_tables(cells, "eff_table", "text")
        assert exc.value.cells == ["measure=lambda R=0.8 r1=2 r2=2 m=2"]
        assert "missing" in str(exc.value)

    def test_bias_table_missing_cells_named(self):
        rows = [r for r in self.res.rows if not (r.R == 0.5 and r.method == "rss")]
        with pytest.raises(MissingCellError) as exc:
            emit_tables(rows, "bias_table", "text")
        assert exc.value.cells == [f"method=rss measure={meas} R=0.5 r1=2 r2=2 m=2"
                                   for meas in MEASURES]

    def test_grid_ratio_with_more_than_six_digits(self):
        third = 1.0 / 3.0
        cells = efficiency_grid([third], [(2, 2)], [2])
        eff = json.loads(emit_tables(cells, "eff_table", "json"))
        assert [c["R"] for c in eff["cells"]] == [0.333333] * 3
        rows = run_study(tiny_config(r_values=(third,))).rows
        bias = json.loads(emit_tables(rows, "bias_table", "json"))
        assert len(bias["cells"]) == len(rows) == 9
        assert "R=0.333333" in emit_tables(rows, "bias_table", "text")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_repeated_eff_cell_is_refused(self, fmt):
        # a second copy of a cell would otherwise replace the first unseen
        cells = [*self.cells, replace(self.cells[1], analytic_eff=9.0)]
        c = self.cells[1]
        cell = f"measure={c.measure} R={c.R:.6g} r1={c.r1} r2={c.r2} m={c.m}"
        with pytest.raises(ConfigError, match=f"^repeated cell: {re.escape(cell)}$"):
            emit_tables(cells, "eff_table", fmt)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_items_of_the_other_layout_are_refused(self, fmt):
        with pytest.raises(DomainError,
                           match="^layout 'eff_table' takes EfficiencyCell items, got StudyRow$"):
            emit_tables(self.res.rows, "eff_table", fmt)
        with pytest.raises(DomainError,
                           match="^layout 'bias_table' takes StudyRow items, got EfficiencyCell$"):
            emit_tables([*self.res.rows, self.cells[0]], "bias_table", fmt)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_items_from_an_iterator_render_as_a_list_does(self, fmt):
        assert emit_tables(iter(self.cells), "eff_table", fmt) == emit_tables(
            self.cells, "eff_table", fmt)
        rows = self.res.rows
        assert emit_tables(iter(rows), "bias_table", fmt) == emit_tables(rows, "bias_table", fmt)

    def test_empty_without_grid(self):
        with pytest.raises(MissingCellError, match="^no rows to tabulate$"):
            emit_tables([], "eff_table", "text")

    def test_unknown_layout_and_format(self):
        with pytest.raises(DomainError):
            emit_tables(self.cells, "pivot", "text")
        with pytest.raises(DomainError):
            emit_tables(self.cells, "eff_table", "yaml")
        # the format is checked before the items: no "no rows to tabulate"
        for layout in ("eff_table", "bias_table"):
            with pytest.raises(DomainError, match="unknown format 'yaml'"):
                emit_tables([], layout, "yaml")


class TestFigureData:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_equals_study_rows_of_the_figure_grid(self, name):
        cfg = tiny_config(**REFERENCE_CONFIGS[name])
        sub = replace(cfg, r_values=cfg.figure_r_grid or DEFAULT_FIGURE_R_GRID,
                      set_sizes=cfg.set_sizes[:1], cycles=cfg.cycles[:1], figure_r_grid=None)
        rows = reference_rows(sub, namespace=1)[0]
        want = [["method", "measure", "R", "bias", "mse"]] + [
            [r.method, r.measure, f"{r.R:.6g}", f"{r.signed_bias:.6g}", f"{r.mse:.6g}"]
            for r in rows]
        assert list(csv.reader(io.StringIO(run_study(cfg, figures=True).figure_csv))) == want
        methods = {r.method for r in rows}
        assert methods == ({"rss"} if name == "skipped_first" else {"srs", "bayes", "rss"})

class TestDiscrepancyReport:
    def test_row_count_and_schema(self):
        out = discrepancy_report()
        recs = list(csv.reader(io.StringIO(out)))
        assert recs[0] == ["table", "cell", "printed_value", "computed_value", "abs_diff"]
        # 2 cycle counts x 3 ratios x 3 measures x 16 design pairs transcribed
        eff = [r for r in recs[1:] if r[0].startswith("efficiency")]
        real = [r for r in recs[1:] if r[0] == "real_data"]
        assert len(eff) == 288
        assert len(real) == 42
        assert len(recs) == 1 + 288 + 42
        assert all(len(r) == 5 for r in recs)

    def test_deterministic(self):
        assert discrepancy_report() == discrepancy_report()

    def test_printed_values_match_fixture_spot_checks(self):
        from ovlomax.reports import _bundled_text

        fixtures = json.loads(_bundled_text("published_tables.json"))
        out = discrepancy_report()
        cells = {
            (r[0], r[1]): (r[2], r[3])
            for r in list(csv.reader(io.StringIO(out)))[1:]
        }
        printed, _ = cells[("efficiency_m8", "measure=rho:R=0.1:r1=2:r2=2")]
        assert float(printed) == fixtures["efficiency"]["8"]["0.1"]["rho"][0][0]
        printed, _ = cells[("real_data", "estimate:rho")]
        assert float(printed) == fixtures["real_data"]["estimates"]["rho"]

    def test_ranked_set_real_data_cells_are_nan(self):
        out = discrepancy_report()
        rss = [
            r for r in list(csv.reader(io.StringIO(out)))[1:]
            if r[0] == "real_data" and r[1].endswith(":rss")
        ]
        assert len(rss) == 12  # 3 measures x 4 quantities
        for r in rss:
            assert r[3] == "nan" and r[4] == "nan"

    def test_computed_efficiency_matches_analytic(self):
        out = discrepancy_report()
        rec = next(
            r for r in list(csv.reader(io.StringIO(out)))[1:]
            if r[1] == "measure=rho:R=0.1:r1=2:r2=2" and r[0] == "efficiency_m8"
        )
        assert float(rec[3]) == pytest.approx(1.48640, rel=1e-4)
