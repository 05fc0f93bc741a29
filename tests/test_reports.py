"""Dataset parsing and the estimate-report layer."""

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from ovlomax import estimators, reports
from ovlomax import (
    ConfidenceInterval,
    Dataset,
    DatasetParseError,
    DomainError,
    EstimateReport,
    InverseLomax,
    MeasureReport,
    RankedSample,
    RssDesign,
    SrsDesign,
    build_estimate_report,
    bundled_counts,
    confidence_interval,
    draw_rss,
    parse_dataset,
    parse_ranked_dataset,
)


class TestParseDataset:
    def test_whitespace_separated(self):
        d = parse_dataset("487 18 100")
        assert isinstance(d, Dataset)
        np.testing.assert_array_equal(d.values, [487.0, 18.0, 100.0])
        assert d.n == 3

    def test_commas_comments_blank_lines(self):
        d = parse_dataset("1,2\n# note\n\n3")
        np.testing.assert_array_equal(d.values, [1.0, 2.0, 3.0])

    def test_label_carried(self):
        assert parse_dataset("5", label="lab").label == "lab"

    def test_inline_comment(self):
        d = parse_dataset("4 5 # trailing words\n6")
        np.testing.assert_array_equal(d.values, [4.0, 5.0, 6.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DatasetParseError) as exc:
            parse_dataset("3 -1 7")
        assert "-1" in str(exc.value)

    def test_zero_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_dataset("0")

    def test_non_numeric_rejected(self):
        with pytest.raises(DatasetParseError) as exc:
            parse_dataset("1 two 3")
        assert "two" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_dataset("   \n# only a comment\n")

    def test_lineno_reported(self):
        with pytest.raises(DatasetParseError) as exc:
            parse_dataset("1 2\n3 bad")
        assert exc.value.lineno == 2


class TestParseRankedDataset:
    def _text(self, values):
        lines = ["rank,cycle,value"]
        r, m = values.shape
        for i in range(r):
            for j in range(m):
                lines.append(f"{i + 1},{j + 1},{values[i, j]}")
        return "\n".join(lines)

    def test_valid_round_trip(self):
        vals = np.arange(1.0, 7.0).reshape(2, 3)
        s = parse_ranked_dataset(self._text(vals))
        assert isinstance(s, RankedSample)
        assert s.design == RssDesign(r=2, m=3)
        np.testing.assert_array_equal(s.values, vals)

    def test_rows_in_any_order(self):
        text = "rank,cycle,value\n2,1,9\n1,1,4"
        s = parse_ranked_dataset(text)
        assert s.design == RssDesign(r=2, m=1)
        assert s.values[0, 0] == 4.0
        assert s.values[1, 0] == 9.0

    def test_bad_header(self):
        with pytest.raises(DatasetParseError) as exc:
            parse_ranked_dataset("rank,value\n1,2")
        assert "header" in str(exc.value)

    def test_missing_slot_named(self):
        text = "rank,cycle,value\n1,1,4\n1,2,5\n2,1,6"
        with pytest.raises(DatasetParseError) as exc:
            parse_ranked_dataset(text)
        msg = str(exc.value)
        assert "incomplete" in msg
        assert "rank=2" in msg and "cycle=2" in msg

    def test_duplicate_slot(self):
        text = "rank,cycle,value\n1,1,4\n1,1,5"
        with pytest.raises(DatasetParseError) as exc:
            parse_ranked_dataset(text)
        assert "duplicate" in str(exc.value)

    def test_zero_based_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_ranked_dataset("rank,cycle,value\n0,1,4")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_ranked_dataset("rank,cycle,value\n1,1,-4")

    def test_empty_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_ranked_dataset("rank,cycle,value\n")

    def test_errors_name_physical_lines(self):
        # comment and blank lines count toward the line an error names
        with pytest.raises(DatasetParseError, match="^line 4: observations") as exc:
            parse_ranked_dataset("rank,cycle,value\n# note\n\n1,1,-4\n")
        assert exc.value.lineno == 4
        with pytest.raises(DatasetParseError, match="^line 3: expected header") as exc:
            parse_ranked_dataset("# ranked sample\n\nrank,value\n1,2")
        assert exc.value.lineno == 3

    @pytest.mark.parametrize("text, lineno", [
        ("rank,cycle,value\n1,1,5\n\n# note\n2,1,{big}\n", 5),
        ("# header next\n{big},cycle,value\n", 2),
    ])
    def test_field_over_the_csv_limit_names_its_line(self, text, lineno):
        # the csv module refuses a field longer than 131072 characters
        text = text.format(big="7" * 200_000)
        message = rf"^line {lineno}: field larger than field limit \(131072\)$"
        with pytest.raises(DatasetParseError, match=message) as exc:
            parse_ranked_dataset(text)
        assert exc.value.lineno == lineno

    def test_trailing_comments_stripped(self):
        # a comment after a record or the header is dropped, as in plain lists
        text = "rank,cycle,value # header\n1,1,5 # first\n# note\n2,1,7\n"
        got = parse_ranked_dataset(text)
        assert got.values.tolist() == [[5.0], [7.0]]
        # and the line an error names is still the physical one
        with pytest.raises(DatasetParseError, match="^line 3: observations") as exc:
            parse_ranked_dataset("rank,cycle,value\n\n1,1,-4 # bad\n")
        assert exc.value.lineno == 3
        assert exc.value.token == "-4"


class TestBuildEstimateReport:
    DATA1 = [120.0, 14.0, 62.0, 47.0, 225.0, 71.0, 246.0, 21.0]
    DATA2 = [23.0, 261.0, 87.0, 7.0, 120.0, 14.0]

    def test_basic_shape(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "srs")
        assert rep.method == "srs"
        assert rep.n1 == 8 and rep.n2 == 6
        assert rep.alpha1 > 0 and rep.alpha2 > 0
        assert len(rep.measures) == 3
        names = [m.measure for m in rep.measures]
        assert names == ["rho", "delta", "lambda"]
        for m in rep.measures:
            assert 0.0 <= m.point <= 1.0
            assert m.variance is not None and m.variance >= 0.0
            assert 0.0 <= m.interval.lo <= m.interval.hi <= 1.0
            assert 0.0 <= m.interval_corrected.lo <= m.interval_corrected.hi <= 1.0

    def test_measure_lookup(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "srs")
        assert rep.measure("delta") is rep.measures[1]
        with pytest.raises(KeyError):
            rep.measure("nope")

    def test_identical_samples_unit_raw_ratio(self):
        rep = build_estimate_report(self.DATA1, self.DATA1, "srs")
        assert rep.ratio_raw == pytest.approx(1.0, rel=1e-15)
        # the unbiasing factor pulls the corrected ratio below one
        assert rep.ratio_unbiased < 1.0

    def test_json_round_trip(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "srs", level=0.9)
        back = EstimateReport.from_json(rep.to_json())
        assert back == rep
        assert EstimateReport.from_dict(asdict(rep)) == rep

    def test_json_round_trip_without_variance(self):
        rep = build_estimate_report(self.DATA1, self.DATA2[:2], "srs")
        back = EstimateReport.from_json(rep.to_json())
        assert back == rep
        assert back.measures[0].interval is None
        assert EstimateReport.from_dict(asdict(rep)) == rep

    def test_dict_keys_are_the_fields_in_order(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "srs")
        doc = asdict(rep)
        assert list(doc) == [f.name for f in fields(EstimateReport)]
        for m in doc["measures"]:
            assert list(m) == [f.name for f in fields(MeasureReport)]
            for key in ("interval", "interval_corrected"):
                assert list(m[key]) == [f.name for f in fields(ConfidenceInterval)]

    def test_json_is_valid_document(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "bayes")
        doc = json.loads(rep.to_json())
        assert doc["method"] == "bayes"
        assert set(doc["measures"][0]) >= {"measure", "point", "variance"}

    def test_small_second_sample_warns(self):
        rep = build_estimate_report(self.DATA1, self.DATA2[:2], "srs")
        assert rep.ratio_variance is None
        refusal = estimators._refusal("srs", SrsDesign(8), SrsDesign(2), "derived")
        assert rep.warnings[-1] == f"{refusal}: point estimates only"
        for m in rep.measures:
            assert m.variance is None and m.bias is None
            assert m.interval is None and m.interval_corrected is None

    def test_bayes_derived_identity_warning(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "bayes", source="derived")
        assert any("cancels" in w for w in rep.warnings)
        srs = build_estimate_report(self.DATA1, self.DATA2, "srs", source="derived")
        assert rep.ratio_unbiased == pytest.approx(srs.ratio_unbiased, rel=1e-14)

    def test_bayes_published_disagreement_warning(self):
        rep = build_estimate_report(self.DATA1, self.DATA2, "bayes", source="as-published")
        assert any("disagree" in w for w in rep.warnings)

    def test_rss_method(self, rng):
        d = InverseLomax(0.8)
        des = RssDesign(r=3, m=5)
        s1 = draw_rss(d, des, rng)
        s2 = draw_rss(d, des, rng)
        rep = build_estimate_report(s1, s2, "rss")
        assert rep.n1 == rep.n2 == 15
        assert rep.ratio_raw == rep.ratio_unbiased  # no moment correction applies
        for m in rep.measures:
            assert m.variance is not None

    def test_published_weitzman_bias_nan_drops_its_corrected_interval(self, rng):
        # identical ranked samples give a corrected ratio of exactly one, where
        # the printed Weitzman bias bracket has no finite value
        s = draw_rss(InverseLomax(0.8), RssDesign(r=3, m=4), rng)
        rep = build_estimate_report(s, s, "rss", source="as-published")
        assert rep.ratio_unbiased == 1.0
        delta = rep.measure("delta")
        assert math.isnan(delta.bias)
        assert delta.interval is not None
        assert delta.interval_corrected is None
        for name in ("rho", "lambda"):
            m = rep.measure(name)
            assert m.interval_corrected == confidence_interval(
                m.point, m.variance, m.bias, rep.level, bias_corrected=True)
        assert any("delta" in w and "not finite" in w for w in rep.warnings)

    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("source", ["derived", "as-published"])
    @pytest.mark.parametrize("method", ["srs", "bayes", "rss"])
    def test_one_kernel_call_per_report(self, method, source, same, rng, monkeypatch):
        # same rss samples give a corrected ratio of one, a NaN bias as published
        calls = []
        kernel = reports._assess_designs
        monkeypatch.setattr(reports, "_assess_designs",
                            lambda *args: calls.append(args) or kernel(*args))
        if method == "rss":
            s1, s2 = (draw_rss(InverseLomax(0.8), RssDesign(r=3, m=4), rng) for _ in range(2))
        else:
            s1, s2 = self.DATA1, self.DATA2
        build_estimate_report(s1, s1 if same else s2, method, source)
        assert len(calls) == 1

    def test_method_sample_type_mismatch(self, rng):
        d = InverseLomax(0.8)
        s = draw_rss(d, RssDesign(r=2, m=3), rng)
        with pytest.raises(DomainError):
            build_estimate_report(s, s, "srs")
        with pytest.raises(DomainError):
            build_estimate_report(self.DATA1, self.DATA2, "rss")
        for bad in ([], [self.DATA1]):  # empty, two-dimensional
            with pytest.raises(DomainError, match="nonempty one-dimensional"):
                build_estimate_report(bad, self.DATA2, "bayes")

    def test_unknown_method_and_source(self):
        # the estimators' text, from plain samples as from ranked ones
        with pytest.raises(DomainError, match=r"^unknown method 'mle'; expected one of \("):
            build_estimate_report(self.DATA1, self.DATA2, "mle")
        with pytest.raises(DomainError):
            build_estimate_report(self.DATA1, self.DATA2, "srs", source="exact")

    def test_level_validated(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                build_estimate_report(self.DATA1, self.DATA2, "srs", level=bad)
        # a report with point estimates only builds no interval, and still checks its level
        message = r"^confidence level must lie strictly inside \(0, 1\)$"
        with pytest.raises(DomainError, match=message):
            build_estimate_report(self.DATA1, self.DATA2[:2], "srs", level=1.5)

    def test_level_widens_interval(self):
        lo_rep = build_estimate_report(self.DATA1, self.DATA2, "srs", level=0.5)
        hi_rep = build_estimate_report(self.DATA1, self.DATA2, "srs", level=0.99)
        w50 = lo_rep.measure("lambda").interval
        w99 = hi_rep.measure("lambda").interval
        assert (w99.hi - w99.lo) > (w50.hi - w50.lo)


class TestBundledData:
    def test_counts_and_labels(self):
        d1, d2 = bundled_counts()
        assert d1.label == "plane_8044" and d1.n == 12
        assert d2.label == "plane_7912" and d2.n == 30
        assert d1.values[0] == 487.0
        assert d2.values[0] == 23.0
        assert np.all(d1.values > 0) and np.all(d2.values > 0)

    def test_summary_values_in_expected_bands(self):
        d1, d2 = bundled_counts()
        reports = [build_estimate_report(d1.values, d2.values, method)
                   for method in ("srs", "bayes")]
        srs = reports[0]
        assert srs.alpha1 == pytest.approx(0.0614477, rel=1e-4)
        assert srs.alpha2 == pytest.approx(0.0757775, rel=1e-4)
        assert srs.ratio_raw == pytest.approx(0.810896, rel=1e-4)
        assert srs.ratio_unbiased == pytest.approx(0.783866, rel=1e-4)
        assert srs.measure("rho").point == pytest.approx(0.992633, abs=5e-4)
        assert srs.measure("delta").point == pytest.approx(0.910636, abs=5e-4)
        assert srs.measure("lambda").point == pytest.approx(0.943758, abs=5e-4)
        for rep in reports:
            for m in rep.measures:
                assert abs(m.bias) >= 0.0
                lo, hi = m.interval.lo, m.interval.hi
                assert 0.0 <= lo <= hi <= 1.0
