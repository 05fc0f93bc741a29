import math

import numpy as np
import pytest

from ovlomax.dist_core import DomainError, InverseLomax, ratio_f_law
from ovlomax.estimators import (
    METHOD_BAYES,
    METHOD_RSS,
    METHOD_SRS,
    SOURCE_AS_PUBLISHED,
    SOURCE_DERIVED,
    SOURCES,
    DegenerateDesignError,
    MethodMismatchError,
    alpha_bayes_jeffreys,
    alpha_rss,
    assess,
    confidence_interval,
    delta_bias,
    delta_variance,
    harmonic,
    mle_alpha_srs,
    ovl_point,
    ratio_estimate,
    ratio_variance_factor,
)
from ovlomax.overlap import MEASURES, overlap_curvature, overlap_grad_sq
from ovlomax.sampling import RankedSample, RssDesign, SrsDesign, draw_rss


class TestAlphaEstimators:
    def test_mle_is_mean_log_transform(self):
        x = np.array([1.0, 1.0, 1.0])
        est = mle_alpha_srs(x)
        assert est.value == pytest.approx(math.log(2.0), rel=1e-14)
        assert est.method == METHOD_SRS
        assert est.design == SrsDesign(3)

    def test_bayes_mode_frozen_single_observation(self):
        est = alpha_bayes_jeffreys(np.array([1.0]))
        assert est.value == pytest.approx(0.34657359, abs=1e-8)
        assert est.method == METHOD_BAYES

    def test_bayes_shrinks_mle(self):
        x = np.array([2.0, 0.5, 1.7, 9.0, 0.1])
        n = x.size
        assert alpha_bayes_jeffreys(x).value == pytest.approx(
            mle_alpha_srs(x).value * n / (n + 1), rel=1e-14
        )

    def test_rss_estimator_pools_all_slots(self):
        vals = np.array([[1.0, 3.0], [2.0, 4.0]])
        ranked = RankedSample(values=vals, design=RssDesign(r=2, m=2))
        expected = np.mean(np.log1p(1.0 / vals))
        est = alpha_rss(ranked)
        assert est.value == pytest.approx(expected, rel=1e-14)
        assert est.method == METHOD_RSS

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mle_alpha_srs(np.array([1.0, 0.0]))


class TestRatioEstimate:
    def test_srs_correction_factor(self):
        a1 = mle_alpha_srs(np.full(12, 1.0))
        a2 = mle_alpha_srs(np.full(30, 1.0))
        est = ratio_estimate(a1, a2)
        assert est.raw == pytest.approx(1.0, rel=1e-14)
        assert est.unbiased == pytest.approx(29.0 / 30.0, rel=1e-14)

    def test_rss_is_uncorrected(self):
        ranked = draw_rss(InverseLomax(1.0), RssDesign(2, 4), np.random.default_rng(0))
        ranked2 = draw_rss(InverseLomax(1.0), RssDesign(2, 4), np.random.default_rng(1))
        est = ratio_estimate(alpha_rss(ranked), alpha_rss(ranked2))
        assert est.unbiased == est.raw

    def test_bayes_derived_correction_recovers_srs_ratio(self):
        rng = np.random.default_rng(7)
        x1, x2 = InverseLomax(0.5).sample(10, rng), InverseLomax(1.0).sample(14, rng)
        srs = ratio_estimate(mle_alpha_srs(x1), mle_alpha_srs(x2), SOURCE_DERIVED)
        bay = ratio_estimate(
            alpha_bayes_jeffreys(x1), alpha_bayes_jeffreys(x2), SOURCE_DERIVED
        )
        assert bay.unbiased == pytest.approx(srs.unbiased, rel=1e-13)

    def test_bayes_published_correction_constant(self):
        n1, n2 = 10, 14
        rng = np.random.default_rng(8)
        x1, x2 = InverseLomax(0.5).sample(n1, rng), InverseLomax(1.0).sample(n2, rng)
        est = ratio_estimate(
            alpha_bayes_jeffreys(x1), alpha_bayes_jeffreys(x2), SOURCE_AS_PUBLISHED
        )
        constant = n1 * (n1 - 1) * (n1 + 1) / (n2**2 * (n2 + 1))
        assert est.unbiased == pytest.approx(est.raw * constant, rel=1e-13)

    def test_mixing_methods_rejected(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(MethodMismatchError):
            ratio_estimate(mle_alpha_srs(x), alpha_bayes_jeffreys(x))

    def test_f_law_shape_of_raw_ratio(self):
        law = ratio_f_law(12, 30)
        assert (law.d1, law.d2) == (24, 60)

    def test_variance_none_for_tiny_second_sample(self):
        a1 = mle_alpha_srs(np.array([1.0, 2.0, 3.0]))
        a2 = mle_alpha_srs(np.array([1.0, 2.0]))
        est = ratio_estimate(a1, a2)
        assert est.variance is None

    def test_ovl_point_uses_corrected_ratio(self):
        a1 = mle_alpha_srs(np.full(12, 1.0))
        a2 = mle_alpha_srs(np.full(30, 1.0))
        est = ratio_estimate(a1, a2)
        triple = ovl_point(est)
        from ovlomax.overlap import OverlapTriple

        assert triple == OverlapTriple.from_ratio(est.unbiased)


class TestVarianceFactors:
    def test_srs_factor_value(self):
        f = ratio_variance_factor(METHOD_SRS, SrsDesign(20), SrsDesign(20))
        assert f == pytest.approx(39.0 / 360.0, rel=1e-14)

    def test_srs_factor_equals_exact_f_moments(self):
        # R* = ((n2-1)/n2) R F with F ~ F(2n1, 2n2); E[F] = n2/(n2-1), so
        # E[R*] = R and Var(R*)/R^2 = ((n2-1)/n2)^2 Var(F), which is exactly
        # the closed factor (n1+n2-1)/(n1(n2-2))
        n1, n2 = 9, 17
        f = ratio_variance_factor(METHOD_SRS, SrsDesign(n1), SrsDesign(n2))
        law = ratio_f_law(n1, n2)
        assert law.mean == pytest.approx(n2 / (n2 - 1), rel=1e-14)
        assert f == pytest.approx(((n2 - 1) / n2) ** 2 * law.variance, rel=1e-12)

    def test_rss_factor_from_harmonic_numbers(self):
        d1, d2 = RssDesign(2, 10), RssDesign(3, 10)
        f = ratio_variance_factor(METHOD_RSS, d1, d2)
        expected = harmonic(2) / (10 * 4) + harmonic(3) / (10 * 9)
        assert f == pytest.approx(expected, rel=1e-14)

    def test_harmonic_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(5) == pytest.approx(137.0 / 60.0, rel=1e-14)

    def test_degenerate_design_raises(self):
        with pytest.raises(DegenerateDesignError):
            ratio_variance_factor(METHOD_SRS, SrsDesign(5), SrsDesign(2))

    def test_bayes_published_factor(self):
        n1, n2 = 10, 14
        d1, d2 = SrsDesign(n1), SrsDesign(n2)
        c = (n1 + n2 - 1) / (n1 * (n2 - 2))
        got = ratio_variance_factor(METHOD_BAYES, d1, d2, SOURCE_AS_PUBLISHED)
        assert got == pytest.approx(((n1 - 1) / (n2 - 1)) ** 2 * c, rel=1e-13)

    def test_bayes_derived_factor_matches_srs(self):
        d1, d2 = SrsDesign(10), SrsDesign(14)
        assert ratio_variance_factor(METHOD_BAYES, d1, d2, SOURCE_DERIVED) == (
            ratio_variance_factor(METHOD_SRS, d1, d2, SOURCE_DERIVED)
        )


class TestDeltaMethod:
    def test_frozen_variance(self):
        d = SrsDesign(20)
        v = delta_variance("rho", 0.5, METHOD_SRS, d, d, SOURCE_DERIVED)
        assert v == pytest.approx(0.0026748971193415634, rel=1e-12)

    def test_frozen_bias(self):
        d = SrsDesign(20)
        b = delta_bias("rho", 0.5, METHOD_SRS, d, d, SOURCE_DERIVED)
        assert b == pytest.approx(-0.018441519447612117, rel=1e-12)

    def test_derived_variance_structure(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        factor = ratio_variance_factor(METHOD_SRS, d1, d2)
        for meas in MEASURES:
            for r in (0.3, 0.8, 1.5):
                v = delta_variance(meas, r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
                assert v == pytest.approx(
                    factor * r * r * overlap_grad_sq(meas, r), rel=1e-13
                )

    def test_derived_bias_structure(self):
        d1, d2 = RssDesign(3, 8), RssDesign(2, 8)
        factor = ratio_variance_factor(METHOD_RSS, d1, d2)
        for meas in MEASURES:
            for r in (0.3, 0.8, 1.5):
                b = delta_bias(meas, r, METHOD_RSS, d1, d2, SOURCE_DERIVED)
                assert b == pytest.approx(
                    0.5 * factor * r * r * overlap_curvature(meas, r), rel=1e-13
                )

    def test_published_variance_equals_derived(self):
        # the printed variance shapes are algebraically the squared slopes
        d1, d2 = SrsDesign(16), SrsDesign(24)
        for meas in MEASURES:
            for r in (0.2, 0.5, 0.9, 1.3, 4.0):
                a = delta_variance(meas, r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
                b = delta_variance(meas, r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
                assert b == pytest.approx(a, rel=1e-10)

    def test_published_rho_bias_is_twice_derived(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        for r in (0.2, 0.5, 0.9, 1.3, 4.0):
            a = delta_bias("rho", r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
            b = delta_bias("rho", r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
            assert b == pytest.approx(2.0 * a, rel=1e-10)

    def test_published_delta_bias_crosses_derived_at_half(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        a = delta_bias("delta", 0.5, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        b = delta_bias("delta", 0.5, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert b == pytest.approx(a, rel=1e-10)
        a9 = delta_bias("delta", 0.9, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        b9 = delta_bias("delta", 0.9, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert abs(b9 - a9) > 1e-6

    def test_published_lambda_bias_differs(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        a = delta_bias("lambda", 0.5, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        b = delta_bias("lambda", 0.5, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert abs(a - b) > 1e-6

    def test_weitzman_variance_limit_at_one(self):
        # (slope)^2 has the two-sided limit exp(-2) at the kink
        d = SrsDesign(20)
        v = delta_variance("delta", 1.0, METHOD_SRS, d, d, SOURCE_DERIVED)
        factor = ratio_variance_factor(METHOD_SRS, d, d)
        assert v == pytest.approx(factor * math.exp(-2.0), rel=1e-12)

    def test_weitzman_published_bias_nan_at_one(self):
        d = SrsDesign(20)
        b = delta_bias("delta", 1.0, METHOD_SRS, d, d, SOURCE_AS_PUBLISHED)
        assert math.isnan(b)

    def test_derived_bias_zero_at_one_for_weitzman(self):
        d = SrsDesign(20)
        assert delta_bias("delta", 1.0, METHOD_SRS, d, d, SOURCE_DERIVED) == 0.0


class TestConfidenceInterval:
    def test_spec_anchor_example(self):
        iv = confidence_interval(0.95, 0.01, level=0.95)
        assert iv.lo == pytest.approx(0.754, abs=5e-4)
        assert iv.hi == 1.0
        assert iv.clamped
        assert not iv.bias_corrected

    def test_unclamped_interval(self):
        iv = confidence_interval(0.5, 0.0001, level=0.95)
        assert iv.lo == pytest.approx(0.5 - 1.959964 * 0.01, abs=1e-6)
        assert iv.hi == pytest.approx(0.5 + 1.959964 * 0.01, abs=1e-6)
        assert not iv.clamped

    def test_bias_correction_shifts_centre(self):
        plain = confidence_interval(0.5, 0.0001, bias=0.0, level=0.95)
        corr = confidence_interval(0.5, 0.0001, bias=-0.02, level=0.95,
                                   bias_corrected=True)
        assert corr.lo == pytest.approx(plain.lo + 0.02, rel=1e-10)
        assert corr.bias_corrected

    def test_extreme_bias_keeps_interval_ordered(self):
        # centre pushed far above one: both ends clip to the boundary
        iv = confidence_interval(0.99, 1e-4, bias=-5.0, level=0.95,
                                 bias_corrected=True)
        assert iv.lo <= iv.hi
        assert iv.lo == iv.hi == 1.0

    def test_level_and_variance_validation(self):
        with pytest.raises(DomainError):
            confidence_interval(0.5, 0.01, level=1.0)
        with pytest.raises(DomainError):
            confidence_interval(0.5, -0.01)
        with pytest.raises(DomainError):
            confidence_interval(0.5, math.nan)

    def test_non_finite_bias_rejected_when_corrected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                confidence_interval(0.5, 0.01, bad, bias_corrected=True)

    def test_non_finite_bias_ignored_when_not_corrected(self):
        iv = confidence_interval(0.5, 0.01, math.nan, bias_corrected=False)
        assert iv == confidence_interval(0.5, 0.01)


DESIGNS = {
    METHOD_SRS: (SrsDesign(12), SrsDesign(20)),
    METHOD_BAYES: (SrsDesign(12), SrsDesign(20)),
    METHOD_RSS: (RssDesign(3, 4), RssDesign(2, 5)),
}
FIELDS = ("point", "variance", "bias", "lo", "hi", "clamped",
          "lo_corrected", "hi_corrected", "clamped_corrected")


def _bits(arrays) -> bytes:
    return np.concatenate([np.asarray(a).ravel() for a in arrays]).tobytes()


class TestAssess:
    RATIOS = np.exp(np.random.default_rng(3).uniform(np.log(0.02), np.log(50.0), 200))

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("method", sorted(DESIGNS))
    def test_block_equals_single_ratio_calls_bit_for_bit(self, method, source):
        d1, d2 = DESIGNS[method]
        block = assess(self.RATIOS, method, d1, d2, source, 0.9)
        singles = [assess([r], method, d1, d2, source, 0.9) for r in self.RATIOS]
        assert list(block) == list(MEASURES)
        for meas in MEASURES:
            for name in FIELDS:
                got = getattr(block[meas], name)
                assert got.shape == self.RATIOS.shape
                assert got.tobytes() == _bits(getattr(s[meas], name) for s in singles)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("method", sorted(DESIGNS))
    def test_scalar_functions_are_views_of_the_block(self, method, source):
        d1, d2 = DESIGNS[method]
        ratios = self.RATIOS[:20]
        block = assess(ratios, method, d1, d2, source, 0.9)
        for meas in MEASURES:
            a = block[meas]
            for k, r in enumerate(ratios):
                var = delta_variance(meas, r, method, d1, d2, source)
                bias = delta_bias(meas, r, method, d1, d2, source)
                assert (var, bias) == (a.variance[k], a.bias[k])
                for corrected, lo, hi in ((False, a.lo, a.hi),
                                          (True, a.lo_corrected, a.hi_corrected)):
                    iv = confidence_interval(a.point[k], var, bias, 0.9, corrected)
                    assert (iv.lo, iv.hi) == (lo[k], hi[k])

    def test_published_weitzman_bias_at_one_needs_correction_off(self):
        d = SrsDesign(20)
        with pytest.raises(DomainError):
            assess([0.5, 1.0], METHOD_SRS, d, d, SOURCE_AS_PUBLISHED)
        block = assess([0.5, 1.0], METHOD_SRS, d, d, SOURCE_AS_PUBLISHED,
                       bias_corrected=False)
        assert math.isnan(block["delta"].bias[1])
        assert block["delta"].lo_corrected is None
        assert np.all(block["delta"].lo <= block["delta"].hi)

    @pytest.mark.parametrize("ratios", [[[0.5]], [0.5, 0.0], [math.nan], [0.5, math.inf]])
    def test_rejects_bad_ratios(self, ratios):
        d = SrsDesign(20)
        with pytest.raises(DomainError):
            assess(ratios, METHOD_SRS, d, d)
