import math

import mpmath
import numpy as np
import pytest
import scipy.stats

from ovlomax.dist_core import DomainError, InverseLomax
from ovlomax.estimators import (
    METHOD_BAYES,
    METHOD_RSS,
    METHOD_SRS,
    METHODS,
    SOURCE_AS_PUBLISHED,
    SOURCE_DERIVED,
    SOURCES,
    _PUBLISHED,
    _assess_designs,
    _shape_from_t,
    DegenerateDesignError,
    assess,
    confidence_interval,
    corrected_ratio,
    harmonic,
    ratio_variance_factor,
    shape_estimates,
)
from ovlomax.overlap import MEASURES, _terms, overlap_value
from ovlomax.sampling import RankedSample, RssDesign, SrsDesign, draw_rss, rss_retained
from ovlomax.study import ConfigError, efficiency_grid


def printed_shapes(r) -> dict:
    """The printed (variance, bias) expressions of each measure at R = ``r``,
    in mpmath at the working precision.  At R = 1 the Weitzman variance is
    its limit exp(-2) and its bias, which diverges, is NaN."""
    x = mpmath.mpf(r)
    log = mpmath.log(x)
    if x == 1:
        delta = (mpmath.exp(-2), mpmath.nan)
    else:
        bracket = (x ** ((2 * x - 1) / (1 - x)) * x * (2 * x - log - 2) * log
                   - (x - 1) ** 2) / (x - 1) ** 3
        delta = (x ** (2 / (1 - x)) * log**2 / (1 - x) ** 2, x**2 * bracket * (-1 if r < 1.0 else 1))
    return {
        "rho": (x * (1 - x) ** 2 / (1 + x) ** 4,
                mpmath.sqrt(x) * (3 * x**2 - 6 * x - 1) / (1 + x) ** 3),
        "delta": delta,
        "lambda": (x**2 * (1 - x**2) ** 2 / (x**2 - x + 1) ** 4,
                   (x**5 - 3 * x**3 - x**2) / (x**2 - x + 1) ** 2),
    }


def delta_terms(measure, r, method, d1, d2, source=SOURCE_DERIVED) -> tuple:
    """The delta-method variance and bias of ``measure`` at the one ratio ``r``."""
    a = assess([r], method, d1, d2, source)[measure]
    return float(a.variance[0]), float(a.bias[0])


def rss_shape(ranked: RankedSample) -> float:
    return float(shape_estimates(METHOD_RSS, ranked.values.reshape(-1)))


def raw_ratio(method, x1, x2) -> float:
    return float(shape_estimates(method, x1)) / float(shape_estimates(method, x2))


class TestAlphaEstimators:
    def test_mle_is_mean_log_transform(self):
        x = np.array([1.0, 1.0, 1.0])
        assert float(shape_estimates(METHOD_SRS, x)) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_bayes_mode_frozen_single_observation(self):
        est = float(shape_estimates(METHOD_BAYES, np.array([1.0])))
        assert est == pytest.approx(0.34657359, abs=1e-8)

    def test_bayes_shrinks_mle(self):
        x = np.array([2.0, 0.5, 1.7, 9.0, 0.1])
        n = x.size
        assert float(shape_estimates(METHOD_BAYES, x)) == pytest.approx(
            float(shape_estimates(METHOD_SRS, x)) * n / (n + 1), rel=1e-14
        )

    def test_rss_estimator_pools_all_slots(self):
        vals = np.array([[1.0, 3.0], [2.0, 4.0]])
        ranked = RankedSample(values=vals, design=RssDesign(r=2, m=2))
        expected = np.mean(np.log1p(1.0 / vals))
        assert rss_shape(ranked) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            shape_estimates(METHOD_SRS, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_mean_shape_is_np_mean_bit_for_bit(self, layout):
        # the srs/rss estimate divides the sum by n: the same bits as np.mean,
        # so the study's pinned outputs do not move
        rng = np.random.default_rng(7)
        for width in range(1, 2001):
            base = rng.exponential(size=(3, 2 * width))
            t = base[:, :width].copy() if layout == "contiguous" else base[:, ::2]
            assert t.flags.c_contiguous == (layout == "contiguous")
            for method in (METHOD_SRS, METHOD_RSS):
                got = _shape_from_t(method, t)
                assert got.tobytes() == np.mean(t, axis=-1).tobytes(), (width, method)


class TestRatioEstimate:
    def test_srs_correction_factor(self):
        raw = raw_ratio(METHOD_SRS, np.full(12, 1.0), np.full(30, 1.0))
        assert raw == pytest.approx(1.0, rel=1e-14)
        rhat = corrected_ratio(raw, METHOD_SRS, SrsDesign(12), SrsDesign(30))
        assert rhat == pytest.approx(29.0 / 30.0, rel=1e-14)

    def test_rss_is_uncorrected(self):
        ranked = draw_rss(InverseLomax(1.0), RssDesign(2, 4), np.random.default_rng(0))
        ranked2 = draw_rss(InverseLomax(1.0), RssDesign(2, 4), np.random.default_rng(1))
        raw = rss_shape(ranked) / rss_shape(ranked2)
        assert corrected_ratio(raw, METHOD_RSS, ranked.design, ranked2.design) == raw

    def test_bayes_derived_correction_recovers_srs_ratio(self):
        rng = np.random.default_rng(7)
        x1, x2 = InverseLomax(0.5).sample(10, rng), InverseLomax(1.0).sample(14, rng)
        d1, d2 = SrsDesign(10), SrsDesign(14)
        srs = corrected_ratio(raw_ratio(METHOD_SRS, x1, x2), METHOD_SRS, d1, d2, SOURCE_DERIVED)
        bay = corrected_ratio(raw_ratio(METHOD_BAYES, x1, x2), METHOD_BAYES, d1, d2,
                              SOURCE_DERIVED)
        assert bay == pytest.approx(srs, rel=1e-13)

    @pytest.mark.parametrize("a", [1e-3, 0.1, 10.0, 1e3])
    @pytest.mark.parametrize("method", [METHOD_SRS, METHOD_RSS, METHOD_BAYES])
    def test_corrected_ratio_depends_on_the_shapes_only_through_their_ratio(self, method, a):
        # the study draws population 2 at shape 1: a common factor a of the two
        # shapes scales both estimates by a, and it cancels from their ratio
        if method == METHOD_RSS:
            d1, d2 = RssDesign(3, 4), RssDesign(2, 5)
            draws = [d.r * d.r * d.m for d in (d1, d2)]
        else:
            d1, d2 = SrsDesign(12), SrsDesign(10)
            draws = [d1.n, d2.n]
        rng = np.random.default_rng(17)
        u1, u2 = (rng.random((200, n)) for n in draws)
        if method == METHOD_RSS:
            u1, u2 = (rss_retained(u, d).reshape(200, d.n) for u, d in ((u1, d1), (u2, d2)))

        def ratios(shape1, shape2):
            # the study's T = -alpha * log(u) of the same retained uniforms
            alpha1, alpha2 = (_shape_from_t(method, -shape * np.log(u))
                              for shape, u in ((shape1, u1), (shape2, u2)))
            return corrected_ratio(alpha1 / alpha2, method, d1, d2)

        R = 0.6
        np.testing.assert_allclose(ratios(a * R, a), ratios(R, 1.0), rtol=1e-12, atol=0.0)

    def test_bayes_published_correction_constant(self):
        n1, n2 = 10, 14
        rng = np.random.default_rng(8)
        x1, x2 = InverseLomax(0.5).sample(n1, rng), InverseLomax(1.0).sample(n2, rng)
        raw = raw_ratio(METHOD_BAYES, x1, x2)
        rhat = corrected_ratio(raw, METHOD_BAYES, SrsDesign(n1), SrsDesign(n2),
                               SOURCE_AS_PUBLISHED)
        constant = n1 * (n1 - 1) * (n1 + 1) / (n2**2 * (n2 + 1))
        assert rhat == pytest.approx(raw * constant, rel=1e-13)

    def test_unknown_method_is_refused(self):
        with pytest.raises(DomainError) as err:
            corrected_ratio(1.0, "foo", SrsDesign(4), SrsDesign(4))
        assert type(err.value) is DomainError
        assert str(err.value) == f"unknown method 'foo'; expected one of {METHODS}"

    @pytest.mark.parametrize("method", [METHOD_SRS, METHOD_RSS, METHOD_BAYES])
    def test_unknown_source_is_refused(self, method):
        designs = ((RssDesign(2, 5), RssDesign(2, 7)) if method == METHOD_RSS
                   else (SrsDesign(10), SrsDesign(14)))
        message = f"unknown formula source 'exact'; expected one of {SOURCES}"
        with pytest.raises(DomainError) as err:
            corrected_ratio(0.5, method, *designs, "exact")
        assert str(err.value) == message

    def test_variance_none_for_tiny_second_sample(self):
        # the corrected ratio is still a point estimate; its variance does not exist
        d1, d2 = SrsDesign(3), SrsDesign(2)
        raw = raw_ratio(METHOD_SRS, np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))
        assert math.isfinite(corrected_ratio(raw, METHOD_SRS, d1, d2))
        with pytest.raises(DegenerateDesignError):
            ratio_variance_factor(METHOD_SRS, d1, d2)


    @pytest.mark.parametrize("method, source", [(METHOD_SRS, SOURCE_DERIVED),
                                                (METHOD_SRS, SOURCE_AS_PUBLISHED),
                                                (METHOD_BAYES, SOURCE_DERIVED)])
    def test_zero_correction_at_n2_one_is_refused(self, method, source):
        # (n2 - 1) is a factor of these corrections: every ratio would be 0
        with pytest.raises(DegenerateDesignError, match=r"^n2 = 1: the .* is zero$"):
            corrected_ratio(0.5, method, SrsDesign(5), SrsDesign(1), source)
        # the as-published bayes correction has no (n2 - 1) factor
        assert corrected_ratio(0.5, METHOD_BAYES, SrsDesign(5), SrsDesign(1),
                               SOURCE_AS_PUBLISHED) > 0.0

    def test_published_bayes_n1_one_is_refused_everywhere(self):
        d1, d2 = SrsDesign(1), SrsDesign(5)
        calls = (lambda: corrected_ratio(0.5, METHOD_BAYES, d1, d2, SOURCE_AS_PUBLISHED),
                 lambda: ratio_variance_factor(METHOD_BAYES, d1, d2, SOURCE_AS_PUBLISHED),
                 lambda: assess([0.5], METHOD_BAYES, d1, d2, SOURCE_AS_PUBLISHED))
        for call in calls:
            with pytest.raises(DegenerateDesignError) as err:
                call()
            assert str(err.value) == (
                "n1 = 1: the as-published bayes correction n1*(n1-1)*(n1+1) is zero")
        assert corrected_ratio(0.5, METHOD_BAYES, d1, d2, SOURCE_DERIVED) > 0.0
        # the variance rule is checked first
        with pytest.raises(DegenerateDesignError) as err:
            ratio_variance_factor(METHOD_BAYES, d1, SrsDesign(2), SOURCE_AS_PUBLISHED)
        assert str(err.value) == "n2 = 2 < 3: srs/bayes variance formulas undefined"


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
        law = scipy.stats.f(2 * n1, 2 * n2)
        assert law.mean() == pytest.approx(n2 / (n2 - 1), rel=1e-14)
        assert f == pytest.approx(((n2 - 1) / n2) ** 2 * law.var(), rel=1e-12)

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
        v, _ = delta_terms("rho", 0.5, METHOD_SRS, d, d, SOURCE_DERIVED)
        assert v == pytest.approx(0.0026748971193415634, rel=1e-12)

    def test_frozen_bias(self):
        d = SrsDesign(20)
        _, b = delta_terms("rho", 0.5, METHOD_SRS, d, d, SOURCE_DERIVED)
        assert b == pytest.approx(-0.018441519447612117, rel=1e-12)

    def test_derived_variance_structure(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        factor = ratio_variance_factor(METHOD_SRS, d1, d2)
        e, _c = _terms(np.array([0.3, 0.8, 1.5]))
        for k, meas in enumerate(MEASURES):
            for j, r in enumerate((0.3, 0.8, 1.5)):
                v, _ = delta_terms(meas, r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
                assert v == pytest.approx(factor * e[k, j] ** 2, rel=1e-13)

    def test_derived_bias_structure(self):
        d1, d2 = RssDesign(3, 8), RssDesign(2, 8)
        factor = ratio_variance_factor(METHOD_RSS, d1, d2)
        _e, c = _terms(np.array([0.3, 0.8, 1.5]))
        for k, meas in enumerate(MEASURES):
            for j, r in enumerate((0.3, 0.8, 1.5)):
                _, b = delta_terms(meas, r, METHOD_RSS, d1, d2, SOURCE_DERIVED)
                assert b == pytest.approx(0.5 * factor * c[k, j], rel=1e-13)

    def test_published_variance_equals_derived(self):
        # the printed variance shapes are algebraically the squared slopes
        d1, d2 = SrsDesign(16), SrsDesign(24)
        for meas in MEASURES:
            for r in (0.2, 0.5, 0.9, 1.3, 4.0):
                a, _ = delta_terms(meas, r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
                b, _ = delta_terms(meas, r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
                assert b == pytest.approx(a, rel=1e-10)

    def test_published_rho_bias_is_twice_derived(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        for r in (0.2, 0.5, 0.9, 1.3, 4.0):
            _, a = delta_terms("rho", r, METHOD_SRS, d1, d2, SOURCE_DERIVED)
            _, b = delta_terms("rho", r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
            assert b == pytest.approx(2.0 * a, rel=1e-10)

    def test_published_delta_bias_crosses_derived_at_half(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        _, a = delta_terms("delta", 0.5, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        _, b = delta_terms("delta", 0.5, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert b == pytest.approx(a, rel=1e-10)
        _, a9 = delta_terms("delta", 0.9, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        _, b9 = delta_terms("delta", 0.9, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert abs(b9 - a9) > 1e-6

    def test_published_lambda_bias_differs(self):
        d1, d2 = SrsDesign(16), SrsDesign(24)
        _, a = delta_terms("lambda", 0.5, METHOD_SRS, d1, d2, SOURCE_DERIVED)
        _, b = delta_terms("lambda", 0.5, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        assert abs(a - b) > 1e-6

    @pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 0.9, 0.999, 1.001, 1.3, 4.0, 20.0])
    def test_published_shapes_equal_printed_expressions(self, r):
        # the printed variance and bias expressions, evaluated at 40 digits
        with mpmath.workdps(40):
            shapes = printed_shapes(r)
            n1, n2 = 16, 24
            factor = mpmath.mpf(n1 + n2 - 1) / (n1 * (n2 - 2))
            # the printed srs bias constants halve the factor for rho and delta only
            constants = {"rho": factor / 2, "delta": factor / 2, "lambda": factor}
            want = {meas: (float(factor * var), float(constants[meas] * bias))
                    for meas, (var, bias) in shapes.items()}
        d1, d2 = SrsDesign(n1), SrsDesign(n2)
        for meas in MEASURES:
            var, bias = delta_terms(meas, r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
            assert (var, bias) == pytest.approx(want[meas], rel=1e-12), meas

    def test_published_variance_finite_over_the_float_range(self):
        # above R = 1e30 the rho and lambda shapes are taken at 1/R, before
        # their powers of R overflow; below it they are the printed arithmetic
        r = 10.0 ** np.arange(301)
        d1, d2 = SrsDesign(10), SrsDesign(8)
        block = assess(r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        factor = ratio_variance_factor(METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        with mpmath.workdps(50):
            printed = {meas: [printed_shapes(x)[meas][0] for x in r.tolist()]
                       for meas in ("rho", "lambda")}
            for meas, a in block.items():
                assert np.isfinite(a.variance).all() and (a.variance >= 0.0).all(), meas
                if meas in printed:
                    # relative where the printed value is a normal float (lambda's
                    # ~1/R**2 underflows from R ~ 1e154 on)
                    want = [float(w) for w in printed[meas]]
                    assert (a.variance / factor).tolist() == pytest.approx(
                        want, rel=1e-14, abs=np.finfo(float).tiny), meas

    def test_published_bias_finite_over_the_float_range(self):
        # above R = 1e30 each printed bias shape is taken in w = 1/R, before
        # r**5 (lambda), r*r (rho) or the powers of r (delta) overflow; below
        # it they are the printed arithmetic
        r = 10.0 ** np.arange(1, 309)
        for method, (d1, d2) in DESIGNS.items():  # bias-corrected intervals need a finite bias
            block = assess(r, method, d1, d2, SOURCE_AS_PUBLISHED)
            assert all(np.isfinite(a.bias).all() for a in block.values()), method
        d1, d2 = SrsDesign(10), SrsDesign(8)
        block = assess(r, METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        factor = ratio_variance_factor(METHOD_SRS, d1, d2, SOURCE_AS_PUBLISHED)
        with mpmath.workdps(50):
            printed = [printed_shapes(x) for x in r.tolist()]
            for meas, a in block.items():
                want = [float(shapes[meas][1]) for shapes in printed]
                halved = 2.0 if meas in ("rho", "delta") else 1.0
                assert (halved * a.bias / factor).tolist() == pytest.approx(want, rel=1e-14), meas

    def test_published_far_bias_is_its_form_in_w(self):
        # above R = 1e30 the bias shapes rewritten in w = 1/R, term for term,
        # round to their leading terms 3*sqrt(w), -R and 1/w
        r = 10.0 ** np.linspace(30.001, 308.25, 5000)
        w, log = 1.0 / r, np.log(r)
        in_w = {"rho": np.sqrt(w) * (3 - 6 * w - w * w) / (1 + w) ** 3,
                "delta": r * (np.exp(log * (2 - w) / (w - 1)) * (2 - (log + 2) * w) * log
                              - (1 - w) ** 2) / (1 - w) ** 3,
                "lambda": (1 - 3 * w * w - w**3) / (w * (1 - w + w * w) ** 2)}
        for meas, want in in_w.items():
            with np.errstate(over="ignore", invalid="ignore"):  # the printed arithmetic, unused
                got = _PUBLISHED[meas](r)[1]
            assert got.tobytes() == want.tobytes(), meas

    def test_weitzman_variance_limit_at_one(self):
        # (slope)^2 has the two-sided limit exp(-2) at the kink
        d = SrsDesign(20)
        v, _ = delta_terms("delta", 1.0, METHOD_SRS, d, d, SOURCE_DERIVED)
        factor = ratio_variance_factor(METHOD_SRS, d, d)
        assert v == pytest.approx(factor * math.exp(-2.0), rel=1e-12)

    def test_weitzman_published_bias_nan_at_one(self):
        d = SrsDesign(20)
        _, b = delta_terms("delta", 1.0, METHOD_SRS, d, d, SOURCE_AS_PUBLISHED)
        assert math.isnan(b)

    def test_derived_bias_zero_at_one_for_weitzman(self):
        d = SrsDesign(20)
        assert delta_terms("delta", 1.0, METHOD_SRS, d, d, SOURCE_DERIVED)[1] == 0.0


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
        # R = 1 exactly sits inside the block; the printed Weitzman bias has no
        # value there, and its NaN corrected bounds stay at that ratio alone
        ratios = np.insert(self.RATIOS, 100, 1.0)
        block = assess(ratios, method, d1, d2, source, 0.9)
        singles = [assess([r], method, d1, d2, source, 0.9) for r in ratios]
        assert list(block) == list(MEASURES)
        for meas in MEASURES:
            for name in FIELDS:
                got = getattr(block[meas], name)
                assert got.shape == ratios.shape
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
                var, bias = delta_terms(meas, r, method, d1, d2, source)
                assert (var, bias) == (a.variance[k], a.bias[k])
                for corrected, lo, hi, clamped in (
                        (False, a.lo, a.hi, a.clamped),
                        (True, a.lo_corrected, a.hi_corrected, a.clamped_corrected)):
                    iv = confidence_interval(a.point[k], var, bias, 0.9, corrected)
                    assert (iv.lo, iv.hi, iv.clamped) == (lo[k], hi[k], clamped[k])

    def test_published_weitzman_bias_at_one_gives_nan_corrected_bounds(self):
        d = SrsDesign(20)
        block = assess([0.5, 1.0], METHOD_SRS, d, d, SOURCE_AS_PUBLISHED)
        assert math.isnan(block["delta"].bias[1])
        assert np.isnan(block["delta"].lo_corrected).tolist() == [False, True]
        assert np.isnan(block["delta"].hi_corrected).tolist() == [False, True]
        for a in block.values():
            assert np.all(a.lo <= a.hi)
        assert block["delta"].lo_corrected[0] <= block["delta"].hi_corrected[0]

    def test_rss_requires_ranked_designs(self):
        # a plain domain error, not a design refusal the study would skip
        with pytest.raises(DomainError) as err:
            assess([0.5], METHOD_RSS, SrsDesign(4), SrsDesign(4))
        assert type(err.value) is DomainError
        assert str(err.value) == "rss variance requires ranked designs"

    @pytest.mark.parametrize("ratios", [[[0.5]], [0.5, 0.0], [math.nan], [0.5, math.inf]])
    def test_rejects_bad_ratios(self, ratios):
        d = SrsDesign(20)
        with pytest.raises(DomainError):
            assess(ratios, METHOD_SRS, d, d)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("source", SOURCES)
    def test_one_ratio_check_names_the_ratio(self, bad, source):
        d1, d2, ranked = SrsDesign(10), SrsDesign(8), RssDesign(2, 4)
        message = "^shape ratio must be positive and finite$"
        with pytest.raises(DomainError, match=message):
            assess([0.5, bad], METHOD_SRS, d1, d2, source)
        with pytest.raises(DomainError, match=message):
            _assess_designs([([0.5], METHOD_SRS, d1, d2), ([bad], METHOD_RSS, ranked, ranked)],
                            source, 0.95)
        # the efficiency grid checks its ratios as a study config does, by name
        with pytest.raises(ConfigError, match="^r_values must be nonempty, positive, and finite$"):
            efficiency_grid(r_values=[0.5, bad], cycles=(8,), source=source)

    @pytest.mark.parametrize("source", SOURCES)
    def test_points_equal_the_public_closed_forms(self, source):
        grid = [5e-324, 0.5, 1.0, 2.0, 1e150, 1.79e308]
        block = assess(grid, METHOD_SRS, SrsDesign(10), SrsDesign(8), source)
        for measure, a in block.items():
            assert a.point.tobytes() == overlap_value(measure, np.array(grid)).tobytes()
