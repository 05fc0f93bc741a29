import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ovlomax.dist_core import (
    _NEG_LOG_U_MAX,
    _NEG_LOG_U_MIN,
    DomainError,
    InverseLomax,
    _from_t,
    _t_of_uniform,
    log_transform,
    std_normal_quantile,
)
from ovlomax.estimators import harmonic


class TestDensity:
    def test_pdf_standard_at_one(self):
        # alpha=1 collapses to 1/(1+x)^2
        assert InverseLomax(1.0).pdf(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_pdf_matches_quadrature_normalization(self):
        for alpha in (0.3, 1.0, 2.5):
            d = InverseLomax(alpha)
            total, err = scipy.integrate.quad(d.pdf, 0, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_nonnegative_and_finite_at_extremes(self):
        d = InverseLomax(0.7)
        x = np.array([1e-300, 1e-10, 1.0, 1e10, 1e300])
        p = d.pdf(x)
        assert np.all(p >= 0.0)
        assert np.all(np.isfinite(p))

    def test_origin_limit_depends_on_shape(self):
        # below one: vanishes; at one: tends to 1; above one: diverges
        x = 1e-12
        assert InverseLomax(0.5).pdf(x) < 1e-6
        assert InverseLomax(1.0).pdf(x) == pytest.approx(1.0, rel=1e-6)
        assert InverseLomax(2.0).pdf(x) > 1e5

    def test_logpdf_agrees_with_log_of_pdf(self):
        d = InverseLomax(1.7)
        x = np.array([0.01, 0.5, 3.0, 200.0])
        assert np.allclose(np.exp(d.logpdf(x)), d.pdf(x), rtol=1e-13)

    @pytest.mark.filterwarnings("error")  # 1/x overflows below the smallest normal float
    @pytest.mark.parametrize("alpha", [1000.0, 100.0, 1.0])
    def test_subnormal_x_matches_mpmath(self, alpha):
        x = np.array([5e-324, 1e-310, 2e-308, 0.5])
        d = InverseLomax(alpha)
        cdf, logpdf = d.cdf(x), d.logpdf(x)
        with mpmath.workdps(40):
            for k, xk in enumerate(x.tolist()):
                t, a = mpmath.log1p(1 / mpmath.mpf(xk)), mpmath.mpf(alpha)
                exact_cdf = mpmath.exp(-t / a)
                exact_logpdf = -mpmath.log(a) - 2 * mpmath.log(xk) - (1 + 1 / a) * t
                assert cdf[k] == pytest.approx(float(exact_cdf), rel=1e-12)
                assert logpdf[k] == pytest.approx(float(exact_logpdf), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_pdf_above_the_float_range_is_inf(self):
        # logpdf(5e-324) at alpha = 1000 is 736.8, above log(max float) = 709.8
        d = InverseLomax(1000.0)
        assert d.pdf(5e-324) == math.inf
        assert d.pdf(1e-310) == pytest.approx(math.exp(d.logpdf(1e-310)), rel=1e-15)

    def test_normal_x_keep_the_log1p_of_the_reciprocal(self):
        x = np.array([np.finfo(float).tiny, 1e-300, 0.5, 3.0, 1e300, np.finfo(float).max])
        d = InverseLomax(1.7)
        assert d.cdf(x).tobytes() == np.exp(-np.log1p(1.0 / x) / 1.7).tobytes()
        assert log_transform(x).tobytes() == np.log1p(1.0 / x).tobytes()

    def test_invalid_parameters_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                InverseLomax(bad)

    def test_non_numeric_shape_rejected(self):
        with pytest.raises(DomainError) as exc:
            InverseLomax("x")
        assert type(exc.value) is DomainError
        assert str(exc.value) == "alpha must be a positive finite number"


class TestCdfQuantile:
    def test_cdf_example(self):
        assert InverseLomax(1.0).cdf(3.0) == pytest.approx(0.75, abs=1e-15)

    def test_quantile_example(self):
        assert InverseLomax(1.0).quantile(0.75) == pytest.approx(3.0, rel=1e-13)

    def test_cdf_is_integral_of_pdf(self):
        d = InverseLomax(1.4)
        for x in (0.2, 1.0, 7.0):
            val, err = scipy.integrate.quad(d.pdf, 0, x, limit=200)
            assert d.cdf(x) == pytest.approx(val, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        d = InverseLomax(0.6)
        u = np.linspace(0.01, 0.99, 25)
        assert np.allclose(d.cdf(d.quantile(u)), u, atol=1e-12)

    def test_cdf_monotone_with_limits(self):
        d = InverseLomax(2.0)
        x = np.logspace(-8, 8, 100)
        c = d.cdf(x)
        assert np.all(np.diff(c) > 0)
        assert d.cdf(1e-300) < 1e-10
        assert d.cdf(1e300) > 1 - 1e-10

    def test_quantile_domain(self):
        d = InverseLomax(1.0)
        for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                d.quantile(bad)


class TestSampling:
    def test_sample_matches_cdf(self, rng):
        d = InverseLomax(0.9)
        x = d.sample(100_000, rng)
        stat = scipy.stats.kstest(x, d.cdf)
        assert stat.pvalue > 0.001

    def test_log_transform_is_exponential(self, rng):
        alpha = 0.7
        d = InverseLomax(alpha)
        t = log_transform(d.sample(100_000, rng))
        stat = scipy.stats.kstest(t, scipy.stats.expon(scale=alpha).cdf)
        assert stat.pvalue > 0.001

    def test_two_sampling_paths_agree_in_distribution(self, rng):
        # an independent path: T ~ Exponential(mean alpha), X = 1/(e^T - 1)
        a = InverseLomax(1.3).sample(50_000, rng)
        b = 1.0 / np.expm1(rng.exponential(1.3, 50_000))
        stat = scipy.stats.ks_2samp(a, b)
        assert stat.pvalue > 0.001

    def test_sample_deterministic_per_seed(self):
        d = InverseLomax(1.0)
        x1 = d.sample(10, np.random.default_rng(5))
        x2 = d.sample(10, np.random.default_rng(5))
        assert np.array_equal(x1, x2)

    def test_zero_uniform_is_nudged_inside(self):
        # u = 0 becomes the smallest normal float; at alpha = 0.5 its draw,
        # 1 / expm1(354.2), is still a normal float
        x = InverseLomax(0.5).from_uniform(np.array([0.0, 0.5]))
        assert 0.0 < x[0] < x[1]

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
    @pytest.mark.parametrize("draw", ["sample"])
    def test_draws_below_the_float_range_are_refused(self, draw, rng):
        # at alpha = 1000 about half the law lies below the smallest normal
        # float; a clamped x would give a mean T near 510 instead of 1000
        with pytest.raises(DomainError, match=r"\d+ of 20000 values lie below"):
            getattr(InverseLomax(1000.0), draw)(20000, rng)

    def test_quantile_below_the_float_range_is_refused(self):
        d = InverseLomax(1000.0)
        assert d.quantile(0.9) > 0.0
        with pytest.raises(DomainError, match="1 of 2 values"):
            d.quantile(np.array([0.9, 0.1]))

    @pytest.mark.filterwarnings("error")  # refused by name, with no overflow warning
    @pytest.mark.parametrize("alpha, u", [(1e-310, 0.5), (5e-324, 1.0 - 2.0**-53),
                                          (1e-300, 1.0 - 2.0**-53)])
    def test_quantile_above_the_float_range_is_refused(self, alpha, u):
        message = (r"^1 of 1 values lie above the largest float \(1.798e\+308\); "
                   "too small a shape for x$")
        with pytest.raises(DomainError, match=message):
            InverseLomax(alpha).quantile(u)

    @pytest.mark.filterwarnings("error")
    def test_draws_at_the_largest_shape_are_refused_without_a_warning(self, rng):
        # T = alpha * -log(u) overflows, and its x = 1 / expm1(inf) is 0
        d = InverseLomax(float(np.finfo(float).max))
        with pytest.raises(DomainError, match="^3 of 3 values lie below"):
            d.sample(3, rng)
        with pytest.raises(DomainError, match="^1 of 1 values lie below"):
            d.quantile(1e-300)

    def test_the_x_map_refuses_both_ends_of_the_float_range(self):
        # its callers let t = 0 and an infinite t through numpy's checks
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(DomainError, match="^2 of 3 values lie above the largest float"):
                _from_t(np.array([0.0, 1e-320, 1.0]))
            with pytest.raises(DomainError, match="^1 of 2 values lie below the smallest"):
                _from_t(np.array([np.inf, 1.0]))
            assert _from_t(np.array([1.0])).tolist() == [1.0 / np.expm1(1.0)]

    def test_one_draw_map_serves_the_samplers_and_the_study(self, rng):
        u = rng.random((4, 6))
        u[0, 0], u[1, 1] = 0.0, 1.0 - 2.0**-53
        alpha = np.array([[0.5], [1.0], [3.0], [1e-3]])
        t = _t_of_uniform(u, alpha)
        assert t.tobytes() == (-alpha * np.log(np.maximum(u, np.finfo(float).tiny))).tobytes()
        assert u[0, 0] == 0.0  # the uniforms are left as they were
        expected = (1.0 / np.expm1(_t_of_uniform(u, 0.5))).tobytes()
        assert InverseLomax(0.5).from_uniform(u).tobytes() == expected
        # the bounds of -log(u) that StudyConfig checks are the map's at its extremes
        ends = _t_of_uniform(np.array([0.0, 1.0 - 2.0**-53]), 1.0)
        assert ends.tolist() == [_NEG_LOG_U_MAX, _NEG_LOG_U_MIN]


class TestLogTransform:
    def test_roundtrip_with_quantile(self):
        # T = log(1 + 1/X) turns the quantile formula into -alpha*log(u)
        d = InverseLomax(2.0)
        u = np.array([0.1, 0.5, 0.9])
        t = log_transform(d.quantile(u))
        assert np.allclose(t, -2.0 * np.log(u), rtol=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_transform(np.array([1.0, -2.0]))


class TestStdNormalQuantile:
    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for p in (0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999):
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
            assert std_normal_quantile(p) == pytest.approx(exact, abs=1e-12)

    def test_relative_error_across_the_lower_tail(self):
        # log-spaced p down to 1e-300 plus the upper points of the usual
        # interval levels; the mpmath reference carries 40 digits beyond the
        # ones that 2p - 1 spends on its distance from -1
        levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
        ps = [*np.logspace(-300.0, math.log10(0.5), 61, endpoint=False),
              *(1.0 - (1.0 - lv) / 2.0 for lv in levels)]
        for p in map(float, ps):
            with mpmath.workdps(40 + math.ceil(-math.log10(p))):
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
                rel = float(abs((std_normal_quantile(p) - exact) / exact))
            assert rel <= 1e-15, (p, rel)

    def test_frozen_975(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_reflection_exact_on_representable_complements(self):
        # dyadic p make (p, 1-p) exact float complements; the shared-branch
        # reflection then gives bit-identical magnitudes
        for p in (0.25, 0.75, 0.0625, 0.9375, 0.5):
            assert std_normal_quantile(p) == -std_normal_quantile(1.0 - p)
        assert std_normal_quantile(0.5) == 0.0

    def test_reflection_within_one_ulp_otherwise(self):
        # 0.025 and 1-0.025 are not exact complements as doubles, so their
        # true quantiles differ in the last place; nothing worse may creep in
        for p in (0.025, 0.1, 0.4):
            a = std_normal_quantile(p)
            b = -std_normal_quantile(1.0 - p)
            assert a == pytest.approx(b, rel=5e-16)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)

    def test_half_is_positive_zero_and_non_finite_p_are_refused(self):
        assert math.copysign(1.0, std_normal_quantile(0.5)) == 1.0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"^p must lie strictly inside \(0, 1\)$"):
                std_normal_quantile(bad)


COUNT_ARGUMENTS = {
    "InverseLomax.sample": lambda v: InverseLomax(1.0).sample(v, np.random.default_rng(0)),
    "harmonic": harmonic,
}


@pytest.mark.parametrize("bad", [True, 0, 2.5])
@pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
def test_counts_must_be_positive_integers(call, bad):
    with pytest.raises(DomainError, match="must be a positive integer"):
        call(bad)
    call(np.int64(3))  # numpy integers are counts too
