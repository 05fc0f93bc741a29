import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ovlomax.dist_core import (
    DomainError,
    InverseLomax,
    inverse_transform,
    log_transform,
    std_normal_quantile,
)
from ovlomax.estimators import harmonic


class TestDensity:
    def test_pdf_standard_at_one(self):
        # alpha=1, beta=1 collapses to 1/(1+x)^2
        assert InverseLomax(1.0).pdf(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_pdf_matches_quadrature_normalization(self):
        for alpha in (0.3, 1.0, 2.5):
            d = InverseLomax(alpha)
            total, err = scipy.integrate.quad(d.pdf, 0, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_nonnegative_and_finite_at_extremes(self):
        d = InverseLomax(0.7, 2.0)
        x = np.array([1e-300, 1e-10, 1.0, 1e10, 1e300])
        p = d.pdf(x)
        assert np.all(p >= 0.0)
        assert np.all(np.isfinite(p))

    def test_origin_limit_depends_on_shape(self):
        # below one: vanishes; at one: tends to 1/beta; above one: diverges
        x = 1e-12
        assert InverseLomax(0.5).pdf(x) < 1e-6
        assert InverseLomax(1.0).pdf(x) == pytest.approx(1.0, rel=1e-6)
        assert InverseLomax(2.0).pdf(x) > 1e5

    def test_logpdf_agrees_with_log_of_pdf(self):
        d = InverseLomax(1.7, 0.5)
        x = np.array([0.01, 0.5, 3.0, 200.0])
        assert np.allclose(np.exp(d.logpdf(x)), d.pdf(x), rtol=1e-13)

    def test_scale_parameter_rescales(self):
        base, scaled = InverseLomax(0.8, 1.0), InverseLomax(0.8, 5.0)
        x = 2.3
        assert scaled.pdf(x) == pytest.approx(base.pdf(x / 5.0) / 5.0, rel=1e-13)

    def test_invalid_parameters_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                InverseLomax(bad)
            with pytest.raises(DomainError):
                InverseLomax(1.0, bad)


class TestCdfQuantile:
    def test_cdf_example(self):
        assert InverseLomax(1.0).cdf(3.0) == pytest.approx(0.75, abs=1e-15)

    def test_quantile_example(self):
        assert InverseLomax(1.0).quantile(0.75) == pytest.approx(3.0, rel=1e-13)

    def test_cdf_is_integral_of_pdf(self):
        d = InverseLomax(1.4, 2.0)
        for x in (0.2, 1.0, 7.0):
            val, err = scipy.integrate.quad(d.pdf, 0, x, limit=200)
            assert d.cdf(x) == pytest.approx(val, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        d = InverseLomax(0.6, 3.0)
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
        d = InverseLomax(0.9, 1.5)
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
        d = InverseLomax(1.3)
        a = d.sample(50_000, rng)
        b = d.sample_via_exponential(50_000, rng)
        stat = scipy.stats.ks_2samp(a, b)
        assert stat.pvalue > 0.001

    def test_sample_deterministic_per_seed(self):
        d = InverseLomax(1.0)
        x1 = d.sample(10, np.random.default_rng(5))
        x2 = d.sample(10, np.random.default_rng(5))
        assert np.array_equal(x1, x2)

    def test_scale_acts_multiplicatively_on_samples(self):
        a = InverseLomax(0.8, 1.0).sample(100, np.random.default_rng(3))
        b = InverseLomax(0.8, 4.0).sample(100, np.random.default_rng(3))
        assert np.allclose(b, 4.0 * a, rtol=1e-12)

    def test_shape_column_draws_each_row_from_its_own_law(self, rng):
        u = rng.random((4, 7))
        u[0, 0] = 0.0  # nudged inside, as from_uniform does
        shapes = np.array([0.05, 1.0, 2.5, 40.0])
        block = inverse_transform(u, shapes[:, None], 3.0)
        assert block.shape == u.shape
        for row, alpha in zip(range(4), shapes.tolist()):
            want = InverseLomax(alpha, 3.0).from_uniform(u[row])
            assert block[row].tobytes() == want.tobytes()
        assert np.all(block > 0.0)


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


COUNT_ARGUMENTS = {
    "InverseLomax.sample": lambda v: InverseLomax(1.0).sample(v, np.random.default_rng(0)),
    "InverseLomax.sample_via_exponential":
        lambda v: InverseLomax(1.0).sample_via_exponential(v, np.random.default_rng(0)),
    "harmonic": harmonic,
}


@pytest.mark.parametrize("bad", [True, 0, 2.5])
@pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
def test_counts_must_be_positive_integers(call, bad):
    with pytest.raises(DomainError, match="must be a positive integer"):
        call(bad)
    call(np.int64(3))  # numpy integers are counts too
