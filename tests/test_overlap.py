import math
import sys

import mpmath
import numpy as np
import pytest

from conftest import curvature, slope
from ovlomax.dist_core import DomainError, InverseLomax
from ovlomax.overlap import _CORES, MEASURES, _terms, overlap_value
from quadrature import QuadratureError, kl_symmetrized, ovl_by_quadrature

GRID = np.concatenate([np.logspace(-2, 0, 40, endpoint=False), np.logspace(0, 2, 40)])
# log-spaced ratios (1 itself left out) and the neighbours 1 +- 10**-k of the symmetry point
ELASTICITY_GRID = [x for x in np.logspace(-5, 5, 81).tolist() if x != 1.0] + [
    1.0 + t * 10.0**-k for k in range(1, 16) for t in (-1.0, 1.0)]


def elasticity_references(measure: str, x: float) -> tuple:
    """50-digit e = R*g'(R) and c = R**2*g''(R) at the float ``x``, from the
    closed-form slope and curvature in R."""
    with mpmath.workdps(50):
        r = mpmath.mpf(x)
        if measure == "rho":
            slope = (1 - r) / (mpmath.sqrt(r) * (1 + r) ** 2)
            curvature = (3 * r * r - 6 * r - 1) / (2 * r**1.5 * (1 + r) ** 3)
        elif measure == "lambda":
            q = r * r - r + 1
            slope, curvature = (1 - r * r) / q**2, 2 * (r**3 - 3 * r + 1) / q**3
        else:
            # g = 1 - A * |1 - R| with A = R**(R/(1-R)); both terms flip sign at the kink
            d, log = r - 1, mpmath.log(r)
            a = mpmath.exp(-r * log / d)
            sign = 1 if r < 1 else -1
            slope = sign * a * log / d
            curvature = sign * a * (log**2 - 2 * d * log + d**2 / r) / d**3
        return r * slope, r * r * curvature


class TestClosedForms:
    def test_frozen_values_at_half(self):
        assert overlap_value("rho", 0.5) == pytest.approx(0.9428090415820634, abs=1e-15)
        assert overlap_value("delta", 0.5) == pytest.approx(0.75, abs=1e-12)
        assert overlap_value("lambda", 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_identical_populations_give_one(self):
        for meas in MEASURES:
            assert overlap_value(meas, 1.0) == 1.0

    def test_reciprocity_frozen(self):
        assert overlap_value("delta", 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_vectorized_shape_preserved(self):
        r = np.array([[0.5, 1.0], [2.0, 0.1]])
        for meas in MEASURES:
            out = overlap_value(meas, r)
            assert out.shape == r.shape

    def test_bounds_on_grid(self):
        for meas in MEASURES:
            v = overlap_value(meas, GRID)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_reciprocity_on_grid(self):
        for meas in MEASURES:
            a = overlap_value(meas, GRID)
            b = overlap_value(meas, 1.0 / GRID)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_piecewise_monotone(self):
        below = np.linspace(0.01, 0.999, 200)
        above = np.linspace(1.001, 100.0, 200)
        for meas in MEASURES:
            assert np.all(np.diff(overlap_value(meas, below)) > 0)
            assert np.all(np.diff(overlap_value(meas, above)) < 0)

    def test_delta_continuous_at_one(self):
        for eps in (1e-6, 1e-9):
            assert overlap_value("delta", 1.0 - eps) == pytest.approx(1.0, abs=1e-5)
            assert overlap_value("delta", 1.0 + eps) == pytest.approx(1.0, abs=1e-5)

    def test_delta_closed_form_branches(self):
        # R < 1 branch equals 1 - R^(R/(1-R)) + R^(1/(1-R)) written directly
        for r in (0.1, 0.3, 0.7):
            direct = 1.0 - r ** (r / (1 - r)) + r ** (1 / (1 - r))
            assert overlap_value("delta", r) == pytest.approx(direct, rel=1e-13)

    def test_delta_and_slope_accurate_below_half(self):
        # below R = 1/2 both come from log R itself, not from log1p(R - 1):
        # held to 400-digit references down to subnormal ratios
        r = np.geomspace(1e-311, 0.5, 301)[:-1]
        with mpmath.workdps(400):
            xs = [mpmath.mpf(x) for x in r.tolist()]
            power = [mpmath.power(x, x / (1 - x)) for x in xs]  # R**(R/(1-R))
            want = [1 - (1 - x) * p for x, p in zip(xs, power)]
            got = overlap_value("delta", r).tolist()
            assert max(abs(mpmath.mpf(v) / w - 1) for v, w in zip(got, want)) <= 4e-16
            want = [p * mpmath.log(x) / (x - 1) for x, p in zip(xs, power)]
            got = slope("delta", r).tolist()
            assert max(abs(mpmath.mpf(v) / w - 1) for v, w in zip(got, want)) <= 1e-15

    def test_delta_accurate_above_two(self):
        # above R = 2 the power form cancels; delta is taken at 1/R instead
        r = np.geomspace(2.0, 1e300, 301)
        with mpmath.workdps(400):
            xs = [mpmath.mpf(x) for x in r.tolist()]
            want = [1 - mpmath.power(x, 1 / (1 - x)) * (1 - 1 / x) for x in xs]
            got = overlap_value("delta", r).tolist()
            assert max(abs(mpmath.mpf(v) / w - 1) for v, w in zip(got, want)) <= 1e-15

    def test_delta_bits_unchanged_from_half_to_two(self):
        r = np.append(np.linspace(0.5, 2.0, 1001), np.nextafter(2.0, 0.0))
        e = r - 1.0
        safe = np.where(e == 0.0, 1.0, e)
        power_form = np.where(e == 0.0, 1.0, 1.0 - np.exp(-np.log1p(e) / safe) * np.abs(e) / r)
        np.testing.assert_array_equal(overlap_value("delta", r), power_form)

    def test_lambda_finite_up_to_the_float_range(self):
        # R**2 overflows above ~1.34e154; the value there is 1/R to 1e-150
        r = np.append(np.geomspace(1e150, 1e308, 101), sys.float_info.max)
        got = overlap_value("lambda", r)
        with mpmath.workdps(50):
            want = [1 / (mpmath.mpf(x) - 1 + 1 / mpmath.mpf(x)) for x in r.tolist()]
            assert max(abs(mpmath.mpf(v) / w - 1) for v, w in zip(got.tolist(), want)) <= 1e-15

    def test_lambda_bits_unchanged_up_to_1e150(self):
        r = np.concatenate([np.geomspace(5e-324, 1e150, 1001), [1.0, 1e150]])
        np.testing.assert_array_equal(overlap_value("lambda", r), r / (r * r - r + 1.0))

    @pytest.mark.parametrize("measure", MEASURES)
    def test_public_forms_equal_their_cores(self, measure):
        grid = [5e-324, 0.5, 1.0, 2.0, 1e150, 1.79e308]
        core = _CORES[measure]
        got = overlap_value(measure, np.array(grid))
        assert got.dtype == np.float64 and got.tobytes() == core(np.array(grid)).tobytes()
        for x in grid:
            got = overlap_value(measure, x)
            assert type(got) is float and np.float64(got).tobytes() == core(np.asarray(x)).tobytes()

    def test_domain_rejected(self):
        for meas in MEASURES:
            with pytest.raises(DomainError):
                overlap_value(meas, 0.0)
            with pytest.raises(DomainError):
                overlap_value(meas, -1.0)
        with pytest.raises(DomainError):
            overlap_value("unknown", 0.5)


class TestDerivatives:
    FD_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 5.0)

    def test_grad_matches_finite_difference(self):
        for meas in MEASURES:
            for r in self.FD_GRID:
                h = 1e-5 * r
                fd = (overlap_value(meas, r + h) - overlap_value(meas, r - h)) / (2 * h)
                g = slope(meas, r)
                assert g == pytest.approx(fd, rel=1e-8, abs=1e-12)

    def test_curvature_matches_finite_difference_of_grad(self):
        for meas in MEASURES:
            for r in self.FD_GRID:
                h = 1e-5 * r
                fd = (slope(meas, r + h) - slope(meas, r - h)) / (2 * h)
                g2 = curvature(meas, r)
                assert g2 == pytest.approx(fd, rel=1e-8, abs=1e-12)

    def test_frozen_curvatures(self):
        # high-precision references from 40-digit numerical differentiation
        assert curvature("rho", 0.5) == pytest.approx(-1.3618352822852026, rel=1e-12)
        assert curvature("delta", 0.5) == pytest.approx(-1.1492233334330245, rel=1e-12)
        assert curvature("delta", 2.0) == pytest.approx(0.1014603368004223, rel=1e-12)
        assert curvature("lambda", 0.5) == pytest.approx(-16.0 / 9.0, rel=1e-12)

    def test_matusita_flat_at_one(self):
        assert slope("rho", 1.0) == 0.0
        assert slope("lambda", 1.0) == 0.0

    def test_weitzman_kink_conventions(self):
        # the squared slope has a two-sided limit at the kink, and the
        # curvature takes the value 0 between its one-sided jumps
        assert slope("delta", 1.0) ** 2 == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert curvature("delta", 1.0) == 0.0

    @pytest.mark.parametrize("measure", MEASURES)
    def test_elasticities_match_50_digit_references(self, measure):
        # e = R*g'(R) and c = R**2*g''(R) as the kernel takes them, held on
        # both sides of R = 1 and next to it; neither term cancels there
        k = MEASURES.index(measure)
        e, c = (q[k].tolist() for q in _terms(np.array(ELASTICITY_GRID)))
        worst_e = worst_c = 0.0
        for x, got_e, got_c in zip(ELASTICITY_GRID, e, c):
            want_e, want_c = elasticity_references(measure, x)
            worst_e = max(worst_e, abs(mpmath.mpf(got_e) / want_e - 1))
            worst_c = max(worst_c, abs(mpmath.mpf(got_c) / want_c - 1))
        assert worst_e <= 2e-15
        assert worst_c <= 5e-14

    def test_weitzman_kink_slopes(self):
        e_inv = math.exp(-1.0)
        assert slope("delta", 1.0 - 1e-9) == pytest.approx(e_inv, rel=1e-6)
        assert slope("delta", 1.0 + 1e-9) == pytest.approx(-e_inv, rel=1e-6)


class TestQuadrature:
    def test_symmetrized_divergence_closed_form(self):
        # for this family the divergence is (R-1)^2/R
        for r in (0.25, 0.5, 2.0):
            f1, f2 = InverseLomax(r), InverseLomax(1.0)
            assert kl_symmetrized(f1, f2) == pytest.approx((r - 1) ** 2 / r, abs=1e-8)

    @pytest.mark.parametrize("r", [0.02, 0.03])
    def test_divergence_counts_points_where_one_density_underflows(self, r):
        # near t = 15 the density of shape 0.02 underflows while the other's
        # does not; its log density still enters the integrand there
        got = kl_symmetrized(InverseLomax(r), InverseLomax(1.0))
        assert got == pytest.approx((r - 1) ** 2 / r, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("r", [1e-6, 1e-4, 30.0, 50.0, 100.0, 1000.0])
    def test_each_value_meets_its_tolerance_or_raises(self, r):
        # a narrow peak near t = 0 (small shapes) or mass below the smallest
        # normal x (large shapes) is reported, never returned as a value
        f1, f2 = InverseLomax(r), InverseLomax(1.0)
        for meas in MEASURES:
            try:
                got = ovl_by_quadrature(f1, f2, meas)
            except QuadratureError:
                continue
            assert got == pytest.approx(overlap_value(meas, r), abs=1e-8), meas
        try:
            got = kl_symmetrized(f1, f2)
        except QuadratureError:
            return
        assert got == pytest.approx((r - 1) ** 2 / r, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_lambda_passes_wherever_rho_passes_at_small_ratios(self):
        # the divergence's peak near t = 0 is as narrow as the smaller shape
        tested = 0
        for r in np.geomspace(7.8e-5, 4.7e-3, 40):
            f1, f2 = InverseLomax(r), InverseLomax(1.0)
            try:
                ovl_by_quadrature(f1, f2, "rho")
            except QuadratureError:
                continue
            got = ovl_by_quadrature(f1, f2, "lambda")
            assert abs(got - overlap_value("lambda", r)) <= 1e-8, r
            tested += 1
        assert tested >= 30

    def test_overlap_matches_closed_forms(self):
        f1, f2 = InverseLomax(0.5), InverseLomax(1.0)
        for meas in MEASURES:
            assert ovl_by_quadrature(f1, f2, meas) == pytest.approx(
                overlap_value(meas, 0.5), abs=1e-8
            )

    def test_scale_invariance(self):
        # a common scale cancels out of every measure: 7 * X has density
        # f(x / 7) / 7 when X has density f
        f1, f2 = InverseLomax(0.5), InverseLomax(1.0)
        g1, g2 = (lambda x: f1.pdf(x / 7) / 7), (lambda x: f2.pdf(x / 7) / 7)
        for meas in MEASURES:
            assert ovl_by_quadrature(g1, g2, meas) == pytest.approx(
                overlap_value(meas, 0.5), abs=1e-7)

    def test_accepts_bare_callables(self):
        f1, f2 = InverseLomax(2.0), InverseLomax(1.0)
        v = ovl_by_quadrature(f1.pdf, f2.pdf, "rho")
        assert v == pytest.approx(overlap_value("rho", 2.0), abs=1e-8)

    def test_identical_densities_integrate_to_one(self):
        f = InverseLomax(1.0)
        for meas in MEASURES:
            assert ovl_by_quadrature(f, f, meas) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unreachable_tolerance_raises(self):
        f1, f2 = InverseLomax(0.5), InverseLomax(1.0)
        with pytest.raises(QuadratureError) as exc:
            ovl_by_quadrature(f1, f2, "rho", tol=1e-300)
        assert exc.value.achieved > 0.0

    def test_unknown_measure_rejected(self):
        with pytest.raises(DomainError):
            ovl_by_quadrature(InverseLomax(1.0), InverseLomax(2.0), "nope")
