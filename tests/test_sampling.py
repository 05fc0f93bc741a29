import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovlomax.dist_core import DomainError, InverseLomax, log_transform
from ovlomax.sampling import (
    RankedSample,
    RssDesign,
    SrsDesign,
    draw_rss,
    draw_srs,
    rss_retained,
)


class TestDesigns:
    def test_sizes(self):
        assert SrsDesign(12).n == 12
        d = RssDesign(r=3, m=8)
        assert (d.r, d.m, d.n) == (3, 8, 24)

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True])
    def test_srs_validation(self, bad):
        with pytest.raises((DomainError, TypeError)):
            SrsDesign(bad)

    def test_rss_validation(self):
        with pytest.raises((DomainError, TypeError)):
            RssDesign(r=0, m=5)
        with pytest.raises((DomainError, TypeError)):
            RssDesign(r=2, m=-1)


class TestDrawSrs:
    def test_shape_and_positivity(self, rng):
        x = draw_srs(InverseLomax(1.0), SrsDesign(50), rng)
        assert x.shape == (50,)
        assert np.all(x > 0)

    def test_deterministic(self):
        d = InverseLomax(0.6)
        a = draw_srs(d, SrsDesign(5), np.random.default_rng(1))
        b = draw_srs(d, SrsDesign(5), np.random.default_rng(1))
        assert np.array_equal(a, b)


class TestDrawRss:
    def test_shape(self, rng):
        ranked = draw_rss(InverseLomax(1.0), RssDesign(r=4, m=6), rng)
        assert ranked.values.shape == (4, 6)
        assert ranked.design == RssDesign(r=4, m=6)

    def test_consumes_r_squared_per_cycle(self, rng):
        # r*r raw draws per cycle, m cycles in total
        d = InverseLomax(1.0)
        state_rng = np.random.default_rng(9)
        draw_rss(d, RssDesign(r=3, m=4), state_rng)
        probe = state_rng.random()
        ref_rng = np.random.default_rng(9)
        ref_rng.random(3 * 3 * 4)
        assert probe == ref_rng.random()

    def test_block_of_uniform_rows_matches_per_row_draws(self):
        # one row of uniforms per stream, transformed as a block, gives the
        # samples each stream would have drawn on its own
        d, design = InverseLomax(0.7), RssDesign(r=3, m=4)
        k = design.m * design.r**2
        u = np.empty((6, k))
        for row in range(6):
            np.random.default_rng(row).random(out=u[row])
        block = rss_retained(d.from_uniform(u), design)
        assert block.shape == (6, 3, 4) and block.flags.c_contiguous
        for row in range(6):
            single = draw_rss(d, design, np.random.default_rng(row)).values
            assert block[row].tobytes() == single.tobytes()
            plain = draw_srs(d, SrsDesign(k), np.random.default_rng(row))
            assert d.from_uniform(u[row]).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("r, m, alpha", [(2, 3, 0.05), (3, 4, 1.0), (4, 2, 7.5),
                                             (5, 3, 40.0)])
    def test_ranking_on_uniforms_equals_ranking_on_draws(self, r, m, alpha):
        # the inverse cdf is increasing, so the study may rank ranked sets on
        # the uniforms and take T of the retained ones only
        d, design = InverseLomax(alpha), RssDesign(r=r, m=m)
        u = np.random.default_rng([r, m]).random((6, m * r * r))
        on_u = d.from_uniform(rss_retained(u, design))
        assert on_u.tobytes() == rss_retained(d.from_uniform(u), design).tobytes()

    @pytest.mark.parametrize("r", range(1, 8))
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 6), lead=st.sampled_from([(), (3,), (2, 3)]),
           seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([0, 1, 2, 5]))
    def test_retained_values_equal_the_sort_byte_for_byte(self, r, m, lead, seed, levels):
        # the comparator networks (r <= 5) and the sort (r >= 6) against an
        # inline sort, on uniforms with exact zeros and, at few levels, ties
        rng = np.random.default_rng(seed)
        u = rng.random(lead + (m * r * r,))
        if levels:
            u = np.floor(u * levels) / levels
        u[rng.random(u.shape) < 0.1] = 0.0
        idx = np.arange(r)
        ordered = np.sort(u.reshape(lead + (m, r, r)), axis=-1)
        want = np.ascontiguousarray(np.swapaxes(ordered[..., idx, idx], -1, -2))
        got = rss_retained(u, RssDesign(r=r, m=m))
        assert got.shape == lead + (r, m) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_degenerate_design_equals_srs(self):
        d = InverseLomax(0.8)
        ranked = draw_rss(d, RssDesign(r=1, m=5), np.random.default_rng(2))
        plain = draw_srs(d, SrsDesign(5), np.random.default_rng(2))
        assert np.allclose(np.sort(ranked.values.ravel()), np.sort(plain))

    def test_row_means_increase_with_rank(self):
        # judgment ranking on raw values: higher rank rows sit higher
        d = InverseLomax(1.0)
        ranked = draw_rss(d, RssDesign(r=4, m=4000), np.random.default_rng(3))
        medians = np.median(ranked.values, axis=1)
        assert np.all(np.diff(medians) > 0)

    def test_rank_maps_to_reversed_exponential_order(self):
        # ascending raw ranks reverse under t = log(1 + 1/x): the top raw
        # rank in a set of 2 behaves like the minimum of 2 exponentials
        alpha = 1.0
        ranked = draw_rss(InverseLomax(alpha), RssDesign(r=2, m=200_000),
                          np.random.default_rng(4))
        t = log_transform(ranked.values)
        top_mean = t[1].mean()     # raw rank 2 of 2
        bottom_mean = t[0].mean()  # raw rank 1 of 2
        assert top_mean == pytest.approx(alpha / 2, rel=0.02)
        assert bottom_mean == pytest.approx(1.5 * alpha, rel=0.02)


class TestRankedSample:
    def test_validates_shape(self):
        with pytest.raises(DomainError):
            RankedSample(values=np.ones((2, 3)), design=RssDesign(r=3, m=2))

    def test_validates_positivity(self):
        vals = np.ones((2, 2))
        vals[0, 0] = -1.0
        with pytest.raises(DomainError):
            RankedSample(values=vals, design=RssDesign(r=2, m=2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_values_that_are_not_positive_and_finite_are_named(self, bad):
        vals = np.ones((2, 2))
        vals[1, 1] = bad
        with pytest.raises(DomainError, match="^ranked sample values must be positive and finite$"):
            RankedSample(values=vals, design=RssDesign(r=2, m=2))

    @pytest.mark.filterwarnings("error")
    def test_values_below_the_float_range_are_refused_when_built(self):
        # as parsed data and draws are, before any estimate takes their 1/x
        vals = np.ones((2, 2))
        vals[1, 0] = 1e-320
        message = (r"^1 of 4 values lie below the smallest normal float \(2.225e-308\); "
                   "1/x overflows$")
        with pytest.raises(DomainError, match=message):
            RankedSample(values=vals, design=RssDesign(r=2, m=2))
        vals[1, 0] = np.finfo(float).tiny  # both ends of the range are inside it
        vals[0, 1] = np.finfo(float).max
        assert RankedSample(values=vals, design=RssDesign(r=2, m=2)).values[1, 0] > 0.0
