"""Property tests of the three closed-form coefficients on log-spaced ratios:
each lies in [0, 1] and is invariant under R -> 1/R.  Over the whole float
range the delta-method terms stay finite and every interval is ordered."""

import math

import numpy as np
import pytest

from ovlomax.dist_core import DomainError
from ovlomax.estimators import METHODS, SOURCES, assess
from ovlomax.overlap import MEASURES, _terms, overlap_value
from ovlomax.sampling import RssDesign, SrsDesign

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RATIOS = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)
DESIGNS = {"srs": (SrsDesign(10), SrsDesign(8)), "rss": (RssDesign(3, 4), RssDesign(2, 5)),
           "bayes": (SrsDesign(10), SrsDesign(8))}


def extreme_ratios(test):
    # the smallest subnormal, the corrected ratio of four 1e308s against four
    # 1e-300s, a ratio next to the largest float and both neighbours of 1
    for ratio in (5e-324, 1.09e-311, 1.79e308, 1.0 - 2.0**-52, 1.0 + 2.0**-52):
        test = hypothesis.example(ratio=ratio)(test)
    return test


@pytest.mark.parametrize("measure", MEASURES)
@hypothesis.given(exponent=st.floats(-150.0, 150.0))
@hypothesis.example(exponent=math.log10(5.6e-17))
def test_bounded_and_reciprocal(measure, exponent):
    r = 10.0**exponent
    value = overlap_value(measure, r)
    assert 0.0 <= value <= 1.0
    assert abs(value - overlap_value(measure, 1.0 / r)) <= 1e-12


@hypothesis.given(ratio=RATIOS)
@extreme_ratios
def test_elasticities_and_derived_assessment_finite(ratio):
    e, c = _terms(np.array([ratio]))
    assert np.isfinite(e).all() and np.isfinite(c).all()
    for a in assess([ratio], "srs", *DESIGNS["srs"]).values():
        assert np.isfinite(a.variance).all() and (a.variance >= 0.0).all()
        assert np.isfinite(a.bias).all()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("method", METHODS)
@hypothesis.given(ratio=RATIOS)
@hypothesis.example(ratio=1.0)  # the as-published Weitzman bias has no value there
@extreme_ratios
def test_intervals_ordered(method, source, ratio):
    try:
        block = assess([ratio], method, *DESIGNS[method], source=source)
    except DomainError as exc:
        # an as-published variance that is not finite is refused by name
        assert source != "derived" and "variance" in str(exc)
        return
    for a in block.values():
        assert (a.lo <= a.hi).all()
        # NaN corrected bounds exactly where the bias is not finite
        finite = np.isfinite(a.bias)
        assert (np.isnan(a.lo_corrected) != finite).all()
        assert (np.isnan(a.hi_corrected) != finite).all()
        assert (a.lo_corrected[finite] <= a.hi_corrected[finite]).all()
