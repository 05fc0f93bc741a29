"""Property tests of the three closed-form coefficients on log-spaced ratios:
each lies in [0, 1] and is invariant under R -> 1/R."""

import math

import pytest

from ovlomax.overlap import MEASURES, overlap_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("measure", MEASURES)
@hypothesis.given(exponent=st.floats(-150.0, 150.0))
@hypothesis.example(exponent=math.log10(5.6e-17))
def test_bounded_and_reciprocal(measure, exponent):
    r = 10.0**exponent
    value = overlap_value(measure, r)
    assert 0.0 <= value <= 1.0
    assert abs(value - overlap_value(measure, 1.0 / r)) <= 1e-12
