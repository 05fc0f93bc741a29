"""Simple random sampling and ranked set sampling from an inverse Lomax law.

Ranked set sampling follows the classic cycle scheme with perfect ranking:
for each cycle ``k`` in ``1..m`` and each rank ``i`` in ``1..r`` a fresh set
of ``r`` independent draws is taken, sorted ascending on the raw values, and
the i-th order statistic is retained.  A design of set size ``r`` with ``m``
cycles therefore consumes ``r*r*m`` raw draws and retains ``n = r*m``.

Sets of ``r <= 5`` are ranked by a fixed min/max comparator network (the
size-optimal one, of 1, 3, 5 or 9 comparators) run over the ``r`` columns of
all sets at once; larger sets go through ``np.sort``.  ``min`` and ``max``
return one of their inputs, so on NaN-free input the network keeps exactly
the values, byte for byte, that the sort keeps.

Because ``log(1 + 1/x)`` is strictly decreasing, the retained rank ``i`` in x
corresponds to rank ``r - i + 1`` of the transformed exponential values; the
test suite pins that correspondence explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_core import DomainError, InverseLomax, _in_range, _positive_int

__all__ = ["SrsDesign", "RssDesign", "RankedSample", "draw_srs", "draw_rss", "rss_retained"]

# size-optimal sorting networks as (low, high) comparator pairs, by set size;
# a set of one is already ranked
_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 2), (0, 1), (1, 2)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4), (1, 3), (1, 2)),
}


@dataclass(frozen=True)
class SrsDesign:
    """A simple random sample of size ``n``."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_int("n", self.n))


@dataclass(frozen=True)
class RssDesign:
    """A ranked set sample with set size ``r`` and ``m`` cycles."""

    r: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "r", _positive_int("r", self.r))
        object.__setattr__(self, "m", _positive_int("m", self.m))

    @property
    def n(self) -> int:
        return self.r * self.m


@dataclass(frozen=True, eq=False)
class RankedSample:
    """Retained order statistics of a ranked set draw.

    ``values[i, k]`` holds the (i+1)-th order statistic from cycle ``k``;
    the array shape is ``(r, m)``; each value lies in the float range of draws.
    """

    values: np.ndarray
    design: RssDesign

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.design.r, self.design.m):
            raise DomainError(
                f"values shape {arr.shape} does not match design "
                f"(r={self.design.r}, m={self.design.m})"
            )
        object.__setattr__(self, "values", _in_range(arr, "ranked sample values", "1/x overflows"))


def draw_srs(d: InverseLomax, design: SrsDesign, rng: np.random.Generator) -> np.ndarray:
    """Draw ``design.n`` independent values; deterministic given the stream state."""
    return d.sample(design.n, rng)


def draw_rss(d: InverseLomax, design: RssDesign, rng: np.random.Generator) -> RankedSample:
    """Draw a full ranked set sample.

    All ``r*r*m`` raw values come from one block of the stream, laid out as
    ``(cycle, rank-set, draw)``, each set is ranked ascending, and set ``i``
    of each cycle contributes its i-th order statistic.  With ``r == 1`` this
    degenerates to a simple random sample of size ``m`` drawing the same
    values as :func:`draw_srs` would.
    """
    raw = d.sample(design.m * design.r * design.r, rng)
    return RankedSample(values=rss_retained(raw, design), design=design)


def rss_retained(raw: np.ndarray, design: RssDesign) -> np.ndarray:
    """Retained order statistics of ranked set draws, over any leading axes.

    The last axis of ``raw`` holds one sample's ``r*r*m`` raw values laid out
    as ``(cycle, rank-set, draw)``.  The result has shape ``(..., r, m)`` in C
    order, rank-major like :attr:`RankedSample.values`.

    Sets of ``r <= 5`` are ranked by the comparator networks of
    :data:`_NETWORKS`, larger ones by ``np.sort``; on NaN-free input both
    give the same bytes.  The inverse cdf is monotone, so ranking the
    uniforms a sample is drawn from and inverting only the retained ones
    gives exactly the values of ranking the draws; the study engine ranks on
    the uniforms.
    """
    r, m = design.r, design.m
    sets = raw.reshape(raw.shape[:-1] + (m, r, r))
    if r in _NETWORKS:
        # column j holds draw j of every set, shaped (..., m, r)
        columns = [sets[..., j] for j in range(r)]
        for a, b in _NETWORKS[r]:
            low, high = columns[a], columns[b]
            columns[a], columns[b] = np.minimum(low, high), np.maximum(low, high)
    else:
        ordered = np.sort(sets, axis=-1)
        columns = [ordered[..., j] for j in range(r)]
    out = np.empty(raw.shape[:-1] + (r, m))
    for i, column in enumerate(columns):
        out[..., i, :] = column[..., i]  # set i keeps its i-th order statistic
    return out
