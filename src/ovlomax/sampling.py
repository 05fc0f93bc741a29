"""Simple random sampling and ranked set sampling from an inverse Lomax law.

Ranked set sampling follows the classic cycle scheme with perfect ranking:
for each cycle ``k`` in ``1..m`` and each rank ``i`` in ``1..r`` a fresh set
of ``r`` independent draws is taken, sorted ascending on the raw values, and
the i-th order statistic is retained.  A design of set size ``r`` with ``m``
cycles therefore consumes ``r*r*m`` raw draws and retains ``n = r*m``.

Because ``log(1 + 1/x)`` is strictly decreasing, the retained rank ``i`` in x
corresponds to rank ``r - i + 1`` of the transformed exponential values; the
test suite pins that correspondence explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_core import DomainError, InverseLomax, _positive_int

__all__ = ["SrsDesign", "RssDesign", "RankedSample", "draw_srs", "draw_rss", "rss_retained"]


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
    the array shape is ``(r, m)``.
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
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("ranked sample values must be positive and finite")
        object.__setattr__(self, "values", arr)


def draw_srs(d: InverseLomax, design: SrsDesign, rng: np.random.Generator) -> np.ndarray:
    """Draw ``design.n`` independent values; deterministic given the stream state."""
    return d.sample(design.n, rng)


def draw_rss(d: InverseLomax, design: RssDesign, rng: np.random.Generator) -> RankedSample:
    """Draw a full ranked set sample.

    All ``r*r*m`` raw values come from one block of the stream, laid out as
    ``(cycle, rank-set, draw)``, each set is sorted ascending, and set ``i``
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

    The inverse cdf is monotone, so ranking the uniforms a sample is drawn
    from and inverting only the retained ones gives exactly the values of
    ranking the draws; the study engine ranks on the uniforms.
    """
    r, m = design.r, design.m
    ordered = np.sort(raw.reshape(raw.shape[:-1] + (m, r, r)), axis=-1)
    idx = np.arange(r)
    retained = ordered[..., idx, idx]  # (..., m, r): cycle k, set i -> i-th order stat
    return np.ascontiguousarray(np.swapaxes(retained, -1, -2))
