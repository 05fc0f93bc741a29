"""Overlap coefficients of two inverse Lomax densities sharing a scale.

For shapes ``alpha1, alpha2`` and a common scale, which cancels out, every
measure depends on the data only through the shape ratio ``R = alpha1/alpha2``:

* Matusita's coefficient       rho(R)    = 2*sqrt(R) / (R + 1)
* Weitzman's coefficient       delta(R)  = 1 - R**(1/(1-R)) * |1 - 1/R|
* Divergence-based coefficient lambda(R) = R / (R**2 - R + 1)

The closed forms follow from the change of variables ``t = log(1 + 1/x)``,
which turns both densities into exponentials with means ``alpha1, alpha2``.
Each closed form, and each measure's elasticities e = R*g'(R) and
c = R**2*g''(R), finite over the whole float range, is an unchecked array
function in ``_CORES`` or ``_TERMS``; :func:`overlap_value` and the
delta-method kernel in ``estimators`` check the ratios once.  The tests
check the closed forms against numerical integration of the densities.
"""
from __future__ import annotations

import math

import numpy as np

from .dist_core import DomainError, _as_input_shape, _positive_array

__all__ = ["MEASURES", "overlap_value"]

MEASURES = ("rho", "delta", "lambda")


def _rho(r: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(r) / (r + 1.0)


def _delta(r: np.ndarray) -> np.ndarray:
    # log1p/expm1 keep R -> 1 free of cancellation.  Below R = 1/2, where R - 1
    # is inexact and log1p(R - 1) would amplify its error, the value is
    # -expm1(log1p(-R) + R*log(R)/(1-R)); above R = 2, where the power form
    # cancels, that value at 1/R, since delta(R) = delta(1/R)
    far = (r < 0.5) | (r > 2.0)
    x = np.where(far, 1.0, r)  # a harmless stand-in where the log R form applies
    e = x - 1.0
    safe = np.where(e == 0.0, 1.0, e)
    # R**(1/(1-R)) = exp(log(R)/(1-R)) = exp(-log1p(R-1)/(R-1))
    power = np.exp(-np.log1p(e) / safe)
    out = np.where(e == 0.0, 1.0, 1.0 - power * np.abs(e) / x)
    if far.any():
        s = r[far]
        s[s > 2.0] = 1.0 / s[s > 2.0]
        out[far] = -np.expm1(np.log1p(-s) + s * np.log(s) / (1.0 - s))
    return out


def _lambda(r: np.ndarray) -> np.ndarray:
    # 1/R, within 1e-150 relative, above R = 1e150, where R**2 nears overflow
    x, big = np.minimum(r, 1e150), np.maximum(r, 1e150)
    return np.where(r > 1e150, 1.0 / big, x / (x * x - x + 1.0))


_CORES = {"rho": _rho, "delta": _delta, "lambda": _lambda}


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def overlap_value(measure: str, ratio) -> float | np.ndarray:
    """The closed form of ``measure`` at each shape ratio; a float for a scalar."""
    _check_measure(measure)
    return _as_input_shape(_CORES[measure](_positive_array("shape ratio", ratio)), ratio)


# ---------------------------------------------------------------------------
# Elasticities e = R*g'(R) and c = R**2*g''(R) for the delta-method kernel:
# one array function per measure of s = min(R, 1/R) in (0, 1] and d = s - 1,
# passed in exact.  Every coefficient is invariant under R <-> 1/R, so R > 1
# is reflected once: e(R) = -e(1/R) and c(R) = c(1/R) + 2*e(1/R).  All were
# derived by hand and are validated against 50-digit references in the tests.
# ---------------------------------------------------------------------------


def _rho_terms(s: np.ndarray, d: np.ndarray) -> tuple:
    root = np.sqrt(s)
    return -root * d / (1.0 + s) ** 2, root * (3.0 * s * s - 6.0 * s - 1.0) / (2.0 * (1.0 + s) ** 3)


def _delta_terms(s: np.ndarray, d: np.ndarray) -> tuple:
    # A = s**(s/(1-s)); at s = 1 the slope is a kink (one-sided limits
    # +-exp(-1)), taken from below, and c takes the value 0 between its jumps
    at_one = d == 0.0
    safe = np.where(at_one, -1.0, d)
    # log s from d only from 1/2 up, where d is exact; the clip keeps log1p from -1
    logs = np.where(s < 0.5, np.log(s), np.log1p(np.maximum(d, -0.5)))
    a = np.exp(-s * logs / safe)
    # s*(log s - d)**2/d**3 is O(d), so c has no cancellation next to the kink
    return (np.where(at_one, math.exp(-1.0), a * s * logs / safe),
            np.where(at_one, 0.0, a * s * (s * (logs - safe) ** 2 / safe**3 - 1.0)))


def _lambda_terms(s: np.ndarray, d: np.ndarray) -> tuple:
    q = 1.0 + s * d  # s**2 - s + 1
    return -s * d * (1.0 + s) / q**2, 2.0 * s * s * (s**3 - 3.0 * s + 1.0) / q**3


_TERMS = {"rho": _rho_terms, "delta": _delta_terms, "lambda": _lambda_terms}


def _terms(r: np.ndarray) -> tuple:
    """(e, c) at already checked ratios, as (measure, ratio) arrays."""
    flip = r > 1.0
    s = np.where(flip, 1.0 / np.maximum(r, 1.0), r)
    d = np.where(flip, (1.0 - r) * s, r - 1.0)  # not s - 1: keeps 1 - s accurate near 1
    e, c = (np.array(q) for q in zip(*(_TERMS[m](s, d) for m in MEASURES)))
    return np.where(flip, -e, e), np.where(flip, c + 2.0 * e, c)
