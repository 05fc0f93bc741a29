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
delta-method kernel in ``estimators`` check the ratios once.  The quadrature
routines below work directly on densities in the same transformed variable
and serve as an independent numerical oracle for the closed forms: each
meets its tolerance or raises :class:`QuadratureError`.  They are the
package's only use of SciPy (``quad`` and ``brentq``), which they import
when first called.
"""
from __future__ import annotations

import math

import numpy as np

from .dist_core import DomainError, _as_input_shape, _positive_array

__all__ = [
    "MEASURES",
    "QuadratureError",
    "overlap_value",
    "kl_symmetrized",
    "ovl_by_quadrature",
]

MEASURES = ("rho", "delta", "lambda")

_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


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


# ---------------------------------------------------------------------------
# Quadrature oracles.  Densities are integrated after the substitution
# t = log(1 + 1/x), i.e. x(t) = 1/(e^t - 1), which maps (0, inf) onto itself
# and removes both the power tail at x -> inf and the origin behaviour.  Each
# integrand is built from the log densities plus log|dx/dt|, so a density that
# underflows on its own still counts.  Past _T_MAX, x(t) is below the smallest
# normal float and every integrand is 0; _masses raises where that cuts
# off more of a density than the tolerance allows.
# ---------------------------------------------------------------------------

_T_MAX = math.log1p(1.0 / _TINY)  # t(x) at the smallest normal x, about 708.4


def _log_terms(f1, f2):
    """t -> (log f1, log f2) at x(t), each plus log|dx/dt|; None past _T_MAX.
    A distribution object gives its logpdf, else the log of its pdf or of the
    bare callable is taken."""
    def log_density(f):
        if callable(getattr(f, "logpdf", None)):
            return lambda x: float(f.logpdf(x))
        pdf = f.pdf if callable(getattr(f, "pdf", None)) else f
        return lambda x: math.log(v) if (v := float(pdf(x))) > 0.0 else -math.inf

    l1, l2 = log_density(f1), log_density(f2)

    def at(t: float):
        if t > _T_MAX:
            return None
        em = -math.expm1(-t)  # 1 - e^-t
        x, logw = math.exp(-t) / em, -t - 2.0 * math.log(em)
        return l1(x) + logw, l2(x) + logw

    return at


def _integral(at, combine, tol, label, cuts=(0.0, np.inf), scale=lambda val: 1.0) -> float:
    """Quadrature in t of ``combine(log f1, log f2)``, 0 past _T_MAX, summed
    over the pieces between ``cuts``; the summed error estimate must be within
    ``tol * scale(value)``."""
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        logs = at(t)
        return 0.0 if logs is None else combine(*logs)

    pieces = [quad(integrand, a, b, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=400)
              for a, b in zip(cuts, cuts[1:])]
    val, err = map(sum, zip(*pieces))
    if not (err <= tol * scale(val) and math.isfinite(val)):
        raise QuadratureError(f"{label} quadrature did not converge to {tol:.1e}", err)
    return val


def _masses(at, tol: float) -> list:
    """Both densities' masses up to _T_MAX.  The mass lost past it, times about
    the largest t, bounds what the divergence, whose log ratio grows like t,
    loses there; above ``tol`` it raises."""
    masses = [_integral(at, lambda *logs, k=k: math.exp(logs[k]), tol, "density mass")
              for k in (0, 1)]
    lost = (1.0 - min(masses)) * _T_MAX
    if lost > tol:
        raise QuadratureError("a density has mass where x(t) is below the smallest normal float",
                              lost)
    return masses


def _divergence_term(a: float, b: float) -> float:
    # |f1 - f2| * |log f1 - log f2| * w from the log terms, scaled by the larger
    if max(a, b) == -math.inf:
        return 0.0
    gap = abs(a - b)
    return math.exp(max(a, b)) * -math.expm1(-gap) * gap


def kl_symmetrized(f1, f2, tol: float = 1e-8) -> float:
    """Symmetrized divergence integral((f1 - f2) * log(f1/f2)) of two densities
    on (0, inf).

    Parameters
    ----------
    f1, f2 : callable or distribution object
        Densities ``f(x)``, or objects with a ``logpdf`` or ``pdf`` method;
        positive on (0, inf) and integrating to one.
    tol : float
        Absolute error budget; exceeding it, or leaving more than it of a
        density's mass out of reach below the smallest normal float, raises
        :class:`QuadratureError` carrying the achieved error estimate.
    """
    return _divergence(f1, f2, tol)


def _divergence(f1, f2, tol: float, scale=lambda j: 1.0) -> float:
    # split at the density crossing and at 64 times it, so the error estimate
    # sees the narrow peak of the density with the smaller shape
    at = _log_terms(f1, f2)
    _masses(at, tol)
    t_star = _find_crossing(at)
    cuts = (0.0, np.inf) if t_star is None else (0.0, t_star, 64.0 * t_star, np.inf)
    return _integral(at, _divergence_term, tol, "symmetrized divergence", cuts, scale)


def _find_crossing(at) -> float | None:
    # log-density difference in t; one sign change for the exponential pair,
    # bracketed from t = 1e-9 by doublings from 1 up to _T_MAX
    def d(t: float) -> float:
        logs = at(t)
        gap = 0.0 if logs is None else logs[0] - logs[1]
        return gap if math.isfinite(gap) else 0.0

    from scipy.optimize import brentq

    lo = 1e-9
    dlo = d(lo)
    hi = next((h for h in (2.0**k for k in range(10)) if d(h) * dlo < 0.0), None)
    return None if hi is None else float(brentq(d, lo, hi, xtol=1e-13))


def ovl_by_quadrature(f1, f2, measure: str, tol: float = 1e-8) -> float:
    """Numerically evaluate an overlap coefficient from two densities, given
    as for :func:`kl_symmetrized`.

    ``rho`` integrates sqrt(f1*f2); ``delta`` integrates min(f1, f2), with the
    domain split at the density crossing so the kink never sits inside a
    panel; ``lambda`` is 1/(1 + symmetrized divergence).
    """
    _check_measure(measure)
    if measure == "lambda":
        # lambda = 1/(1 + J) moves by dJ/(1 + J)**2: J's budget is tol*(1 + J)**2
        return 1.0 / (1.0 + _divergence(f1, f2, tol, lambda j: (1.0 + j) ** 2))
    at = _log_terms(f1, f2)
    masses = _masses(at, tol)
    if measure == "rho":
        return _integral(at, lambda a, b: math.exp(0.5 * (a + b)), tol, "matusita")

    t_star = _find_crossing(at)
    cuts = (0.0, np.inf) if t_star is None else (0.0, t_star, np.inf)

    def share(pick) -> float:
        return _integral(at, lambda a, b: math.exp(pick(a, b)), tol / 2.0, "weitzman", cuts)

    low = share(min)
    # min + max = f1 + f2: the larger density's share exposes a narrow peak
    # that the quadrature of one piece stepped over
    gap = abs(low + share(max) - sum(masses))
    if gap > tol:
        raise QuadratureError("weitzman quadrature lost mass on a piece", gap)
    return low
