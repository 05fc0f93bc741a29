"""Quadrature oracle for the closed forms of :mod:`ovlomax.overlap`.

The tests' independent numerical check: each overlap coefficient, and the
symmetrized divergence, integrated from two densities.  Each routine meets
its tolerance or raises :class:`QuadratureError`.  SciPy (``quad`` and
``brentq``) is imported when a routine is first called; the package itself
never loads it.
"""
from __future__ import annotations

import math

import numpy as np

from ovlomax.overlap import _check_measure

_TINY = np.finfo(float).tiny


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


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
