"""Overlap coefficients of two inverse Lomax densities sharing a scale.

For shapes ``alpha1, alpha2`` every measure depends on the data only through
the shape ratio ``R = alpha1/alpha2``:

* Matusita's coefficient       rho(R)    = 2*sqrt(R) / (R + 1)
* Weitzman's coefficient       delta(R)  = 1 - R**(1/(1-R)) * |1 - 1/R|
* Divergence-based coefficient lambda(R) = R / (R**2 - R + 1)

The closed forms follow from the change of variables ``t = log(1 + 1/x)``,
which turns both densities into exponentials with means ``alpha1, alpha2``.
The quadrature routines below work directly on density callables in the same
transformed variable and serve as an independent numerical oracle for the
closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .dist_core import DomainError, _as_input_shape, _positive_array

__all__ = [
    "MEASURES",
    "OverlapTriple",
    "QuadratureError",
    "matusita_rho",
    "weitzman_delta",
    "kl_lambda",
    "overlap_value",
    "overlap_grad",
    "overlap_grad_sq",
    "overlap_curvature",
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


def matusita_rho(ratio) -> float | np.ndarray:
    """Matusita overlap 2*sqrt(R)/(R+1); equals 1 iff R == 1."""
    r = _positive_array("shape ratio", ratio)
    return _as_input_shape(2.0 * np.sqrt(r) / (r + 1.0), ratio)


def weitzman_delta(ratio) -> float | np.ndarray:
    """Weitzman overlap 1 - R**(1/(1-R)) * |1 - 1/R|, continuously extended to 1 at R=1.

    Written through log1p/expm1 so the R -> 1 neighbourhood is evaluated by a
    cancellation-free limit path rather than the raw power.
    """
    r = _positive_array("shape ratio", ratio)
    e = r - 1.0
    safe = np.where(e == 0.0, 1.0, e)
    # R**(1/(1-R)) = exp(log(R)/(1-R)) = exp(-log1p(R-1)/(R-1))
    power = np.exp(-np.log1p(e) / safe)
    out = np.where(e == 0.0, 1.0, 1.0 - power * np.abs(e) / r)
    return _as_input_shape(out, ratio)


def kl_lambda(ratio) -> float | np.ndarray:
    """Divergence overlap R/(R**2 - R + 1) = 1/(1 + J) for the symmetrized
    divergence J = (R-1)**2 / R of the transformed exponential pair."""
    r = _positive_array("shape ratio", ratio)
    return _as_input_shape(r / (r * r - r + 1.0), ratio)


_VALUES = {"rho": matusita_rho, "delta": weitzman_delta, "lambda": kl_lambda}


def overlap_value(measure: str, ratio) -> float | np.ndarray:
    try:
        fn = _VALUES[measure]
    except KeyError:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}") from None
    return fn(ratio)


@dataclass(frozen=True)
class OverlapTriple:
    """All three coefficients evaluated at a common shape ratio."""

    rho: float
    delta: float
    lam: float

    @classmethod
    def from_ratio(cls, ratio: float) -> "OverlapTriple":
        return cls(
            rho=float(matusita_rho(ratio)),
            delta=float(weitzman_delta(ratio)),
            lam=float(kl_lambda(ratio)),
        )

    def as_dict(self) -> dict:
        return {"rho": self.rho, "delta": self.delta, "lambda": self.lam}

    def as_tuple(self) -> tuple:
        return (self.rho, self.delta, self.lam)


# ---------------------------------------------------------------------------
# First and second derivatives in R, used by the delta-method machinery.
# All expressions were derived by hand and are validated against central
# finite differences in the test suite.
# ---------------------------------------------------------------------------


def _delta_power_a(r: np.ndarray) -> np.ndarray:
    # A(R) = R**(R/(1-R)); limit exp(-1) at R=1.
    e = r - 1.0
    safe = np.where(e == 0.0, 1.0, e)
    return np.where(e == 0.0, math.exp(-1.0), np.exp(-r * np.log1p(e) / safe))


def overlap_grad(measure: str, ratio) -> float | np.ndarray:
    """dg/dR.  For delta the derivative is piecewise (a kink at R=1, where
    the one-sided slopes are +-exp(-1)); exactly at R=1 it returns NaN."""
    r = _positive_array("shape ratio", ratio)
    if measure == "rho":
        out = (1.0 - r) / (np.sqrt(r) * (1.0 + r) ** 2)
    elif measure == "lambda":
        out = (1.0 - r * r) / (r * r - r + 1.0) ** 2
    elif measure == "delta":
        e = r - 1.0
        safe = np.where(e == 0.0, 1.0, e)
        a = _delta_power_a(r)
        base = a * np.log1p(e) / safe  # -A*log(R)/(1-R); positive for R<1
        out = np.where(r < 1.0, base, -base)
        out = np.where(e == 0.0, np.nan, out)
    else:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    return _as_input_shape(out, ratio)


def overlap_grad_sq(measure: str, ratio) -> float | np.ndarray:
    """(dg/dR)**2 with the delta kink closed by its two-sided limit exp(-2)."""
    r = _positive_array("shape ratio", ratio)
    if measure == "delta":
        e = r - 1.0
        safe = np.where(e == 0.0, 1.0, e)
        a = _delta_power_a(r)
        out = np.where(e == 0.0, math.exp(-2.0), (a * np.log1p(e) / safe) ** 2)
        return _as_input_shape(out, ratio)
    g = overlap_grad(measure, r)
    return _as_input_shape(np.asarray(g) ** 2, ratio)


def overlap_curvature(measure: str, ratio) -> float | np.ndarray:
    """d2g/dR2.

    delta's second derivative jumps at R=1 (one-sided limits -+exp(-1));
    exactly at R=1 the symmetric value 0 is returned so that bias
    corrections at the symmetry point leave the estimate unshifted.
    """
    r = _positive_array("shape ratio", ratio)
    if measure == "rho":
        out = (3.0 * r * r - 6.0 * r - 1.0) / (2.0 * r**1.5 * (1.0 + r) ** 3)
    elif measure == "lambda":
        out = 2.0 * (r**3 - 3.0 * r + 1.0) / (r * r - r + 1.0) ** 3
    elif measure == "delta":
        e = r - 1.0
        safe = np.where(e == 0.0, 1.0, e)
        logr = np.log1p(e)
        a = _delta_power_a(r)
        num = logr**2 - 2.0 * safe * logr + safe**2 / r
        body = a * num / (-safe) ** 3
        # concave side below the kink, convex side above it
        out = np.where(r < 1.0, -body, body)
        out = np.where(e == 0.0, 0.0, out)
    else:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    return _as_input_shape(out, ratio)


# ---------------------------------------------------------------------------
# Quadrature oracles.  Densities are integrated after the substitution
# t = log(1 + 1/x), i.e. x(t) = 1/(e^t - 1), which maps (0, inf) onto itself
# and removes both the power tail at x -> inf and the origin behaviour.
# ---------------------------------------------------------------------------


def _x_of_t(t: float) -> float:
    # 1/(e^t - 1) written overflow-free as e^-t / (1 - e^-t)
    em = -math.expm1(-t)
    if em <= 0.0:
        return _TINY
    return max(math.exp(-t) / em, _TINY)


def _weight(t: float) -> float:
    # |dx/dt| = e^-t / (1 - e^-t)**2
    em = -math.expm1(-t)
    if em <= 0.0:
        return 0.0
    return math.exp(-t) / em**2


def _quad_checked(fn, a, b, tol, label):
    val, err = quad(fn, a, b, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=400)
    if err > tol:
        raise QuadratureError(f"{label} quadrature did not converge to {tol:.1e}", err)
    return val


def _as_density(f):
    # accept either a bare callable f(x) or a distribution object with .pdf
    pdf = getattr(f, "pdf", None)
    return pdf if callable(pdf) else f


def kl_symmetrized(f1, f2, tol: float = 1e-8) -> float:
    """Symmetrized divergence integral((f1 - f2) * log(f1/f2)) of two densities
    on (0, inf), given as callables ``f(x) -> density``.

    Parameters
    ----------
    f1, f2 : callable
        Density functions, positive on (0, inf) and integrating to one.
    tol : float
        Absolute error budget; exceeding it raises :class:`QuadratureError`
        carrying the achieved error estimate.
    """
    f1, f2 = _as_density(f1), _as_density(f2)

    def integrand(t: float) -> float:
        w = _weight(t)
        if w == 0.0:
            return 0.0
        x = _x_of_t(t)
        a, b = float(f1(x)), float(f2(x))
        if a <= 0.0 or b <= 0.0:
            # both tails underflow together for the laws of interest
            return 0.0
        return (a - b) * (math.log(a) - math.log(b)) * w

    return _quad_checked(integrand, 0.0, np.inf, tol, "symmetrized divergence")


def _find_crossing(f1, f2, tol: float) -> float | None:
    # log-density difference in t; one sign change for the exponential pair
    def d(t: float) -> float:
        x = _x_of_t(t)
        a, b = float(f1(x)), float(f2(x))
        if a <= 0.0 or b <= 0.0:
            return 0.0
        return math.log(a) - math.log(b)

    lo = 1e-9
    dlo = d(lo)
    if dlo == 0.0:
        return None
    hi = 1.0
    for _ in range(60):
        if d(hi) * dlo < 0.0:
            return float(brentq(d, lo, hi, xtol=1e-13))
        hi *= 2.0
        if hi > 1e9:
            break
    return None


def ovl_by_quadrature(f1, f2, measure: str, tol: float = 1e-8) -> float:
    """Numerically evaluate an overlap coefficient from two density callables.

    ``rho`` integrates sqrt(f1*f2); ``delta`` integrates min(f1, f2), with the
    domain split at the density crossing so the kink never sits inside a
    panel; ``lambda`` is 1/(1 + symmetrized divergence).
    """
    if measure not in MEASURES:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    f1, f2 = _as_density(f1), _as_density(f2)

    if measure == "lambda":
        return 1.0 / (1.0 + kl_symmetrized(f1, f2, tol=tol))

    if measure == "rho":

        def integrand(t: float) -> float:
            w = _weight(t)
            if w == 0.0:
                return 0.0
            x = _x_of_t(t)
            return math.sqrt(float(f1(x)) * float(f2(x))) * w

        return _quad_checked(integrand, 0.0, np.inf, tol, "matusita")

    def integrand(t: float) -> float:
        w = _weight(t)
        if w == 0.0:
            return 0.0
        x = _x_of_t(t)
        return min(float(f1(x)), float(f2(x))) * w

    t_star = _find_crossing(f1, f2, tol)
    if t_star is None:
        return _quad_checked(integrand, 0.0, np.inf, tol, "weitzman")
    left = _quad_checked(integrand, 0.0, t_star, tol / 2.0, "weitzman (left)")
    right = _quad_checked(integrand, t_star, np.inf, tol / 2.0, "weitzman (right)")
    return left + right
