"""Overlap coefficients of two inverse Lomax densities sharing a scale.

For shapes ``alpha1, alpha2`` every measure depends on the data only through
the shape ratio ``R = alpha1/alpha2``:

* Matusita's coefficient       rho(R)    = 2*sqrt(R) / (R + 1)
* Weitzman's coefficient       delta(R)  = 1 - R**(1/(1-R)) * |1 - 1/R|
* Divergence-based coefficient lambda(R) = R / (R**2 - R + 1)

The closed forms follow from the change of variables ``t = log(1 + 1/x)``,
which turns both densities into exponentials with means ``alpha1, alpha2``.
Each closed form, and each measure's elasticities e = R*g'(R) and
c = R**2*g''(R), finite over the whole float range, is an unchecked array
function in ``_CORES`` or ``_TERMS``; the public functions and the kernel
check the ratios once.  The quadrature
routines below work directly on density callables in the same transformed
variable and serve as an independent numerical oracle for the closed forms.
They are the package's only use of SciPy (``quad`` and ``brentq``), which
they import when first called.
"""
from __future__ import annotations

import math

import numpy as np

from .dist_core import DomainError, _as_input_shape, _positive_array

__all__ = [
    "MEASURES",
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


def _rho(r: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(r) / (r + 1.0)


def _delta(r: np.ndarray) -> np.ndarray:
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
    x, big = np.minimum(r, 1e150), np.maximum(r, 1e150)
    return np.where(r > 1e150, 1.0 / big, x / (x * x - x + 1.0))


def matusita_rho(ratio) -> float | np.ndarray:
    """Matusita overlap 2*sqrt(R)/(R+1); equals 1 iff R == 1."""
    return _as_input_shape(_rho(_positive_array("shape ratio", ratio)), ratio)


def weitzman_delta(ratio) -> float | np.ndarray:
    """Weitzman overlap 1 - R**(1/(1-R)) * |1 - 1/R|, continuously extended to 1 at R=1.

    Written through log1p/expm1 so the R -> 1 neighbourhood is evaluated by a
    cancellation-free limit path rather than the raw power.  Below R = 1/2,
    where R - 1 is inexact and log1p(R - 1) would amplify its error, the same
    value is taken as -expm1(log1p(-R) + R*log(R)/(1-R)); above R = 2, where
    the power form cancels, as that value at 1/R, since delta(R) = delta(1/R).
    """
    return _as_input_shape(_delta(_positive_array("shape ratio", ratio)), ratio)


def kl_lambda(ratio) -> float | np.ndarray:
    """Divergence overlap R/(R**2 - R + 1) = 1/(1 + J) for the symmetrized
    divergence J = (R-1)**2 / R of the transformed exponential pair; 1/R,
    within 1e-150 relative, above R = 1e150, where R**2 nears overflow."""
    return _as_input_shape(_lambda(_positive_array("shape ratio", ratio)), ratio)


_CORES = {"rho": _rho, "delta": _delta, "lambda": _lambda}


def _pick(table: dict, measure: str):
    try:
        return table[measure]
    except KeyError:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}") from None


def overlap_value(measure: str, ratio) -> float | np.ndarray:
    return _as_input_shape(_pick(_CORES, measure)(_positive_array("shape ratio", ratio)), ratio)


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


def _terms(r: np.ndarray, measures=MEASURES) -> tuple:
    """(e, c) of ``measures`` at already checked ratios, as (measure, ratio) arrays."""
    flip = r > 1.0
    s = np.where(flip, 1.0 / np.maximum(r, 1.0), r)
    d = np.where(flip, (1.0 - r) * s, r - 1.0)  # not s - 1: keeps 1 - s accurate near 1
    e, c = (np.array(q) for q in zip(*(_pick(_TERMS, m)(s, d) for m in measures)))
    return np.where(flip, -e, e), np.where(flip, c + 2.0 * e, c)


def _one_measure(measure: str, ratio) -> tuple:
    r = _positive_array("shape ratio", ratio)
    return (r, *(q[0] for q in _terms(r, (measure,))))


def overlap_grad(measure: str, ratio) -> float | np.ndarray:
    """dg/dR = e/R.  For delta the derivative is piecewise (a kink at R=1,
    where the one-sided slopes are +-exp(-1)); exactly at R=1 it returns NaN."""
    r, e, _c = _one_measure(measure, ratio)
    return _as_input_shape(np.where((measure == "delta") & (r == 1.0), np.nan, e / r), ratio)


def overlap_grad_sq(measure: str, ratio) -> float | np.ndarray:
    """(dg/dR)**2 = (e/R)**2 with the delta kink closed by its two-sided limit exp(-2)."""
    r, e, _c = _one_measure(measure, ratio)
    return _as_input_shape((e / r) ** 2, ratio)


def overlap_curvature(measure: str, ratio) -> float | np.ndarray:
    """d2g/dR2 = c/R**2.

    delta's second derivative jumps at R=1 (one-sided limits -+exp(-1));
    exactly at R=1 the symmetric value 0 is returned so that bias
    corrections at the symmetry point leave the estimate unshifted.
    """
    r, _e, c = _one_measure(measure, ratio)
    return _as_input_shape(c / r / r, ratio)


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
    from scipy.integrate import quad

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

    from scipy.optimize import brentq

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
