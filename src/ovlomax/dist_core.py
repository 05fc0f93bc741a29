"""Inverse Lomax distribution, its samplers and the domain checks.

The family used throughout is the standardized law of 1/Y for
Lomax-distributed Y, with cdf ``(1 + 1/x) ** (-1/alpha)``; for ``beta > 0``,
``beta * X`` has scale ``beta``, and two populations that share a scale have
the overlap coefficients of their standardized laws.  Under this convention
``T = log(1 + 1/X)`` is exponential with mean ``alpha``, which is what makes
every estimator in :mod:`ovlomax.estimators` tractable; the exact laws of
its estimates are ``scipy.stats`` gamma and F laws, named there.
The normal quantile of the intervals comes from the standard library, so
the package needs numpy alone.  Draws, ``RankedSample`` and parsed data
share one float range, smallest normal to largest float, and one refusal,
:func:`_range_refusal`; a draw lies below it with probability
``exp(-708.4/alpha)``.  The cdf and densities take any positive x.  The
samplers and the study engine map uniforms to T by :func:`_t_of_uniform`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "ConfigError",
    "DomainError",
    "InverseLomax",
    "log_transform",
    "std_normal_quantile",
]

_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)
# the bounds of -log(u) on the uniforms _t_of_uniform maps, u in [_TINY, 1 - 2**-53]
_NEG_LOG_U_MAX, _NEG_LOG_U_MIN = -math.log(_TINY), -math.log1p(-(2.0**-53))
_STD_NORMAL = NormalDist()


class ConfigError(ValueError):
    """A configuration, command line or input file is malformed (exit code 2)."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation (exit code 1)."""


def _positive_int(name: str, v) -> int:
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
        raise DomainError(f"{name} must be a positive integer")
    return int(v)


def _positive_array(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise DomainError(f"{name} must be positive and finite")
    return arr


def _as_input_shape(result: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class InverseLomax:
    """Standardized inverse Lomax law with shape ``alpha``.

    pdf:  (1 / (alpha * x**2)) * (1 + 1/x) ** -(1 + 1/alpha)
    cdf:  (1 + 1/x) ** (-1/alpha)

    The shape convention is the one under which the mean of
    ``log(1 + 1/x)`` over a sample is the maximum-likelihood estimate of
    ``alpha``; it is reciprocal to the shape of the underlying Lomax law.
    """

    alpha: float

    def __post_init__(self):
        try:
            alpha = float(self.alpha)
        except (TypeError, ValueError):
            raise DomainError("alpha must be a positive finite number") from None
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise DomainError(f"alpha must be a positive finite number, got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)

    def logpdf(self, x) -> float | np.ndarray:
        arr = _positive_array("x", x)
        t = _log1p_recip(arr)
        with np.errstate(over="ignore"):  # -inf below -max, as pdf's inf lies above max
            return _as_input_shape(-math.log(self.alpha) - 2.0 * np.log(arr) - (t + t / self.alpha), x)

    def pdf(self, x) -> float | np.ndarray:
        # exp of the log form: underflows cleanly to 0 in the far tail instead
        # of producing NaN from 0 * inf products; inf above the float range
        with np.errstate(over="ignore"):
            return _as_input_shape(np.exp(self.logpdf(np.asarray(x, dtype=float))), x)

    def cdf(self, x) -> float | np.ndarray:
        arr = _positive_array("x", x)
        with np.errstate(over="ignore"):  # an overflowing t / alpha has cdf 0
            return _as_input_shape(np.exp(-_log1p_recip(arr) / self.alpha), x)

    def quantile(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("u must lie strictly inside (0, 1)")
        with np.errstate(over="ignore", divide="ignore"):  # an x of 0 or inf is refused
            return _as_input_shape(_from_t(-self.alpha * np.log(arr)), u)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values by inverse transform of one uniform block.

        Deterministic given the generator state: exactly ``n`` uniforms are
        consumed, in order.
        """
        return self.from_uniform(rng.random(_positive_int("n", n)))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse transform of a block of uniforms in [0, 1), an array of any shape."""
        with np.errstate(over="ignore", divide="ignore"):  # as in quantile
            return _from_t(_t_of_uniform(u, self.alpha))


def _t_of_uniform(u: np.ndarray, alpha) -> np.ndarray:
    """``T = -alpha * log(u)``, a new array, of uniforms in [0, 1) and shapes ``alpha``."""
    t = np.maximum(u, _TINY)  # u == 0.0 has probability 2**-53 but maps to x = 0
    np.log(t, out=t)
    t *= -alpha
    return t


def _from_t(t: np.ndarray) -> np.ndarray:
    """``1 / expm1(t)``, the values with transforms ``t``, if all lie in the float range;
    the callers let an infinite t or x pass numpy's overflow and zero-division checks."""
    return _in_range(1.0 / np.expm1(t), None, ("too large a shape for x", "too small a shape for x"))


def _range_refusal(x, name: str | None, why) -> str:
    """Why ``x``, not all in ``[_TINY, _HUGE]``, is refused: ``name`` must be positive and
    finite, or a count of values below, else above, the range and ``why`` (or ``why[0]``,
    else ``why[1]``); with ``why`` None, ``x`` is one observation, a float."""
    if name and not (np.isfinite(x) & (x > 0.0)).all():
        return f"{name} must be positive and finite"
    below = np.count_nonzero(x < _TINY)
    side = (f"below the smallest normal float ({_TINY:.4g})" if below
            else f"above the largest float ({_HUGE:.4g})")
    if why is None:
        return f"observation lies {side}"
    why = why[not below] if isinstance(why, tuple) else why
    return f"{below or np.count_nonzero(x > _HUGE)} of {x.size} values lie {side}; {why}"


def _in_range(x: np.ndarray, name: str | None, why) -> np.ndarray:
    """``x`` if every value lies in the float range, else a DomainError saying why not."""
    if (x >= _TINY).all() and (x <= _HUGE).all():  # NaN fails both
        return x
    raise DomainError(_range_refusal(x, name, why))


def _log1p_recip(arr: np.ndarray) -> np.ndarray:
    """``log(1 + 1/x)`` of positive ``x``, as ``log1p(x) - log(x)`` below the
    smallest normal float, where 1/x may overflow."""
    with np.errstate(over="ignore"):  # the overflowing 1/x are not kept
        return np.where(arr < _TINY, np.log1p(arr) - np.log(arr), np.log1p(1.0 / arr))


def log_transform(x) -> float | np.ndarray:
    """``log(1 + 1/x)`` elementwise; exponential with mean alpha when x is a standardized
    inverse Lomax draw, and refused, as a draw is, outside the float range."""
    arr = _in_range(np.asarray(x, dtype=float), "x", "1/x overflows")
    return _as_input_shape(_log1p_recip(arr), x)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal cdf, by Wichura's AS241 (the stdlib
    ``statistics.NormalDist.inv_cdf``); relative error below 1e-15.

    Reflection is enforced structurally: the upper half is computed as the
    negated lower half, so ``quantile(p) == -quantile(1 - p)`` holds exactly.
    """
    p = float(p)
    if not 0.0 < p < 1.0:  # NaN and the infinities fail, too
        raise DomainError("p must lie strictly inside (0, 1)")
    if p > 0.5:
        return -_STD_NORMAL.inv_cdf(1.0 - p)
    return _STD_NORMAL.inv_cdf(p)
