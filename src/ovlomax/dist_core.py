"""Inverse Lomax distribution, its samplers and the domain checks.

The family used throughout is the standardized law of 1/Y for
Lomax-distributed Y, with cdf ``(1 + 1/x) ** (-1/alpha)``; for ``beta > 0``,
``beta * X`` has scale ``beta``, and two populations that share a scale have
the overlap coefficients of their standardized laws.  Under this convention
``T = log(1 + 1/X)`` is exponential with mean ``alpha``, which is what makes
every estimator in :mod:`ovlomax.estimators` tractable; the exact laws of
its estimates are ``scipy.stats`` gamma and F laws, named there.
The normal quantile of the intervals comes from the standard library, so
the package needs numpy alone.  A draw lies below the smallest normal
float with probability ``exp(-708.4/alpha)``; sampling and the quantile refuse
such values.
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

_TINY = np.finfo(float).tiny
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
        out = (-math.log(self.alpha) - 2.0 * np.log(arr)
               - (1.0 + 1.0 / self.alpha) * np.log1p(1.0 / arr))
        return _as_input_shape(out, x)

    def pdf(self, x) -> float | np.ndarray:
        # exp of the log form: underflows cleanly to 0 in the far tail instead
        # of producing NaN from 0 * inf products.
        return _as_input_shape(np.exp(self.logpdf(np.asarray(x, dtype=float))), x)

    def cdf(self, x) -> float | np.ndarray:
        arr = _positive_array("x", x)
        out = np.exp(-np.log1p(1.0 / arr) / self.alpha)
        return _as_input_shape(out, x)

    def quantile(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("u must lie strictly inside (0, 1)")
        return _as_input_shape(_from_t(-self.alpha * np.log(arr)), u)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values by inverse transform of one uniform block.

        Deterministic given the generator state: exactly ``n`` uniforms are
        consumed, in order.
        """
        return self.from_uniform(rng.random(_positive_int("n", n)))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse transform of a block of uniforms in [0, 1), any shape."""
        # u == 0.0 has probability 2**-53 but would map to x = 0; nudge inside.
        return _from_t(-self.alpha * np.log(np.maximum(u, _TINY)))


def _from_t(t: np.ndarray) -> np.ndarray:
    """``1 / expm1(t)``, the values with transforms ``t`` (at ``t = -alpha *
    log(u)`` the quantile of u); DomainError if any is below the float range."""
    with np.errstate(over="ignore"):  # an overflowing expm1 is counted below
        x = 1.0 / np.expm1(t)
    below = np.count_nonzero(x < _TINY)
    if below:
        raise DomainError(
            f"{below} of {x.size} values lie below the smallest normal float "
            f"({_TINY:.4g}); too large a shape for x")
    return x


def log_transform(x) -> float | np.ndarray:
    """``log(1 + 1/x)`` elementwise; exponential with mean alpha when x is
    a standardized inverse Lomax draw."""
    arr = _positive_array("x", x)
    return _as_input_shape(np.log1p(1.0 / arr), x)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal cdf, by Wichura's AS241 (the stdlib
    ``statistics.NormalDist.inv_cdf``); relative error below 1e-15.

    Reflection is enforced structurally: the upper half is computed as the
    negated lower half, so ``quantile(p) == -quantile(1 - p)`` holds exactly.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError("p must lie strictly inside (0, 1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -_STD_NORMAL.inv_cdf(1.0 - p)
    return _STD_NORMAL.inv_cdf(p)
