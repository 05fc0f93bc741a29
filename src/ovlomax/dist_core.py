"""Inverse Lomax distribution, its samplers and the domain checks.

The family used throughout is the law of 1/Y for Lomax-distributed Y,
parametrized so that the cdf is ``(1 + beta/x) ** (-1/alpha)``.  Under this
convention ``T = log(1 + beta/X)`` is exponential with mean ``alpha``, which
is what makes every estimator in :mod:`ovlomax.estimators` tractable; the
exact laws of its estimates are ``scipy.stats`` gamma and F laws, named there.
The normal quantile of the intervals comes from the standard library, so
importing the package loads no SciPy.  A draw lies below the smallest normal
float with probability ``exp(-708.4/alpha)``; sampling and the quantile refuse
such values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "DomainError",
    "InverseLomax",
    "log_transform",
    "std_normal_quantile",
]

_TINY = np.finfo(float).tiny
_STD_NORMAL = NormalDist()


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _positive_scalar(name: str, value) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a positive finite number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


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
    """Inverse Lomax law with shape ``alpha`` and scale ``beta``.

    pdf:  (1 / (alpha * u**2)) * (1 + 1/u) ** -(1 + 1/alpha) / beta,  u = x/beta
    cdf:  (1 + beta/x) ** (-1/alpha)

    The shape convention is the one under which the mean of
    ``log(1 + beta/x)`` over a sample is the maximum-likelihood estimate of
    ``alpha``; it is reciprocal to the shape of the underlying Lomax law.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive_scalar("alpha", self.alpha))
        object.__setattr__(self, "beta", _positive_scalar("beta", self.beta))

    def logpdf(self, x) -> float | np.ndarray:
        arr = _positive_array("x", x)
        u = arr / self.beta
        out = (
            -math.log(self.alpha * self.beta)
            - 2.0 * np.log(u)
            - (1.0 + 1.0 / self.alpha) * np.log1p(1.0 / u)
        )
        return _as_input_shape(out, x)

    def pdf(self, x) -> float | np.ndarray:
        # exp of the log form: underflows cleanly to 0 in the far tail instead
        # of producing NaN from 0 * inf products.
        return _as_input_shape(np.exp(self.logpdf(np.asarray(x, dtype=float))), x)

    def cdf(self, x) -> float | np.ndarray:
        arr = _positive_array("x", x)
        out = np.exp(-np.log1p(self.beta / arr) / self.alpha)
        return _as_input_shape(out, x)

    def quantile(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("u must lie strictly inside (0, 1)")
        return _as_input_shape(_from_t(-self.alpha * np.log(arr), self.beta), u)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values by inverse transform of one uniform block.

        Deterministic given the generator state: exactly ``n`` uniforms are
        consumed, in order.
        """
        return self.from_uniform(rng.random(_positive_int("n", n)))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse transform of a block of uniforms in [0, 1), any shape."""
        # u == 0.0 has probability 2**-53 but would map to x = 0; nudge inside.
        return _from_t(-self.alpha * np.log(np.maximum(u, _TINY)), self.beta)


def _from_t(t: np.ndarray, beta) -> np.ndarray:
    """``beta / expm1(t)``, the values with transforms ``t`` (at ``t = -alpha *
    log(u)`` the quantile of u); DomainError if any is below the float range."""
    with np.errstate(over="ignore"):  # an overflowing expm1 is counted below
        x = beta / np.expm1(t)
    below = np.count_nonzero(x < _TINY)
    if below:
        raise DomainError(
            f"{below} of {x.size} values lie below the smallest normal float "
            f"({_TINY:.4g}); too large a shape or too small a scale for x")
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
