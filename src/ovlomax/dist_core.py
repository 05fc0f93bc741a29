"""Inverse Lomax distribution and the exact reference laws built on it.

The family used throughout is the law of 1/Y for Lomax-distributed Y,
parametrized so that the cdf is ``(1 + beta/x) ** (-1/alpha)``.  Under this
convention ``T = log(1 + beta/X)`` is exponential with mean ``alpha``, which
is what makes every estimator in :mod:`ovlomax.estimators` tractable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "DomainError",
    "InverseLomax",
    "GammaLaw",
    "FisherFLaw",
    "ExponentialLaw",
    "log_transform",
    "std_normal_quantile",
    "srs_alpha_law",
    "bayes_alpha_law",
    "ratio_f_law",
]

_TINY = np.finfo(float).tiny


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

    def _quantile_core(self, u: np.ndarray) -> np.ndarray:
        # cdf^{-1}(u) = beta / (u**(-alpha) - 1), written with expm1 so the
        # u -> 1 branch keeps full precision.
        out = self.beta / np.expm1(-self.alpha * np.log(u))
        return np.maximum(out, _TINY)

    def quantile(self, u) -> float | np.ndarray:
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("u must lie strictly inside (0, 1)")
        return _as_input_shape(self._quantile_core(arr), u)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values by inverse transform of one uniform block.

        Deterministic given the generator state: exactly ``n`` uniforms are
        consumed, in order.
        """
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError("n must be a positive integer")
        return self.from_uniform(rng.random(n))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse transform of a block of uniforms in [0, 1), any shape."""
        # u == 0.0 has probability 2**-53 but would map to x = 0; nudge inside.
        return self._quantile_core(np.maximum(u, _TINY))

    def sample_via_exponential(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Alternative sampler through T ~ Exponential(mean alpha), X = beta/(e^T - 1).

        Same law as :meth:`sample` (cross-checked in the test suite), but a
        different draw path; useful as an independent oracle.
        """
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError("n must be a positive integer")
        t = rng.exponential(scale=self.alpha, size=n)
        return np.maximum(self.beta / np.expm1(np.maximum(t, _TINY)), _TINY)


def log_transform(x) -> float | np.ndarray:
    """``log(1 + 1/x)`` elementwise; exponential with mean alpha when x is
    a standardized inverse Lomax draw."""
    arr = _positive_array("x", x)
    return _as_input_shape(np.log1p(1.0 / arr), x)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal cdf.

    Reflection is enforced structurally: the upper half is computed as the
    negated lower half, so ``quantile(p) == -quantile(1 - p)`` holds exactly.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError("p must lie strictly inside (0, 1)")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return float(-ndtri(1.0 - p))
    return float(ndtri(p))


# ---------------------------------------------------------------------------
# Exact reference laws (closed-form moments, used as oracles for the
# estimator sampling distributions).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape k, scale theta)."""

    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive_scalar("shape", self.shape))
        object.__setattr__(self, "scale", _positive_scalar("scale", self.scale))

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


@dataclass(frozen=True)
class FisherFLaw:
    """Fisher F with (d1, d2) degrees of freedom."""

    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d1", "d2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise DomainError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))

    @property
    def mean(self) -> float:
        if self.d2 <= 2:
            raise DomainError("mean requires d2 > 2")
        return self.d2 / (self.d2 - 2)

    @property
    def variance(self) -> float:
        if self.d2 <= 4:
            raise DomainError("variance requires d2 > 4")
        d1, d2 = self.d1, self.d2
        return 2 * d2**2 * (d1 + d2 - 2) / (d1 * (d2 - 2) ** 2 * (d2 - 4))


@dataclass(frozen=True)
class ExponentialLaw:
    """Exponential with the given mean."""

    mean_value: float

    def __post_init__(self):
        object.__setattr__(self, "mean_value", _positive_scalar("mean", self.mean_value))

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def variance(self) -> float:
        return self.mean_value**2

    def cdf(self, t) -> float | np.ndarray:
        arr = np.asarray(t, dtype=float)
        return _as_input_shape(-np.expm1(-arr / self.mean_value), t)


def srs_alpha_law(alpha: float, n: int) -> GammaLaw:
    """Sampling law of the simple-random-sample shape estimate: Gamma(n, alpha/n)."""
    alpha = _positive_scalar("alpha", alpha)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError("n must be a positive integer")
    return GammaLaw(n, alpha / n)


def bayes_alpha_law(alpha: float, n: int) -> GammaLaw:
    """Sampling law of the Jeffreys posterior-mode estimate: Gamma(n, alpha/(n+1))."""
    alpha = _positive_scalar("alpha", alpha)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError("n must be a positive integer")
    return GammaLaw(n, alpha / (n + 1))


def ratio_f_law(n1: int, n2: int) -> FisherFLaw:
    """Sampling law of the scaled shape ratio: (alpha2/alpha1) * ratio ~ F(2*n1, 2*n2)."""
    return FisherFLaw(2 * int(n1), 2 * int(n2))
