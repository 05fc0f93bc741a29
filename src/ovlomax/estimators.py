"""Shape, ratio, and overlap estimation with delta-method uncertainty.

Three estimation pipelines share one backbone.  Writing ``t_j = log(1 + 1/x_j)``
(exponential with mean alpha under the standardized inverse Lomax law):

* ``srs``   mean of the ``t_j`` over a simple random sample; Gamma(n, alpha/n).
* ``rss``   mean of the retained ranked-set values' transforms; unbiased with
  variance ``alpha**2 * H_r / (m * r**2)`` where ``H_r`` is the r-th harmonic
  number.
* ``bayes`` Jeffreys-prior posterior mode, ``sum(t_j) / (n + 1)``;
  Gamma(n, alpha/(n+1)).

The shape ratio feeds the closed-form overlap coefficients, and first/second
order delta expansions in the ratio give variances, biases, and normal-theory
intervals.  :func:`assess` evaluates all of that for a whole block of ratios
at once; the study engine calls it once per cell, and the per-sample and
per-measure functions here are length-one views of the same code.

Every variance/bias formula exists in two modes.  ``derived`` recomputes the
constants from the exact moment algebra of the sampling laws and is the
default.  ``as-published`` reproduces the originally published expressions
verbatim, including the spots where those disagree with their own derivations
(the Matusita bias constant is twice the derived value, the divergence-based
bias differs in sign and in a denominator power, and the Bayes constants are
dimensionally inconsistent for unequal sample sizes).  The two modes are kept
side by side and never merged silently; report builders warn when they
disagree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import DomainError, log_transform, std_normal_quantile
from .overlap import (
    MEASURES,
    OverlapTriple,
    overlap_curvature,
    overlap_grad_sq,
    overlap_value,
)
from .sampling import RankedSample, RssDesign, SrsDesign

__all__ = [
    "METHOD_SRS",
    "METHOD_RSS",
    "METHOD_BAYES",
    "METHODS",
    "SOURCE_DERIVED",
    "SOURCE_AS_PUBLISHED",
    "SOURCES",
    "AlphaEstimate",
    "RatioEstimate",
    "ConfidenceInterval",
    "Assessment",
    "DegenerateDesignError",
    "MethodMismatchError",
    "harmonic",
    "shape_estimates",
    "mle_alpha_srs",
    "alpha_rss",
    "alpha_bayes_jeffreys",
    "corrected_ratio",
    "ratio_estimate",
    "ovl_point",
    "ratio_variance_factor",
    "delta_variance",
    "delta_bias",
    "confidence_interval",
    "assess",
]

METHOD_SRS = "srs"
METHOD_RSS = "rss"
METHOD_BAYES = "bayes"
METHODS = (METHOD_SRS, METHOD_RSS, METHOD_BAYES)

SOURCE_DERIVED = "derived"
SOURCE_AS_PUBLISHED = "as-published"
SOURCES = (SOURCE_DERIVED, SOURCE_AS_PUBLISHED)


class DegenerateDesignError(DomainError):
    """The design is too small for the requested variance formula (n2 < 3)."""


class MethodMismatchError(ValueError):
    """The two shape estimates come from different estimation methods."""


@dataclass(frozen=True)
class AlphaEstimate:
    """A single population's shape estimate together with its design."""

    value: float
    method: str
    design: SrsDesign | RssDesign


@dataclass(frozen=True)
class RatioEstimate:
    """Shape ratio estimate alpha1_hat / alpha2_hat.

    ``unbiased`` applies the method's mean correction to ``raw``; for ``rss``
    no correction is published and the two coincide.  ``variance`` is the
    plug-in variance of the corrected ratio, or None for the degenerate
    srs/bayes case n2 < 3 (the point estimate is still usable).
    """

    raw: float
    unbiased: float
    variance: float | None
    method: str
    design1: SrsDesign | RssDesign
    design2: SrsDesign | RssDesign
    source: str = SOURCE_DERIVED


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    bias_corrected: bool
    clamped: bool


@dataclass(eq=False)
class Assessment:
    """Delta-method summary of one overlap coefficient over a block of ratios.

    Every array holds one entry per ratio.  ``lo``/``hi``/``clamped`` belong
    to the interval centred on ``point``, the ``*_corrected`` fields to the
    one centred on ``point - bias``; those are None when the block was
    assessed without bias correction.
    """

    point: np.ndarray
    variance: np.ndarray
    bias: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    clamped: np.ndarray
    lo_corrected: np.ndarray | None
    hi_corrected: np.ndarray | None
    clamped_corrected: np.ndarray | None


def harmonic(r: int) -> float:
    """H_r = 1 + 1/2 + ... + 1/r."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise DomainError("r must be a positive integer")
    return float(sum(1.0 / i for i in range(1, int(r) + 1)))


def _plain_estimate(method: str, sample) -> AlphaEstimate:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("sample must be a nonempty one-dimensional collection")
    value = float(shape_estimates(method, arr))  # checks positive and finite
    return AlphaEstimate(value=value, method=method, design=SrsDesign(arr.size))


def shape_estimates(method: str, x) -> np.ndarray:
    """Shape estimate of every sample along the last axis of ``x``.

    ``srs`` and ``rss`` average the transforms (for ``rss`` the last axis
    holds the retained values rank-major, as in ``RankedSample.values``);
    ``bayes`` divides their sum by ``n + 1``.  Values must be positive and
    finite; the whole block is checked once.
    """
    t = np.asarray(log_transform(x))
    if method == METHOD_BAYES:
        return np.sum(t, axis=-1) / (t.shape[-1] + 1)
    if method in (METHOD_SRS, METHOD_RSS):
        return np.mean(t, axis=-1)
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def mle_alpha_srs(sample) -> AlphaEstimate:
    """Maximum-likelihood shape estimate from a simple random sample."""
    return _plain_estimate(METHOD_SRS, sample)


def alpha_rss(ranked: RankedSample) -> AlphaEstimate:
    """Unbiased shape estimate from a ranked set sample (mean over all
    retained transforms; the rank sum telescopes, so no rank weights appear)."""
    value = float(shape_estimates(METHOD_RSS, ranked.values.reshape(-1)))
    return AlphaEstimate(value=value, method=METHOD_RSS, design=ranked.design)


def alpha_bayes_jeffreys(sample) -> AlphaEstimate:
    """Posterior mode under the Jeffreys prior 1/alpha: sum(t_j)/(n+1),
    i.e. n/(n+1) times the maximum-likelihood estimate."""
    return _plain_estimate(METHOD_BAYES, sample)


def _validate_source(source: str) -> str:
    if source not in SOURCES:
        raise DomainError(f"unknown formula source {source!r}; expected one of {SOURCES}")
    return source


def _srs_factor(n1: int, n2: int) -> float:
    # Var(corrected ratio) / R**2 for the srs pipeline; exact, not asymptotic.
    if n2 < 3:
        raise DegenerateDesignError(f"variance formula requires n2 >= 3, got n2={n2}")
    return (n1 + n2 - 1) / (n1 * (n2 - 2))


def _rss_factor(d1: RssDesign, d2: RssDesign) -> float:
    # Sum of squared coefficients of variation of the two shape estimates.
    return harmonic(d1.r) / (d1.m * d1.r**2) + harmonic(d2.r) / (d2.m * d2.r**2)


def ratio_variance_factor(
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
) -> float:
    """Var(corrected ratio)/R**2 for a method/design pair.

    Raises :class:`DegenerateDesignError` when the srs/bayes formula is
    undefined (n2 < 3).
    """
    _validate_source(source)
    if method == METHOD_RSS:
        if not isinstance(design1, RssDesign) or not isinstance(design2, RssDesign):
            raise DomainError("rss variance requires ranked designs")
        return _rss_factor(design1, design2)
    if method == METHOD_SRS:
        return _srs_factor(design1.n, design2.n)
    if method == METHOD_BAYES:
        n1, n2 = design1.n, design2.n
        base = _srs_factor(n1, n2)
        if source == SOURCE_DERIVED:
            # the derived mean correction maps the bayes ratio onto the
            # corrected srs ratio exactly, so the factor is shared
            return base
        return ((n1 - 1) / (n2 - 1)) ** 2 * base
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def corrected_ratio(raw, method: str, design1, design2, source: str = SOURCE_DERIVED):
    """Apply the method's mean correction to raw ratios (scalar or array).

    ``rss`` publishes no correction; ``srs`` scales by ``(n2 - 1)/n2``; the
    Bayes constants depend on the formula source.
    """
    if method == METHOD_RSS:
        return raw
    if method == METHOD_SRS:
        n2 = design2.n
        return raw * (n2 - 1) / n2
    if method == METHOD_BAYES:
        n1, n2 = design1.n, design2.n
        if source == SOURCE_DERIVED:
            return raw * (n1 + 1) * (n2 - 1) / (n1 * (n2 + 1))
        return raw * n1 * (n1 - 1) * (n1 + 1) / (n2**2 * (n2 + 1))
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def ratio_estimate(
    a1: AlphaEstimate, a2: AlphaEstimate, source: str = SOURCE_DERIVED
) -> RatioEstimate:
    """Combine two shape estimates of the same method into a ratio estimate."""
    _validate_source(source)
    if a1.method != a2.method:
        raise MethodMismatchError(f"cannot mix methods {a1.method!r} and {a2.method!r}")
    method = a1.method
    raw = a1.value / a2.value
    unbiased = corrected_ratio(raw, method, a1.design, a2.design, source)
    try:
        factor = ratio_variance_factor(method, a1.design, a2.design, source)
    except DegenerateDesignError:
        variance = None
    else:
        variance = unbiased**2 * factor

    return RatioEstimate(
        raw=raw,
        unbiased=unbiased,
        variance=variance,
        method=method,
        design1=a1.design,
        design2=a2.design,
        source=source,
    )


def ovl_point(est: RatioEstimate) -> OverlapTriple:
    """All three overlap coefficients at the corrected ratio estimate."""
    return OverlapTriple.from_ratio(est.unbiased)


# ---------------------------------------------------------------------------
# Published variance/bias shapes, reproduced verbatim for as-published mode.
# ---------------------------------------------------------------------------


def _published_var_shape(measure: str, r: float) -> float:
    if measure == "rho":
        return r * (1.0 - r) ** 2 / (1.0 + r) ** 4
    if measure == "delta":
        if r == 1.0:
            return math.exp(-2.0)  # continuous limit of the printed expression
        return r ** (2.0 / (1.0 - r)) * math.log(r) ** 2 / (1.0 - r) ** 2
    if measure == "lambda":
        return r * r * (1.0 - r * r) ** 2 / (r * r - r + 1.0) ** 4
    raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def _published_bias_shape(measure: str, r: float) -> float:
    if measure == "rho":
        return math.sqrt(r) * (3.0 * r * r - 6.0 * r - 1.0) / (1.0 + r) ** 3
    if measure == "lambda":
        return (r**5 - 3.0 * r**3 - r * r) / (r * r - r + 1.0) ** 2
    if measure == "delta":
        if r == 1.0:
            return math.nan  # the printed bracket diverges at the symmetry point
        logr = math.log(r)
        bracket = (
            r ** ((2.0 * r - 1.0) / (1.0 - r)) * r * (2.0 * r - logr - 2.0) * logr
            - (r - 1.0) ** 2
        ) / (r - 1.0) ** 3
        signed = r * r * bracket
        return -signed if r < 1.0 else signed
    raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def _published_bias_constant(
    measure: str, method: str, design1, design2
) -> float:
    # Each published bias expression carries its own leading constant; the
    # 1/2 appears only for the Matusita coefficient (and for the simple
    # random sampling Weitzman line, but not its ranked-set analogue).
    if method == METHOD_SRS:
        base = _srs_factor(design1.n, design2.n)
        return base / 2.0 if measure in ("rho", "delta") else base
    if method == METHOD_RSS:
        base = _rss_factor(design1, design2)
        return base / 2.0 if measure == "rho" else base
    if method == METHOD_BAYES:
        n1, n2 = design1.n, design2.n
        if n2 < 3:
            raise DegenerateDesignError(f"bias formula requires n2 >= 3, got n2={n2}")
        base = ((n2 + 2) / (n1 + 1)) ** 2 * n1 * (n1 + n2 - 1) / ((n2 - 1) ** 2 * (n2 - 2))
        return base / 2.0 if measure == "rho" else base
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def _elementwise(shape, measure: str, r: np.ndarray) -> np.ndarray:
    # the printed shapes stay scalar ``math`` code, evaluated per element
    return np.array([shape(measure, x) for x in r.tolist()], dtype=float)


def _normal_z(level) -> float:
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie strictly inside (0, 1)")
    return std_normal_quantile(1.0 - (1.0 - level) / 2.0)


def _check_terms(variance, bias, bias_corrected: bool) -> None:
    if not np.isfinite(variance).all() or (variance < 0.0).any():
        raise DomainError("variance must be finite and nonnegative")
    if bias_corrected and not np.isfinite(bias).all():
        raise DomainError("bias must be finite to centre a bias-corrected interval")


def _clamped_bounds(center, half):
    """Normal-theory bounds clamped to [0, 1] and their clamp flags, elementwise."""
    lo, hi = center - half, center + half
    # clip both ends into [0, 1]; monotone, so lo <= hi survives even when a
    # bias-corrected centre lands entirely outside the unit interval
    clamped_lo = np.minimum(np.maximum(lo, 0.0), 1.0)
    clamped_hi = np.minimum(np.maximum(hi, 0.0), 1.0)
    return clamped_lo, clamped_hi, (clamped_lo != lo) | (clamped_hi != hi)


def assess(
    ratios,
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
    level: float = 0.95,
    bias_corrected: bool = True,
) -> dict:
    """Delta-method assessment of all three coefficients at each corrected ratio.

    Returns ``{measure: Assessment}`` in :data:`MEASURES` order, one entry per
    element of the one-dimensional ``ratios``.  ``derived`` evaluates
    Var(ratio) * (dg/dR)**2 and Var(ratio) * d2g/dR2 / 2 (at R=1 the Weitzman
    variance keeps its two-sided kink limit exp(-2) * Var(ratio) and its bias
    is 0); ``as-published`` reproduces the printed expressions with their own
    constants, whose Weitzman bias has no finite value at R=1 (NaN).

    Raises :class:`DomainError` when a ratio is not positive and finite, a
    variance is not finite and nonnegative, or, with ``bias_corrected``, a
    bias is not finite.  Without ``bias_corrected`` the corrected-interval
    fields are None.
    """
    r = np.asarray(ratios, dtype=float)  # overlap_value checks positive and finite
    if r.ndim != 1:
        raise DomainError("ratios must be a one-dimensional array")
    z = _normal_z(level)
    factor = ratio_variance_factor(method, design1, design2, source)
    terms = []
    for measure in MEASURES:
        point = overlap_value(measure, r)
        if source == SOURCE_DERIVED:
            variance = factor * r * r * overlap_grad_sq(measure, r)
            bias = 0.5 * factor * r * r * overlap_curvature(measure, r)
        else:
            variance = factor * _elementwise(_published_var_shape, measure, r)
            constant = _published_bias_constant(measure, method, design1, design2)
            bias = constant * _elementwise(_published_bias_shape, measure, r)
        terms.append((point, variance, bias))
    # one (measure, ratio) array per quantity, so the interval arithmetic and
    # its checks run once for all three measures
    point, variance, bias = (np.array(q) for q in zip(*terms))
    _check_terms(variance, bias, bias_corrected)
    half = z * np.sqrt(variance)
    plain = _clamped_bounds(point, half)
    corrected = _clamped_bounds(point - bias, half) if bias_corrected else ((None,) * 3,) * 3
    rows = zip(point, variance, bias, *plain, *corrected)
    return dict(zip(MEASURES, (Assessment(*row) for row in rows)))


def _assess_one(measure, ratio, method, design1, design2, source) -> Assessment:
    if measure not in MEASURES:
        raise DomainError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    block = assess([float(ratio)], method, design1, design2, source, bias_corrected=False)
    return block[measure]


def delta_variance(
    measure: str,
    ratio: float,
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
) -> float:
    """First-order variance of an overlap coefficient at the given ratio;
    see :func:`assess`."""
    return float(_assess_one(measure, ratio, method, design1, design2, source).variance[0])


def delta_bias(
    measure: str,
    ratio: float,
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
) -> float:
    """Second-order bias of an overlap coefficient at the given ratio; NaN for
    the as-published Weitzman coefficient at R=1.  See :func:`assess`."""
    return float(_assess_one(measure, ratio, method, design1, design2, source).bias[0])


def confidence_interval(
    point: float,
    variance: float,
    bias: float = 0.0,
    level: float = 0.95,
    bias_corrected: bool = False,
) -> ConfidenceInterval:
    """Normal-theory interval for an overlap coefficient, clamped to [0, 1].

    With ``bias_corrected`` the interval is centred on ``point - bias`` and a
    non-finite bias raises :class:`DomainError`; otherwise ``bias`` is ignored.
    """
    z = _normal_z(level)
    point, variance, bias = np.float64(point), np.float64(variance), np.float64(bias)
    _check_terms(variance, bias, bias_corrected)
    center = point - bias if bias_corrected else point
    lo, hi, clamped = _clamped_bounds(center, z * np.sqrt(variance))
    return ConfidenceInterval(
        lo=float(lo),
        hi=float(hi),
        level=float(level),
        bias_corrected=bool(bias_corrected),
        clamped=bool(clamped),
    )
