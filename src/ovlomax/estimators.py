"""Shape, ratio, and overlap estimation with delta-method uncertainty.

Three estimation pipelines share one backbone.  Writing ``t_j = log(1 + 1/x_j)``
(exponential with mean alpha under the standardized inverse Lomax law):

* ``srs``   mean of the ``t_j`` over a simple random sample; Gamma(n, alpha/n).
* ``rss``   mean of the retained ranked-set values' transforms; unbiased with
  variance ``alpha**2 * H_r / (m * r**2)`` where ``H_r`` is the r-th harmonic
  number.
* ``bayes`` Jeffreys-prior posterior mode, ``sum(t_j) / (n + 1)``;
  Gamma(n, alpha/(n+1)).

These are the ``scipy.stats`` laws ``gamma(n, scale=alpha/n)`` and
``gamma(n, scale=alpha/(n+1))``, and ``(alpha2/alpha1)`` times the raw srs
ratio is ``f(2*n1, 2*n2)``; the test suite holds the estimators to them.
The study engine never forms x: it averages ``t = -alpha * log(u)`` of its
uniforms with the helper behind :func:`shape_estimates`.

One path leads from samples to intervals: :func:`shape_estimates` of each
sample, their ratio, :func:`corrected_ratio` (the method's mean correction)
and :func:`assess`.  The corrected ratio feeds the closed-form overlap
coefficients, and first/second order delta expansions in log R give
variances ``factor * e**2``, biases ``factor * c / 2`` and normal-theory
intervals, plain and bias-corrected, where ``factor`` is
:func:`ratio_variance_factor`, Var(ratio)/R**2, and ``e``, ``c`` are
``overlap``'s elasticities.  :func:`assess` evaluates all of that for a whole
block of ratios at once; one ratio is a block of one.  Behind it, one pass
over the concatenated ratios of several designs repeats each design's
constants over its own ratios, so the study engine, the efficiency grid and
the report builder assess the ratios of many designs, or of one, in one call.

The design rules live here alone (:func:`_design_constants`): a design whose
variance formula is undefined or whose mean correction is zero raises
:class:`DegenerateDesignError` naming the rule, and the study skips exactly
the designs refused here, with that message as its reason.

Every variance/bias formula exists in two modes.  ``derived`` recomputes the
constants from the exact moment algebra of the sampling laws and is the
default.  ``as-published`` reproduces the originally published expressions
verbatim, including the spots where those disagree with their own derivations
(the Matusita bias constant is twice the derived value, the divergence-based
bias differs in sign and in a denominator power, and the Bayes constants are
dimensionally inconsistent for unequal sample sizes).  The two modes are kept
side by side and never merged silently; report builders warn when they
disagree.  Each mode reads its terms from one table of array functions keyed
by measure: ``overlap``'s elasticities, or the printed shapes here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import DomainError, _positive_array, _positive_int, log_transform, std_normal_quantile
from .overlap import _CORES, MEASURES, _terms
from .sampling import RssDesign, SrsDesign

__all__ = [
    "METHOD_SRS",
    "METHOD_RSS",
    "METHOD_BAYES",
    "METHODS",
    "SOURCE_DERIVED",
    "SOURCE_AS_PUBLISHED",
    "SOURCES",
    "ConfidenceInterval",
    "Assessment",
    "DegenerateDesignError",
    "harmonic",
    "shape_estimates",
    "corrected_ratio",
    "ratio_variance_factor",
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
    """The estimators refuse the design; the message names the rule it breaks."""


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
    one centred on ``point - bias``, whose bounds are NaN where the bias is
    not finite.
    """

    point: np.ndarray
    variance: np.ndarray
    bias: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    clamped: np.ndarray
    lo_corrected: np.ndarray
    hi_corrected: np.ndarray
    clamped_corrected: np.ndarray


def harmonic(r: int) -> float:
    """H_r = 1 + 1/2 + ... + 1/r."""
    return float(sum(1.0 / i for i in range(1, _positive_int("r", r) + 1)))


def shape_estimates(method: str, x) -> np.ndarray:
    """Shape estimate of every sample along the last axis of ``x``.

    ``srs`` and ``rss`` average the transforms (for ``rss`` the last axis
    holds the retained values rank-major, as in ``RankedSample.values``);
    ``bayes`` divides their sum by ``n + 1``.  Samples must not be empty, nor
    values outside the float range of draws; the whole block is checked once.
    """
    t = np.asarray(log_transform(x))
    if t.ndim == 0 or t.shape[-1] == 0:
        raise DomainError("each sample along the last axis must hold one value at least")
    return _shape_from_t(method, t)


def _shape_from_t(method: str, t: np.ndarray) -> np.ndarray:
    """:func:`shape_estimates` of the transforms ``t`` themselves."""
    if method == METHOD_BAYES:
        return t.sum(axis=-1) / (t.shape[-1] + 1)
    if method in (METHOD_SRS, METHOD_RSS):
        return t.sum(axis=-1) / t.shape[-1]  # np.mean's sum and division, without its wrappers
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def _design_constants(method: str, design1, design2, source: str) -> tuple:
    """The per-design constants of an assessment: Var(corrected ratio)/R**2
    and, under ``as-published``, the bias constants of the three measures
    (None under ``derived``).  Checks every design rule, in this order: the
    srs/bayes variance formulas need n2 >= 3, and the mean correction must
    not be zero (:func:`corrected_ratio`)."""
    n1, n2 = design1.n, design2.n
    if method in (METHOD_SRS, METHOD_BAYES) and n2 < 3:
        raise DegenerateDesignError(f"n2 = {n2} < 3: srs/bayes variance formulas undefined")
    # a design with no corrected ratio has no assessment; this checks the method and source, too
    _correction(method, design1, design2, source)
    if method == METHOD_RSS:
        if not isinstance(design1, RssDesign) or not isinstance(design2, RssDesign):
            raise DomainError("rss variance requires ranked designs")
        # sum of squared coefficients of variation of the two shape estimates
        factor = base = (harmonic(design1.r) / (design1.m * design1.r**2)
                         + harmonic(design2.r) / (design2.m * design2.r**2))
    else:
        # exact, not asymptotic; the derived bayes correction maps the bayes
        # ratio onto the corrected srs ratio exactly, so the factor is shared
        factor = base = (n1 + n2 - 1) / (n1 * (n2 - 2))
        if method == METHOD_BAYES and source == SOURCE_AS_PUBLISHED:
            # bayes prints its own bias base; srs and rss print the variance factor
            factor = ((n1 - 1) / (n2 - 1)) ** 2 * factor
            base = ((n2 + 2) / (n1 + 1)) ** 2 * n1 * (n1 + n2 - 1) / ((n2 - 1) ** 2 * (n2 - 2))
    if source == SOURCE_DERIVED:
        return factor, None
    # the 1/2 is printed for the Matusita bias of every method and for the
    # srs Weitzman line, but not for its ranked-set or Bayes analogues
    halved = ("rho", "delta") if method == METHOD_SRS else ("rho",)
    return factor, tuple(base / 2.0 if measure in halved else base for measure in MEASURES)


def _refusal(method: str, design1, design2, source: str) -> str | None:
    """Why the estimators refuse to assess a method/design pair, or None."""
    try:
        _design_constants(method, design1, design2, source)
    except DegenerateDesignError as exc:
        return str(exc)
    return None


def ratio_variance_factor(
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
) -> float:
    """Var(corrected ratio)/R**2 for a method/design pair.

    Raises :class:`DegenerateDesignError` when the srs/bayes formula is
    undefined (n2 < 3) or the mean correction is zero.
    """
    return _design_constants(method, design1, design2, source)[0]


def _correction(method: str, design1, design2, source: str) -> tuple:
    """``(factors, divisor)`` of :func:`corrected_ratio`'s correction, none for ``rss``."""
    if source not in SOURCES:
        raise DomainError(f"unknown formula source {source!r}; expected one of {SOURCES}")
    n1, n2 = design1.n, design2.n
    if method == METHOD_RSS:
        return (), 1
    if method == METHOD_SRS:
        factors, divisor, zero = (n2 - 1,), n2, "n2 = 1: the srs correction n2-1 is zero"
    elif method == METHOD_BAYES and source == SOURCE_DERIVED:
        factors, divisor = (n1 + 1, n2 - 1), n1 * (n2 + 1)
        zero = "n2 = 1: the derived bayes correction (n1+1)*(n2-1) is zero"
    elif method == METHOD_BAYES:
        factors, divisor = (n1, n1 - 1, n1 + 1), n2**2 * (n2 + 1)
        zero = "n1 = 1: the as-published bayes correction n1*(n1-1)*(n1+1) is zero"
    else:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    if 0 in factors:
        raise DegenerateDesignError(zero)
    return factors, divisor


def corrected_ratio(raw, method: str, design1, design2, source: str = SOURCE_DERIVED):
    """Apply the method's mean correction to raw ratios (scalar or array).

    ``rss`` publishes no correction; ``srs`` scales by ``(n2 - 1)/n2``; the
    Bayes constants depend on the formula source, which must be one of
    :data:`SOURCES` for every method.  A zero correction (n2 = 1 for ``srs``
    and derived ``bayes``, n1 = 1 for as-published ``bayes``) raises
    :class:`DegenerateDesignError`.
    """
    factors, divisor = _correction(method, design1, design2, source)
    if not factors:
        return raw
    # raw times each factor in turn, then over the divisor: the order the pinned
    # outputs hold; where that overflows, raw times the combined factor
    with np.errstate(over="ignore"):
        ratio = math.prod((raw, *factors)) / divisor
        overflow = np.isinf(ratio)
        if overflow.any():
            ratio = np.where(overflow, raw * (math.prod(factors) / divisor), ratio)[()]
    return ratio


# ---------------------------------------------------------------------------
# Published variance/bias shapes, reproduced verbatim for as-published mode
# and evaluated as arrays.
# ---------------------------------------------------------------------------


def _reciprocal_above(r: np.ndarray) -> np.ndarray:
    # above R = 1e30, well before R**5 or R**8 overflows, the printed shapes are taken
    # in w = 1/R: the rho and lambda variances keep their form, and the biases rewritten
    # in w round to 3*sqrt(w), -R and 1/w, as their terms in w vanish next to 1
    return np.where(r > 1e30, 1.0 / np.maximum(r, 1e30), r)


def _published_rho(r: np.ndarray) -> tuple:
    w = _reciprocal_above(r)
    return (w * (1.0 - w) ** 2 / (1.0 + w) ** 4,
            np.where(r > 1e30, 3.0 * np.sqrt(w),
                     np.sqrt(r) * (3.0 * r * r - 6.0 * r - 1.0) / (1.0 + r) ** 3))


def _published_delta(r: np.ndarray) -> tuple:
    # at R = 1: the variance's continuous limit exp(-2); the printed bias diverges (NaN)
    at_one = r == 1.0
    x = np.where(at_one, 2.0, r)  # any R other than 1 keeps the arithmetic finite there
    logr = np.log(x)
    variance = x ** (2.0 / (1.0 - x)) * logr**2 / (1.0 - x) ** 2
    bracket = (x ** ((2.0 * x - 1.0) / (1.0 - x)) * x * (2.0 * x - logr - 2.0) * logr
               - (x - 1.0) ** 2) / (x - 1.0) ** 3
    signed = x * x * bracket
    bias = np.where(r < 1.0, -signed, np.where(r > 1e30, -r, signed))
    return np.where(at_one, math.exp(-2.0), variance), np.where(at_one, np.nan, bias)


def _published_lambda(r: np.ndarray) -> tuple:
    w = _reciprocal_above(r)
    return (w * w * (1.0 - w * w) ** 2 / (w * w - w + 1.0) ** 4,
            np.where(r > 1e30, 1.0 / w, (r**5 - 3.0 * r**3 - r * r) / (r * r - r + 1.0) ** 2))


# the printed (variance, bias) shapes of each measure, reproduced verbatim
_PUBLISHED = {"rho": _published_rho, "delta": _published_delta, "lambda": _published_lambda}


def _normal_z(level) -> float:
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie strictly inside (0, 1)")
    return std_normal_quantile(1.0 - (1.0 - level) / 2.0)


def _check_variance(variance) -> None:
    if not np.isfinite(variance).all() or (variance < 0.0).any():
        raise DomainError("variance must be finite and nonnegative")


def _check_bias(bias) -> None:
    if not np.isfinite(bias).all():
        raise DomainError("bias must be finite to centre a bias-corrected interval")


def _clamped_bounds(center, half):
    """Normal-theory bounds clamped to [0, 1] and their clamp flags, elementwise."""
    lo, hi = center - half, center + half
    # clip both ends into [0, 1]; monotone, so lo <= hi survives even when a
    # bias-corrected centre lands entirely outside the unit interval
    clamped_lo = np.minimum(np.maximum(lo, 0.0), 1.0)
    clamped_hi = np.minimum(np.maximum(hi, 0.0), 1.0)
    return clamped_lo, clamped_hi, (clamped_lo != lo) | (clamped_hi != hi)


def _assess_designs(blocks, source: str, level: float) -> tuple:
    """:func:`assess` of the ratios of several designs in one pass.

    ``blocks`` holds ``(ratios, method, design1, design2)`` items; their
    ratios are concatenated in order, checked positive and finite once, and
    each is assessed with its own design's constants.  Under ``derived`` the
    variance is factor * e**2 and the bias factor * c / 2, with the
    elasticities of all three measures from one call; under ``as-published``
    each measure's printed shapes are one call, scaled by the design's
    factor and bias constants.

    Returns point, variance, bias, plain bounds and clamp flags, then the
    same three for the bias-corrected interval, each as one ``(measure,
    ratio)`` array; the corrected bounds are NaN where the bias is not finite.
    """
    z = _normal_z(level)
    factors, constants = zip(*(_design_constants(method, d1, d2, source)
                               for _r, method, d1, d2 in blocks))
    ratios = [np.asarray(block[0], dtype=float).reshape(-1) for block in blocks]
    sizes = [r.size for r in ratios]
    r = _positive_array("shape ratio", np.concatenate(ratios))
    # every design's constants, repeated over its own ratios
    factor = np.repeat(factors, sizes)
    point = np.array([_CORES[measure](r) for measure in MEASURES])
    if source == SOURCE_DERIVED:
        e, c = _terms(r)
        variance = factor * e * e
        bias = 0.5 * factor * c
    else:
        # far from R = 1 the printed shapes, and the variance and bias they
        # scale, overflow to non-finite values, which the checks below or the
        # report notes name; numpy's warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            shapes = np.array([_PUBLISHED[measure](r) for measure in MEASURES])
            variance = factor * shapes[:, 0]
            bias = np.repeat(np.array(constants).T, sizes, 1) * shapes[:, 1]
    _check_variance(variance)
    half = z * np.sqrt(variance)
    finite = np.isfinite(bias)  # no corrected interval, and no clamp, where the bias has no value
    lo_c, hi_c, clamped_c = _clamped_bounds(np.where(finite, point - bias, np.nan), half)
    return (point, variance, bias, *_clamped_bounds(point, half), lo_c, hi_c, clamped_c & finite)


def assess(
    ratios,
    method: str,
    design1: SrsDesign | RssDesign,
    design2: SrsDesign | RssDesign,
    source: str = SOURCE_DERIVED,
    level: float = 0.95,
) -> dict:
    """Delta-method assessment of all three coefficients at each corrected ratio.

    Returns ``{measure: Assessment}`` in :data:`MEASURES` order, one entry per
    element of the one-dimensional ``ratios``.  ``derived`` evaluates
    factor * e**2 and factor * c / 2 for factor = Var(ratio)/R**2 and the
    elasticities e = R*dg/dR, c = R**2*d2g/dR2 (at R=1 the Weitzman variance
    keeps its two-sided kink limit exp(-2) * factor and its bias is 0);
    ``as-published`` reproduces the printed expressions with their own
    constants, whose Weitzman bias has no finite value at R=1 (NaN).

    Raises :class:`DomainError` when a ratio is not positive and finite or
    a variance is not finite and nonnegative.  Where a bias is not finite,
    the bias-corrected bounds are NaN.
    """
    r = np.asarray(ratios, dtype=float)  # _assess_designs checks positive and finite
    if r.ndim != 1:
        raise DomainError("ratios must be a one-dimensional array")
    arrays = _assess_designs([(r, method, design1, design2)], source, level)
    return dict(zip(MEASURES, (Assessment(*row) for row in zip(*arrays))))


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
    _check_variance(variance)
    if bias_corrected:
        _check_bias(bias)
    center = point - bias if bias_corrected else point
    lo, hi, clamped = _clamped_bounds(center, z * np.sqrt(variance))
    return ConfidenceInterval(
        lo=float(lo),
        hi=float(hi),
        level=float(level),
        bias_corrected=bool(bias_corrected),
        clamped=bool(clamped),
    )
