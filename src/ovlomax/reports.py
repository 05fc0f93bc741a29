"""Dataset parsing and structured estimation reports.

Two input formats are understood:

* plain observation lists for simple random samples: numbers separated by
  whitespace or commas, ``#`` starts a comment;
* ranked set samples as CSV with header ``rank,cycle,value``, one retained
  observation per (rank, cycle) slot, all slots required.

:func:`build_estimate_report` bundles everything a data analysis needs:
shape estimates for both populations, raw and corrected ratio, the three
overlap point estimates, per-measure variance and bias, and both interval
variants.  Reports serialize to and from JSON without losing precision.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .dist_core import DomainError
from .estimators import (
    METHOD_BAYES,
    METHOD_RSS,
    METHOD_SRS,
    METHODS,
    SOURCE_AS_PUBLISHED,
    SOURCE_DERIVED,
    ConfidenceInterval,
    alpha_bayes_jeffreys,
    alpha_rss,
    assess,
    confidence_interval,
    corrected_ratio,
    mle_alpha_srs,
    ratio_estimate,
)
from .overlap import MEASURES, overlap_value
from .sampling import RankedSample, RssDesign

__all__ = [
    "Dataset",
    "DatasetParseError",
    "parse_dataset",
    "parse_ranked_dataset",
    "MeasureReport",
    "EstimateReport",
    "build_estimate_report",
    "bundled_counts",
    "real_data_summary",
]


class DatasetParseError(ValueError):
    """Raised with the offending line number when input data cannot be read."""

    def __init__(self, lineno: int, token: str, reason: str):
        self.lineno = lineno
        self.token = token
        self.reason = reason
        where = f"line {lineno}: " if lineno else ""
        what = f" (got {token!r})" if token else ""
        super().__init__(f"{where}{reason}{what}")


@dataclass(frozen=True)
class Dataset:
    """A positive observation vector with an optional label."""

    values: np.ndarray
    label: str = ""

    @property
    def n(self) -> int:
        return int(self.values.size)


def parse_dataset(text: str, label: str = "") -> Dataset:
    """Parse a plain observation list (whitespace or comma separated)."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in line.replace(",", " ").split():
            try:
                v = float(token)
            except ValueError:
                raise DatasetParseError(lineno, token, "not a number") from None
            if not math.isfinite(v) or v <= 0.0:
                raise DatasetParseError(lineno, token, "observations must be positive and finite")
            values.append(v)
    if not values:
        raise DatasetParseError(0, "", "no observations found")
    return Dataset(values=np.asarray(values, dtype=float), label=label)


def parse_ranked_dataset(text: str) -> RankedSample:
    """Parse a ranked set sample from ``rank,cycle,value`` CSV.

    Ranks must cover 1..r and cycles 1..m with every slot filled exactly
    once; duplicates and holes are reported with their coordinates.
    """
    lines = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["rank", "cycle", "value"]:
        raise DatasetParseError(1, ",".join(header or []), "expected header 'rank,cycle,value'")
    seen: dict = {}
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != 3:
            raise DatasetParseError(lineno, ",".join(rec), "expected three fields")
        try:
            rank, cycle = int(rec[0]), int(rec[1])
            value = float(rec[2])
        except ValueError:
            raise DatasetParseError(lineno, ",".join(rec), "rank/cycle must be integers, value numeric") from None
        if rank < 1 or cycle < 1:
            raise DatasetParseError(lineno, ",".join(rec), "rank and cycle are 1-based")
        if not math.isfinite(value) or value <= 0.0:
            raise DatasetParseError(lineno, rec[2], "observations must be positive and finite")
        if (rank, cycle) in seen:
            raise DatasetParseError(lineno, ",".join(rec), f"duplicate slot rank={rank} cycle={cycle}")
        seen[(rank, cycle)] = value
    if not seen:
        raise DatasetParseError(0, "", "no observations found")
    r = max(k[0] for k in seen)
    m = max(k[1] for k in seen)
    missing = [(i, k) for i in range(1, r + 1) for k in range(1, m + 1) if (i, k) not in seen]
    if missing:
        shown = ", ".join(f"rank={i} cycle={k}" for i, k in missing[:5])
        more = "" if len(missing) <= 5 else f" (and {len(missing) - 5} more)"
        raise DatasetParseError(0, "", f"incomplete design ({r} ranks x {m} cycles): missing {shown}{more}")
    values = np.empty((r, m), dtype=float)
    for (rank, cycle), v in seen.items():
        values[rank - 1, cycle - 1] = v
    return RankedSample(values=values, design=RssDesign(r=r, m=m))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureReport:
    measure: str
    point: float
    variance: float | None
    bias: float | None
    interval: ConfidenceInterval | None
    interval_corrected: ConfidenceInterval | None

    def to_dict(self) -> dict:
        def ci(iv):
            if iv is None:
                return None
            return {
                "lo": iv.lo,
                "hi": iv.hi,
                "level": iv.level,
                "bias_corrected": iv.bias_corrected,
                "clamped": iv.clamped,
            }

        return {
            "measure": self.measure,
            "point": self.point,
            "variance": self.variance,
            "bias": self.bias,
            "interval": ci(self.interval),
            "interval_corrected": ci(self.interval_corrected),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MeasureReport":
        def ci(obj):
            if obj is None:
                return None
            return ConfidenceInterval(
                lo=obj["lo"],
                hi=obj["hi"],
                level=obj["level"],
                bias_corrected=obj["bias_corrected"],
                clamped=obj["clamped"],
            )

        return cls(
            measure=d["measure"],
            point=d["point"],
            variance=d["variance"],
            bias=d["bias"],
            interval=ci(d["interval"]),
            interval_corrected=ci(d["interval_corrected"]),
        )


@dataclass(frozen=True)
class EstimateReport:
    """Full estimation output for one method on one pair of samples."""

    method: str
    formula_source: str
    level: float
    n1: int
    n2: int
    alpha1: float
    alpha2: float
    ratio_raw: float
    ratio_unbiased: float
    ratio_variance: float | None
    measures: tuple
    warnings: tuple

    def measure(self, name: str) -> MeasureReport:
        for rep in self.measures:
            if rep.measure == name:
                return rep
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "formula_source": self.formula_source,
            "level": self.level,
            "n1": self.n1,
            "n2": self.n2,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "ratio_raw": self.ratio_raw,
            "ratio_unbiased": self.ratio_unbiased,
            "ratio_variance": self.ratio_variance,
            "measures": [m.to_dict() for m in self.measures],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimateReport":
        return cls(
            method=d["method"],
            formula_source=d["formula_source"],
            level=d["level"],
            n1=d["n1"],
            n2=d["n2"],
            alpha1=d["alpha1"],
            alpha2=d["alpha2"],
            ratio_raw=d["ratio_raw"],
            ratio_unbiased=d["ratio_unbiased"],
            ratio_variance=d["ratio_variance"],
            measures=tuple(MeasureReport.from_dict(m) for m in d["measures"]),
            warnings=tuple(d["warnings"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls.from_dict(json.loads(text))


def _alpha_for(method: str, sample) -> float:
    if method == METHOD_RSS:
        if not isinstance(sample, RankedSample):
            raise DomainError("method 'rss' requires ranked set samples (rank,cycle,value)")
        return alpha_rss(sample)
    if isinstance(sample, RankedSample):
        raise DomainError(f"method {method!r} requires plain observation vectors")
    arr = np.asarray(sample, dtype=float)
    if method == METHOD_SRS:
        return mle_alpha_srs(arr)
    if method == METHOD_BAYES:
        return alpha_bayes_jeffreys(arr)
    raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


def _interval(lo, hi, clamped, level, bias_corrected) -> ConfidenceInterval:
    return ConfidenceInterval(lo=float(lo[0]), hi=float(hi[0]), level=float(level),
                              bias_corrected=bias_corrected, clamped=bool(clamped[0]))


def _measure_reports(rhat: float, est, level: float, warnings: list) -> list:
    args = ([rhat], est.method, est.design1, est.design2, est.source, level)
    try:
        block = assess(*args)
    except DomainError:
        # only a non-finite bias passes once bias correction is off; any
        # other failure raises again here
        block = assess(*args, bias_corrected=False)
    reports = []
    for meas, a in block.items():
        point, var, bias = float(a.point[0]), float(a.variance[0]), float(a.bias[0])
        if a.lo_corrected is not None:
            corrected = _interval(a.lo_corrected, a.hi_corrected, a.clamped_corrected, level, True)
        elif math.isfinite(bias):
            corrected = confidence_interval(point, var, bias, level, bias_corrected=True)
        else:
            corrected = None
            warnings.append(
                f"{est.source} {meas} bias is not finite at corrected ratio {rhat:.9g}: "
                "no bias-corrected interval"
            )
        plain = _interval(a.lo, a.hi, a.clamped, level, False)
        reports.append(MeasureReport(meas, point, var, bias, plain, corrected))
    return reports


def build_estimate_report(sample1, sample2, method: str, source: str = SOURCE_DERIVED,
                          level: float = 0.95) -> EstimateReport:
    """Estimate the overlap coefficients from two observed samples.

    ``sample1``/``sample2`` are observation vectors for ``srs``/``bayes`` or
    :class:`RankedSample` objects for ``rss``.  The report always carries the
    point estimates; variance, bias, and intervals are omitted (with a
    warning) when the second design is too small for the ratio variance to
    exist.  A measure whose bias is not finite (the as-published Weitzman
    bias at a corrected ratio of one) keeps its plain interval, has no
    bias-corrected one, and adds a warning.
    """
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie strictly inside (0, 1)")

    a1 = _alpha_for(method, sample1)
    a2 = _alpha_for(method, sample2)
    est = ratio_estimate(a1, a2, source)
    rhat = est.unbiased
    warnings = []

    other = SOURCE_AS_PUBLISHED if source == SOURCE_DERIVED else SOURCE_DERIVED
    other_rhat = corrected_ratio(est.raw, method, est.design1, est.design2, other)
    if abs(other_rhat - rhat) > 1e-9 * max(1.0, abs(rhat)):
        warnings.append(
            "formula sources disagree on the corrected ratio: "
            f"{source} gives {rhat:.9g}, {other} gives {other_rhat:.9g}"
        )
    if method == METHOD_BAYES and source == SOURCE_DERIVED:
        warnings.append(
            "the internally consistent correction for the Jeffreys-prior ratio "
            "cancels its prior factor, so the corrected ratio equals the "
            "simple-random corrected ratio"
        )

    if est.variance is None:
        warnings.append(
            f"n2 = {est.design2.n} < 3: ratio variance is undefined, "
            "point estimates only"
        )
        reports = [
            MeasureReport(meas, float(overlap_value(meas, rhat)), None, None, None, None)
            for meas in MEASURES
        ]
    else:
        reports = _measure_reports(rhat, est, level, warnings)

    return EstimateReport(
        method=method,
        formula_source=source,
        level=level,
        n1=est.design1.n,
        n2=est.design2.n,
        alpha1=a1.value,
        alpha2=a2.value,
        ratio_raw=est.raw,
        ratio_unbiased=rhat,
        ratio_variance=est.variance,
        measures=tuple(reports),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Bundled example data
# ---------------------------------------------------------------------------


def bundled_counts() -> tuple:
    """The two bundled air conditioning failure-interval datasets.

    Returns (plane 8044 with 12 observations, plane 7912 with 30
    observations), the classic Proschan maintenance data.
    """
    from importlib.resources import files

    pkg = files("ovlomax.data")
    d1 = parse_dataset(pkg.joinpath("proschan_8044.txt").read_text(encoding="utf-8"), "plane_8044")
    d2 = parse_dataset(pkg.joinpath("proschan_7912.txt").read_text(encoding="utf-8"), "plane_7912")
    return d1, d2


def real_data_summary(source: str = SOURCE_DERIVED, level: float = 0.95) -> dict:
    """Flat summary of the bundled-data analysis used by the discrepancy report.

    Bias entries hold the magnitude of the second-order bias term, matching
    the sign-free convention of the published layout.  Only the two methods
    that are computable from plain observation lists appear under
    ``methods``; no ranked-set design is stated for this example.
    """
    d1, d2 = bundled_counts()
    reports = {method: build_estimate_report(d1.values, d2.values, method, source, level)
               for method in (METHOD_SRS, METHOD_BAYES)}
    base = reports[METHOD_SRS]
    out = {
        "alpha1": base.alpha1,
        "alpha2": base.alpha2,
        "ratio_raw": base.ratio_raw,
        "ratio_unbiased": base.ratio_unbiased,
        "estimates": {m.measure: m.point for m in base.measures},
        "methods": {},
    }
    for method, rep in reports.items():
        out["methods"][method] = {
            "bias": {m.measure: abs(m.bias) for m in rep.measures},
            "variance": {m.measure: m.variance for m in rep.measures},
            "ci": {m.measure: (m.interval.lo, m.interval.hi) for m in rep.measures},
        }
    return out
