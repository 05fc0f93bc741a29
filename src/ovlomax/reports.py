"""Dataset parsing and structured estimation reports.

Two input formats are understood:

* plain observation lists for simple random samples: numbers separated by
  whitespace or commas;
* ranked set samples as CSV with header ``rank,cycle,value``, one retained
  observation per (rank, cycle) slot, all slots required.

In both, ``#`` starts a comment running to the end of its line, and errors
name the physical line, comment and blank lines counted: ranked files, like
saved study CSVs, go through :func:`_csv_records`, whose ``csv`` module reads
every physical line.  Both refuse an observation outside the float range of
draws, whose rule and refusal text live in :mod:`ovlomax.dist_core`.

:func:`build_estimate_report` bundles everything a data analysis needs:
shape estimates for both populations, raw and corrected ratio, the three
overlap point estimates, per-measure variance and bias, and both interval
variants.  It takes the study engine's path: ``shape_estimates`` of each
sample, ``corrected_ratio`` and ``ratio_variance_factor`` for the ratio, and
one call of the study's kernel, ``_assess_designs``, for all three
measures.  The level, method and design rules, and their refusal texts,
are the estimators'; this module writes none of them.  Reports serialize to and from JSON without losing precision; every
JSON text of the package, reports or dicts and lists that may hold them,
comes from one writer, :func:`_json_text`, as ``json.dumps(indent=2)`` writes
it with each report as its ``dataclasses.asdict``.  The discrepancy report
reads the reports of the bundled datasets (:func:`bundled_counts`) itself.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .dist_core import _HUGE, _TINY, ConfigError, DomainError, _range_refusal
from .estimators import (
    METHOD_BAYES,
    METHOD_RSS,
    SOURCE_AS_PUBLISHED,
    SOURCE_DERIVED,
    ConfidenceInterval,
    DegenerateDesignError,
    _assess_designs,
    _normal_z,
    corrected_ratio,
    ratio_variance_factor,
    shape_estimates,
)
from .overlap import MEASURES, overlap_value
from .sampling import RankedSample, RssDesign, SrsDesign

__all__ = [
    "Dataset",
    "DatasetParseError",
    "parse_dataset",
    "parse_ranked_dataset",
    "MeasureReport",
    "EstimateReport",
    "build_estimate_report",
    "bundled_counts",
]


class DatasetParseError(ConfigError):
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
            if not _TINY <= v <= _HUGE:
                raise DatasetParseError(lineno, token, _range_refusal(v, "observations", None))
            values.append(v)
    if not values:
        raise DatasetParseError(0, "", "no observations found")
    return Dataset(values=np.asarray(values, dtype=float), label=label)


def _csv_records(lines, error):
    """``(line, record)`` for each nonempty record the ``csv`` module reads from
    ``lines``, ``line`` the one it ends on; a ``csv.Error`` raises ``error(line, why)``."""
    reader = csv.reader(lines)
    try:
        for rec in reader:
            if rec:
                yield reader.line_num, rec
    except csv.Error as exc:
        raise error(reader.line_num, str(exc)) from None


def parse_ranked_dataset(text: str) -> RankedSample:
    """Parse a ranked set sample from ``rank,cycle,value`` CSV.

    Ranks must cover 1..r and cycles 1..m with every slot filled exactly
    once; duplicates and holes are reported with their coordinates.  Line
    numbers are the ``csv`` module's count of every physical line read.
    """
    lines = (raw.split("#", 1)[0].rstrip() for raw in text.splitlines())
    recs = _csv_records(lines, lambda lineno, why: DatasetParseError(lineno, "", why))
    lineno, header = next(recs, (1, []))  # a file with no header fails at line 1
    if [h.strip().lower() for h in header] != ["rank", "cycle", "value"]:
        raise DatasetParseError(lineno, ",".join(header), "expected header 'rank,cycle,value'")
    seen: dict = {}
    for lineno, rec in recs:
        if len(rec) != 3:
            raise DatasetParseError(lineno, ",".join(rec), "expected three fields")
        try:
            rank, cycle = int(rec[0]), int(rec[1])
            value = float(rec[2])
        except ValueError:
            raise DatasetParseError(lineno, ",".join(rec), "rank/cycle must be integers, value numeric") from None
        if rank < 1 or cycle < 1:
            raise DatasetParseError(lineno, ",".join(rec), "rank and cycle are 1-based")
        if not _TINY <= value <= _HUGE:
            raise DatasetParseError(lineno, rec[2], _range_refusal(value, "observations", None))
        if (rank, cycle) in seen:
            raise DatasetParseError(lineno, ",".join(rec), f"duplicate slot rank={rank} cycle={cycle}")
        seen[(rank, cycle)] = value
    if not seen:
        raise DatasetParseError(0, "", "no observations found")
    r = max(k[0] for k in seen)
    m = max(k[1] for k in seen)
    missing = r * m - len(seen)  # every seen slot lies in the r x m grid
    if missing:  # the first five holes lie within the first len(seen) + 5 slots
        holes = ((i, k) for i in range(1, r + 1) for k in range(1, m + 1) if (i, k) not in seen)
        shown = ", ".join(f"rank={i} cycle={k}" for _, (i, k) in zip(range(5), holes))
        more = "" if missing <= 5 else f" (and {missing - 5} more)"
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

    @classmethod
    def from_dict(cls, d: dict) -> "EstimateReport":
        def interval(iv):
            return None if iv is None else ConfidenceInterval(**iv)

        measures = tuple(MeasureReport(**{**m, "interval": interval(m["interval"]),
                                          "interval_corrected": interval(m["interval_corrected"])})
                         for m in d["measures"])
        return cls(**{**d, "measures": measures, "warnings": tuple(d["warnings"])})

    def to_json(self) -> str:
        return _json_text(self)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls.from_dict(json.loads(text))


def _json_text(v) -> str:
    """``json.dumps(v, indent=2) + "\\n"``: the package's one JSON writer."""
    pieces = []
    _json_into(pieces, v)
    pieces.append("\n")
    return "".join(pieces)


def _json_into(out: list, v, depth: int = 0, _repr=float.__repr__, _inf=math.inf) -> None:
    """Append ``v`` to ``out`` as ``json.dumps(v, indent=2)`` writes it at indent
    level ``depth``, in short pieces: lists and tuples as arrays, dicts (string
    keys) as objects, and reports, measures and intervals as objects by field."""
    if isinstance(v, float):
        out.append("NaN" if v != v else "Infinity" if v == _inf else "-Infinity" if v == -_inf
                   else _repr(v))
    elif isinstance(v, str):
        out.append(json.encoder.encode_basestring_ascii(v))
    elif v is None or isinstance(v, bool):
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif (names := _JSON_NAMES.get(type(v))) or isinstance(v, (list, tuple, dict)):
        if names:
            v, brackets = vars(v).values(), "{}"
        elif isinstance(v, dict):  # its keys name its values, as a report's fields do
            names = [json.encoder.encode_basestring_ascii(k) + ": " for k in v]
            v, brackets = v.values(), "{}"
        else:
            names, brackets = repeat(""), "[]"
        pad = "\n" + "  " * (depth + 1)
        sep, comma = brackets[0] + pad, "," + pad
        for name, x in zip(names, v):
            out.append(sep + name)
            _json_into(out, x, depth + 1)
            sep = comma
        out.append(pad[:-2] + brackets[1] if sep is comma else brackets)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_JSON_NAMES = {cls: [json.encoder.encode_basestring_ascii(f.name) + ": " for f in fields(cls)]
               for cls in (EstimateReport, MeasureReport, ConfidenceInterval)}


def _alpha_for(method: str, sample) -> tuple:
    """The shape estimate of one sample and its design, checked for ``method``."""
    if method == METHOD_RSS:
        if not isinstance(sample, RankedSample):
            raise DomainError("method 'rss' requires ranked set samples (rank,cycle,value)")
        return float(shape_estimates(METHOD_RSS, sample.values.reshape(-1))), sample.design
    if isinstance(sample, RankedSample):
        raise DomainError(f"method {method!r} requires plain observation vectors")
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("sample must be a nonempty one-dimensional collection")
    # shape_estimates checks the values positive and finite, and the method known
    return float(shape_estimates(method, arr)), SrsDesign(arr.size)


def build_estimate_report(sample1, sample2, method: str, source: str = SOURCE_DERIVED,
                          level: float = 0.95) -> EstimateReport:
    """Estimate the overlap coefficients from two observed samples.

    ``sample1``/``sample2`` are observation vectors for ``srs``/``bayes`` or
    :class:`RankedSample` objects for ``rss``.  The level, the method and
    the designs are checked by the estimators, with their texts.  A design
    whose mean correction is zero (n2 = 1, or n1 = 1 for as-published
    ``bayes``) raises :class:`DegenerateDesignError`; otherwise the report
    carries the point estimates, and variance, bias, and intervals are
    omitted when the ratio variance does not exist (n2 < 3 for ``srs`` and
    ``bayes``), with the estimators' refusal plus ``: point estimates only``
    as a warning.  A measure whose bias is not finite (the as-published
    Weitzman bias at a corrected ratio of one) keeps its plain interval, has
    no bias-corrected one, and adds a warning.
    """
    _normal_z(level)  # a report without intervals still checks its level

    alpha1, design1 = _alpha_for(method, sample1)
    alpha2, design2 = _alpha_for(method, sample2)
    raw = alpha1 / alpha2
    rhat = corrected_ratio(raw, method, design1, design2, source)
    try:
        variance = rhat**2 * ratio_variance_factor(method, design1, design2, source)
    except DegenerateDesignError as exc:
        variance, undefined = None, f"{exc}: point estimates only"
    warnings = []

    other = SOURCE_AS_PUBLISHED if source == SOURCE_DERIVED else SOURCE_DERIVED
    try:
        other_rhat = corrected_ratio(raw, method, design1, design2, other)
    except DegenerateDesignError as exc:
        gives = f"has no corrected ratio here ({exc})"
    else:
        differs = abs(other_rhat - rhat) > 1e-9 * max(1.0, abs(rhat))
        gives = f"gives {other_rhat:.9g}" if differs else ""
    if gives:
        warnings.append("formula sources disagree on the corrected ratio: "
                        f"{source} gives {rhat:.9g}, {other} {gives}")
    if method == METHOD_BAYES and source == SOURCE_DERIVED:
        warnings.append(
            "the internally consistent correction for the Jeffreys-prior ratio "
            "cancels its prior factor, so the corrected ratio equals the "
            "simple-random corrected ratio"
        )

    if variance is None:
        warnings.append(undefined)
        reports = [
            MeasureReport(meas, float(overlap_value(meas, rhat)), None, None, None, None)
            for meas in MEASURES
        ]
    else:
        # one (measure, ratio) array per quantity, one ratio: a column of floats each
        arrays = _assess_designs([([rhat], method, design1, design2)], source, level)
        reports = []
        for meas, point, var, bias, lo, hi, clamped, lo_c, hi_c, clamped_c in zip(
                MEASURES, *(a[:, 0].tolist() for a in arrays)):
            corrected = None
            if math.isfinite(bias):
                corrected = ConfidenceInterval(lo_c, hi_c, float(level), True, clamped_c)
            else:
                warnings.append(
                    f"{source} {meas} bias is not finite at corrected ratio {rhat:.9g}: "
                    "no bias-corrected interval"
                )
            plain = ConfidenceInterval(lo, hi, float(level), False, clamped)
            reports.append(MeasureReport(meas, point, var, bias, plain, corrected))

    return EstimateReport(
        method=method,
        formula_source=source,
        level=level,
        n1=design1.n,
        n2=design2.n,
        alpha1=alpha1,
        alpha2=alpha2,
        ratio_raw=raw,
        ratio_unbiased=rhat,
        ratio_variance=variance,
        measures=tuple(reports),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Bundled example data
# ---------------------------------------------------------------------------


def _bundled_text(name: str) -> str:
    """The text of ``name`` in ``ovlomax.data``: the one reader of the bundled data files."""
    from importlib.resources import files

    return files("ovlomax.data").joinpath(name).read_text(encoding="utf-8")


def bundled_counts() -> tuple:
    """The two bundled air conditioning failure-interval datasets.

    Returns (plane 8044 with 12 observations, plane 7912 with 30
    observations), the classic Proschan maintenance data.
    """
    return tuple(parse_dataset(_bundled_text(f"proschan_{plane}.txt"), f"plane_{plane}")
                 for plane in ("8044", "7912"))
