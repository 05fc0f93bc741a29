"""Monte Carlo study engine and table emission.

A study runs over a grid of cells: true shape ratio ``R`` x set sizes
``(r1, r2)`` x cycle count ``m`` x estimation method.  Each cell/method pair
simulates ``replications`` independent samples (simple random samples of
size ``r*m`` for ``srs``/``bayes``, ranked set samples of design ``(r, m)``
for ``rss``), estimates the corrected ratio and the three overlap
coefficients, and aggregates bias, mean squared error, interval coverage,
and mean interval length.

Interpretation notes baked into the emitted artifacts:

* the published study tables label the interval-coverage column ``ratio``;
  here it is computed as the empirical coverage proportion of the nominal
  ``1 - level_alpha0`` interval, and both the plain and the bias-corrected
  interval variants are emitted (as two sibling CSV files);
* efficiency is MSE(srs) / MSE(rss) at equal retained sample sizes, so
  values above one favour ranked set sampling;
* the published efficiency tables are not reproducible from the published
  formulas, so they are transcribed verbatim into a fixtures file and
  compared cell by cell in a discrepancy report instead of being asserted.

The unit of simulation is a design group: the cells that share ``(r1, r2,
m, method)`` and differ only in ``R``; refused groups are skipped before any
slab forms.  One pass runs the study grid's groups and, when asked, the
figure grid's (the figure R grid at the first ``(r1, r2)`` and cycle count).
The unit of work is a slab: consecutive accepted groups of either grid whose
32-byte rows of PCG64 state words fit in ``_BLOCK_BYTES`` (2^14
replications), or a single larger group, seeded, simulated, assessed and
aggregated in the process that runs it: groups in, aggregates out.  The
slabs run over one pool of ``min(workers, slabs)`` processes when that is
two or more, and in the calling process otherwise.  A group's replications
are the rows of draw blocks whose uniforms fit in the same budget (2^16
uniforms), ranked into ranked sets on the uniforms and estimated from ``T =
-alpha * log(u)`` of the retained ones; a slab's groups are one block list
of one delta-method assessment, then one mean per aggregate, each group's
cells against their own ``R``.  No output depends on the budget.

Reproducibility: every replication draws from its own PCG64 stream seeded by
a SplitMix64 fold of (master_seed, namespace, cell_index, replication), the
study in namespace 0 and the figure grid in 1; only the seeding arithmetic
and the kernel calls are batched.  Results are
therefore independent of scheduling, grouping and block sizes, and re-running
a config yields byte-identical CSV output, with any number of workers.

A :class:`StudyConfig` is frozen and checked once, when made.  Its refusals,
and those of a malformed study CSV or table request, are a ``ConfigError``
(:mod:`ovlomax.dist_core`), of which :class:`MissingCellError` is one.

Output is text-first: all cells' aggregates form one ``(cell, measure,
aggregate)`` array, and both study CSVs are :class:`StudyRow`'s columns of
text, formatted by field annotation, the ones both files share once, and
written by the package's one CSV writer.  That text is the one source of
truth: :class:`StudyResult` parses its rows from it only when asked for them.
"""
from __future__ import annotations

import io
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial
from itertools import compress, repeat

import numpy as np

from . import __version__, _seeds
from .dist_core import (_HUGE, _NEG_LOG_U_MAX, _NEG_LOG_U_MIN, _TINY, ConfigError, DomainError,
                        _t_of_uniform)
from .estimators import (
    METHOD_BAYES,
    METHOD_RSS,
    METHOD_SRS,
    METHODS,
    SOURCE_DERIVED,
    SOURCES,
    _assess_designs,
    _check_bias,
    _refusal,
    _shape_from_t,
    confidence_interval,  # noqa: F401  (bound here for perfbench's tracer checks)
    corrected_ratio,
)
from .overlap import _CORES, MEASURES
from .reports import _bundled_text, _csv_records, _json_text, build_estimate_report, bundled_counts
from .sampling import RssDesign, SrsDesign, rss_retained

__all__ = [
    "DEFAULT_R_VALUES",
    "DEFAULT_SET_SIZES",
    "DEFAULT_FIGURE_R_GRID",
    "STUDY_CSV_COLUMNS",
    "MissingCellError",
    "StudyConfig",
    "StudyRow",
    "StudyResult",
    "EfficiencyCell",
    "efficiency_grid",
    "run_study",
    "emit_rows_csv",
    "parse_rows_csv",
    "emit_tables",
    "discrepancy_report",
]

DEFAULT_R_VALUES = (0.1, 0.5, 0.75, 0.8, 0.9)
DEFAULT_SET_SIZES = tuple((r1, r2) for r1 in (2, 3, 4, 5) for r2 in (2, 3, 4, 5))
DEFAULT_FIGURE_R_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
# bytes of one draw block's float uniforms (2^16 of them) and of one slab's
# 32-byte rows of state words (2^14 replications): a fixed size that bounds
# memory and the number of numpy calls; outputs do not depend on it
_BLOCK_BYTES = 2**19
# version of the map from (master_seed, namespace, cell_index, replication) to
# the uniforms a replication draws; bumped only when study outputs change on purpose
_SEED_LAYOUT = 1


class MissingCellError(ConfigError):
    """Table emission was asked for a grid the rows do not cover, or was
    given no rows at all (``cells`` empty)."""

    def __init__(self, cells: list[str]):
        self.cells = list(cells)
        preview = "; ".join(self.cells)
        super().__init__(f"missing {len(self.cells)} grid cell(s): {preview}" if self.cells
                         else "no rows to tabulate")


def _round6(x: float) -> float:
    return float(f"{float(x):.6g}")


# booleans are ints to Python, but never a count or a number in a config
def _is_count(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _distinct(grid: tuple, keys, refusal: str) -> tuple:
    """``grid``, refused with ``refusal % key`` for a key it repeats."""
    twice = [key for key, count in Counter(keys).items() if count > 1]
    if twice:
        raise ConfigError(refusal % (twice[0],))
    return grid


def _ratio_grid(name: str, values) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence of numbers") from None
    if not all(_is_number(r) for r in items):
        raise ConfigError(f"{name} must be a sequence of numbers")
    grid = tuple(float(r) for r in items)
    if not grid or any(not math.isfinite(r) or r <= 0 for r in grid):
        raise ConfigError(f"{name} must be nonempty, positive, and finite")
    return _distinct(grid, map(_round6, grid), f"{name} repeats R = %.6g at six significant digits")


def _set_size_grid(values) -> tuple:
    try:
        pairs = tuple((a, b) for a, b in values)
    except (TypeError, ValueError):
        raise ConfigError("set_sizes must be a sequence of (r1, r2) pairs") from None
    if not pairs or not all(_is_count(a) and _is_count(b) and a >= 1 and b >= 1
                            for a, b in pairs):
        raise ConfigError("set_sizes must hold integers >= 1")
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    return _distinct(pairs, pairs, "set_sizes repeats the pair %s")


def _cycle_grid(values) -> tuple:
    try:
        cycles = tuple(values)
    except TypeError:
        raise ConfigError("cycles must be a sequence of integers") from None
    if not cycles or not all(_is_count(m) and m >= 1 for m in cycles):
        raise ConfigError("cycles must be integers >= 1")
    cycles = tuple(int(m) for m in cycles)
    return _distinct(cycles, cycles, "cycles repeats %d")


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class StudyConfig:
    """Grid and execution parameters for one study run.

    Each cell draws population 1 at shape ``R`` and population 2 at shape 1,
    so every output depends on the two shapes only through ``R``.
    ``figure_r_grid`` is only consulted by ``run_study(..., figures=True)``;
    the dense default covers (0, 1) in steps of 0.05.  Frozen, and checked
    once, when made: ``dataclasses.replace`` checks each config it makes.
    """

    r_values: tuple = DEFAULT_R_VALUES
    set_sizes: tuple = DEFAULT_SET_SIZES
    cycles: tuple = (8,)
    replications: int = 1000
    level_alpha0: float = 0.05
    master_seed: int = 0
    formula_source: str = SOURCE_DERIVED
    figure_r_grid: tuple | None = None

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        store("r_values", _ratio_grid("r_values", self.r_values))
        store("set_sizes", _set_size_grid(self.set_sizes))
        store("cycles", _cycle_grid(self.cycles))
        if not _is_count(self.replications) or self.replications < 1:
            raise ConfigError("replications must be an integer >= 1")
        store("replications", int(self.replications))
        if not _is_number(self.level_alpha0) or not (0.0 < self.level_alpha0 < 1.0):
            raise ConfigError("level_alpha0 must be a number strictly inside (0, 1)")
        store("level_alpha0", float(self.level_alpha0))
        if not _is_count(self.master_seed) or int(self.master_seed) not in _seeds.SEEDS:
            raise ConfigError("master_seed must be an integer in [0, 2**64)")
        store("master_seed", int(self.master_seed))
        if self.formula_source not in SOURCES:
            raise ConfigError(f"formula_source must be one of {SOURCES}")
        if self.figure_r_grid is not None:
            store("figure_r_grid", _ratio_grid("figure_r_grid", self.figure_r_grid))
        # worst case of a sample's sum of T = -alpha * log(u), u >= tiny: the largest
        # shape any cell draws (an R of either grid, or population 2's 1) times the largest n
        figure = DEFAULT_FIGURE_R_GRID if self.figure_r_grid is None else self.figure_r_grid
        grid = (1.0, *self.r_values, *figure)
        n = max(map(max, self.set_sizes)) * max(self.cycles)
        # an int compares with a float exactly: a count past the float range is refused, too
        if n > _HUGE / (max(grid) * _NEG_LOG_U_MAX):
            size = f"up to {n:.6g}" if n <= _HUGE else "more than 1.8e308"
            raise ConfigError(
                f"a sample of {size} values (set_sizes x cycles) at shape {max(grid):.6g} "
                "(the largest R of r_values and figure_r_grid, or population 2's 1) is too "
                "large: its sum of T = -alpha * log(u) overflows")
        # and the least T, at the smallest shape, must be normal: a subnormal T keeps few bits
        if min(grid) * _NEG_LOG_U_MIN < _TINY:
            raise ConfigError(
                f"r_values or figure_r_grid reaches R = {min(grid):.6g}, too small: "
                "T = -alpha * log(u) at that shape falls below the smallest normal float")

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        try:  # a key given twice is refused, not read as its last value
            data = json.loads(text, object_pairs_hook=lambda pairs: dict(_distinct(
                pairs, (key for key, _value in pairs), "repeated configuration key: %s")))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """Every field with tuples as lists; an unset ``figure_r_grid`` is left out."""
        return {name: _listed(value) for name, value in vars(self).items() if value is not None}

    def to_json(self) -> str:
        return _json_text(self.to_dict())


@dataclass
class StudyRow:
    """One (method, measure, cell) aggregate; float fields are stored already
    rounded to six significant digits so CSV emission round-trips exactly.

    Not frozen: the frozen ``__init__`` sets each field through
    ``object.__setattr__``, several times slower per row, and rows are
    never mutated or hashed."""

    method: str
    measure: str
    R: float
    r1: int
    r2: int
    m: int
    reps: int
    abs_bias: float
    signed_bias: float
    mse: float
    coverage: float
    ci_length: float
    efficiency: float | None
    formula_source: str
    seed: int


STUDY_CSV_COLUMNS = tuple(f.name for f in fields(StudyRow))
# reads one CSV cell back into a StudyRow field, keyed by the field's annotation
# (a string here, under ``from __future__ import annotations``)
_CSV_PARSERS = {"str": str, "int": int, "float": float,
                "float | None": lambda text: None if text == "" else float(text)}
# the names a study CSV's text columns may hold
_CSV_NAMES = {"method": METHODS, "measure": MEASURES, "formula_source": SOURCES}
# writes a column of one StudyRow field as CSV text, keyed like _CSV_PARSERS, None as
# empty; numbers take one %-operation split at line feeds, a fifth faster than one a cell
_CSV_FORMATS = {"str": lambda col: list(map("%s".__mod__, col)),
                "int": lambda col: ("%d\n" * len(col) % tuple(col)).split("\n")[:-1],
                "float": lambda col: ("%.6g\n" * len(col) % tuple(col)).split("\n")[:-1],
                "float | None": lambda col: ["" if x is None else "%.6g" % x for x in col]}


@dataclass
class EfficiencyCell:
    """Analytic (and optionally simulated) MSE ratio for one grid cell.

    ``R`` is rounded to six significant digits like :attr:`StudyRow.R`; ``analytic_eff``
    is None, never NaN, where the srs design is refused or :func:`_efficiency` has no value.

    Not frozen, like :class:`StudyRow`: cells are never mutated or hashed."""

    measure: str
    R: float
    r1: int
    r2: int
    m: int
    analytic_eff: float | None
    empirical_eff: float | None = None


@dataclass
class StudyResult:
    """A study's output as its CSV texts, the one source of truth: plain
    (``csv``) and bias-corrected (``csv_corrected``) intervals; ``rows`` parses
    the plain text on first use, and :func:`parse_rows_csv` parses either.
    ``efficiency`` maps each rss cell's ``(measure, R, r1, r2, m)`` to its
    simulated efficiency, as :func:`efficiency_grid` takes; ``figure_csv`` is
    ``figure_data.csv``'s text, or None for a run without figures."""

    csv: str
    csv_corrected: str
    skipped: list
    metadata: dict
    efficiency: dict
    figure_csv: str | None

    @cached_property
    def rows(self) -> list:
        return parse_rows_csv(self.csv)


# ---------------------------------------------------------------------------
# Analytic efficiency
# ---------------------------------------------------------------------------


def _efficiency(srs_mse: np.ndarray, rss_mse: np.ndarray) -> np.ndarray:
    """MSE(srs) / MSE(rss) where both lie in ``[_TINY, _HUGE]``, else None (an object array)."""
    normal = (srs_mse >= _TINY) & (srs_mse <= _HUGE) & (rss_mse >= _TINY) & (rss_mse <= _HUGE)
    return np.where(normal, srs_mse / np.where(normal, rss_mse, 1.0), None)  # NaN fails both bounds


def efficiency_grid(
    r_values=DEFAULT_R_VALUES,
    set_sizes=DEFAULT_SET_SIZES,
    cycles=(8, 40),
    source=SOURCE_DERIVED,
    empirical: dict | None = None,
) -> list:
    """Analytic efficiency cells, ordered by cycle count, measure, R, (r1, r2).

    ``empirical`` optionally maps ``(measure, R rounded to 6 digits, r1, r2, m)``
    to a simulated efficiency that is carried along in the cells.  The
    (cycle count, set sizes) whose srs design the estimators accept take one
    assessment of both methods over all their ratios, and each cell's
    efficiency is srs over rss (:func:`_efficiency`); the others get ``analytic_eff=None``.
    A grid that :class:`StudyConfig` would refuse raises its ConfigError.
    """
    r_values = _ratio_grid("r_values", r_values)
    set_sizes, cycles = _set_size_grid(set_sizes), _cycle_grid(cycles)
    rounded = [_round6(R) for R in r_values]
    empirical = empirical or {}
    # the designs whose srs cell the study skips get no efficiency
    kept = [(m, r1, r2) for m in cycles for r1, r2 in set_sizes
            if _refusal(METHOD_SRS, *_designs(r1, r2, m, METHOD_SRS), source) is None]
    eff = {}
    if kept:
        _point, variance, bias, *_ = _assess_designs(
            [(r_values, method, *_designs(r1, r2, m, method))
             for method in (METHOD_SRS, METHOD_RSS) for m, r1, r2 in kept], source, 0.95)
        with np.errstate(over="ignore"):  # an as-published bias may square past the range
            mse = (variance + bias * bias).reshape(len(MEASURES), 2, len(kept), len(r_values))
        # srs over rss: each design's [[efficiency per R] per measure]
        eff = dict(zip(kept, _efficiency(mse[:, 0], mse[:, 1]).transpose(1, 0, 2).tolist()))
    return [
        EfficiencyCell(
            measure=measure,
            R=R,
            r1=r1,
            r2=r2,
            m=m,
            analytic_eff=eff[m, r1, r2][i][k] if (m, r1, r2) in eff else None,
            empirical_eff=empirical.get((measure, R, r1, r2, m)),
        )
        for m in cycles
        for i, measure in enumerate(MEASURES)
        for k, R in enumerate(rounded)
        for r1, r2 in set_sizes
    ]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _enumerate_cells(cfg: StudyConfig, figures: bool = False) -> list:
    """The study grid's cells, R outermost; with ``figures``, the figure grid's:
    ``figure_r_grid`` (or the default) at the first (r1, r2) pair and cycle count."""
    r_values, set_sizes, cycles = cfg.r_values, cfg.set_sizes, cfg.cycles
    if figures:
        r_values = cfg.figure_r_grid or DEFAULT_FIGURE_R_GRID
        set_sizes, cycles = set_sizes[:1], cycles[:1]
    return [(R, r1, r2, m, method) for R in r_values for r1, r2 in set_sizes for m in cycles
            for method in METHODS]


def _design_groups(cfg: StudyConfig, cells, namespace: int = 0) -> tuple:
    """Design groups, one per (r1, r2, m, method): R is the outermost loop of
    :func:`_enumerate_cells`, so group g is every ``width``-th cell from g.
    Returns ``(namespace, indices, r_values, method, designs)`` of each group
    the estimators accept, and ``{cell index: reason}`` for the refused
    groups' cells."""
    width = len(dict.fromkeys(cell[1:] for cell in cells))
    groups, skipped = [], {}
    for g, (_R, r1, r2, m, method) in enumerate(cells[:width]):
        indices, designs = list(range(g, len(cells), width)), _designs(r1, r2, m, method)
        reason = _refusal(method, *designs, cfg.formula_source)
        if reason:
            skipped.update(dict.fromkeys(indices, reason))
        else:
            r_values = tuple(cells[i][0] for i in indices)
            groups.append((namespace, indices, r_values, method, designs))
    return groups, skipped


def _designs(r1, r2, m, method) -> tuple:
    """The two populations' sampling designs of a study cell."""
    if method == METHOD_RSS:
        return RssDesign(r1, m), RssDesign(r2, m)
    return SrsDesign(r1 * m), SrsDesign(r2 * m)


def _run_group(cfg: StudyConfig, words: np.ndarray, r_values, method, designs, gen):
    """Corrected ratios of one design group, its cells at ``r_values`` under
    ``method`` and ``designs``, shaped ``(cells, replications)``.

    Row k of ``words`` is the initial PCG64 state of replication ``k %
    replications`` of cell ``k // replications``.  Each draw block of rows
    (:data:`_BLOCK_BYTES` of uniforms, at least one row) is filled by the
    slab's generator ``gen`` restarted in place on each row's stream
    (:func:`_seeds.fill_uniforms`); ranked sets are ranked on the uniforms
    (:func:`rss_retained`), and the block is estimated in one pass over
    T = -alpha * log(u) of the retained uniforms.
    """
    # raw uniforms per sample: n, or r draws for each retained rss value
    draws = [d.n * (d.r if method == METHOD_RSS else 1) for d in designs]

    # population 1's shape per row, its cell's R (checked by the config); population 2's is 1
    shapes = np.repeat(r_values, cfg.replications)
    rows = len(words)
    step = max(1, _BLOCK_BYTES // (8 * sum(draws)))  # rows of 8-byte uniforms
    uniforms = np.empty((min(step, rows), sum(draws)))  # one draw block, reused
    alphas = np.empty((2, rows))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        block = uniforms[:hi - lo]
        _seeds.fill_uniforms(block, words[lo:hi], gen)
        samples = block[:, :draws[0]], block[:, draws[0]:]  # views of the two populations
        populations = zip((shapes[lo:hi, None], 1.0), designs, samples)
        for k, (alpha, d, u) in enumerate(populations):
            if method == METHOD_RSS:
                u = rss_retained(u, d).reshape(hi - lo, d.n)
            alphas[k, lo:hi] = _shape_from_t(method, _t_of_uniform(u, alpha))
    ratios = corrected_ratio(alphas[0] / alphas[1], method, *designs, cfg.formula_source)
    return ratios.reshape(len(r_values), cfg.replications)


# the aggregates of each (cell, measure), in the order of their last axis
_AGGREGATES = ("signed_bias", "mse", "coverage", "ci_length", "coverage_corrected",
               "ci_length_corrected")


def _aggregate(cfg: StudyConfig, blocks, r_values) -> np.ndarray:
    """The ``(cell, measure, aggregate)`` array of the cells at ``r_values``,
    whose ratios ``blocks`` holds as :func:`_assess_designs` takes them: one
    kernel call, and each aggregate is one mean along the replications.
    """
    point, _v, bias, lo, hi, _c, lo_c, hi_c, _cc = _assess_designs(
        blocks, cfg.formula_source, 1.0 - cfg.level_alpha0)
    _check_bias(bias)  # a NaN corrected bound would count as a miss
    r_values = np.array(r_values)  # the config's, checked positive and finite
    truth = np.array([_CORES[meas](r_values) for meas in MEASURES])[:, :, None]
    shape = truth.shape[:2] + (cfg.replications,)
    point, lo, hi, lo_c, hi_c = (a.reshape(shape) for a in (point, lo, hi, lo_c, hi_c))
    err = point - truth
    per_rep = (err, err**2, (lo <= truth) & (truth <= hi), hi - lo,
               (lo_c <= truth) & (truth <= hi_c), hi_c - lo_c)  # in _AGGREGATES order
    return np.stack([np.mean(values, axis=-1) for values in per_rep], axis=-1).transpose(1, 0, 2)


def _slabs(cfg: StudyConfig, groups) -> list:
    """Consecutive design groups whose 32-byte rows of state words fit in
    :data:`_BLOCK_BYTES` together, or one group that does not fit alone."""
    slabs, rows = [], math.inf
    for group in groups:
        size = len(group[1]) * cfg.replications
        if rows + size > _BLOCK_BYTES // 32:
            slabs.append([])
            rows = 0
        slabs[-1].append(group)
        rows += size
    return slabs


def _run_slab(cfg: StudyConfig, slab) -> np.ndarray:
    """Seed, simulate, assess and aggregate one slab, ``(namespace, indices,
    r_values, method, designs)`` of each of its accepted groups
    (:func:`_design_groups`): one fold of every cell's (namespace, index)
    and one hash make the state words of all its replications, and the
    groups run in order and take one :func:`_aggregate` call, the slab's
    ``(cell, measure, aggregate)`` array."""
    keys = np.array([(group[0], i) for group in slab for i in group[1]])
    words = _seeds.pcg64_states(_seeds.derive_seeds(
        cfg.master_seed, keys[:, :1], keys[:, 1:], np.arange(cfg.replications)))
    gen = np.random.Generator(np.random.PCG64(0))  # restarted on every stream
    ends = np.cumsum([len(group[1]) * cfg.replications for group in slab])
    blocks = [(_run_group(cfg, rows, r_values, method, designs, gen), method, *designs)
              for rows, (*_, r_values, method, designs) in zip(np.split(words, ends[:-1]), slab)]
    return _aggregate(cfg, blocks, [R for group in slab for R in group[2]])


def _cell_outcomes(cfg: StudyConfig, grids: dict, workers: int = 1) -> dict:
    """``{namespace: (aggs, skipped)}`` of ``grids``, ``{namespace: cells}``:
    a grid's cells' aggregates as one ``(cell, measure, aggregate)`` array,
    aggregates in :data:`_AGGREGATES` order, and ``{cell index: reason}``
    for its skipped cells, whose rows in the array are NaN.

    Skips are decided before any slab forms (:func:`_design_groups`); the
    groups of all grids form the slabs (:func:`_slabs`), and each slab is
    one :func:`_run_slab` task, run over one pool of ``min(workers, slabs)``
    processes when that is two or more, the class bound to this module's
    ``ProcessPoolExecutor`` (imported on first use), and here otherwise:
    design groups in, aggregates out, never words or ratios.
    """
    groups, outcomes = [], {}
    for namespace, cells in grids.items():
        found, skipped = _design_groups(cfg, cells, namespace)
        groups += found
        aggs = np.full((len(cells), len(MEASURES), len(_AGGREGATES)), np.nan)
        outcomes[namespace] = aggs, skipped
    slabs = _slabs(cfg, groups)
    size = min(workers, len(slabs))
    if size > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=size) as pool:
            blocks = list(pool.map(_run_slab, repeat(cfg), slabs))
    else:
        blocks = map(_run_slab, repeat(cfg), slabs)
    for slab, block in zip(slabs, blocks):
        for namespace, indices, *_ in slab:  # the slab's cells, group by group
            outcomes[namespace][0][indices], block = block[:len(indices)], block[len(indices):]
    return outcomes


def __getattr__(name: str):
    # the pool class loads on first use: only a pool of two or more workers
    # needs multiprocessing, and it costs every other run start-up time and memory
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_study(cfg: StudyConfig, workers: int = 1, figures: bool = False) -> StudyResult:
    """Execute the full grid and aggregate per-cell rows; with ``figures``,
    the figure grid's design groups join the same pass (:attr:`StudyResult.figure_csv`).

    The unit of work is a slab of design groups (cells that share (r1, r2,
    m, method) and differ only in R).  ``workers`` bounds the one pool the
    slabs run over (:func:`_cell_outcomes`); the per-replication seeding
    makes the result identical to the sequential run.  The study draws from
    seed namespace 0, the figure curves from namespace 1.
    """
    grids = {0: _enumerate_cells(cfg)}
    if figures:
        grids[1] = _enumerate_cells(cfg, figures=True)
    outcomes = _cell_outcomes(cfg, grids, workers)
    cells, (aggs, skipped) = grids[0], outcomes[0]
    seeds = _seeds.derive_seeds(cfg.master_seed, 0, np.arange(len(cells))).tolist()

    # an rss cell's efficiency is the MSE of its srs sibling, the cell just
    # before it (METHODS is srs, rss, bayes), over its own; a skipped srs's MSE is NaN
    mses, is_rss = aggs[:, :, 1], np.array([[cell[4] == METHOD_RSS] for cell in cells])
    effs = np.where(is_rss, _efficiency(np.roll(mses, 1, axis=0), mses), None)
    ran = [idx for idx in range(len(cells)) if idx not in skipped]  # never empty: rss cells run
    text, six = {f.name: _CSV_FORMATS[f.type] for f in fields(StudyRow)}, _CSV_FORMATS["float"]
    # StudyRow's columns, each formatted once: a cell's key fields for its line
    # per measure; the corrected file swaps in its own coverage and ci_length
    keys = zip(*((*cells[idx], cfg.replications, cfg.formula_source, seeds[idx]) for idx in ran))
    cols = {name: [t for t in text[name](col) for _ in MEASURES] for name, col in
            zip(("R", "r1", "r2", "m", "method", "reps", "formula_source", "seed"), keys)}
    lines = aggs[ran].reshape(-1, len(_AGGREGATES))  # a row of aggregates per line
    values = np.hstack([abs(lines[:, :1]), lines]).T.tolist()  # abs_bias, then _AGGREGATES
    cols.update(zip(("abs_bias", *_AGGREGATES), map(six, values)),
                measure=list(MEASURES) * len(ran),
                efficiency=text["efficiency"](effs[ran].ravel().tolist()))
    rss_lines = compress(zip(*map(cols.get, ("measure", "R", "r1", "r2", "m", "efficiency"))),
                         cols["efficiency"])  # the lines with an efficiency
    efficiency = {(meas, float(R), int(r1), int(r2), int(m)): float(eff)
                  for meas, R, r1, r2, m, eff in rss_lines}
    plain = [cols[name] for name in STUDY_CSV_COLUMNS]
    corrected = [cols.get(f"{name}_corrected", col) for name, col in zip(STUDY_CSV_COLUMNS, plain)]

    metadata = {
        "config": cfg.to_dict(),
        "rng": "numpy PCG64",
        "numpy_version": np.__version__,
        "ovlomax_version": __version__,
        "seed_layout": _SEED_LAYOUT,
        "seeding": "SplitMix64 fold of (master_seed, namespace, cell_index, replication)",
        "namespace": 0,
        "columns": list(STUDY_CSV_COLUMNS),
        "notes": [
            "population 1 has shape R and population 2 has shape 1; every output "
            "depends on the two shapes only through R",
            "coverage is the empirical coverage proportion of the nominal "
            "(1 - level_alpha0) interval (the 'ratio' column of the published layout)",
            "efficiency = MSE(srs) / MSE(rss) at equal retained sizes; blank unless both are normal floats",
            "interval variants: plain intervals in study.csv, bias-corrected in "
            "study_bias_corrected.csv",
        ],
        "skipped_cells": [dict(zip(("R", "r1", "r2", "m", "method"), cells[idx]), reason=reason)
                          for idx, reason in sorted(skipped.items())],
    }
    return StudyResult(
        csv=_write_csv(STUDY_CSV_COLUMNS, plain),
        csv_corrected=_write_csv(STUDY_CSV_COLUMNS, corrected),
        skipped=metadata["skipped_cells"],
        metadata=metadata,
        efficiency=efficiency,
        figure_csv=_figure_csv(grids[1], *outcomes[1]) if figures else None,
    )


# ---------------------------------------------------------------------------
# CSV emission / parsing
# ---------------------------------------------------------------------------


def _write_csv(header, columns) -> str:
    """The package's one CSV writer, of tables of numbers and fixed names: the
    header, then a record per row of ``columns``, a column of text per header
    field, fields joined by commas and each record ended by a line feed.
    Nothing is quoted: unequal columns, a column or comma count off the header
    width, a line feed, a quote or a carriage return raise :class:`ValueError`."""
    lines = [",".join(header), *map(",".join, zip(*columns, strict=True)), ""]
    text, count, width = "\n".join(lines), len(lines) - 1, len(header)
    if (width < 2 or len(columns) != width or text.count(",") != count * (width - 1)
            or text.count("\n") != count or '"' in text or "\r" in text):
        raise ValueError("a CSV field needs quoting, and the package's tables quote none")
    return text


def _emit_csv(items, kind) -> str:
    """The dataclass ``items`` as a column per field of ``kind``, each cell
    formatted by the field's annotation (:data:`_CSV_FORMATS`)."""
    kinds = fields(kind)
    return _write_csv([f.name for f in kinds],
                      [_CSV_FORMATS[f.type]([getattr(it, f.name) for it in items]) for f in kinds])


def _check_row(row: StudyRow, where: str) -> StudyRow:
    """``row`` if its names lie in :data:`METHODS`, :data:`MEASURES` and
    :data:`SOURCES`, ``R`` is positive and finite, ``r1``, ``r2``, ``m`` and
    ``reps`` are at least 1, and ``seed`` lies in :data:`_seeds.SEEDS`;
    otherwise a :class:`ConfigError` starting ``where``."""
    for name, known in _CSV_NAMES.items():
        if getattr(row, name) not in known:
            raise ConfigError(f"{where}: {name} = {getattr(row, name)!r} is not one of {known}")
    if not (math.isfinite(row.R) and row.R > 0.0):
        raise ConfigError(f"{where}: R = {row.R!r} is not positive and finite")
    for name in ("r1", "r2", "m", "reps"):
        if getattr(row, name) < 1:
            raise ConfigError(f"{where}: {name} = {getattr(row, name)!r} is below 1")
    if int(row.seed) not in _seeds.SEEDS:  # an int: a range tests it by arithmetic
        raise ConfigError(f"{where}: seed = {row.seed!r} is outside [0, 2**64)")
    return row


def emit_rows_csv(rows) -> str:
    """Pinned long-format schema, LF line endings, six significant digits; a
    row :func:`parse_rows_csv` would refuse is a :class:`ConfigError` naming
    its index (:func:`_check_row`), so the text always parses back."""
    return _emit_csv([_check_row(row, f"study row {k}") for k, row in enumerate(rows)], StudyRow)


def parse_rows_csv(text: str) -> list:
    """Inverse of :func:`emit_rows_csv`, exact on six-significant-digit values
    (:class:`StudyResult` builds its rows with it); a row :func:`_check_row`
    refuses, or that the ``csv`` module cannot read, is a :class:`ConfigError`
    naming its line."""
    records = _csv_records(io.StringIO(text),
                           lambda lineno, why: ConfigError(f"study CSV line {lineno}: {why}"))
    _, header = next(records, (1, None))
    if header is None:
        raise ConfigError(f"study CSV line 1: no header; expected {','.join(STUDY_CSV_COLUMNS)}")
    if header != list(STUDY_CSV_COLUMNS):
        raise ConfigError(f"unexpected study CSV header: {header}")
    kinds = fields(StudyRow)
    rows = []
    for lineno, rec in records:
        where = f"study CSV line {lineno}"
        if len(rec) != len(kinds):
            raise ConfigError(f"{where}: expected {len(kinds)} fields, got {len(rec)}")
        values = []
        for f, cell in zip(kinds, rec):
            try:
                values.append(_CSV_PARSERS[f.type](cell))
            except ValueError:
                raise ConfigError(
                    f"{where}: {f.name} = {cell!r} does not parse as {f.type}") from None
        rows.append(_check_row(StudyRow(*values), where))
    return rows


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------


def _check_grid(present: set, expected: list, describe) -> None:
    missing = [describe(cell) for cell in expected if cell not in present]
    if missing:
        raise MissingCellError(missing)


def emit_tables(items, layout: str, fmt: str = "text") -> str:
    """Render either efficiency cells or study rows into a table artifact.

    ``layout='eff_table'`` consumes :class:`EfficiencyCell` items and renders
    the R x (r1, r2) efficiency grids per measure and cycle count.
    ``layout='bias_table'`` consumes :class:`StudyRow` items and renders
    |bias| / coverage / interval-length blocks per method and measure.

    ``fmt`` is text, csv or json; any other raises :class:`DomainError`
    before the items are read, and so does an item of the other layout's
    type.  A cell or row given twice raises :class:`ConfigError` naming it.
    The expected grid is every R, (r1, r2) and m the items hold; missing
    cells raise :class:`MissingCellError` naming every absent cell, and no
    items at all raise it as "no rows to tabulate".
    """
    if fmt not in ("text", "csv", "json"):
        raise DomainError(f"unknown format {fmt!r}; expected text, csv, or json")
    if layout not in _LAYOUTS:
        raise DomainError(f"unknown layout {layout!r}; expected 'eff_table' or 'bias_table'")
    kind, emit = _LAYOUTS[layout]
    items = list(items)  # each renderer reads the items more than once
    stray = next((it for it in items if not isinstance(it, kind)), None)
    if stray is not None:
        raise DomainError(f"layout {layout!r} takes {kind.__name__} items, "
                          f"got {type(stray).__name__}")
    return emit(items, fmt)


def _index(items, key, describe, what: str) -> dict:
    """``items`` by ``key(item)``; a key given twice raises :class:`ConfigError`
    naming the repeated ``what`` by ``describe(key)``."""
    present = {}
    for it in items:
        k = key(it)
        if k in present:
            raise ConfigError(f"repeated {what}: {describe(k)}")
        present[k] = it
    return present


def _expected_grid(items):
    if not items:
        raise MissingCellError([])
    r_values = sorted({it.R for it in items})
    set_sizes = sorted({(it.r1, it.r2) for it in items})
    cycles = sorted({it.m for it in items})
    return r_values, set_sizes, cycles


def _describe_cell(c) -> str:
    return f"measure={c[0]} R={c[1]:.6g} r1={c[2]} r2={c[3]} m={c[4]}"


def _emit_eff_table(cells, fmt):
    present = _index(cells, lambda c: (c.measure, c.R, c.r1, c.r2, c.m), _describe_cell, "cell")
    r_values, set_sizes, cycles = _expected_grid(cells)
    expected = [
        (meas, R, r1, r2, m)
        for m in cycles
        for meas in MEASURES
        for R in r_values
        for (r1, r2) in set_sizes
    ]
    _check_grid(set(present), expected, _describe_cell)

    if fmt == "csv":
        return _emit_csv([present[k] for k in expected], EfficiencyCell)
    if fmt == "json":
        records = [asdict(present[k]) for k in expected]
        return _json_text({"layout": "eff_table", "cells": records})

    r1_set = sorted({p[0] for p in set_sizes})
    r2_set = sorted({p[1] for p in set_sizes})
    lines = []
    for m in cycles:
        lines.append(f"Relative efficiency MSE(srs)/MSE(rss), m={m} cycles")
        lines.append("(values above 1 favour ranked set sampling)")
        for meas in MEASURES:
            lines.append(f"  measure={meas}")
            for R in r_values:
                header = f"    R={R:<8.6g}" + "".join(f"{f'r2={r2}':>10}" for r2 in r2_set)
                lines.append(header)
                for r1 in r1_set:
                    rowvals = []
                    for r2 in r2_set:
                        c = present.get((meas, R, r1, r2, m))
                        eff = None if c is None else c.analytic_eff
                        rowvals.append(f"{'-' if eff is None else format(eff, '.6g'):>10}")
                    lines.append(f"    r1={r1:<7}" + "".join(rowvals))
        lines.append("")
    return "\n".join(lines) + "\n"


# the StudyRow fields a bias-table JSON record carries
_BIAS_TABLE_FIELDS = ("method", "measure", "R", "r1", "r2", "m", "abs_bias", "coverage", "ci_length")


def _describe_row(c) -> str:
    return f"method={c[0]} measure={c[1]} R={c[2]:.6g} r1={c[3]} r2={c[4]} m={c[5]}"


def _emit_bias_table(rows, fmt):
    sources = sorted({r.formula_source for r in rows})
    if len(sources) > 1:
        raise ConfigError(f"rows mix formula sources {sources}; a table takes one study")
    present = _index(rows, lambda r: (r.method, r.measure, r.R, r.r1, r.r2, r.m),
                     _describe_row, "row")
    r_values, set_sizes, cycles = _expected_grid(rows)  # raises for no rows
    # the cells a study skips have no rows: '-' in text, left out of csv and json
    source = sources[0]
    run = {(m, r1, r2, method) for m in cycles for (r1, r2) in set_sizes for method in METHODS
           if _refusal(method, *_designs(r1, r2, m, method), source) is None}
    expected = [
        (method, meas, R, r1, r2, m)
        for m in cycles
        for R in r_values
        for (r1, r2) in set_sizes
        for method in METHODS
        if (m, r1, r2, method) in run
        for meas in MEASURES
    ]
    _check_grid(set(present), expected, _describe_row)

    if fmt == "csv":
        return emit_rows_csv([present[k] for k in expected])
    if fmt == "json":
        records = [{name: getattr(present[k], name) for name in _BIAS_TABLE_FIELDS}
                   for k in expected]
        return _json_text({"layout": "bias_table", "cells": records})

    lines = []
    for m in cycles:
        for R in r_values:
            lines.append(
                f"m={m}  R={R:.6g}  source={source}  "
                "(ratio = empirical coverage of the nominal interval; "
                "L = mean interval length)"
            )
            head = f"  {'measure':<8}{'(r1,r2)':<9}"
            for method in METHODS:
                head += f"{method + ':|bias|':>14}{method + ':ratio':>13}{method + ':L':>10}"
            lines.append(head)
            for meas in MEASURES:
                for r1, r2 in set_sizes:
                    line = f"  {meas:<8}{f'({r1},{r2})':<9}"
                    for method in METHODS:
                        r = present.get((method, meas, R, r1, r2, m))
                        if r is None:
                            line += f"{'-':>14}{'-':>13}{'-':>10}"
                        else:
                            line += f"{r.abs_bias:>14.6g}{r.coverage:>13.6g}{r.ci_length:>10.6g}"
                    lines.append(line)
            lines.append("")
    return "\n".join(lines) + "\n"


# each layout's item type and renderer
_LAYOUTS = {"eff_table": (EfficiencyCell, _emit_eff_table), "bias_table": (StudyRow, _emit_bias_table)}


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------


def _figure_csv(cells, aggs, skipped) -> str:
    """Long-format (method, measure, R, bias, mse) curves of the figure grid's
    ``cells``, written straight from their aggregates."""
    ran = [idx for idx in range(len(cells)) if idx not in skipped]
    six = _CSV_FORMATS["float"]
    return _write_csv(["method", "measure", "R", "bias", "mse"], [
        [cells[idx][4] for idx in ran for _ in MEASURES], list(MEASURES) * len(ran),
        six([cells[idx][0] for idx in ran for _ in MEASURES]),
        *map(six, aggs[ran, :, :2].reshape(-1, 2).T.tolist())])


# ---------------------------------------------------------------------------
# Discrepancy report against the transcribed published tables
# ---------------------------------------------------------------------------


def discrepancy_report(source: str = SOURCE_DERIVED) -> str:
    """CSV of printed vs computed values for every transcribed table cell.

    Efficiency cells are looked up in one :func:`efficiency_grid` over the
    printed ratios, set sizes and cycle counts.  Real-data cells read the
    srs and bayes reports of the bundled datasets, biases as magnitudes (the
    published layout is sign-free); ranked-set cells there are NaN because
    no ranked-set design is stated for that example (the printed values are
    recorded, nothing is computable to compare them against).
    """
    fixtures = json.loads(_bundled_text("published_tables.json"))
    rows = []

    tables = {int(m): block for m, block in fixtures["efficiency"].items()}
    printed_r = {float(R) for block in tables.values() for R in block}
    computed = {(c.measure, c.R, c.r1, c.r2, c.m): c.analytic_eff for c in efficiency_grid(
        sorted(printed_r), DEFAULT_SET_SIZES, sorted(tables), source)}
    for m, block in sorted(tables.items()):
        for R_key in sorted(block, key=float):
            R = _round6(R_key)  # the cells' R
            for meas in MEASURES:
                # a printed matrix has a row per r1 and a column per r2, in set-size order
                values = [v for row in block[R_key][meas] for v in row]
                rows += [(f"efficiency_m{m}", "measure=%s:R=%.6g:r1=%d:r2=%d" % (meas, R, r1, r2),
                          float(v), computed[meas, R, r1, r2, m])
                         for (r1, r2), v in zip(DEFAULT_SET_SIZES, values, strict=True)]

    real = fixtures["real_data"]
    d1, d2 = bundled_counts()
    reports = {method: build_estimate_report(d1.values, d2.values, method, source)
               for method in (METHOD_SRS, METHOD_BAYES)}
    srs = reports[METHOD_SRS]
    rows += [("real_data", name, real[name], value) for name, value in
             (("alpha1", srs.alpha1), ("alpha2", srs.alpha2), ("ratio", srs.ratio_raw))]
    rows += [("real_data", f"estimate:{m.measure}", real["estimates"][m.measure], m.point)
             for m in srs.measures]
    for meas in MEASURES:
        for method in METHODS:
            rep = reports[method].measure(meas) if method in reports else None
            ours = ((abs(rep.bias), rep.variance, rep.interval.lo, rep.interval.hi) if rep
                    else (math.nan,) * 4)
            printed = (real["bias"][meas][method], real["var"][meas][method],
                       *real["ci"][meas][method])
            rows += [("real_data", f"{name}:{meas}:{method}", p, c)
                     for name, p, c in zip(("bias", "var", "ci_lo", "ci_hi"), printed, ours)]

    names, cells, printed, computed = zip(*rows)
    six, diffs = _CSV_FORMATS["float"], [abs(p - c) for p, c in zip(printed, computed)]
    return _write_csv(["table", "cell", "printed_value", "computed_value", "abs_diff"],
                      [names, cells, six(printed), six(computed), six(diffs)])
