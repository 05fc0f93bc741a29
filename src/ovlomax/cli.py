"""Command line interface.

Subcommands::

    ovl        closed-form overlap coefficients for a shape ratio
    sample     draw simple random or ranked set samples
    estimate   full estimation report from two data files
    simulate   run the Monte Carlo study grid
    tables     analytic efficiency tables, saved-study tables, discrepancies
    realdata   analysis of the bundled failure-interval datasets

Exit codes: 0 success, 1 estimation/domain failure (``DomainError``), 2
usage or configuration error (``ConfigError``), 3 I/O failure (``OSError``)
or a request for more memory than the machine grants (``MemoryError``);
every error class of the package derives from one of the first two.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys
from pathlib import Path

from . import __version__, _seeds
from .dist_core import ConfigError, DomainError, InverseLomax
from .estimators import METHODS, SOURCE_DERIVED, SOURCES
from .overlap import MEASURES, overlap_value
from .reports import (
    _json_text,
    build_estimate_report,
    bundled_counts,
    parse_dataset,
    parse_ranked_dataset,
)
from .sampling import RssDesign, SrsDesign, draw_rss, draw_srs
from .study import (
    StudyConfig,
    _write_csv,
    discrepancy_report,
    efficiency_grid,
    emit_tables,
    parse_rows_csv,
    run_study,
)

EXIT_OK = 0
EXIT_ESTIMATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

FORMATS = ("text", "csv", "json")


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{float(x):.6g}"


def _option(convert, wanted: str, accepts):
    """An argparse type for ``convert``-ed values that ``accepts``; argparse names the option."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


_positive_count = _option(int, "a positive integer", lambda value: value >= 1)
_seed = _option(int, "an integer in [0, 2**64)", _seeds.SEEDS.__contains__)
_level = _option(float, "a number strictly between 0 and 1", lambda value: 0.0 < value < 1.0)


def _common_flags(sub, seed=False, source=True, fmt=True, level=False):
    if seed:
        sub.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    if source:
        sub.add_argument(
            "--source", choices=SOURCES, default=SOURCE_DERIVED,
            help="formula source: internally consistent or published verbatim",
        )
    if fmt:
        sub.add_argument("--format", choices=FORMATS, default="text", dest="fmt",
                         help="output format (default text)")
    if level:
        sub.add_argument("--level", type=_level, default=0.95,
                         help="confidence level (default 0.95)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovlomax",
        description="Overlap coefficients of two inverse Lomax populations: "
        "computation, estimation, and Monte Carlo study tooling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ovl", help="closed-form overlap coefficients")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=float, help="shape ratio alpha1/alpha2")
    group.add_argument("--alphas", type=float, nargs=2, metavar=("A1", "A2"),
                       help="the two shape parameters")
    p.add_argument("--measure", choices=MEASURES + ("all",), default="all")
    _common_flags(p, source=False)
    p.set_defaults(func=cmd_ovl)

    p = subs.add_parser("sample", help="draw samples from one population")
    p.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p.add_argument("--design", required=True,
                   help="'srs:N' or 'rss:R,M' (set size R, M cycles)")
    _common_flags(p, seed=True, source=False, fmt=False)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("estimate", help="estimation report from two data files")
    p.add_argument("data1", help="observations for population 1")
    p.add_argument("data2", help="observations for population 2")
    p.add_argument("--method", choices=METHODS, default="srs")
    _common_flags(p, level=True)
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("simulate", help="run the Monte Carlo study grid")
    p.add_argument("--config", help="JSON study configuration file")
    p.add_argument("--reps", type=_positive_count, help="override replication count")
    p.add_argument("--workers", type=_positive_count, default=1,
                   help="worker processes (default 1); the study's and the figure grid's "
                   "slabs share one pool, of min(workers, slabs), started only for two or more")
    p.add_argument("--out-dir", help="write study.csv, study_bias_corrected.csv, "
                   "efficiency.csv, discrepancy.csv, figure_data.csv, metadata.json here")
    p.add_argument("--no-figures", action="store_true",
                   help="skip the dense figure-data curves (their design groups join "
                   "the study's engine pass)")
    p.add_argument("--seed", type=_seed, default=None, help="override the master seed")
    p.add_argument("--source", choices=SOURCES, default=None,
                   help="override the formula source")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("tables", help="efficiency, saved-study, or discrepancy tables")
    p.add_argument("--kind", choices=("efficiency", "bias", "discrepancy"),
                   default="efficiency")
    p.add_argument("--cycles", type=_positive_count, nargs="+",
                   help="cycle counts for efficiency tables (default 8 40)")
    p.add_argument("--rows", help="saved study.csv (required for --kind bias)")
    _common_flags(p)
    p.set_defaults(func=cmd_tables, source=None, fmt=None)  # None: _TABLE_FLAGS decides

    p = subs.add_parser("realdata", help="analysis of the bundled datasets")
    _common_flags(p, level=True)
    p.set_defaults(func=cmd_realdata)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def cmd_ovl(args) -> int:
    if args.ratio is not None:
        ratio = args.ratio
    else:
        # each InverseLomax refuses a shape that is not positive
        a1, a2 = (InverseLomax(a).alpha for a in args.alphas)
        ratio = a1 / a2
    measures = MEASURES if args.measure == "all" else (args.measure,)
    values = {meas: float(overlap_value(meas, ratio)) for meas in measures}

    if args.fmt == "json":
        print(_json_text({"ratio": ratio, **values}), end="")
    elif args.fmt == "csv":
        texts = [f"{value:.10g}" for value in values.values()]
        print(_write_csv(("measure", "value"), [list(values), texts]), end="")
    else:
        print(f"shape ratio: {ratio:.10g}")
        for meas, value in values.items():
            print(f"  {meas:<8}{value:.10g}")
    return EXIT_OK


def _parse_design(spec: str):
    kind, _, rest = spec.partition(":")
    r_txt, _, m_txt = rest.partition(",")
    try:
        if kind not in ("srs", "rss"):
            raise ValueError("expected 'srs:N' or 'rss:R,M'")
        design = SrsDesign(n=int(rest)) if kind == "srs" else RssDesign(r=int(r_txt), m=int(m_txt))
        draws = design.n * (design.r if kind == "rss" else 1)
        if draws > sys.maxsize // 8:  # a float64 array's byte count is a Py_ssize_t
            raise ValueError(f"its {draws} raw draws exceed the {sys.maxsize // 8} values "
                             "a float64 array can hold")
    except ValueError as exc:  # a DomainError is a ValueError
        raise ConfigError(f"bad design {spec!r}: {exc}") from None
    return design


def cmd_sample(args) -> int:
    dist = InverseLomax(args.alpha)
    design = _parse_design(args.design)
    rng = _seeds.stream(args.seed)
    if isinstance(design, SrsDesign):
        for x in draw_srs(dist, design, rng):
            print(f"{x:.10g}")
    else:
        ranked = draw_rss(dist, design, rng)
        print(_write_csv(("rank", "cycle", "value"), [
            [str(i + 1) for i in range(design.r) for _ in range(design.m)],
            [str(k + 1) for _ in range(design.r) for k in range(design.m)],
            [f"{x:.10g}" for x in ranked.values.ravel()]]), end="")
    return EXIT_OK


def _read_file(path: str, parse):
    """``parse`` of the UTF-8 text of ``path``, a byte-order mark at its start
    dropped.  Bytes that do not decode, and a ConfigError of ``parse``, are a
    ConfigError whose text starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _columns(m) -> tuple:
    """A measure's point, variance, bias and four interval bounds, None where absent."""
    iv, cv = m.interval, m.interval_corrected
    return (m.point, m.variance, m.bias, *((iv.lo, iv.hi) if iv else (None, None)),
            *((cv.lo, cv.hi) if cv else (None, None)))


def _print_report_text(rep) -> None:
    print(f"method            {rep.method}")
    print(f"formula source    {rep.formula_source}")
    print(f"sample sizes      n1={rep.n1}, n2={rep.n2}")
    print(f"alpha estimates   {rep.alpha1:.6g}, {rep.alpha2:.6g}")
    print(f"ratio             raw {rep.ratio_raw:.6g}, corrected {rep.ratio_unbiased:.6g}")
    print(f"ratio variance    {_fmt(rep.ratio_variance)}")
    # one space before every value, so a value wider than its column still
    # stands apart from its neighbours
    widths = (10, 12, 12, 10, 10, 10, 10)
    names = ("point", "variance", "bias", "ci_lo", "ci_hi", "corr_lo", "corr_hi")
    print(f"  {'measure':<8}" + "".join(f" {h:>{w - 1}}" for h, w in zip(names, widths)))
    for m in rep.measures:
        print(f"  {m.measure:<8}" + "".join(f" {_fmt(v):>{w - 1}}" for v, w in zip(_columns(m), widths)))
    for w in rep.warnings:
        print(f"  note: {w}")


def _print_report_csv(reports) -> None:
    """One table of the reports' measures, numbers at ten significant digits, None blank."""
    rows = [(rep.method, rep.formula_source, m.measure,
             *("" if v is None else f"{v:.10g}" for v in _columns(m)))
            for rep in reports for m in rep.measures]
    print(_write_csv("method,source,measure,point,variance,bias,ci_lo,ci_hi,ci_corr_lo,ci_corr_hi"
                     .split(","), list(zip(*rows))), end="")


def cmd_estimate(args) -> int:
    parse = parse_ranked_dataset if args.method == "rss" else lambda text: parse_dataset(text).values
    s1, s2 = (_read_file(path, parse) for path in (args.data1, args.data2))
    rep = build_estimate_report(s1, s2, args.method, args.source, args.level)
    if args.fmt == "json":
        print(rep.to_json(), end="")
    elif args.fmt == "csv":
        _print_report_csv([rep])
    else:
        _print_report_text(rep)
    return EXIT_OK


def _write_all(out: Path, texts: dict) -> None:
    """Write every text into ``out`` or none: each goes to a temporary name
    there and is renamed into place once all are written.  On a failure the
    temporaries are removed, and so are the directories this call made.  A
    target that exists and is not a regular file is refused before any write."""
    blocked = [str(out / name) for name in texts
               if (out / name).exists() and not (out / name).is_file()]
    if blocked:
        raise OSError(f"not a regular file: {', '.join(blocked)}")
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    temps = {out / f".{name}.{os.getpid()}.tmp": out / name for name in texts}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for temp, text in zip(temps, texts.values()):
            temp.write_text(text, encoding="utf-8")
        for temp, final in temps.items():
            os.replace(temp, final)
    except BaseException:  # an interrupt, too, leaves no temporary behind
        for temp in temps:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        for d in made:  # innermost first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def cmd_simulate(args) -> int:
    if args.config:
        cfg = _read_file(args.config, StudyConfig.from_json)
    else:
        cfg = StudyConfig()
    overrides = {}
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.source is not None:
        overrides["formula_source"] = args.source
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)  # validated again by __post_init__

    if args.no_figures and not args.out_dir:
        raise ConfigError("--no-figures is read only with --out-dir: stdout gets study.csv alone")
    result = run_study(cfg, args.workers, figures=bool(args.out_dir) and not args.no_figures)
    if not args.out_dir:
        print(result.csv, end="")
        return EXIT_OK

    # every text is built before the first write, and _write_all writes all or none
    texts = {
        "study.csv": result.csv,
        "study_bias_corrected.csv": result.csv_corrected,
        "efficiency.csv": emit_tables(
            efficiency_grid(cfg.r_values, cfg.set_sizes, cfg.cycles, cfg.formula_source,
                            empirical=result.efficiency), "eff_table", "csv"),
        "discrepancy.csv": discrepancy_report(cfg.formula_source),
        "metadata.json": _json_text(result.metadata),
    }
    if result.figure_csv is not None:
        texts["figure_data.csv"] = result.figure_csv
    out = Path(args.out_dir)
    _write_all(out, texts)
    print(f"wrote {', '.join(texts)} to {out}")
    if result.skipped:
        print(f"skipped {len(result.skipped)} cell(s); see metadata.json")
    return EXIT_OK


# kind: ({flag it reads: value when not given, None if required}, formats, default first)
_TABLE_FLAGS = {"efficiency": ({"cycles": [8, 40], "source": SOURCE_DERIVED}, FORMATS),
                "bias": ({"rows": None}, FORMATS),  # the rows keep their own source
                "discrepancy": ({"source": SOURCE_DERIVED}, ("csv",))}


def cmd_tables(args) -> int:
    reads, formats = _TABLE_FLAGS[args.kind]
    for name in ("cycles", "rows", "source"):
        if getattr(args, name) is not None and name not in reads:
            raise ConfigError(f"--kind {args.kind} does not read --{name}")
        setattr(args, name, getattr(args, name) or reads.get(name))
        if name in reads and getattr(args, name) is None:
            raise ConfigError(f"--kind {args.kind} requires --{name}")
    args.fmt = args.fmt or formats[0]
    if args.fmt not in formats:
        raise ConfigError(f"--kind {args.kind} does not write --format {args.fmt}")
    if args.kind == "efficiency":
        cells = efficiency_grid(cycles=tuple(args.cycles), source=args.source)
        print(emit_tables(cells, "eff_table", args.fmt), end="")
        return EXIT_OK
    if args.kind == "discrepancy":
        print(discrepancy_report(args.source), end="")
        return EXIT_OK
    rows = _read_file(args.rows, parse_rows_csv)
    print(emit_tables(rows, "bias_table", args.fmt), end="")
    return EXIT_OK


def cmd_realdata(args) -> int:
    d1, d2 = bundled_counts()
    reports = [
        build_estimate_report(d1.values, d2.values, method, args.source, args.level)
        for method in ("srs", "bayes")
    ]
    if args.fmt == "json":
        datasets = {d.label: {"n": d.n, "values": d.values.tolist()} for d in (d1, d2)}
        print(_json_text({"datasets": datasets, "reports": reports}), end="")
    elif args.fmt == "csv":
        _print_report_csv(reports)
    else:
        print(f"bundled data: {d1.label} (n={d1.n}) vs {d2.label} (n={d2.n})")
        print()
        for rep in reports:
            _print_report_text(rep)
            print()
        print("no ranked-set design accompanies this example, so the 'rss' method")
        print("needs field data collected under an actual ranked design.")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
