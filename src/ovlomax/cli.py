"""Command line interface.

Subcommands::

    ovl        closed-form overlap coefficients for a shape ratio
    sample     draw simple random or ranked set samples
    estimate   full estimation report from two data files
    simulate   run the Monte Carlo study grid
    tables     analytic efficiency tables, saved-study tables, discrepancies
    realdata   analysis of the bundled failure-interval datasets

Exit codes: 0 success, 1 estimation/domain failure, 2 usage or
configuration error, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__, _seeds
from .dist_core import DomainError, InverseLomax
from .estimators import METHODS, SOURCE_DERIVED, SOURCES
from .overlap import MEASURES, QuadratureError, overlap_value, ovl_by_quadrature
from .reports import (
    DatasetParseError,
    build_estimate_report,
    bundled_counts,
    parse_dataset,
    parse_ranked_dataset,
)
from .sampling import RssDesign, SrsDesign, draw_rss, draw_srs
from .study import (
    ConfigError,
    MissingCellError,
    StudyConfig,
    discrepancy_report,
    efficiency_grid,
    emit_figure_data,
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


def _common_flags(sub, seed=False, source=True, fmt=True, level=False):
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    if source:
        sub.add_argument(
            "--source", choices=SOURCES, default=SOURCE_DERIVED,
            help="formula source: internally consistent or published verbatim",
        )
    if fmt:
        sub.add_argument("--format", choices=FORMATS, default="text", dest="fmt",
                         help="output format (default text)")
    if level:
        sub.add_argument("--level", type=float, default=0.95,
                         help="confidence level (default 0.95)")


def _positive_count(text: str) -> int:
    # argparse names the option in front of the message and exits with 2
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


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
    p.add_argument("--quadrature", action="store_true",
                   help="also compute each value by numeric integration")
    _common_flags(p, source=False)
    p.set_defaults(func=cmd_ovl)

    p = subs.add_parser("sample", help="draw samples from one population")
    p.add_argument("--alpha", type=float, required=True, help="shape parameter")
    p.add_argument("--beta", type=float, default=1.0, help="scale parameter (default 1)")
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
    p.add_argument("--reps", type=int, help="override replication count")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out-dir", help="write study.csv, study_bias_corrected.csv, "
                   "efficiency.csv, discrepancy.csv, figure_data.csv, metadata.json here")
    p.add_argument("--no-figures", action="store_true",
                   help="skip the dense figure-data curves (they rerun the engine "
                   "over the full ratio grid)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--source", choices=SOURCES, default=None,
                   help="override the formula source")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("tables", help="efficiency, saved-study, or discrepancy tables")
    p.add_argument("--kind", choices=("efficiency", "bias", "discrepancy"),
                   default="efficiency")
    p.add_argument("--cycles", type=_positive_count, nargs="+", default=[8, 40],
                   help="cycle counts for efficiency tables (default 8 40)")
    p.add_argument("--rows", help="saved study.csv (required for --kind bias)")
    _common_flags(p)
    p.set_defaults(func=cmd_tables)

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
        f1 = f2 = None
    else:
        a1, a2 = args.alphas
        if a1 <= 0 or a2 <= 0:
            raise DomainError("shape parameters must be positive")
        ratio = a1 / a2
        f1, f2 = InverseLomax(a1), InverseLomax(a2)
    if ratio <= 0:
        raise DomainError("the shape ratio must be positive")
    measures = MEASURES if args.measure == "all" else (args.measure,)

    records = []
    for meas in measures:
        rec = {"measure": meas, "value": float(overlap_value(meas, ratio))}
        if args.quadrature:
            q1 = f1 if f1 is not None else InverseLomax(ratio)
            q2 = f2 if f2 is not None else InverseLomax(1.0)
            rec["quadrature"] = float(ovl_by_quadrature(q1, q2, meas))
        records.append(rec)

    if args.fmt == "json":
        out = {"ratio": ratio}
        for rec in records:
            out[rec["measure"]] = rec["value"]
        if args.quadrature:
            out["quadrature"] = {rec["measure"]: rec["quadrature"] for rec in records}
        print(json.dumps(out, indent=2))
    elif args.fmt == "csv":
        cols = "measure,value" + (",quadrature" if args.quadrature else "")
        print(cols)
        for rec in records:
            line = f"{rec['measure']},{rec['value']:.10g}"
            if args.quadrature:
                line += f",{rec['quadrature']:.10g}"
            print(line)
    else:
        print(f"shape ratio: {ratio:.10g}")
        for rec in records:
            line = f"  {rec['measure']:<8}{rec['value']:.10g}"
            if args.quadrature:
                line += f"   (quadrature {rec['quadrature']:.10g})"
            print(line)
    return EXIT_OK


def _parse_design(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "srs":
            return SrsDesign(n=int(rest))
        if kind == "rss":
            r_txt, _, m_txt = rest.partition(",")
            return RssDesign(r=int(r_txt), m=int(m_txt))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad design {spec!r}: {exc}") from None
    raise ConfigError(f"bad design {spec!r}: expected 'srs:N' or 'rss:R,M'")


def cmd_sample(args) -> int:
    dist = InverseLomax(alpha=args.alpha, beta=args.beta)
    design = _parse_design(args.design)
    rng = _seeds.stream(args.seed)
    if isinstance(design, SrsDesign):
        for x in draw_srs(dist, design, rng):
            print(f"{x:.10g}")
    else:
        ranked = draw_rss(dist, design, rng)
        print("rank,cycle,value")
        for i in range(design.r):
            for k in range(design.m):
                print(f"{i + 1},{k + 1},{ranked.values[i, k]:.10g}")
    return EXIT_OK


def _load_samples(path1: str, path2: str, method: str):
    text1 = Path(path1).read_text(encoding="utf-8")
    text2 = Path(path2).read_text(encoding="utf-8")
    if method == "rss":
        return parse_ranked_dataset(text1), parse_ranked_dataset(text2)
    return parse_dataset(text1, path1).values, parse_dataset(text2, path2).values


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
        lo = m.interval.lo if m.interval else None
        hi = m.interval.hi if m.interval else None
        clo = m.interval_corrected.lo if m.interval_corrected else None
        chi = m.interval_corrected.hi if m.interval_corrected else None
        values = (m.point, m.variance, m.bias, lo, hi, clo, chi)
        print(f"  {m.measure:<8}" + "".join(f" {_fmt(v):>{w - 1}}" for v, w in zip(values, widths)))
    for w in rep.warnings:
        print(f"  note: {w}")


def _print_report_csv(rep, header: bool = True) -> None:
    if header:
        print("method,source,measure,point,variance,bias,ci_lo,ci_hi,ci_corr_lo,ci_corr_hi")
    for m in rep.measures:
        cells = [
            rep.method, rep.formula_source, m.measure,
            f"{m.point:.10g}",
            "" if m.variance is None else f"{m.variance:.10g}",
            "" if m.bias is None else f"{m.bias:.10g}",
            "" if m.interval is None else f"{m.interval.lo:.10g}",
            "" if m.interval is None else f"{m.interval.hi:.10g}",
            "" if m.interval_corrected is None else f"{m.interval_corrected.lo:.10g}",
            "" if m.interval_corrected is None else f"{m.interval_corrected.hi:.10g}",
        ]
        print(",".join(cells))


def cmd_estimate(args) -> int:
    s1, s2 = _load_samples(args.data1, args.data2, args.method)
    rep = build_estimate_report(s1, s2, args.method, args.source, args.level)
    if args.fmt == "json":
        print(rep.to_json(), end="")
    elif args.fmt == "csv":
        _print_report_csv(rep)
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
        cfg = StudyConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
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
        data = cfg.to_dict()
        data.update(overrides)
        cfg = StudyConfig.from_dict(data)
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")

    result = run_study(cfg, workers=args.workers)
    if not args.out_dir:
        print(result.csv, end="")
        return EXIT_OK

    # every text is built before the first write, and _write_all writes all or none
    meta = dict(result.metadata)
    meta["skipped_cells"] = result.skipped
    texts = {
        "study.csv": result.csv,
        "study_bias_corrected.csv": result.csv_corrected,
        "efficiency.csv": emit_tables(
            efficiency_grid(cfg.r_values, cfg.set_sizes, cfg.cycles, cfg.formula_source,
                            empirical=result.efficiency), "eff_table", "csv"),
        "discrepancy.csv": discrepancy_report(cfg.formula_source),
        "metadata.json": json.dumps(meta, indent=2) + "\n",
    }
    if not args.no_figures:
        texts["figure_data.csv"] = emit_figure_data(cfg, workers=args.workers)
    out = Path(args.out_dir)
    _write_all(out, texts)
    print(f"wrote {', '.join(texts)} to {out}")
    if result.skipped:
        print(f"skipped {len(result.skipped)} cell(s); see metadata.json")
    return EXIT_OK


def cmd_tables(args) -> int:
    if args.kind == "efficiency":
        cells = efficiency_grid(cycles=tuple(args.cycles), source=args.source)
        print(emit_tables(cells, "eff_table", args.fmt), end="")
        return EXIT_OK
    if args.kind == "discrepancy":
        print(discrepancy_report(args.source), end="")
        return EXIT_OK
    if not args.rows:
        raise ConfigError("--kind bias requires --rows with a saved study.csv")
    rows = parse_rows_csv(Path(args.rows).read_text(encoding="utf-8"))
    print(emit_tables(rows, "bias_table", args.fmt), end="")
    return EXIT_OK


def cmd_realdata(args) -> int:
    d1, d2 = bundled_counts()
    reports = [
        build_estimate_report(d1.values, d2.values, method, args.source, args.level)
        for method in ("srs", "bayes")
    ]
    if args.fmt == "json":
        out = {
            "datasets": {
                d.label: {"n": d.n, "values": d.values.tolist()} for d in (d1, d2)
            },
            "reports": [rep.to_dict() for rep in reports],
        }
        print(json.dumps(out, indent=2))
    elif args.fmt == "csv":
        for k, rep in enumerate(reports):
            _print_report_csv(rep, header=k == 0)
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
    except (ConfigError, DatasetParseError, MissingCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
