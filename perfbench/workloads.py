"""The three benchmark workloads and their output checks.

Each workload object has

* ``setup()``: import the package and load/validate the workload's config
  or inputs.  This is what ``setup_s`` times, in a fresh interpreter.
* ``prepare()``: build generated inputs that no metric counts.
* ``iterate(workers)``: one timed pass of the main call, returning an
  :class:`Iteration`.
* ``check(it)``: the untimed output checks of that pass; each failed
  operation is recorded on the iteration.

The package is imported from ``<checkout>/src`` and nowhere else, so a
checkout without the source fails at ``setup()``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

HASHED_OUTPUTS = ("study.csv", "study_bias_corrected.csv", "efficiency.csv",
                  "discrepancy.csv", "figure_data.csv")


class SetupError(RuntimeError):
    """The package or its data cannot be loaded from this checkout."""


def import_package() -> None:
    """Import ``ovlomax`` from this checkout's ``src`` directory only."""
    if not (SRC / "ovlomax" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ovlomax
    import ovlomax.cli  # noqa: F401  (the sims drive the CLI entry point)

    where = Path(ovlomax.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"ovlomax imported from {where}, not from {SRC}")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Iteration:
    wall_s: float          # the main call, seconds
    items: int             # (cell, rep) pairs on sim_*, reports on report_batch
    items_wall_s: float    # time the items took (the report loop on report_batch)
    t0: float = 0.0        # perf_counter at the start of the main call
    ops: int = 1           # operations attempted
    failed: set = field(default_factory=set)       # ids of failed operations
    failures: list = field(default_factory=list)   # what failed, for the record
    latencies_us: list = field(default_factory=list)
    bytes_written: int = 0
    payload: object = None  # outputs kept for the untimed check

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.failures.append(message)


# ---------------------------------------------------------------------------
# sim_m8 / sim_m40: the full simulate command on a paper config
# ---------------------------------------------------------------------------


class SimWorkload:
    """``ovlomax simulate --config <paper config> --reps N --seed S`` in-process,
    figure data on.  Workload seed ``n`` maps to master seed
    ``config.master_seed + n``, so seed 0 is the shipped config's seed.

    ``workers`` is the worker count of the timed passes; ``pool_workers``,
    when larger, is the count at which the traced run counts pool starts."""

    def __init__(self, name: str, config: str, workers: int, reps: int, seed: int,
                 pool_workers: int = 1):
        self.name = name
        self.config_path = SRC / "ovlomax" / "data" / "configs" / config
        self.workers = workers
        self.pool_workers = max(workers, pool_workers)
        self.reps = reps
        self.seed = seed
        self.out_dir = OUT / f"work-{name}"
        self.hashes: dict | None = None
        self.golden: dict | None = None

    def setup(self) -> None:
        import_package()
        from ovlomax.study import DEFAULT_FIGURE_R_GRID, StudyConfig

        cfg = StudyConfig.from_json(self.config_path.read_text(encoding="utf-8"))
        self.master_seed = cfg.master_seed + self.seed
        n_r = len(cfg.r_values)
        self.study_cells = n_r * len(cfg.set_sizes) * len(cfg.cycles) * 3
        self.figure_cells = len(cfg.figure_r_grid or DEFAULT_FIGURE_R_GRID) * 3
        self.eff_rows = 3 * n_r * len(cfg.set_sizes) * len(cfg.cycles)

    def prepare(self) -> None:
        pinned = load_golden()[self.name]
        if pinned["reps"] != self.reps:
            raise SetupError(f"golden.json pins {self.name} at reps={pinned['reps']}, "
                             f"the workload runs reps={self.reps}")
        self.golden = pinned["seeds"].get(str(self.seed))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # one small untimed call so lazy imports inside the package are done
        self.call(self.workers, reps=1)

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def call(self, workers: int, reps: int):
        import ovlomax.cli

        argv = ["simulate", "--config", str(self.config_path), "--reps", str(reps),
                "--seed", str(self.master_seed), "--workers", str(workers),
                "--out-dir", str(self.out_dir)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            rc = ovlomax.cli.main(argv)
            wall = time.perf_counter() - t0
        return rc, t0, wall

    def iterate(self, workers: int) -> Iteration:
        cells = self.study_cells + self.figure_cells
        try:
            rc, t0, wall = self.call(workers, self.reps)
        except Exception as exc:  # an op that raised counts as failed, run continues
            it = Iteration(0.0, 0, 0.0)
            it.fail("simulate", f"simulate raised {exc!r}")
            return it
        return Iteration(wall, cells * self.reps, wall, t0=t0, payload=rc)

    # -- output gate -------------------------------------------------------

    def check(self, it: Iteration) -> None:
        if it.failed:
            return
        if it.payload != 0:
            it.fail("simulate", f"simulate exited {it.payload}")
            return
        it.bytes_written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        for msg in self._check_outputs():
            it.fail("simulate", msg)

    def _check_outputs(self) -> list:
        failures = []
        hashes = {}
        for name in HASHED_OUTPUTS:
            path = self.out_dir / name
            if not path.is_file():
                failures.append(f"{name} missing")
                continue
            hashes[name] = sha256(path.read_bytes())
        if failures:
            return failures
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            failures.append("outputs differ from the first call at this seed")
        if self.golden is not None:
            for name, want in self.golden.items():
                if hashes.get(name) != want:
                    failures.append(f"{name} does not match its pinned SHA-256")
        for name in ("study.csv", "study_bias_corrected.csv"):
            failures.extend(_check_study_csv(self.out_dir / name, self.study_cells, self.reps))
        failures.extend(_check_figure_csv(self.out_dir / "figure_data.csv", self.figure_cells))
        failures.extend(_check_efficiency_csv(self.out_dir / "efficiency.csv", self.eff_rows))
        return failures


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_study_csv(path: Path, cells: int, reps: int) -> list:
    rows = _rows(path)
    bad = []
    if len(rows) != cells * 3:
        bad.append(f"{path.name}: {len(rows)} rows, expected {cells} cells x 3 measures")
    numeric = ("R", "r1", "r2", "m", "reps", "abs_bias", "signed_bias", "mse",
               "coverage", "ci_length", "seed")
    for k, row in enumerate(rows, start=2):
        if any(not _finite(row[c]) for c in numeric):
            bad.append(f"{path.name} line {k}: non-finite numeric field")
        elif not 0.0 <= float(row["coverage"]) <= 1.0:
            bad.append(f"{path.name} line {k}: coverage outside [0, 1]")
        elif float(row["ci_length"]) < 0.0:
            bad.append(f"{path.name} line {k}: negative ci_length")
        elif int(row["reps"]) != reps:
            bad.append(f"{path.name} line {k}: reps {row['reps']} != {reps}")
        if row["method"] == "rss" and not _finite(row["efficiency"]):
            bad.append(f"{path.name} line {k}: rss row without a finite efficiency")
    return bad[:10]


def _check_figure_csv(path: Path, cells: int) -> list:
    rows = _rows(path)
    bad = []
    if len(rows) != cells * 3:
        bad.append(f"{path.name}: {len(rows)} rows, expected {cells} cells x 3 measures")
    for k, row in enumerate(rows, start=2):
        if not all(_finite(row[c]) for c in ("R", "bias", "mse")):
            bad.append(f"{path.name} line {k}: non-finite numeric field")
    return bad[:10]


def _check_efficiency_csv(path: Path, expected: int) -> list:
    rows = _rows(path)
    bad = []
    if len(rows) != expected:
        bad.append(f"{path.name}: {len(rows)} rows, expected {expected}")
    for k, row in enumerate(rows, start=2):
        if not (_finite(row["analytic_eff"]) and _finite(row["empirical_eff"])):
            bad.append(f"{path.name} line {k}: efficiency value missing or non-finite")
    return bad[:10]


# ---------------------------------------------------------------------------
# report_batch: estimate reports one at a time, then one tables pass
# ---------------------------------------------------------------------------

REPORT_METHODS = ("srs", "bayes", "rss")
REPORT_SOURCES = ("derived", "as-published")
PAPER_R = (0.1, 0.5, 0.75, 0.8, 0.9)
# plain sample sizes: the bundled datasets (12, 30) and r*m on the paper grid
PLAIN_SIZES = (12, 30, 16, 24, 32, 40, 80, 120, 160, 200)
RANKED_SET_SIZES = (2, 3, 4, 5)
RANKED_CYCLES = (4, 6, 8, 40)
REPORTS_PER_BATCH = 360
LEVEL = 0.95


@dataclass
class ReportSpec:
    method: str
    source: str
    text1: str
    text2: str
    values1: object   # generated values, kept for the oracle
    values2: object


def _plain_text(x, rng) -> str:
    """Whitespace/comma separated values with line breaks and a comment."""
    lines = ["# generated observations"]
    for start in range(0, len(x), 7):
        sep = ", " if rng.random() < 0.5 else " "
        lines.append(sep.join(repr(float(v)) for v in x[start:start + 7]))
    return "\n".join(lines) + "\n"


def _ranked_text(values) -> str:
    r, m = values.shape
    lines = ["rank,cycle,value"]
    lines += [f"{i + 1},{k + 1},{float(values[i, k])!r}" for k in range(m) for i in range(r)]
    return "\n".join(lines) + "\n"


def generate_reports(seed: int) -> list:
    """Report inputs from a seed: methods cycle srs/bayes/rss, sources cycle
    derived/as-published, true ratio R from the paper grid with alpha2 = 1.
    Sample sizes cycle through ``PLAIN_SIZES`` and every (r, m) pair, so every
    seed asks for the same amount of work; only the values depend on it.
    Values follow X = 1/expm1(T), T ~ Exponential(mean alpha)."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x0EB])

    def plain(alpha, n):
        return 1.0 / np.expm1(rng.exponential(alpha, n))

    def ranked(alpha, r, m):
        raw = np.sort(1.0 / np.expm1(rng.exponential(alpha, (m, r, r))), axis=2)
        idx = np.arange(r)
        return raw[:, idx, idx].T.copy()  # (r, m): rank i holds the i-th order stat

    designs = [(r, m) for r in RANKED_SET_SIZES for m in RANKED_CYCLES]
    n_plain = n_ranked = 0
    specs = []
    for i in range(REPORTS_PER_BATCH):
        method = REPORT_METHODS[i % 3]
        source = REPORT_SOURCES[(i // 3) % 2]
        alphas = (PAPER_R[(i // 6) % len(PAPER_R)], 1.0)
        if method == "rss":
            vals = []
            for a in alphas:
                vals.append(ranked(a, *designs[n_ranked % len(designs)]))
                n_ranked += 1
            texts = [_ranked_text(v) for v in vals]
        else:
            vals = []
            for a in alphas:
                vals.append(plain(a, PLAIN_SIZES[n_plain % len(PLAIN_SIZES)]))
                n_plain += 1
            texts = [_plain_text(v, rng) for v in vals]
        specs.append(ReportSpec(method, source, texts[0], texts[1], vals[0], vals[1]))
    return specs


def tables_pass() -> dict:
    """The ``tables`` work that follows a batch of reports: the analytic efficiency
    grid for m = 8 and 40 as CSV, and the discrepancy report for both sources."""
    from ovlomax import study

    cells = study.efficiency_grid(cycles=(8, 40))
    return {
        "eff_table.csv": study.emit_tables(cells, "eff_table", "csv"),
        "discrepancy_derived.csv": study.discrepancy_report("derived"),
        "discrepancy_as-published.csv": study.discrepancy_report("as-published"),
    }


class ReportBatchWorkload:
    name = "report_batch"
    workers = pool_workers = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.digest: str | None = None

    def setup(self) -> None:
        import_package()
        from ovlomax import reports

        reports.bundled_counts()

    def prepare(self) -> None:
        self.specs = generate_reports(self.seed)
        self.golden = load_golden()[self.name]["tables"]

    def cleanup(self) -> None:
        pass

    def iterate(self, workers: int) -> Iteration:
        from ovlomax import reports

        clock = time.perf_counter
        it = Iteration(0.0, len(self.specs), 0.0, ops=len(self.specs) + 1)
        results = []
        t_start = clock()
        for k, spec in enumerate(self.specs):
            t0 = clock()
            try:
                if spec.method == "rss":
                    s1 = reports.parse_ranked_dataset(spec.text1)
                    s2 = reports.parse_ranked_dataset(spec.text2)
                else:
                    s1 = reports.parse_dataset(spec.text1, "sample1").values
                    s2 = reports.parse_dataset(spec.text2, "sample2").values
                rep = reports.build_estimate_report(s1, s2, spec.method, spec.source, LEVEL)
                text = rep.to_json()
            except Exception as exc:  # a report that raised counts as failed
                results.append(None)
                it.fail(k, f"{spec.method}/{spec.source} report raised {exc!r}")
                continue
            it.latencies_us.append((clock() - t0) * 1e6)
            results.append((rep, text))
        t_reports = clock()
        try:
            tables = tables_pass()
        except Exception as exc:
            tables = None
            it.fail("tables", f"tables pass raised {exc!r}")
        it.t0 = t_start
        it.wall_s = clock() - t_start
        it.items_wall_s = t_reports - t_start
        it.payload = (results, tables)
        return it

    # -- oracle ------------------------------------------------------------

    def check(self, it: Iteration) -> None:
        import numpy as np
        from ovlomax.reports import EstimateReport

        results, tables = it.payload
        digest = hashlib.sha256()
        for k, (spec, res) in enumerate(zip(self.specs, results)):
            if res is None:
                continue
            rep, text = res
            digest.update(text.encode())
            what = f"report {k} ({spec.method}/{spec.source})"
            want = []
            for v in (spec.values1, spec.values2):
                t = np.log1p(1.0 / np.asarray(v, dtype=float))
                want.append(float(t.sum() / (t.size + 1) if spec.method == "bayes" else t.mean()))
            got = (rep.alpha1, rep.alpha2)
            if not all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want)):
                it.fail(k, f"{what}: alpha {got} != oracle {tuple(want)}")
            for m in rep.measures:
                for iv in (m.interval, m.interval_corrected):
                    if iv is None or not (0.0 <= iv.lo <= iv.hi <= 1.0):
                        it.fail(k, f"{what} {m.measure}: bad interval {iv}")
            if EstimateReport.from_json(text) != rep:
                it.fail(k, f"{what}: JSON round trip differs")
        digest = digest.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            it.fail("batch", "report JSON differs from the first batch at this seed")
        if tables is not None:
            for name, text in tables.items():
                if sha256(text.encode()) != self.golden[name]:
                    it.fail("tables", f"{name} does not match its pinned SHA-256")
            eff = list(csv.DictReader(io.StringIO(tables["eff_table.csv"])))
            if len(eff) != 2 * 3 * len(PAPER_R) * 16 or not all(_finite(r["analytic_eff"]) for r in eff):
                it.fail("tables", "eff_table.csv: wrong row count or non-finite efficiency")


WORKLOADS = ("sim_m8", "sim_m40", "report_batch")


def make(name: str, seed: int):
    if name == "sim_m8":
        return SimWorkload(name, "paper_m8.json", workers=1, reps=10, seed=seed)
    if name == "sim_m40":
        # timed passes on one worker: with two, this process idles in the pool
        # while both CPUs are busy, and its speed reference would time the
        # scheduler (see speedref.py); pool starts are counted at two
        return SimWorkload(name, "paper_m40.json", workers=1, reps=12, seed=seed,
                           pool_workers=2)
    if name == "report_batch":
        return ReportBatchWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
