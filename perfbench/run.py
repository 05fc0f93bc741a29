"""Benchmark of the ovlomax package: one command, every metric, output checks.

    python3 perfbench/run.py --workload sim_m8 --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``sim_m8``       ``simulate`` on paper_m8.json, one worker, figures on
* ``sim_m40``      ``simulate`` on paper_m40.json, two workers, figures on
* ``report_batch`` estimate reports one at a time, then one tables pass

``--trace 0`` repeats the workload untraced for ``--seconds`` and prints the
end-to-end metrics, with pass times counted in runs of a reference loop timed
on the same CPU during each pass (see speedref.py).  ``--trace 1`` alternates untraced and traced passes (one
worker) and prints the per-layer metrics.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine and versions.  Details go to ``perfbench/_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from speedref import SpeedReference
from tracer import MODULES, Tracer

SETUP_PROBES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and version record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout is usually not a repository)."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(workers: int) -> dict:
    import numpy
    import ovlomax
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ovlomax": ovlomax.__version__,
        "git_commit": _git_commit(),
        "workers": workers,
        "workers_exceed_nproc": workers > nproc,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list:
    """Seconds from starting a fresh interpreter to the workload being set up."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                              cwd=W.ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise W.SetupError("setup probe failed")
        times.append(elapsed)
    return times


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list = []

    def add(self, it: W.Iteration) -> W.Iteration:
        self.attempted += it.ops
        self.failed += min(len(it.failed), it.ops)
        self.failures.extend(it.failures)
        return it


def run_once(wl, workers: int, tally: Tally, tracer: Tracer | None = None,
             ref: SpeedReference | None = None):
    """One pass of the main call, checked after.  Traced if a tracer is given;
    with a speed reference, the reference loop runs during the pass."""
    if ref is not None:
        with ref:
            it, window_ns = wl.iterate(workers), None
    elif tracer is None:
        it, window_ns = wl.iterate(workers), None
    else:
        with tracer:
            t0 = time.perf_counter_ns()
            it = wl.iterate(workers)
            window_ns = time.perf_counter_ns() - t0
    wl.check(it)
    it.payload = None  # checked; keeping every pass's outputs would grow peak RSS
    return tally.add(it), window_ns


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class LayerCounters:
    """Counts taken at layer boundaries through tracer hooks."""

    def __init__(self):
        self.raw_draws = self.retained = 0
        self.cells_run = self.cells_skipped = 0
        self.ci_calls = self.ci_clamped = 0

    def hooks(self) -> dict:
        def srs(args, kwargs, out):
            n = _arg(args, kwargs, 1, "design").n
            self.raw_draws += n
            self.retained += n

        def rss(args, kwargs, out):
            d = _arg(args, kwargs, 1, "design")
            self.raw_draws += d.r * d.r * d.m
            self.retained += d.r * d.m

        def ci(args, kwargs, out):
            self.ci_calls += 1
            self.ci_clamped += bool(out.clamped)

        def study(args, kwargs, out):
            self.cells_run += len(out.rows) // 3
            self.cells_skipped += len(out.skipped)

        return {"sampling.draw_srs": srs, "sampling.draw_rss": rss,
                "estimators.confidence_interval": ci, "study.run_study": study}


class PoolCounter:
    """Counts process pools the study engine starts, by rebinding the
    executor class ``ovlomax.study`` uses to a counting subclass."""

    def __init__(self):
        import ovlomax.study as study

        self.study = study
        self.original = study.ProcessPoolExecutor
        self.starts = 0
        counter = self

        class Counting(self.original):
            def __init__(self, *a, **kw):
                counter.starts += 1
                super().__init__(*a, **kw)

        self.counting = Counting

    def __enter__(self):
        self.study.ProcessPoolExecutor = self.counting
        return self

    def __exit__(self, *exc):
        self.study.ProcessPoolExecutor = self.original
        return False


def _metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def latency_metrics(latencies: list) -> dict:
    n = len(latencies)
    return {
        "report_us_p50": _metric(statistics.median(latencies) if n else 0.0, "us"),
        # p99 only with at least ten samples beyond it
        "report_us_p99": _metric(percentile(latencies, 99) if n >= 1000 else 0.0, "us"),
        "report_latency_samples": _metric(n, "count"),
    }


def end_to_end(wl, args, tally: Tally, deadline: float) -> tuple:
    iters, costs, item_costs, loops, setup = [], [], [], [], []
    ref = SpeedReference()
    # set-up probes run between passes, spread over the run, so that their
    # median sees the host over the whole run rather than over a few seconds
    start = time.perf_counter()
    probe_gap = (deadline - start) / SETUP_PROBES
    while not iters or time.perf_counter() < deadline:
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * probe_gap:
            setup += measure_setup(args.workload, args.seed, probes=1)
            continue
        it, _ = run_once(wl, wl.workers, tally, ref=ref)
        iters.append(it)
        if it.items:  # a failed pass has no time to count
            costs.append(ref.cost(it.t0, it.wall_s))
            item_costs.append(ref.cost(it.t0, it.items_wall_s))
            loops.append(ref.loop_s())
    setup += measure_setup(args.workload, args.seed, probes=SETUP_PROBES - len(setup))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = [it for it in iters if it.items]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_ref": _metric(statistics.median(costs) if costs else 0.0, "ref"),
        "items_per_kref": _metric(
            statistics.median(it.items / c * 1e3 for it, c in zip(ok, item_costs))
            if ok else 0.0, "1/kref"),
        "peak_rss_mb": _metric(self_kb / 1024.0, "MB"),
    }
    detail = {
        "iterations": len(iters),
        "wall_s_all": [it.wall_s for it in iters],
        "wall_ref_all": costs,
        "ref_loop_us_all": [x * 1e6 for x in loops],
        "setup_s_all": setup,
    }
    # report latencies come from the traced run's untraced passes, which run
    # without the reference loop
    return metrics, detail


def per_layer(wl, args, tally: Tally, deadline: float) -> tuple:
    plain_walls, traced_walls, latencies = [], [], []
    totals = {m: {"calls": 0, "self_ns": 0, "errors": 0} for m in MODULES}
    counters = LayerCounters()
    unattributed_ns = window_total_ns = traced = items = bytes_written = 0
    pools = PoolCounter()
    with pools:
        while not traced or time.perf_counter() < deadline:
            it, _ = run_once(wl, 1, tally)
            plain_walls.append(it.wall_s)
            latencies.extend(it.latencies_us)
            tracer = Tracer(hooks=counters.hooks())
            it, window_ns = run_once(wl, 1, tally, tracer)
            traced_walls.append(it.wall_s)
            for m, rec in tracer.layer_totals().items():
                for k in rec:
                    totals[m][k] += rec[k]
            unattributed_ns += window_ns - tracer.root_ns()
            window_total_ns += window_ns
            traced += 1
            items += it.items
            bytes_written += it.bytes_written
        if wl.pool_workers > 1:
            # spans from pool workers never reach this process, so the traced
            # passes use one worker; pool starts are counted on one pass at
            # the workload's pool worker count
            pools.starts = 0
            run_once(wl, wl.pool_workers, tally)
            pool_starts = pools.starts
        else:
            pool_starts = pools.starts / traced
    W.OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(W.OUT / f"spans-{args.workload}.csv")

    per_op = items / traced
    metrics = {}
    for m in MODULES:
        rec = totals[m]
        self_s = rec["self_ns"] / traced / 1e9
        metrics[f"{m}.calls"] = _metric(rec["calls"] / traced, "count")
        metrics[f"{m}.self_s"] = _metric(self_s, "s")
        metrics[f"{m}.self_us_per_op"] = _metric(self_s / per_op * 1e6 if per_op else 0.0, "us")
        metrics[f"{m}.errors"] = _metric(rec["errors"] / traced, "count")
    metrics.update({
        "sampling.raw_draws": _metric(counters.raw_draws / traced, "count"),
        "sampling.retained": _metric(counters.retained / traced, "count"),
        "study.cells_run": _metric(counters.cells_run / traced, "count"),
        "study.cells_skipped": _metric(counters.cells_skipped / traced, "count"),
        "study.pool_starts": _metric(pool_starts, "count"),
        "estimators.ci_clamped_frac": _metric(
            counters.ci_clamped / counters.ci_calls if counters.ci_calls else 0.0, "ratio"),
        "cli.bytes_written": _metric(bytes_written / traced, "bytes"),
        "unattributed_s": _metric(unattributed_ns / traced / 1e9, "s"),
        "trace_overhead_frac": _metric(
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio"),
    })
    metrics.update(latency_metrics(latencies))
    metrics["wall_s"] = _metric(statistics.median(plain_walls), "s")
    detail = {
        "traced_passes": traced,
        "traced_window_s": window_total_ns / traced / 1e9,
        "untraced_wall_s_all": plain_walls,
        "traced_wall_s_all": traced_walls,
        "ops_per_pass": per_op,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = W.make(args.workload, args.seed)
    try:
        wl.setup()
        wl.prepare()
    except (W.SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = machine_info(wl.pool_workers)
    if info["workers_exceed_nproc"]:
        print(f"warning: {wl.pool_workers} workers on {info['nproc']} CPUs", file=sys.stderr)

    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            metrics, detail = per_layer(wl, args, tally, deadline)
        else:
            metrics, detail = end_to_end(wl, args, tally, deadline)
    finally:
        wl.cleanup()

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    W.OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, info=info, detail=detail, failures=tally.failures[:50])
    out = W.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for msg in tally.failures[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
