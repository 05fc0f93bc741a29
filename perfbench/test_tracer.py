"""Checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench

These are not part of the package's test suite (pytest's ``testpaths`` is
``tests``); they check the tracer's arithmetic, that tracing leaves the
package as it found it, that the speed reference counts its own time out of
a pass, and that the benchmark refuses to run without the package source.
"""
import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import speedref
import workloads as W
from speedref import SpeedReference
from tracer import MODULES, Tracer

W.import_package()

FAKE_A = '''
def inner():
    CLOCK.advance(2)

def outer():
    CLOCK.advance(5)
    inner()
    CLOCK.advance(3)
    TABLE["inner"]()

def fails():
    CLOCK.advance(1)
    raise ValueError("boom")

TABLE = {"inner": inner}

class Thing:
    def method(self):
        CLOCK.advance(4)
        return inner()

    @classmethod
    def build(cls):
        CLOCK.advance(1)
        return cls()
'''

FAKE_B = '''
from fakepkg.a import outer

def top():
    CLOCK.advance(1)
    outer()
'''


class FakeClock:
    def __init__(self):
        self.now = 0

    def advance(self, n):
        self.now += n

    def __call__(self):
        return self.now


@pytest.fixture
def fakepkg(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    for name, source in (("a", FAKE_A), ("b", FAKE_B)):
        mod = types.ModuleType(f"fakepkg.{name}")
        mod.CLOCK = clock
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        exec(compile(source, mod.__name__, "exec"), vars(mod))
        setattr(pkg, name, mod)
    return pkg, clock


def test_self_time_of_nested_calls(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer(package="fakepkg", modules=("a", "b"), clock=clock)
    with tracer:
        pkg.b.top()
    # top(1) -> outer(5 + 3) -> inner(2) twice, the second through TABLE
    totals = tracer.layer_totals()
    assert totals["b"] == {"calls": 1, "self_ns": 1, "errors": 0}
    assert totals["a"] == {"calls": 3, "self_ns": 12, "errors": 0}
    assert tracer.root_ns() == 13 == totals["a"]["self_ns"] + totals["b"]["self_ns"]
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["b.top", "a.outer", "a.inner", "a.inner"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1]


def test_methods_and_errors_are_traced(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer(package="fakepkg", modules=("a", "b"), clock=clock)
    with tracer:
        pkg.a.Thing.build().method()
        with pytest.raises(ValueError):
            pkg.a.fails()
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["a.Thing.build", "a.Thing.method", "a.inner", "a.fails"]
    totals = tracer.layer_totals()["a"]
    assert totals == {"calls": 4, "self_ns": 1 + 4 + 2 + 1, "errors": 1}


def _snapshot(package="ovlomax"):
    """Every module attribute, class attribute and dict value of the package."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for name, obj in vars(mod).items():
            snap[(modname, name)] = obj
            if isinstance(obj, dict):
                for key, val in obj.items():
                    snap[(modname, name, "[]", key)] = val
            if inspect.isclass(obj) and obj.__module__ == modname:
                for attr, raw in vars(obj).items():
                    snap[(modname, name, attr)] = raw
    return snap


def _small_report_batch():
    wl = W.make("report_batch", 5)
    wl.setup()
    wl.prepare()
    wl.specs = wl.specs[:12]
    return wl


def test_traced_pass_restores_every_original():
    import ovlomax.estimators
    import ovlomax.study

    wl = _small_report_batch()
    wl.iterate(1)  # lazy imports happen here, not inside the compared window
    before = _snapshot()
    original_ci = ovlomax.estimators.confidence_interval
    tracer = Tracer()
    tracer.install()
    try:
        assert ovlomax.study.confidence_interval is not original_ci
        assert ovlomax.estimators.confidence_interval is not original_ci
        it = wl.iterate(1)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert {tracer.layer_of[s[0]] for s in tracer.spans} >= {"reports", "estimators", "study"}
    wl.check(it)
    assert not it.failures


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    wl = _small_report_batch()
    args = types.SimpleNamespace(workload="report_batch", seed=5)
    tally = run.Tally()
    metrics, detail = run.per_layer(wl, args, tally, deadline=time.perf_counter())
    assert tally.failed == 0 and tally.attempted == 2 * 13
    self_total = sum(metrics[f"{m}.self_s"]["value"] for m in MODULES)
    unattributed = metrics["unattributed_s"]["value"]
    assert unattributed >= 0.0
    assert self_total + unattributed == pytest.approx(detail["traced_window_s"], abs=1e-9)
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == list(metrics)
    assert metrics["reports.calls"]["value"] > 0
    assert metrics["_seeds.calls"]["value"] == 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(W.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_m8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no package source" in proc.stderr
    assert not Path(tmp_path, "perfbench", "_out").exists()


def test_speed_reference_subtracts_its_own_time():
    ref = SpeedReference()
    ref.runs = [(0.5, 0.002), (1.0, 0.004), (1.5, 0.003), (9.0, 0.5)]
    assert ref.busy_s(0.0, 2.0) == pytest.approx(0.009)
    assert ref.loop_s() == pytest.approx(0.0035)
    # 2 s of pass, 9 ms of it in the loop, 3.5 ms per loop run
    assert ref.cost(0.0, 2.0) == pytest.approx((2.0 - 0.009) / 0.0035)


def test_speed_reference_runs_during_and_after_a_pass():
    ref = SpeedReference(period_s=0.01)
    with ref:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    during = [r for r in ref.runs if t0 <= r[0] < t1]
    assert len(during) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with ref:  # too short for a tick: topped up outside the pass
        pass
    assert len(ref.runs) == speedref.MIN_RUNS
