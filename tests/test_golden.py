"""Golden outputs: the bundled smoke study and the benchmark's paper runs,
byte for byte.

The smoke hashes were recorded before the study engine moved from one
replication at a time to whole-cell array blocks; any change to the streams,
the arithmetic order, or the CSV formatting shows up here first.  The paper
runs and the tables pass are the benchmark's, checked against the hashes it
pins in ``perfbench/golden.json`` (read only), so a change of output fails
here and not only in the benchmark.
"""

import hashlib
import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from ovlomax.cli import main
from ovlomax.reports import build_estimate_report
from ovlomax.sampling import RankedSample, RssDesign
from ovlomax.study import StudyConfig, discrepancy_report, efficiency_grid, emit_tables

BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

SMOKE = files("ovlomax.data").joinpath("configs/smoke.json").read_text(encoding="utf-8")

GOLDEN = {
    "derived": {
        "study.csv": "e5a7bdc5be515e0cc1a51ef9b802cf02361ac99d887058e98f58d01cad10d638",
        "study_bias_corrected.csv":
            "3d51185e8801e1fb37a9f62ff963afc05f6e9725ea4b8d19cb895848dc364f15",
        "figure_data.csv": "9afe7ef29fa524af12a5f8bb02863b63dad52b4dfed582994726fa24ccf8b988",
        "efficiency.csv": "10ab404d3058c89b9d275f8d657c5778c775131ecd0967a48bab61bdbd6e3a51",
    },
    "as-published": {
        "study.csv": "68735ca7968e376c5ccb368409e682322b298baf30458921fa3cfb43d665dab1",
        "study_bias_corrected.csv":
            "e5b0c4e833b2474aa9a778fdc955a5bd3315f2f7b71267b91cce92a6f145f5e6",
        "figure_data.csv": "9afe7ef29fa524af12a5f8bb02863b63dad52b4dfed582994726fa24ccf8b988",
        "efficiency.csv": "b085bf85e089005b00c86e6c562f205b87f96652357c4fd279e502c0733cec82",
    },
}


@pytest.mark.parametrize("source", sorted(GOLDEN))
def test_smoke_outputs_match_pinned_hashes(tmp_path, capsys, source):
    config = tmp_path / "smoke.json"
    config.write_text(SMOKE, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--source", source,
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[source]}
    assert got == GOLDEN[source]


@pytest.mark.parametrize("workload, config", [("sim_m8", "paper_m8"), ("sim_m40", "paper_m40")])
def test_benchmark_outputs_match_pinned_hashes(tmp_path, capsys, workload, config):
    # the benchmark's workload seed 0 runs the shipped config's master seed
    pinned = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))[workload]
    want = pinned["seeds"]["0"]
    assert len(want) == 5
    text = files("ovlomax.data").joinpath(f"configs/{config}.json").read_text(encoding="utf-8")
    path = tmp_path / f"{config}.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    seed = StudyConfig.from_json(text).master_seed
    assert main(["simulate", "--config", str(path), "--reps", str(pinned["reps"]),
                 "--seed", str(seed), "--workers", "1", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want}
    assert got == want


def test_benchmark_tables_match_pinned_hashes():
    # the benchmark's tables pass: the analytic efficiency grid for m = 8 and
    # 40 as CSV, and the discrepancy report under each formula source
    want = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["report_batch"]["tables"]
    texts = {"eff_table.csv": emit_tables(efficiency_grid(cycles=(8, 40)), "eff_table", "csv")}
    for source in ("derived", "as-published"):
        texts[f"discrepancy_{source}.csv"] = discrepancy_report(source)
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert got == want


# the estimate reports of _report_inputs, their JSON texts concatenated; recorded
# while build_estimate_report still assessed each measure through assess
REPORTS_SHA256 = "f7298166fcad3b9937c5e7b6e6cb62cd95ae67fda34234ce83e7f421d217a33e"


def _report_inputs():
    """Sample pairs from a fixed numpy seed: plain samples at the bundled
    sizes (12 and 30) and with n2 = 2 (point estimates only), ranked samples
    of 12 and 30 values with set sizes 2 to 5, and identical pairs, whose
    ranked corrected ratio of one has no as-published Weitzman bias."""
    rng = np.random.default_rng(20261020)

    def plain(n, scale):
        return rng.exponential(scale, n) + 0.01

    def ranked(r, m, scale):
        values = np.sort(rng.exponential(scale, (r, m)), axis=0) + 0.01
        return RankedSample(values=values, design=RssDesign(r=r, m=m))

    a = plain(12, 1.0)
    pairs = [("srs", (a, plain(30, 3.0))), ("srs", (plain(30, 0.5), a)),
             ("srs", (a, plain(2, 2.0))), ("srs", (a, a))]
    r12 = ranked(3, 4, 1.0)
    for rank1, rank2 in [((2, 6), (5, 6)), ((3, 10), (4, 3)), ((4, 3), (2, 15)), ((5, 6), (3, 4))]:
        pairs.append(("rss", (ranked(*rank1, 1.0), ranked(*rank2, 2.5))))
    pairs.append(("rss", (r12, r12)))
    for kind, (s1, s2) in pairs:
        for method in (("srs", "bayes") if kind == "srs" else ("rss",)):
            for source in ("derived", "as-published"):
                for level in (0.95, 0.9):
                    yield s1, s2, method, source, level


def test_reports_match_pinned_hash():
    texts = [build_estimate_report(*args).to_json() for args in _report_inputs()]
    assert len(texts) == 52
    got = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert got == REPORTS_SHA256
