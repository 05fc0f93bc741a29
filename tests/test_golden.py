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

import pytest

from ovlomax.cli import main
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
