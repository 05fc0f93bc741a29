"""Command line interface, driven through main(argv) plus one real process.

The real process runs the ``ovlomax`` entry point declared under
``[project.scripts]`` in pyproject.toml as a child Python, the way pip's
generated wrapper calls it, so it needs no install; when an installed
``ovlomax`` script is on PATH, that script is run as well.
"""

import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import recorded_pools

import ovlomax
from ovlomax import cli
from ovlomax.cli import main
from ovlomax.dist_core import ConfigError, DomainError
from ovlomax.study import STUDY_CSV_COLUMNS, parse_rows_csv

DATA1 = "120 14 62 47 225 71 246 21\n"
DATA2 = "23 261 87 7 120 14\n"
REPO = Path(__file__).resolve().parents[1]
SMOKE = REPO / "src" / "ovlomax" / "data" / "configs" / "smoke.json"
# sha256 of the report JSON as json.dumps(indent=2) wrote it, before every
# report document went through the one report writer: realdata's by source,
# estimate's of DATA1 and DATA2 by method and source
JSON_PINS = {
    ("realdata", "derived"): "3550a6ca09ed7f06b8529ab2ab77f61697f27e5d49535daaf1bdae05f50515bc",
    ("realdata", "as-published"):
        "142d6ebce822d7daf86bb2e6ed70fa848a0270b819fe6d5ad1deecfcf30a11a8",
    ("srs", "derived"): "b94b09547adee1e67d0498f93f4bc130a79b7abc9112c946cf07e1fbfe678fdd",
    ("srs", "as-published"): "28d2396917bcd358bad2336e08f5da88cfca6181febd829eace9c8d15e9713d5",
    ("bayes", "derived"): "4f10b0324461ea412151da213da2519eba058fd3a39a01a2b4dc595c88b3f5b9",
    ("bayes", "as-published"): "25847de562882c32806534ace91593bb108bf63b86498b5a8470f697eda83791",
}
# sha256 of the CSV that estimate and realdata print, as hand-built lines
# wrote it before every CSV went through the one CSV writer: realdata's by
# source; estimate's by method and source, of DATA1 and DATA2 for srs and
# bayes, of RANKED and RANKED_2 for rss, and of RANKED twice ("rss-equal",
# ratio 1, where the as-published corrected bounds are blank)
CSV_PINS = {
    ("realdata", "derived"): "0585daad29ab3c5912cdd9846b681bf8cf84c6ebe7427e3a92f114a2559c023a",
    ("realdata", "as-published"):
        "6ea44019ee8acecb095667cc042a4037944ef93dc671d5e12f361073a57492e3",
    ("srs", "derived"): "1d458df7a51483a7a9ae2fd5acae9bdfc1bcd26bacf5b8064db1fc58ea66d012",
    ("srs", "as-published"): "8b2b610d4d0fd5702604c69c550c85510e0602354322a209aca538d1d30c0d26",
    ("bayes", "derived"): "11c6f8090d398ace7225a27b10419fe114c0f43b2e6b351b4d8af074449ebda4",
    ("bayes", "as-published"): "327ff39ed867099ea3785a1f9646463765797081d545d707836bcba36d598b60",
    ("rss", "derived"): "3397c130e01b165cf690a36bf194e9b0cf081ab2762c87d083a068c6e85e8733",
    ("rss", "as-published"): "6630bb583740a8979b5fb6aafa6e31b7b93810b296b99e723fbedb556d189643",
    ("rss-equal", "derived"): "bbc2effd20ee788a00a233a05cd97eb56bf1233d263d25738be4e9a4cbfcb010",
    ("rss-equal", "as-published"):
        "1575245aa6dc995d9f0cebbd7df28d381c969cb12cc16239fe75da09e43a9db2",
}
LEVELS_OUTSIDE = ["1.5", "nan", "0", "1", "-0.5", "inf", "x"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """``main(argv)`` in a real process, so numpy's warnings reach stderr as
    a user sees them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", "import sys; from ovlomax.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestOvl:
    def test_csv_bytes_are_pinned(self, capsys):
        assert run_cli(capsys, "ovl", "--ratio", "0.5", "--format", "csv") == (
            0, "measure,value\nrho,0.9428090416\ndelta,0.75\nlambda,0.6666666667\n", "")

    def test_json_all_measures(self, capsys):
        code, out, _ = run_cli(capsys, "ovl", "--ratio", "0.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == 0.5
        assert doc["rho"] == pytest.approx(0.9428090415820634, rel=1e-12)
        assert doc["delta"] == pytest.approx(0.75, rel=1e-12)
        assert doc["lambda"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_alphas_equal_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "ovl", "--alphas", "1", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.9428090415820634, rel=1e-12)

    def test_single_measure_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "ovl", "--ratio", "0.5", "--measure", "rho", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,value"
        assert len(lines) == 2
        assert lines[1].startswith("rho,")

    @pytest.mark.parametrize("argv, expected", [
        (["--ratio", "0.5"],
         "shape ratio: 0.5\n  rho     0.9428090416\n  delta   0.75\n  lambda  0.6666666667\n"),
        (["--ratio", "0.5", "--format", "csv"],
         "measure,value\nrho,0.9428090416\ndelta,0.75\nlambda,0.6666666667\n"),
        (["--ratio", "0.5", "--format", "json"],
         '{\n  "ratio": 0.5,\n  "rho": 0.9428090415820635,\n  "delta": 0.75,\n'
         '  "lambda": 0.6666666666666666\n}\n'),
        (["--alphas", "1", "2", "--measure", "delta"], "shape ratio: 0.5\n  delta   0.75\n"),
        (["--alphas", "1", "2", "--measure", "delta", "--format", "csv"],
         "measure,value\ndelta,0.75\n"),
        (["--alphas", "1", "2", "--measure", "delta", "--format", "json"],
         '{\n  "ratio": 0.5,\n  "delta": 0.75\n}\n'),
    ], ids=["ratio-text", "ratio-csv", "ratio-json", "alphas-text", "alphas-csv", "alphas-json"])
    def test_output_bytes_are_pinned(self, capsys, argv, expected):
        assert run_cli(capsys, "ovl", *argv) == (0, expected, "")

    def test_quadrature_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ovl", "--ratio", "0.5", "--quadrature"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quadrature" in capsys.readouterr().err

    def test_huge_ratio_keeps_delta(self, capsys):
        # delta(R) = delta(1/R) ~ 4.6e-198 here, not a cancelled 0
        code, out, _ = run_cli(capsys, "ovl", "--ratio", "1e200", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == pytest.approx((1.0 + 200 * math.log(10.0)) * 1e-200, rel=1e-12)

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "ovl", "--ratio", "2.0")
        assert code == 0
        assert "shape ratio" in out

    def test_bad_ratio_is_estimation_error(self, capsys):
        code, _, err = run_cli(capsys, "ovl", "--ratio", "-1")
        assert code == 1
        assert err == "error: shape ratio must be positive and finite\n"

    def test_bad_alphas(self, capsys):
        code, _, err = run_cli(capsys, "ovl", "--alphas", "-1", "2")
        assert code == 1
        assert err == "error: alpha must be a positive finite number, got -1.0\n"
        code, _, err = run_cli(capsys, "ovl", "--alphas", "1", "0")
        assert code == 1
        assert err == "error: alpha must be a positive finite number, got 0.0\n"

    def test_ratio_and_alphas_conflict(self):
        with pytest.raises(SystemExit) as exc:
            main(["ovl", "--ratio", "0.5", "--alphas", "1", "2"])
        assert exc.value.code == 2

    def test_missing_selector(self):
        with pytest.raises(SystemExit) as exc:
            main(["ovl"])
        assert exc.value.code == 2


class TestSample:
    def test_srs_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "sample", "--alpha", "1", "--design", "srs:5",
                                "--seed", "3")
        assert code == 0
        values = [float(v) for v in out1.split()]
        assert len(values) == 5 and all(v > 0 for v in values)
        _, out2, _ = run_cli(capsys, "sample", "--alpha", "1", "--design", "srs:5",
                             "--seed", "3")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "sample", "--alpha", "1", "--design", "srs:5",
                             "--seed", "4")
        assert out1 != out3

    @pytest.mark.parametrize("command", [
        ["sample", "--alpha", "1", "--design", "srs:5"],
        ["simulate", "--config", str(SMOKE)],
    ], ids=["sample", "simulate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "99999999999999999999999"])
    def test_seed_outside_the_seed_range_is_refused(self, capsys, command, seed):
        # derive_seeds reduces every part mod 2**64, so -1 and 2**64 - 1 would
        # draw the same values
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: must be an integer in [0, 2**64), got '{seed}'" in captured.err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1", "--design", "srs:5",
                               "--seed", str(2**64 - 1))
        assert code == 0 and len(out.split()) == 5

    def test_rss_covers_every_slot(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1", "--design", "rss:2,3",
                               "--seed", "3")
        assert code == 0
        recs = list(csv.reader(io.StringIO(out)))
        assert recs[0] == ["rank", "cycle", "value"]
        slots = {(r[0], r[1]) for r in recs[1:]}
        assert slots == {(str(i), str(k)) for i in (1, 2) for k in (1, 2, 3)}

    def test_rss_bytes_are_pinned(self, capsys):
        assert run_cli(capsys, "sample", "--alpha", "1", "--design", "rss:2,3",
                       "--seed", "5") == (0, "rank,cycle,value\n"
                                             "1,1,1.295193264\n1,2,3.030930383\n1,3,4.24864747\n"
                                             "2,1,10.31525236\n2,2,1.320205821\n2,3,2.119072868\n",
                                          "")

    def test_rss_output_feeds_estimate(self, capsys, tmp_path):
        _, out1, _ = run_cli(capsys, "sample", "--alpha", "0.8", "--design", "rss:3,4",
                             "--seed", "5")
        _, out2, _ = run_cli(capsys, "sample", "--alpha", "1.0", "--design", "rss:3,4",
                             "--seed", "6")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        f1.write_text(out1)
        f2.write_text(out2)
        code, out, _ = run_cli(capsys, "estimate", str(f1), str(f2), "--method", "rss",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n1"] == doc["n2"] == 12

    def test_bad_design_strings(self, capsys):
        for design in ("foo:3", "srs:abc", "rss:2", "srs:0"):
            code, _, err = run_cli(capsys, "sample", "--alpha", "1", "--design", design)
            assert code == 2, design
            assert "design" in err

    # numpy refuses both before it allocates; a size the machine could grant,
    # such as srs:10**13, would be a MemoryError instead, tested by a stub below
    @pytest.mark.parametrize("design, draws", [(f"srs:{10**19}", 10**19),
                                               (f"rss:{10**8},{10**8}", 10**24)])
    def test_design_too_large_for_an_array_is_refused(self, capsys, design, draws):
        assert run_cli(capsys, "sample", "--alpha", "1", "--design", design) == (
            2, "", f"error: bad design {design!r}: its {draws} raw draws exceed the "
                   f"{sys.maxsize // 8} values a float64 array can hold\n")

    def test_bad_alpha(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--alpha", "-1", "--design", "srs:5")
        assert code == 1

    def test_draws_below_the_float_range_fail_cleanly(self):
        proc = run_process("sample", "--alpha", "1000", "--design", "srs:2000")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "below the smallest normal float" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("alpha, design, bound", [
        ("1e-320", "srs:3", "above the largest float (1.798e+308)"),
        ("1e-320", "rss:2,2", "above the largest float (1.798e+308)"),
        ("5e-324", "srs:3", "above the largest float (1.798e+308)"),
        ("1.7e308", "srs:3", "below the smallest normal float (2.225e-308)")])
    def test_draws_beyond_either_end_of_the_float_range_fail_cleanly(self, alpha, design, bound):
        proc = run_process("sample", "--alpha", alpha, "--design", design)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert bound in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


class TestEstimate:
    @pytest.fixture
    def files(self, tmp_path):
        f1, f2 = tmp_path / "one.txt", tmp_path / "two.txt"
        f1.write_text(DATA1)
        f2.write_text(DATA2)
        return str(f1), str(f2)

    def test_text(self, capsys, files):
        code, out, _ = run_cli(capsys, "estimate", *files)
        assert code == 0
        for token in ("method", "rho", "delta", "lambda", "ratio"):
            assert token in out

    def test_json(self, capsys, files):
        code, out, _ = run_cli(capsys, "estimate", *files, "--format", "json",
                               "--method", "bayes", "--level", "0.9")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "bayes"
        assert doc["level"] == 0.9
        assert len(doc["measures"]) == 3

    @pytest.mark.parametrize("source", ovlomax.SOURCES)
    @pytest.mark.parametrize("method", ["srs", "bayes"])
    def test_json_bytes_are_pinned(self, capsys, files, method, source):
        code, out, _ = run_cli(capsys, "estimate", *files, "--format", "json",
                               "--method", method, "--source", source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == JSON_PINS[method, source]

    def test_file_that_is_not_utf8_is_usage_error(self, capsys, files):
        Path(files[1]).write_bytes(b"23 261\xff 87\n")
        code, out, err = run_cli(capsys, "estimate", *files)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {files[1]}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("value", LEVELS_OUTSIDE)
    def test_level_outside_the_unit_interval_is_usage_error(self, capsys, tmp_path, value):
        # refused before either file is opened
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(tmp_path / "no1.txt"), str(tmp_path / "no2.txt"),
                  "--level", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --level: " in err and repr(value) in err

    def test_csv(self, capsys, files):
        code, out, _ = run_cli(capsys, "estimate", *files, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("ci_corr_hi")
        assert len(lines) == 4

    @pytest.mark.parametrize("source", ovlomax.SOURCES)
    @pytest.mark.parametrize("method", ["srs", "bayes", "rss", "rss-equal"])
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, method, source):
        texts = {"rss": (RANKED, RANKED_2), "rss-equal": (RANKED, RANKED)}.get(
            method, (DATA1, DATA2))
        paths = [tmp_path / "one.txt", tmp_path / "two.txt"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        code, out, _ = run_cli(capsys, "estimate", *map(str, paths), "--format", "csv",
                               "--method", method.removesuffix("-equal"), "--source", source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CSV_PINS[method, source]

    def test_missing_file(self, capsys, tmp_path, files):
        code, _, err = run_cli(capsys, "estimate", files[0], str(tmp_path / "no.txt"))
        assert code == 3
        assert "error:" in err

    def test_unparseable_data(self, capsys, tmp_path, files):
        bad = tmp_path / "bad.txt"
        bad.write_text("12 x 9\n")
        code, _, _ = run_cli(capsys, "estimate", files[0], str(bad))
        assert code == 2

    @pytest.mark.parametrize("method, text, reason", [
        ("srs", "x\n", "line 1: not a number (got 'x')"),
        ("bayes", "# nothing here\n", "no observations found"),
        ("rss", "rank,cycle,value\n1,1,x\n",
         "line 2: rank/cycle must be integers, value numeric (got '1,1,x')"),
        ("rss", "rank,cycle,value\n\n1,1," + "7" * 200_000 + "\n",
         "line 3: field larger than field limit (131072)"),
        ("srs", "3\n1e-310\n",
         "line 2: observation lies below the smallest normal float (2.225e-308) (got '1e-310')"),
        ("rss", "rank,cycle,value\n1,1,1e-310\n",
         "line 2: observation lies below the smallest normal float (2.225e-308) (got '1e-310')"),
    ], ids=["not-a-number", "empty", "ranked-bad-value", "ranked-oversized-field", "subnormal",
            "ranked-subnormal"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_data_error_names_its_file(self, capsys, tmp_path, method, text, reason, which):
        good = tmp_path / "good.txt"
        good.write_text("rank,cycle,value\n1,1,5\n2,1,7\n" if method == "rss" else DATA1)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        paths = [str(good), str(good)]
        paths[which] = str(bad)
        code, out, err = run_cli(capsys, "estimate", *paths, "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {reason}\n"

    @pytest.fixture
    def extreme_files(self, tmp_path):
        # a corrected ratio of ~1e-311, where the printed Weitzman bias overflows
        big, tiny = tmp_path / "big.txt", tmp_path / "tiny.txt"
        big.write_text("1e308\n" * 4)
        tiny.write_text("1e-300\n" * 4)
        return str(big), str(tiny)

    def test_published_bias_overflow_is_a_note(self, capsys, extreme_files):
        code, out, _ = run_cli(capsys, "estimate", *extreme_files, "--source", "as-published")
        assert code == 0
        notes = [line for line in out.splitlines() if line.startswith("  note:")]
        assert len(notes) == 1
        assert "delta bias is not finite" in notes[0]

    def test_published_bias_overflow_prints_no_warning(self, extreme_files):
        proc = run_process("estimate", *extreme_files, "--source", "as-published")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "delta bias is not finite" in proc.stdout

    def test_derived_estimate_at_a_subnormal_ratio(self, extreme_files):
        # the slope terms are elasticities, so nothing overflows or underflows
        # into a non-finite variance
        proc = run_process("estimate", *extreme_files, "--format", "json")
        assert proc.returncode == 0 and proc.stderr == ""
        for m in json.loads(proc.stdout)["measures"]:
            assert np.isfinite(m["variance"]) and m["variance"] >= 0.0
            for interval in (m["interval"], m["interval_corrected"]):
                assert interval["lo"] <= interval["hi"]

    def test_wide_values_keep_text_columns_apart(self, capsys, extreme_files):
        code, out, _ = run_cli(capsys, "estimate", *extreme_files, "--source", "as-published")
        assert code == 0
        lines = out.splitlines()
        head = lines.index(next(line for line in lines if line.lstrip().startswith("measure")))
        for line in lines[head:head + 4]:
            assert len(line.split()) == 8, line

    @pytest.mark.parametrize("method", ["srs", "bayes"])
    def test_one_value_second_sample_names_n2(self, capsys, files, tmp_path, method):
        # (n2 - 1) is a factor of the srs and derived bayes corrections
        single = tmp_path / "single.txt"
        single.write_text("42\n")
        code, out, err = run_cli(capsys, "estimate", files[0], str(single), "--method", method)
        assert code == 1 and out == ""
        assert err.startswith("error: n2 = 1: the ") and err.endswith(" is zero\n")

    def test_derived_bayes_with_one_first_value(self, capsys, files, tmp_path):
        single = tmp_path / "single.txt"
        single.write_text("42\n")
        code, out, _ = run_cli(capsys, "estimate", str(single), files[1], "--method", "bayes",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        d1, d2 = ovlomax.SrsDesign(1), ovlomax.SrsDesign(6)
        rhat = ovlomax.corrected_ratio(doc["ratio_raw"], "bayes", d1, d2)
        assert doc["ratio_unbiased"] == rhat
        want = ovlomax.assess([rhat], "bayes", d1, d2)
        for m in doc["measures"]:
            a = want[m["measure"]]
            assert (m["point"], m["variance"], m["bias"]) == (
                a.point.item(), a.variance.item(), a.bias.item())
            assert (m["interval"]["lo"], m["interval"]["hi"]) == (a.lo.item(), a.hi.item())
        notes = [w for w in doc["warnings"] if w.startswith("formula sources disagree")]
        assert len(notes) == 1
        assert notes[0].endswith("as-published has no corrected ratio here (n1 = 1: the "
                                 "as-published bayes correction n1*(n1-1)*(n1+1) is zero)")
        code, out, err = run_cli(capsys, "estimate", str(single), files[1], "--method", "bayes",
                                 "--source", "as-published")
        assert code == 1 and out == ""
        assert err == ("error: n1 = 1: the as-published bayes correction "
                       "n1*(n1-1)*(n1+1) is zero\n")

    def test_plain_data_with_rss_method(self, capsys, files):
        code, _, _ = run_cli(capsys, "estimate", *files, "--method", "rss")
        assert code == 2  # plain lists do not parse as ranked records


class TestSimulate:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "r_values": [0.5],
            "set_sizes": [[2, 2]],
            "cycles": [2],
            "replications": 4,
            "master_seed": 9,
            "figure_r_grid": [0.25, 0.75],
        }))
        return str(path)

    def test_stdout_mode(self, capsys, config):
        code, out, _ = run_cli(capsys, "simulate", "--config", config)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(STUDY_CSV_COLUMNS)
        assert len(lines) == 1 + 9  # one cell, three methods, three measures

    def test_config_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"r_values": [0.5]\xff}')
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_bad_reps_is_usage_error(self, capsys, tmp_path, value):
        # refused before the config file is opened
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tmp_path / "no.json"), "--reps", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --reps: " in err and repr(value) in err

    def test_out_dir_artifacts(self, capsys, config, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, out, _ = run_cli(capsys, "simulate", "--config", config,
                               "--out-dir", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["discrepancy.csv", "efficiency.csv", "figure_data.csv",
                         "metadata.json", "study.csv", "study_bias_corrected.csv"]
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["replications"] == 4
        assert meta["skipped_cells"] == []
        assert "wrote" in out

    def test_metadata_records_versions(self, capsys, config, tmp_path):
        out_dir = tmp_path / "meta"
        code, _, _ = run_cli(capsys, "simulate", "--config", config,
                             "--out-dir", str(out_dir), "--no-figures")
        assert code == 0
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["ovlomax_version"] == ovlomax.__version__
        assert meta["seed_layout"] == 1
        assert meta["numpy_version"] == np.__version__
        keys = list(meta)
        assert keys.index("ovlomax_version") == keys.index("numpy_version") + 1

    def test_out_dir_builds_no_study_rows(self, capsys, config, tmp_path, monkeypatch):
        # every file is written from the study's CSV text; rows are parsed
        # from that text only when asked for, and nothing here asks
        def refuse(text):
            raise AssertionError("simulate parsed its own study CSV into rows")

        monkeypatch.setattr("ovlomax.study.parse_rows_csv", refuse)
        out_dir = tmp_path / "text-first"
        code, _, err = run_cli(capsys, "simulate", "--config", config, "--out-dir", str(out_dir))
        assert code == 0, err
        assert len((out_dir / "study.csv").read_text().splitlines()) == 1 + 9

    def test_no_figures(self, capsys, config, tmp_path):
        out_dir = tmp_path / "nofig"
        code, _, _ = run_cli(capsys, "simulate", "--config", config,
                             "--out-dir", str(out_dir), "--no-figures")
        assert code == 0
        assert not (out_dir / "figure_data.csv").exists()
        assert (out_dir / "study.csv").exists()

    def test_huge_ratio_fails_cleanly(self, tmp_path):
        # -alpha * log(u) of smoke.json's samples at shape R = 1e308 overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**json.loads(SMOKE.read_text()), "r_values": [0.5, 1e308]}))
        out_dir = tmp_path / "out"
        proc = run_process("simulate", "--config", str(path), "--out-dir", str(out_dir))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {path}: a sample of up to 6 values "
                                      "(set_sizes x cycles) at shape 1e+308 (the largest R of r_values")
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out_dir.exists()

    def test_subnormal_ratio_fails_cleanly(self, tmp_path):
        # T = -alpha * log(u) at shape R = 1e-310 would be subnormal
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({**json.loads(SMOKE.read_text()), "r_values": [1e-310, 0.5]}))
        out_dir = tmp_path / "out"
        proc = run_process("simulate", "--config", str(path), "--out-dir", str(out_dir))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {path}: r_values or figure_r_grid reaches R = 1e-310")
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()

    def test_config_seed_outside_the_seed_range_is_refused(self, capsys, tmp_path):
        # derive_seeds would fold 2**64 + 5 into the streams of seed 5
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({**json.loads(SMOKE.read_text()), "master_seed": 2**64 + 5}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: master_seed must be an integer in [0, 2**64)\n"

    def test_reruns_byte_identical(self, capsys, config, tmp_path):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        run_cli(capsys, "simulate", "--config", config, "--out-dir", str(d1))
        # a slab per design group: the study's three and the figure grid's
        # three run over one real pool of two workers
        with recorded_pools(1) as pools:
            run_cli(capsys, "simulate", "--config", config, "--out-dir", str(d2),
                    "--workers", "2")
        assert pools == [2]
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir()) and len(names) == 6
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    @pytest.mark.parametrize("flags, figures", [
        ([], False), (["--out-dir", "OUT", "--no-figures"], False), (["--out-dir", "OUT"], True)],
        ids=["stdout", "no-figures", "out-dir"])
    def test_one_engine_pass_per_run(self, capsys, config, tmp_path, monkeypatch, flags, figures):
        # the figure grid joins the study's pass only when figure_data.csv is
        # written; either way simulate makes one run_study call
        calls, real = [], ovlomax.cli.run_study

        def counted(cfg, workers=1, figures=False):
            calls.append(figures)
            return real(cfg, workers, figures)

        monkeypatch.setattr(ovlomax.cli, "run_study", counted)
        argv = [str(tmp_path / "out") if flag == "OUT" else flag for flag in flags]
        code, _out, _err = run_cli(capsys, "simulate", "--config", config, *argv)
        assert code == 0 and calls == [figures]
        assert (tmp_path / "out" / "figure_data.csv").exists() == figures

    def test_overrides_recorded(self, capsys, config, tmp_path):
        out_dir = tmp_path / "ovr"
        code, _, _ = run_cli(capsys, "simulate", "--config", config,
                             "--reps", "2", "--seed", "77",
                             "--source", "as-published",
                             "--out-dir", str(out_dir), "--no-figures")
        assert code == 0
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["replications"] == 2
        assert meta["config"]["master_seed"] == 77
        assert meta["config"]["formula_source"] == "as-published"

    def test_degenerate_cells_write_every_file(self, capsys, tmp_path):
        # one cycle of set size two: n2 = 2 < 3, so the srs/bayes cells are
        # skipped and the analytic efficiency of the only cell does not exist
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps({"r_values": [0.5], "set_sizes": [[2, 2]],
                                   "cycles": [1], "replications": 5}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out-dir", str(out_dir))
        assert code == 0, err
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["discrepancy.csv", "efficiency.csv", "figure_data.csv",
                         "metadata.json", "study.csv", "study_bias_corrected.csv"]
        recs = list(csv.DictReader(io.StringIO((out_dir / "efficiency.csv").read_text())))
        assert len(recs) == 3
        assert all(r["analytic_eff"] == "" and r["empirical_eff"] == "" for r in recs)
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert {c["method"] for c in meta["skipped_cells"]} == {"srs", "bayes"}
        assert "skipped 2 cell(s)" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [
        {"r_values": [1e-290, 0.5], "set_sizes": [[3, 3]], "cycles": [2]},
        {"r_values": [1.0, 0.5], "set_sizes": [[2, 2]], "cycles": [4],
         "formula_source": "as-published"}], ids=["subnormal-mse", "weitzman-bias-at-one"])
    def test_an_efficiency_with_no_value_is_never_nan(self, capsys, tmp_path, grid):
        # the delta and lambda MSEs at R = 1e-290 underflow, and the as-published
        # delta at R = 1 has a NaN bias: blank in CSV, null in JSON, '-' in text,
        # as for a refused srs design
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**grid, "replications": 4, "master_seed": 9}))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out-dir", str(out_dir))
        assert code == 0, err
        # discrepancy.csv is left out: its pinned bytes spell the real-data rss
        # cells, which have no computed value, as nan
        for name in set(os.listdir(out_dir)) - {"discrepancy.csv"}:
            assert not re.search(r"\bnan\b", (out_dir / name).read_text(), re.I), name
        tiny = grid["cycles"] == [2]
        recs = list(csv.DictReader(io.StringIO((out_dir / "efficiency.csv").read_text())))
        gone = {(r["measure"], r["R"]) for r in recs if r["analytic_eff"] == ""}
        assert gone == ({("delta", "1e-290"), ("lambda", "1e-290")} if tiny else {("delta", "1")})
        # the simulated efficiency, study.csv's column, by the same rule
        simulated = {(r["measure"], r["R"]) for r in recs if r["empirical_eff"] == ""}
        assert simulated == (gone if tiny else set())
        rss = [r for r in parse_rows_csv((out_dir / "study.csv").read_text())
               if r.method == "rss"]
        assert {(r.measure, "%g" % r.R) for r in rss if r.efficiency is None} == simulated

        cfg = ovlomax.StudyConfig.from_json(path.read_text())
        cells = ovlomax.efficiency_grid(cfg.r_values, cfg.set_sizes, cfg.cycles,
                                        cfg.formula_source)
        assert sum(c.analytic_eff is None for c in cells) == len(gone)
        text = ovlomax.emit_tables(cells, "eff_table", "text")
        values = [v for line in text.splitlines() if line.startswith("    r1=")
                  for v in line.split()[1:]]
        assert values.count("-") == len(gone)
        records = json.loads(ovlomax.emit_tables(cells, "eff_table", "json"))["cells"]
        assert [r["analytic_eff"] for r in records].count(None) == len(gone)

    def test_no_figures_without_out_dir_is_refused(self, capsys, config):
        code, out, err = run_cli(capsys, "simulate", "--config", config, "--no-figures")
        assert (code, out) == (2, "")
        assert "--no-figures" in err and "--out-dir" in err

    def test_failure_leaves_no_output(self, capsys, config, tmp_path, monkeypatch):
        def broken(source):
            raise DomainError("discrepancy report failed")

        monkeypatch.setattr("ovlomax.cli.discrepancy_report", broken)
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "simulate", "--config", config,
                               "--out-dir", str(out_dir))
        assert code == 1
        assert "discrepancy report failed" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_failed_write_leaves_no_output(self, capsys, config, tmp_path, monkeypatch,
                                           existing):
        # the third file write fails: nothing is renamed into place, every
        # temporary is removed, and so is the directory if this run made it
        out_dir = tmp_path / "parent" / "partial"
        if existing:
            out_dir.mkdir(parents=True)
            (out_dir / "keep.txt").write_text("kept")
        calls = []
        write_text = Path.write_text

        def failing(self, *args, **kwargs):
            calls.append(self.name)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        code, out, err = run_cli(capsys, "simulate", "--config", config,
                                 "--out-dir", str(out_dir))
        assert code == 3 and out == ""
        assert "No space left on device" in err
        assert len(calls) == 3
        if existing:
            assert sorted(p.name for p in out_dir.iterdir()) == ["keep.txt"]
        else:
            assert not (tmp_path / "parent").exists()

    def test_target_that_is_not_a_file_is_refused_before_any_rename(self, capsys, config,
                                                                    tmp_path):
        # a directory where efficiency.csv goes: study.csv keeps its old text
        out_dir = tmp_path / "out"
        (out_dir / "efficiency.csv").mkdir(parents=True)
        (out_dir / "study.csv").write_text("old")
        code, out, err = run_cli(capsys, "simulate", "--config", config,
                                 "--out-dir", str(out_dir))
        assert code == 3 and out == ""
        assert "efficiency.csv" in err
        assert (out_dir / "study.csv").read_text() == "old"
        assert sorted(p.name for p in out_dir.iterdir()) == ["efficiency.csv", "study.csv"]

    def test_bad_workers(self, capsys, config):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", config, "--workers", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "'0'" in err

    def test_bad_workers_refused_before_config_is_read(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tmp_path / "no.json"), "--workers", "-3"])
        assert exc.value.code == 2  # not 3: the missing file is never opened
        assert "--workers" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "no.json"))
        assert code == 3

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"replications": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("text, reason", [
        ("{broken", "invalid JSON: "),
        ('{"cycles": 8}', "cycles must be a sequence of integers"),
        ('{"replications": 10, "replications": 20}', "repeated configuration key: replications"),
    ])
    def test_config_error_names_its_file(self, capsys, tmp_path, text, reason):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {reason}")


class TestTables:
    def test_efficiency_text(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--cycles", "8")
        assert code == 0
        assert "Relative efficiency" in out
        assert "m=8" in out and "m=40" not in out

    def test_efficiency_csv_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--cycles", "8", "40",
                               "--format", "csv")
        assert code == 0
        recs = list(csv.reader(io.StringIO(out)))
        assert len(recs) == 1 + 2 * 3 * 5 * 16

    def test_efficiency_with_degenerate_srs_designs(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--cycles", "1", "--format", "csv")
        assert code == 0, err
        recs = list(csv.DictReader(io.StringIO(out)))
        # r2 = 2 with one cycle leaves n2 = 2 < 3 for the srs side
        blank = [r for r in recs if r["analytic_eff"] == ""]
        assert {r["r2"] for r in blank} == {"2"}
        assert len(blank) == 3 * 5 * 4
        assert all(float(r["analytic_eff"]) > 0 for r in recs if r["r2"] != "2")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_cycles_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--cycles", "8", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--cycles" in err and repr(value) in err

    def test_repeated_cycles_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--cycles", "8", "8")
        assert code == 2 and out == ""
        assert "cycles repeats 8" in err

    def test_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--kind", "discrepancy")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "table,cell,printed_value,computed_value,abs_diff"
        assert len(lines) == 1 + 288 + 42

    @pytest.mark.parametrize("kind, flags, refused", [
        ("bias", ["--source", "as-published", "--cycles", "3"], "--cycles"),
        ("bias", ["--source", "as-published"], "--source"),
        ("efficiency", ["--rows", "ROWS"], "--rows"),
        ("discrepancy", ["--rows", "ROWS"], "--rows"),
        ("discrepancy", ["--cycles", "8"], "--cycles"),
        ("discrepancy", ["--format", "json"], "--format json"),
        ("discrepancy", ["--format", "text"], "--format text")],
        ids=["bias-cycles", "bias-source", "efficiency-rows", "discrepancy-rows",
             "discrepancy-cycles", "discrepancy-json", "discrepancy-text"])
    def test_a_flag_the_kind_does_not_read_is_refused(self, capsys, tmp_path, kind, flags,
                                                      refused):
        # refused before any file is read: the rows file does not exist
        rows = str(tmp_path / "study.csv")
        argv = [rows if flag == "ROWS" else flag for flag in flags]
        if kind == "bias":
            argv += ["--rows", rows]
        code, out, err = run_cli(capsys, "tables", "--kind", kind, *argv)
        assert (code, out) == (2, "")
        assert f"--kind {kind}" in err and refused in err

    def test_bias_requires_rows(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--kind", "bias")
        assert code == 2
        assert "--rows" in err

    def test_bias_from_saved_rows(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r_values": [0.5], "set_sizes": [[2, 2]], "cycles": [2],
            "replications": 3, "master_seed": 5,
        }))
        _, rows_csv, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        saved = tmp_path / "study.csv"
        saved.write_text(rows_csv)
        code, out, _ = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(saved))
        assert code == 0
        assert "empirical coverage" in out

    @pytest.fixture
    def skipped_rows(self, capsys, tmp_path):
        """study.csv of a study whose r2 = 1 srs and bayes cells are skipped (n2 = 2)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r_values": [0.25, 0.8], "set_sizes": [[2, 1], [2, 2]], "cycles": [2],
            "replications": 5, "master_seed": 9,
        }))
        code, rows_csv, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        saved = tmp_path / "study.csv"
        saved.write_text(rows_csv)
        return saved

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_bias_of_a_study_with_skipped_cells(self, capsys, skipped_rows, fmt):
        rows = parse_rows_csv(skipped_rows.read_text())
        assert len(rows) == 3 * (2 * 2 * 3 - 4)
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(skipped_rows),
                                 "--format", fmt)
        assert code == 0, err
        if fmt == "csv":  # the rows that ran, in grid order
            assert parse_rows_csv(out) == rows
        elif fmt == "json":
            fields = ("method", "measure", "R", "r1", "r2", "m", "abs_bias", "coverage",
                      "ci_length")
            assert json.loads(out)["cells"] == [{f: getattr(row, f) for f in fields}
                                                for row in rows]
        else:  # columns srs, rss, bayes: '-' where skipped, numbers elsewhere
            lines = [line.split() for line in out.splitlines() if "(2," in line]
            assert len(lines) == 2 * 3 * 2
            for line in lines:
                srs, rss, bayes = line[2:5], line[5:8], line[8:]
                if line[1] == "(2,1)":
                    assert srs == bayes == ["-"] * 3
                    srs = bayes = []
                assert all(float(v) >= 0 for v in srs + rss + bayes)

    def test_bias_still_names_a_missing_row_that_ran(self, capsys, skipped_rows):
        lines = skipped_rows.read_text().splitlines(keepends=True)
        gone = next(k for k, line in enumerate(lines) if line.startswith("rss,delta,0.8,2,1,"))
        skipped_rows.write_text("".join(lines[:gone] + lines[gone + 1:]))
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(skipped_rows))
        assert code == 2 and out == ""
        assert "missing 1 grid cell(s): method=rss measure=delta R=0.8 r1=2 r2=1 m=2" in err

    @pytest.mark.parametrize("damage, message", [
        (lambda rec: rec[:-1], "line 3: expected 15 fields, got 14"),
        (lambda rec: rec + ["7"], "line 3: expected 15 fields, got 16"),
        (lambda rec: rec[:3] + ["two"] + rec[4:], "line 3: r1 = 'two'"),
        (lambda rec: rec[:9] + ["0.1.2"] + rec[10:], "line 3: mse = '0.1.2'"),
        (lambda rec: ["mle"] + rec[1:], "line 3: method = 'mle'"),
        (lambda rec: rec[:1] + ["rhoo"] + rec[2:], "line 3: measure = 'rhoo'"),
        (lambda rec: rec[:13] + ["derivd"] + rec[14:], "line 3: formula_source = 'derivd'"),
        (lambda rec: rec[:2] + ["-0.5"] + rec[3:], "line 3: R = -0.5 is not positive and finite"),
        (lambda rec: rec[:2] + ["0"] + rec[3:], "line 3: R = 0.0 is not positive and finite"),
        (lambda rec: rec[:2] + ["nan"] + rec[3:], "line 3: R = nan is not positive and finite"),
        (lambda rec: rec[:2] + ["inf"] + rec[3:], "line 3: R = inf is not positive and finite"),
        (lambda rec: rec[:3] + ["0"] + rec[4:], "line 3: r1 = 0 is below 1"),
        (lambda rec: rec[:4] + ["-2"] + rec[5:], "line 3: r2 = -2 is below 1"),
        (lambda rec: rec[:5] + ["0"] + rec[6:], "line 3: m = 0 is below 1"),
        (lambda rec: rec[:6] + ["0"] + rec[7:], "line 3: reps = 0 is below 1"),
        (lambda rec: rec[:14] + ["-5"], "line 3: seed = -5 is outside [0, 2**64)"),
        (lambda rec: rec[:14] + [str(2**70)], f"line 3: seed = {2**70} is outside [0, 2**64)"),
        (lambda rec: rec[:13] + ["as-published"] + rec[14:],
         "rows mix formula sources ['as-published', 'derived']"),
        (lambda rec: rec[:2] + ["0.5"] + rec[3:],
         "repeated row: method=srs measure=rho R=0.5 r1=2 r2=2 m=2"),
        # a seed longer than the csv module's field size limit of 131072 characters
        (lambda rec: rec[:14] + ["7" * 200_000],
         "study.csv: study CSV line 3: field larger than field limit (131072)"),
    ], ids=["short", "long", "bad-int", "bad-float", "bad-method", "bad-measure",
            "bad-source", "negative-R", "zero-R", "nan-R", "inf-R", "zero-r1", "negative-r2",
            "zero-m", "zero-reps", "negative-seed", "wide-seed", "mixed-sources", "repeated-row", "oversized-field"])
    def test_bias_from_malformed_rows_is_usage_error(self, capsys, tmp_path, damage, message):
        # three rows of distinct cells (R = 0.5, 0.75, 0.8); the third line is damaged
        rows_csv = ",".join(STUDY_CSV_COLUMNS) + "\n" + "\n".join(
            ",".join(["srs", "rho", R, "2", "2", "2", "3", "0.01", "-0.01", "0.002",
                      "1", "0.3", "", "derived", str(seed)])
            for seed, R in enumerate(("0.5", "0.75", "0.8"))) + "\n"
        recs = list(csv.reader(io.StringIO(rows_csv)))
        recs[2] = damage(recs[2])
        saved = tmp_path / "study.csv"
        saved.write_text("".join(",".join(rec) + "\n" for rec in recs))
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(saved))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("text, message", [
        ("method,measure\nsrs,rho\n", "unexpected study CSV header: ['method', 'measure']"),
        ("", f"study CSV line 1: no header; expected {','.join(STUDY_CSV_COLUMNS)}")])
    def test_rows_error_names_its_file(self, capsys, tmp_path, text, message):
        saved = tmp_path / "study.csv"
        saved.write_text(text)
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(saved))
        assert (code, out) == (2, "")
        assert err == f"error: {saved}: {message}\n"

    def test_bias_from_header_only_rows(self, capsys, tmp_path):
        saved = tmp_path / "study.csv"
        saved.write_text(",".join(STUDY_CSV_COLUMNS) + "\n")
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(saved))
        assert code == 2
        assert out == ""
        assert err == "error: no rows to tabulate\n"

    def test_bias_from_rows_that_are_not_utf8_is_usage_error(self, capsys, tmp_path):
        saved = tmp_path / "study.csv"
        saved.write_bytes(",".join(STUDY_CSV_COLUMNS).encode() + b"\n\xff\n")
        code, out, err = run_cli(capsys, "tables", "--kind", "bias", "--rows", str(saved))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {saved}: 'utf-8' codec can't decode byte 0xff")

    def test_bias_missing_rows_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "tables", "--kind", "bias",
                             "--rows", str(tmp_path / "no.csv"))
        assert code == 3


class TestRealdata:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "realdata")
        assert code == 0
        assert "plane_8044" in out and "plane_7912" in out
        assert "ranked-set design" in out or "ranked design" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "realdata", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["datasets"]["plane_8044"]["n"] == 12
        assert doc["datasets"]["plane_7912"]["n"] == 30
        methods = [rep["method"] for rep in doc["reports"]]
        assert methods == ["srs", "bayes"]

    @pytest.mark.parametrize("source", ovlomax.SOURCES)
    def test_json_bytes_are_pinned(self, capsys, source):
        code, out, _ = run_cli(capsys, "realdata", "--format", "json", "--source", source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == JSON_PINS["realdata", source]

    @pytest.mark.parametrize("value", LEVELS_OUTSIDE)
    def test_level_outside_the_unit_interval_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["realdata", "--level", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --level: " in err and repr(value) in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "realdata", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6  # one header, three measures per method

    @pytest.mark.parametrize("source", ovlomax.SOURCES)
    def test_csv_bytes_are_pinned(self, capsys, source):
        code, out, _ = run_cli(capsys, "realdata", "--format", "csv", "--source", source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CSV_PINS["realdata", source]

    def test_published_source(self, capsys):
        code, out, _ = run_cli(capsys, "realdata", "--source", "as-published")
        assert code == 0
        assert "disagree" in out


# a ranked set sample of two ranks and three cycles, and a one-cell study config
RANKED = "rank,cycle,value\n1,1,0.41\n2,1,3.07\n1,2,0.88\n2,2,1.9\n1,3,0.3\n2,3,2.2\n"
RANKED_2 = "rank,cycle,value\n1,1,0.2\n2,1,1.35\n1,2,0.62\n2,2,0.97\n1,3,0.15\n2,3,4.8\n"
SMALL_CONFIG = json.dumps({"r_values": [0.5], "set_sizes": [[2, 2]], "cycles": [2],
                           "replications": 4, "master_seed": 9})


class TestInputFiles:
    # each command that reads input files: its arguments around the paths
    COMMANDS = {
        "estimate": lambda paths: ["estimate", *paths],
        "estimate-rss": lambda paths: ["estimate", *paths, "--method", "rss"],
        "simulate": lambda paths: ["simulate", "--config", *paths],
        "tables": lambda paths: ["tables", "--kind", "bias", "--rows", *paths],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, command):
        texts = {"estimate": [DATA1, DATA2], "estimate-rss": [RANKED, RANKED],
                 "simulate": [SMALL_CONFIG],
                 "tables": [ovlomax.run_study(ovlomax.StudyConfig.from_json(SMALL_CONFIG)).csv]}

        def files(tag, head, tail=b""):
            paths = [tmp_path / f"{tag}{k}" for k in range(len(texts[command]))]
            for path, text in zip(paths, texts[command]):
                path.write_bytes(head + text.encode() + tail)
            return self.COMMANDS[command](map(str, paths))

        plain = run_cli(capsys, *files("plain", b""))
        assert plain[0] == 0 and plain[1]
        assert run_cli(capsys, *files("bom", "\ufeff".encode())) == plain
        # a byte that is not UTF-8 after the mark is still refused
        code, out, err = run_cli(capsys, *files("bad", "\ufeff".encode(), b"\xff"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tmp_path / 'bad0'}: 'utf-8' codec can't decode byte 0xff")


def error_classes():
    """Every exception class that a module of the package defines."""
    for info in pkgutil.iter_modules(ovlomax.__path__):
        module = importlib.import_module(f"ovlomax.{info.name}")
        yield from (obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__)


class TestErrorClasses:
    def test_every_error_class_has_an_exit_code(self, capsys, monkeypatch):
        # a class that derives from neither would escape main as a traceback
        classes = sorted(error_classes(), key=lambda cls: cls.__name__)
        assert {"ConfigError", "DatasetParseError", "DegenerateDesignError", "DomainError",
                "MissingCellError"} <= {cls.__name__ for cls in classes}
        for cls in classes:
            assert issubclass(cls, (ConfigError, DomainError)), cls
            # made without its __init__, whose arguments differ by class
            error = cls.__new__(cls, "stub")

            def stub(args, error=error):
                raise error

            monkeypatch.setattr(cli, "cmd_ovl", stub)
            code = 2 if issubclass(cls, ConfigError) else 1
            assert run_cli(capsys, "ovl", "--ratio", "0.5") == (code, "", "error: stub\n"), cls

    @pytest.mark.parametrize("error, shown", [
        (MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"),
         "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_exit_3(self, capsys, monkeypatch, error, shown):
        def stub(args):
            raise error

        monkeypatch.setattr(cli, "cmd_sample", stub)
        assert run_cli(capsys, "sample", "--alpha", "1", "--design", "srs:5") == (
            3, "", f"error: {shown}\n")

    def test_config_error_is_one_class(self):
        from ovlomax.study import ConfigError as from_study

        assert from_study is ConfigError is ovlomax.ConfigError


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ovlomax" in capsys.readouterr().out

    def test_installed_script(self):
        """The declared console script runs in a real process.

        The ``ovlomax`` target from pyproject.toml is called by a wrapper of
        the same shape as pip's (set ``argv[0]``, exit with the target's
        return value) in a child interpreter with the repo's ``src`` first on
        PYTHONPATH. An ``ovlomax`` executable on PATH gets the same command.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "ovlomax" in scripts, "no ovlomax entry in [project.scripts]"
        module, _, func = scripts["ovlomax"].partition(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'ovlomax'; sys.exit({func}())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        runs = [([sys.executable, "-c", wrapper], env)]
        script = shutil.which("ovlomax")
        if script is not None:
            runs.append(([script], None))
        for command, run_env in runs:
            proc = subprocess.run(
                [*command, "ovl", "--ratio", "0.5", "--format", "json"],
                capture_output=True, text=True, timeout=60, env=run_env,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["delta"] == pytest.approx(0.75)
