"""Every ``python`` block of README.md runs as written, in order, and so does
every ``ovlomax`` line of its ``sh`` blocks."""

import re
import shlex
import shutil
from pathlib import Path

from ovlomax import bundled_counts
from ovlomax.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    found = blocks("python")
    assert len(found) >= 2
    # the data-file example reads a.txt and b.txt: give it the bundled datasets
    for name, data in zip(("a.txt", "b.txt"), bundled_counts()):
        (tmp_path / name).write_text(" ".join(map(repr, data.values.tolist())) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks use names defined by earlier ones
    for k, block in enumerate(found, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # paths in the examples are relative to the checkout; later lines read
    # what earlier ones wrote
    config = "src/ovlomax/data/configs/smoke.json"
    (tmp_path / config).parent.mkdir(parents=True)
    shutil.copy(ROOT / config, tmp_path / config)
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for k, line in enumerate(lines):
            argv = shlex.split(line.removeprefix("$ "))
            if argv[:1] != ["ovlomax"]:
                continue
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
            code = main(argv[1:])
            out = capsys.readouterr().out
            assert code == 0, line
            if target is not None:
                (tmp_path / target).write_text(out)
            if line.startswith("$ "):  # a transcript: the block's other lines are its output
                assert out == "\n".join(lines[k + 1:]) + "\n", line
            ran.append(argv[1])
    assert ran.count("sample") == 2 and {"ovl", "estimate", "simulate", "tables", "realdata"} <= set(ran)
