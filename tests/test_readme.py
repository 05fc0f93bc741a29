"""Every ``python`` block of README.md runs as written, in order."""

import re
from pathlib import Path

from ovlomax import bundled_counts

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 2
    # the data-file example reads a.txt and b.txt: give it the bundled datasets
    for name, data in zip(("a.txt", "b.txt"), bundled_counts()):
        (tmp_path / name).write_text(" ".join(map(repr, data.values.tolist())) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks use names defined by earlier ones
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
