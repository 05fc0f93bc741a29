"""The package namespace: each public name is declared once, in its module,
numpy is its one runtime dependency, and importing any module of it or
running the CLI's one-worker or one-slab paths loads neither SciPy nor the
process pool.  The law's float range and its map from uniforms to T are
decided in ``dist_core`` alone, and every public numeric entry point is in
the float-edge sweep or exempt from it with a reason."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ovlomax

MODULES = ("dist_core", "overlap", "sampling", "estimators", "reports", "study")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ovlomax"


def test_exports_are_the_module_exports():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"ovlomax.{name}").__all__
    assert ovlomax.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"ovlomax.{module}")
    for name in mod.__all__:
        assert getattr(ovlomax, name) is getattr(mod, name), name


def test_version_declared_once():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, name = attr.rpartition(".")
    assert getattr(sys.modules[module], name) == ovlomax.__version__


def test_runtime_dependency_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9._-]+", req).group() for req in requirements]

    assert names(meta["dependencies"]) == ["numpy"]
    assert "scipy" in names(meta["optional-dependencies"]["test"])


# Every module of the package is imported and every subcommand runs in one
# fresh interpreter, where a numpy RuntimeWarning is an error; SciPy is for the
# tests alone, and the process pool (multiprocessing, concurrent.futures) for
# two or more slabs at --workers > 1 alone: the smoke study and its figure grid
# are one slab each.
_NO_SCIPY_RUN = """
import contextlib, importlib, io, json, os, pkgutil, sys
import ovlomax, ovlomax.cli
for info in pkgutil.iter_modules(ovlomax.__path__):
    importlib.import_module(f"ovlomax.{info.name}")
smoke, out_dir, data1, data2 = sys.argv[1:]
runs = [["simulate", "--config", smoke, "--out-dir", out_dir], ["realdata"],
        ["simulate", "--config", smoke, "--out-dir", out_dir + "2", "--workers", "2"],
        ["estimate", data1, data2], ["tables", "--kind", "discrepancy"],
        ["ovl", "--ratio", "0.5"], ["realdata", "--format", "json"],
        ["estimate", data1, data2, "--format", "json"],
        ["tables", "--kind", "bias", "--rows", os.path.join(out_dir, "study.csv"),
         "--format", "csv"],
        ["ovl", "--alphas", "1", "2"], ["ovl", "--ratio", "0.5", "--format", "csv"],
        ["ovl", "--ratio", "0.5", "--format", "json"],
        ["sample", "--alpha", "1", "--design", "srs:5"],
        ["sample", "--alpha", "1", "--design", "rss:3,2"],
        *(["tables", "--kind", "efficiency", "--format", fmt] for fmt in ("text", "csv", "json")),
        ["estimate", data1, data2, "--format", "csv"], ["realdata", "--format", "csv"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ovlomax.cli.main(argv) for argv in runs]
print(json.dumps({"codes": codes, "modules": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "multiprocessing") or m.startswith("concurrent.futures"))}))
"""


def test_cli_paths_load_no_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    smoke = src / "ovlomax" / "data" / "configs" / "smoke.json"
    data1, data2 = tmp_path / "one.txt", tmp_path / "two.txt"
    data1.write_text("0.8\n1.9\n0.4\n3.1\n1.2\n")
    data2.write_text("2.2\n0.7\n1.5\n4.0\n0.9\n2.6\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _NO_SCIPY_RUN, str(smoke),
         str(tmp_path / "out"), str(data1), str(data2)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 19
    assert result["modules"] == []


def _unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``; an
    import on a line that carries ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]  # `import a.b` binds a
            if name != "*" and name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_unused_import_check_flags_only_unused_names():
    source = "import os\nimport sys\nimport json  # noqa: F401\n__all__ = ['x']\nsys.exit\n"
    assert _unused_imports(source) == ["line 1: os"]
    assert _unused_imports("from . import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_names_without_caller(sources: dict) -> list:
    """Single-underscore module-level functions, classes and constants of
    ``sources`` (``{module: source}``) that no module of them loads, by name
    or as an attribute; a definition of the name is not a load."""
    defined, loaded = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in loaded]


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_private_name_check_flags_only_names_without_caller():
    source = ("import x\n_A, _B = 1, 2\n_C: int = 3\n\n\ndef _used():\n    return _A\n\n\n"
              "class _Unused:\n    pass\n")
    other = "from .a import _used\n_used()\nx.a._C\n"
    assert _private_names_without_caller({"a": source, "b": other}) == [
        "a: _B", "a: _Unused"]
    # a helper planted in the package with no caller is flagged
    sources = _package_sources()
    sources["study"] += "\n\ndef _planted_helper(x):\n    return x\n"
    assert _private_names_without_caller(sources) == ["study: _planted_helper"]


def test_every_private_name_has_a_caller():
    # tests and perfbench do not count as callers: code with no caller in
    # the package is deleted, not kept for them
    assert _private_names_without_caller(_package_sources()) == []


# seed layout 1's private names, each joined from two parts so that this file
# does not name them itself
LAYOUT_1_NAMES = [a + b for a, b in [
    ("pcg64", "_states"), ("fill", "_uniforms"), ("_word", "_order"), ("_state", "_words"),
    ("_run", "_group"), ("_run", "_slab"), ("_sl", "abs"), ("_BLOCK", "_BYTES")]]
LAYOUT_1 = re.compile(r"\b(%s)\b" % "|".join(LAYOUT_1_NAMES))


def test_layout_1_check_flags_only_whole_names():
    slabs = LAYOUT_1_NAMES[6]
    assert LAYOUT_1.findall(f"study.{slabs}(cfg), count{slabs}") == [slabs]


# a seed-layout bump deletes the layout-1 classes of tests/test_seeds.py and
# edits no other test; conftest.recorded_pools is the one seam besides them
@pytest.mark.parametrize("path", sorted(
    path for path in Path(__file__).parent.glob("*.py")
    if path.name not in ("test_seeds.py", "conftest.py")), ids=lambda p: p.name)
def test_only_the_seed_tests_name_seed_layout_1(path):
    found = [f"line {k}: {match}"
             for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for match in LAYOUT_1.findall(line)]
    assert found == []


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _attributes(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _from_dist_core(tree: ast.Module) -> set:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "dist_core"
            for alias in node.names}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_float_range_is_read_from_dist_core_alone(path):
    # numpy's and the interpreter's float limits are read once, as dist_core's
    # _TINY and _HUGE, the range of every draw and observation
    if path.stem != "dist_core":
        assert not {"finfo", "float_info"} & _attributes(_tree(path.stem))


def test_the_readers_keep_no_copy_of_the_observation_rule():
    reports = _tree("reports")
    defined = {target.id for node in reports.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    defined |= {node.name for node in reports.body if isinstance(node, ast.FunctionDef)}
    assert not {"_SMALLEST", "_observation_refusal"} & defined
    assert {"_TINY", "_HUGE", "_range_refusal"} <= _from_dist_core(reports)


def test_the_study_takes_its_draw_map_and_bounds_from_dist_core():
    # no log of uniforms, and no bound on -log(u), is computed in study.py
    study = _tree("study")
    assert not {"log", "log1p", "maximum"} & _attributes(study)
    assert {"_t_of_uniform", "_NEG_LOG_U_MAX", "_NEG_LOG_U_MIN"} <= _from_dist_core(study)


# the public numeric entry points that the float-edge sweep of
# tests/test_estimators.py leaves out, each with the reason
EDGE_EXEMPT = {
    "harmonic": "takes an integer set size, not a float",
    "ratio_variance_factor": "takes designs and names, not a float",
    "parse_dataset": "reads text; the readers' float range is tested with them",
    "parse_ranked_dataset": "reads text; the readers' float range is tested with them",
    "build_estimate_report": "is shape_estimates, corrected_ratio and assess, each swept",
    "bundled_counts": "takes no argument",
    "run_study": "takes a StudyConfig, whose shapes are refused where T would leave the range",
    "emit_rows_csv": "formats the numbers of study rows and computes none",
    "parse_rows_csv": "reads text",
    "emit_tables": "formats the numbers of study rows or cells and computes none",
    "discrepancy_report": "takes a source name, not a float",
}


def _numeric_entry_points() -> list:
    """The functions of ``ovlomax.__all__`` and the public methods of the law."""
    names = [name for name in ovlomax.__all__ if inspect.isfunction(getattr(ovlomax, name))]
    return names + [name for name, v in vars(ovlomax.InverseLomax).items()
                    if inspect.isfunction(v) and not name.startswith("_")]


def _unswept(names, calls) -> list:
    swept = {key.split("-")[0] for key in calls}
    return [name for name in names if name not in swept and name not in EDGE_EXEMPT]


def test_unswept_check_flags_only_names_neither_swept_nor_exempt():
    calls = {"cdf-alpha=1": None, "assess-srs-derived": None}
    assert _unswept(["cdf", "assess", "harmonic", "planted_law"], calls) == ["planted_law"]


def test_every_public_numeric_entry_point_is_swept_or_exempt():
    from test_estimators import EDGE_CALLS

    names = _numeric_entry_points()
    assert {"quantile", "sample", "from_uniform", "log_transform"} <= set(names)
    assert _unswept(names, EDGE_CALLS) == []
    # an exemption names an entry point, and one that is not swept
    assert set(EDGE_EXEMPT) <= set(names) - {key.split("-")[0] for key in EDGE_CALLS}
