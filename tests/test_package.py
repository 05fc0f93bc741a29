"""The package namespace: each public name is declared once, in its module."""

import importlib
import sys
from pathlib import Path

import pytest

import ovlomax

MODULES = ("dist_core", "overlap", "sampling", "estimators", "reports", "study")


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
