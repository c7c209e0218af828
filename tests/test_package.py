"""The package re-exports each public name of the module that defines it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import figdesc

PYTHONPATH = str(Path(figdesc.__file__).parent.parent)


@pytest.mark.parametrize("name", figdesc.__all__)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(figdesc, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert value.__module__.startswith("figdesc.")


def dir_probe(pythonpath: str) -> str:
    """What a fresh interpreter that imports figdesc from pythonpath prints:
    the public names that dir(figdesc) leaves out."""
    probe = "import figdesc; print(sorted(set(figdesc.__all__) - set(dir(figdesc))))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_dir_lists_every_public_name_before_any_loads():
    assert dir_probe(PYTHONPATH) == "[]\n"


def test_probe_keeps_the_environment(tmp_path, monkeypatch):
    """With PYTHONDONTWRITEBYTECODE set, the probe writes no bytecode next to
    the sources, which would make a later run import from the cache."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    package = Path(figdesc.__file__).parent
    shutil.copytree(package, tmp_path / "figdesc", ignore=shutil.ignore_patterns("__pycache__"))
    assert dir_probe(str(tmp_path)) == "[]\n"
    assert list(tmp_path.rglob("__pycache__")) == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'figdesc' has no attribute 'nope'"):
        figdesc.nope  # noqa: B018
    with pytest.raises(ImportError):
        from figdesc import nope  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from figdesc import *", namespace)
    assert {name: namespace[name] for name in figdesc.__all__} == {
        name: getattr(figdesc, name) for name in figdesc.__all__
    }
