"""The package re-exports each public name of the module that defines it."""

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


def test_dir_lists_every_public_name_before_any_loads():
    probe = "import figdesc; print(sorted(set(figdesc.__all__) - set(dir(figdesc))))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": PYTHONPATH},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


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
