"""Every output byte of the shipped chains, pinned by its SHA-256.

tests/pinned_chains.py runs the chains through cli.main and holds PINNED;
these tests compare each output file and each chain's stdout with it. The
chains that read a corpus run again with every corpus cut into two and three
parts, and must give the same rows. A change that is meant to change an
output re-pins it: run this file as a script, which prints the table, and
say in CHANGES.md which rows changed and why.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

if __package__:
    from .pinned_chains import (
        PINNED, corpus_chain_mismatches, no_settings_from_env, output_digests,
    )
else:  # run as a script
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / p) for p in ("src", ".")]
    from tests.pinned_chains import (
        PINNED, corpus_chain_mismatches, no_settings_from_env, output_digests,
    )


def versions() -> str:
    import numpy

    return f"Python {sys.version.split()[0]}, numpy {numpy.__version__}"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    with no_settings_from_env():
        return output_digests(tmp_path_factory.mktemp("pinned"))


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED), (
        f"outputs not pinned: {sorted(set(digests) - set(PINNED))}; "
        f"pinned but not written: {sorted(set(PINNED) - set(digests))}"
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(digests, name):
    assert digests.get(name) == PINNED[name], (
        f"{name}: sha256 {digests.get(name)}, pinned {PINNED[name]} ({versions()})"
    )


@pytest.mark.parametrize("parts", [2, 3])
def test_split_corpus_gives_the_pinned_bytes(tmp_path, parts):
    assert corpus_chain_mismatches(tmp_path, parts) == []


def other_pythons() -> list[Path]:
    """pyenv's interpreters of version 3.10 or later, the running one left out."""
    found = []
    for python in sorted(Path.home().glob(".pyenv/versions/*/bin/python")):
        version = python.parent.parent.name
        if (m := re.fullmatch(r"3\.(\d+)\.\d+", version)) and int(m[1]) >= 10:
            if version != platform.python_version():
                found.append(python)
    return found


@pytest.mark.parametrize(
    "python", other_pythons() or [None], ids=lambda p: p.parent.parent.name if p else "none"
)
def test_corpus_chains_hold_under_other_pythons(python):
    """pyproject.toml promises Python 3.10 and later: the corpus chains, which
    need no numpy, give the pinned bytes under each other interpreter found."""
    if python is None:
        pytest.skip("no other Python 3.10 or later under ~/.pyenv/versions")
    script = Path(__file__).with_name("pinned_chains.py")
    # The script puts the checkout's src/ on its path; this one's may not suit python.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [str(python), str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    with no_settings_from_env(), tempfile.TemporaryDirectory() as tmp:
        table = output_digests(Path(tmp))
    print(f"# {versions()}")
    print("PINNED = {")
    for name, digest in table.items():
        print(f'    "{name}": "{digest}",')
    print("}")
