"""Access to the bundled resource files (ontology, synsets, embeddings, gazetteer)."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

_NAMES = ("ontology.txt", "synsets.json", "embeddings.txt", "gazetteer.txt")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    if name not in _NAMES:
        raise KeyError(f"no bundled fixture named {name!r}; have {_NAMES}")
    return Path(str(resources.files("figdesc").joinpath("data", name)))
