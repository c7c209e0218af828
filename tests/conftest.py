import json
from pathlib import Path

import pytest

from figdesc import fixtures, pipeline

from .helpers import no_child_left

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_child_left_behind():
    """Fails any test that leaves a child process behind, running or unreaped."""
    yield
    assert no_child_left(), "the test left a child process behind"


@pytest.fixture(scope="session")
def resources():
    return pipeline.load_resources(
        fixtures.fixture_path("ontology.txt"),
        fixtures.fixture_path("synsets.json"),
        fixtures.fixture_path("embeddings.txt"),
        fixtures.fixture_path("gazetteer.txt"),
    )


@pytest.fixture(scope="session")
def graph(resources):
    return resources.graph


@pytest.fixture(scope="session")
def mini_dir():
    return ROOT / "data" / "minicorpus"


@pytest.fixture(scope="session")
def corpus137_dir():
    return ROOT / "data" / "corpus137"


def load_sorted(path):
    """Every article of the corpus at path, in a list sorted by uid."""
    return sorted(pipeline.load_corpus_dir(path), key=lambda a: a.uid)


@pytest.fixture(scope="session")
def mini_articles(mini_dir):
    return load_sorted(mini_dir)


@pytest.fixture(scope="session")
def corpus137(corpus137_dir):
    return load_sorted(corpus137_dir)


@pytest.fixture(scope="session")
def gold_labels(mini_dir):
    labels = {}
    for line in (mini_dir / "gold.jsonl").read_text().splitlines():
        doc = json.loads(line)
        labels[(doc["uid"], doc["global_index"])] = doc["label"]
    return labels


@pytest.fixture(scope="session")
def figref_cases():
    return json.loads((Path(__file__).parent / "data" / "figref_cases.json").read_text())
