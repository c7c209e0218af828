"""Small builders shared across test modules."""

from __future__ import annotations

import os
import signal
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from figdesc import pipeline
from figdesc.corpus import Paragraph, ParsedSentence, Sentence, Token

DATA_ROOT = Path(__file__).resolve().parent.parent / "data"
MINI_CORPUS = DATA_ROOT / "minicorpus"
LABELED_PATH = DATA_ROOT / "labeled.jsonl"

# The built-in figure-reference pattern in the form the README gives it.
# Under re.IGNORECASE it matches what figref.DEFAULT_PATTERN matches.
DOCUMENTED_PATTERN = r"\b(?:figures|figure|figs|fig)\.?\s*(S?\d+(?:\s*[-–,]\s*\d+)*)"


def resource_args() -> list[str]:
    """CLI flags pointing at the bundled resource files."""
    from figdesc import fixtures

    return [
        "--ontology",
        str(fixtures.fixture_path("ontology.txt")),
        "--synsets",
        str(fixtures.fixture_path("synsets.json")),
        "--embeddings",
        str(fixtures.fixture_path("embeddings.txt")),
        "--gazetteer",
        str(fixtures.fixture_path("gazetteer.txt")),
    ]


@contextmanager
def split_into(parts: int) -> Iterator[None]:
    """Every corpus read in the block is cut into this many parts, whatever its size.

    One part reads it in this process; two or more fork a child per part.
    """
    with mock.patch.object(pipeline, "_part_count", lambda n_files: parts):
        yield


@contextmanager
def within(seconds: float) -> Iterator[None]:
    """Fail when the block runs longer than seconds.

    An alarm interrupts the block then, and again every seconds after, and
    the block fails even if it caught the interruption (as main() does).
    """
    expired = []

    def expire(signum, frame):
        expired.append(signum)
        raise AssertionError(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise AssertionError(f"ran longer than {seconds} s")


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def make_sentence(
    text: str,
    global_index: int = 0,
    paragraph_index: int = 0,
    index_in_paragraph: int = 0,
    parse: ParsedSentence | None = None,
) -> Sentence:
    return Sentence(paragraph_index, index_in_paragraph, global_index, text, parse)


def make_paragraph(
    texts: list[str], paragraph_index: int = 0, start_global: int = 0
) -> Paragraph:
    sentences = tuple(
        make_sentence(text, start_global + i, paragraph_index, i)
        for i, text in enumerate(texts)
    )
    return Paragraph(paragraph_index, sentences)


def parse_rows(rows: list[tuple]) -> ParsedSentence:
    """rows: (index, form, lemma, upos, head, deprel)."""
    return ParsedSentence(tuple(Token(*row) for row in rows))


def parsed_sentence(text: str, rows: list[tuple], global_index: int = 0) -> Sentence:
    return make_sentence(text, global_index, parse=parse_rows(rows))


REF_TEXT = "Figure 1 shows the flat band position."

REF_PARSE_ROWS = [
    (1, "Figure", "figure", "NOUN", 3, "nsubj"),
    (2, "1", "1", "NUM", 1, "nummod"),
    (3, "shows", "show", "VERB", 0, "root"),
    (4, "the", "the", "DET", 7, "det"),
    (5, "flat", "flat", "ADJ", 7, "amod"),
    (6, "band", "band", "NOUN", 7, "compound"),
    (7, "position", "position", "NOUN", 3, "obj"),
    (8, ".", ".", "PUNCT", 3, "punct"),
]

# Hand-computed element weights used by the worked-example tests.
GOLDEN_CONCEPT_WEIGHTS = {
    "DRAWING": 0.0298,
    "GRAPHICAL-REPRESENTATION": 0.2332,
    "INFORMATION-OBJECT": 0.1086,
    "SOCIAL-OBJECT": 0.0220,
    "SHOW-INFORMATION": 0.2052,
}

GOLDEN_PROPERTY_WEIGHTS = {
    "DIRECTIONALITY": 0.0055,
    "GEOMETRIC-ASPECT": 0.1154,
}

GOLDEN_CONTRIBUTIONS = {
    ("CONCEPT", "DRAWING", 1): 0.0298,
    ("CONCEPT", "GRAPHICAL-REPRESENTATION", 2): 0.0583,
    ("CONCEPT", "INFORMATION-OBJECT", 3): 0.0121,
    ("CONCEPT", "SOCIAL-OBJECT", 4): 0.0014,
    ("CONCEPT", "SHOW-INFORMATION", 1): 0.2052,
    ("PROPERTY", "DIRECTIONALITY", 1): 0.0055,
    ("PROPERTY", "GEOMETRIC-ASPECT", 1): 0.1154,
}

GOLDEN_SENTENCE_WEIGHT = 0.4277
