"""Figure-reference detection and neighbor candidate selection.

A figure reference is a fig/figs/figure/figures token (optional trailing
period) followed by a label: optional S prefix plus digits, optionally
extended into ranges or lists with - / en-dash / comma. Matching ignores
case and is anchored at word boundaries, so tokens embedded in longer words
never fire.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .corpus import Paragraph, Sentence
from .errors import ConfigError, PreconditionError

DEFAULT_PATTERN = r"\b(?:figures|figure|figs|fig)\.?\s*(S?\d+(?:\s*[-–,]\s*\d+)*)"

DEFAULT_WINDOW = 2


@dataclass(frozen=True)
class FigRefMatch:
    """One regex hit: the sentence's global index, parsed labels, char span."""

    global_index: int
    labels: tuple[str, ...]
    span: tuple[int, int]


@dataclass(frozen=True)
class CandidateSet:
    """Non-referring neighbors of one reference sentence, in document order."""

    ref_global_index: int
    neighbor_indices: tuple[int, ...]


@lru_cache(maxsize=32)
def compile_pattern(pattern: str | None) -> re.Pattern:
    """Compiled case-insensitive regex, DEFAULT_PATTERN if empty; ConfigError
    if bad or lacking group 1. Cached: every per-sentence scan calls it."""
    try:
        rx = re.compile(pattern or DEFAULT_PATTERN, re.IGNORECASE)
    except re.error as e:
        raise ConfigError(f"pattern {pattern!r} does not compile: {e}") from e
    if rx.groups < 1:
        raise ConfigError(f"pattern {pattern!r} has no capture group 1 for the label")
    return rx


def _parse_labels(raw: str) -> tuple[str, ...]:
    # Comma lists become separate labels; dash ranges stay whole. str.split
    # and the regex \s share one definition of whitespace.
    compact = "".join(raw.split())
    return tuple(part for part in compact.split(",") if part)


def detect_figure_refs(sentence: Sentence, pattern: str | None = None) -> list[FigRefMatch]:
    """Every figure reference in one sentence, left to right; no labels if group 1 is unset."""
    return [
        FigRefMatch(sentence.global_index, _parse_labels(m.group(1) or ""), m.span())
        for m in compile_pattern(pattern).finditer(sentence.text)
    ]


def is_figure_referring(sentence: Sentence, pattern: str | None = None) -> bool:
    return compile_pattern(pattern).search(sentence.text) is not None


def neighbor_positions(
    n_sentences: int, ref_index: int, window: int, referring: Callable[[int], object]
) -> list[int]:
    """Paragraph positions of one reference sentence's candidates, ascending.

    Those within +-window of ref_index in a paragraph of n_sentences, except
    ref_index itself and every j for which referring(j) is true.
    """
    lo = max(0, ref_index - window)
    hi = min(n_sentences, ref_index + window + 1)
    return [j for j in range(lo, hi) if j != ref_index and not referring(j)]


def select_neighbors(
    paragraph: Paragraph,
    ref_index_in_paragraph: int,
    window: int = DEFAULT_WINDOW,
    pattern: str | None = None,
) -> CandidateSet:
    """Candidate sentences around one reference sentence.

    Takes the +-window sentences inside the same paragraph, clipped at the
    paragraph boundaries, and drops any neighbor that is itself figure-
    referring. The reference sentence must be figure-referring.
    """
    sentences = paragraph.sentences
    if not 0 <= ref_index_in_paragraph < len(sentences):
        raise PreconditionError(
            f"sentence index {ref_index_in_paragraph} outside paragraph of {len(sentences)}"
        )
    ref = sentences[ref_index_in_paragraph]
    if not is_figure_referring(ref, pattern):
        raise PreconditionError(f"sentence {ref.global_index} is not figure-referring")
    positions = neighbor_positions(
        len(sentences),
        ref_index_in_paragraph,
        window,
        lambda j: is_figure_referring(sentences[j], pattern),
    )
    return CandidateSet(
        ref.global_index, tuple(sentences[j].global_index for j in positions)
    )
