"""Synonym sets and word embeddings for verb sense expansion.

Verbs missing from the lexicon are rewritten to known lemmas by intersecting
their synonym list with their nearest embedding neighbors; with no embedding
store or entry, the synonym list alone is used in synset order.

The store is plain Python, so no command but baseline imports numpy; with
the bundled store that saves each calibrate and classify process about 0.1 s
and 10 MiB of peak memory. EmbeddingStore states what a large store costs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .corpus import decode_utf8, json_entries, load_json_object
from .errors import EmbeddingFormatError, OovError, SchemaError


DEFAULT_TOP_K = 20


class SynsetLexicon(NamedTuple):
    """lemma -> ordered synonym sets, each a tuple of lowercase lemmas."""

    entries: dict[str, tuple[tuple[str, ...], ...]]

    def ordered_synonyms(self, verb: str) -> list[str]:
        """Synonyms in synset order, first occurrence wins, verb removed."""
        verb = verb.lower()
        seen = dict.fromkeys(lemma for synset in self.entries.get(verb, ()) for lemma in synset)
        seen.pop(verb, None)
        return list(seen)


def load_synsets(data: bytes | str) -> SynsetLexicon:
    """Parse the synset JSON: {lemma: [[lemma, ...], ...]}, every lemma lowercase."""
    doc = json_entries(load_json_object(data, "synsets"), "synsets", "a list of string lists")
    entries: dict[str, tuple[tuple[str, ...], ...]] = {}
    for lemma, synsets in doc.items():
        where = f"synsets[{lemma!r}]"
        if lemma != lemma.lower():
            raise SchemaError(f"{where}: the lemma must be lowercase")
        for i, synset in enumerate(synsets):
            if not synset:
                raise SchemaError(f"{where}[{i}]: must not be empty")
            if any(member != member.lower() for member in synset):
                raise SchemaError(f"{where}[{i}]: every member must be lowercase")
        entries[lemma] = tuple(map(tuple, synsets))
    return SynsetLexicon(entries)


def _unit_vector(values: Sequence[float], dim: int, where: Callable[[], str]) -> list[float]:
    """values divided by their norm; a vector of zeros stays 0.

    The sum of squares is Python's sequential sum. Values that are not dim
    in number, or a non-finite value, or a sum that is infinite, or 0 though
    a value is not, raise EmbeddingFormatError named by where().
    """
    if len(values) != dim:
        raise EmbeddingFormatError(f"{where()}: expected {dim} values, got {len(values)}")
    squares = sum(map(operator.mul, values, values))
    if not math.isfinite(squares) or (squares == 0.0 and any(values)):
        why = (
            "non-finite value" if not all(map(math.isfinite, values))
            else "vector norm overflows" if squares == math.inf
            else "vector norm underflows to 0"
        )
        raise EmbeddingFormatError(f"{where()}: {why}")
    norm = math.sqrt(squares) or 1.0  # zero vectors get similarity 0 everywhere
    return [x / norm for x in values]


class EmbeddingStore:
    """Word vectors with cosine nearest-neighbor lookup, in plain Python.

    Each word's unit vector is an array('d'), and top_k scans them all once
    per distinct (word, k). A scan of the bundled 1,000 x 50 store takes
    about 3 ms. A large store is slower than a numpy matrix would be: on a
    generated 20,000 x 100 store, a distinct query takes 0.1-0.15 s against
    1 ms, and loading 0.7-0.9 s against 0.6-0.9 s, though the process peaks
    at 73 MiB against 123.
    """

    def __init__(self, dim: int, vectors: Mapping[str, Sequence[float]]):
        # array and heapq load only where they run, since every command imports lexres
        from array import array

        self.dim = dim
        self._unit = {
            word: array("d", _unit_vector(vec, dim, lambda: f"word {word!r}"))
            for word, vec in vectors.items()
        }
        self._top: dict[tuple[str, int], list[tuple[str, float]]] = {}

    def __contains__(self, word: str) -> bool:
        return word in self._unit

    def __len__(self) -> int:
        return len(self._unit)

    def top_k(self, word: str, k: int) -> list[tuple[str, float]]:
        """k nearest words by cosine, descending; ties broken lexicographically.

        The query word itself is excluded, and a k below 0 counts as 0.
        Each (word, k) is ranked once per store; every call returns a new list.
        Raises OovError for unknown words.
        """
        q = self._unit.get(word)
        if q is None:
            raise OovError(f"word {word!r} not in embedding vocabulary")
        k = min(max(k, 0), len(self._unit) - 1)
        top = self._top.get((word, k))
        if top is None:
            import heapq

            scored = (
                (-sum(map(operator.mul, u, q)), w) for w, u in self._unit.items() if w != word
            )
            top = self._top[word, k] = [(w, -neg) for neg, w in heapq.nsmallest(k, scored)]
        return list(top)


def load_embeddings(data: bytes | str) -> EmbeddingStore:
    """Parse a text-format embedding file: '<vocab> <dim>' header, then rows.

    The header's vocabulary count must equal the number of rows. Every row
    must carry exactly dim finite values whose norm is finite, and nonzero
    unless every value is 0; violations raise with the offending line number,
    those of the values and the norm once every row has parsed.
    A repeated word keeps its last vector and logs a warning.
    """
    from array import array

    lines = decode_utf8(data, "embeddings").splitlines()
    if not lines:
        raise EmbeddingFormatError("line 1: missing header")
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError("line 1: header must be '<vocab> <dim>'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as e:
        raise EmbeddingFormatError("line 1: header must hold two integers") from e
    if dim <= 0:
        raise EmbeddingFormatError("line 1: dimension must be positive")
    unit: dict[str, Sequence[float]] = {}
    rows = 0
    bad: EmbeddingFormatError | None = None  # the first bad vector's; raised once every row parses
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split()
        if len(cols) != dim + 1:
            raise EmbeddingFormatError(
                f"line {lineno}: expected {dim + 1} columns, got {len(cols)}"
            )
        word = cols[0]
        try:
            values = list(map(float, cols[1:]))
        except ValueError as e:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric value") from e
        if word in unit:
            import logging  # only here, so no store without a repeated word loads it

            logging.getLogger(__name__).warning(
                "duplicate embedding row for %r; keeping the last", word
            )
        try:
            unit[word] = array("d", _unit_vector(values, dim, lambda: f"line {lineno}"))
        except EmbeddingFormatError as e:
            bad = bad or e
            unit[word] = values  # kept only to warn of a repeat
        rows += 1
    if rows != count:
        raise EmbeddingFormatError(f"line 1: header counts {count} rows, but {rows} follow")
    if bad:
        raise bad
    store = EmbeddingStore(dim, {})
    store._unit = unit  # unit vectors already, checked in line order
    return store


def candidate_verb_lemmas(
    synsets: SynsetLexicon,
    embeddings: EmbeddingStore | None,
    verb: str,
    k: int = DEFAULT_TOP_K,
) -> list[str]:
    """Replacement lemmas for a verb with no lexicon entry.

    Intersects the verb's synonyms with its k most embedding-similar words,
    ordered by embedding rank. With no store, or a verb missing from its
    vocabulary, the verb's synonyms come in synset order.
    """
    verb = verb.lower()
    ordered = synsets.ordered_synonyms(verb)
    if not ordered or embeddings is None or verb not in embeddings:
        return ordered  # with none, the neighbor search cannot add a lemma
    syns = set(ordered)
    return [w for w, _ in embeddings.top_k(verb, k) if w in syns]
