"""Synonym sets and word embeddings for verb sense expansion.

Verbs missing from the lexicon are rewritten to known lemmas by intersecting
their synonym list with their nearest embedding neighbors; with no embedding
store or entry, the synonym list alone is used in synset order.

numpy loads only with the first embedding store, so a run that uses none
never imports it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .corpus import decode_utf8, json_entries, load_json_object
from .errors import EmbeddingFormatError, OovError, SchemaError

if TYPE_CHECKING:
    import numpy as np


DEFAULT_TOP_K = 20


@dataclass(frozen=True)
class SynsetLexicon:
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


def _squared_norms(rows: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """Each row's sum of squares, summed as np.linalg.norm sums it.

    The store divides each row by its root, so the first row that holds a
    non-finite value, or whose sum is infinite, or 0 though the row is not,
    raises EmbeddingFormatError named by name(row index).
    """
    import numpy as np

    with np.errstate(over="ignore"):  # an overflow is raised below, not warned
        squares = np.add.reduce(rows * rows, axis=1)
    # A non-finite value makes its row's sum non-finite too.
    bad = np.flatnonzero(~np.isfinite(squares) | ((squares == 0.0) & rows.any(axis=1)))
    if bad.size:
        i = bad[0]
        why = (
            "non-finite value" if not np.isfinite(rows[i]).all()
            else "vector norm overflows" if squares[i] == np.inf
            else "vector norm underflows to 0"
        )
        raise EmbeddingFormatError(f"{name(i)}: {why}")
    return squares


class EmbeddingStore:
    """Dense word vectors with cosine nearest-neighbor lookup."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        import numpy as np

        self.dim = dim
        self._words = list(vectors)
        self._index = {w: i for i, w in enumerate(self._words)}
        self._matrix = (
            np.stack([vectors[w] for w in self._words])
            if vectors
            else np.zeros((0, dim))
        )
        norms = np.sqrt(_squared_norms(self._matrix, lambda i: f"word {self._words[i]!r}"))
        norms[norms == 0.0] = 1.0  # zero vectors get similarity 0 everywhere
        self._unit = self._matrix / norms[:, None]
        # Each word's position in lexicographic order: the top_k tie-break key.
        by_word = sorted(range(len(self._words)), key=self._words.__getitem__)
        self._rank = np.empty(len(by_word), dtype=np.intp)
        self._rank[by_word] = np.arange(len(by_word))

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self._words)

    def top_k(self, word: str, k: int) -> list[tuple[str, float]]:
        """k nearest words by cosine, descending; ties broken lexicographically.

        The query word itself is excluded, and a k below 0 counts as 0.
        Raises OovError for unknown words.
        """
        if word not in self._index:
            raise OovError(f"word {word!r} not in embedding vocabulary")
        import numpy as np

        qi = self._index[word]
        q = self._matrix[qi]
        qn = float(np.linalg.norm(q))
        neg = -(self._unit @ (q / qn if qn else q))
        neg[qi] = np.inf
        k = min(max(k, 0), len(neg) - 1)
        # Only words at least as similar as the k-th best can rank in the top
        # k, ties at the k-th place included. The query word sorts last, so
        # at k = 0 the bound takes every word and the slice keeps none.
        kth = np.partition(neg, k - 1)[k - 1]
        order = np.flatnonzero(neg <= kth)
        # lexsort's last key is the primary one: similarity descending, then
        # lexicographic rank among equal similarities.
        order = order[np.lexsort((self._rank[order], neg[order]))][:k]
        return list(zip(map(self._words.__getitem__, order.tolist()), (-neg[order]).tolist()))


def load_embeddings(data: bytes | str) -> EmbeddingStore:
    """Parse a text-format embedding file: '<vocab> <dim>' header, then rows.

    The header's vocabulary count must equal the number of rows. Every row
    must carry exactly dim finite values whose norm is finite, and nonzero
    unless every value is 0; violations raise with the offending line number,
    those of the values and the norm once every row has parsed.
    A repeated word keeps its last vector and logs a warning.
    """
    import numpy as np

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
    vectors: dict[str, np.ndarray] = {}
    rows: list[tuple[int, np.ndarray]] = []  # (line number, vector), repeated words too
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
            vec = np.array([float(x) for x in cols[1:]], dtype=np.float64)
        except ValueError as e:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric value") from e
        if word in vectors:
            import logging  # only here, so no store without a repeated word loads it

            logging.getLogger(__name__).warning(
                "duplicate embedding row for %r; keeping the last", word
            )
        vectors[word] = vec
        rows.append((lineno, vec))
    if len(rows) != count:
        raise EmbeddingFormatError(f"line 1: header counts {count} rows, but {len(rows)} follow")
    _squared_norms(np.array([v for _, v in rows]).reshape(-1, dim), lambda i: f"line {rows[i][0]}")
    return EmbeddingStore(dim, vectors)


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
