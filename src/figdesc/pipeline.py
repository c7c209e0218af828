"""Corpus-level orchestration shared by the CLI commands.

Articles live one per file in a corpus directory (.json or .xml), with an
optional <stem>.conllu parse sidecar next to each. load_corpus_dir yields
them one at a time; a command keeps only each article's small results and
sorts them by uid. Each command searches each sentence for a figure
reference once; detection scans only the referring sentences for all their
matches and picks the candidate neighbors from the referring positions.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any

from .corpus import Article, Sentence, attach_parses, parse_jsonl
from .corpus import load_article_json, load_article_xml
from .errors import ConfigError, FigdescError, SchemaError
from .figref import compile_pattern, detect_figure_refs, is_figure_referring, neighbor_positions
from .figref import select_neighbors  # noqa: F401 - bench/tracing.py patches it here
from .lexres import EmbeddingStore, SynsetLexicon, load_embeddings, load_synsets
from .ontology import OntologyGraph, load_ontology
from .scoring import ScoringConfig, WeightTable, sentence_weight
from .tmr import Tmr, build_sentence_tmr, load_gazetteer


@dataclass
class Resources:
    graph: OntologyGraph
    synsets: SynsetLexicon | None = None
    embeddings: EmbeddingStore | None = None
    gazetteer: frozenset[str] = frozenset()

    def tmr(self, sentence: Sentence) -> Tmr:
        """The sentence's meaning representation under these resources."""
        return build_sentence_tmr(
            sentence, self.graph, self.gazetteer, self.synsets, self.embeddings
        )


def load_resources(
    ontology_path: str | Path,
    synsets_path: str | Path | None = None,
    embeddings_path: str | Path | None = None,
    gazetteer_path: str | Path | None = None,
    digests: dict[str, str] | None = None,
) -> Resources:
    """The resources at these paths; the optional ones stay unset without one.

    Each file is read once by read_input under its flag's name.
    """

    def load(path: str | Path | None, key: str, parse: Callable[[bytes], Any]) -> Any:
        return read_input(path, key, digests, parse) if path else None

    return Resources(
        read_input(ontology_path, "ontology", digests, load_ontology),
        load(synsets_path, "synsets", load_synsets),
        load(embeddings_path, "embeddings", load_embeddings),
        load(gazetteer_path, "gazetteer", load_gazetteer) or frozenset(),
    )


_CORPUS_SUFFIXES = frozenset((".json", ".xml", ".conllu"))


def _suffix(name: str) -> str:
    # The rule of pathlib's PurePath.suffix: a leading or trailing dot is no suffix.
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def corpus_files(path: str | Path) -> list[str]:
    """Names of the files that make up a corpus directory, sorted.

    These are the .json and .xml articles and the .conllu parse sidecars;
    the corpus loader reads and hashes them. An entry that is not a file
    (a directory named like one, say) is no part of the corpus.
    """
    if not os.path.isdir(path):
        raise ConfigError(f"corpus directory {path} does not exist")
    with os.scandir(path) as entries:
        names = [
            entry.name
            for entry in entries
            if _suffix(entry.name) in _CORPUS_SUFFIXES and entry.is_file()
        ]
    return sorted(names)


def _read_bytes(path: str | Path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_input(
    path: str | Path,
    key: str | None = None,
    digests: dict[str, str] | None = None,
    parse: Callable[[bytes], Any] = bytes,
    label: str | None = None,
) -> Any:
    """The one read of a file that a command consumes: parse() of its bytes.

    The file is opened once. Given a dict as digests, the sha256 of the bytes
    read goes there under key, the file's name in a provenance header: its
    flag ("weights"), or "corpus/<file name>" for a corpus file. A file that
    cannot be read is a ConfigError naming the flag and the path. A
    FigdescError from parse keeps its type, and its message gains the prefix
    label (by default the path).
    """
    try:
        data = _read_bytes(path)
    except OSError as e:
        flag = f"--{key.split('/')[0]} " if key else ""
        raise ConfigError(f"cannot read {flag}file {path}: {e.strerror or e}") from e
    if digests is not None:
        digests[key] = hashlib.sha256(data).hexdigest()
    try:
        return parse(data)
    except FigdescError as e:
        raise type(e)(f"{label or path}: {e}") from e


def load_corpus_dir(path: str | Path, digests: dict[str, str] | None = None) -> Iterator[Article]:
    """Yield each article in a directory, one at a time, in file-name order.

    JSON and XML articles are both accepted; a <stem>.conllu file next to an
    article attaches its parses. An error in a file names that file and is
    raised when the loader reaches it, as is a uid that an earlier file
    holds. Each corpus file is read once by read_input, orphan sidecars
    included, under the key corpus/<file name>; digests is complete once the
    generator is exhausted. File-name order need not be uid order.
    """
    names = corpus_files(path)
    present = set(names)

    def load(name: str, parse: Callable[[bytes], Any]) -> Any:
        return read_input(os.path.join(path, name), f"corpus/{name}", digests, parse, name)

    file_of: dict[str, str] = {}
    for name in names:
        suffix = _suffix(name)
        stem = name[: -len(suffix)]
        if suffix == ".conllu":
            if stem + ".json" not in present and stem + ".xml" not in present:
                load(name, bytes)  # no article claims it: hashed, not parsed
            continue
        article = load(name, load_article_json if suffix == ".json" else load_article_xml)
        if stem + ".conllu" in present:
            article = load(stem + ".conllu", partial(attach_parses, article))
        if article.uid in file_of:
            raise SchemaError(
                f"uid: duplicate article uid {article.uid!r} "
                f"in {file_of[article.uid]} and {name}"
            )
        file_of[article.uid] = name
        yield article
        del article  # hold no article while the next one loads


@dataclass
class ArticleDetection:
    uid: str
    refs: list[dict]  # one row per reference sentence
    candidate_indices: list[int]  # distinct, ascending global indices


def detect_article(
    article: Article, window: int, pattern: str | None = None
) -> ArticleDetection:
    """Reference sentences and their candidate neighbors for one article."""
    search = compile_pattern(pattern).search
    refs = []
    candidates: set[int] = set()
    for para in article.paragraphs:
        sentences = para.sentences
        # One search per sentence; only the referring ones are scanned for
        # every match. A match object is true even when it matched nothing.
        referring = [j for j, sentence in enumerate(sentences) if search(sentence.text)]
        is_referring = set(referring).__contains__
        for local_idx in referring:
            matches = detect_figure_refs(sentences[local_idx], pattern)
            positions = neighbor_positions(len(sentences), local_idx, window, is_referring)
            neighbors = [sentences[j].global_index for j in positions]
            refs.append(
                {
                    "global_index": sentences[local_idx].global_index,
                    "labels": sorted({label for m in matches for label in m.labels}),
                    "spans": [list(m.span) for m in matches],
                    "neighbors": neighbors,
                }
            )
            candidates.update(neighbors)
    return ArticleDetection(article.uid, refs, sorted(candidates))


@dataclass
class ScoredSentence:
    uid: str
    global_index: int
    text: str
    tmr: Tmr
    weight: float


def reference_tmrs(
    articles: Iterable[Article],
    resources: Resources,
    pattern: str | None = None,
) -> list[Tmr]:
    """Representations of every figure-referring sentence, ordered by (uid, index).

    Only the representations of each article are kept as the articles go by.
    """

    def of_article(article: Article) -> tuple[str, list[Tmr]]:
        refs = [s for s in article.sentences() if is_figure_referring(s, pattern)]
        return article.uid, [resources.tmr(s) for s in refs]

    # map() drops each article once its representations are built.
    by_uid = sorted(map(of_article, articles), key=lambda pair: pair[0])
    return [tmr for _, tmrs in by_uid for tmr in tmrs]


def score_candidates(
    articles: Iterable[Article],
    resources: Resources,
    table: WeightTable,
    config: ScoringConfig,
    pattern: str | None = None,
) -> list[ScoredSentence]:
    """Weight every distinct candidate sentence, ordered by (uid, index).

    Only the scored rows of each article are kept as the articles go by.
    """

    def of_article(article: Article) -> list[ScoredSentence]:
        detection = detect_article(article, config.window, pattern)
        by_global = {s.global_index: s for s in article.sentences()}
        rows = []
        for gidx in detection.candidate_indices:
            sentence = by_global[gidx]
            tmr = resources.tmr(sentence)
            weight = sentence_weight(tmr, table, config)
            rows.append(ScoredSentence(article.uid, gidx, sentence.text, tmr, weight))
        return rows

    return sorted(
        chain.from_iterable(map(of_article, articles)),
        key=lambda r: (r.uid, r.global_index),
    )


# ---- provenance ----

def provenance(settings: dict, digests: dict[str, str]) -> dict:
    """The hashes of the bytes read, by key, and the resolved settings, each sorted.

    No timestamps and no output paths, so reruns write the same header.
    """
    inputs = dict(sorted(digests.items()))
    return {"inputs": inputs, "settings": dict(sorted(settings.items()))}


def encode_record(record: dict) -> str:
    """One JSONL line, newline excluded; keys sorted for stable bytes."""
    return json.dumps(record, sort_keys=True)


def write_jsonl(path: Path, header: dict, lines: Iterable[str]) -> None:
    """JSONL: a first-line provenance record, then lines, each from encode_record.

    Written a line at a time: the whole text is never held in memory.
    """
    with open(path, "w") as fh:
        fh.write(encode_record({"provenance": header}) + "\n")
        for line in lines:
            fh.write(line + "\n")


def read_jsonl(
    path: str | Path,
    record: Callable[[dict], Any] | None = None,
    digests: dict[str, str] | None = None,
    key: str | None = None,
) -> tuple[dict, list]:
    """Counterpart of write_jsonl; returns (provenance, records).

    The file is read by read_input under key and parsed by corpus.parse_jsonl,
    whose errors name the file and the line.
    """
    return parse_jsonl(read_input(path, key, digests), str(path), record)
