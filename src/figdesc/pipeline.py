"""Corpus-level orchestration shared by the CLI commands.

Articles live one per file in a corpus directory (.json or .xml), with an
optional <stem>.conllu parse sidecar next to each. Each command scans each
sentence for figure references once; detection picks both the reference
sentences and their candidate neighbors from those results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from .corpus import Article, Sentence, attach_parses, decode_utf8
from .corpus import load_article_json, load_article_xml
from .errors import ConfigError, FigdescError, SchemaError
from .figref import detect_figure_refs, is_figure_referring, neighbor_positions
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
) -> Resources:
    graph = load_ontology(Path(ontology_path).read_bytes())
    synsets = (
        load_synsets(Path(synsets_path).read_bytes()) if synsets_path else None
    )
    embeddings = (
        load_embeddings(Path(embeddings_path).read_bytes())
        if embeddings_path
        else None
    )
    gazetteer = (
        load_gazetteer(Path(gazetteer_path).read_bytes())
        if gazetteer_path
        else frozenset()
    )
    return Resources(graph, synsets, embeddings, gazetteer)


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


def _read_bytes(*path: str | Path) -> bytes:
    with open(os.path.join(*path), "rb") as fh:
        return fh.read()


def load_corpus_dir(
    path: str | Path, digests: dict[str, str] | None = None
) -> list[Article]:
    """Load every article file in a directory, sorted by uid.

    JSON and XML articles are both accepted; a <stem>.conllu file next to an
    article attaches its parses. Duplicate uids reject the corpus. An error
    in a file names that file. Each corpus file is read once; given a dict
    as digests, the loader puts there the sha256 of the bytes it read, by
    file name, orphan sidecars included.
    """
    names = corpus_files(path)
    present = set(names)
    if digests is None:
        digests = {}

    def load(name: str, parse: Callable[[bytes], Article]) -> Article:
        data = _read_bytes(path, name)
        digests[name] = hashlib.sha256(data).hexdigest()
        try:
            return parse(data)
        except FigdescError as e:
            raise type(e)(f"{name}: {e}") from e

    articles = []
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
        articles.append(article)
    return sorted(articles, key=lambda a: a.uid)


@dataclass
class ArticleDetection:
    uid: str
    refs: list[dict]  # one row per reference sentence
    candidate_indices: list[int]  # distinct, ascending global indices


def detect_article(
    article: Article, window: int, pattern: str | None = None
) -> ArticleDetection:
    """Reference sentences and their candidate neighbors for one article."""
    refs = []
    candidates: set[int] = set()
    for para in article.paragraphs:
        sentences = para.sentences
        # One scan per sentence; an empty list marks a sentence as not referring.
        scans = [detect_figure_refs(sentence, pattern) for sentence in sentences]
        for local_idx, matches in enumerate(scans):
            if not matches:
                continue
            positions = neighbor_positions(len(scans), local_idx, window, scans.__getitem__)
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
    articles: list[Article],
    resources: Resources,
    pattern: str | None = None,
) -> list[Tmr]:
    """Representations of every figure-referring sentence, in corpus order."""
    return [
        resources.tmr(sentence)
        for article in articles
        for sentence in article.sentences()
        if is_figure_referring(sentence, pattern)
    ]


def score_candidates(
    articles: list[Article],
    resources: Resources,
    table: WeightTable,
    config: ScoringConfig,
    pattern: str | None = None,
) -> list[ScoredSentence]:
    """Weight every distinct candidate sentence, ordered by (uid, index)."""
    rows = []
    for article in articles:
        detection = detect_article(article, config.window, pattern)
        by_global = {s.global_index: s for s in article.sentences()}
        for gidx in detection.candidate_indices:
            sentence = by_global[gidx]
            tmr = resources.tmr(sentence)
            weight = sentence_weight(tmr, table, config)
            rows.append(ScoredSentence(article.uid, gidx, sentence.text, tmr, weight))
    rows.sort(key=lambda r: (r.uid, r.global_index))
    return rows


# ---- provenance ----

def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest()


def provenance(
    inputs: dict[str, str | Path | None],
    settings: dict,
    digests: dict[str, str] | None = None,
) -> dict:
    """Input hashes plus resolved settings; no timestamps, no output paths.

    inputs name the files to hash; digests are hashes already taken, by name.
    """
    hashes = {name: sha256_file(p) for name, p in inputs.items() if p is not None}
    hashes.update(digests or {})
    return {"inputs": dict(sorted(hashes.items())), "settings": dict(sorted(settings.items()))}


def write_jsonl(path: Path, header: dict, records: list[dict]) -> None:
    """JSONL with a first-line provenance record; keys sorted for stable bytes.

    Written a line at a time: the whole text is never held in memory.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps({"provenance": header}, sort_keys=True) + "\n")
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def read_jsonl(
    path: str | Path, record: Callable[[dict], Any] | None = None
) -> tuple[dict, list]:
    """Counterpart of write_jsonl; returns (provenance, records).

    Every record must be a JSON object; record(obj), if given, is what is kept
    of one. A line that is not an object, or whose record() raises KeyError,
    TypeError or ValueError, raises SchemaError naming the file and the line.
    """
    header: dict = {}
    records = []
    text = decode_utf8(_read_bytes(path), str(path))
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{where}: malformed JSON: {e.msg}") from e
        if not isinstance(doc, dict):
            raise SchemaError(f"{where}: must be a JSON object")
        if lineno == 1 and "provenance" in doc:
            header = doc["provenance"]
            continue
        try:
            records.append(doc if record is None else record(doc))
        except KeyError as e:
            raise SchemaError(f"{where}: missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise SchemaError(f"{where}: {e}") from e
    return header, records
