"""Corpus-level orchestration shared by the CLI commands.

Articles live one per file in a corpus directory (.json or .xml), with an
optional <stem>.conllu parse sidecar next to each. Each command scans each
sentence for figure references once; detection picks both the reference
sentences and their candidate neighbors from those results.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .corpus import Article, Sentence, attach_parses
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
    the corpus loader reads them and the commands hash them for provenance.
    """
    if not os.path.isdir(path):
        raise ConfigError(f"corpus directory {path} does not exist")
    names = sorted(os.listdir(path))
    return [name for name in names if _suffix(name) in _CORPUS_SUFFIXES]


def _read_bytes(*path: str | Path) -> bytes:
    with open(os.path.join(*path), "rb") as fh:
        return fh.read()


def _load_file(directory: str | Path, name: str, load: Callable[[bytes], Article]) -> Article:
    """load() of one file's bytes; its FigdescError gets the file name in front."""
    try:
        return load(_read_bytes(directory, name))
    except FigdescError as e:
        raise type(e)(f"{name}: {e}") from e


def load_corpus_dir(path: str | Path) -> list[Article]:
    """Load every article file in a directory, sorted by uid.

    JSON and XML articles are both accepted; a <stem>.conllu file next to an
    article attaches its parses. Duplicate uids reject the corpus. An error
    in a file names that file.
    """
    names = corpus_files(path)
    present = set(names)
    articles = []
    file_of: dict[str, str] = {}
    for name in names:
        suffix = _suffix(name)
        if suffix == ".conllu":
            continue
        load = load_article_json if suffix == ".json" else load_article_xml
        article = _load_file(path, name, load)
        sidecar = name[: -len(suffix)] + ".conllu"
        if sidecar in present:
            article = _load_file(path, sidecar, partial(attach_parses, article))
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


def provenance(inputs: dict[str, str | Path | None], settings: dict) -> dict:
    """Input hashes plus resolved settings; no timestamps, no output paths."""
    hashes = {
        name: sha256_file(p) for name, p in sorted(inputs.items()) if p is not None
    }
    return {"inputs": hashes, "settings": dict(sorted(settings.items()))}


def write_jsonl(path: Path, header: dict, records: list[dict]) -> None:
    """JSONL with a first-line provenance record; keys sorted for stable bytes."""
    lines = [json.dumps({"provenance": header}, sort_keys=True)]
    lines.extend(json.dumps(r, sort_keys=True) for r in records)
    path.write_text("\n".join(lines) + "\n")


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    """Counterpart of write_jsonl; returns (provenance, records)."""
    header: dict = {}
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc = json.loads(line)
            if lineno == 1 and "provenance" in doc:
                header = doc["provenance"]
                continue
            records.append(doc)
    return header, records
