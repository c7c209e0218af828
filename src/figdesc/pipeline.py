"""Corpus-level orchestration shared by the CLI commands.

Articles live one per file in a corpus directory (.json or .xml), with an
optional <stem>.conllu parse sidecar next to each. load_corpus_dir returns
a Corpus, a value each pass over which reads the articles anew, one at a
time. detect_article alone decides which sentences of an article refer to a
figure and which of their neighbors are candidates; detect_by_uid runs it for
detect, calibrate and classify alike, keeping of each article only the plain
data its command writes or weighs (detect's and classify's encoded records,
calibrate's reference elements), ordered by uid. It reads the corpus in one
part per CPU: the first in this process, and each other in a forked child
that pickles its results back through its own pipe. The results, digests and
errors are those of one pass over the files in name order.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple, NoReturn, TypeVar

from .corpus import Article, Sentence, attach_parses, parse_jsonl, sha256
from .corpus import FrozenRecord, load_article_json, load_article_xml
from .errors import ConfigError, FigdescError, SchemaError
from .figref import compile_pattern, neighbor_positions
# bench/tracing.py patches these here; no code of this module calls them.
from .figref import detect_figure_refs, is_figure_referring, select_neighbors  # noqa: F401
from .lexres import EmbeddingStore, SynsetLexicon, load_embeddings, load_synsets
from .ontology import OntologyGraph, load_ontology
from .scoring import Element, WeightTable, classify, sentence_weight
from .tmr import Tmr, build_sentence_tmr, load_gazetteer, tmr_to_json

T = TypeVar("T")


class Resources(NamedTuple):
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
    (a directory named like one, say) is no part of the corpus. A directory
    that cannot be listed is a ConfigError naming the flag and the path.
    """
    if not os.path.isdir(path):
        raise ConfigError(f"corpus directory {path} does not exist")
    try:
        with os.scandir(path) as entries:
            names = [
                entry.name
                for entry in entries
                if _suffix(entry.name) in _CORPUS_SUFFIXES and entry.is_file()
            ]
    except OSError as e:
        raise ConfigError(f"cannot read --corpus directory {path}: {e.strerror or e}") from e
    return sorted(names)


def _read_bytes(path: str | Path) -> bytes:
    # Unbuffered: readall() sizes one read from fstat, with no buffer in between.
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


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
        digests[key] = sha256(data).hexdigest()
    try:
        return parse(data)
    except FigdescError as e:
        raise type(e)(f"{label or path}: {e}") from e


class Corpus(FrozenRecord):
    """A corpus directory and the digests its reads go to; see load_corpus_dir."""

    __slots__ = _fields = ("path", "digests")
    path: str | Path
    digests: dict[str, str] | None

    def __iter__(self) -> Iterator[Article]:
        names = corpus_files(self.path)
        yield from _load_files(self.path, names, set(names), self.digests, {})


def load_corpus_dir(path: str | Path, digests: dict[str, str] | None = None) -> Corpus:
    """The corpus in a directory, which each pass over it reads anew.

    A pass yields each article, one at a time, in file-name order, which
    need not be uid order. JSON and XML articles are both accepted; a
    <stem>.conllu file next to an article attaches its parses. An error in a
    file names that file and is raised when the pass reaches it, as is a uid
    that an earlier file holds. Each corpus file is read once per pass by
    read_input, orphan sidecars included, under the key corpus/<file name>;
    digests is complete once a pass ends. Nothing is read before a pass
    starts. detect_by_uid makes its pass in parts, one per CPU.
    """
    return Corpus(path, digests)


def _duplicate_uid(uid: str, first: str, name: str) -> SchemaError:
    return SchemaError(f"uid: duplicate article uid {uid!r} in {first} and {name}")


def _load_files(
    path: str | Path,
    names: list[str],
    present: set[str],
    digests: dict[str, str] | None,
    file_of: dict[str, str],
) -> Iterator[Article]:
    """The articles of names, a run of the corpus files present, in order.

    A sidecar is read with its article, wherever its name falls; file_of
    gains each article's uid, mapped to its file name, before it is yielded.
    """

    def load(name: str, parse: Callable[[bytes], Any]) -> Any:
        return read_input(os.path.join(path, name), f"corpus/{name}", digests, parse, name)

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
            raise _duplicate_uid(article.uid, file_of[article.uid], name)
        file_of[article.uid] = name
        yield article
        del article  # hold no article while the next one loads


class ArticleDetection(FrozenRecord):
    """One article's detection; weakly referenceable, so a test can see it freed."""

    _fields = ("uid", "refs", "candidates")
    __slots__ = (*_fields, "__weakref__")
    uid: str
    refs: list[tuple[Sentence, list[int]]]  # each reference, its neighbors' global indices
    candidates: list[Sentence]  # distinct, in ascending global index


def detect_article(
    article: Article, window: int, pattern: str | None = None
) -> ArticleDetection:
    """Reference sentences and their candidate neighbors for one article."""
    search = compile_pattern(pattern).search
    refs = []
    candidates = []
    for para in article.paragraphs:
        sentences = para.sentences
        # One search per sentence. A match object is true even when it matched nothing.
        referring = [j for j, sentence in enumerate(sentences) if search(sentence.text)]
        if not referring:
            continue
        is_referring = set(referring).__contains__
        near: set[int] = set()
        for local_idx in referring:
            positions = neighbor_positions(len(sentences), local_idx, window, is_referring)
            refs.append((sentences[local_idx], [sentences[j].global_index for j in positions]))
            near.update(positions)
        candidates += [sentences[j] for j in sorted(near)]
    return ArticleDetection(article.uid, refs, candidates)


# A corpus is split only into parts of at least this many files. A child
# costs about 5 ms of forking and pickling, and a file 0.15-0.5 ms to read
# and detect (2-CPU x86 host), so a part this large repays its child many
# times over on a free second CPU.
_MIN_PART_FILES = 250


def _part_count(n_files: int) -> int:
    """Parts to read n_files corpus files in: one per CPU this process may run
    on, each of at least _MIN_PART_FILES files, and one where os.fork is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_files // _MIN_PART_FILES))


def detect_by_uid(
    corpus: Corpus, window: int, pattern: str | None, keep: Callable[..., T]
) -> list[T]:
    """keep(detection) for each article's detection, in uid order.

    The sorted file names are cut into _part_count contiguous runs. This
    process reads the first, and map() drops each article and its detection
    once keep returns, so only what keep returns is held as the articles go
    by. A forked child reads each other run and sends back what keep
    returned down its own pipe (_read_part). The runs are then taken in
    order, and the first to fail decides, as in one pass over the files: by
    a uid an earlier run holds, by the error that stopped it, or by its
    child's death. So the result, the digests and every error are those of
    one pass. A sidecar is read with its article, in whichever run that
    falls. Every child is reaped before this returns or raises, and killed
    first if it raises, on KeyboardInterrupt too.
    """

    def kept(article: Article) -> tuple[str, T]:
        return article.uid, keep(detect_article(article, window, pattern))

    path, digests = corpus.path, corpus.digests
    names = corpus_files(path)
    present = set(names)
    n, parts = len(names), _part_count(len(names))
    runs = [names[i * n // parts : (i + 1) * n // parts] for i in range(parts)]
    if parts > 1:
        import pickle  # only a split corpus sends anything between processes
        import signal
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _read_part(w, pipes, path, run, present, digests is not None, kept)
                pids.append(pid)
            finally:
                os.close(w)  # the pipe ends once the child has closed its copy
        file_of: dict[str, str] = {}
        pairs = list(map(kept, _load_files(path, runs[0], present, digests, file_of)))
        for part, (pid, pipe) in enumerate(zip(pids, pipes), start=2):
            try:
                sent, hashes, run_file_of, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids.remove(pid)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"corpus part {part} of {parts} {how} before it finished")
            for uid, name in run_file_of.items():
                if uid in file_of:
                    raise _duplicate_uid(uid, file_of[uid], name)
                file_of[uid] = name
            if error is not None:
                raise error
            pairs += sent
            if hashes:
                digests.update(hashes)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return [result for _, result in sorted(pairs, key=lambda pair: pair[0])]


def _read_part(
    fd: int,
    pipes: list[BinaryIO],
    path: str | Path,
    names: list[str],
    present: set[str],
    hashing: bool,
    kept: Callable[[Article], tuple[str, T]],
) -> NoReturn:
    """In a forked child: write down fd one pickle of (pairs, digests, file_of, error).

    pairs are the kept pairs of the articles in names, and digests the hashes
    of their files, or None unless hashing. file_of maps each article loaded
    to its file name, one whose keep raised included. error is what stopped
    the run, or None. The child closes the parent's pipes, writes nothing
    else and leaves through os._exit, so no exit handler or unflushed buffer
    of the parent runs twice.
    """
    code = 1
    try:
        import pickle

        for pipe in pipes:
            pipe.close()
        digests: dict[str, str] | None = {} if hashing else None
        file_of: dict[str, str] = {}
        pairs: list = []
        error = None
        try:
            pairs = list(map(kept, _load_files(path, names, present, digests, file_of)))
        except Exception as e:  # noqa: BLE001 - the parent raises it in the run's place
            error = e
        try:
            data = pickle.dumps((pairs, digests, file_of, error), pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            # An error that does not pickle; main() prints only its message. Pairs
            # that do not pickle fail again, and the child exits 1 having sent nothing.
            error = RuntimeError(str(error))
            data = pickle.dumps((pairs, digests, file_of, error), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


class ScoredSentence(NamedTuple):
    uid: str
    global_index: int
    weight: float
    is_descriptive: bool
    line: str  # the sentence's scores.jsonl record, as encode_record writes it


def reference_tmrs(
    corpus: Corpus,
    resources: Resources,
    pattern: str | None = None,
) -> list[tuple[Element, ...]]:
    """The sorted (kind, name, distance) elements of each figure-referring
    sentence's representation, ordered by (uid, index): what calibrate weighs.

    The references do not depend on the window, so none is taken.
    """

    def elements(detection: ArticleDetection) -> list[tuple[Element, ...]]:
        return [
            tuple(sorted(map(tuple, resources.tmr(sentence).elements)))
            for sentence, _ in detection.refs
        ]

    return list(chain.from_iterable(detect_by_uid(corpus, 0, pattern, elements)))


def score_candidates(
    corpus: Corpus,
    resources: Resources,
    table: WeightTable,
    threshold: float,
    window: int,
    pattern: str | None = None,
) -> list[ScoredSentence]:
    """Weigh and classify every distinct candidate sentence, ordered by (uid, index).

    Each row carries the record classify writes for its sentence, built in
    the pass that reads the sentence, so no representation leaves the pass.
    """

    def row(uid: str, sentence: Sentence) -> tuple[str, int, float, bool, str]:
        tmr = resources.tmr(sentence)
        weight = sentence_weight(tmr.elements, table)
        is_descriptive = classify(weight, threshold)
        record = {
            "uid": uid,
            "global_index": sentence.global_index,
            "text": sentence.text,
            "weight": weight,
            "threshold": threshold,
            "is_descriptive": is_descriptive,
            "tmr": tmr_to_json(tmr),
        }
        return uid, sentence.global_index, weight, is_descriptive, encode_record(record)

    def rows(detection: ArticleDetection) -> list[tuple[str, int, float, bool, str]]:
        return [row(detection.uid, sentence) for sentence in detection.candidates]

    passes = detect_by_uid(corpus, window, pattern, rows)
    return [ScoredSentence(*row) for row in chain.from_iterable(passes)]


# ---- provenance ----

def provenance(settings: dict, digests: dict[str, str]) -> dict:
    """The hashes of the bytes read, by key, and the resolved settings, each sorted.

    No timestamps and no output paths, so reruns write the same header.
    """
    inputs = dict(sorted(digests.items()))
    return {"inputs": inputs, "settings": dict(sorted(settings.items()))}


# json.dumps(record, sort_keys=True) builds this encoder anew on every call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_record(record: dict) -> str:
    """One JSONL line, newline excluded; keys sorted for stable bytes."""
    return _ENCODER.encode(record)


def write_jsonl(path: Path, header: dict, lines: Iterable[str]) -> None:
    """JSONL: a first-line provenance record, then lines, each from encode_record.

    Written a line at a time, and the header as the encoder makes it: neither
    the whole text nor the header line is ever held in memory.
    """
    with open(path, "w") as fh:
        json.dump({"provenance": header}, fh, sort_keys=True)
        fh.write("\n")
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
