"""Normalized article model and loaders.

An Article is a flat, ordered view of a scientific paper's body text:
paragraphs of sentences, each sentence carrying a stable global index and
optionally a dependency parse attached from a CoNLL-U sidecar. Loaders accept
either pre-segmented JSON, raw-paragraph JSON (segmented here), or a small
article XML dialect. The UTF-8, JSON object and JSON lines readers here are
shared by every input loader of the package, and json_field is the one check
of a typed field in a JSON object.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, NamedTuple
from xml.etree import ElementTree

from .errors import AlignmentError, ArticleParseError, SchemaError

# Trailing-period abbreviations that must not end a sentence. Checked
# case-insensitively against the text ending at a split candidate.
DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "fig.",
    "figs.",
    "eq.",
    "eqs.",
    "et al.",
    "e.g.",
    "i.e.",
    "vs.",
    "cf.",
    "ref.",
    "refs.",
    "no.",
    "approx.",
)

# A sentence ends at . ! or ? followed by whitespace and an uppercase letter
# or digit. Everything else (decimal points, inline abbreviations) stays put.
_SPLIT_RE = re.compile(r"[.!?](?=\s+[A-Z0-9])")


class Token(NamedTuple):
    """One parsed token; head is a 1-based token index, 0 for the root.

    A NamedTuple, so it can be built positionally as
    Token(index, form, lemma, upos, head, deprel). The index field shadows
    tuple.index: tok.index is the token's position, not the method.
    """

    index: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


class ParsedSentence:
    """One sentence's dependency parse.

    ParsedSentence(tokens) holds its tokens. A parse that attach_parses takes
    from a sidecar holds the columns of its token lines, which were checked
    on load, and builds its tokens from them when they are first read. Two
    parses are equal when their tokens are equal.
    """

    __slots__ = ("_tokens", "_rows")

    def __init__(self, tokens: tuple[Token, ...]) -> None:
        self._tokens: tuple[Token, ...] | None = tokens
        self._rows: list[list] | None = None

    @classmethod
    def _from_rows(cls, rows: list[list]) -> ParsedSentence:
        parse = cls.__new__(cls)
        parse._tokens = None
        parse._rows = rows
        return parse

    @property
    def tokens(self) -> tuple[Token, ...]:
        if self._tokens is None:
            self._tokens = tuple(map(Token._make, map(_TOKEN_COLUMNS, self._rows)))
            self._rows = None
        return self._tokens

    def root(self) -> Token:
        return next(t for t in self.tokens if t.head == 0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        return f"ParsedSentence(tokens={self.tokens!r})"


class Sentence(NamedTuple):
    """One body sentence: its position, its text and an optional parse.

    A NamedTuple, so it can be built positionally as
    Sentence(paragraph_index, index_in_paragraph, global_index, text, parse=None).
    """

    paragraph_index: int
    index_in_paragraph: int
    global_index: int
    text: str
    parse: ParsedSentence | None = None


@dataclass(frozen=True)
class Paragraph:
    index: int
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class Article:
    uid: str
    title: str
    abstract: str
    paragraphs: tuple[Paragraph, ...]
    metadata: dict[str, str]

    def sentences(self) -> list[Sentence]:
        """All sentences in document order."""
        return [s for p in self.paragraphs for s in p.sentences]


def _is_protected(text: str, end: int, abbrs: tuple[str, ...], longest: int) -> bool:
    # Each character lowercases on its own to one or more, so the lowered tail
    # of longest + 1 characters ends like the lowered prefix text[:end]. Only
    # capital sigma looks at what precedes it, so with one the whole prefix counts.
    tail = text[max(end - longest - 1, 0):end]
    lowered = (text[:end] if "Σ" in tail else tail).lower()
    if not lowered.endswith(abbrs):
        return False
    for abbr in abbrs:
        if not lowered.endswith(abbr):
            continue
        before = len(lowered) - len(abbr)
        # Word boundary: the abbreviation must not be the tail of a longer word.
        if before == 0 or not lowered[before - 1].isalpha():
            return True
    return False


def segment_sentences(
    text: str, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split paragraph text into sentences.

    Splits after . ! ? followed by whitespace and an uppercase letter or
    digit, unless the period closes a protected abbreviation. Lossless up to
    whitespace: joining the result with single spaces reproduces the
    whitespace-normalized input.
    """
    abbreviations = tuple(abbreviations)  # str.endswith takes only a tuple
    longest = max(map(len, abbreviations), default=0)
    cuts = []
    for m in _SPLIT_RE.finditer(text):
        end = m.end()
        if text[end - 1] == "." and _is_protected(text, end, abbreviations, longest):
            continue
        cuts.append(end)
    out = []
    start = 0
    for cut in cuts:
        piece = text[start:cut].strip()
        if piece:
            out.append(piece)
        start = cut
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


def decode_utf8(data: bytes | str, source: str) -> str:
    """UTF-8 text of an input; text passes through as it is.

    Every text loader decodes through here: a bad byte raises
    ArticleParseError naming source and the byte offset.
    """
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ArticleParseError(f"{source}: not UTF-8 at byte offset {e.start}") from e


def load_json_object(data: bytes | str, source: str) -> dict:
    """The JSON object an input holds. Malformed JSON is an ArticleParseError
    (at a character offset), any other value a SchemaError; each names source."""
    try:
        doc = json.loads(decode_utf8(data, source))
    except json.JSONDecodeError as e:
        raise ArticleParseError(f"{source}: malformed JSON at offset {e.pos}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: must be a JSON object")
    return doc


def _integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max

# The JSON types a field may hold, by the phrase an error uses for them. A
# finite number is compared with the largest float, which is exact for an int
# of any size and false for NaN.
_JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer": _integer,
    "an integer or null": lambda v: v is None or _integer(v),
    "0 or 1": lambda v: _integer(v) and v in (0, 1),
    "a finite number": lambda v: (_integer(v) or isinstance(v, float)) and abs(v) <= _FLOAT_MAX,
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of string lists": lambda v: isinstance(v, list)
    and all(isinstance(x, list) and all(isinstance(s, str) for s in x) for x in v),
}
# Objects of named entries, by the type each entry must hold.
_ENTRIES = {"an object of strings": "a string", "an object of finite numbers": "a finite number"}


def json_field(doc: dict, key: str, where: str, kind: str, default: object = _REQUIRED):
    """doc[key], or default if absent, which must hold kind; else a SchemaError.

    The one check of a typed field of a JSON object. Its messages read
    "<where>: missing field '<key>'" and "<where>.<key>: must be <kind>", or
    "<where>.<key>['<name>']: must be <entry kind>" for an object of entries.
    """
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise SchemaError(f"{where}: missing field {key!r}")
    if kind in _ENTRIES:
        return json_entries(value, f"{where}.{key}", _ENTRIES[kind])
    if not _JSON_TYPES[kind](value):
        raise SchemaError(f"{where}.{key}: must be {kind}")
    return value


def json_entries(obj: object, where: str, kind: str) -> dict:
    """obj, a JSON object whose every entry holds kind, checked as by json_field."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: must be an object")
    for name, value in obj.items():
        if not _JSON_TYPES[kind](value):
            raise SchemaError(f"{where}[{name!r}]: must be {kind}")
    return obj


def parse_jsonl(
    data: bytes | str, source: str, record: Callable[[dict, str], Any] | None = None
) -> tuple[dict, list]:
    """(provenance, records) of JSON lines: one JSON object a line, blank lines skipped.

    Each line is read by load_json_object as "<source> line <n>". A first
    line with a "provenance" key is the header. record(obj, where), if
    given, is what is kept of each other line, where being that line's name
    for json_field to report a bad field with.
    """
    header: dict = {}
    records = []
    for lineno, line in enumerate(io.StringIO(decode_utf8(data, source), newline=None), 1):
        if not line.strip():
            continue
        where = f"{source} line {lineno}"
        doc = load_json_object(line, where)
        if lineno == 1 and "provenance" in doc:
            header = json_field(doc, "provenance", where, "an object")
            continue
        records.append(doc if record is None else record(doc, where))
    return header, records


def _build_article(
    uid: str,
    title: str,
    abstract: str,
    para_sentences: list[list[str]],
    metadata: dict[str, str],
) -> Article:
    paragraphs = []
    gidx = 0
    make_sentence = Sentence._make
    for pi, sents in enumerate(para_sentences):
        rows = []
        for si, text in enumerate(sents):
            stripped = text.strip()
            if not stripped:
                raise SchemaError(f"body[{pi}][{si}]: empty sentence text")
            rows.append(make_sentence((pi, si, gidx, stripped, None)))
            gidx += 1
        paragraphs.append(Paragraph(pi, tuple(rows)))
    return Article(uid, title, abstract, tuple(paragraphs), metadata)


def load_article_json(data: bytes | str) -> Article:
    """Parse one article from JSON bytes.

    Accepts either a pre-segmented "body" (list of sentence lists) or a raw
    "body_raw" (list of paragraph strings, segmented here). "uid" and one of
    the body fields are required.
    """
    doc = load_json_object(data, "article")
    uid = json_field(doc, "uid", "article", "a non-empty string")
    title = json_field(doc, "title", "article", "a string", "")
    abstract = json_field(doc, "abstract", "article", "a string", "")
    metadata = json_field(doc, "metadata", "article", "an object of strings", {})
    if "body" in doc:
        para_sentences = json_field(doc, "body", "article", "a list of string lists")
    elif "body_raw" in doc:
        raw = json_field(doc, "body_raw", "article", "a list of strings")
        para_sentences = [segment_sentences(p) for p in raw]
    else:
        raise SchemaError("body: required (either body or body_raw)")
    return _build_article(uid, title, abstract, para_sentences, dict(metadata))


def load_article_xml(data: bytes) -> Article:
    """Parse one article from XML: article > (title?, abstract?, body > para+).

    The <article> element may carry a uid= attribute; absent that, a
    deterministic content-hash uid is assigned.
    """
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as e:
        raise ArticleParseError(f"malformed XML at {e.position}: {e.msg}") from e
    if root.tag != "article":
        raise SchemaError("article: root element must be <article>")
    body = root.find("body")
    if body is None:
        raise SchemaError("body: required element missing")
    title_el = root.find("title")
    abstract_el = root.find("abstract")
    title = "".join(title_el.itertext()).strip() if title_el is not None else ""
    abstract = (
        "".join(abstract_el.itertext()).strip() if abstract_el is not None else ""
    )
    uid = root.get("uid", "")
    if not uid:
        raw = data if isinstance(data, bytes) else data.encode("utf-8")
        uid = "xml-" + hashlib.sha1(raw).hexdigest()[:12]
    paras = body.findall("para")
    if not paras:
        raise SchemaError("body: needs at least one <para> element")
    para_sentences = [segment_sentences(" ".join("".join(p.itertext()).split())) for p in paras]
    return _build_article(uid, title, abstract, para_sentences, {})


# ---- CoNLL-U sidecars ----

# ID, FORM, LEMMA, UPOS, HEAD, DEPREL: the columns a Token keeps.
_TOKEN_COLUMNS = itemgetter(0, 1, 2, 3, 6, 7)


def _conllu_blocks(text: str) -> Iterator[list[list]]:
    """The CoNLL-U line rule: yield the rows of each block.

    A block's rows are the columns of its token lines, with ID and HEAD
    (columns 0 and 6) as ints. A whitespace-only line ends a block, a line
    starting with # is a comment, and multiword or empty-node ids (containing
    - or .) are skipped; lines holding no token make no block.
    """
    rows: list[list] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cols: list = line.split("\t")
        # Decimal digits open no comment or blank line and hold no - or .,
        # so such a line is a token line; every other line is checked in full.
        if not (len(cols) == 10 and cols[0].isdecimal() and cols[6].isdecimal()):
            stripped = line.strip()
            if not stripped:
                if rows:
                    yield rows
                    rows = []
                continue
            if stripped[0] == "#":
                continue
            if len(cols) != 10:
                raise SchemaError(
                    f"CoNLL-U line {lineno}: expected 10 tab-separated columns, got {len(cols)}"
                )
            if "-" in cols[0] or "." in cols[0]:
                continue
        try:
            cols[0] = int(cols[0])
            cols[6] = int(cols[6])
        except ValueError as e:
            raise SchemaError(f"CoNLL-U line {lineno}: non-integer id or head") from e
        rows.append(cols)
    if rows:
        yield rows


def read_conllu(text: str) -> list[list[Token]]:
    """Read CoNLL-U blocks into token lists.

    Uses columns FORM, LEMMA, UPOS, HEAD, DEPREL of the 10-column format.
    Comment lines and multiword/empty-node ids (containing - or .) are
    skipped. One block per sentence, blocks separated by blank lines.
    """
    make_token = Token._make
    return [list(map(make_token, map(_TOKEN_COLUMNS, rows))) for rows in _conllu_blocks(text)]


def _validate_parse(rows: list[list], global_index: int, text: str) -> ParsedSentence:
    """The parse of one block's rows once they fit the sentence."""
    if "".join([cols[1] for cols in rows]) != "".join(text.split()):
        raise AlignmentError(
            f"sentence {global_index}: token forms do not match sentence text"
        )
    heads = [cols[6] for cols in rows]
    n = len(heads)
    n_roots = heads.count(0)
    if n_roots != 1:
        raise AlignmentError(
            f"sentence {global_index}: expected exactly one root token, got {n_roots}"
        )
    if min(heads) < 0 or max(heads) > n:
        bad = next(h for h in heads if not 0 <= h <= n)
        raise AlignmentError(f"sentence {global_index}: head {bad} out of range 0..{n}")
    return ParsedSentence._from_rows(rows)


def attach_parses(article: Article, parse_doc: str | bytes) -> Article:
    """Return a copy of the article with sidecar parses attached.

    The sidecar must contain exactly one CoNLL-U block per article sentence,
    in document order, and each block's concatenated forms must equal the
    sentence text modulo whitespace. Every block is checked here, against
    read_conllu's line rule and these conditions, but no token is built: a
    sentence keeps its block's checked columns and builds its tokens from
    them on first use. Idempotent for identical input.
    """
    blocks = list(_conllu_blocks(decode_utf8(parse_doc, "parse sidecar")))
    n_sentences = sum(len(p.sentences) for p in article.paragraphs)
    if len(blocks) != n_sentences:
        raise AlignmentError(
            "parse sidecar has %d blocks for %d sentences; first divergence at global_index %d"
            % (len(blocks), n_sentences, min(len(blocks), n_sentences))
        )
    remaining = iter(blocks)
    paragraphs = tuple(
        Paragraph(
            p.index,
            tuple(
                Sentence(
                    s.paragraph_index,
                    s.index_in_paragraph,
                    s.global_index,
                    s.text,
                    _validate_parse(next(remaining), s.global_index, s.text),
                )
                for s in p.sentences
            ),
        )
        for p in article.paragraphs
    )
    return Article(
        article.uid, article.title, article.abstract, paragraphs, article.metadata
    )
