"""Mutation fuzzing of every input loader.

Each loader gets a valid input of its kind, mutated by hypothesis: truncated,
bytes flipped, bytes that are not UTF-8 inserted, JSON values swapped for
values of other types or deleted, CoNLL-U lines broken against the rules at
https://universaldependencies.org/format.html, and lines dropped or
repeated. Structure is fuzzed too: JSON values nested up to 100,000 deep, XML
elements nested up to 50,000 deep, CoNLL-U heads that make a token head itself
or a cycle, CoNLL-U token ids shuffled, repeated, skipped or 0, IS-A chains up
to 2,000 deep or diamonds of up to 100 levels, and embedding values at the
edges of a double's range, which the loader must judge as a numpy check does.
A loader may accept the result or raise a FigdescError subclass, within a
time bound; any other exception is a bug. The same mutations, written to the
file behind each command-line flag, must never make main() return 3 or run
past the bound, and a corpus command must give the same exit code, output and
bytes whether it reads the corpus in one, two or three parts.
"""

import contextlib
import copy
import io
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc import cli, fixtures, pipeline
from figdesc.baseline import load_labeled_jsonl
from figdesc.corpus import attach_parses, load_article_json, load_article_xml
from figdesc.errors import EmbeddingFormatError, FigdescError
from figdesc.figref import DEFAULT_PATTERN
from figdesc.lexres import load_embeddings, load_synsets
from figdesc.ontology import load_ontology
from figdesc.scoring import WeightTable, load_weight_table, save_weight_table
from figdesc.tmr import load_gazetteer

from .helpers import LABELED_PATH, MINI_CORPUS, no_child_left, split_into, within

BAD_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]
ODD_VALUES = [
    None, True, False, 0, -1, 2.5, 1e308, float("nan"), float("inf"),
    "", "x", "NaN", [], [1], ["x"], {}, {"a": None},
]


def truncate(draw, data: bytes) -> bytes:
    return data[: draw(st.integers(0, len(data)))]


def flip_byte(draw, data: bytes) -> bytes:
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]


def insert_non_utf8(draw, data: bytes) -> bytes:
    i = draw(st.integers(0, len(data)))
    return data[:i] + draw(st.sampled_from(BAD_UTF8)) + data[i:]


def drop_or_repeat_line(draw, data: bytes) -> bytes:
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    lines[i : i + 1] = [] if draw(st.booleans()) else [lines[i], lines[i]]
    return b"\n".join(lines)


def _slots(node, found: list) -> list:
    """Every (container, key) pair of a JSON document, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return found
    for key in keys:
        found.append((node, key))
        _slots(node[key], found)
    return found


def _retype(draw, doc):
    """doc with one value replaced by one of another type, or one key deleted."""
    odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    slots = _slots(doc, [])
    if not slots or draw(st.integers(0, 9)) == 0:
        return odd
    node, key = draw(st.sampled_from(slots))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = odd
    return doc


def _edit_json(draw, data: bytes, edit) -> bytes:
    """edit(draw, doc) applied to the JSON document, or to one line of a JSON lines file.

    A document nested too deeply for json, or for edit, is left as it is.
    """
    try:
        return json.dumps(edit(draw, json.loads(data))).encode()
    except (ValueError, RecursionError):
        pass
    lines = data.split(b"\n")
    docs = []
    for i, line in enumerate(lines):
        with contextlib.suppress(ValueError, RecursionError):
            docs.append((i, json.loads(line)))
    if not docs:
        return data
    i, doc = draw(st.sampled_from(docs))
    with contextlib.suppress(RecursionError):
        lines[i] = json.dumps(edit(draw, doc)).encode()
    return b"\n".join(lines)


def json_types(draw, data: bytes) -> bytes:
    """Retype a value of the JSON document, or of one line of a JSON lines file."""
    return _edit_json(draw, data, _retype)


DEEP = "\x00deep\x00"


def _deepen(draw, doc):
    """doc with one value, or the whole, replaced by the placeholder DEEP."""
    slots = _slots(doc, [])
    if not slots or draw(st.integers(0, 9)) == 0:
        return DEEP
    node, key = draw(st.sampled_from(slots))
    node[key] = DEEP
    return doc


def nest_deeply(draw, data: bytes) -> bytes:
    """A value of the JSON document, or of one JSON line, nested up to 100,000 deep.

    The value is lists or objects nested around an empty one, at a depth that
    json may decode, may not, or that no recursion limit allows.
    """
    depth = draw(st.one_of(st.integers(1, 1_200), st.sampled_from([5_000, 100_000])))
    if draw(st.booleans()):
        nested = "[" * depth + "]" * depth
    else:
        nested = '{"a":' * depth + "{}" + "}" * depth
    return _edit_json(draw, data, _deepen).replace(json.dumps(DEEP).encode(), nested.encode())


def nest_xml(draw, data: bytes) -> bytes:
    """Elements nested up to 50,000 deep, just inside an opening tag of the XML
    article (or at its start, if none is left), holding text at the bottom.

    The tag is one the loader reads (para, body, title) or one it skips.
    """
    depth = draw(st.one_of(st.integers(1, 1_200), st.sampled_from([5_000, 50_000])))
    tag = draw(st.sampled_from(["para", "body", "title", "x"]))
    nested = (f"<{tag}>" * depth + "Fig. 1 deep." + f"</{tag}>" * depth).encode()
    opening = [m.end() for m in re.finditer(rb"<[a-z]+[^>]*>", data)]
    at = draw(st.sampled_from(opening)) if opening else 0
    return data[:at] + nested + data[at:]


MULTIWORD = "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_"
EMPTY_NODE = "1.1\tx\tx\tX\t_\t_\t_\t_\t0:root\t_"
COLUMN_VALUES = {
    0: ["0", "-1", "x", "1-2", "1.1", "٣", "１", " 1", "1.0", ""],
    1: ["", "X", "a b", " "],
    6: ["0", "-1", "999", "x", "", "٣", "1.5", "_", "+1"],
}


def break_conllu(draw, data: bytes) -> bytes:
    """One edit against the CoNLL-U format: columns, ids, heads, blocks, lines."""
    lines = data.decode("utf-8", "surrogateescape").split("\n")
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    blanks = [i for i, line in enumerate(lines) if not line.strip()]
    if not rows:
        return data
    i = draw(st.sampled_from(rows))
    cols = lines[i].split("\t")
    edit = draw(
        st.sampled_from(
            ["column", "drop-column", "add-column", "spaces", "merge", "split",
             "multiword", "empty-node", "comment", "crlf", "cr"]
        )
    )
    if edit == "column" and len(cols) > 6:
        col = draw(st.sampled_from(sorted(COLUMN_VALUES)))
        cols[col] = draw(st.sampled_from(COLUMN_VALUES[col]))
        lines[i] = "\t".join(cols)
    elif edit == "drop-column":
        lines[i] = "\t".join(cols[:-1])
    elif edit == "add-column":
        lines[i] = "\t".join([*cols, "_"])
    elif edit == "spaces":
        lines[i] = " ".join(cols)
    elif edit == "merge" and blanks:
        del lines[draw(st.sampled_from(blanks))]
    elif edit == "split":
        lines.insert(i, "")
    elif edit in ("multiword", "empty-node", "comment"):
        lines.insert(i, {"multiword": MULTIWORD, "empty-node": EMPTY_NODE, "comment": "# x"}[edit])
    elif edit in ("crlf", "cr"):
        return "\n".join(lines).replace("\n", "\r\n" if edit == "crlf" else "\r").encode(
            "utf-8", "surrogateescape"
        )
    return "\n".join(lines).encode("utf-8", "surrogateescape")


def rehead(draw, data: bytes) -> bytes:
    """One CoNLL-U block's heads redrawn: a token that heads itself, a head cycle,
    or any heads at all; or its ids renumbered: shuffled, repeated, skipped or 0."""
    blocks = data.decode("utf-8", "surrogateescape").split("\n\n")
    b = draw(st.integers(0, len(blocks) - 1))
    rows = [line.split("\t") for line in blocks[b].split("\n")]
    tokens = [cols for cols in rows if len(cols) == 10 and cols[0].isdecimal()]
    if not tokens:
        return data
    shapes = ["self", "cycle", "any"] if len(tokens) > 1 else ["self", "any"]
    shape = draw(st.sampled_from([*shapes, "shuffle", "repeat", "skip", "zero"]))
    if shape == "any":
        for cols in tokens:
            cols[6] = str(draw(st.integers(0, len(tokens))))
    elif shape in ("self", "cycle"):
        size = 1 if shape == "self" else draw(st.integers(2, len(tokens)))
        ring = draw(st.lists(st.sampled_from(tokens), min_size=size, max_size=size, unique_by=id))
        for cols, head in zip(ring, ring[1:] + ring[:1]):
            cols[6] = head[0]
    else:
        ids = [cols[0] for cols in tokens]
        i = draw(st.integers(0, len(tokens) - 1))
        if shape == "shuffle":
            ids = draw(st.permutations(ids))
        elif shape == "repeat":
            ids[i] = ids[i - 1]
        elif shape == "skip":
            ids[i:] = [str(int(n) + 1) for n in ids[i:]]
        else:
            ids[i] = "0"
        for cols, n in zip(tokens, ids):
            cols[0] = n
    blocks[b] = "\n".join("\t".join(cols) for cols in rows)
    return "\n\n".join(blocks).encode("utf-8", "surrogateescape")


def grow_isa(draw, data: bytes) -> bytes:
    """Text-form concepts appended: an IS-A chain up to 2,000 deep, or a diamond
    of up to 100 levels, each maybe closed into a cycle or led to both roots,
    and a lemma that the mini corpus holds made a sense of the topmost one."""
    root = draw(st.sampled_from(["OBJECT", "EVENT"]))
    if draw(st.booleans()):
        depth = draw(st.integers(1, 2_000))
        lines = [f"concept ISA0 is-a {root}"]
        lines += [f"concept ISA{i} is-a ISA{i - 1}" for i in range(1, depth)]
        top = f"ISA{depth - 1}"
    else:
        levels = draw(st.integers(1, 100))
        lines = [f"concept ISA0{x} is-a {root}" for x in "ab"]
        lines += [f"concept ISA{i}{x} is-a ISA{i - 1}a,ISA{i - 1}b" for i in range(1, levels) for x in "ab"]
        top = f"ISA{levels - 1}a"
    fault = draw(st.sampled_from([None, None, "cycle", "self", "both-roots"]))
    if fault == "cycle":
        lines[0] += f",{top}"
    elif fault == "self":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += "," + lines[i].split()[1]
    elif fault == "both-roots":
        lines[0] += ",EVENT" if root == "OBJECT" else ",OBJECT"
    if draw(st.booleans()):
        lines.reverse()
    lex = "spectrum pos noun" if root == "OBJECT" else "show pos verb"
    lines.append(f"lex {lex} -> concept {top}")
    return data + b"\n" + "\n".join(lines).encode() + b"\n"


# Embedding values at the edges of a double's range: one square near 1e308,
# two that overflow together, one that overflows alone, squares that fall to
# a subnormal or to 0, subnormals, and non-finite values. No sum of these
# squares lies near the largest double, so the order of summation cannot
# change a verdict.
EDGE_VALUES = [
    "1e154", "-1.2e154", "1e155", "1e-154", "1e-160", "-1e-162", "1e-310", "5e-324",
    "nan", "-inf", "inf",
]
TINY_VALUES = ["0", "-0.0", "1e-160", "1e-162", "1e-200", "2.2e-308", "1e-310", "5e-324"]


def edge_values(draw, data: bytes) -> bytes:
    """A row of the later half of an embedding file with one to three values
    set to edge values, or with every value made tiny or 0, from one to three
    of the tiny values."""
    lines = data.split(b"\n")
    rows = [i for i, line in enumerate(lines) if i and len(line.split()) > 1]
    if not rows:
        return data
    i = draw(st.sampled_from(rows[len(rows) // 2 :]))
    cols = lines[i].decode("utf-8", "surrogateescape").split()
    if draw(st.booleans()):
        tiny = draw(st.lists(st.sampled_from(TINY_VALUES), min_size=1, max_size=3, unique=True))
        cols[1:] = [draw(st.sampled_from(tiny)) for _ in cols[1:]]
    else:
        for _ in range(draw(st.integers(1, 3))):
            cols[draw(st.integers(1, len(cols) - 1))] = draw(st.sampled_from(EDGE_VALUES))
    lines[i] = " ".join(cols).encode("utf-8", "surrogateescape")
    return b"\n".join(lines)


BYTES = [truncate, flip_byte, insert_non_utf8, drop_or_repeat_line]
JSON = [*BYTES, json_types, nest_deeply]
CONLLU = [*BYTES, break_conllu, rehead]
EMBEDDINGS = [*BYTES, edge_values]
ONTOLOGY = [*BYTES, grow_isa]
XML = [*BYTES, nest_xml]


@st.composite
def mutated(draw, seed: bytes, mutators: list) -> bytes:
    data = seed
    for _ in range(draw(st.integers(1, 3))):
        data = draw(st.sampled_from(mutators))(draw, data)
    return data


def _data(name: str) -> bytes:
    return fixtures.fixture_path(name).read_bytes()


SMALL_ONTOLOGY_JSON = json.dumps(
    {
        "concepts": [
            {"name": "TOOL", "parents": ["OBJECT"]},
            {"name": "LENS", "parents": ["TOOL"]},
            {"name": "MOTION", "parents": ["EVENT"]},
        ],
        "properties": [
            {"name": "SIZE", "kind": "attribute", "values": ["small"], "domains": ["TOOL"]},
        ],
        "lexicon": [
            {"lemma": "lens", "pos": "noun", "sense": {"type": "concept", "name": "LENS"}},
            {
                "lemma": "small",
                "pos": "adj",
                "priority": 1,
                "sense": {"type": "property", "name": "SIZE", "value": "small"},
            },
        ],
    }
).encode()
# The bundled store's first 8 rows, under a header that counts them.
SMALL_EMBEDDINGS = b"8 50\n" + b"\n".join(_data("embeddings.txt").split(b"\n")[1:9]) + b"\n"
WEIGHTS = save_weight_table(
    WeightTable({"LENS": 0.75, "TOOL": 0.25}, {"SIZE": 1.0}, 0.5, (3, 2, 1))
).encode()
LABELED = b"\n".join(LABELED_PATH.read_bytes().split(b"\n")[:12]) + b"\n"
M001_JSON = (MINI_CORPUS / "M001.json").read_bytes()
M001_CONLLU = (MINI_CORPUS / "M001.conllu").read_bytes()
ARTICLE_XML = (
    b'<article uid="AX"><title>T</title><abstract>A.</abstract>'
    b"<body><para>See Fig. 1 here. It shows a lens.</para><para>More text.</para></body>"
    b"</article>"
)
GOLD = (MINI_CORPUS / "gold.jsonl").read_bytes()


def _attach_trees(data: bytes):
    """attach_parses of M001.json; every parse it accepts must be a tree over
    its positions, its token ids running 1..n."""
    article = attach_parses(load_article_json(M001_JSON), data)
    for sentence in article.sentences():
        tokens = sentence.parse.tokens
        ids = [token.index for token in tokens]
        assert ids == list(range(1, len(tokens) + 1)), f"sentence {sentence.global_index}: {ids}"
        heads = [0] + [token.head for token in tokens]
        for token in range(1, len(heads)):
            for _ in heads:
                token = heads[token]
            assert token == 0, f"sentence {sentence.global_index} is no tree: {heads[1:]}"
    return article


def _gold_rows(path):
    return pipeline.read_jsonl(path, lambda doc, where: cli._row(doc, where, "label", "0 or 1"))


# name: (loader, a valid input, the mutations that apply). A loader of bytes
# is read through pipeline.read_input, read_jsonl from the file itself.
LOADERS = {
    "ontology-text": (load_ontology, _data("ontology.txt"), ONTOLOGY),
    "ontology-json": (load_ontology, SMALL_ONTOLOGY_JSON, JSON),
    "synsets": (load_synsets, _data("synsets.json"), JSON),
    "embeddings": (load_embeddings, SMALL_EMBEDDINGS, EMBEDDINGS),
    "gazetteer": (load_gazetteer, _data("gazetteer.txt"), BYTES),
    "weights": (load_weight_table, WEIGHTS, JSON),
    "labeled": (load_labeled_jsonl, LABELED, JSON),
    "concept-metrics": (cli._concept_metrics, b'{"metrics": {"f1": 0.5}}', JSON),
    "article-json": (load_article_json, M001_JSON, JSON),
    "article-xml": (load_article_xml, ARTICLE_XML, XML),
    "conllu": (_attach_trees, M001_CONLLU, CONLLU),
    "gold-jsonl": (_gold_rows, GOLD, JSON),
}


# Seconds an example may take: one load, or a command run in up to three
# part counts. Far above what any example takes, far below an exponential walk.
LOAD_SECONDS = 10
COMMAND_SECONDS = 30


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-input") / "input"


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_figdesc_errors_escape_a_loader(input_path, name, data):
    load, seed, mutators = LOADERS[name]
    input_path.write_bytes(data.draw(mutated(seed, mutators), label="input"))
    with within(LOAD_SECONDS), contextlib.suppress(FigdescError):
        if load is _gold_rows:
            load(input_path)
        else:
            pipeline.read_input(input_path, name, None, load)


def numpy_verdict(data: bytes) -> str | None:
    """The error a numpy check of an embedding file's well-formed rows gives:
    each row's sum of squares by np.add.reduce (a pairwise sum), and the
    first row, in line order, that holds a non-finite value, or whose sum is
    infinite, or 0 though a value is not. None if every row passes."""
    for lineno, line in enumerate(data.decode().splitlines()[1:], start=2):
        if not line.strip():
            continue
        row = np.array([float(x) for x in line.split()[1:]])
        with np.errstate(over="ignore"):
            squares = np.add.reduce(row * row)
        if not np.isfinite(row).all():
            return f"line {lineno}: non-finite value"
        if squares == np.inf:
            return f"line {lineno}: vector norm overflows"
        if squares == 0.0 and row.any():
            return f"line {lineno}: vector norm underflows to 0"
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edge_values_are_judged_as_numpy_judges_them(data):
    bad = data.draw(mutated(SMALL_EMBEDDINGS, [edge_values]), label="input")
    expected = numpy_verdict(bad)
    if expected is None:
        assert len(load_embeddings(bad)) == 8
    else:
        with pytest.raises(EmbeddingFormatError) as e:
            load_embeddings(bad)
        assert str(e.value) == expected


# ---- the command line ----


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A one-article corpus and one run of every command over it."""
    root = tmp_path_factory.mktemp("fuzz-cli")
    corpus = root / "corpus"
    corpus.mkdir()
    for name in ("M001.json", "M001.conllu"):
        shutil.copyfile(MINI_CORPUS / name, corpus / name)
    (root / "embeddings.txt").write_bytes(SMALL_EMBEDDINGS)
    (root / "labeled.jsonl").write_bytes(LABELED)
    gold = [line for line in GOLD.decode().splitlines() if '"M001"' in line]
    assert gold
    (root / "gold.jsonl").write_text("\n".join(gold) + "\n")
    # detect, classify and baseline take this file, and between them they read
    # every setting in it, so each setting's type is fuzzed. A command accepts
    # the other commands' keys; a mutated key may name no setting. The pattern
    # is the default, so classify scores each candidate that the gold names.
    config = {
        "corpus": str(corpus),
        "window": 2,
        "lambda": 0.5,
        "seed": 0,
        "pattern": DEFAULT_PATTERN,
        "folds": 2,
    }
    (root / "config.json").write_text(json.dumps(config))
    for argv in _chain(root):
        assert _main([*argv, "--out", str(root / "seed")]) == 0, argv
    return root


def _chain(root) -> list[list[str]]:
    resources = [
        "--ontology", str(fixtures.fixture_path("ontology.txt")),
        "--synsets", str(fixtures.fixture_path("synsets.json")),
        "--embeddings", str(root / "embeddings.txt"),
        "--gazetteer", str(fixtures.fixture_path("gazetteer.txt")),
    ]
    seed = root / "seed"
    return [
        ["detect", "--config", str(root / "config.json")],
        ["calibrate", "--corpus", str(root / "corpus"), *resources],
        [
            "classify", "--corpus", str(root / "corpus"),
            "--weights", str(seed / "weights.json"), *resources,
            "--config", str(root / "config.json"),
        ],
        [
            "evaluate", "--scores", str(seed / "scores.jsonl"),
            "--gold", str(root / "gold.jsonl"), "--weights", str(seed / "weights.json"),
        ],
        [
            "baseline", "--labeled", str(root / "labeled.jsonl"),
            "--concept-metrics", str(seed / "metrics.json"), "--config", str(root / "config.json"),
        ],
    ]


def _main(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _main_in_parts(argv: list[str], out) -> int:
    """main(argv) with --out out, its corpus read in one, two and three parts.

    Each run must give the same exit code, stdout, stderr and output bytes,
    and leave no child process behind.
    """
    runs = []
    for parts in (1, 2, 3) if argv[0] in ("detect", "calibrate", "classify") else (1,):
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        with split_into(parts), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.is_dir() else None
        runs.append((code, sink.getvalue(), files))
        assert no_child_left()
    assert all(run == runs[0] for run in runs), [run[:2] for run in runs]
    return runs[0][0]


# (command, flag): the mutations that apply to the file behind the flag
FLAGS = {
    ("detect", "corpus/M001.json"): JSON,
    ("detect", "corpus/M001.conllu"): CONLLU,
    ("detect", "config"): JSON,
    ("calibrate", "ontology"): ONTOLOGY,
    ("calibrate", "synsets"): JSON,
    ("calibrate", "embeddings"): EMBEDDINGS,
    ("calibrate", "gazetteer"): BYTES,
    ("classify", "weights"): JSON,
    ("classify", "config"): JSON,
    ("evaluate", "scores"): JSON,
    ("evaluate", "gold"): JSON,
    ("evaluate", "weights"): JSON,
    ("baseline", "labeled"): JSON,
    ("baseline", "concept-metrics"): JSON,
    ("baseline", "config"): JSON,
}


@pytest.mark.parametrize("command, flag", sorted(FLAGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_main_never_returns_3_on_a_mutated_input(workspace, command, flag, data):
    (argv,) = [a for a in _chain(workspace) if a[0] == command]
    bad_dir = workspace / "bad"
    shutil.rmtree(bad_dir, ignore_errors=True)
    shutil.copytree(workspace / "corpus", bad_dir / "corpus")
    target = bad_dir / flag
    if flag.startswith("corpus/"):
        argv += ["--corpus", str(bad_dir / "corpus")]
    else:
        i = argv.index(f"--{flag}") + 1
        shutil.copyfile(argv[i], target)
        argv[i] = str(target)
    bad = data.draw(mutated(target.read_bytes(), FLAGS[command, flag]), label="file")
    target.write_bytes(bad)
    with within(COMMAND_SECONDS):
        code = _main_in_parts(argv, workspace / "out")
    assert code in (0, 1, 2)


TINY_ROW = ["1e-162", "-1e-200", "0"] * 16 + ["1e-310", "5e-324"]


@pytest.mark.parametrize(
    "row, values, problem",
    [
        (8, ["1e154", "-1.2e154"], "vector norm overflows"),
        (7, ["3", "1e155"], "vector norm overflows"),
        (8, TINY_ROW, "vector norm underflows to 0"),
        (6, ["5e-324"] * 50, "vector norm underflows to 0"),
        (7, ["1", "nan"], "non-finite value"),
        (8, ["-inf"], "non-finite value"),
    ],
    ids=["overflow-together", "overflow-alone", "tiny", "subnormal", "nan", "inf"],
)
def test_calibrate_names_a_late_edge_row_and_exits_2(workspace, row, values, problem):
    """A late row with edge values fails calibrate with exit 2 and the line's message."""
    lines = SMALL_EMBEDDINGS.decode().split("\n")
    cols = lines[row].split()
    cols[1 : 1 + len(values)] = values
    assert len(cols) == 51
    lines[row] = " ".join(cols)
    target = workspace / "bad" / "edge-embeddings.txt"
    target.parent.mkdir(exist_ok=True)
    target.write_text("\n".join(lines))
    (argv,) = [a for a in _chain(workspace) if a[0] == "calibrate"]
    argv[argv.index("--embeddings") + 1] = str(target)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(workspace / "out")])
    assert (code, err.getvalue()) == (2, f"error: {target}: line {row + 1}: {problem}\n")


# Words of the one-article corpus, and regex shapes that compile with a group
# 1 but bend the usual match: group 1 optional, group 1 left out of an
# alternative, a match that can be empty, and a lookbehind.
PATTERN_WORDS = ["fig", "figure", "the", "shows", "treatment", "s", "."]
PATTERN_SHAPES = [
    r"{0}(\d+)?",
    r"({0})?\s*(\d*)",
    r"{0}(\d*)|({1})",
    r"(?:{0})|({1})",
    r"((?:{0})*)",
    r"()",
    r"(?<={0} )(\w+)",
    r"(?<!{0})({1})",
]


@st.composite
def unusual_pattern(draw) -> str:
    shape = draw(st.sampled_from(PATTERN_SHAPES))
    words = draw(st.lists(st.sampled_from(PATTERN_WORDS), min_size=2, max_size=2))
    return shape.format(*(re.escape(word) for word in words))


@pytest.mark.parametrize("command", ["detect", "classify"])
@settings(max_examples=15, deadline=None)
@given(pattern=unusual_pattern(), window=st.integers(0, 3))
def test_main_never_returns_3_on_an_unusual_pattern(workspace, command, pattern, window):
    (argv,) = [a for a in _chain(workspace) if a[0] == command]
    argv += ["--pattern", pattern, "--window", str(window)]
    assert _main_in_parts(argv, workspace / "out") == 0


def test_sentences_of_many_ambiguous_modifiers_run_in_time(workspace, tmp_path):
    """A reference and its neighbour, each with 30 two-sense modifiers (2^30
    sense combinations apiece): calibrate and classify exit 0 in time."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    tail = [
        ("shows", "show", "VERB", 0, "root"),
        *[("small", "small", "ADJ", 3, "advmod")] * 30,
        ("peak", "peak", "NOUN", 3, "obj"),
        (".", ".", "PUNCT", 3, "punct"),
    ]
    sentences = [
        [("Figure", "figure", "NOUN", 3, "nsubj"), ("1", "1", "NUM", 1, "nummod"), *tail],
        [("The", "the", "DET", 2, "det"), ("curve", "curve", "NOUN", 3, "nsubj"), *tail],
    ]
    article = {
        "uid": "S001",
        "title": "Many modifiers",
        "abstract": "",
        "body": [[" ".join(row[0] for row in rows) for rows in sentences]],
        "metadata": {},
    }
    (corpus / "S001.json").write_text(json.dumps(article))
    (corpus / "S001.conllu").write_text(
        "".join(
            "".join(
                f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"
                for i, (form, lemma, upos, head, deprel) in enumerate(rows, start=1)
            ) + "\n"
            for rows in sentences
        )
    )
    chain = {argv[0]: argv for argv in _chain(workspace)}
    for command, out in (("calibrate", tmp_path / "weights"), ("classify", tmp_path / "scores")):
        argv = chain[command]
        argv[argv.index("--corpus") + 1] = str(corpus)
        if command == "classify":
            argv[argv.index("--weights") + 1] = str(tmp_path / "weights" / "weights.json")
        with within(COMMAND_SECONDS):
            assert _main_in_parts(argv, out) == 0, command
    _, *rows = (tmp_path / "scores" / "scores.jsonl").read_text().splitlines()
    assert [json.loads(row)["uid"] for row in rows] == ["S001"]
