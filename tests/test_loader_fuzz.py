"""Mutation fuzzing of every input loader.

Each loader gets a valid input of its kind, mutated by hypothesis: truncated,
bytes flipped, bytes that are not UTF-8 inserted, JSON values swapped for
values of other types or deleted, CoNLL-U lines broken against the rules at
https://universaldependencies.org/format.html, and lines dropped or
repeated. A loader may accept the result or raise a FigdescError subclass;
any other exception is a bug. The same mutations, written to the file
behind each command-line flag, must never make main() return 3.
"""

import contextlib
import copy
import io
import json
import shutil
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc import cli, fixtures, pipeline
from figdesc.baseline import load_labeled_jsonl
from figdesc.corpus import attach_parses, load_article_json, load_article_xml
from figdesc.errors import FigdescError
from figdesc.figref import DEFAULT_PATTERN
from figdesc.lexres import load_embeddings, load_synsets
from figdesc.ontology import load_ontology
from figdesc.scoring import WeightTable, load_weight_table, save_weight_table
from figdesc.tmr import load_gazetteer

from .helpers import LABELED_PATH, MINI_CORPUS

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


def json_types(draw, data: bytes) -> bytes:
    """Retype a value of the JSON document, or of one line of a JSON lines file."""
    try:
        return json.dumps(_retype(draw, json.loads(data))).encode()
    except ValueError:
        pass
    lines = data.split(b"\n")
    docs = []
    for i, line in enumerate(lines):
        with contextlib.suppress(ValueError):
            docs.append((i, json.loads(line)))
    if not docs:
        return data
    i, doc = draw(st.sampled_from(docs))
    lines[i] = json.dumps(_retype(draw, doc)).encode()
    return b"\n".join(lines)


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


BYTES = [truncate, flip_byte, insert_non_utf8, drop_or_repeat_line]
JSON = [*BYTES, json_types]
CONLLU = [*BYTES, break_conllu]


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


def _gold_rows(path):
    return pipeline.read_jsonl(path, lambda doc, where: cli._row(doc, where, "label", "0 or 1"))


# name: (loader, a valid input, the mutations that apply). A loader of bytes
# is read through pipeline.read_input, read_jsonl from the file itself.
LOADERS = {
    "ontology-text": (load_ontology, _data("ontology.txt"), BYTES),
    "ontology-json": (load_ontology, SMALL_ONTOLOGY_JSON, JSON),
    "synsets": (load_synsets, _data("synsets.json"), JSON),
    "embeddings": (load_embeddings, SMALL_EMBEDDINGS, BYTES),
    "gazetteer": (load_gazetteer, _data("gazetteer.txt"), BYTES),
    "weights": (load_weight_table, WEIGHTS, JSON),
    "labeled": (load_labeled_jsonl, LABELED, JSON),
    "concept-metrics": (cli._concept_metrics, b'{"metrics": {"f1": 0.5}}', JSON),
    "article-json": (load_article_json, M001_JSON, JSON),
    "article-xml": (load_article_xml, ARTICLE_XML, BYTES),
    "conllu": (partial(attach_parses, load_article_json(M001_JSON)), M001_CONLLU, CONLLU),
    "gold-jsonl": (_gold_rows, GOLD, JSON),
}


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-input") / "input"


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_figdesc_errors_escape_a_loader(input_path, name, data):
    load, seed, mutators = LOADERS[name]
    input_path.write_bytes(data.draw(mutated(seed, mutators), label="input"))
    with contextlib.suppress(FigdescError):
        if load is _gold_rows:
            load(input_path)
        else:
            pipeline.read_input(input_path, name, None, load)


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


# (command, flag): the mutations that apply to the file behind the flag
FLAGS = {
    ("detect", "corpus/M001.json"): JSON,
    ("detect", "corpus/M001.conllu"): CONLLU,
    ("detect", "config"): JSON,
    ("calibrate", "ontology"): BYTES,
    ("calibrate", "synsets"): JSON,
    ("calibrate", "embeddings"): BYTES,
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
    code = _main([*argv, "--out", str(workspace / "out")])
    assert code in (0, 1, 2)
