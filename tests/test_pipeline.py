import contextlib
import hashlib
import io
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc import pipeline
from figdesc.cli import main
from figdesc.corpus import load_article_json
from figdesc.errors import AlignmentError, ArticleParseError, ConfigError, SchemaError
from figdesc.figref import detect_figure_refs, neighbor_positions, select_neighbors
from figdesc.scoring import WeightTable, calibrate

from .helpers import MINI_CORPUS, no_child_left, split_into


class TestCorpusDir:
    def test_minicorpus_loads_sorted_with_parses(self, mini_articles):
        assert len(mini_articles) == 20
        uids = [a.uid for a in mini_articles]
        assert uids == sorted(uids)
        assert uids[0] == "M001" and uids[-1] == "M020"
        for article in mini_articles:
            assert all(s.parse is not None for s in article.sentences())

    def test_corpus137_sentence_count_matches_raw_files(self, corpus137, corpus137_dir):
        # oracle: count body strings straight off the raw JSON
        expected = 0
        for file in corpus137_dir.glob("*.json"):
            doc = json.loads(file.read_text())
            expected += sum(len(para) for para in doc["body"])
        got = sum(len(a.sentences()) for a in corpus137)
        assert got == expected
        assert len(corpus137) == 137

    def test_duplicate_uid_rejected(self, tmp_path):
        doc = {"uid": "DUP", "body": [["One here."]]}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        (tmp_path / "b.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="DUP"):
            list(pipeline.load_corpus_dir(tmp_path))

    def test_load_errors_name_the_file_and_keep_their_type(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"uid": "A", "body": [["Fine."]]}))
        (tmp_path / "b.json").write_text('{"uid": "B", ')
        with pytest.raises(ArticleParseError, match="^b.json: article: malformed JSON at offset 13"):
            list(pipeline.load_corpus_dir(tmp_path))
        (tmp_path / "b.json").write_text(json.dumps({"uid": "B"}))
        with pytest.raises(SchemaError, match="^b.json: body: required"):
            list(pipeline.load_corpus_dir(tmp_path))
        (tmp_path / "b.json").unlink()
        (tmp_path / "a.conllu").write_text("")
        with pytest.raises(AlignmentError, match="^a.conllu: parse sidecar has 0 blocks"):
            list(pipeline.load_corpus_dir(tmp_path))
        (tmp_path / "a.conllu").unlink()
        (tmp_path / "c.json").write_text(json.dumps({"uid": "A", "body": [["Again."]]}))
        with pytest.raises(SchemaError, match="'A' in a.json and c.json"):
            list(pipeline.load_corpus_dir(tmp_path))

    def test_missing_directory(self, tmp_path):
        articles = pipeline.load_corpus_dir(tmp_path / "nope")  # listed at the first next()
        with pytest.raises(ConfigError, match="does not exist"):
            next(articles)

    def test_yields_in_file_name_order_and_fails_at_the_bad_file(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"uid": "Z", "body": [["Fine."]]}))
        (tmp_path / "b.json").write_text(json.dumps({"uid": "A", "body": [["Also."]]}))
        assert [a.uid for a in pipeline.load_corpus_dir(tmp_path)] == ["Z", "A"]
        (tmp_path / "c.json").write_text('{"uid": "C", ')
        articles = pipeline.load_corpus_dir(tmp_path)
        assert [next(articles).uid, next(articles).uid] == ["Z", "A"]
        with pytest.raises(ArticleParseError, match="^c.json: "):
            next(articles)

    def test_mixed_formats_and_stray_files(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"uid": "J1", "body": [["Hi there."]]}))
        (tmp_path / "b.xml").write_text(
            '<article uid="X1"><body><para>Hello here.</para></body></article>'
        )
        (tmp_path / "notes.txt").write_text("ignored")
        articles = list(pipeline.load_corpus_dir(tmp_path))
        assert [a.uid for a in articles] == ["J1", "X1"]

    def test_conllu_sidecar_attaches(self, tmp_path, mini_dir):
        shutil.copy(mini_dir / "M001.json", tmp_path / "M001.json")
        shutil.copy(mini_dir / "M001.conllu", tmp_path / "M001.conllu")
        (article,) = pipeline.load_corpus_dir(tmp_path)
        assert all(s.parse is not None for s in article.sentences())

    def test_listing_rule(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "notes.txt").write_text("ignored")
        (corpus / "x.conllu").write_text(_conllu_block(["Orphan", "."]))
        (corpus / "a.b.json").write_text(
            json.dumps({"uid": "AB", "body": [["Fig. 1 shows it."]]})
        )
        (corpus / "a.b.conllu").write_text(_conllu_block(["Fig.", "1", "shows", "it."]))
        (corpus / "c.xml").write_text(
            '<article uid="CX"><body><para>Plain text here.</para></body></article>'
        )
        (corpus / "nested").mkdir()
        (corpus / "nested" / "n.json").write_text(
            json.dumps({"uid": "N", "body": [["Nested."]]})
        )
        articles = list(pipeline.load_corpus_dir(corpus))
        assert [a.uid for a in articles] == ["AB", "CX"]
        assert [a.sentences()[0].parse is not None for a in articles] == [True, False]
        out = tmp_path / "out"
        assert main(["detect", "--corpus", str(corpus), "--out", str(out)]) == 0
        capsys.readouterr()
        header, _ = pipeline.read_jsonl(out / "detect.jsonl")
        assert list(header["inputs"]) == [
            "corpus/a.b.conllu",
            "corpus/a.b.json",
            "corpus/c.xml",
            "corpus/x.conllu",
        ]


def _conllu_block(forms: list[str]) -> str:
    rows = [
        f"{i}\t{form}\t{form.lower()}\tX\t_\t_\t{0 if i == 1 else 1}\tdep\t_\t_"
        for i, form in enumerate(forms, start=1)
    ]
    return "\n".join(rows) + "\n\n"


# Referring under the default pattern, under the custom tab pattern, both, or neither.
_DETECTION_TEXTS = [
    "Fig. 2 shows it.",
    "Figs. 1, 3 and S4 differ from figure 5-7.",
    "Tab. 4 lists values.",
    "Fig. 1 and Tab. 2 agree.",
    "Plain text here.",
    "The misfig. 3 stays plain.",
]


def _detection(article, refs, candidate_indices):
    by_global = {s.global_index: s for s in article.sentences()}
    candidates = [by_global[g] for g in sorted(candidate_indices)]
    return pipeline.ArticleDetection(article.uid, refs, candidates)


def _oracle_detection(article, window, pattern):
    """Detection as separate scans: each sentence, then select_neighbors per reference."""
    refs = []
    candidates: set[int] = set()
    for para in article.paragraphs:
        for local_idx, sentence in enumerate(para.sentences):
            if not detect_figure_refs(sentence, pattern):
                continue
            cand = select_neighbors(para, local_idx, window, pattern)
            refs.append((sentence, list(cand.neighbor_indices)))
            candidates.update(cand.neighbor_indices)
    return _detection(article, refs, candidates)


def _full_scan_detection(article, window, pattern):
    """Detection that scans every sentence for all its matches with
    detect_figure_refs; an empty match list marks a sentence as not referring."""
    refs = []
    candidates: set[int] = set()
    for para in article.paragraphs:
        sentences = para.sentences
        scans = [detect_figure_refs(sentence, pattern) for sentence in sentences]
        for local_idx, matches in enumerate(scans):
            if not matches:
                continue
            positions = neighbor_positions(len(scans), local_idx, window, scans.__getitem__)
            neighbors = [sentences[j].global_index for j in positions]
            refs.append((sentences[local_idx], neighbors))
            candidates.update(neighbors)
    return _detection(article, refs, candidates)


def _shape(detection):
    """(reference global index, neighbors) pairs and candidate global indices."""
    refs = [(sentence.global_index, neighbors) for sentence, neighbors in detection.refs]
    return refs, [s.global_index for s in detection.candidates]


# Words that start, end or follow a reference under the patterns below.
_SCAN_WORDS = [
    "Fig. 2", "fig 3", "figs. 1, 3", "figure 5-7", "fig4", "see", "subfig 8",
    "Tab. 4", "x", "xx", "plain", ".",
]
_sentence_texts = st.lists(st.sampled_from(_SCAN_WORDS), min_size=1, max_size=5).map(" ".join)
_SCAN_PATTERNS = [
    None,
    r"^fig\.?\s*(\d+)",
    r"(?<=see )fig\.?\s*(\d+)",
    r"fig\s*(\d+)$",
    r"(x*)",  # matches, empty, in every sentence
    r"fig(\d+)?",  # group 1 can sit out a match
    r"fig(\d*)|(tab)",  # group 1 sits out every "tab" match
]


class TestDetection:
    def test_hand_built_article(self):
        from figdesc.corpus import load_article_json

        doc = {
            "uid": "T1",
            "body": [
                ["Intro one.", "Intro two."],
                ["Left text.", "Fig. 3 shows it.", "Right text.", "Far text."],
                ["Unrelated."],
            ],
        }
        article = load_article_json(json.dumps(doc))
        det = pipeline.detect_article(article, window=2)
        assert det.uid == "T1"
        assert _shape(det) == ([(3, [2, 4, 5])], [2, 4, 5])
        ((sentence, _),) = det.refs
        assert sentence is article.paragraphs[1].sentences[1]
        assert det.candidates == [article.paragraphs[1].sentences[j] for j in (0, 2, 3)]

    def test_candidates_are_distinct_across_overlapping_refs(self):
        from figdesc.corpus import load_article_json

        doc = {
            "uid": "T2",
            "body": [
                ["Plain a.", "Fig. 1 here.", "Plain b.", "Fig. 2 here.", "Plain c."],
            ],
        }
        article = load_article_json(json.dumps(doc))
        det = pipeline.detect_article(article, window=2)
        # sentence 2 neighbors both refs but appears once
        assert _shape(det) == ([(1, [0, 2]), (3, [2, 4])], [0, 2, 4])

    def test_minicorpus_layout(self, mini_articles):
        for article in mini_articles:
            refs, candidates = _shape(pipeline.detect_article(article, window=2))
            assert [gidx for gidx, _ in refs] == [2, 3, 5]
            assert candidates == [4, 6]

    def test_custom_pattern_narrows_refs(self, mini_articles):
        det = pipeline.detect_article(
            mini_articles[0], window=2, pattern=r"\bnevermatch(\d+)"
        )
        assert det.refs == []
        assert det.candidates == []

    @settings(max_examples=300)
    @given(
        st.lists(
            st.lists(st.sampled_from(_DETECTION_TEXTS), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 3),
        st.sampled_from([None, r"\btab\.\s*(\d+)"]),
    )
    def test_matches_per_reference_composition(self, body, window, pattern):
        article = load_article_json(json.dumps({"uid": "R", "body": body}))
        got = pipeline.detect_article(article, window, pattern)
        assert got == _oracle_detection(article, window, pattern)

    @settings(max_examples=300)
    @given(
        st.lists(st.lists(_sentence_texts, min_size=1, max_size=8), min_size=1, max_size=4),
        st.integers(0, 3),
        st.sampled_from(_SCAN_PATTERNS),
    )
    def test_matches_a_full_scan_of_every_sentence(self, body, window, pattern):
        article = load_article_json(json.dumps({"uid": "S", "body": body}))
        got = pipeline.detect_article(article, window, pattern)
        assert got == _full_scan_detection(article, window, pattern)


class TestReferenceTmrs:
    def test_count_matches_regex_oracle(self, mini_articles, resources):
        rx = re.compile(r"\b(?:figures|figure|figs|fig)\.?\s*S?\d", re.IGNORECASE)
        expected = sum(
            1
            for article in mini_articles
            for s in article.sentences()
            if rx.search(s.text)
        )
        tmrs = pipeline.reference_tmrs(mini_articles, resources)
        assert len(tmrs) == expected == 60

    def test_uid_order_whatever_the_input_order(self, mini_articles, resources):
        in_order = pipeline.reference_tmrs(mini_articles, resources)
        assert pipeline.reference_tmrs(iter(mini_articles[::-1]), resources) == in_order


@pytest.fixture(scope="module")
def table(mini_articles, resources):
    refs = pipeline.reference_tmrs(mini_articles, resources)
    return calibrate(refs)


class TestScoreCandidates:
    def test_rows_sorted_and_complete(self, mini_articles, resources, table):
        rows = pipeline.score_candidates(mini_articles, resources, table, 2)
        keys = [(r.uid, r.global_index) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 40  # two candidates per article
        for r in rows:
            assert r.global_index in (4, 6)
            assert r.weight >= 0.0
            assert r.text
            assert r.tmr.sentence_ref == r.global_index

    def test_uid_order_whatever_the_input_order(self, mini_articles, resources, table):
        in_order = pipeline.score_candidates(mini_articles, resources, table, 2)
        reverse = iter(mini_articles[::-1])
        assert pipeline.score_candidates(reverse, resources, table, 2) == in_order

    def test_unknown_elements_score_zero(self, mini_articles, resources):
        empty = WeightTable({}, {}, 0.0, (0, 0, 0))
        rows = pipeline.score_candidates(mini_articles, resources, empty, 2)
        assert all(r.weight == 0.0 for r in rows)


class TestOneDefinitionOfAReference:
    """calibrate and classify read the references and candidates that detect writes,
    and each of detect's rows holds the labels and spans of its sentence's matches."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.lists(_sentence_texts, min_size=1, max_size=6), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 3),
        st.sampled_from(_SCAN_PATTERNS),
    )
    def test_detect_calibrate_and_classify_agree(self, resources, bodies, window, pattern):
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "corpus", Path(tmp) / "out"
            corpus.mkdir()
            for i, body in enumerate(bodies):  # file-name order is the reverse of uid order
                doc = {"uid": f"U{i}", "body": body}
                (corpus / f"{len(bodies) - i}.json").write_text(json.dumps(doc))
            argv = ["detect", "--corpus", str(corpus), "--window", str(window), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, *(["--pattern", pattern] if pattern else [])]) == 0
            _, rows = pipeline.read_jsonl(out / "detect.jsonl")
            articles = list(pipeline.load_corpus_dir(corpus))
        refs = {article.uid: [] for article in articles}
        candidates = set()
        sentences = {(a.uid, s.global_index): s for a in articles for s in a.sentences()}
        for row in rows:
            matches = detect_figure_refs(sentences[row["uid"], row["global_index"]], pattern)
            assert row["labels"] == sorted({label for m in matches for label in m.labels})
            assert row["spans"] == [list(m.span) for m in matches]
            refs[row["uid"]].append(row["global_index"])
            candidates.update((row["uid"], gidx) for gidx in row["neighbors"])
        for article in articles:
            tmrs = pipeline.reference_tmrs([article], resources, pattern)
            assert [tmr.sentence_ref for tmr in tmrs] == refs[article.uid]
        table = WeightTable({}, {}, 0.0, (0, 0, 0))
        scored = pipeline.score_candidates(articles, resources, table, window, pattern)
        assert [(row.uid, row.global_index) for row in scored] == sorted(candidates)


class TestProvenance:
    def test_hashes_and_settings(self, tmp_path):
        f = tmp_path / "input.txt"
        f.write_text("payload")
        digests = {}
        assert pipeline.read_input(f, "weights", digests) == b"payload"
        doc = pipeline.provenance({"b": 2, "a": 1}, {"z": "0" * 64, **digests})
        assert doc["inputs"] == {
            "weights": hashlib.sha256(b"payload").hexdigest(),
            "z": "0" * 64,
        }
        assert list(doc["inputs"]) == ["weights", "z"]
        assert list(doc["settings"]) == ["a", "b"]
        assert "time" not in json.dumps(doc).lower()

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        header = {"inputs": {}, "settings": {"lambda": 0.5}}
        records = [{"b": 1, "a": 2}, {"x": "y"}]
        pipeline.write_jsonl(path, header, map(pipeline.encode_record, records))
        got_header, got_records = pipeline.read_jsonl(path)
        assert got_header == header
        assert got_records == records
        # stable bytes: keys are sorted on the way out
        text = path.read_text()
        assert text == text.strip() + "\n"
        assert '"a": 2, "b": 1' in text

    def test_resources_without_optional_parts(self, tmp_path):
        onto = tmp_path / "mini.txt"
        onto.write_text("concept THING is-a OBJECT\n")
        res = pipeline.load_resources(onto)
        assert res.synsets is None
        assert res.embeddings is None
        assert res.gazetteer == frozenset()
        assert res.graph.has_concept("THING")


# A corpus command in a child interpreter, its corpus cut into argv[1]
# parts. The article titled "kill" kills the process that detects it. The
# command exits 99 if it leaves a child behind.
SPLIT_MAIN = """
import os, signal, sys
from figdesc import cli, pipeline
pipeline._part_count = lambda n_files: int(sys.argv[1])
detect_article = pipeline.detect_article
def detect(article, *args):
    if article.title == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return detect_article(article, *args)
pipeline.detect_article = detect
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


class TestSplitCorpus:
    """A corpus read in forked parts gives what one pass over its files gives.

    Each case runs detect with one part and with two and three, and leaves
    no child process behind.
    """

    @staticmethod
    def corpus(path: Path, uids: dict[str, str], titles=None, bad=()) -> Path:
        """Mini corpus article M001 under each file name and uid; bad files are malformed.

        titles gives some of the files a title, which the tests' hooks look for.
        """
        path.mkdir()
        doc = json.loads((MINI_CORPUS / "M001.json").read_text())
        for name, uid in uids.items():
            title = (titles or {}).get(name, "")
            (path / name).write_text(json.dumps({**doc, "uid": uid, "title": title}))
        for name in bad:
            (path / name).write_text('{"uid": ')
        return path

    @staticmethod
    def detect(capsys, corpus: Path, out: Path) -> list[tuple]:
        """(exit code, stdout, stderr, output files) of detect, by part count."""
        runs = []
        for parts in (1, 2, 3):
            shutil.rmtree(out, ignore_errors=True)
            with split_into(parts):
                code = main(["detect", "--corpus", str(corpus), "--out", str(out)])
            captured = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else None
            runs.append((code, captured.out, captured.err, files))
            assert no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        return runs[0]

    def test_outputs_match_one_part(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        code, out, _, files = self.detect(capsys, corpus, tmp_path / "out")
        assert code == 0 and "20 articles" in out and files

    def test_duplicate_uid_across_parts(self, capsys, tmp_path):
        uids = {"a.json": "X", "b.json": "Y", "c.json": "Z", "d.json": "X"}
        corpus = self.corpus(tmp_path / "corpus", uids)
        code, _, err, files = self.detect(capsys, corpus, tmp_path / "out")
        assert (code, err, files) == (
            2, "error: uid: duplicate article uid 'X' in a.json and d.json\n", None
        )

    def test_bad_file_in_each_part(self, capsys, tmp_path):
        uids = {"a.json": "A", "c.json": "C"}
        corpus = self.corpus(tmp_path / "corpus", uids, bad=["b.json", "d.json"])
        code, _, err, files = self.detect(capsys, corpus, tmp_path / "out")
        assert (code, files) == (2, None)
        assert err.startswith("error: b.json: article: malformed JSON")

    def test_duplicate_in_a_later_part_before_an_error(self, capsys, tmp_path):
        uids = {"a.json": "X", "b.json": "Y", "c.json": "X"}
        corpus = self.corpus(tmp_path / "corpus", uids, bad=["d.json"])
        code, _, err, _ = self.detect(capsys, corpus, tmp_path / "out")
        assert (code, err) == (2, "error: uid: duplicate article uid 'X' in a.json and c.json\n")

    def test_error_in_an_earlier_part_before_a_duplicate(self, capsys, tmp_path):
        uids = {"a.json": "X", "c.json": "Y", "d.json": "X"}
        corpus = self.corpus(tmp_path / "corpus", uids, bad=["b.json"])
        code, _, err, _ = self.detect(capsys, corpus, tmp_path / "out")
        assert code == 2 and err.startswith("error: b.json: article: malformed JSON")

    @pytest.mark.parametrize("raised", ["ValueError", "local"])
    def test_bug_in_a_part_exits_3(self, capsys, tmp_path, monkeypatch, raised):
        """A bug keeps its message, even as an exception that does not pickle."""

        class Local(Exception):
            pass

        detect_article = pipeline.detect_article

        def detect(article, *args):
            if article.title == "boom":
                raise (ValueError if raised == "ValueError" else Local)("boom in d.json")
            return detect_article(article, *args)

        monkeypatch.setattr(pipeline, "detect_article", detect)
        uids = {"a.json": "A", "b.json": "B", "c.json": "C", "d.json": "D"}
        corpus = self.corpus(tmp_path / "corpus", uids, {"d.json": "boom"})
        code, _, err, files = self.detect(capsys, corpus, tmp_path / "out")
        assert (code, err, files) == (3, "internal error: boom in d.json\n", None)

    def test_duplicate_whose_detection_raises(self, capsys, tmp_path, monkeypatch):
        """One pass stops at the repeated uid before it detects that article."""
        detect_article = pipeline.detect_article

        def detect(article, *args):
            if article.title == "boom":
                raise ValueError("detected a repeated uid")
            return detect_article(article, *args)

        monkeypatch.setattr(pipeline, "detect_article", detect)
        uids = {"a.json": "X", "b.json": "Y", "c.json": "Z", "d.json": "X"}
        corpus = self.corpus(tmp_path / "corpus", uids, {"d.json": "boom"})
        code, _, err, _ = self.detect(capsys, corpus, tmp_path / "out")
        assert (code, err) == (2, "error: uid: duplicate article uid 'X' in a.json and d.json\n")

    def test_killed_child_exits_3(self, tmp_path):
        uids = {"a.json": "A", "b.json": "B", "c.json": "C", "d.json": "D"}
        corpus = self.corpus(tmp_path / "corpus", uids, {"d.json": "kill"})
        for parts in (2, 3):
            proc = subprocess.run(
                [sys.executable, "-c", SPLIT_MAIN, str(parts), "detect",
                 "--corpus", str(corpus), "--out", str(tmp_path / "out")],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 3, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr == (
                f"internal error: corpus part {parts} of {parts} was killed by signal"
                f" {signal.SIGKILL.value} before it finished\n"
            )
            assert not (tmp_path / "out").exists()

    def test_children_write_nothing_to_stdout(self, tmp_path):
        """The bytes on the command's own stdout and stderr match one part's."""
        runs = []
        for parts in (1, 2):
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, "-c", SPLIT_MAIN, str(parts), "detect",
                 "--corpus", str(MINI_CORPUS), "--out", str(out)],
                capture_output=True, timeout=120,
            )
            written = (out / "detect.jsonl").read_bytes()
            runs.append((proc.returncode, proc.stdout, proc.stderr, written))
        assert runs[1] == runs[0] and runs[0][0] == 0 and runs[0][2] == b""

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, RuntimeError])
    def test_parent_error_kills_and_reaps_every_child(self, capsys, tmp_path, raised):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        argv = ["detect", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
        with split_into(2), mock.patch("pickle.load", side_effect=raised("in the parent")):
            if raised is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == 3
        assert capsys.readouterr().err in ("", "internal error: in the parent\n")
        assert no_child_left()
        assert not (tmp_path / "out").exists()

    def test_results_larger_than_a_pipe(self):
        """A child waits in its write, with the pipe full, while this process
        reads its own run; what it sends still arrives whole."""

        def big(detection):  # about 100 KB per article
            return (detection.uid * 25_000).encode()

        runs = []
        for parts in (1, 2, 3):
            articles = pipeline.load_corpus_dir(MINI_CORPUS)
            with split_into(parts):
                runs.append(pipeline.detect_by_uid(articles, 1, None, big))
            assert no_child_left()
        assert len(runs[0]) == 20 and runs[1] == runs[0] and runs[2] == runs[0]

    def test_child_that_sends_nothing(self):
        """A result that does not pickle ends its child, and the command names the part."""

        def unpicklable(detection):
            return lambda: detection.uid

        with split_into(2), pytest.raises(RuntimeError) as raised:
            pipeline.detect_by_uid(pipeline.load_corpus_dir(MINI_CORPUS), 1, None, unpicklable)
        assert str(raised.value) == "corpus part 2 of 2 exited with status 1 before it finished"
        assert no_child_left()

    def test_only_an_unstarted_iterator_is_read_in_parts(self):
        """Read in parts, it yields nothing more; started, it goes on in this process."""
        uid = lambda detection: detection.uid  # noqa: E731
        articles = pipeline.load_corpus_dir(MINI_CORPUS)
        with split_into(2):
            assert len(pipeline.detect_by_uid(articles, 1, None, uid)) == 20
        assert list(articles) == []
        articles = pipeline.load_corpus_dir(MINI_CORPUS)
        first = next(articles)
        with split_into(2), mock.patch("os.fork", side_effect=AssertionError("forked")):
            uids = pipeline.detect_by_uid(articles, 1, None, uid)
        assert len(uids) == 19 and first.uid not in uids
        assert no_child_left()
