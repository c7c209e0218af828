import hashlib
import json
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc import pipeline
from figdesc.cli import main
from figdesc.corpus import load_article_json
from figdesc.errors import AlignmentError, ArticleParseError, ConfigError, SchemaError
from figdesc.figref import detect_figure_refs, neighbor_positions, select_neighbors
from figdesc.scoring import ScoringConfig, WeightTable, calibrate


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


def _oracle_detection(article, window, pattern):
    """Detection as separate scans: each sentence, then select_neighbors per reference."""
    refs = []
    candidates: set[int] = set()
    for para in article.paragraphs:
        for local_idx, sentence in enumerate(para.sentences):
            matches = detect_figure_refs(sentence, pattern)
            if not matches:
                continue
            cand = select_neighbors(para, local_idx, window, pattern)
            refs.append(
                {
                    "global_index": sentence.global_index,
                    "labels": sorted({label for m in matches for label in m.labels}),
                    "spans": [list(m.span) for m in matches],
                    "neighbors": list(cand.neighbor_indices),
                }
            )
            candidates.update(cand.neighbor_indices)
    return pipeline.ArticleDetection(article.uid, refs, sorted(candidates))


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
            refs.append(
                {
                    "global_index": sentences[local_idx].global_index,
                    "labels": sorted({label for m in matches for label in m.labels}),
                    "spans": [list(m.span) for m in matches],
                    "neighbors": neighbors,
                }
            )
            candidates.update(neighbors)
    return pipeline.ArticleDetection(article.uid, refs, sorted(candidates))


# Words that start, end or follow a reference under the patterns below.
_SCAN_WORDS = [
    "Fig. 2", "fig 3", "figs. 1, 3", "figure 5-7", "fig4", "see", "subfig 8",
    "Tab. 4", "x", "xx", "plain", ".",
]
_sentence_texts = st.lists(st.sampled_from(_SCAN_WORDS), min_size=1, max_size=5).map(" ".join)


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
        (ref,) = det.refs
        assert ref["global_index"] == 3
        assert ref["labels"] == ["3"]
        assert ref["neighbors"] == [2, 4, 5]
        assert len(ref["spans"]) == 1
        assert det.candidate_indices == [2, 4, 5]

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
        assert [r["global_index"] for r in det.refs] == [1, 3]
        # sentence 2 neighbors both refs but appears once
        assert det.candidate_indices == [0, 2, 4]

    def test_minicorpus_layout(self, mini_articles):
        for article in mini_articles:
            det = pipeline.detect_article(article, window=2)
            assert [r["global_index"] for r in det.refs] == [2, 3, 5]
            assert det.candidate_indices == [4, 6]

    def test_custom_pattern_narrows_refs(self, mini_articles):
        det = pipeline.detect_article(
            mini_articles[0], window=2, pattern=r"\bnevermatch(\d+)"
        )
        assert det.refs == []
        assert det.candidate_indices == []

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
        st.sampled_from(
            [
                None,
                r"^fig\.?\s*(\d+)",
                r"(?<=see )fig\.?\s*(\d+)",
                r"fig\s*(\d+)$",
                r"(x*)",  # matches, empty, in every sentence
            ]
        ),
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
    return calibrate(refs, ScoringConfig())


class TestScoreCandidates:
    def test_rows_sorted_and_complete(self, mini_articles, resources, table):
        rows = pipeline.score_candidates(
            mini_articles, resources, table, ScoringConfig()
        )
        keys = [(r.uid, r.global_index) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 40  # two candidates per article
        for r in rows:
            assert r.global_index in (4, 6)
            assert r.weight >= 0.0
            assert r.text
            assert r.tmr.sentence_ref == r.global_index

    def test_uid_order_whatever_the_input_order(self, mini_articles, resources, table):
        in_order = pipeline.score_candidates(mini_articles, resources, table, ScoringConfig())
        reverse = iter(mini_articles[::-1])
        assert pipeline.score_candidates(reverse, resources, table, ScoringConfig()) == in_order

    def test_unknown_elements_score_zero(self, mini_articles, resources):
        empty = WeightTable({}, {}, 0.0, (0, 0, 0))
        rows = pipeline.score_candidates(
            mini_articles, resources, empty, ScoringConfig()
        )
        assert all(r.weight == 0.0 for r in rows)


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
