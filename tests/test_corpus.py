import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc.corpus import (
    _SPLIT_RE,
    DEFAULT_ABBREVIATIONS,
    article_to_json,
    attach_parses,
    load_article_json,
    load_article_xml,
    read_conllu,
    segment_sentences,
)
from figdesc.errors import AlignmentError, ArticleParseError, SchemaError


# Reference segmenter: lowercases the whole prefix at every split candidate.
def _oracle_is_protected(text_upto_punct, abbreviations):
    lowered = text_upto_punct.lower()
    for abbr in abbreviations:
        if not lowered.endswith(abbr):
            continue
        before = len(lowered) - len(abbr)
        if before == 0 or not lowered[before - 1].isalpha():
            return True
    return False


def _oracle_segment(text, abbreviations=DEFAULT_ABBREVIATIONS):
    cuts = []
    for m in _SPLIT_RE.finditer(text):
        end = m.end()
        if text[end - 1] == "." and _oracle_is_protected(text[:end], abbreviations):
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


# Abbreviations in any case, with letters glued on either side, next to
# characters whose lowercase is longer (İ) or depends on context (Σ, whose
# final form ς differs from σ).
_ABBREVIATION_WORDS = st.sampled_from(DEFAULT_ABBREVIATIONS).flatmap(
    lambda abbr: st.lists(st.booleans(), min_size=len(abbr), max_size=len(abbr)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(abbr, upper))
    )
)
_GLUE = st.sampled_from(["", "a", "İ", "Σ", "K", "1", "-", "."])
_WORDS = st.one_of(
    st.tuples(_GLUE, _ABBREVIATION_WORDS).map("".join),
    st.text(alphabet="aEfFgGiIsSxXİΣσςK.", min_size=1, max_size=4),
    st.sampled_from(["3", "Then", "The", "x", "ΣΑΣ.", "A.Σ.", "İ.", "."]),
)
_CUSTOM_ABBREVIATIONS = st.lists(
    st.sampled_from(["σ.", "ς.", "i̇.", "k.", "fig.", ""]), max_size=3
)
_TEXTS = st.lists(
    st.tuples(_WORDS, st.sampled_from(["", " ", "  "])), max_size=14
).map(lambda parts: "".join(w + sep for w, sep in parts))


class TestSegmentation:
    def test_plain_split(self):
        text = "First sentence. Second one. Third here."
        assert segment_sentences(text) == [
            "First sentence.",
            "Second one.",
            "Third here.",
        ]

    def test_abbreviations_do_not_split(self):
        text = "See Fig. 3 for details. The peak in Figs. 1-2 is sharp."
        assert segment_sentences(text) == [
            "See Fig. 3 for details.",
            "The peak in Figs. 1-2 is sharp.",
        ]

    def test_et_al_and_eg(self):
        text = "Smith et al. Reported this effect. Some cases, e.g. Gold, differ."
        out = segment_sentences(text)
        assert out == [
            "Smith et al. Reported this effect.",
            "Some cases, e.g. Gold, differ.",
        ]

    def test_decimal_numbers_not_split(self):
        text = "The value was 3.5 K. It then rose."
        assert segment_sentences(text) == ["The value was 3.5 K.", "It then rose."]

    def test_split_requires_following_capital_or_digit(self):
        assert segment_sentences("version 2. of the tool") == ["version 2. of the tool"]
        assert segment_sentences("It ended. 3 runs followed.") == [
            "It ended.",
            "3 runs followed.",
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Why? Because. Look!") == ["Why?", "Because.", "Look!"]

    def test_abbreviation_needs_word_boundary(self):
        # "...misfig." is not the abbreviation "fig."
        out = segment_sentences("The misfig. Was corrected.")
        assert out == ["The misfig.", "Was corrected."]

    @given(
        st.lists(
            st.text(
                alphabet="abcdefgh XYZ",
                min_size=1,
                max_size=12,
            ).map(lambda s: ("X" + s.strip()).strip()),
            min_size=1,
            max_size=6,
        )
    )
    def test_rejoining_is_lossless(self, pieces):
        text = " ".join(p + "." for p in pieces)
        out = segment_sentences(text)
        assert " ".join(out).split() == text.split()

    @settings(max_examples=400)
    @given(_TEXTS)
    def test_matches_whole_prefix_oracle(self, text):
        assert segment_sentences(text) == _oracle_segment(text)

    @settings(max_examples=400)
    @given(_TEXTS, _CUSTOM_ABBREVIATIONS)
    def test_custom_abbreviations_match_oracle(self, text, abbreviations):
        assert segment_sentences(text, abbreviations) == _oracle_segment(
            text, tuple(abbreviations)
        )

    def test_capital_sigma_after_a_cased_letter(self):
        # "AΣ." lowercases to "aς." in context but "σ." alone: the tail alone
        # would wrongly protect the period as the abbreviation "σ.".
        assert segment_sentences("xA.Σ. Next", ("σ.",)) == ["xA.Σ.", "Next"]


class TestJsonLoader:
    def test_presegmented_body(self):
        doc = {
            "uid": "X1",
            "title": "t",
            "abstract": "a",
            "body": [["One here.", "Two here."], ["Three here."]],
        }
        art = load_article_json(json.dumps(doc))
        assert art.uid == "X1"
        assert [s.text for s in art.sentences()] == [
            "One here.",
            "Two here.",
            "Three here.",
        ]
        assert [s.global_index for s in art.sentences()] == [0, 1, 2]
        assert art.paragraphs[1].sentences[0].paragraph_index == 1
        assert art.paragraphs[1].sentences[0].index_in_paragraph == 0

    def test_raw_body_is_segmented(self):
        doc = {"uid": "X2", "body_raw": ["One here. Two here.", "Three here."]}
        art = load_article_json(json.dumps(doc))
        assert [s.text for s in art.sentences()] == [
            "One here.",
            "Two here.",
            "Three here.",
        ]

    def test_missing_uid_names_field(self):
        with pytest.raises(SchemaError, match="uid"):
            load_article_json(json.dumps({"body": [["A."]]}))

    def test_missing_body_names_field(self):
        with pytest.raises(SchemaError, match="body"):
            load_article_json(json.dumps({"uid": "X"}))

    def test_malformed_json_reports_offset(self):
        with pytest.raises(ArticleParseError, match="offset"):
            load_article_json(b'{"uid": "X", ')

    def test_empty_sentence_rejected(self):
        doc = {"uid": "X", "body": [["ok.", "  "]]}
        with pytest.raises(SchemaError, match=r"body\[0\]\[1\]"):
            load_article_json(json.dumps(doc))

    def test_roundtrip(self):
        doc = {
            "uid": "RT",
            "title": "T",
            "abstract": "A",
            "metadata": {"year": "2010"},
            "body": [["One here.", "Two here."]],
        }
        art = load_article_json(json.dumps(doc))
        assert article_to_json(art)["body"] == doc["body"]
        again = load_article_json(json.dumps(article_to_json(art)))
        assert again.uid == art.uid
        assert [s.text for s in again.sentences()] == [s.text for s in art.sentences()]


class TestXmlLoader:
    XML = b"""<article uid="AX">
      <title>A Title</title>
      <abstract>Short.</abstract>
      <body>
        <para>One here. Two here.</para>
        <para>Three here.</para>
      </body>
    </article>"""

    def test_basic(self):
        art = load_article_xml(self.XML)
        assert art.uid == "AX"
        assert art.title == "A Title"
        assert [s.text for s in art.sentences()] == [
            "One here.",
            "Two here.",
            "Three here.",
        ]

    def test_uid_defaults_to_content_hash(self):
        xml = b"<article><body><para>One here.</para></body></article>"
        art1 = load_article_xml(xml)
        art2 = load_article_xml(xml)
        assert art1.uid == art2.uid
        assert art1.uid.startswith("xml-")

    def test_wrong_root_rejected(self):
        with pytest.raises(SchemaError, match="article"):
            load_article_xml(b"<paper><body/></paper>")

    def test_missing_body_rejected(self):
        with pytest.raises(SchemaError, match="body"):
            load_article_xml(b"<article><title>t</title></article>")

    def test_malformed_xml_reports_position(self):
        with pytest.raises(ArticleParseError):
            load_article_xml(b"<article><body>")


CONLLU_OK = """\
1\tRain\train\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tfalls\tfall\tVERB\t_\t_\t0\troot\t_\t_
3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_

# a comment
1\tIt\tit\tPRON\t_\t_\t2\tnsubj\t_\t_
2\tstops\tstop\tVERB\t_\t_\t0\troot\t_\t_
3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""


class TestConllu:
    def test_reads_blocks(self):
        blocks = read_conllu(CONLLU_OK)
        assert len(blocks) == 2
        assert [t.form for t in blocks[0]] == ["Rain", "falls", "."]
        assert blocks[0][1].head == 0
        assert blocks[0][0].deprel == "nsubj"

    def test_skips_multiword_and_empty_ids(self):
        text = (
            "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tcan\tcan\tAUX\t_\t_\t0\troot\t_\t_\n"
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        blocks = read_conllu(text)
        assert len(blocks) == 1
        assert [t.form for t in blocks[0]] == ["can"]

    def test_column_count_error_has_line_number(self):
        with pytest.raises(SchemaError, match="line 1"):
            read_conllu("1\tonly\tthree\n")

    def test_attach_and_validate(self):
        doc = {"uid": "P1", "body": [["Rain falls.", "It stops."]]}
        art = load_article_json(json.dumps(doc))
        parsed = attach_parses(art, CONLLU_OK)
        assert parsed.sentences()[0].parse is not None
        assert parsed.sentences()[0].parse.root().form == "falls"
        # the original article object is untouched
        assert art.sentences()[0].parse is None

    def test_block_count_mismatch(self):
        doc = {"uid": "P2", "body": [["Rain falls."]]}
        art = load_article_json(json.dumps(doc))
        with pytest.raises(AlignmentError, match="2 blocks for 1 sentences"):
            attach_parses(art, CONLLU_OK)

    def test_form_text_mismatch_names_sentence(self):
        doc = {"uid": "P3", "body": [["Snow falls.", "It stops."]]}
        art = load_article_json(json.dumps(doc))
        with pytest.raises(AlignmentError, match="sentence 0"):
            attach_parses(art, CONLLU_OK)

    def test_multiple_roots_rejected(self):
        bad = (
            "1\tRain\train\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2\tfalls\tfall\tVERB\t_\t_\t0\troot\t_\t_\n"
            "3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n"
        )
        doc = {"uid": "P4", "body": [["Rain falls."]]}
        art = load_article_json(json.dumps(doc))
        with pytest.raises(AlignmentError, match="root"):
            attach_parses(art, bad)

    def test_head_out_of_range_rejected(self):
        bad = (
            "1\tGo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
            "2\tnow\tnow\tADV\t_\t_\t9\tadvmod\t_\t_\n"
        )
        doc = {"uid": "P5", "body": [["Go now"]]}
        art = load_article_json(json.dumps(doc))
        with pytest.raises(AlignmentError, match="head"):
            attach_parses(art, bad)
