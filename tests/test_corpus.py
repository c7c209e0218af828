import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from figdesc.corpus import (
    _SPLIT_RE,
    DEFAULT_ABBREVIATIONS,
    Article,
    Paragraph,
    ParsedSentence,
    Sentence,
    Token,
    attach_parses,
    decode_utf8,
    load_article_json,
    load_article_xml,
    read_conllu,
    segment_sentences,
)
from figdesc.errors import AlignmentError, ArticleParseError, FigdescError, SchemaError


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
        with pytest.raises(SchemaError, match="^article: missing field 'uid'$"):
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("title", 5, "article.title: must be a string"),
            ("abstract", [1], "article.abstract: must be a string"),
            ("metadata", 5, "article.metadata: must be an object"),
            ("metadata", {"year": "2019", "k": [1]}, "article.metadata['k']: must be a string"),
            ("uid", "", "article.uid: must be a non-empty string"),
            ("body", "x", "article.body: must be a list of string lists"),
            ("body_raw", [1], "article.body_raw: must be a list of strings"),
        ],
        ids=[
            "title", "abstract", "metadata", "metadata-value", "uid", "body", "body_raw",
        ],
    )
    def test_mistyped_field_names_it(self, field, value, message):
        doc = {"uid": "X", field: value}
        if not field.startswith("body"):
            doc["body"] = [["One."]]
        with pytest.raises(SchemaError) as e:
            load_article_json(json.dumps(doc))
        assert str(e.value) == message


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

    def test_body_without_para_rejected(self):
        # <p> is not a paragraph of this dialect: a body of them holds no <para>.
        with pytest.raises(SchemaError, match="^body: needs at least one <para>"):
            load_article_xml(b"<article><body><p>One here.</p></body></article>")


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
        assert [t.form for t in parsed.sentences()[0].parse.tokens if t.head == 0] == ["falls"]
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


# ---- oracle: the eager CoNLL-U loader that built every token on load ----

def _oracle_read_conllu(text):
    blocks = []
    current = []
    make_token = Token._make
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        if stripped.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise SchemaError(
                f"CoNLL-U line {lineno}: expected 10 tab-separated columns, got {len(cols)}"
            )
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue
        try:
            index = int(tok_id)
            head = int(cols[6])
        except ValueError as e:
            raise SchemaError(f"CoNLL-U line {lineno}: non-integer id or head") from e
        current.append(make_token((index, cols[1], cols[2], cols[3], head, cols[7])))
    if current:
        blocks.append(current)
    return blocks


def _oracle_validate_parse(tokens, global_index, text):
    if "".join([t.form for t in tokens]) != "".join(text.split()):
        raise AlignmentError(
            f"sentence {global_index}: token forms do not match sentence text"
        )
    n = len(tokens)
    heads = [t.head for t in tokens]
    n_roots = heads.count(0)
    if n_roots != 1:
        raise AlignmentError(
            f"sentence {global_index}: expected exactly one root token, got {n_roots}"
        )
    if min(heads) < 0 or max(heads) > n:
        bad = next(h for h in heads if not 0 <= h <= n)
        raise AlignmentError(f"sentence {global_index}: head {bad} out of range 0..{n}")
    return ParsedSentence(tuple(tokens))


def _oracle_attach_parses(article, parse_doc):
    if isinstance(parse_doc, bytes):
        parse_doc = decode_utf8(parse_doc, "parse sidecar")
    blocks = _oracle_read_conllu(parse_doc)
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
                    _oracle_validate_parse(next(remaining), s.global_index, s.text),
                )
                for s in p.sentences
            ),
        )
        for p in article.paragraphs
    )
    return Article(
        article.uid, article.title, article.abstract, paragraphs, article.metadata
    )


_FORMS = st.sampled_from(["Rain", "falls", ".", "x", "Ab", "ü", "42", "Fig."])
_BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t ", "\u00a0", "\u3000"])
_COMMENTS = st.sampled_from(["# sent_id = 1", "#", "  # text = x", "#\tcomment\twith\ttabs"])
# Spellings of a number that int() reads: spaces, a sign, non-ASCII digits.
_NUMBER_SPELLINGS = st.sampled_from(
    [
        str,
        lambda n: f" {n}",
        lambda n: f"{n} ",
        lambda n: f"+{n}",
        lambda n: str(n).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        lambda n: str(n).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    ]
)
# Lines that may come before a token line and are no token themselves.
_SKIPPED_LINES = st.sampled_from(
    [
        "{c}",
        "{i}-{j}\tcan't\t_\t_\t_\t_\t_\t_\t_\t_",
        "{i}.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
    ]
)


def _break_row(cols, n, fault):
    """Make one token line's columns break a rule of the loader."""
    if fault == "columns":
        if len(cols) == 10:
            cols.pop()  # 9 columns
        cols.append("_")  # or 11
        cols.append("_")
    elif fault == "nine-column-multiword":
        cols[:] = [f"{cols[0]}-9", "x", "_", "_", "_", "_", "_", "_", "_"]
    elif fault in ("root", "1.5", "", "٠.١"):  # not an integer
        cols[6] = fault
    elif fault == "negative-head":
        cols[6] = "-1"
    elif fault == "head-too-big":
        cols[6] = str(n + 1)
    elif fault == "extra-root":
        cols[6] = "0"
    elif fault == "form":
        cols[1] = cols[1][:-1] + "z"  # same length, other text


# A fault the line rule catches, or (three times as often) one the sentence checks catch.
_ROW_FAULTS = st.sampled_from(
    ["columns", "nine-column-multiword", "root", "1.5", "", "٠.١"]
    + ["negative-head", "head-too-big", "extra-root", "form"] * 3
)


@st.composite
def _sidecar_cases(draw):
    """(sentence texts, sidecar text): one block per sentence, with up to two faults."""
    sentences = draw(st.lists(st.lists(_FORMS, min_size=1, max_size=4), min_size=1, max_size=4))
    blocks = []  # per block: its lines, a token line being a list of columns
    token_lines = []  # (columns, token count of its block)
    for forms in sentences:
        n = len(forms)
        root = draw(st.integers(1, n))
        lines = draw(st.lists(_COMMENTS, max_size=1))
        for position, form in enumerate(forms, start=1):
            if draw(st.integers(0, 3)) == 0:
                line = draw(_SKIPPED_LINES)
                lines.append(line.format(c=draw(_COMMENTS), i=position, j=position + 1))
            head = 0 if position == root else draw(st.integers(1, n))
            spell = draw(_NUMBER_SPELLINGS) if draw(st.integers(0, 3)) == 0 else str
            cols = [spell(position), form, form.lower(), "X", "_", "_", spell(head), "dep", "_", "_"]
            lines.append(cols)
            token_lines.append((cols, n))
        blocks.append(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        cols, n = draw(st.sampled_from(token_lines))
        _break_row(cols, n, draw(_ROW_FAULTS))
    count_fault = draw(st.sampled_from([None] * 12 + ["drop", "repeat", "extra-sentence"]))
    if count_fault == "drop" and len(blocks) > 1:
        del blocks[draw(st.integers(0, len(blocks) - 1))]
    elif count_fault == "repeat":
        blocks.append(blocks[-1])
    elif count_fault == "extra-sentence":
        sentences.append(["More"])
    out = draw(st.lists(_BLANK_LINES, max_size=2))
    for i, lines in enumerate(blocks):
        if i:
            separator = draw(st.lists(st.one_of(_BLANK_LINES, _COMMENTS), max_size=3))
            # Without a blank line two blocks merge into one; let that happen now and then.
            if not draw(st.sampled_from([False] * 7 + [True])):
                separator.insert(draw(st.integers(0, len(separator))), draw(_BLANK_LINES))
            out += separator
        out += [line if isinstance(line, str) else "\t".join(line) for line in lines]
    out += draw(st.lists(st.one_of(_BLANK_LINES, _COMMENTS), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(out) + draw(st.sampled_from(["", newline]))
    return [" ".join(forms) for forms in sentences], text


def _outcome(attach, article, sidecar):
    try:
        return "ok", attach(article, sidecar)
    except FigdescError as e:
        return type(e), str(e)


# Faults the search draws seldom on an otherwise good sidecar.
_GOOD_ROWS = "1\tRain\train\tX\t_\t_\t0\tdep\t_\t_\r2\tfalls\tfall\tX\t_\t_\t1\tdep\t_\t_\r"


class TestLazyParsesMatchEagerOracle:
    @settings(max_examples=400, deadline=None)
    @given(_sidecar_cases())
    @example((["Rain falls", "Rain falls"], _GOOD_ROWS + "\r" + _GOOD_ROWS.replace("\t1\t", "\t-1\t")))
    @example((["Rain falls", "Rain falls"], _GOOD_ROWS + " \r#\r\r" + _GOOD_ROWS.replace("\t1\t", "\t0\t")))
    @example((["Rain falls", "Rain falls"], _GOOD_ROWS + "\r\u3000\r" + _GOOD_ROWS.replace("\t1\t", "\t3\t")))
    @example((["Rain falls", "Rain"], _GOOD_ROWS + "\r# x\r" + _GOOD_ROWS))
    # Ids and heads that are not str.isdecimal() but may still be ints, and one that is.
    @example((["Rain falls"], _GOOD_ROWS.replace("2\tfalls", "²\tfalls")))
    @example((["Rain falls"], _GOOD_ROWS.replace("\t1\t", "\t+1\t")))
    @example((["Rain falls"], _GOOD_ROWS.replace("2\tfalls", " 3\tfalls")))
    @example((["Rain falls ."], _GOOD_ROWS.replace("\t1\t", "\t٣\t") + "3\t.\t.\tX\t_\t_\t1\tdep\t_\t_"))
    def test_same_tokens_or_same_error(self, case):
        texts, sidecar = case
        article = load_article_json(json.dumps({"uid": "H", "body": [texts]}))
        expected = _outcome(_oracle_attach_parses, article, sidecar)
        got = _outcome(attach_parses, article, sidecar)
        if expected[0] != "ok":
            assert got == expected
            return
        assert got[0] == "ok", got
        pairs = list(zip(got[1].sentences(), expected[1].sentences(), strict=True))
        assert [s.parse.tokens for s, _ in pairs] == [o.parse.tokens for _, o in pairs]
        assert got[1] == expected[1]

    def test_tokens_are_built_on_first_use(self, monkeypatch):
        built = []
        make_token = Token._make

        def counting_make(iterable):
            token = make_token(iterable)
            built.append(token)
            return token

        monkeypatch.setattr(Token, "_make", counting_make)
        doc = {"uid": "L1", "body": [["Rain falls.", "It stops."]]}
        parsed = attach_parses(load_article_json(json.dumps(doc)), CONLLU_OK)
        assert built == []
        second = parsed.sentences()[1].parse
        tokens = second.tokens
        assert list(tokens) == built and len(built) == 3
        assert second.tokens is tokens
        assert list(tokens) == read_conllu(CONLLU_OK)[1]
        assert [t.form for t in tokens if t.head == 0] == ["stops"]
        assert second == ParsedSentence(tuple(read_conllu(CONLLU_OK)[1]))
        assert hash(second) == hash(ParsedSentence(second.tokens))
        assert repr(second).startswith("ParsedSentence(tokens=(Token(index=1, form='It'")
