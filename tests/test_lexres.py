import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from figdesc import fixtures
from figdesc.errors import ArticleParseError, EmbeddingFormatError, OovError, SchemaError
from figdesc.lexres import (
    DEFAULT_TOP_K,
    EmbeddingStore,
    candidate_verb_lemmas,
    load_embeddings,
    load_synsets,
)

EMBEDDINGS = fixtures.fixture_path("embeddings.txt")


def searching_candidate_verb_lemmas(synsets, embeddings, verb, k):
    """Reference expansion that searches the neighbors of every embedded verb."""
    verb = verb.lower()
    syns = synsets.synonyms(verb)
    if verb not in embeddings:
        return synsets.ordered_synonyms(verb)
    return [w for w, _ in embeddings.top_k(verb, k) if w in syns]


class TestSynsets:
    SRC = '{"depict": [["show", "depict"], ["illustrate", "depict", "render"]]}'

    def test_synonyms_union_drops_self(self):
        lex = load_synsets(self.SRC)
        assert lex.synonyms("depict") == {"show", "illustrate", "render"}

    def test_ordered_synonyms(self):
        lex = load_synsets(self.SRC)
        assert lex.ordered_synonyms("depict") == ["show", "illustrate", "render"]

    def test_lookup_case_folds(self):
        lex = load_synsets(self.SRC)
        assert lex.synonyms("Depict") == lex.synonyms("depict")

    def test_missing_lemma_is_empty(self):
        lex = load_synsets(self.SRC)
        assert lex.synonyms("vanish") == set()
        assert lex.ordered_synonyms("vanish") == []

    def test_uppercase_key_rejected(self):
        with pytest.raises(SchemaError, match="lowercase"):
            load_synsets('{"Depict": [["show"]]}')

    def test_uppercase_member_rejected(self):
        with pytest.raises(SchemaError, match="lowercase"):
            load_synsets('{"depict": [["Show"]]}')

    def test_empty_synset_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            load_synsets('{"depict": [[]]}')

    @pytest.mark.parametrize("entry", ['"show"', '["show"]', '[["show", 5]]'])
    def test_mistyped_entry_names_the_lemma(self, entry):
        with pytest.raises(SchemaError) as e:
            load_synsets('{"show": [["display"]], "depict": %s}' % entry)
        assert str(e.value) == "synsets['depict']: must be a list of string lists"

    def test_malformed_json_reports_offset(self):
        with pytest.raises(ArticleParseError, match="^synsets: malformed JSON at offset 11"):
            load_synsets('{"depict": ')

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="object"):
            load_synsets("[1, 2]")


def store(rows):
    text = f"{len(rows)} {len(rows[0]) - 1}\n" + "\n".join(
        " ".join(str(c) for c in row) for row in rows
    )
    return load_embeddings(text)


class TestEmbeddings:
    def test_vector_roundtrip(self):
        st = store([("a", 1, 0), ("b", 0, 1), ("c", 1, 1)])
        assert st.dim == 2
        assert len(st) == 3
        assert "a" in st and "z" not in st
        assert [w for w, _ in st.top_k("a", 2)] == ["c", "b"]

    def test_top_k_gives_cosines(self):
        st = store([("a", 1, 0), ("b", 0, 1), ("c", 1, 1), ("d", 2, 0)])
        assert st.top_k("a", 3) == [("d", 1.0), ("c", pytest.approx(1 / np.sqrt(2))), ("b", 0.0)]

    def test_top_k_order_and_exclusion(self):
        st = store([("q", 1, 0), ("near", 0.9, 0.1), ("far", -1, 0), ("mid", 1, 1)])
        got = st.top_k("q", 2)
        assert [w for w, _ in got] == ["near", "mid"]
        assert all(w != "q" for w, _ in st.top_k("q", 10))

    def test_top_k_tie_breaks_lexicographically(self):
        st = store([("q", 1, 0), ("bb", 2, 0), ("aa", 3, 0), ("cc", 0, 1)])
        # aa and bb are both at cosine 1.0
        assert [w for w, _ in st.top_k("q", 2)] == ["aa", "bb"]

    def test_oov_raises(self):
        st = store([("a", 1, 0)])
        assert "zorp" not in st
        with pytest.raises(OovError, match="zorp"):
            st.top_k("zorp", 3)

    def test_zero_vector_is_similar_to_nothing(self):
        st = store([("z", 0, 0), ("a", 1, 0), ("b", 0, 1)])
        assert st.top_k("z", 2) == [("a", 0.0), ("b", 0.0)]
        assert st.top_k("a", 2) == [("b", 0.0), ("z", 0.0)]

    def test_duplicate_keeps_last(self, caplog):
        text = "3 2\nw 1 0\nu 0 1\nw 0 1\n"
        with caplog.at_level("WARNING"):
            st = load_embeddings(text)
        assert len(st) == 2
        assert st.top_k("u", 1) == [("w", 1.0)]
        assert "duplicate" in caplog.text

    def test_repeated_query_gets_a_new_equal_list(self):
        st = store([("q", 1, 0), ("near", 0.9, 0.1), ("far", -1, 0), ("mid", 1, 1)])
        first = st.top_k("q", 2)
        first.append(("extra", 1.0))
        first[0] = ("other", 0.5)
        again = st.top_k("q", 2)
        assert again == st.top_k("q", 2) == [("near", again[0][1]), ("mid", again[1][1])]
        assert again is not st.top_k("q", 2)
        assert st.top_k("q", 1) == again[:1]

    def test_bad_header(self):
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings("just-one-token\n")
        with pytest.raises(EmbeddingFormatError, match="two integers"):
            load_embeddings("a b\n")

    def test_wrong_column_count_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings("2 2\na 1 0\nb 1\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings("1 2\na x y\n")

    def test_non_finite_rejected(self):
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_embeddings("1 2\na inf 0\n")

    @pytest.mark.parametrize(
        "row, problem",
        [("1e200 1e200", "overflows"), ("1e-200 1e-200", "underflows to 0")],
    )
    def test_norm_out_of_range_names_line(self, row, problem):
        with pytest.raises(EmbeddingFormatError) as e:
            load_embeddings(f"3 2\nsmall 1 1\nbig {row}\nother 1 0.9\n")
        assert str(e.value) == f"line 3: vector norm {problem}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "row, problem",
        [([1e200, 1e200], "overflows"), ([1e-200, 1e-200], "underflows to 0")],
    )
    def test_norm_out_of_range_names_word_when_built_directly(self, row, problem):
        with pytest.raises(EmbeddingFormatError) as e:
            EmbeddingStore(2, {"small": [1.0, 1.0], "big": row, "other": [1.0, 0.9]})
        assert str(e.value) == f"word 'big': vector norm {problem}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_word_when_built_directly(self, value):
        with pytest.raises(EmbeddingFormatError) as e:
            EmbeddingStore(2, {"b": [1.0, 0.0], "a": [value, 0.0], "c": [0.0, 1.0]})
        assert str(e.value) == "word 'a': non-finite value"

    def test_non_finite_value_names_line_after_every_row_parses(self):
        with pytest.raises(EmbeddingFormatError) as e:
            load_embeddings("3 2\nb 1 0\na nan 0\nc 0 1\n")
        assert str(e.value) == "line 3: non-finite value"
        with pytest.raises(EmbeddingFormatError, match="line 4: expected 3 columns"):
            load_embeddings("3 2\nb 1 0\na nan 0\nc 0\n")

    @pytest.mark.parametrize("count", [-7, 3, 1], ids=["negative", "too-few-rows", "too-many-rows"])
    def test_header_count_must_match_the_rows(self, count):
        with pytest.raises(EmbeddingFormatError) as e:
            load_embeddings(f"{count} 2\na 1 0\n\nb 0 1\n")
        assert str(e.value) == f"line 1: header counts {count} rows, but 2 follow"

    def test_smallest_and_largest_norms_kept(self):
        st = load_embeddings("3 2\nsmall 1e-150 0\nbig 0 1e150\nzero 0 0\n")
        assert st.top_k("small", 2) == [("big", 0.0), ("zero", 0.0)]
        assert st.top_k("big", 1) == [("small", 0.0)]


def brute_force_top_k(pairs, k):
    """Reference ranking: similarity descending, then the word itself; k < 0 is 0."""
    return sorted(pairs, key=lambda p: (-p[1], p[0]))[: max(k, 0)]


def python_cosine(a, b):
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return math.fsum(x * y for x, y in zip(a, b)) / (na * nb)


# Two-dimensional vectors with small integer components: parallel and
# repeated vectors force exact similarity ties, and (0, 0) is a zero vector.
vocabularies = st.dictionaries(
    st.text(alphabet="abcd", min_size=1, max_size=3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    min_size=2,
    max_size=12,
)


# Up to 60 words over the same 25 vectors: most k strictly between 0 and
# n - 1 fall inside a run of tied words, which top_k ranks only in part.
large_vocabularies = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    min_size=8,
    max_size=60,
)


class TestTopKProperties:
    @staticmethod
    def check_against_oracle(vocab, query, k):
        emb = store([(w, *v) for w, v in vocab.items()])
        full = emb.top_k(query, len(vocab))
        assert sorted(w for w, _ in full) == sorted(set(vocab) - {query})
        for word, sim in full:
            assert sim == pytest.approx(python_cosine(vocab[query], vocab[word]), abs=1e-12)
        assert emb.top_k(query, k) == brute_force_top_k(full, k)

    @given(vocab=vocabularies, data=st.data())
    def test_matches_brute_force_oracle(self, vocab, data):
        query = data.draw(st.sampled_from(sorted(vocab)))
        self.check_against_oracle(vocab, query, data.draw(st.integers(-3, len(vocab) + 3)))

    @given(vocab=large_vocabularies, data=st.data())
    def test_matches_oracle_inside_the_vocabulary(self, vocab, data):
        query = data.draw(st.sampled_from(sorted(vocab)))
        self.check_against_oracle(vocab, query, data.draw(st.integers(1, len(vocab) - 2)))

    @given(vocab=vocabularies)
    def test_oov_query_raises(self, vocab):
        emb = store([(w, *v) for w, v in vocab.items()])
        with pytest.raises(OovError, match="zzz"):
            emb.top_k("zzz", 3)

    def test_exact_ties_and_zero_query(self):
        emb = store([("q", 0, 0), ("b", 1, 0), ("a", 0, 1), ("c", 2, 2)])
        assert emb.top_k("q", 5) == [("a", 0.0), ("b", 0.0), ("c", 0.0)]
        emb = store([("q", 1, 1), ("d", 2, 2), ("b", 1, 1), ("a", -1, -1)])
        assert [w for w, _ in emb.top_k("q", 3)] == ["b", "d", "a"]


class TestVerbExpansion:
    SYNS = '{"escalate": [["increase", "escalate", "surge"], ["climb", "escalate"]]}'

    def test_intersection_in_embedding_rank_order(self):
        lex = load_synsets(self.SYNS)
        st = store(
            [
                ("escalate", 1.0, 0.0),
                ("climb", 0.99, 0.05),
                ("increase", 0.9, 0.1),
                ("surge", -1.0, 0.0),
                ("noise", 0.95, 0.0),
            ]
        )
        # surge is a synonym but too far away to make top-3
        assert candidate_verb_lemmas(lex, st, "escalate", k=3) == ["climb", "increase"]

    def test_oov_verb_falls_back_to_synset_order(self):
        lex = load_synsets(self.SYNS)
        st = store([("increase", 1, 0)])
        assert candidate_verb_lemmas(lex, st, "escalate") == [
            "increase",
            "surge",
            "climb",
        ]

    def test_no_synonyms_yields_nothing(self):
        lex = load_synsets("{}")
        st = store([("mumble", 1, 0), ("talk", 0.9, 0.1)])
        assert candidate_verb_lemmas(lex, st, "mumble") == []

    def test_no_synonyms_skips_the_neighbor_search(self, monkeypatch):
        lex = load_synsets(self.SYNS)
        st = store([("mumble", 1, 0), ("climb", 0.9, 0.1)])
        calls = []
        monkeypatch.setattr(st, "top_k", lambda *args: calls.append(args) or [])
        assert candidate_verb_lemmas(lex, st, "mumble") == []
        assert candidate_verb_lemmas(lex, st, "Mumble", k=1) == []
        assert calls == []

    def test_every_bundled_verb_expands_as_with_every_search(self, resources):
        words = {line.split()[0] for line in EMBEDDINGS.read_text().splitlines()[1:]}
        synsets = resources.synsets.entries
        words |= set(synsets) | {lemma for sets in synsets.values() for s in sets for lemma in s}
        with_synonyms = {w for w in words if resources.synsets.synonyms(w)}
        assert with_synonyms and words - with_synonyms
        for verb in sorted(words):
            for k in (1, DEFAULT_TOP_K):
                expected = searching_candidate_verb_lemmas(
                    resources.synsets, resources.embeddings, verb, k
                )
                assert candidate_verb_lemmas(
                    resources.synsets, resources.embeddings, verb, k
                ) == expected, verb

    def test_fixture_resources_resolve_show_family(self, resources):
        got = candidate_verb_lemmas(resources.synsets, resources.embeddings, "depict")
        assert got, "expansion of a known synonym cluster came back empty"
        assert "show" in got
