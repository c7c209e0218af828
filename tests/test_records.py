"""The package's record types keep the contract their dataclasses had.

Immutable records are NamedTuples, and the records that are mutated, weakly
referenced or iterate something else are slotted classes (corpus.Record).
Either kind names its fields in _fields.
"""

import pickle
import weakref

import pytest

from figdesc.baseline import TrainConfig
from figdesc.corpus import Article, Paragraph, Sentence, Token
from figdesc.figref import CandidateSet, FigRefMatch
from figdesc.lexres import SynsetLexicon
from figdesc.ontology import (
    Concept,
    ConceptSense,
    LexEntry,
    OntologyGraph,
    PropertyDef,
    PropertySense,
)
from figdesc.pipeline import ArticleDetection, Corpus, load_corpus_dir
from figdesc.tmr import SvoFrame, Tmr, TmrElement

from .helpers import MINI_CORPUS

PARAGRAPH = Paragraph(0, (Sentence(0, 0, 0, "A lens."),))

# One of each record that was a frozen dataclass.
FROZEN = [
    PARAGRAPH,
    Article("a1", "Title", "Abstract", (PARAGRAPH,), {"journal": "J"}),
    FigRefMatch(3, ("1", "2"), (0, 9)),
    CandidateSet(3, (2, 4)),
    SynsetLexicon({"show": (("show", "display"),)}),
    Concept("LENS", ("TOOL",), "OBJECT"),
    PropertyDef("SIZE", "ATTRIBUTE", ("small",), ("OBJECT",)),
    ConceptSense("LENS"),
    PropertySense("SIZE", "small"),
    LexEntry("lens", "NOUN", ConceptSense("LENS"), 0),
    Corpus("corpus", None),
    Corpus("corpus", {}),
    TrainConfig(),
]


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def kind(record) -> str:
    return type(record).__name__


@pytest.mark.parametrize("record", FROZEN, ids=kind)
class TestFrozenRecords:
    def test_every_field_rejects_assignment(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_equal_by_fields(self, record):
        assert record == type(record)(*values(record))
        for i in range(len(record._fields)):
            changed = list(values(record))
            changed[i] = object()
            assert record != type(record)(*changed)

    def test_hashed_by_fields(self, record):
        try:
            expected = hash(values(record))
        except TypeError:  # a dict field: unhashable, as the dataclass was
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_pickles(self, record):
        assert pickle.loads(pickle.dumps(record)) == record


class TestSlottedRecords:
    def test_corpus_iterates_articles_and_is_no_tuple(self):
        corpus = load_corpus_dir(MINI_CORPUS)
        assert not isinstance(corpus, tuple)
        articles = list(corpus)
        assert articles and all(isinstance(a, Article) for a in articles)
        assert [a.uid for a in corpus] == [a.uid for a in articles]

    def test_corpus_takes_exactly_its_fields(self):
        with pytest.raises(TypeError):
            Corpus("corpus")

    @pytest.mark.parametrize("record", [FROZEN[1], ArticleDetection("a1", [], [])], ids=kind)
    def test_weakly_referenceable(self, record):
        assert weakref.ref(record)() is record

    def test_mutable_records_take_assignment_and_fresh_lists(self):
        tmr, other = Tmr(1), Tmr(1)
        tmr.elements.append(TmrElement("CONCEPT", "LENS", 1))
        tmr.unmappable = True
        assert other.elements == [] and not other.unmappable
        frame = SvoFrame(Token(2, "shows", "show", "VERB", 0, "root"))
        frame.subject = Token(1, "Figure", "figure", "NOUN", 2, "nsubj")
        assert SvoFrame(frame.verb).modifiers is not frame.modifiers
        # and keep the lists they are given
        modifiers = [(frame.subject, frame.verb)]
        assert SvoFrame(frame.verb, modifiers=modifiers).modifiers is modifiers
        given = Tmr(1, [TmrElement("CONCEPT", "LENS", 1)], [("SHOW", "AGENT", "LENS")])
        assert given.elements == [("CONCEPT", "LENS", 1)]
        assert given.edges == [("SHOW", "AGENT", "LENS")]

    def test_mutable_records_equal_by_fields_and_are_unhashable(self):
        assert Tmr(1, [TmrElement("CONCEPT", "LENS", 1)]) == Tmr(1, [("CONCEPT", "LENS", 1)])
        assert Tmr(1) != Tmr(2)
        assert OntologyGraph({}, {}) == OntologyGraph({}, {}, {})
        with pytest.raises(TypeError):
            hash(Tmr(1))


class TestRepr:
    """As the dataclasses printed them; demos/03 prints a lexicon entry's sense."""

    @pytest.mark.parametrize(
        "record, text",
        [
            (ConceptSense("LENS"), "ConceptSense(concept='LENS')"),
            (PropertySense("COLOR"), "PropertySense(prop='COLOR', value=None)"),
            (
                LexEntry("lens", "NOUN", ConceptSense("LENS"), 0),
                "LexEntry(lemma='lens', pos='NOUN', sense=ConceptSense(concept='LENS'),"
                " priority=0)",
            ),
            (
                CandidateSet(3, (2, 4)),
                "CandidateSet(ref_global_index=3, neighbor_indices=(2, 4))",
            ),
            (Corpus("corpus", None), "Corpus(path='corpus', digests=None)"),
            (Tmr(7), "Tmr(sentence_ref=7, elements=[], edges=[], unmappable=False)"),
            (OntologyGraph({}, {}), "OntologyGraph(concepts={}, properties={}, lexicon={})"),
        ],
    )
    def test_repr(self, record, text):
        assert repr(record) == text
