import json
import random

import pytest

from figdesc.corpus import ParsedSentence, Token, attach_parses, load_article_json
from figdesc.errors import AlignmentError
from figdesc.ontology import (
    UNKNOWN,
    ConceptSense,
    LexEntry,
    OntologyGraph,
    PropertySense,
    load_ontology,
)
from figdesc.scoring import (
    DEFAULT_EXCLUDED_CONCEPTS,
    DEFAULT_EXCLUDED_PROPERTIES,
    WeightTable,
    element_contributions,
)
from figdesc.tmr import (
    CONCEPT,
    PROPERTY,
    SvoFrame,
    Tmr,
    _choose_assignment,
    build_sentence_tmr,
    build_tmr,
    extract_frames,
    is_chemical_token,
    load_gazetteer,
    tmr_to_json,
)

from .helpers import REF_PARSE_ROWS, REF_TEXT, make_sentence, parse_rows, parsed_sentence
from .test_acceptance import _oracle_choose


def names(tmr, kind=None):
    return [e.name for e in tmr.elements if kind is None or e.kind == kind]


def elements(tmr):
    """The representation's (kind, name, distance) elements, sorted."""
    return sorted((e.kind, e.name, e.distance) for e in tmr.elements)


class TestChemicalDetection:
    GAZ = frozenset({"water", "graphene"})

    def test_gazetteer_hit_case_insensitive(self):
        assert is_chemical_token("Graphene", self.GAZ)
        assert is_chemical_token("water", self.GAZ)

    def test_formula_with_digits(self):
        assert is_chemical_token("TiO2", frozenset())
        assert is_chemical_token("CO2", frozenset())
        assert is_chemical_token("H2", frozenset())

    def test_multi_unit_formula_without_digits(self):
        assert is_chemical_token("NaCl", frozenset())
        assert is_chemical_token("GaAs", frozenset())
        assert is_chemical_token("CO", frozenset())

    def test_lone_symbol_rejected(self):
        # "He" and "In" are usually just words
        assert not is_chemical_token("He", frozenset())
        assert not is_chemical_token("In", frozenset())

    def test_fake_symbols_rejected(self):
        assert not is_chemical_token("DNA", frozenset())
        assert not is_chemical_token("Xz9", frozenset())

    def test_ordinary_words_rejected(self):
        assert not is_chemical_token("Count", frozenset())
        assert not is_chemical_token("peak", frozenset())
        assert not is_chemical_token("NaCl-doped", frozenset())  # symbols, but no formula

    def test_gazetteer_loader(self):
        gaz = load_gazetteer("# comment\nwater\n\n tio2 \n")
        assert gaz == frozenset({"water", "tio2"})

    def test_gazetteer_rejects_uppercase(self):
        from figdesc.errors import SchemaError

        with pytest.raises(SchemaError, match="line 2"):
            load_gazetteer("water\nTiO2\n")


class TestFrameExtraction:
    def test_svo_frame(self):
        parsed = parse_rows(REF_PARSE_ROWS)
        (frame,) = extract_frames(parsed)
        assert frame.verb.form == "shows"
        assert frame.subject.form == "Figure"
        assert frame.obj.form == "position"
        assert [(m.form, a.form) for m, a in frame.modifiers] == [("flat", "position")]
        assert not frame.passive()

    def test_passive_subject(self):
        rows = [
            (1, "A", "a", "DET", 2, "det"),
            (2, "peak", "peak", "NOUN", 4, "nsubjpass"),
            (3, "is", "be", "AUX", 4, "aux"),
            (4, "observed", "observe", "VERB", 0, "root"),
            (5, ".", ".", "PUNCT", 4, "punct"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        assert frame.subject.form == "peak"
        assert frame.obj is None
        assert frame.passive()

    def test_one_frame_per_verb(self):
        rows = [
            (1, "It", "it", "PRON", 2, "nsubj"),
            (2, "rises", "rise", "VERB", 0, "root"),
            (3, "and", "and", "CCONJ", 4, "cc"),
            (4, "falls", "fall", "VERB", 2, "conj"),
            (5, ".", ".", "PUNCT", 2, "punct"),
        ]
        frames = extract_frames(parse_rows(rows))
        assert [f.verb.form for f in frames] == ["rises", "falls"]
        assert frames[0].subject.form == "It"
        assert frames[1].subject is None

    def test_chemical_tokens_flagged(self):
        rows = [
            (1, "TiO2", "tio2", "NOUN", 2, "nsubj"),
            (2, "absorbs", "absorb", "VERB", 0, "root"),
            (3, "light", "light", "NOUN", 2, "obj"),
            (4, ".", ".", "PUNCT", 2, "punct"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        assert frame.chemical_tokens == frozenset({1})

    def test_the_first_of_two_subjects_and_objects_is_taken(self):
        rows = [
            (1, "Curves", "curve", "NOUN", 3, "nsubj"),
            (2, "bands", "band", "NOUN", 3, "nsubj"),
            (3, "show", "show", "VERB", 0, "root"),
            (4, "peaks", "peak", "NOUN", 3, "obj"),
            (5, "dips", "dip", "NOUN", 3, "obj"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        assert (frame.subject.form, frame.obj.form) == ("Curves", "peaks")

    def test_the_verb_is_never_its_own_dependent(self):
        # A parse is a tree over its positions, so no verb heads itself or
        # hangs from its own dependent: such a parse is rejected, built by
        # hand or read from a sidecar whose ids are out of order.
        for deprel in ("nsubj", "obj", "amod"):
            with pytest.raises(AlignmentError, match="^parse: expected exactly one root token"):
                ParsedSentence((Token(1, "v", "v", "VERB", 1, deprel),))
        cases = [
            ([(1, "v", "v", "VERB", 1, "amod"), (2, "r", "r", "NOUN", 0, "root")],
             "parse: token 1 heads itself"),
            ([(1, "v", "v", "VERB", 2, "amod"), (2, "s", "s", "NOUN", 1, "nsubj"),
              (3, "r", "r", "NOUN", 0, "root")],
             "parse: head cycle at token 1"),
            ([(1, "figure", "figure", "NOUN", 2, "nsubj"), (2, "shows", "show", "VERB", 0, "root"),
              (1, "small", "small", "ADJ", 2, "amod")],
             "parse: token id 1 at position 3"),
        ]
        for rows, message in cases:
            with pytest.raises(AlignmentError, match=f"^{message}$"):
                parse_rows(rows)
        article = load_article_json(json.dumps({"uid": "X", "title": "", "body": [["a v"]]}))
        sidecar = "2\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n1\tv\tv\tVERB\t_\t_\t1\tamod\t_\t_\n"
        with pytest.raises(AlignmentError, match="^CoNLL-U line 1: token id 2 at position 1$"):
            attach_parses(article, sidecar)


class TestGoldenSentence:
    """The worked example: 'Figure 1 shows the flat band position.'"""

    @pytest.fixture()
    def tmr(self, resources):
        sent = parsed_sentence(REF_TEXT, REF_PARSE_ROWS, global_index=7)
        return build_sentence_tmr(
            sent,
            resources.graph,
            resources.gazetteer,
            resources.synsets,
            resources.embeddings,
        )

    def test_element_multiset(self, tmr):
        assert elements(tmr) == [
            (CONCEPT, "DRAWING", 1),
            (CONCEPT, "GRAPHICAL-REPRESENTATION", 2),
            (CONCEPT, "INFORMATION-OBJECT", 3),
            (CONCEPT, "SHOW-INFORMATION", 1),
            (CONCEPT, "SOCIAL-OBJECT", 4),
            # one placeholder per unexpressed bearer and one for the missing value
            (CONCEPT, UNKNOWN, 1),
            (CONCEPT, UNKNOWN, 1),
            (CONCEPT, UNKNOWN, 1),
            (PROPERTY, "AGENT", 1),
            (PROPERTY, "DIRECTIONALITY", 1),
            (PROPERTY, "GEOMETRIC-ASPECT", 1),
            (PROPERTY, "THEME", 1),
        ]

    def test_ambiguous_figure_resolves_by_priority(self, tmr):
        got = names(tmr, CONCEPT)
        assert "DRAWING" in got
        assert "NUMBER" not in got
        assert "PERSON" not in got

    def test_agent_edge(self, tmr):
        assert ("SHOW-INFORMATION", "AGENT", "DRAWING") in tmr.edges

    def test_unexpressed_bearer_completed_with_placeholders(self, tmr):
        assert ("SHOW-INFORMATION", "THEME", "UNKNOWN") in tmr.edges
        assert ("UNKNOWN", "GEOMETRIC-ASPECT", "UNKNOWN") in tmr.edges
        assert ("UNKNOWN", "DIRECTIONALITY", "horizontal") in tmr.edges

    def test_placeholders_never_reach_scoring_elements(self, tmr):
        assert any(e.name == UNKNOWN for e in tmr.elements)
        table = WeightTable({}, {}, 0.0, (0, 0, 0))
        # No exclusion set names UNKNOWN: the placeholder is dropped on its own.
        excluded = {CONCEPT: DEFAULT_EXCLUDED_CONCEPTS, PROPERTY: DEFAULT_EXCLUDED_PROPERTIES}
        assert all(UNKNOWN not in pool for pool in excluded.values())
        scored = element_contributions(tmr.elements, table)
        included = [e for e in elements(tmr) if e[1] not in excluded[e[0]]]
        assert any(e[1] == UNKNOWN for e in included)
        assert [key for key, _ in scored] == [e for e in included if e[1] != UNKNOWN]

    def test_sentence_ref(self, tmr):
        assert tmr.sentence_ref == 7


class TestBuildTmr:
    def test_active_svo_with_anchored_modifiers(self, resources):
        rows = [
            (1, "The", "the", "DET", 3, "det"),
            (2, "sharp", "sharp", "ADJ", 3, "amod"),
            (3, "peak", "peak", "NOUN", 4, "nsubj"),
            (4, "decreases", "decrease", "VERB", 0, "root"),
            (5, "rapidly", "rapidly", "ADV", 4, "advmod"),
            (6, ".", ".", "PUNCT", 4, "punct"),
        ]
        sent = parsed_sentence("The sharp peak decreases rapidly.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        got = set(elements(tmr))
        assert (CONCEPT, "DECREASE", 1) in got
        assert (CONCEPT, "CHANGE-EVENT", 2) in got
        assert (CONCEPT, "PEAK", 1) in got
        assert (CONCEPT, "GEOMETRIC-FIGURE", 2) in got
        # modifier anchored on a grounded subject names it as bearer
        assert ("PEAK", "SHAPE", "polygonal") in tmr.edges
        # verb-anchored adverb names the event as bearer
        assert ("DECREASE", "SPEED", "fast") in tmr.edges

    def test_valueless_attribute_with_an_expressed_bearer(self, resources):
        # "color" evokes COLOR with no value: its bearer points at UNKNOWN,
        # with one placeholder for the value, whether the bearer is the event
        # or the concept of the subject
        as_verb_modifier = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "peak", "peak", "NOUN", 3, "nsubj"),
            (3, "decreases", "decrease", "VERB", 0, "root"),
            (4, "color", "color", "NOUN", 3, "advmod"),
            (5, ".", ".", "PUNCT", 3, "punct"),
        ]
        as_subject_modifier = [
            (1, "The", "the", "DET", 3, "det"),
            (2, "color", "color", "NOUN", 3, "amod"),
            (3, "peak", "peak", "NOUN", 4, "nsubj"),
            (4, "decreases", "decrease", "VERB", 0, "root"),
            (5, ".", ".", "PUNCT", 4, "punct"),
        ]
        for rows, bearer in ((as_verb_modifier, "DECREASE"), (as_subject_modifier, "PEAK")):
            text = " ".join(row[1] for row in rows)
            tmr = build_sentence_tmr(parsed_sentence(text, rows), resources.graph)
            assert (bearer, "COLOR", UNKNOWN) in tmr.edges
            assert [edge for edge in tmr.edges if edge[1] == "COLOR"] == [
                (bearer, "COLOR", UNKNOWN)
            ]
            assert names(tmr, CONCEPT).count(UNKNOWN) == 1
            assert names(tmr, PROPERTY).count("COLOR") == 1

    def test_information_theme_promotion(self, resources):
        rows = [
            (1, "A", "a", "DET", 2, "det"),
            (2, "peak", "peak", "NOUN", 4, "nsubjpass"),
            (3, "is", "be", "AUX", 4, "aux"),
            (4, "observed", "observe", "VERB", 0, "root"),
            (5, ".", ".", "PUNCT", 4, "punct"),
        ]
        sent = parsed_sentence("A peak is observed.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        # passive subject takes the theme role; PEAK descends from
        # INFORMATION-OBJECT, so the role specializes
        assert ("OBSERVE", "THEME-INFORMATION", "PEAK") in tmr.edges
        assert (PROPERTY, "THEME-INFORMATION", 1) in elements(tmr)
        assert "AGENT" not in names(tmr)

    def test_unknown_verb_resolved_through_synonyms(self, resources):
        rows = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "graph", "graph", "NOUN", 3, "nsubj"),
            (3, "indicates", "indicate", "VERB", 0, "root"),
            (4, "a", "a", "DET", 5, "det"),
            (5, "trend", "trend", "NOUN", 3, "obj"),
            (6, ".", ".", "PUNCT", 3, "punct"),
        ]
        assert resources.graph.senses("indicate", "VERB") == []
        sent = parsed_sentence("The graph indicates a trend.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        assert (CONCEPT, "SHOW-INFORMATION", 1) in elements(tmr)

    def test_unknown_verb_resolved_through_synonyms_without_embeddings(self, resources):
        rows = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "graph", "graph", "NOUN", 3, "nsubj"),
            (3, "indicates", "indicate", "VERB", 0, "root"),
            (4, ".", ".", "PUNCT", 3, "punct"),
        ]
        sent = parsed_sentence("The graph indicates.", rows)
        # "indicate" has no lexicon entry; its first synonym, "show", has one
        assert resources.synsets.ordered_synonyms("indicate")[0] == "show"
        tmr = build_sentence_tmr(sent, resources.graph, resources.gazetteer, resources.synsets)
        assert (CONCEPT, "SHOW-INFORMATION", 1) in elements(tmr)
        assert any(edge[:2] == ("SHOW-INFORMATION", "AGENT") for edge in tmr.edges)

    def test_unknown_verb_without_resources_stays_ungrounded(self, resources):
        rows = [
            (1, "It", "it", "PRON", 2, "nsubj"),
            (2, "indicates", "indicate", "VERB", 0, "root"),
            (3, ".", ".", "PUNCT", 2, "punct"),
        ]
        sent = parsed_sentence("It indicates.", rows)
        tmr = build_sentence_tmr(sent, resources.graph, resources.gazetteer)
        assert tmr.unmappable
        (frame,) = extract_frames(sent.parse)
        assert build_tmr(frame, resources.graph) == Tmr(-1, [], [], unmappable=True)

    def test_chemical_maps_straight_to_concept(self, resources):
        rows = [
            (1, "TiO2", "tio2", "NOUN", 2, "nsubj"),
            (2, "shows", "show", "VERB", 0, "root"),
            (3, "absorption", "absorption", "NOUN", 2, "obj"),
            (4, ".", ".", "PUNCT", 2, "punct"),
        ]
        sent = parsed_sentence("TiO2 shows absorption.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        got = elements(tmr)
        assert (CONCEPT, "CHEMICAL", 1) in got
        assert (CONCEPT, "PHYSICAL-OBJECT", 2) in got
        assert ("SHOW-INFORMATION", "AGENT", "CHEMICAL") in tmr.edges

    def test_event_only_attribute_object_is_skipped(self, resources):
        # SPEED applies to no object concept, so a bearerless completion
        # cannot be built; the token stays out of the representation
        rows = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "graph", "graph", "NOUN", 3, "nsubj"),
            (3, "shows", "show", "VERB", 0, "root"),
            (4, "the", "the", "DET", 5, "det"),
            (5, "speed", "speed", "NOUN", 3, "obj"),
            (6, ".", ".", "PUNCT", 3, "punct"),
        ]
        sent = parsed_sentence("The graph shows the speed.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        assert "SPEED" not in names(tmr)
        assert names(tmr, CONCEPT).count("UNKNOWN") == 0

    def test_properties_stand_alone_without_event(self, resources):
        rows = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "curves", "curve", "NOUN", 3, "nsubj"),
            (3, "keep", "keep", "VERB", 0, "root"),
            (4, "the", "the", "DET", 6, "det"),
            (5, "same", "same", "ADJ", 6, "amod"),
            (6, "shape", "shape", "NOUN", 3, "obj"),
            (7, ".", ".", "PUNCT", 3, "punct"),
        ]
        sent = parsed_sentence("The curves keep the same shape.", rows)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        got = elements(tmr)
        assert (CONCEPT, "CURVE", 1) in got
        assert (PROPERTY, "SHAPE", 1) in got
        # no grounded verb: no event concept, no case roles
        assert all(k != CONCEPT or resources.graph.root_of(n) != "EVENT" for k, n, _ in got)
        assert "AGENT" not in names(tmr) and "THEME" not in names(tmr)

    def test_a_verb_grounded_as_an_object_bears_no_modifier(self):
        """A verb's modifier describes its event; a verb sense under OBJECT has
        none, so the modifier's attribute stands alone."""
        graph = load_ontology(
            "concept WAVE is-a OBJECT\n"
            "property SIZE kind attribute values small\n"
            "lex wave pos VERB -> concept WAVE\n"
            "lex hugely pos ADV -> property SIZE=small\n"
        )
        rows = [
            (1, "waves", "wave", "VERB", 0, "root"),
            (2, "hugely", "hugely", "ADV", 1, "advmod"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        tmr = build_tmr(frame, graph)
        assert elements(tmr) == [(CONCEPT, "WAVE", 1), (PROPERTY, "SIZE", 1)]
        assert tmr.edges == []

    def test_non_attribute_slot_property_stands_alone(self):
        """A subject whose sense is a case role is not completed as an attribute."""
        graph = load_ontology(
            "concept MEASURE is-a EVENT\nconcept SAMPLE is-a OBJECT\n"
            "lex measure pos VERB -> concept MEASURE\n"
            "lex agent pos NOUN -> property AGENT\n"
            "lex sample pos NOUN -> concept SAMPLE\n"
        )
        rows = [
            (1, "The", "the", "DET", 2, "det"),
            (2, "agent", "agent", "NOUN", 3, "nsubj"),
            (3, "measures", "measure", "VERB", 0, "root"),
            (4, "Fig.", "fig.", "NOUN", 6, "compound"),
            (5, "1", "1", "NUM", 4, "nummod"),
            (6, "sample", "sample", "NOUN", 3, "obj"),
            (7, ".", ".", "PUNCT", 3, "punct"),
        ]
        sent = parsed_sentence("The agent measures Fig. 1 sample.", rows)
        tmr = build_sentence_tmr(sent, graph)
        assert elements(tmr) == [
            (CONCEPT, "MEASURE", 1),
            (CONCEPT, "SAMPLE", 1),
            (PROPERTY, "AGENT", 1),
            (PROPERTY, "THEME", 1),
        ]
        assert tmr.edges == [("MEASURE", "THEME", "SAMPLE")]

    def test_unparsed_sentence_is_unmappable(self, resources):
        from .helpers import make_sentence

        tmr = build_sentence_tmr(make_sentence("No parse here."), resources.graph)
        assert tmr.unmappable
        assert tmr.elements == []


class TestSenseSearch:
    AMBIG = """\
concept ANIMAL is-a OBJECT
concept MACHINE is-a OBJECT
concept RUN-EVENT is-a EVENT
property GAIT kind attribute values smooth,ragged domain ANIMAL
lex crane pos noun -> concept MACHINE
lex crane pos noun -> concept ANIMAL
lex lope pos verb -> concept RUN-EVENT
lex ragged pos adj -> property GAIT=ragged
"""

    def test_relations_beat_priority(self):
        graph = load_ontology(self.AMBIG)
        rows = [
            (1, "The", "the", "DET", 3, "det"),
            (2, "ragged", "ragged", "ADJ", 3, "amod"),
            (3, "crane", "crane", "NOUN", 4, "nsubj"),
            (4, "lopes", "lope", "VERB", 0, "root"),
            (5, ".", ".", "PUNCT", 4, "punct"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        tmr = build_tmr(frame, graph)
        # MACHINE has the better priority but satisfies one relation fewer
        assert "ANIMAL" in names(tmr, CONCEPT)
        assert "MACHINE" not in names(tmr, CONCEPT)
        assert ("ANIMAL", "GAIT", "ragged") in tmr.edges

    def test_a_verbs_modifier_relates_only_to_an_event(self):
        # SIZE fits the object sense WAVE, but build_tmr hangs a verb's
        # modifier on the verb's event alone, so that fit is no relation
        graph = load_ontology(
            "concept WAVE is-a OBJECT\nconcept SWAY is-a EVENT\n"
            "property SPEED kind attribute values fast domain SWAY\n"
            "property SIZE kind attribute values small\n"
            "lex wave pos verb -> concept WAVE\nlex wave pos verb -> concept SWAY\n"
            "lex hugely pos adv -> property SPEED=fast\n"
            "lex hugely pos adv -> property SIZE=small\n"
        )
        rows = [
            (1, "waves", "wave", "VERB", 0, "root"),
            (2, "hugely", "hugely", "ADV", 1, "advmod"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        tmr = build_tmr(frame, graph)
        assert names(tmr, CONCEPT) == ["SWAY"]
        assert tmr.edges == [("SWAY", "SPEED", "fast")]
        # with the object sense alone, the preferred SPEED stands unrelated
        options = {1: graph.senses("wave", "VERB")[:1], 2: graph.senses("hugely", "ADV")}
        assert _choose_assignment(options, frame, graph)[2].sense == PropertySense("SPEED", "fast")

    def test_tie_prefers_lower_priority_sum(self, resources):
        (frame,) = extract_frames(parse_rows(REF_PARSE_ROWS))
        chosen = _choose_assignment(
            {1: resources.graph.senses("figure", "NOUN")}, frame, resources.graph
        )
        assert chosen[1].sense == ConceptSense("DRAWING")

    def test_an_event_sense_deep_in_a_large_product_is_found(self):
        graph = load_ontology("concept THING is-a OBJECT\nconcept RUN is-a EVENT\n")
        rows = [
            (1, "a", "a", "NOUN", 2, "nsubj"),
            (2, "go", "go", "VERB", 0, "root"),
            (3, "b", "b", "NOUN", 2, "obj"),
            (4, "c", "c", "ADJ", 1, "amod"),
            (5, "d", "d", "ADJ", 3, "amod"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        noun_pool = [LexEntry("w", "NOUN", ConceptSense("THING"), p) for p in range(11)]
        verb_pool = [LexEntry("go", "VERB", ConceptSense("THING"), p) for p in range(11)]
        verb_pool[10] = LexEntry("go", "VERB", ConceptSense("RUN"), 10)
        # 11^5 combinations: the event sense at priority 10 wins, since it
        # alone lets the subject and object fill case roles
        options = {1: noun_pool, 2: verb_pool, 3: noun_pool, 4: noun_pool, 5: noun_pool}
        chosen = _choose_assignment(options, frame, graph)
        assert chosen[2].sense == ConceptSense("RUN")
        assert all(chosen[i].priority == 0 for i in (1, 3, 4, 5))

    def test_interleaved_frames_match_full_enumeration(self, resources):
        """Modifiers before their anchors, anchors without senses, tied
        priorities, non-event verbs and non-attribute properties."""
        rng = random.Random(25)
        for i in range(3000):
            frame, options = interleaved_frame(rng)
            want = _oracle_choose(options, frame, resources.graph)
            assert _choose_assignment(options, frame, resources.graph) == want, i

    @staticmethod
    def many_smalls(n):
        """"curve shows small ... small peak": n modifiers of two senses each."""
        rows = [(1, "curve", "curve", "NOUN", 2, "nsubj"), (2, "shows", "show", "VERB", 0, "root")]
        rows += [(3 + i, "small", "small", "ADJ", 2, "advmod") for i in range(n)]
        rows.append((3 + n, "peak", "peak", "NOUN", 2, "obj"))
        return parsed_sentence(" ".join(row[1] for row in rows), rows)

    @pytest.fixture()
    def applies(self, monkeypatch):
        """One entry per domain check the sense search makes; more than
        10,000 in one frame fail the test at once."""
        calls = []
        applies = OntologyGraph.attribute_applies

        def counted(graph, prop, bearer):
            calls.append(1)
            assert len(calls) <= 10_000, "the sense search is not linear"
            return applies(graph, prop, bearer)

        monkeypatch.setattr(OntologyGraph, "attribute_applies", counted)
        return calls

    def test_work_grows_linearly_with_the_modifiers(self, resources, applies):
        counts = []
        for n in (100, 200):
            applies.clear()
            tmr = build_sentence_tmr(self.many_smalls(n), resources.graph)
            assert (CONCEPT, "SHOW-INFORMATION", 1) in elements(tmr)
            counts.append(len(applies))
        assert 0 < 2 * counts[0] == counts[1]

    def test_work_grows_linearly_with_the_senses(self, applies):
        graph = load_ontology(
            "concept THING is-a OBJECT\nconcept RUN is-a EVENT\n"
            "property SIZE kind attribute values big domain THING\n"
        )
        rows = [
            (1, "a", "a", "NOUN", 2, "nsubj"),
            (2, "go", "go", "VERB", 0, "root"),
            (3, "b", "b", "NOUN", 2, "obj"),
            (4, "c", "c", "ADJ", 1, "amod"),
            (5, "d", "d", "ADV", 2, "advmod"),
            (6, "e", "e", "ADJ", 3, "amod"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        size = [LexEntry("big", "ADJ", PropertySense("SIZE", "big"), p) for p in range(2)]
        counts = []
        for n in (60, 300):
            nouns = [LexEntry("w", "NOUN", ConceptSense("THING"), p) for p in range(n)]
            verbs = [LexEntry("go", "VERB", ConceptSense(("THING", "RUN")[p % 2]), p) for p in range(n)]
            applies.clear()
            chosen = _choose_assignment(
                {1: nouns, 2: verbs, 3: nouns, 4: size, 5: size, 6: size}, frame, graph
            )
            assert [chosen[i].priority for i in range(1, 7)] == [0, 1, 0, 0, 0, 0]
            counts.append(len(applies))
        assert 0 < 5 * counts[0] == counts[1]


def interleaved_frame(rng):
    """A frame of up to seven tokens in random sentence order, and pools of
    two or three senses; a token has no pool one time in five. Anchors lean
    to concepts and modifiers to properties, and in half the frames every
    priority ties, so tied choices often differ in a modifier's pick."""
    concepts = ["SHOW-INFORMATION", "INCREASE", "CURVE", "PEAK", "NUMBER", "PERSON"]
    properties = ["SIZE", "QUANTITY", "SPEED", "AGENT", "CAUSED-BY"]
    priorities = [0] if rng.random() < 0.5 else [0, 1, 2]
    indices = rng.sample(range(1, 8), 7)
    verb = Token(indices.pop(), "v", "v", "VERB", 0, "root")
    frame = SvoFrame(verb=verb)
    if rng.random() < 0.8:
        frame.subject = Token(indices.pop(), "s", "s", "NOUN", verb.index, "nsubj")
    if rng.random() < 0.8:
        frame.obj = Token(indices.pop(), "o", "o", "NOUN", verb.index, "obj")
    anchors = [t for t in (verb, frame.subject, frame.obj) if t is not None]
    for _ in range(rng.randint(0, 4)):
        anchor = rng.choice(anchors)
        mod = Token(indices.pop(), "m", "m", "ADJ", anchor.index, "amod")
        frame.modifiers.append((mod, anchor))
    options = {}
    for token in anchors + [mod for mod, _ in frame.modifiers]:
        if rng.random() < 0.2:
            continue
        p_concept = 0.25 if token.upos == "ADJ" else 0.75
        options[token.index] = [
            LexEntry(
                token.lemma,
                token.upos,
                ConceptSense(rng.choice(concepts))
                if rng.random() < p_concept
                else PropertySense(rng.choice(properties)),
                rng.choice(priorities),
            )
            for _ in range(rng.randint(2, 3))
        ]
    return frame, options


class TestMergeAndSerialize:
    def test_merge_unions_elements_and_edges(self, resources):
        unparsed = make_sentence("No parse here.", 3)
        assert build_sentence_tmr(unparsed, resources.graph).unmappable

        # two verbs, two frames: the sentence holds the union of both
        rows = [
            (1, "peak", "peak", "NOUN", 2, "nsubj"),
            (2, "decreases", "decrease", "VERB", 0, "root"),
            (3, "curve", "curve", "NOUN", 4, "nsubj"),
            (4, "shows", "show", "VERB", 2, "conj"),
        ]
        sentence = parsed_sentence("peak decreases curve shows", rows, global_index=9)
        frames = extract_frames(sentence.parse)
        parts = [build_tmr(frame, resources.graph) for frame in frames]
        merged = build_sentence_tmr(sentence, resources.graph)
        assert len(parts) == 2 and all(part.elements for part in parts)
        assert merged.sentence_ref == 9
        assert not merged.unmappable
        assert merged.elements == parts[0].elements + parts[1].elements
        assert merged.edges == parts[0].edges + parts[1].edges

        # a parse whose frames ground nothing is unmappable
        nothing = parsed_sentence("zorp", [(1, "zorp", "zorp", "VERB", 0, "root")])
        assert build_sentence_tmr(nothing, resources.graph).unmappable

    def test_json_form_is_sorted(self, resources):
        sent = parsed_sentence(REF_TEXT, REF_PARSE_ROWS, global_index=4)
        tmr = build_sentence_tmr(
            sent, resources.graph, resources.gazetteer, resources.synsets, resources.embeddings
        )
        doc = tmr_to_json(tmr)
        assert doc["sentence"] == 4
        els = [(e["kind"], e["name"], e["distance"]) for e in doc["elements"]]
        assert els == sorted(els)
        assert doc["edges"] == sorted(doc["edges"])
