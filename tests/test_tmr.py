import pytest

from figdesc.ontology import UNKNOWN, ConceptSense, LexEntry, load_ontology
from figdesc.scoring import (
    DEFAULT_EXCLUDED_CONCEPTS,
    DEFAULT_EXCLUDED_PROPERTIES,
    WeightTable,
    element_contributions,
)
from figdesc.tmr import (
    CONCEPT,
    PROPERTY,
    TmrElement,
    _choose_assignment,
    build_sentence_tmr,
    build_tmr,
    extract_frames,
    is_chemical_token,
    load_gazetteer,
    merge_tmrs,
    tmr_to_json,
)

from .helpers import REF_PARSE_ROWS, REF_TEXT, parse_rows, parsed_sentence


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

    def test_multi_unit_formula_without_digits(self):
        assert is_chemical_token("NaCl", frozenset())
        assert is_chemical_token("GaAs", frozenset())

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
        scored = element_contributions(tmr, table)
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

    def test_unknown_verb_without_resources_stays_ungrounded(self, resources):
        rows = [
            (1, "It", "it", "PRON", 2, "nsubj"),
            (2, "indicates", "indicate", "VERB", 0, "root"),
            (3, ".", ".", "PUNCT", 2, "punct"),
        ]
        sent = parsed_sentence("It indicates.", rows)
        tmr = build_sentence_tmr(sent, resources.graph, resources.gazetteer)
        assert tmr.unmappable

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

    def test_tie_prefers_lower_priority_sum(self, resources):
        (frame,) = extract_frames(parse_rows(REF_PARSE_ROWS))
        chosen = _choose_assignment(
            {1: resources.graph.senses("figure", "NOUN")}, frame, resources.graph
        )
        assert chosen[1].sense == ConceptSense("DRAWING")

    def test_oversized_product_truncates_sense_pools(self):
        graph = load_ontology("concept THING is-a OBJECT\nconcept RUN is-a EVENT\n")
        rows = [
            (1, "a", "a", "NOUN", 2, "nsubj"),
            (2, "go", "go", "VERB", 0, "root"),
            (3, "b", "b", "NOUN", 2, "obj"),
        ]
        (frame,) = extract_frames(parse_rows(rows))
        noun_pool = [LexEntry("w", "NOUN", ConceptSense("THING"), p) for p in range(11)]
        verb_pool = [LexEntry("go", "VERB", ConceptSense("THING"), p) for p in range(11)]
        verb_pool[5] = LexEntry("go", "VERB", ConceptSense("RUN"), 5)

        # 121 combinations: the full search finds the event sense buried at
        # priority 5 because it satisfies the subject case role
        small = _choose_assignment({1: noun_pool, 2: verb_pool}, frame, graph)
        assert small[2].sense == ConceptSense("RUN")

        # 11^5 combinations exceeds the search budget; pools are cut to
        # their three best-priority senses and the event sense is gone
        options = {
            1: noun_pool,
            2: verb_pool,
            3: list(noun_pool),
            4: list(noun_pool),
            5: list(noun_pool),
        }
        big = _choose_assignment(options, frame, graph)
        assert big[2].sense == ConceptSense("THING")
        assert all(big[i].priority == 0 for i in (1, 3, 4, 5))


class TestMergeAndSerialize:
    def test_merge_unions_elements_and_edges(self):
        a = merge_tmrs([], sentence_ref=3)
        assert a.unmappable

        t1 = merge_tmrs([], 0)
        t1.elements = [TmrElement(CONCEPT, "A", 1)]
        t1.edges = [("A", "IS-A", "B")]
        t2 = merge_tmrs([], 0)
        t2.elements = [TmrElement(PROPERTY, "P", 1)]
        merged = merge_tmrs([t1, t2], sentence_ref=9)
        assert merged.sentence_ref == 9
        assert not merged.unmappable
        assert len(merged.elements) == 2
        assert merged.edges == [("A", "IS-A", "B")]

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
