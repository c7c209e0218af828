import json

import pytest

from figdesc.errors import (
    ArticleParseError,
    CompletionError,
    CycleError,
    IntegrityError,
    PreconditionError,
    SchemaError,
)
from figdesc.ontology import (
    BUILTIN_PROPERTIES,
    ROOT_EVENT,
    ROOT_OBJECT,
    UNKNOWN,
    ConceptSense,
    PropertySense,
    load_ontology,
)

SMALL = """\
# toy taxonomy
concept PHYSICAL-THING is-a OBJECT
concept TOOL is-a PHYSICAL-THING
concept LENS is-a TOOL,PHYSICAL-THING
concept MOTION is-a EVENT
property SIZE kind attribute values small,large domain PHYSICAL-THING
property SPEED kind attribute values slow,fast domain MOTION
property MOOD kind attribute values calm,tense
lex lens pos noun -> concept LENS
lex move pos verb -> concept MOTION
lex small pos adj -> property SIZE=small
lex quickly pos adv -> property SPEED=fast
lex lens pos noun -> concept TOOL
"""


@pytest.fixture(scope="module")
def small():
    return load_ontology(SMALL)


class TestGraphQueries:
    def test_roots_are_implicit(self, small):
        assert small.has_concept(ROOT_EVENT)
        assert small.has_concept(ROOT_OBJECT)
        assert small.root_of(ROOT_EVENT) == ROOT_EVENT

    def test_root_of(self, small):
        assert small.root_of("LENS") == ROOT_OBJECT
        assert small.root_of("MOTION") == ROOT_EVENT

    def test_ancestors_follow_first_parent(self, small):
        assert small.ancestors("LENS") == ["TOOL", "PHYSICAL-THING", "OBJECT"]
        assert small.ancestors("MOTION") == ["EVENT"]
        assert small.ancestors(ROOT_OBJECT) == []

    def test_ancestors_unknown_concept(self, small):
        with pytest.raises(IntegrityError, match="NOPE"):
            small.ancestors("NOPE")

    def test_builtin_properties_present(self, small):
        for name, kind in BUILTIN_PROPERTIES:
            assert small.properties[name].kind == kind

    def test_senses_priority_order(self, small):
        entries = small.senses("lens", "NOUN")
        assert [e.sense for e in entries] == [ConceptSense("LENS"), ConceptSense("TOOL")]
        assert [e.priority for e in entries] == [0, 1]

    def test_senses_case_folding(self, small):
        assert small.senses("Lens", "noun") == small.senses("lens", "NOUN")

    def test_senses_missing(self, small):
        assert small.senses("zorp", "NOUN") == []

    def test_explicit_priority_wins_ordering(self):
        g = load_ontology(
            SMALL + "lex gadget pos noun -> concept TOOL priority 5\n"
            "lex gadget pos noun -> concept LENS\n"
        )
        entries = g.senses("gadget", "NOUN")
        assert [(e.sense.concept, e.priority) for e in entries] == [
            ("TOOL", 5),
            ("LENS", 6),
        ]

    def test_equal_priorities_keep_declaration_order(self):
        g = load_ontology(
            SMALL + "lex gizmo pos noun -> concept LENS priority 3\n"
            "lex gizmo pos noun -> concept TOOL priority 1\n"
            "lex gizmo pos noun -> concept PHYSICAL-THING priority 3\n"
        )
        entries = g.senses("gizmo", "NOUN")
        assert [(e.sense.concept, e.priority) for e in entries] == [
            ("TOOL", 1),
            ("LENS", 3),
            ("PHYSICAL-THING", 3),
        ]

    def test_results_are_fresh_lists(self):
        g = load_ontology(SMALL)
        g.senses("lens", "NOUN").clear()
        g.ancestors("LENS").append("MOTION")
        assert [e.sense.concept for e in g.senses("lens", "NOUN")] == ["LENS", "TOOL"]
        assert g.ancestors("LENS") == ["TOOL", "PHYSICAL-THING", "OBJECT"]


class TestAttributeDomains:
    def test_unrestricted_applies_everywhere(self, small):
        assert small.attribute_applies("MOOD", "LENS")
        assert small.attribute_applies("MOOD", "MOTION")

    def test_domain_matches_via_ancestor(self, small):
        assert small.attribute_applies("SIZE", "LENS")
        assert not small.attribute_applies("SIZE", "MOTION")

    def test_domain_matches_self(self, small):
        assert small.attribute_applies("SPEED", "MOTION")
        assert not small.attribute_applies("SPEED", "LENS")


class TestPathCompletion:
    def test_with_bearer(self, small):
        path = small.complete_path("MOTION", PropertySense("SIZE", "small"), bearer="LENS")
        assert path == ["LENS", "SIZE", "small"]

    def test_without_bearer_inserts_placeholder(self, small):
        path = small.complete_path("MOTION", PropertySense("SIZE", "small"))
        assert path == ["MOTION", UNKNOWN, "SIZE", "small"]

    def test_missing_value_becomes_placeholder(self, small):
        path = small.complete_path("MOTION", PropertySense("SIZE"))
        assert path == ["MOTION", UNKNOWN, "SIZE", UNKNOWN]

    def test_event_only_domain_cannot_infer_bearer(self, small):
        with pytest.raises(CompletionError, match="SPEED"):
            small.complete_path("MOTION", PropertySense("SPEED", "fast"))

    def test_non_attribute_rejected(self, small):
        with pytest.raises(PreconditionError, match="AGENT"):
            small.complete_path("MOTION", PropertySense("AGENT"))

    def test_unknown_property_rejected(self, small):
        with pytest.raises(IntegrityError, match="WAT"):
            small.complete_path("MOTION", PropertySense("WAT"))

    def test_unknown_event_rejected(self, small):
        with pytest.raises(IntegrityError, match="NOPE"):
            small.complete_path("NOPE", PropertySense("SIZE"))


class TestValidation:
    def test_duplicate_concept(self):
        with pytest.raises(IntegrityError, match="duplicate concept"):
            load_ontology("concept A is-a OBJECT\nconcept A is-a OBJECT\n")

    def test_dangling_parent(self):
        with pytest.raises(IntegrityError, match="unknown parent GHOST"):
            load_ontology("concept A is-a GHOST\n")

    def test_cycle_reports_path(self):
        src = "concept A is-a B\nconcept B is-a A\n"
        with pytest.raises(CycleError, match="A -> B -> A"):
            load_ontology(src)

    def test_concept_reaching_both_roots(self):
        src = (
            "concept E1 is-a EVENT\n"
            "concept O1 is-a OBJECT\n"
            "concept X is-a E1,O1\n"
        )
        with pytest.raises(IntegrityError, match="X reaches roots"):
            load_ontology(src)

    def test_root_redeclaration(self):
        with pytest.raises(IntegrityError, match="root EVENT"):
            load_ontology("concept EVENT is-a OBJECT\n")

    def test_reserved_name(self):
        with pytest.raises(IntegrityError, match="reserved"):
            load_ontology("concept UNKNOWN is-a OBJECT\n")

    def test_attribute_without_values(self):
        with pytest.raises(IntegrityError, match="needs a non-empty value list"):
            load_ontology("property BAD kind attribute\n")

    def test_builtin_not_redefinable(self):
        with pytest.raises(IntegrityError, match="AGENT already defined"):
            load_ontology("property AGENT kind case-role\n")

    def test_lex_unknown_concept(self):
        with pytest.raises(IntegrityError, match="unknown concept GHOST"):
            load_ontology("lex x pos noun -> concept GHOST\n")

    def test_lex_value_outside_domain(self):
        src = (
            "property HUE kind attribute values red,blue\n"
            "lex mauve pos adj -> property HUE=mauve\n"
        )
        with pytest.raises(IntegrityError, match="outside domain of HUE"):
            load_ontology(src)

    def test_lex_duplicate_sense(self):
        src = (
            "concept A is-a OBJECT\n"
            "lex x pos noun -> concept A\n"
            "lex x pos noun -> concept A\n"
        )
        with pytest.raises(IntegrityError, match="duplicate sense"):
            load_ontology(src)

    def test_lex_bad_pos(self):
        with pytest.raises(IntegrityError, match="unknown pos"):
            load_ontology("concept A is-a OBJECT\nlex x pos det -> concept A\n")

    def test_unknown_directive_names_line(self):
        with pytest.raises(SchemaError, match="line 2"):
            load_ontology("# fine\nfrobnicate A\n")

    def test_truncated_line(self):
        with pytest.raises(SchemaError, match="truncated"):
            load_ontology("concept A\n")


class TestJsonForm:
    def test_json_mirror_loads_identically(self, small):
        doc = {
            "concepts": [
                {"name": "PHYSICAL-THING", "parents": ["OBJECT"]},
                {"name": "TOOL", "parents": ["PHYSICAL-THING"]},
                {"name": "LENS", "parents": ["TOOL", "PHYSICAL-THING"]},
                {"name": "MOTION", "parents": ["EVENT"]},
            ],
            "properties": [
                {
                    "name": "SIZE",
                    "kind": "attribute",
                    "values": ["small", "large"],
                    "domains": ["PHYSICAL-THING"],
                },
                {
                    "name": "SPEED",
                    "kind": "attribute",
                    "values": ["slow", "fast"],
                    "domains": ["MOTION"],
                },
                {"name": "MOOD", "kind": "attribute", "values": ["calm", "tense"]},
            ],
            "lexicon": [
                {"lemma": "lens", "pos": "noun", "sense": {"type": "concept", "name": "LENS"}},
                {"lemma": "move", "pos": "verb", "sense": {"type": "concept", "name": "MOTION"}},
                {
                    "lemma": "small",
                    "pos": "adj",
                    "sense": {"type": "property", "name": "SIZE", "value": "small"},
                },
                {
                    "lemma": "quickly",
                    "pos": "adv",
                    "sense": {"type": "property", "name": "SPEED", "value": "fast"},
                },
                {"lemma": "lens", "pos": "noun", "sense": {"type": "concept", "name": "TOOL"}},
            ],
        }
        g = load_ontology(json.dumps(doc))
        assert g.concepts == small.concepts
        assert g.properties == small.properties
        assert g.lexicon == small.lexicon

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"concepts": [{"name": "X"}]}, r"concepts\[0\]: missing field 'parents'"),
            ({"concepts": 5}, r"ontology\.concepts: must be a list of objects"),
            ({"concepts": ["X"]}, r"ontology\.concepts: must be a list of objects"),
            (
                {"concepts": [{"name": 5, "parents": ["OBJECT"]}]},
                r"concepts\[0\]\.name: must be a string",
            ),
            (
                {"concepts": [{"name": "X", "parents": "OBJECT"}]},
                r"concepts\[0\]\.parents: must be a list of strings",
            ),
            ({"properties": [{"name": "P"}]}, r"properties\[0\]: missing field 'kind'"),
            (
                {"properties": [{"name": "P", "kind": "attribute", "values": [1]}]},
                r"properties\[0\]\.values: must be a list of strings",
            ),
            (
                {"lexicon": [{"lemma": "x", "pos": "noun"}]},
                r"lexicon\[0\]: missing field 'sense'",
            ),
            (
                {"lexicon": [{"lemma": "x", "pos": "noun", "sense": {"name": "X"}}]},
                r"lexicon\[0\]\.sense: missing field 'type'",
            ),
            (
                {
                    "lexicon": [
                        {"lemma": "x", "pos": "noun", "sense": {"type": "concept", "name": []}}
                    ]
                },
                r"lexicon\[0\]\.sense\.name: must be a string",
            ),
            (
                {
                    "lexicon": [
                        {
                            "lemma": "x",
                            "pos": "noun",
                            "priority": "high",
                            "sense": {"type": "concept", "name": "X"},
                        }
                    ]
                },
                r"lexicon\[0\]\.priority: must be an integer or null",
            ),
            (
                {
                    "lexicon": [
                        {
                            "lemma": "x",
                            "pos": "noun",
                            "priority": True,
                            "sense": {"type": "concept", "name": "X"},
                        }
                    ]
                },
                r"^ontology\.lexicon\[0\]\.priority: must be an integer or null$",
            ),
        ],
    )
    def test_missing_or_mistyped_field_names_it(self, doc, field):
        with pytest.raises(SchemaError, match=field):
            load_ontology(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ArticleParseError, match="^ontology: malformed JSON at offset 14"):
            load_ontology('{"concepts": [')

    def test_not_utf8(self):
        with pytest.raises(ArticleParseError, match="ontology: not UTF-8 at byte offset 9"):
            load_ontology(b"concept X\xe9 is-a OBJECT\n")


class TestShippedGraph:
    def test_drawing_lineage(self, graph):
        assert graph.ancestors("DRAWING") == [
            "GRAPHICAL-REPRESENTATION",
            "INFORMATION-OBJECT",
            "SOCIAL-OBJECT",
            "OBJECT",
        ]

    def test_figure_is_three_ways_ambiguous(self, graph):
        senses = [e.sense.concept for e in graph.senses("figure", "NOUN")]
        assert senses == ["DRAWING", "NUMBER", "PERSON"]

    def test_position_is_a_property_noun(self, graph):
        (entry,) = graph.senses("position", "NOUN")
        assert entry.sense == PropertySense("GEOMETRIC-ASPECT")
