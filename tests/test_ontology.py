import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figdesc import cli
from figdesc.errors import ArticleParseError, CycleError, IntegrityError, SchemaError
from figdesc.ontology import (
    BUILTIN_PROPERTIES,
    ROOT_EVENT,
    ROOT_OBJECT,
    ROOTS,
    UNKNOWN,
    ConceptSense,
    PropertySense,
    load_ontology,
)
from figdesc.tmr import build_tmr, extract_frames

from .helpers import MINI_CORPUS, parse_rows, within

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
    """An attribute whose bearer is unexpressed completes through an UNKNOWN
    placeholder filling the event's role; completes says whether it may."""

    def completed(self, graph, lemma):
        rows = [(1, lemma, lemma, "ADJ", 2, "nsubj"), (2, "moves", "move", "VERB", 0, "root")]
        (frame,) = extract_frames(parse_rows(rows))
        return build_tmr(frame, graph)

    def test_without_bearer_inserts_placeholder(self, small):
        assert small.completes("SIZE")
        tmr = self.completed(small, "small")
        assert tmr.edges == [("MOTION", "AGENT", UNKNOWN), (UNKNOWN, "SIZE", "small")]
        assert sorted(tmr.elements) == [
            ("CONCEPT", "MOTION", 1), ("CONCEPT", UNKNOWN, 1),
            ("PROPERTY", "AGENT", 1), ("PROPERTY", "SIZE", 1),
        ]

    def test_missing_value_becomes_placeholder(self):
        graph = load_ontology(SMALL + "lex big pos adj -> property SIZE\n")
        assert graph.completes("SIZE")
        tmr = self.completed(graph, "big")
        assert tmr.edges == [("MOTION", "AGENT", UNKNOWN), (UNKNOWN, "SIZE", UNKNOWN)]
        assert [e.name for e in tmr.elements].count(UNKNOWN) == 2

    def test_event_only_domain_cannot_infer_bearer(self, small):
        assert not small.completes("SPEED")
        graph = load_ontology(SMALL + "lex fast pos adj -> property SPEED=fast\n")
        tmr = self.completed(graph, "fast")
        assert tmr.edges == []
        assert tmr.elements == [("CONCEPT", "MOTION", 1)]

    def test_non_attribute_rejected(self, small):
        assert not small.completes("AGENT")

    def test_unknown_property_rejected(self, small):
        with pytest.raises(IntegrityError, match="WAT"):
            small.completes("WAT")

    @given(st.data())
    def test_matches_the_first_parent_walk_on_random_trees(self, data):
        """completes against its rule restated: an attribute with no domain,
        or with a domain whose first-parent chain ends at OBJECT."""
        parents: dict[str, list[str]] = {}
        root_of: dict[str, str] = {}  # only to keep extra parents under one root
        for i in range(data.draw(st.integers(0, 12))):
            first = data.draw(st.sampled_from([*ROOTS, *parents]))
            root = root_of.get(first, first)
            same_root = [c for c in parents if root_of[c] == root]
            extra = data.draw(st.lists(st.sampled_from(same_root), max_size=2)) if same_root else []
            parents[f"C{i}"], root_of[f"C{i}"] = list(dict.fromkeys([first, *extra])), root
        names = [*ROOTS, *parents]
        kinds = st.sampled_from(["attribute", "causality", "mereology"])
        props = data.draw(st.lists(st.tuples(kinds, st.lists(st.sampled_from(names))), max_size=6))
        lines = [f"concept {c} is-a {','.join(ps)}" for c, ps in parents.items()]
        for j, (kind, domains) in enumerate(props):
            domain = f" domain {','.join(domains)}" if domains else ""
            lines.append(f"property P{j} kind {kind} values v{domain}")
        graph = load_ontology("\n".join(lines))

        def walk(concept):
            while concept not in ROOTS:
                concept = parents[concept][0]
            return concept

        for j, (kind, domains) in enumerate(props):
            expected = kind == "attribute" and (
                not domains or any(walk(d) == ROOT_OBJECT for d in domains)
            )
            assert graph.completes(f"P{j}") == expected
        for name, _ in BUILTIN_PROPERTIES:
            assert not graph.completes(name)


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

    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_chain_of_5000_loads(self, bottom_up):
        lines = [f"concept C{i} is-a C{i - 1}" for i in range(1, 5000)]
        lines.insert(0, "concept C0 is-a EVENT")
        graph = load_ontology("\n".join(lines if bottom_up else lines[::-1]))
        assert graph.root_of("C4999") == ROOT_EVENT
        assert graph.ancestors("C4999")[-2:] == ["C0", ROOT_EVENT]
        assert len(graph.ancestors("C4999")) == 5000

    def test_diamond_of_200_loads_in_well_under_a_second(self):
        # Two concepts a level, each is-a both of the level below: 2**100 paths.
        lines = ["concept L0a is-a OBJECT", "concept L0b is-a OBJECT"]
        lines += [f"concept L{i}{x} is-a L{i - 1}a,L{i - 1}b" for i in range(1, 100) for x in "ab"]
        with within(0.5):
            graph = load_ontology("\n".join(lines))
        assert graph.root_of("L99b") == ROOT_OBJECT
        assert len(graph.ancestors("L99b")) == 100

    def test_cycle_above_a_deep_chain_reports_it(self):
        lines = [f"concept C{i} is-a C{i - 1}" for i in range(1, 3000)]
        lines.insert(0, "concept C0 is-a C2")
        with pytest.raises(CycleError, match="^is-a cycle: C2 -> C1 -> C0 -> C2$"):
            load_ontology("\n".join(lines[::-1]))

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

    @pytest.mark.parametrize(
        "src, message",
        [
            (
                "property COLOR kind attribute values red,UNKNOWN\n",
                "line 1: value 'UNKNOWN' is reserved or empty",
            ),
            (
                "property COLOR kind attribute values red,UNKNOWN\n"
                "lex weird pos ADJ -> property COLOR=UNKNOWN\n",
                "line 1: value 'UNKNOWN' is reserved or empty",
            ),
            (
                "property COLOR kind attribute values red\n"
                "lex weird pos ADJ -> property COLOR=UNKNOWN\n",
                "line 2: value 'UNKNOWN' is reserved or empty",
            ),
            # A sense value is checked whatever the property's kind.
            (
                "lex weird pos NOUN -> property AGENT=UNKNOWN\n",
                "line 1: value 'UNKNOWN' is reserved or empty",
            ),
        ],
    )
    def test_unknown_is_no_value(self, src, message):
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            load_ontology(src)

    def test_empty_value_in_text_is_no_value_at_all(self):
        g = load_ontology(
            "property COLOR kind attribute values red,,blue\n"
            "lex color pos NOUN -> property COLOR=\n"
        )
        assert g.properties["COLOR"].value_domain == ("red", "blue")
        assert g.senses("color", "NOUN")[0].sense == PropertySense("COLOR")

    @pytest.mark.parametrize(
        "src, line",
        [
            ("concept X is-a OBJECT junk\n", 1),
            (
                "property COLOR kind attribute values red\n"
                "lex red pos ADJ -> property COLOR=red priority 1 junk\n",
                2,
            ),
            (
                "concept THING is-a OBJECT\nconcept X is-a OBJECT\n"
                "lex thing pos NOUN -> concept THING junk\n",
                3,
            ),
            ("property COLOR kind attribute values red junk\n", 1),
        ],
    )
    def test_trailing_token_is_an_error(self, src, line):
        with pytest.raises(SchemaError, match=f"^line {line}: unexpected token 'junk'$"):
            load_ontology(src)

    @pytest.mark.parametrize(
        "src, key",
        [
            ("property COLOR kind attribute values red values blue\n", "values"),
            (
                "property COLOR kind attribute values red\n"
                "lex red pos ADJ -> property COLOR=red priority 1 priority 5\n",
                "priority",
            ),
        ],
    )
    def test_repeated_option_is_an_error(self, src, key):
        with pytest.raises(SchemaError, match=f"unexpected token '{key}'$"):
            load_ontology(src)


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

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"concepts": [{"name": "X", "parents": ["OBJECT"]}] * 2},
                "ontology.concepts[1]: duplicate concept X",
            ),
            (
                {"properties": [{"name": "P", "kind": "bogus"}]},
                "ontology.properties[0]: unknown property kind BOGUS",
            ),
            (
                {"concepts": [{"name": "UNKNOWN", "parents": ["OBJECT"]}]},
                "ontology.concepts[0]: concept name 'UNKNOWN' is reserved or empty",
            ),
            (
                {"properties": [{"name": "COLOR", "kind": "attribute", "values": ["red", ""]}]},
                "ontology.properties[0]: value '' is reserved or empty",
            ),
            (
                {"properties": [{"name": "HUE", "kind": "attribute", "values": ["UNKNOWN"]}]},
                "ontology.properties[0]: value 'UNKNOWN' is reserved or empty",
            ),
        ],
    )
    def test_integrity_errors_name_the_entry(self, doc, message):
        with pytest.raises(IntegrityError) as e:
            load_ontology(json.dumps(doc))
        assert str(e.value) == message

    @pytest.mark.parametrize("value", ["", "UNKNOWN"])
    def test_sense_value_that_is_no_value(self, value):
        doc = {
            "concepts": [{"name": "SHOW", "parents": ["EVENT"]}],
            "properties": [{"name": "COLOR", "kind": "attribute", "values": ["red"]}],
            "lexicon": [
                {"lemma": "show", "pos": "verb", "sense": {"type": "concept", "name": "SHOW"}},
                {
                    "lemma": "weird",
                    "pos": "adj",
                    "sense": {"type": "property", "name": "COLOR", "value": value},
                },
            ],
        }
        with pytest.raises(IntegrityError) as e:
            load_ontology(json.dumps(doc))
        assert str(e.value) == f"ontology.lexicon[1]: value {value!r} is reserved or empty"

    def test_reserved_value_is_a_data_error_on_the_command_line(self, tmp_path, capsys):
        bad = tmp_path / "ontology.txt"
        bad.write_text(
            "property COLOR kind attribute values red\n"
            "lex weird pos ADJ -> property COLOR=UNKNOWN\n"
        )
        out = tmp_path / "out"
        code = cli.main(
            ["calibrate", "--corpus", str(MINI_CORPUS), "--ontology", str(bad), "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: value 'UNKNOWN' is reserved or empty\n"
        )
        assert not out.exists()

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
