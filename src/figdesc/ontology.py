"""Concept taxonomy, property definitions, and the lemma lexicon.

The graph has two fixed roots, EVENT and OBJECT. Every declared concept
reaches exactly one of them through IS-A parent links; ancestor chains used
for distance computation always follow the first declared parent. Properties
come in five kinds; the hierarchy, mereology, case-role, and causality
builtins are always present. The lexicon maps (lemma, part-of-speech) pairs
to concept or property senses, ordered by priority.

Two on-disk forms are accepted: a line-oriented text format and a JSON
mirror of the same schema. Text format::

    # comment
    concept NAME is-a PARENT[,PARENT2,...]
    property NAME kind KIND [values v1,v2,...] [domain C1,C2,...]
    lex LEMMA pos POS -> concept NAME
    lex LEMMA pos POS -> property NAME[=VALUE] [priority N]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import decode_utf8, json_field, load_json_object
from .errors import (
    CompletionError,
    CycleError,
    IntegrityError,
    PreconditionError,
    SchemaError,
)

ROOT_EVENT = "EVENT"
ROOT_OBJECT = "OBJECT"
ROOTS = (ROOT_EVENT, ROOT_OBJECT)
UNKNOWN = "UNKNOWN"

KIND_CASE_ROLE = "CASE-ROLE"
KIND_CAUSALITY = "CAUSALITY"
KIND_ATTRIBUTE = "ATTRIBUTE"
KIND_HIERARCHY = "HIERARCHY"
KIND_MEREOLOGY = "MEREOLOGY"
KINDS = frozenset(
    {KIND_CASE_ROLE, KIND_CAUSALITY, KIND_ATTRIBUTE, KIND_HIERARCHY, KIND_MEREOLOGY}
)

POS_TAGS = frozenset({"NOUN", "VERB", "ADJ", "ADV"})

# Always present; input files may add properties but not redefine these.
BUILTIN_PROPERTIES = (
    ("AGENT", KIND_CASE_ROLE),
    ("THEME", KIND_CASE_ROLE),
    ("THEME-INFORMATION", KIND_CASE_ROLE),
    ("INSTRUMENT", KIND_CASE_ROLE),
    ("CAUSED-BY", KIND_CAUSALITY),
    ("IS-A", KIND_HIERARCHY),
    ("PART-WHOLE", KIND_MEREOLOGY),
)


@dataclass(frozen=True)
class Concept:
    name: str
    parents: tuple[str, ...]
    root_category: str  # ROOT_EVENT or ROOT_OBJECT


@dataclass(frozen=True)
class PropertyDef:
    name: str
    kind: str
    value_domain: tuple[str, ...] = ()
    applicable_domains: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConceptSense:
    concept: str


@dataclass(frozen=True)
class PropertySense:
    prop: str
    value: str | None = None


@dataclass(frozen=True)
class LexEntry:
    lemma: str
    pos: str
    sense: ConceptSense | PropertySense
    priority: int


@dataclass
class OntologyGraph:
    concepts: dict[str, Concept]
    properties: dict[str, PropertyDef]
    lexicon: dict[tuple[str, str], tuple[LexEntry, ...]] = field(default_factory=dict)
    # Ancestor chain per declared concept, computed once: the sense search
    # asks for senses and ancestors many times per sentence.
    _chains: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Stable sort: equal priorities keep their declaration order.
        self.lexicon = {
            key: tuple(sorted(bucket, key=lambda e: e.priority))
            for key, bucket in self.lexicon.items()
        }
        self._chains = {}
        for name in self.concepts:
            chain = []
            current = name
            while current not in ROOTS:
                current = self.concepts[current].parents[0]
                chain.append(current)
            self._chains[name] = tuple(chain)

    def has_concept(self, name: str) -> bool:
        return name in self.concepts or name in ROOTS

    def root_of(self, name: str) -> str:
        if name in ROOTS:
            return name
        return self.concepts[name].root_category

    def ancestors(self, concept_name: str) -> list[str]:
        """IS-A chain above a concept, first declared parent at each step.

        Includes the root; the concept itself is not part of its own chain.
        Roots have an empty chain. Returns a fresh list on every call.
        """
        if concept_name in ROOTS:
            return []
        chain = self._chains.get(concept_name)
        if chain is None:
            raise IntegrityError(f"unknown concept {concept_name}")
        return list(chain)

    def senses(self, lemma: str, pos: str) -> list[LexEntry]:
        """Lexicon entries for (lemma, pos), best priority first; [] if none."""
        return list(self.lexicon.get((lemma.lower(), pos.upper()), ()))

    def attribute_applies(self, prop_name: str, bearer_concept: str) -> bool:
        """Whether an attribute property may describe the given concept.

        An empty applicable-domain list means unrestricted; otherwise the
        bearer or one of its ancestors (roots included) must be listed.
        """
        prop = self.properties[prop_name]
        if not prop.applicable_domains:
            return True
        lineage = {bearer_concept, *self.ancestors(bearer_concept)}
        return bool(lineage & set(prop.applicable_domains))

    def complete_path(self, event_concept: str, sense: PropertySense) -> list[str]:
        """Path linking an event to an attribute whose bearer is unexpressed.

        An UNKNOWN placeholder stands in for the described object and, when
        the sense carries no value, a second UNKNOWN stands in for the
        attribute value: [event, UNKNOWN, property, value|UNKNOWN].
        Placeholders are sentence-scoped; the graph is never modified.
        """
        if not self.has_concept(event_concept):
            raise IntegrityError(f"unknown concept {event_concept}")
        prop = self.properties.get(sense.prop)
        if prop is None:
            raise IntegrityError(f"unknown property {sense.prop}")
        if prop.kind != KIND_ATTRIBUTE:
            raise PreconditionError(
                f"{sense.prop} is {prop.kind}, path completion needs an ATTRIBUTE"
            )
        value = sense.value if sense.value is not None else UNKNOWN
        if prop.applicable_domains and not any(
            d == ROOT_OBJECT or self.root_of(d) == ROOT_OBJECT
            for d in prop.applicable_domains
            if self.has_concept(d)
        ):
            raise CompletionError(
                f"{prop.name} applies to no object concept; cannot infer a bearer"
            )
        return [event_concept, UNKNOWN, prop.name, value]


# ---- loading ----

def _check_name(name: str, what: str) -> str:
    if not name or name in (UNKNOWN,):
        raise IntegrityError(f"{what} name {name!r} is reserved or empty")
    return name


def _split_csv(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_text(text: str) -> tuple[list, list, list]:
    concepts, properties, lexemes = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            if parts[0] == "concept":
                if parts[2] != "is-a":
                    raise SchemaError(f"line {lineno}: expected 'is-a'")
                concepts.append((parts[1], _split_csv(parts[3]), lineno))
            elif parts[0] == "property":
                if parts[2] != "kind":
                    raise SchemaError(f"line {lineno}: expected 'kind'")
                name, kind = parts[1], parts[3].upper()
                values: tuple[str, ...] = ()
                domains: tuple[str, ...] = ()
                rest = parts[4:]
                while rest:
                    key = rest.pop(0)
                    if key == "values":
                        values = _split_csv(rest.pop(0))
                    elif key == "domain":
                        domains = _split_csv(rest.pop(0))
                    else:
                        raise SchemaError(f"line {lineno}: unexpected token {key!r}")
                properties.append((name, kind, values, domains, lineno))
            elif parts[0] == "lex":
                if parts[2] != "pos" or parts[4] != "->":
                    raise SchemaError(f"line {lineno}: bad lex syntax")
                lemma, pos, target = parts[1], parts[3].upper(), parts[5]
                priority = None
                rest = parts[7:]
                if rest and rest[0] == "priority":
                    priority = int(rest[1])
                elif rest:
                    raise SchemaError(f"line {lineno}: unexpected token {rest[0]!r}")
                if target == "concept":
                    sense: ConceptSense | PropertySense = ConceptSense(parts[6])
                elif target == "property":
                    name, _, value = parts[6].partition("=")
                    sense = PropertySense(name, value or None)
                else:
                    raise SchemaError(f"line {lineno}: sense must be concept or property")
                lexemes.append((lemma, pos, sense, priority, lineno))
            else:
                raise SchemaError(f"line {lineno}: unknown directive {parts[0]!r}")
        except IndexError as e:
            raise SchemaError(f"line {lineno}: truncated declaration") from e
        except ValueError as e:
            raise SchemaError(f"line {lineno}: {e}") from e
    return concepts, properties, lexemes


def _parse_json(text: str) -> tuple[list, list, list]:
    doc = load_json_object(text, "ontology")

    def rows(key: str) -> list[tuple[int, str, dict]]:
        listed = json_field(doc, key, "ontology", "a list of objects", [])
        return [(i, f"ontology.{key}[{i}]", row) for i, row in enumerate(listed)]

    concepts = [
        (
            json_field(c, "name", w, "a string"),
            tuple(json_field(c, "parents", w, "a list of strings")),
            i,
        )
        for i, w, c in rows("concepts")
    ]
    properties = [
        (
            json_field(p, "name", w, "a string"),
            json_field(p, "kind", w, "a string").upper(),
            tuple(json_field(p, "values", w, "a list of strings", [])),
            tuple(json_field(p, "domains", w, "a list of strings", [])),
            i,
        )
        for i, w, p in rows("properties")
    ]
    lexemes = []
    for i, w, row in rows("lexicon"):
        lemma = json_field(row, "lemma", w, "a string")
        pos = json_field(row, "pos", w, "a string").upper()
        priority = json_field(row, "priority", w, "an integer or null", None)
        sense_doc = json_field(row, "sense", w, "an object")
        w += ".sense"
        name = json_field(sense_doc, "name", w, "a string")
        if json_field(sense_doc, "type", w, "a string") == "concept":
            sense: ConceptSense | PropertySense = ConceptSense(name)
        else:
            value = json_field(sense_doc, "value", w, "a string or null", None)
            sense = PropertySense(name, value)
        lexemes.append((lemma, pos, sense, priority, i))
    return concepts, properties, lexemes


def _resolve_roots(raw_concepts: dict[str, tuple[str, ...]]) -> dict[str, str]:
    """Root category per concept; rejects cycles and multi-root reachability."""
    roots: dict[str, str] = {}

    def all_roots(name: str, trail: tuple[str, ...]) -> set[str]:
        if name in ROOTS:
            return {name}
        if name in trail:
            cycle = trail[trail.index(name):] + (name,)
            raise CycleError("is-a cycle: " + " -> ".join(cycle))
        found: set[str] = set()
        for parent in raw_concepts[name]:
            found |= all_roots(parent, trail + (name,))
        return found

    for name in raw_concepts:
        reachable = all_roots(name, ())
        if len(reachable) != 1:
            raise IntegrityError(
                f"concept {name} reaches roots {sorted(reachable)}; expected exactly one"
            )
        roots[name] = next(iter(reachable))
    return roots


def load_ontology(data: bytes | str) -> OntologyGraph:
    """Load and validate a graph from text or JSON bytes.

    Validation failures name the offending entity: dangling parents, IS-A
    cycles, attributes without a value domain, lexicon senses pointing at
    undeclared entities, and duplicate (lemma, pos, sense) rows all reject
    the input.
    """
    data = decode_utf8(data, "ontology")
    sniff = data.lstrip()
    raw_c, raw_p, raw_l = (
        _parse_json(data) if sniff.startswith("{") else _parse_text(data)
    )

    raw_concepts: dict[str, tuple[str, ...]] = {}
    for name, parents, lineno in raw_c:
        _check_name(name, "concept")
        if name in ROOTS:
            raise IntegrityError(f"line {lineno}: root {name} cannot be redeclared")
        if name in raw_concepts:
            raise IntegrityError(f"line {lineno}: duplicate concept {name}")
        if not parents:
            raise IntegrityError(f"line {lineno}: concept {name} declares no parent")
        raw_concepts[name] = parents
    for name, parents in raw_concepts.items():
        for parent in parents:
            if parent not in raw_concepts and parent not in ROOTS:
                raise IntegrityError(f"concept {name}: unknown parent {parent}")

    roots = _resolve_roots(raw_concepts)
    concepts = {
        name: Concept(name, parents, roots[name])
        for name, parents in raw_concepts.items()
    }

    properties = {
        name: PropertyDef(name, kind) for name, kind in BUILTIN_PROPERTIES
    }
    for name, kind, values, domains, lineno in raw_p:
        _check_name(name, "property")
        if name in properties:
            raise IntegrityError(f"line {lineno}: property {name} already defined")
        if kind not in KINDS:
            raise IntegrityError(f"line {lineno}: unknown property kind {kind}")
        if kind == KIND_ATTRIBUTE and not values:
            raise IntegrityError(
                f"line {lineno}: attribute {name} needs a non-empty value list"
            )
        for d in domains:
            if d not in concepts and d not in ROOTS:
                raise IntegrityError(f"property {name}: unknown domain concept {d}")
        properties[name] = PropertyDef(name, kind, values, domains)

    lexicon: dict[tuple[str, str], list[LexEntry]] = {}
    auto_priority: dict[tuple[str, str], int] = {}
    for lemma, pos, sense, priority, lineno in raw_l:
        if pos not in POS_TAGS:
            raise IntegrityError(f"line {lineno}: unknown pos {pos}")
        lemma = lemma.lower()
        if isinstance(sense, ConceptSense):
            if sense.concept not in concepts:
                raise IntegrityError(
                    f"line {lineno}: lexeme {lemma} points at unknown concept {sense.concept}"
                )
        else:
            prop = properties.get(sense.prop)
            if prop is None:
                raise IntegrityError(
                    f"line {lineno}: lexeme {lemma} points at unknown property {sense.prop}"
                )
            if (
                sense.value is not None
                and prop.kind == KIND_ATTRIBUTE
                and sense.value not in prop.value_domain
            ):
                raise IntegrityError(
                    f"line {lineno}: value {sense.value!r} outside domain of {prop.name}"
                )
        key = (lemma, pos)
        if priority is None:
            priority = auto_priority.get(key, 0)
        auto_priority[key] = max(auto_priority.get(key, 0), priority + 1)
        entry = LexEntry(lemma, pos, sense, priority)
        bucket = lexicon.setdefault(key, [])
        if any(e.sense == sense for e in bucket):
            raise IntegrityError(
                f"line {lineno}: duplicate sense for ({lemma}, {pos})"
            )
        bucket.append(entry)

    return OntologyGraph(concepts, properties, lexicon)
