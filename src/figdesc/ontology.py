"""Concept taxonomy, property definitions, and the lemma lexicon.

The graph has two fixed roots, EVENT and OBJECT. Every declared concept
reaches exactly one of them through IS-A parent links; ancestor chains used
for distance computation always follow the first declared parent. Properties
come in five kinds; the hierarchy, mereology, case-role, and causality
builtins are always present, and the graph says what an attribute may
describe (attribute_applies, completes). The lexicon maps (lemma,
part-of-speech) pairs to concept or property senses, ordered by priority.

Two on-disk forms are accepted: a line-oriented text format and a JSON
mirror of the same schema. Text format::

    # comment
    concept NAME is-a PARENT[,PARENT2,...]
    property NAME kind KIND [values v1,v2,...] [domain C1,C2,...]
    lex LEMMA pos POS -> concept NAME
    lex LEMMA pos POS -> property NAME[=VALUE] [priority N]

Any other token on a line, or an option given twice, is an error.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus import Record, decode_utf8, json_field, load_json_object
from .errors import CycleError, IntegrityError, SchemaError

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


class Concept(NamedTuple):
    name: str
    parents: tuple[str, ...]
    root_category: str  # ROOT_EVENT or ROOT_OBJECT


class PropertyDef(NamedTuple):
    name: str
    kind: str
    value_domain: tuple[str, ...] = ()
    applicable_domains: tuple[str, ...] = ()


class ConceptSense(NamedTuple):
    concept: str


class PropertySense(NamedTuple):
    prop: str
    value: str | None = None


class LexEntry(NamedTuple):
    lemma: str
    pos: str
    sense: ConceptSense | PropertySense
    priority: int


class OntologyGraph(Record):
    _fields = ("concepts", "properties", "lexicon")
    __slots__ = (*_fields, "_chains")

    def __init__(
        self,
        concepts: dict[str, Concept],
        properties: dict[str, PropertyDef],
        lexicon: dict[tuple[str, str], tuple[LexEntry, ...]] | None = None,
    ) -> None:
        self.concepts = concepts
        self.properties = properties
        # Stable sort: equal priorities keep their declaration order.
        self.lexicon = {
            key: tuple(sorted(bucket, key=lambda e: e.priority))
            for key, bucket in (lexicon or {}).items()
        }
        # Ancestor chain per concept, computed when first asked for: the sense
        # search asks for senses and ancestors many times per sentence, and the
        # chains of every concept would take space quadratic in the depth.
        self._chains: dict[str, tuple[str, ...]] = {}

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
            if concept_name not in self.concepts:
                raise IntegrityError(f"unknown concept {concept_name}")
            up = [concept_name]
            while up[-1] not in ROOTS:
                up.append(self.concepts[up[-1]].parents[0])
            chain = self._chains[concept_name] = tuple(up[1:])
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

    def is_attribute(self, prop_name: str) -> bool:
        """Whether the property is a declared ATTRIBUTE, the one kind that describes a concept."""
        prop = self.properties.get(prop_name)
        return prop is not None and prop.kind == KIND_ATTRIBUTE

    def completes(self, prop_name: str) -> bool:
        """Whether the property may describe an unexpressed object, an UNKNOWN
        placeholder filling an event's role: an ATTRIBUTE with no domain or one
        under OBJECT. IntegrityError for an unknown property."""
        if prop_name not in self.properties:
            raise IntegrityError(f"unknown property {prop_name}")
        domains = self.properties[prop_name].applicable_domains
        return self.is_attribute(prop_name) and (
            not domains
            or any(self.has_concept(d) and self.root_of(d) == ROOT_OBJECT for d in domains)
        )


# ---- loading ----

def _check_name(name: str, what: str, where: str) -> None:
    if not name or name == UNKNOWN:
        raise IntegrityError(f"{where}: {what} {name!r} is reserved or empty")


def _split_csv(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _options(rest: list[str], keys: tuple[str, ...], where: str) -> dict[str, str]:
    """The 'key value' pairs that end a declaration, each key at most once.

    Any other token, a repeated key included, is an error.
    """
    found = {}
    for i in range(0, len(rest), 2):
        if rest[i] not in keys or rest[i] in found:
            raise SchemaError(f"{where}: unexpected token {rest[i]!r}")
        found[rest[i]] = rest[i + 1]  # a key without its value: IndexError
    return found


def _parse_text(text: str) -> tuple[list, list, list]:
    concepts, properties, lexemes = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        where = f"line {lineno}"
        try:
            if parts[0] == "concept":
                if parts[2] != "is-a":
                    raise SchemaError(f"{where}: expected 'is-a'")
                _options(parts[4:], (), where)
                concepts.append((parts[1], _split_csv(parts[3]), where))
            elif parts[0] == "property":
                if parts[2] != "kind":
                    raise SchemaError(f"{where}: expected 'kind'")
                options = _options(parts[4:], ("values", "domain"), where)
                values = _split_csv(options.get("values", ""))
                domains = _split_csv(options.get("domain", ""))
                properties.append((parts[1], parts[3].upper(), values, domains, where))
            elif parts[0] == "lex":
                if parts[2] != "pos" or parts[4] != "->":
                    raise SchemaError(f"{where}: bad lex syntax")
                options = _options(parts[7:], ("priority",), where)
                priority = int(options["priority"]) if "priority" in options else None
                if parts[5] == "concept":
                    sense: ConceptSense | PropertySense = ConceptSense(parts[6])
                elif parts[5] == "property":
                    name, _, value = parts[6].partition("=")
                    sense = PropertySense(name, value or None)
                else:
                    raise SchemaError(f"{where}: sense must be concept or property")
                lexemes.append((parts[1], parts[3].upper(), sense, priority, where))
            else:
                raise SchemaError(f"{where}: unknown directive {parts[0]!r}")
        except IndexError as e:
            raise SchemaError(f"{where}: truncated declaration") from e
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
    return concepts, properties, lexemes


def _parse_json(text: str) -> tuple[list, list, list]:
    doc = load_json_object(text, "ontology")

    def rows(key: str) -> list[tuple[str, dict]]:
        listed = json_field(doc, key, "ontology", "a list of objects", [])
        return [(f"ontology.{key}[{i}]", row) for i, row in enumerate(listed)]

    concepts = [
        (
            json_field(c, "name", w, "a string"),
            tuple(json_field(c, "parents", w, "a list of strings")),
            w,
        )
        for w, c in rows("concepts")
    ]
    properties = [
        (
            json_field(p, "name", w, "a string"),
            json_field(p, "kind", w, "a string").upper(),
            tuple(json_field(p, "values", w, "a list of strings", [])),
            tuple(json_field(p, "domains", w, "a list of strings", [])),
            w,
        )
        for w, p in rows("properties")
    ]
    lexemes = []
    for w, row in rows("lexicon"):
        lemma = json_field(row, "lemma", w, "a string")
        pos = json_field(row, "pos", w, "a string").upper()
        priority = json_field(row, "priority", w, "an integer or null", None)
        sense_doc = json_field(row, "sense", w, "an object")
        sense_where = w + ".sense"
        name = json_field(sense_doc, "name", sense_where, "a string")
        if json_field(sense_doc, "type", sense_where, "a string") == "concept":
            sense: ConceptSense | PropertySense = ConceptSense(name)
        else:
            value = json_field(sense_doc, "value", sense_where, "a string or null", None)
            sense = PropertySense(name, value)
        lexemes.append((lemma, pos, sense, priority, w))
    return concepts, properties, lexemes


def _resolve_roots(raw_concepts: dict[str, tuple[str, ...]]) -> dict[str, str]:
    """Root category per concept; rejects cycles and multi-root reachability.

    A depth-first walk up the parent links, on a stack of its own, finds each
    concept's roots once: the time is linear in concepts plus links, and no
    chain is too deep. A link back into the walk's trail is a cycle.
    """
    found: dict[str, frozenset[str]] = {root: frozenset((root,)) for root in ROOTS}
    for name in raw_concepts:
        trail = [(name, iter(raw_concepts[name]))]  # each is-a the one before, parents left
        on_trail = {name}
        while trail:
            child, parents = trail[-1]
            parent = next(parents, None)
            if parent is None:
                trail.pop()
                on_trail.discard(child)
                found[child] = frozenset().union(*(found[p] for p in raw_concepts[child]))
            elif parent in on_trail:
                names = [n for n, _ in trail]
                cycle = names[names.index(parent):] + [parent]
                raise CycleError("is-a cycle: " + " -> ".join(cycle))
            elif parent not in found:
                trail.append((parent, iter(raw_concepts[parent])))
                on_trail.add(parent)
        if len(found[name]) != 1:
            raise IntegrityError(
                f"concept {name} reaches roots {sorted(found[name])}; expected exactly one"
            )
    return {name: next(iter(found[name])) for name in raw_concepts}


def load_ontology(data: bytes | str) -> OntologyGraph:
    """Load and validate a graph from text or JSON bytes.

    Validation failures name the offending entity, and the text line
    ("line 3") or JSON entry ("ontology.concepts[1]") that declares it:
    dangling parents, IS-A cycles, attributes without a value domain, the
    reserved UNKNOWN or an empty string as a name or value, lexicon senses
    pointing at undeclared entities, and duplicate (lemma, pos, sense) rows
    all reject the input.
    """
    data = decode_utf8(data, "ontology")
    sniff = data.lstrip()
    raw_c, raw_p, raw_l = (
        _parse_json(data) if sniff.startswith("{") else _parse_text(data)
    )

    raw_concepts: dict[str, tuple[str, ...]] = {}
    for name, parents, where in raw_c:
        _check_name(name, "concept name", where)
        if name in ROOTS:
            raise IntegrityError(f"{where}: root {name} cannot be redeclared")
        if name in raw_concepts:
            raise IntegrityError(f"{where}: duplicate concept {name}")
        if not parents:
            raise IntegrityError(f"{where}: concept {name} declares no parent")
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
    for name, kind, values, domains, where in raw_p:
        _check_name(name, "property name", where)
        for value in values:
            _check_name(value, "value", where)
        if name in properties:
            raise IntegrityError(f"{where}: property {name} already defined")
        if kind not in KINDS:
            raise IntegrityError(f"{where}: unknown property kind {kind}")
        if kind == KIND_ATTRIBUTE and not values:
            raise IntegrityError(f"{where}: attribute {name} needs a non-empty value list")
        for d in domains:
            if d not in concepts and d not in ROOTS:
                raise IntegrityError(f"property {name}: unknown domain concept {d}")
        properties[name] = PropertyDef(name, kind, values, domains)

    lexicon: dict[tuple[str, str], list[LexEntry]] = {}
    auto_priority: dict[tuple[str, str], int] = {}
    for lemma, pos, sense, priority, where in raw_l:
        if pos not in POS_TAGS:
            raise IntegrityError(f"{where}: unknown pos {pos}")
        lemma = lemma.lower()
        if isinstance(sense, ConceptSense):
            if sense.concept not in concepts:
                raise IntegrityError(
                    f"{where}: lexeme {lemma} points at unknown concept {sense.concept}"
                )
        else:
            prop = properties.get(sense.prop)
            if prop is None:
                raise IntegrityError(
                    f"{where}: lexeme {lemma} points at unknown property {sense.prop}"
                )
            if sense.value is not None:
                _check_name(sense.value, "value", where)
                if prop.kind == KIND_ATTRIBUTE and sense.value not in prop.value_domain:
                    raise IntegrityError(
                        f"{where}: value {sense.value!r} outside domain of {prop.name}"
                    )
        key = (lemma, pos)
        if priority is None:
            priority = auto_priority.get(key, 0)
        auto_priority[key] = max(auto_priority.get(key, 0), priority + 1)
        entry = LexEntry(lemma, pos, sense, priority)
        bucket = lexicon.setdefault(key, [])
        if any(e.sense == sense for e in bucket):
            raise IntegrityError(f"{where}: duplicate sense for ({lemma}, {pos})")
        bucket.append(entry)

    return OntologyGraph(concepts, properties, lexicon)
