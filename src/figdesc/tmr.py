"""Meaning representations of single sentences.

A sentence's representation is built from its subject-verb-object frames:
every token that the lexicon can ground contributes either a concept (plus
its IS-A ancestors, one distance step per link, stopping before the roots)
or a property at distance 1. Case-role links tie subjects and objects to the
verb's event concept; attributes whose bearer is unexpressed are completed
with sentence-scoped UNKNOWN placeholders. Ambiguous tokens are resolved by
searching sense combinations for the one that satisfies the most ontology
relations.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .corpus import ParsedSentence, Token, decode_utf8
from .errors import CompletionError, SchemaError
from .lexres import EmbeddingStore, SynsetLexicon, candidate_verb_lemmas
from .ontology import (
    KIND_ATTRIBUTE,
    ROOT_EVENT,
    ROOTS,
    UNKNOWN,
    ConceptSense,
    LexEntry,
    OntologyGraph,
    PropertySense,
)

CONCEPT = "CONCEPT"
PROPERTY = "PROPERTY"

CHEMICAL_CONCEPT = "CHEMICAL"

# UD relations taken as frame slots. Older-style tag names are accepted too.
SUBJECT_DEPRELS = frozenset({"nsubj", "nsubjpass", "nsubj:pass"})
PASSIVE_SUBJECT_DEPRELS = frozenset({"nsubjpass", "nsubj:pass"})
OBJECT_DEPRELS = frozenset({"obj", "dobj"})
MODIFIER_DEPRELS = frozenset({"amod", "advmod"})

_UPOS_TO_LEX = {"NOUN": "NOUN", "PROPN": "NOUN", "VERB": "VERB", "ADJ": "ADJ", "ADV": "ADV"}

# All IUPAC element symbols, for the formula pattern whitelist.
ELEMENT_SYMBOLS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr "
    "Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)

_FORMULA_RE = re.compile(r"(?:[A-Z][a-z]?\d*)+$")
_FORMULA_UNIT_RE = re.compile(r"([A-Z][a-z]?)(\d*)")

# Guard against exploding sense products on pathological lexicons.
_MAX_COMBINATIONS = 100_000


@dataclass(frozen=True)
class TmrElement:
    kind: str  # CONCEPT or PROPERTY
    name: str  # ontology identifier, or UNKNOWN for placeholders
    distance: int


@dataclass
class SvoFrame:
    """One verb's slice of a parsed sentence."""

    verb: Token
    subject: Token | None = None
    obj: Token | None = None
    modifiers: list[tuple[Token, Token]] = field(default_factory=list)
    chemical_tokens: frozenset[int] = frozenset()

    def passive(self) -> bool:
        return (
            self.subject is not None
            and self.subject.deprel in PASSIVE_SUBJECT_DEPRELS
        )


@dataclass
class Tmr:
    """Element multiset plus relation edges for one sentence."""

    sentence_ref: int
    elements: list[TmrElement] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    unmappable: bool = False


def load_gazetteer(data: bytes | str) -> frozenset[str]:
    """One lowercase chemical term per line; # starts a comment."""
    terms = set()
    for lineno, line in enumerate(decode_utf8(data, "gazetteer").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped != stripped.lower():
            raise SchemaError(f"gazetteer line {lineno}: terms must be lowercase")
        terms.add(stripped)
    return frozenset(terms)


def is_chemical_token(form: str, gazetteer: frozenset[str]) -> bool:
    """Gazetteer hit, or a multi-unit/numbered formula of real element symbols."""
    if form.lower() in gazetteer:
        return True
    if len(form) < 2 or not _FORMULA_RE.match(form):
        return False
    units = _FORMULA_UNIT_RE.findall(form)
    symbols = [sym for sym, _ in units]
    if any(sym not in ELEMENT_SYMBOLS for sym in symbols):
        return False
    has_digit = any(count for _, count in units)
    # A lone bare symbol ("He", "In") is far more often an ordinary word.
    return has_digit or len(symbols) >= 2


def extract_frames(
    parsed: ParsedSentence, gazetteer: frozenset[str] = frozenset()
) -> list[SvoFrame]:
    """One frame per verb token, in sentence order.

    Subjects come from nsubj/nsubjpass dependents, objects from obj/dobj,
    and modifiers from amod/advmod attached to the verb, its subject, or its
    object. Tokens naming chemicals are tagged for direct concept mapping.
    """
    tokens = parsed.tokens
    children: dict[int, list[Token]] = {}
    for t in tokens:
        children.setdefault(t.head, []).append(t)
    chemicals = frozenset(
        t.index for t in tokens if is_chemical_token(t.form, gazetteer)
    )
    frames = []
    for t in tokens:
        if t.upos != "VERB":
            continue
        frame = SvoFrame(verb=t, chemical_tokens=chemicals)
        for child in children.get(t.index, ()):
            if child.deprel in SUBJECT_DEPRELS and frame.subject is None:
                frame.subject = child
            elif child.deprel in OBJECT_DEPRELS and frame.obj is None:
                frame.obj = child
        for anchor in (t, frame.subject, frame.obj):
            if anchor is None:
                continue
            for child in children.get(anchor.index, ()):
                if child.deprel in MODIFIER_DEPRELS:
                    frame.modifiers.append((child, anchor))
        frames.append(frame)
    return frames


# ---- sense resolution ----

def _lex_pos(token: Token) -> str | None:
    return _UPOS_TO_LEX.get(token.upos)


def _sense_options(
    token: Token,
    frame: SvoFrame,
    graph: OntologyGraph,
    synsets: SynsetLexicon | None,
    embeddings: EmbeddingStore | None,
) -> list[LexEntry]:
    if token.index in frame.chemical_tokens and graph.has_concept(CHEMICAL_CONCEPT):
        return [LexEntry(token.lemma.lower(), "NOUN", ConceptSense(CHEMICAL_CONCEPT), 0)]
    pos = _lex_pos(token)
    if pos is None:
        return []
    entries = graph.senses(token.lemma, pos)
    if entries or pos != "VERB" or synsets is None:
        return entries
    # Unknown verb: try synonym/embedding replacements, first lemma that
    # resolves wins. With no embedding store the synonym list alone is used.
    if embeddings is not None:
        candidates = candidate_verb_lemmas(synsets, embeddings, token.lemma)
    else:
        candidates = synsets.ordered_synonyms(token.lemma)
    for lemma in candidates:
        entries = graph.senses(lemma, "VERB")
        if entries:
            return entries
    return []


def _combination_score(
    assignment: dict[int, LexEntry],
    frame: SvoFrame,
    graph: OntologyGraph,
) -> int:
    """Count of ontology relations the assignment satisfies.

    One point per case-role slot filled (subject or object grounded as a
    concept under an event verb) and per attribute whose bearer is a
    grounded, domain-compatible concept.
    """
    score = 0
    verb_entry = assignment.get(frame.verb.index)
    event = None
    if verb_entry is not None and isinstance(verb_entry.sense, ConceptSense):
        if graph.root_of(verb_entry.sense.concept) == ROOT_EVENT:
            event = verb_entry.sense.concept
    concept_of: dict[int, str] = {}
    for idx, entry in assignment.items():
        if isinstance(entry.sense, ConceptSense):
            concept_of[idx] = entry.sense.concept
    if event is not None:
        for slot in (frame.subject, frame.obj):
            if slot is not None and slot.index in concept_of:
                score += 1
    for mod, anchor in frame.modifiers:
        entry = assignment.get(mod.index)
        if entry is None or not isinstance(entry.sense, PropertySense):
            continue
        prop = graph.properties.get(entry.sense.prop)
        if prop is None or prop.kind != KIND_ATTRIBUTE:
            continue
        bearer = concept_of.get(anchor.index)
        if bearer is not None and graph.attribute_applies(prop.name, bearer):
            score += 1
    return score


def _choose_assignment(
    options: dict[int, list[LexEntry]],
    frame: SvoFrame,
    graph: OntologyGraph,
) -> dict[int, LexEntry]:
    """Exhaustively pick the combination with the most satisfied relations.

    Ties prefer the lowest summed priority, then the earliest combination in
    enumeration order (token order, senses by priority).
    """
    indices = sorted(options)
    pools = [options[i] for i in indices]
    total = 1
    for pool in pools:
        total *= len(pool)
    if total > _MAX_COMBINATIONS:
        pools = [pool[:3] for pool in pools]
    best: dict[int, LexEntry] | None = None
    best_key: tuple[int, int] | None = None
    for combo in itertools.product(*pools):
        assignment = dict(zip(indices, combo))
        score = _combination_score(assignment, frame, graph)
        key = (-score, sum(e.priority for e in combo))
        if best_key is None or key < best_key:
            best, best_key = assignment, key
    return best or {}


def _emit_concept(tmr: Tmr, graph: OntologyGraph, concept: str, distance: int) -> None:
    tmr.elements.append(TmrElement(CONCEPT, concept, distance))
    for step, ancestor in enumerate(graph.ancestors(concept), start=distance + 1):
        if ancestor in ROOTS:
            break
        tmr.elements.append(TmrElement(CONCEPT, ancestor, step))


def _emit_completion(
    tmr: Tmr,
    graph: OntologyGraph,
    event: str,
    role: str,
    sense: PropertySense,
) -> None:
    path = graph.complete_path(event, sense)
    # path = [event, UNKNOWN, property, value-or-UNKNOWN]
    tmr.elements.append(TmrElement(CONCEPT, UNKNOWN, 1))
    tmr.edges.append((event, role, UNKNOWN))
    value = path[3]
    if value == UNKNOWN:
        tmr.elements.append(TmrElement(CONCEPT, UNKNOWN, 1))
    tmr.edges.append((UNKNOWN, sense.prop, value))


def build_tmr(
    frame: SvoFrame,
    graph: OntologyGraph,
    synsets: SynsetLexicon | None = None,
    embeddings: EmbeddingStore | None = None,
    sentence_ref: int = -1,
) -> Tmr:
    """Ground one frame against the ontology.

    Concepts enter at distance 1 with their ancestor chains one step further
    each, stopping before EVENT/OBJECT; properties always enter at distance
    1. Case-role links are recorded as edges and as property elements (the
    scorer excludes those by default). A frame where nothing grounds comes
    back empty and flagged unmappable.
    """
    tmr = Tmr(sentence_ref=sentence_ref)
    tokens: list[Token] = [frame.verb]
    if frame.subject is not None:
        tokens.append(frame.subject)
    if frame.obj is not None:
        tokens.append(frame.obj)
    tokens.extend(mod for mod, _ in frame.modifiers)

    options: dict[int, list[LexEntry]] = {}
    for token in tokens:
        opts = _sense_options(token, frame, graph, synsets, embeddings)
        if opts:
            options[token.index] = opts
    if not options:
        tmr.unmappable = True
        return tmr

    assignment = _choose_assignment(options, frame, graph)

    event: str | None = None
    verb_entry = assignment.get(frame.verb.index)
    if verb_entry is not None and isinstance(verb_entry.sense, ConceptSense):
        concept = verb_entry.sense.concept
        _emit_concept(tmr, graph, concept, 1)
        if graph.root_of(concept) == ROOT_EVENT:
            event = concept

    for slot, default_role in ((frame.subject, "AGENT"), (frame.obj, "THEME")):
        if slot is None or slot.index not in assignment:
            continue
        entry = assignment[slot.index]
        role = default_role
        if slot is frame.subject and frame.passive():
            role = "THEME"
        if isinstance(entry.sense, ConceptSense):
            concept = entry.sense.concept
            _emit_concept(tmr, graph, concept, 1)
            if event is not None:
                if role == "THEME" and "INFORMATION-OBJECT" in (
                    concept,
                    *graph.ancestors(concept),
                ):
                    role = "THEME-INFORMATION"
                tmr.elements.append(TmrElement(PROPERTY, role, 1))
                tmr.edges.append((event, role, concept))
        elif event is not None:
            try:
                _emit_completion(tmr, graph, event, role, entry.sense)
            except CompletionError:
                continue  # that token alone stays ungrounded
            tmr.elements.append(TmrElement(PROPERTY, entry.sense.prop, 1))
            tmr.elements.append(TmrElement(PROPERTY, role, 1))
        else:
            # No event concept to anchor a completion; the evoked property
            # still stands on its own at distance 1.
            tmr.elements.append(TmrElement(PROPERTY, entry.sense.prop, 1))

    for mod, anchor in frame.modifiers:
        if mod.index not in assignment:
            continue
        entry = assignment[mod.index]
        if isinstance(entry.sense, ConceptSense):
            _emit_concept(tmr, graph, entry.sense.concept, 1)
            continue
        sense = entry.sense
        bearer: str | None = None
        if anchor.index == frame.verb.index:
            bearer = event
        else:
            anchor_entry = assignment.get(anchor.index)
            if anchor_entry is not None and isinstance(anchor_entry.sense, ConceptSense):
                bearer = anchor_entry.sense.concept
        if bearer is not None:
            tmr.elements.append(TmrElement(PROPERTY, sense.prop, 1))
            tmr.edges.append((bearer, sense.prop, sense.value or UNKNOWN))
            if sense.value is None:
                tmr.elements.append(TmrElement(CONCEPT, UNKNOWN, 1))
            continue
        prop = graph.properties.get(sense.prop)
        if event is not None and prop is not None and prop.kind == KIND_ATTRIBUTE:
            try:
                _emit_completion(tmr, graph, event, "THEME", sense)
            except CompletionError:
                continue  # that token alone stays ungrounded
            tmr.elements.append(TmrElement(PROPERTY, sense.prop, 1))
        else:
            tmr.elements.append(TmrElement(PROPERTY, sense.prop, 1))

    return tmr


def merge_tmrs(tmrs: list[Tmr], sentence_ref: int) -> Tmr:
    """Union of several frames' representations for one sentence."""
    merged = Tmr(sentence_ref=sentence_ref)
    for t in tmrs:
        merged.elements.extend(t.elements)
        merged.edges.extend(t.edges)
    merged.unmappable = not merged.elements
    return merged


def build_sentence_tmr(
    sentence,
    graph: OntologyGraph,
    gazetteer: frozenset[str] = frozenset(),
    synsets: SynsetLexicon | None = None,
    embeddings: EmbeddingStore | None = None,
) -> Tmr:
    """Representation of a whole sentence: merged frames, or empty if unparsed."""
    if sentence.parse is None:
        return Tmr(sentence_ref=sentence.global_index, unmappable=True)
    frames = extract_frames(sentence.parse, gazetteer)
    parts = [
        build_tmr(f, graph, synsets, embeddings, sentence.global_index)
        for f in frames
    ]
    return merge_tmrs(parts, sentence.global_index)


def tmr_to_json(tmr: Tmr) -> dict:
    """Canonical serializable form with sorted element and edge lists."""
    return {
        "sentence": tmr.sentence_ref,
        "elements": [
            {"kind": e.kind, "name": e.name, "distance": e.distance}
            for e in sorted(tmr.elements, key=lambda e: (e.kind, e.name, e.distance))
        ],
        "edges": sorted([list(edge) for edge in tmr.edges]),
    }
