"""Meaning representations of single sentences.

A sentence's representation is built from its subject-verb-object frames:
every token that the lexicon can ground contributes either a concept (plus
its IS-A ancestors, one distance step per link, stopping before the roots)
or a property at distance 1. Case-role links tie subjects and objects to the
verb's event concept. One rule grounds every evoked property: its bearer
takes an edge to the sense's value, or to UNKNOWN plus one UNKNOWN value
placeholder when the sense names none. The bearer is the event for a verb's
modifier, the concept for a subject's or object's, and for an attribute that
has none expressed, a sentence-scoped UNKNOWN placeholder filling the event's
role, if OntologyGraph.completes lets an object bear it. Ambiguous tokens take
the sense combination that satisfies the most ontology relations, found
exactly by a search along the frame's tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .corpus import ParsedSentence, Record, Token, decode_utf8
from .errors import SchemaError
from .lexres import EmbeddingStore, SynsetLexicon, candidate_verb_lemmas
from .ontology import (
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


class TmrElement(NamedTuple):
    """One element of a representation; sorts by kind, then name, then distance."""

    kind: str  # CONCEPT or PROPERTY
    name: str  # ontology identifier, or UNKNOWN for placeholders
    distance: int


class SvoFrame(Record):
    """One verb's slice of a parsed sentence."""

    __slots__ = _fields = ("verb", "subject", "obj", "modifiers", "chemical_tokens")

    def __init__(
        self,
        verb: Token,
        subject: Token | None = None,
        obj: Token | None = None,
        modifiers: list[tuple[Token, Token]] | None = None,
        chemical_tokens: frozenset[int] = frozenset(),
    ) -> None:
        self.verb, self.subject, self.obj = verb, subject, obj
        self.modifiers = [] if modifiers is None else modifiers
        self.chemical_tokens = chemical_tokens

    def passive(self) -> bool:
        return (
            self.subject is not None
            and self.subject.deprel in PASSIVE_SUBJECT_DEPRELS
        )


class Tmr(Record):
    """Element multiset plus relation edges for one sentence."""

    __slots__ = _fields = ("sentence_ref", "elements", "edges", "unmappable")

    def __init__(
        self,
        sentence_ref: int,
        elements: list[TmrElement] | None = None,
        edges: list[tuple[str, str, str]] | None = None,
        unmappable: bool = False,
    ) -> None:
        self.sentence_ref = sentence_ref
        self.elements = [] if elements is None else elements
        self.edges = [] if edges is None else edges
        self.unmappable = unmappable


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

def _sense_options(
    token: Token,
    frame: SvoFrame,
    graph: OntologyGraph,
    synsets: SynsetLexicon | None,
    embeddings: EmbeddingStore | None,
) -> list[LexEntry]:
    if token.index in frame.chemical_tokens and graph.has_concept(CHEMICAL_CONCEPT):
        return [LexEntry(token.lemma.lower(), "NOUN", ConceptSense(CHEMICAL_CONCEPT), 0)]
    pos = _UPOS_TO_LEX.get(token.upos)
    if pos is None:
        return []
    entries = graph.senses(token.lemma, pos)
    if entries or pos != "VERB" or synsets is None:
        return entries
    # Unknown verb: the first replacement lemma that resolves wins.
    for lemma in candidate_verb_lemmas(synsets, embeddings, token.lemma):
        entries = graph.senses(lemma, "VERB")
        if entries:
            return entries
    return []


def _concept(entry: LexEntry | None) -> str | None:
    """The concept an entry grounds as; None for a property sense or no entry."""
    sense = None if entry is None else entry.sense
    return sense.concept if isinstance(sense, ConceptSense) else None


def _event(graph: OntologyGraph, concept: str | None) -> str | None:
    """The verb's concept if it is an event, whose case roles slots fill."""
    return concept if concept is not None and graph.root_of(concept) == ROOT_EVENT else None


def _describes(graph: OntologyGraph, entry: LexEntry, bearer: str | None) -> bool:
    """Whether a modifier's sense is an attribute that applies to its anchor's concept."""
    return (
        bearer is not None
        and isinstance(entry.sense, PropertySense)
        and graph.is_attribute(entry.sense.prop)
        and graph.attribute_applies(entry.sense.prop, bearer)
    )


def _choose_assignment(
    options: dict[int, list[LexEntry]],
    frame: SvoFrame,
    graph: OntologyGraph,
) -> dict[int, LexEntry]:
    """Pick the combination of senses with the most relations, a relation
    being a slot grounded as a concept under an event verb or a modifier that
    _describes its anchor. Ties prefer the lowest summed priority, then the
    earliest combination in token order, senses in pool order. A relation
    ties a token only to the one it hangs from, so the search follows the
    frame's tree: each sense of an anchor takes each modifier's best sense,
    each slot's best is found once per kind of verb sense (event or not),
    and the verb comes last.
    """
    mods: dict[int, list[int]] = {}
    for mod, anchor in frame.modifiers:
        if mod.index in options:
            mods.setdefault(anchor.index, []).append(mod.index)

    # A choice: (relations, priority sum, {token index: position in its pool}).
    def rank(choice):
        return -choice[0], choice[1], sorted(choice[2].items())

    def grounded(token: Token):
        """Each sense's concept and choice, the token's modifiers at their
        best; one sense of None if the token has no pool."""
        for k, entry in enumerate(options.get(token.index) or [None]):
            concept, score = _concept(entry), 0
            # build_tmr grounds a verb's modifier only on the verb's event
            bearer = _event(graph, concept) if token is frame.verb else concept
            psum, picks = (0, {}) if entry is None else (entry.priority, {token.index: k})
            for m in mods.get(token.index, ()):
                miss, priority, picks[m] = min(
                    (not _describes(graph, e, bearer), e.priority, j)
                    for j, e in enumerate(options[m])
                )
                score, psum = score + (not miss), psum + priority
            yield concept, (score, psum, picks)

    slots = [list(grounded(slot)) for slot in (frame.subject, frame.obj) if slot is not None]
    slot_best: dict[bool, list] = {}
    choices = []
    for concept, (score, psum, picks) in grounded(frame.verb):
        event = _event(graph, concept) is not None
        if event not in slot_best:
            slot_best[event] = [
                min(((s + (event and c is not None), p, pk) for c, (s, p, pk) in slot), key=rank)
                for slot in slots
            ]
        for s, p, pk in slot_best[event]:
            score, psum, picks = score + s, psum + p, {**picks, **pk}
        choices.append((score, psum, picks))
    picks = min(choices, key=rank)[2]
    return {idx: options[idx][picks[idx]] for idx in sorted(picks)}


def _emit_concept(tmr: Tmr, graph: OntologyGraph, concept: str) -> None:
    tmr.elements.append(TmrElement(CONCEPT, concept, 1))
    for step, ancestor in enumerate(graph.ancestors(concept), start=2):
        if ancestor in ROOTS:
            break
        tmr.elements.append(TmrElement(CONCEPT, ancestor, step))


def _emit_attribute(tmr: Tmr, bearer: str, sense: PropertySense) -> None:
    """Emit the property and its edge from the bearer to the sense's value.

    A sense with no value points at UNKNOWN and adds one UNKNOWN placeholder.
    """
    tmr.elements.append(TmrElement(PROPERTY, sense.prop, 1))
    tmr.edges.append((bearer, sense.prop, sense.value or UNKNOWN))
    if sense.value is None:
        tmr.elements.append(TmrElement(CONCEPT, UNKNOWN, 1))


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
    tokens = [t for t in (frame.verb, frame.subject, frame.obj) if t is not None]
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
    concept_of = {i: c for i, entry in assignment.items() if (c := _concept(entry)) is not None}
    for concept in concept_of.values():
        _emit_concept(tmr, graph, concept)
    event = _event(graph, concept_of.get(frame.verb.index))

    # Each evoked property with its expressed bearer, the role an UNKNOWN
    # bearer would fill, and whether that role is a slot's own (an element too).
    evoked: list[tuple[PropertySense, str | None, str, bool]] = []
    for slot, role in ((frame.subject, "AGENT"), (frame.obj, "THEME")):
        if slot is None or slot.index not in assignment:
            continue
        if slot is frame.subject and frame.passive():
            role = "THEME"
        concept = concept_of.get(slot.index)
        if concept is None:
            evoked.append((assignment[slot.index].sense, None, role, True))
        elif event is not None:
            if role == "THEME" and "INFORMATION-OBJECT" in (concept, *graph.ancestors(concept)):
                role = "THEME-INFORMATION"
            tmr.elements.append(TmrElement(PROPERTY, role, 1))
            tmr.edges.append((event, role, concept))
    for mod, anchor in frame.modifiers:
        if mod.index in assignment and mod.index not in concept_of:
            bearer = event if anchor.index == frame.verb.index else concept_of.get(anchor.index)
            evoked.append((assignment[mod.index].sense, bearer, "THEME", False))

    for sense, bearer, role, linked in evoked:
        if bearer is not None:
            _emit_attribute(tmr, bearer, sense)
        elif event is None or not graph.is_attribute(sense.prop):
            # Nothing to anchor a completion, or no attribute to complete.
            tmr.elements.append(TmrElement(PROPERTY, sense.prop, 1))
        elif graph.completes(sense.prop):
            # An UNKNOWN placeholder fills the event's role and bears the
            # attribute. An attribute that no object may bear grounds nothing.
            tmr.elements.append(TmrElement(CONCEPT, UNKNOWN, 1))
            tmr.edges.append((event, role, UNKNOWN))
            _emit_attribute(tmr, UNKNOWN, sense)
            if linked:
                tmr.elements.append(TmrElement(PROPERTY, role, 1))
    return tmr


def build_sentence_tmr(
    sentence,
    graph: OntologyGraph,
    gazetteer: frozenset[str] = frozenset(),
    synsets: SynsetLexicon | None = None,
    embeddings: EmbeddingStore | None = None,
) -> Tmr:
    """Representation of a whole sentence: the union of its frames', unmappable
    when none holds an element, and empty if unparsed."""
    tmr = Tmr(sentence_ref=sentence.global_index, unmappable=True)
    if sentence.parse is None:
        return tmr
    for frame in extract_frames(sentence.parse, gazetteer):
        part = build_tmr(frame, graph, synsets, embeddings, sentence.global_index)
        tmr.elements += part.elements
        tmr.edges += part.edges
    tmr.unmappable = not tmr.elements
    return tmr


def tmr_to_json(tmr: Tmr) -> dict:
    """Canonical serializable form with sorted element and edge lists."""
    return {
        "sentence": tmr.sentence_ref,
        "elements": [
            {"kind": kind, "name": name, "distance": d} for kind, name, d in sorted(tmr.elements)
        ],
        "edges": sorted([list(edge) for edge in tmr.edges]),
    }
