"""
From a parsed sentence to a meaning representation
==================================================

Each verb of a dependency-parsed sentence yields a frame (verb, subject,
object, attached modifiers). Frames are grounded in the ontology: every
grounded concept brings its ancestor chain at growing distance, every
resolved modifier a property at distance 1. The per-verb graphs merge
into one representation per sentence.
"""

from pathlib import Path

from figdesc import fixtures, pipeline
from figdesc.corpus import load_article_json, attach_parses
from figdesc.tmr import build_sentence_tmr, extract_frames

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "data" / "minicorpus"

res = pipeline.load_resources(
    fixtures.fixture_path("ontology.txt"),
    fixtures.fixture_path("synsets.json"),
    fixtures.fixture_path("embeddings.txt"),
    fixtures.fixture_path("gazetteer.txt"),
)

art = load_article_json((MINI / "M001.json").read_text())
art = attach_parses(art, (MINI / "M001.conllu").read_text())

# ---- frames ----

sent = art.sentences()[2]
print("sentence:", sent.text)
for frame in extract_frames(sent.parse, res.gazetteer):
    subj = frame.subject.form if frame.subject else "-"
    obj = frame.obj.form if frame.obj else "-"
    mods = [(m.form, a.form) for m, a in frame.modifiers]
    print(f"  verb={frame.verb.form} subject={subj} object={obj} modifiers={mods}")
print()

# ---- the grounded representation ----

tmr = build_sentence_tmr(sent, res.graph, res.gazetteer, res.synsets, res.embeddings)
print("elements (kind, name, distance):")
for el in sorted(tmr.elements, key=lambda e: (e.kind, e.name, e.distance)):
    print(f"  {el.kind:8} {el.name:25} d={el.distance}")
print("edges:")
for edge in tmr.edges:
    print("  %s -[%s]-> %s" % (edge[0], edge[1], edge[2]))
print()

# a sentence whose words stay outside the lexicon grounds to nothing
plain = art.sentences()[0]
empty = build_sentence_tmr(plain, res.graph, res.gazetteer, res.synsets, res.embeddings)
print(f"{plain.text!r} -> unmappable={empty.unmappable}")
print()

# ---- verbs outside the lexicon ----

# a verb with no lexicon entry is mapped through its synonyms, filtered
# by embedding similarity; "depict" lands on the sense of "show"
from figdesc.lexres import candidate_verb_lemmas

print("depict ->", candidate_verb_lemmas(res.synsets, res.embeddings, "depict"))

# chemical formula tokens ground as CHEMICAL without a lexicon entry
from figdesc.tmr import is_chemical_token

for tok in ("TiO2", "NaCl", "peak"):
    print(f"is_chemical_token({tok!r}) = {is_chemical_token(tok, res.gazetteer)}")
