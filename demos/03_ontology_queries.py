"""Walking the bundled ontology.

Concepts form a single-inheritance-biased IS-A graph under two roots,
EVENT and OBJECT. Properties are either attributes with value sets and
applicability domains or case roles that link concepts. The lexicon maps
(lemma, part of speech) pairs to prioritized senses.
"""

from figdesc import fixtures
from figdesc.ontology import load_ontology

graph = load_ontology(fixtures.fixture_path("ontology.txt").read_bytes())

print(len(graph.concepts), "concepts,", len(graph.properties), "properties,",
      sum(len(v) for v in graph.lexicon.values()), "lexicon senses")
print()

# ---- lineage ----

for name in ("DRAWING", "PEAK", "SHOW-INFORMATION"):
    print(f"{name} -> {' -> '.join(graph.ancestors(name))}")
print()

# ---- word senses, most preferred first ----

for lemma, pos in (("figure", "NOUN"), ("show", "VERB"), ("flat", "ADJ")):
    senses = graph.senses(lemma, pos)
    print(f"{lemma}/{pos}:")
    for entry in senses:
        print(f"  priority {entry.priority}: {entry.sense}")
print()

# ---- attribute domains ----

print("SHAPE on PEAK:", graph.attribute_applies("SHAPE", "PEAK"))
print("SHAPE on SHOW-INFORMATION:", graph.attribute_applies("SHAPE", "SHOW-INFORMATION"))
print("SPEED on DECREASE:", graph.attribute_applies("SPEED", "DECREASE"))
print()

# ---- property path completion ----

# an adjective sense names an attribute and a value; when its bearer is
# unexpressed, an UNKNOWN placeholder stands in for the described object,
# and completes says whether the attribute may take one
print("DIRECTIONALITY may take an UNKNOWN bearer:", graph.completes("DIRECTIONALITY"))

# an attribute whose domain holds no object concept cannot take an
# inferred bearer, so the unexpressed case grounds nothing
print("SPEED may take an UNKNOWN bearer:", graph.completes("SPEED"))

# a case role is no attribute, so nothing completes through it
print("AGENT may take an UNKNOWN bearer:", graph.completes("AGENT"))
