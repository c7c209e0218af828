"""
Finding figure references and their neighborhoods
=================================================

A sentence that cites a figure anchors a small window of surrounding
sentences; those neighbors are the candidates that later get scored.
"""

from pathlib import Path

from figdesc import pipeline
from figdesc.corpus import load_article_json
from figdesc.figref import detect_figure_refs, select_neighbors

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "data" / "minicorpus"


def show(text):
    from figdesc.corpus import Sentence

    sent = Sentence(text=text, global_index=0, paragraph_index=0, index_in_paragraph=0)
    matches = detect_figure_refs(sent)
    labels = [m.labels for m in matches]
    print(f"{text!r:60} -> {labels if matches else 'no reference'}")


# ---- what counts as a reference ----

show("Figure 3 shows the decay.")
show("As seen in Figs. 1-3, the trend holds.")
show("Figures 2, 5 summarize both runs.")
show("fig. S4 has the controls.")
show("The configuration space is large.")   # no
show("We refined the structure further.")    # "figure" must be a citation

# comma lists split into separate labels, dash ranges stay one label
print()

# ---- neighbors of a reference sentence ----

art = load_article_json((MINI / "M003.json").read_text())
detection = pipeline.detect_article(art, window=2)
print(art.uid, "references:", [(r["global_index"], r["labels"]) for r in detection.refs])
print(art.uid, "candidates:", detection.candidate_indices)

# a neighbor window is clipped at the paragraph boundary and never
# includes another figure-referring sentence
first_ref = detection.refs[0]["global_index"]
for p in art.paragraphs:
    globals_ = [s.global_index for s in p.sentences]
    if first_ref in globals_:
        pos = globals_.index(first_ref)
        cand = select_neighbors(p, pos, window=2)
        print("window 2 around sentence", cand.ref_global_index,
              "->", cand.neighbor_indices)
        cand = select_neighbors(p, pos, window=1)
        print("window 1 around sentence", cand.ref_global_index,
              "->", cand.neighbor_indices)
        break
print()

# ---- counts over the bundled mini corpus ----

# the loader yields one article at a time, in file-name order
n_articles = 0
n_refs = 0
n_cands = 0
for a in pipeline.load_corpus_dir(MINI):
    d = pipeline.detect_article(a, window=2)
    n_articles += 1
    n_refs += len(d.refs)
    n_cands += len(d.candidate_indices)
print(n_articles, "articles,", n_refs, "figure-referring sentences,",
      n_cands, "distinct candidate sentences")
