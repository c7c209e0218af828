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
print(art.uid, "references:",
      [(s.global_index, neighbors) for s, neighbors in detection.refs])
print(art.uid, "candidates:", [s.global_index for s in detection.candidates])

# the detection holds sentences; the labels and spans that detect writes come
# from a scan of each reference sentence alone
ref, _ = detection.refs[-1]
print("labels of sentence", ref.global_index, "->",
      [m.labels for m in detect_figure_refs(ref)])

# a neighbor window is clipped at the paragraph boundary and never
# includes another figure-referring sentence
paragraph = art.paragraphs[ref.paragraph_index]
pos = ref.index_in_paragraph
cand = select_neighbors(paragraph, pos, window=2)
print("window 2 around sentence", cand.ref_global_index, "->", cand.neighbor_indices)
cand = select_neighbors(paragraph, pos, window=1)
print("window 1 around sentence", cand.ref_global_index, "->", cand.neighbor_indices)
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
    n_cands += len(d.candidates)
print(n_articles, "articles,", n_refs, "figure-referring sentences,",
      n_cands, "distinct candidate sentences")
