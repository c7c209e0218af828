"""
Loading article bodies
======================

Articles arrive as JSON (pre-segmented or raw paragraph text), as minimal
XML, or as a whole directory. Parses live in CONLL-U sidecar files and get
attached after loading.
"""

from pathlib import Path

from figdesc import pipeline
from figdesc.corpus import (
    attach_parses,
    load_article_json,
    load_article_xml,
    segment_sentences,
)

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "data" / "minicorpus"

# ---- sentence segmentation ----

raw = (
    "The spectra in Fig. 2 were taken at 4.2 K. Intensities vary by "
    "approx. 10 percent. See e.g. the shoulder near 1.5 eV."
)
for s in segment_sentences(raw):
    print("|", s)

# the protected abbreviations keep "Fig." and "e.g." from ending sentences
print()

# ---- one article from JSON ----

doc = (MINI / "M001.json").read_text()
art = load_article_json(doc)
print(art.uid, "has", len(art.paragraphs), "paragraphs and",
      sum(len(p.sentences) for p in art.paragraphs), "sentences")

# global sentence indices run across paragraph boundaries
for sent in list(art.sentences())[:4]:
    print(f"  [{sent.global_index}] {sent.text[:60]}")
print()

# ---- the same article with dependency parses attached ----

parsed = attach_parses(art, (MINI / "M001.conllu").read_text())
first = parsed.sentences()[0]
print("tokens of sentence 0:", [t.form for t in first.parse.tokens])
print()

# ---- XML input ----

xml = b"""<article uid="demo-1">
  <body>
    <para>Figure 1 shows a calibration curve. The slope is linear.</para>
    <para>Results follow.</para>
  </body>
</article>"""
from_xml = load_article_xml(xml)
print("xml uid:", from_xml.uid)

# without a uid attribute the loader derives one from the content hash,
# so reloading identical bytes always yields the same identifier
anon = load_article_xml(xml.replace(b' uid="demo-1"', b""))
print("derived uid:", anon.uid)
print()

# ---- a whole corpus directory ----

# load_corpus_dir yields one article at a time, in file-name order
articles = sorted(pipeline.load_corpus_dir(MINI), key=lambda a: a.uid)
print(len(articles), "articles:", ", ".join(a.uid for a in articles[:6]), "...")
