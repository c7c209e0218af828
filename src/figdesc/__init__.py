"""Figure-descriptive sentence extraction for scientific article text.

The pipeline: load articles, detect figure-referring sentences, select their
neighboring candidate sentences, ground each sentence in a concept ontology,
calibrate inverse-square-distance element weights on the referring
sentences, and classify candidates against a scaled mean-weight threshold.
"""

import importlib
import os

# BLAS runs on one thread unless the caller sets otherwise. Only the baseline
# computes with numpy, and its matrix is small (thousands of rows by hundreds
# of columns), so a second BLAS thread spins between products: on a 2-core
# host with one other busy process, k-fold training went from 0.5 s to
# 1.1-1.8 s on two threads and stayed at 0.6 s on one. OpenBLAS and MKL read
# these variables when numpy first loads them, so this precedes every import.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# The public names by the module that defines each. They load on first use
# (PEP 562), so importing the package loads no module a command does not use,
# and no command but baseline loads numpy.
_HOMES = {
    "corpus": (
        "Article", "Paragraph", "ParsedSentence", "Sentence", "Token", "attach_parses",
        "load_article_json", "load_article_xml", "segment_sentences",
    ),
    "figref": ("CandidateSet", "FigRefMatch", "detect_figure_refs", "select_neighbors"),
    "lexres": (
        "EmbeddingStore", "SynsetLexicon", "candidate_verb_lemmas", "load_embeddings",
        "load_synsets",
    ),
    "ontology": ("OntologyGraph", "load_ontology"),
    "scoring": ("WeightTable", "calibrate", "classify", "compute_threshold", "sentence_weight"),
    "tmr": ("Tmr", "build_sentence_tmr", "build_tmr", "extract_frames"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
