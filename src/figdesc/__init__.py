"""Figure-descriptive sentence extraction for scientific article text.

The pipeline: load articles, detect figure-referring sentences, select their
neighboring candidate sentences, ground each sentence in a concept ontology,
calibrate inverse-square-distance element weights on the referring
sentences, and classify candidates against a scaled mean-weight threshold.
"""

import os

# BLAS runs on one thread unless the caller sets otherwise. Only the baseline
# computes with numpy, and its matrix is small (thousands of rows by hundreds
# of columns), so a second BLAS thread spins between products: on a 2-core
# host with one other busy process, k-fold training took 0.72-0.81 s on two
# threads and 0.28-0.34 s on one (idle: 0.23-0.26 s on two, 0.26-0.35 on one).
# OpenBLAS and MKL read these when numpy first loads them, so this comes first.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# None of these modules imports numpy, so no command but baseline loads it.
from .corpus import (  # noqa: E402
    Article, Paragraph, ParsedSentence, Sentence, Token, attach_parses, load_article_json,
    load_article_xml, segment_sentences,
)
from .figref import CandidateSet, FigRefMatch, detect_figure_refs, select_neighbors  # noqa: E402
from .lexres import (  # noqa: E402
    EmbeddingStore, SynsetLexicon, candidate_verb_lemmas, load_embeddings, load_synsets,
)
from .ontology import OntologyGraph, load_ontology  # noqa: E402
from .scoring import (  # noqa: E402
    WeightTable, calibrate, classify, compute_threshold, sentence_weight,
)
from .tmr import Tmr, build_sentence_tmr, build_tmr, extract_frames  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "Article", "CandidateSet", "EmbeddingStore", "FigRefMatch", "OntologyGraph", "Paragraph",
    "ParsedSentence", "Sentence", "SynsetLexicon", "Tmr", "Token", "WeightTable",
    "attach_parses", "build_sentence_tmr", "build_tmr", "calibrate", "candidate_verb_lemmas",
    "classify", "compute_threshold", "detect_figure_refs", "extract_frames", "load_article_json",
    "load_article_xml", "load_embeddings", "load_ontology", "load_synsets", "segment_sentences",
    "select_neighbors", "sentence_weight",
]
