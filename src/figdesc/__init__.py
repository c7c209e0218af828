"""Figure-descriptive sentence extraction for scientific article text.

The pipeline: load articles, detect figure-referring sentences, select their
neighboring candidate sentences, ground each sentence in a concept ontology,
calibrate inverse-square-distance element weights on the referring
sentences, and classify candidates against a scaled mean-weight threshold.
"""

import os

# BLAS runs on one thread unless the caller sets otherwise. The package's
# matrices are small (the baseline's is a few thousand rows by a few hundred
# columns), and a second BLAS thread spins between products: on a 2-core
# host with one other busy process, k-fold training went from 0.5 s to
# 1.1-1.8 s on two threads and stayed at 0.6 s on one. OpenBLAS and MKL read
# these variables when numpy first loads them, so this precedes every import.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .corpus import (
    Article,
    Paragraph,
    ParsedSentence,
    Sentence,
    Token,
    attach_parses,
    load_article_json,
    load_article_xml,
    segment_sentences,
)
from .figref import CandidateSet, FigRefMatch, detect_figure_refs, select_neighbors
from .lexres import (
    EmbeddingStore,
    SynsetLexicon,
    candidate_verb_lemmas,
    load_embeddings,
    load_synsets,
)
from .ontology import OntologyGraph, load_ontology
from .scoring import (
    ScoringConfig,
    WeightTable,
    calibrate,
    classify,
    compute_threshold,
    sentence_weight,
)
from .tmr import Tmr, build_sentence_tmr, build_tmr, extract_frames, tmr_elements

__version__ = "0.1.0"

__all__ = [
    "Article",
    "CandidateSet",
    "EmbeddingStore",
    "FigRefMatch",
    "OntologyGraph",
    "Paragraph",
    "ParsedSentence",
    "ScoringConfig",
    "Sentence",
    "SynsetLexicon",
    "Tmr",
    "Token",
    "WeightTable",
    "attach_parses",
    "build_sentence_tmr",
    "build_tmr",
    "calibrate",
    "candidate_verb_lemmas",
    "classify",
    "compute_threshold",
    "detect_figure_refs",
    "extract_frames",
    "load_article_json",
    "load_article_xml",
    "load_embeddings",
    "load_ontology",
    "load_synsets",
    "segment_sentences",
    "select_neighbors",
    "sentence_weight",
    "tmr_elements",
]
