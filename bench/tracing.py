"""In-process tracing of figdesc at its module boundaries.

A Tracer replaces the public functions of each package module, at the
module attribute and at every importer's binding, with wrappers that record
one span per call: (name, start, end, parent span, chain id). Private
helpers stay unwrapped, so their time lands in the calling span's self time.
Spans stay in memory until the benchmark writes them out; self time is a
span's duration minus the durations of its direct children.

Nothing under src/ is modified: patches are applied to the imported modules
for the duration of a `with tracer.installed():` block and undone after it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

COMMANDS = ("detect", "calibrate", "classify", "evaluate", "baseline")

# Per-layer time metrics: the sum of the self times of these spans.
SELF_TIME_METRICS = {
    "corpus.load_s": (
        "pipeline.load_corpus_dir", "corpus.load_article_json", "corpus.load_article_xml"
    ),
    "corpus.segment_s": ("corpus.segment_sentences",),
    "corpus.read_conllu_s": ("corpus.attach_parses", "corpus.read_conllu"),
    "figref.scan_s": ("figref.detect_figure_refs", "figref.is_figure_referring"),
    "figref.select_s": ("figref.select_neighbors",),
    "pipeline.detect_s": ("pipeline.detect_article",),
    "pipeline.reference_tmrs_s": ("pipeline.reference_tmrs",),
    "pipeline.score_candidates_s": ("pipeline.score_candidates",),
    "pipeline.provenance_s": ("pipeline.provenance",),
    "pipeline.write_s": ("pipeline.write_jsonl",),
    "pipeline.load_resources_s": ("pipeline.load_resources",),
    "tmr.build_s": ("tmr.build_sentence_tmr", "tmr.extract_frames", "tmr.build_tmr"),
    "ontology.lookup_s": ("ontology.OntologyGraph.senses", "ontology.OntologyGraph.ancestors"),
    "lexres.lookup_s": ("lexres.candidate_verb_lemmas",),
    "lexres.top_k_s": ("lexres.EmbeddingStore.top_k",),
    "scoring.calibrate_s": ("scoring.calibrate",),
    "scoring.weight_s": ("scoring.sentence_weight",),
    "baseline.cv_s": ("baseline.kfold_cv",),
    "baseline.featurize_s": ("baseline.build_vocab", "baseline.featurize", "baseline.to_matrix"),
    "baseline.train_s": ("baseline.train_logreg",),
    **{f"cli.{c}.self_s": (f"cli.{c}",) for c in COMMANDS},
}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_share", "_per_sentence")) else "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, chain]
        self.chain = 0
        self.counts: Counter = Counter()  # per chain, reset by begin_chain
        self.verbs: list[str] = []
        self.fold_sizes: list[list[int]] = []
        self.weights: dict[tuple[str, int], float] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # ---- recording ----

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.chain)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def command(self, name: str, main, argv: list[str]) -> int:
        """Run one CLI command in-process as the root span `cli.<name>`."""
        return self._wrap(f"cli.{name}", main)(argv)

    def begin_chain(self, chain: int) -> None:
        self.chain = chain
        self.counts = Counter()
        self.verbs = []
        self.fold_sizes = []
        self.weights = {}

    # ---- hooks: counts taken where the work happens ----

    def _on_read_conllu(self, args, blocks) -> None:
        self.counts["corpus.sentences_parsed"] += len(blocks)

    def _on_sentence_tmr(self, args, tmr) -> None:
        self.counts["tmr.grounded_parsed"] += args[0].parse is not None
        self.counts["tmr.unmappable"] += tmr.unmappable

    def _on_verb_lookup(self, args, _result) -> None:
        self.verbs.append(args[2].lower())

    def _on_kfold_split(self, _args, folds) -> None:
        self.fold_sizes.append([len(f) for f in folds])

    def _on_score_candidates(self, _args, rows) -> None:
        self.weights.update(((r.uid, r.global_index), r.weight) for r in rows)

    # ---- installation ----

    def _patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook))

    @contextmanager
    def installed(self):
        from figdesc import baseline, corpus, figref, lexres, ontology, pipeline, scoring, tmr

        table = [
            # (owners holding a binding, attribute, span name, hook)
            ((pipeline,), "load_corpus_dir", "pipeline.load_corpus_dir", None),
            ((corpus, pipeline), "load_article_json", "corpus.load_article_json", None),
            ((corpus, pipeline), "load_article_xml", "corpus.load_article_xml", None),
            ((corpus,), "segment_sentences", "corpus.segment_sentences", None),
            ((corpus, pipeline), "attach_parses", "corpus.attach_parses", None),
            ((corpus,), "read_conllu", "corpus.read_conllu", self._on_read_conllu),
            ((figref, pipeline), "detect_figure_refs", "figref.detect_figure_refs", None),
            ((figref, pipeline), "is_figure_referring", "figref.is_figure_referring", None),
            ((figref, pipeline), "select_neighbors", "figref.select_neighbors", None),
            ((pipeline,), "detect_article", "pipeline.detect_article", None),
            ((pipeline,), "reference_tmrs", "pipeline.reference_tmrs", None),
            (
                (pipeline,), "score_candidates", "pipeline.score_candidates",
                self._on_score_candidates,
            ),
            ((pipeline,), "provenance", "pipeline.provenance", None),
            ((pipeline,), "write_jsonl", "pipeline.write_jsonl", None),
            ((pipeline,), "load_resources", "pipeline.load_resources", None),
            (
                (tmr, pipeline), "build_sentence_tmr", "tmr.build_sentence_tmr",
                self._on_sentence_tmr,
            ),
            ((tmr,), "extract_frames", "tmr.extract_frames", None),
            ((tmr,), "build_tmr", "tmr.build_tmr", None),
            (
                (lexres, tmr), "candidate_verb_lemmas", "lexres.candidate_verb_lemmas",
                self._on_verb_lookup,
            ),
            ((ontology.OntologyGraph,), "senses", "ontology.OntologyGraph.senses", None),
            ((ontology.OntologyGraph,), "ancestors", "ontology.OntologyGraph.ancestors", None),
            ((lexres.EmbeddingStore,), "top_k", "lexres.EmbeddingStore.top_k", None),
            ((scoring,), "calibrate", "scoring.calibrate", None),
            ((scoring, pipeline), "sentence_weight", "scoring.sentence_weight", None),
            ((baseline,), "kfold_cv", "baseline.kfold_cv", None),
            ((baseline,), "kfold_split", "baseline.kfold_split", self._on_kfold_split),
            ((baseline,), "build_vocab", "baseline.build_vocab", None),
            ((baseline,), "featurize", "baseline.featurize", None),
            ((baseline,), "to_matrix", "baseline.to_matrix", None),
            ((baseline,), "train_logreg", "baseline.train_logreg", None),
        ]
        try:
            for owners, attr, name, hook in table:
                for owner in owners:
                    self._patch(owner, attr, name, hook)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    # ---- analysis ----

    def chain_spans(self, chain: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[4] == chain]

    def self_times(self, indices: list[int]) -> dict[int, float]:
        """Self time of each span: duration minus its direct children's."""
        out = {i: self.spans[i][2] - self.spans[i][1] for i in indices}
        for i in indices:
            parent = self.spans[i][3]
            if parent in out:
                out[parent] -= self.spans[i][2] - self.spans[i][1]
        return out

    def nesting_ok(self, indices: list[int]) -> bool:
        """Every child span lies inside its parent and no self time is negative."""
        for i in indices:
            _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    return False
        return all(t >= -1e-9 for t in self.self_times(indices).values())

    def command_sums(self, chain: int) -> dict[str, tuple[float, float]]:
        """Per command: (traced command time, sum of self times in its tree)."""
        indices = self.chain_spans(chain)
        selfs = self.self_times(indices)
        root_of: dict[int, int] = {}
        sums: dict[str, list[float]] = {}
        for i in indices:  # parents precede children in the span list
            parent = self.spans[i][3]
            root_of[i] = i if parent < 0 else root_of[parent]
            name = self.spans[root_of[i]][0]
            sums.setdefault(name, [0.0, 0.0])[1] += selfs[i]
            if root_of[i] == i:
                sums[name][0] += self.spans[i][2] - self.spans[i][1]
        return {name: (total, summed) for name, (total, summed) in sums.items()}

    def chain_metrics(self, chain: int, corpus_sentences: int) -> dict[str, float]:
        """Per-layer metrics of one traced chain."""
        indices = self.chain_spans(chain)
        selfs = self.self_times(indices)
        self_by_name: Counter = Counter()
        total_by_name: Counter = Counter()
        calls: Counter = Counter()
        for i in indices:
            name, start, end = self.spans[i][:3]
            self_by_name[name] += selfs[i]
            total_by_name[name] += end - start
            calls[name] += 1
        out = {m: sum(self_by_name[n] for n in names) for m, names in SELF_TIME_METRICS.items()}
        out.update({f"cli.{c}.total_s": total_by_name[f"cli.{c}"] for c in COMMANDS})
        parsed = self.counts["corpus.sentences_parsed"]
        sentences = calls["tmr.build_sentence_tmr"]
        lookups = calls["lexres.candidate_verb_lemmas"]
        scans = calls["figref.detect_figure_refs"] + calls["figref.is_figure_referring"]
        out.update(
            {
                "corpus.sentences_parsed": parsed,
                "corpus.parse_use_ratio": _ratio(self.counts["tmr.grounded_parsed"], parsed),
                "corpus.loads_per_chain": calls["pipeline.load_corpus_dir"],
                "figref.scans_per_sentence": _ratio(scans, corpus_sentences),
                "tmr.sentences": sentences,
                "tmr.frames": calls["tmr.build_tmr"],
                "tmr.unmappable_ratio": _ratio(self.counts["tmr.unmappable"], sentences),
                "ontology.senses_calls": calls["ontology.OntologyGraph.senses"],
                "ontology.ancestors_calls": calls["ontology.OntologyGraph.ancestors"],
                "lexres.verb_lookups": lookups,
                "lexres.distinct_verb_share": _ratio(len(set(self.verbs)), lookups),
                "lexres.top_k_calls": calls["lexres.EmbeddingStore.top_k"],
                "scoring.weight_calls": calls["scoring.sentence_weight"],
                "baseline.folds": sum(len(sizes) for sizes in self.fold_sizes),
            }
        )
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent, chain."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def median_metrics(per_chain: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_chain) for k in per_chain[0]}
