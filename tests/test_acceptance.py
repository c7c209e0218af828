"""End-to-end acceptance checks.

Each test guards one released behavior at a stated numeric tolerance and
wall-clock budget. Oracles are written independently of the code under test:
neighbor selection is re-derived with a flag scan, the sense search is
compared against a from-scratch exhaustive enumeration, and the calibration
invariants are checked on randomized corpora.
"""

import filecmp
import json
import math
import random
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from figdesc import pipeline
from figdesc.baseline import (
    TrainConfig,
    build_vocab,
    featurize,
    kfold_cv,
    kfold_split,
    load_labeled_jsonl,
    loss_and_gradient,
    to_matrix,
    train_logreg,
)
from figdesc.cli import main
from figdesc.corpus import Token
from figdesc.figref import is_figure_referring, select_neighbors
from figdesc.ontology import ConceptSense, LexEntry, PropertySense
from figdesc.scoring import (
    WeightTable,
    calibrate,
    classify,
    compute_threshold,
    element_contributions,
    evaluate,
    sentence_weight,
)
from figdesc.tmr import (
    CONCEPT,
    PROPERTY,
    SvoFrame,
    Tmr,
    TmrElement,
    _choose_assignment,
    build_sentence_tmr,
)

from .helpers import (
    GOLDEN_CONCEPT_WEIGHTS,
    GOLDEN_CONTRIBUTIONS,
    GOLDEN_PROPERTY_WEIGHTS,
    GOLDEN_SENTENCE_WEIGHT,
    LABELED_PATH,
    MINI_CORPUS,
    REF_PARSE_ROWS,
    REF_TEXT,
    make_paragraph,
    make_sentence,
    parsed_sentence,
    resource_args,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds:g}s"


# ---- 1: worked example ----

def test_01_worked_example_weights(resources):
    """Injected weights reproduce the hand-computed sentence weight."""
    with budget(1.0):
        table = WeightTable(
            concept_weights=dict(GOLDEN_CONCEPT_WEIGHTS),
            property_weights=dict(GOLDEN_PROPERTY_WEIGHTS),
            mean_ref_weight=0.407,
            calibration_counts=(1, 5, 2),
        )
        sent = parsed_sentence(REF_TEXT, REF_PARSE_ROWS)
        tmr = build_sentence_tmr(
            sent,
            resources.graph,
            resources.gazetteer,
            resources.synsets,
            resources.embeddings,
        )
        rows = dict(element_contributions(tmr.elements, table))
        assert len(rows) == len(GOLDEN_CONTRIBUTIONS)
        for key, expected in GOLDEN_CONTRIBUTIONS.items():
            assert rows[key] == pytest.approx(expected, abs=1e-4), key
        weight = sentence_weight(tmr.elements, table)
        assert weight == pytest.approx(GOLDEN_SENTENCE_WEIGHT, abs=1e-4)


# ---- 2: threshold scaling ----

def test_02_threshold_scaling():
    """Thresholds are the stated multiples of the mean reference weight."""
    with budget(1.0):
        mean = 0.407
        expected = {
            0.1: 0.0407,
            0.3: 0.1221,
            0.5: 0.2035,
            0.7: 0.2848,
            0.9: 0.3662,
            1.5: 0.6104,
        }
        for lam, want in expected.items():
            assert compute_threshold(mean, lam) == pytest.approx(want, abs=5e-4), lam


# ---- 3: calibration invariants on randomized corpora ----

_C_NAMES = ["C1", "C2", "C3", "C4", "C5", "EVENT", "OBJECT", "UNKNOWN"]
_P_NAMES = ["P1", "P2", "P3", "AGENT", "THEME", "IS-A", "UNKNOWN"]
_EXCLUDED = {"EVENT", "OBJECT", "AGENT", "THEME", "IS-A", "UNKNOWN"}


def _random_corpus(rng):
    corpus = []
    for ref in range(rng.randint(1, 8)):
        t = Tmr(sentence_ref=ref)
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5:
                t.elements.append(
                    TmrElement(CONCEPT, rng.choice(_C_NAMES), rng.randint(1, 5))
                )
            else:
                t.elements.append(
                    TmrElement(PROPERTY, rng.choice(_P_NAMES), rng.randint(1, 5))
                )
        corpus.append(t)
    return corpus


def test_03_calibration_normalization():
    """1,000 random corpora: each category sums to one, exclusions never leak."""
    with budget(30.0):
        rng = random.Random(20240822)
        calibrated = 0
        while calibrated < 1000:
            corpus = _random_corpus(rng)
            includable = any(
                el.name not in _EXCLUDED for t in corpus for el in t.elements
            )
            if not includable:
                continue
            table = calibrate([t.elements for t in corpus])
            for pool in (table.concept_weights, table.property_weights):
                if pool:
                    assert abs(math.fsum(pool.values()) - 1.0) <= 1e-9
                for name in pool:
                    assert name not in _EXCLUDED
            calibrated += 1
        assert calibrated == 1000


# ---- 4: neighbor selection against a brute-force oracle ----

_REF_RX = re.compile(
    r"\b(?:figures|figure|figs|fig)\.?\s*(S?\d+(?:\s*[-–,]\s*\d+)*)",
    re.IGNORECASE,
)


def _oracle_neighbors(flags, ref_pos, window, globals_):
    """Independent re-derivation from referring-or-not flags."""
    out = []
    for pos, flag in enumerate(flags):
        if pos == ref_pos or abs(pos - ref_pos) > window or flag:
            continue
        out.append(globals_[pos])
    return tuple(out)


def test_04_neighbor_selection_oracle(corpus137, mini_articles):
    """Zero mismatches on every fixture paragraph plus 10,000 random ones."""
    with budget(30.0):
        checked = 0
        for article in list(corpus137) + list(mini_articles):
            for para in article.paragraphs:
                flags = [bool(_REF_RX.search(s.text)) for s in para.sentences]
                globals_ = [s.global_index for s in para.sentences]
                for pos, flag in enumerate(flags):
                    if not flag:
                        continue
                    for window in (0, 1, 2, 3, 4):
                        got = select_neighbors(para, pos, window)
                        want = _oracle_neighbors(flags, pos, window, globals_)
                        assert got.neighbor_indices == want, (article.uid, pos, window)
                        assert got.ref_global_index == globals_[pos]
                        checked += 1
        assert checked > 0

        rng = random.Random(13370905)
        for _ in range(10_000):
            n = rng.randint(1, 10)
            flags = [rng.random() < 0.4 for _ in range(n)]
            ref_pos = rng.randrange(n)
            flags[ref_pos] = True
            start = rng.randint(0, 100)
            texts = [
                f"Fig. {i + 1} shows things." if flag else "Plain filler text here."
                for i, flag in enumerate(flags)
            ]
            para = make_paragraph(texts, start_global=start)
            globals_ = list(range(start, start + n))
            window = rng.randint(0, 4)
            got = select_neighbors(para, ref_pos, window)
            want = _oracle_neighbors(flags, ref_pos, window, globals_)
            assert got.neighbor_indices == want, (flags, ref_pos, window)


# ---- 5: figure-reference regex on the committed case corpus ----

def test_05_figure_reference_regex(figref_cases):
    """100% on at least 50 positive and 50 negative hand-checked sentences."""
    with budget(1.0):
        positives = figref_cases["positive"]
        negatives = figref_cases["negative"]
        assert len(positives) >= 50
        assert len(negatives) >= 50
        false_negatives = [
            t for t in positives if not is_figure_referring(make_sentence(t))
        ]
        false_positives = [
            t for t in negatives if is_figure_referring(make_sentence(t))
        ]
        assert false_negatives == []
        assert false_positives == []


# ---- 6: sense search against exhaustive enumeration ----

_EVENT_CONCEPTS = ["SHOW-INFORMATION", "OBSERVE", "INCREASE", "DECREASE"]
_OBJECT_CONCEPTS = ["DRAWING", "NUMBER", "PERSON", "PEAK", "CURVE", "MATERIAL"]
_ATTRIBUTES = ["SHAPE", "SPEED", "COLOR", "QUANTITY", "DIRECTIONALITY"]


def _oracle_score(assignment, frame, graph):
    """Relation count, rebuilt from the ontology primitives."""
    concept_of = {
        idx: e.sense.concept
        for idx, e in assignment.items()
        if isinstance(e.sense, ConceptSense)
    }
    event = None
    ventry = assignment.get(frame.verb.index)
    if ventry is not None and isinstance(ventry.sense, ConceptSense):
        if graph.root_of(ventry.sense.concept) == "EVENT":
            event = ventry.sense.concept
    score = 0
    if event is not None:
        if frame.subject is not None and frame.subject.index in concept_of:
            score += 1
        if frame.obj is not None and frame.obj.index in concept_of:
            score += 1
    for mod, anchor in frame.modifiers:
        entry = assignment.get(mod.index)
        if entry is None or not isinstance(entry.sense, PropertySense):
            continue
        prop = graph.properties.get(entry.sense.prop)
        if prop is None or prop.kind != "ATTRIBUTE":
            continue
        bearer = event if anchor.index == frame.verb.index else concept_of.get(anchor.index)
        if bearer is None:
            continue
        domains = set(prop.applicable_domains)
        lineage = {bearer, *graph.ancestors(bearer)}
        if not domains or lineage & domains:
            score += 1
    return score


def _oracle_choose(options, frame, graph):
    """Odometer enumeration with strict first-wins improvement."""
    indices = sorted(options)
    pools = [options[i] for i in indices]
    counter = [0] * len(pools)
    best = None
    best_key = None
    while True:
        assignment = {
            idx: pool[c] for idx, pool, c in zip(indices, pools, counter)
        }
        score = _oracle_score(assignment, frame, graph)
        key = (-score, sum(e.priority for e in assignment.values()))
        if best_key is None or key < best_key:
            best, best_key = assignment, key
        pos = len(counter) - 1
        while pos >= 0:
            counter[pos] += 1
            if counter[pos] < len(pools[pos]):
                break
            counter[pos] = 0
            pos -= 1
        if pos < 0:
            return best


def _random_frame(rng, graph):
    """A frame plus priority-ordered sense pools, <=3 ambiguous x <=3 senses."""
    verb = Token(2, "verbs", "verb", "VERB", 0, "root")
    frame = SvoFrame(verb=verb)
    tokens = [verb]
    if rng.random() < 0.8:
        deprel = rng.choice(["nsubj", "nsubjpass"])
        frame.subject = Token(1, "subj", "subj", "NOUN", 2, deprel)
        tokens.append(frame.subject)
    if rng.random() < 0.7:
        frame.obj = Token(3, "obj", "obj", "NOUN", 2, "obj")
        tokens.append(frame.obj)
    next_index = 4
    for anchor in (frame.verb, frame.subject, frame.obj):
        if anchor is None or rng.random() < 0.5:
            continue
        mod = Token(next_index, "mod", "mod", "ADJ", anchor.index, "amod")
        frame.modifiers.append((mod, anchor))
        tokens.append(mod)
        next_index += 1

    ambiguous = rng.sample(tokens, k=min(len(tokens), rng.randint(1, 3)))
    options = {}
    for token in tokens:
        n_senses = rng.randint(2, 3) if token in ambiguous else 1
        pool = []
        for priority in range(n_senses):
            if token.upos == "VERB":
                name = rng.choice(_EVENT_CONCEPTS + _OBJECT_CONCEPTS)
                sense = ConceptSense(name)
            elif token.upos == "ADJ" and rng.random() < 0.7:
                sense = PropertySense(rng.choice(_ATTRIBUTES), "polygonal")
            else:
                sense = ConceptSense(rng.choice(_OBJECT_CONCEPTS))
            pool.append(LexEntry(token.lemma, token.upos, sense, priority))
        options[token.index] = pool
    return frame, options


def test_06_sense_search_oracle(graph):
    """500 random ambiguous frames: the search equals full enumeration."""
    with budget(60.0):
        rng = random.Random(61803)
        for i in range(500):
            frame, options = _random_frame(rng, graph)
            got = _choose_assignment(options, frame, graph)
            want = _oracle_choose(options, frame, graph)
            assert got == want, f"frame {i}"


# ---- 7: end-to-end quality on the bundled labeled corpus ----

def test_07_end_to_end_f1(mini_articles, resources, gold_labels):
    """The full pipeline reaches F1 >= 0.75 on the bundled mini corpus."""
    with budget(120.0):
        assert len(mini_articles) == 20
        assert len(gold_labels) == 40

        corpus = pipeline.load_corpus_dir(MINI_CORPUS)
        refs = pipeline.reference_tmrs(corpus, resources)
        table = calibrate(refs)
        threshold = compute_threshold(table.mean_ref_weight, 0.5)
        scored = pipeline.score_candidates(corpus, resources, table, threshold, 2)

        keys = sorted(gold_labels)
        by_id = {(r.uid, r.global_index): r for r in scored}
        assert sorted(by_id) == keys, "candidates must match the labeled set"
        preds = [classify(by_id[k].weight, threshold) for k in keys]
        labels = [gold_labels[k] for k in keys]
        metrics = evaluate(preds, labels)
        assert metrics["f1"] >= 0.75, metrics


# ---- 8: baseline model checks ----

def test_08_baseline_checks():
    """Separable fit, finite-difference gradients, and exact fold sizes."""
    with budget(30.0):
        # separable bag-of-words data trains to F1 = 1.0
        texts = [f"rising upward trend {i}" for i in range(10)] + [
            f"methods acknowledgment text {i}" for i in range(10)
        ]
        labels = np.array([1] * 10 + [0] * 10)
        vocab = build_vocab(texts)
        X = to_matrix([featurize(t, vocab) for t in texts], len(vocab))
        model = train_logreg(X, labels, TrainConfig())
        preds = model.predict(X)
        m = evaluate([bool(p) for p in preds], labels.tolist())
        assert m["f1"] == 1.0

        # analytic gradient vs central differences at 100 random points;
        # h sits at the central-difference sweet spot: truncation ~h^2 and
        # cancellation ~eps/h are both far below the 1e-5 gate
        rng = np.random.default_rng(271828)
        h = 1e-4
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            n = int(rng.integers(4, 12))
            Xr = rng.standard_normal((n, dim))
            yr = (rng.random(n) > 0.5).astype(float)
            w = rng.standard_normal(dim)
            b = float(rng.standard_normal())
            l2 = float(rng.choice([0.0, 0.01, 0.1]))
            _, grad_w, grad_b = loss_and_gradient(w, b, Xr, yr, l2)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                lp, _, _ = loss_and_gradient(w + e, b, Xr, yr, l2)
                lm, _, _ = loss_and_gradient(w - e, b, Xr, yr, l2)
                fd = (lp - lm) / (2 * h)
                assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            lp, _, _ = loss_and_gradient(w, b + h, Xr, yr, l2)
            lm, _, _ = loss_and_gradient(w, b - h, Xr, yr, l2)
            assert grad_b == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-8)

        # 10-fold split of the 200-sentence corpus: folds of exactly 20
        dataset = load_labeled_jsonl(LABELED_PATH.read_bytes())
        assert len(dataset) == 200
        folds = kfold_split(len(dataset), 10, seed=0)
        assert [len(f) for f in folds] == [20] * 10
        report = kfold_cv(dataset, k=10, seed=0)
        assert len(report["folds"]) == 10


# ---- 9: byte-identical reruns ----

def _run_pipeline(out_dir):
    mini = str(MINI_CORPUS)
    res = resource_args()
    out = str(out_dir)
    assert main(["detect", "--corpus", mini, "--out", out]) == 0
    assert main(["calibrate", "--corpus", mini, "--out", out, *res]) == 0
    weights = str(out_dir / "weights.json")
    assert (
        main(["classify", "--corpus", mini, "--weights", weights, "--out", out, *res])
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                "--scores",
                str(out_dir / "scores.jsonl"),
                "--gold",
                str(MINI_CORPUS / "gold.jsonl"),
                "--weights",
                weights,
                "--out",
                out,
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "baseline",
                "--labeled",
                str(LABELED_PATH),
                "--out",
                out,
                "--concept-metrics",
                str(out_dir / "metrics.json"),
            ]
        )
        == 0
    )


def test_09_deterministic_reruns(tmp_path):
    """Two complete pipeline runs write byte-identical outputs."""
    with budget(120.0):
        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        run1.mkdir()
        run2.mkdir()
        _run_pipeline(run1)
        _run_pipeline(run2)

        names1 = sorted(p.name for p in run1.iterdir())
        names2 = sorted(p.name for p in run2.iterdir())
        assert names1 == names2
        assert names1 == [
            "baseline.json",
            "detect.jsonl",
            "metrics.json",
            "scores.jsonl",
            "sweep.meta.json",
            "sweep.tsv",
            "weights.json",
            "weights.meta.json",
        ]
        for name in names1:
            same = filecmp.cmp(run1 / name, run2 / name, shallow=False)
            assert same, f"{name} differs between runs"
        # and the headline result is actually loaded from those bytes
        metrics = json.loads((run1 / "metrics.json").read_text())["metrics"]
        assert metrics["f1"] >= 0.75
