"""Seeded workload generator for the benchmark.

Each workload writes its inputs into a directory and returns the CLI chain
to run on them, the ground truth the outputs are checked against, and the
input properties the README and the run record report. The same seed gives
byte-identical inputs. Sentence templates and the CoNLL-U writer come from
scripts/build_fixtures.py, so the benchmark exercises the same vocabulary as
the committed fixtures.

Ground truth never comes from figdesc itself: reference positions are where
the generator put a reference sentence, and candidates follow from those
positions by an independent window rule (same paragraph, within WINDOW
sentences, not itself a reference).
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WINDOW = 2  # the CLI's default --window; the chain passes no flag
FOLDS = 10  # the CLI's default --folds

# Nouns the lexicon grounds; subjects and objects of the unknown-verb
# sentences in parsed-wide.
_GROUNDED_NOUNS = ("signal", "curve", "spectrum", "peak", "sample", "line", "detector")


@dataclass
class Workload:
    name: str
    # (command name, argv after "figdesc"); {out} is replaced per repetition
    chain: list[tuple[str, list[str]]]
    sentences: int  # the denominator of sentences_per_s
    properties: dict
    truth: dict = field(default_factory=dict)


def load_builders(root: Path):
    """Import scripts/build_fixtures.py as a module, without running it."""
    path = root / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lexicon_verbs(ontology_text: str) -> frozenset[str]:
    """Verb lemmas with a lexicon entry (`lex LEMMA pos verb -> ...`)."""
    out = set()
    for line in ontology_text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "lex" and parts[2] == "pos":
            if parts[3].lower() == "verb":
                out.add(parts[1].lower())
    return frozenset(out)


def embedding_words(embeddings_text: str) -> list[str]:
    return [line.split(" ", 1)[0] for line in embeddings_text.splitlines()[1:] if line]


def window_candidates(is_ref: list[list[bool]]) -> list[tuple[int, int]]:
    """(paragraph, index) of every candidate, from reference positions alone."""
    out = set()
    for p, flags in enumerate(is_ref):
        for i, ref in enumerate(flags):
            if not ref:
                continue
            for j in range(max(0, i - WINDOW), min(len(flags), i + WINDOW + 1)):
                if j != i and not flags[j]:
                    out.add((p, j))
    return sorted(out)


def _global_indices(is_ref: list[list[bool]]) -> dict[tuple[int, int], int]:
    positions = [(p, i) for p, flags in enumerate(is_ref) for i in range(len(flags))]
    return {pos: g for g, pos in enumerate(positions)}


def _article_truth(uid: str, is_ref: list[list[bool]], truth: dict) -> None:
    gidx = _global_indices(is_ref)
    truth["refs"].update(
        (uid, gidx[(p, i)])
        for p, flags in enumerate(is_ref)
        for i, ref in enumerate(flags)
        if ref
    )
    truth["candidates"].update((uid, gidx[pos]) for pos in window_candidates(is_ref))


def _parsed_chain(corpus: Path, gold: Path, resources: list[str]) -> list:
    c = str(corpus)
    return [
        ("detect", ["detect", "--corpus", c, "--out", "{out}"]),
        ("calibrate", ["calibrate", "--corpus", c, "--out", "{out}", *resources]),
        (
            "classify",
            ["classify", "--corpus", c, "--weights", "{out}/weights.json",
             "--out", "{out}", *resources],
        ),
        (
            "evaluate",
            ["evaluate", "--scores", "{out}/scores.jsonl", "--gold", str(gold),
             "--weights", "{out}/weights.json", "--out", "{out}"],
        ),
    ]


def _write_parsed_article(fx, corpus: Path, uid: str, paragraphs: list[list]) -> None:
    body = [[fx.template_text(rows) for rows in para] for para in paragraphs]
    doc = {"uid": uid, "title": f"Benchmark article {uid}", "body": body}
    (corpus / f"{uid}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    flat = [rows for para in paragraphs for rows in para]
    (corpus / f"{uid}.conllu").write_text(
        "\n\n".join(fx.conllu_block(rows) for rows in flat) + "\n"
    )


def _ref(fx, rng: random.Random) -> list:
    return fx.substitute(rng.choice(fx.REF_TEMPLATES), str(rng.randint(1, 9)))


def _unknown_verbs_of_interest(
    paragraphs_by_uid: dict, truth: dict, known: frozenset[str]
) -> tuple[int, int]:
    """(lookups, distinct lemmas) of unknown verbs in sentences of interest."""
    lemmas = []
    for uid, paragraphs in paragraphs_by_uid.items():
        flat = [rows for para in paragraphs for rows in para]
        for g, rows in enumerate(flat):
            if (uid, g) in truth["refs"] or (uid, g) in truth["candidates"]:
                lemmas.extend(
                    r[1].lower() for r in rows if r[2] == "VERB" and r[1].lower() not in known
                )
    return len(lemmas), len(set(lemmas))


def _gold_lines(gold: list[tuple[str, int, int]]) -> str:
    return "".join(
        json.dumps({"uid": u, "global_index": g, "label": label}, sort_keys=True) + "\n"
        for u, g, label in gold
    )


def parsed_narrow(fx, ctx: dict, out: Path, seed: int, scale: float) -> Workload:
    """Mini-corpus layout: [[f, f], [ref, ref], [cand, ref, cand], [f, f]]."""
    rng = random.Random(seed)
    corpus = out / "corpus"
    corpus.mkdir()
    n = max(4, round(1000 * scale))
    truth = {"refs": set(), "candidates": set(), "gold": {}}
    by_uid = {}
    for i in range(n):
        uid = f"N{i:05d}"
        desc = rng.choice(fx.DESCRIPTIVE)
        nond = rng.choice(fx.NONDESCRIPTIVE)
        left, right = (desc, nond) if rng.random() < 0.5 else (nond, desc)
        fillers = [rng.choice(fx.NONDESCRIPTIVE) for _ in range(4)]
        paragraphs = [
            fillers[:2],
            [_ref(fx, rng), _ref(fx, rng)],
            [left, _ref(fx, rng), right],
            fillers[2:],
        ]
        is_ref = [[False, False], [True, True], [False, True, False], [False, False]]
        _write_parsed_article(fx, corpus, uid, paragraphs)
        _article_truth(uid, is_ref, truth)
        truth["gold"][(uid, 4)] = int(left is desc)
        truth["gold"][(uid, 6)] = int(right is desc)
        by_uid[uid] = paragraphs
    return _parsed_workload("parsed-narrow", ctx, out, corpus, n, 9 * n, truth, by_uid)


def _unknown_verb_sentence(rng: random.Random, lemma: str) -> list:
    subj, obj = rng.sample(_GROUNDED_NOUNS, 2)
    return [
        ("The", "the", "DET", 2, "det"),
        (subj, subj, "NOUN", 3, "nsubj"),
        (lemma + "s", lemma, "VERB", 0, "root"),
        ("the", "the", "DET", 5, "det"),
        (obj, obj, "NOUN", 3, "obj"),
        (".", ".", "PUNCT", 3, "punct"),
    ]


def parsed_wide(fx, ctx: dict, out: Path, seed: int, scale: float) -> Workload:
    """Long articles: three [cand, ref, cand] paragraphs among filler paragraphs.

    Of the six candidates per article two carry gold labels; the other four
    use a verb from the embedding vocabulary that the lexicon lacks, so each
    one triggers an embedding lookup for a rarely repeated lemma.
    """
    rng = random.Random(seed)
    corpus = out / "corpus"
    corpus.mkdir()
    unknown = [w for w in ctx["embedding_words"] if w not in ctx["known_verbs"]]
    n = max(2, round(250 * scale))
    truth = {"refs": set(), "candidates": set(), "gold": {}}
    by_uid = {}
    sentences = 0
    for i in range(n):
        uid = f"W{i:05d}"
        # (rows, gold label or None) per sentence
        cands = [(rng.choice(fx.DESCRIPTIVE), 1), (rng.choice(fx.NONDESCRIPTIVE), 0)]
        cands += [(_unknown_verb_sentence(rng, rng.choice(unknown)), None) for _ in range(4)]
        rng.shuffle(cands)
        ref_paras = [
            [cands[2 * k], (_ref(fx, rng), None), cands[2 * k + 1]] for k in range(3)
        ]
        fillers = [
            [(rng.choice(fx.NONDESCRIPTIVE), None) for _ in range(rng.randint(3, 7))]
            for _ in range(rng.randint(6, 9))
        ]
        slots = set(rng.sample(range(len(fillers) + 3), 3))
        it_ref, it_fill = iter(ref_paras), iter(fillers)
        labelled = [next(it_ref) if s in slots else next(it_fill) for s in range(len(fillers) + 3)]
        paragraphs = [[rows for rows, _ in para] for para in labelled]
        is_ref = [
            [s in slots and j == 1 for j in range(len(para))]
            for s, para in enumerate(labelled)
        ]
        _write_parsed_article(fx, corpus, uid, paragraphs)
        _article_truth(uid, is_ref, truth)
        flat_labels = [label for para in labelled for _, label in para]
        truth["gold"].update(
            ((uid, g), label) for g, label in enumerate(flat_labels) if label is not None
        )
        sentences += len(flat_labels)
        by_uid[uid] = paragraphs
    return _parsed_workload("parsed-wide", ctx, out, corpus, n, sentences, truth, by_uid)


def _parsed_workload(
    name, ctx, out, corpus, n, sentences, truth, by_uid
) -> Workload:
    gold = out / "gold.jsonl"
    gold.write_text(
        _gold_lines([(u, g, label) for (u, g), label in sorted(truth["gold"].items())])
    )
    lookups, distinct = _unknown_verbs_of_interest(by_uid, truth, ctx["known_verbs"])
    of_interest = len(truth["refs"]) + len(truth["candidates"])
    return Workload(
        name=name,
        chain=_parsed_chain(corpus, gold, ctx["resource_flags"]),
        sentences=sentences,
        properties={
            "articles": n,
            "sentences": sentences,
            "sentences_of_interest_share": round(of_interest / sentences, 4),
            "unknown_verb_lemmas_distinct": distinct,
            "unknown_verb_occurrences": lookups,
            "gold_labels": len(truth["gold"]),
        },
        truth=truth,
    )


def detect_plain(fx, ctx: dict, out: Path, seed: int, scale: float) -> Workload:
    """corpus137-style articles without parses; odd uids carry body_raw."""
    rng = random.Random(seed)
    corpus = out / "corpus"
    corpus.mkdir()
    # A sentence starting in lower case would merge with its predecessor when
    # body_raw is segmented, so raw paragraphs use only capitalised references.
    raw_refs = [s for s in fx.REF_SENTENCES if s[0].isupper()]
    n = max(4, round(6500 * scale))
    truth = {"refs": set(), "candidates": set()}
    sentences = 0
    for i in range(n):
        uid = f"P{i:05d}"
        raw = i % 2 == 1
        refs = raw_refs if raw else fx.REF_SENTENCES
        paragraphs, is_ref = [], []
        for _ in range(rng.randint(2, 5)):
            sents = [rng.choice(fx.PLAIN_SENTENCES) for _ in range(rng.randint(2, 7))]
            flags = [False] * len(sents)
            for chance in (0.4, 0.2):
                if rng.random() >= chance:
                    break
                a = rng.randint(1, 12)
                at = rng.randrange(len(sents))
                sents[at] = rng.choice(refs).format(a=a, b=a + rng.randint(1, 3))
                flags[at] = True
            paragraphs.append(sents)
            is_ref.append(flags)
        doc = {"uid": uid, "title": f"Benchmark article {uid}"}
        if raw:
            doc["body_raw"] = [" ".join(p) for p in paragraphs]
        else:
            doc["body"] = paragraphs
        (corpus / f"{uid}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        _article_truth(uid, is_ref, truth)
        sentences += sum(len(p) for p in paragraphs)
    of_interest = len(truth["refs"]) + len(truth["candidates"])
    return Workload(
        name="detect-plain",
        chain=[("detect", ["detect", "--corpus", str(corpus), "--out", "{out}"])],
        sentences=sentences,
        properties={
            "articles": n,
            "raw_articles": n // 2,
            "sentences": sentences,
            "sentences_of_interest_share": round(of_interest / sentences, 4),
            "unknown_verb_lemmas_distinct": 0,
        },
        truth=truth,
    )


def baseline_cv(fx, ctx: dict, out: Path, seed: int, scale: float) -> Workload:
    """labeled.jsonl stubs with a wider vocabulary: each sentence gains a
    label-independent phrase of two words from the embedding vocabulary."""
    rng = random.Random(seed)
    words = [w for w in ctx["embedding_words"] if w.isalpha()]
    adjs = fx.ADJS + fx.SINGLETONS
    n = max(20, round(2000 * scale))
    rows = []
    for k in range(n):
        label = k % 2
        stubs = fx.DESCRIPTIVE_STUBS if label else fx.NONDESCRIPTIVE_STUBS
        text = rng.choice(stubs).format(
            adj=rng.choice(adjs), adj2=rng.choice(adjs),
            verb=rng.choice(fx.VERBS), n=rng.randint(2, 99),
        )
        text += f" near the {rng.choice(words)} {rng.choice(words)}"
        rows.append({"text": text.capitalize() + ".", "label": label, "source": "bench"})
    rng.shuffle(rows)
    labeled = out / "labeled.jsonl"
    labeled.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    vocab = {t for r in rows for t in re.findall("[a-z]+", r["text"].lower())}
    return Workload(
        name="baseline-cv",
        chain=[("baseline", ["baseline", "--labeled", str(labeled), "--out", "{out}"])],
        sentences=n,
        properties={
            "articles": 0,
            "sentences": n,
            "positive_share": round(sum(r["label"] for r in rows) / n, 4),
            "vocabulary": len(vocab),
            "unknown_verb_lemmas_distinct": 0,
        },
        truth={"labeled": n, "folds": FOLDS},
    )


GENERATORS = {
    "parsed-narrow": parsed_narrow,
    "parsed-wide": parsed_wide,
    "detect-plain": detect_plain,
    "baseline-cv": baseline_cv,
}


def generate(root: Path, name: str, out: Path, seed: int, scale: float = 1.0) -> Workload:
    """Write workload `name` for `seed` under `out` and describe it."""
    fx = load_builders(root)
    out.mkdir(parents=True)
    data = root / "src" / "figdesc" / "data"
    resource_flags = []
    for flag, fname in (
        ("--ontology", "ontology.txt"),
        ("--synsets", "synsets.json"),
        ("--embeddings", "embeddings.txt"),
        ("--gazetteer", "gazetteer.txt"),
    ):
        resource_flags += [flag, str(data / fname)]
    ctx = {
        "known_verbs": lexicon_verbs((data / "ontology.txt").read_text()),
        "embedding_words": embedding_words((data / "embeddings.txt").read_text()),
        "resource_flags": resource_flags,
    }
    return GENERATORS[name](fx, ctx, out, seed, scale)
