"""
Calibrating weights and classifying candidates
==============================================

Figure-referring sentences act as the reference set. Element weights come
from inverse-square-distance mass normalized per category; a candidate
sentence's weight is its elements' weights, distance-damped again. The
decision threshold is a multiple of the mean reference weight.
"""

import json
from pathlib import Path

from figdesc import fixtures, pipeline
from figdesc.scoring import (
    calibrate,
    classify,
    compute_threshold,
    element_contributions,
    evaluate,
    lambda_sweep,
)

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "data" / "minicorpus"

res = pipeline.load_resources(
    fixtures.fixture_path("ontology.txt"),
    fixtures.fixture_path("synsets.json"),
    fixtures.fixture_path("embeddings.txt"),
    fixtures.fixture_path("gazetteer.txt"),
)
LAMBDA = 0.5  # the threshold scale, as the CLI's --lambda
WINDOW = 2  # neighbors on each side, as the CLI's --window

# ---- calibration ----

# each pass over the corpus reads it anew, one article at a time, and keeps
# only the sorted (kind, name, distance) elements of each reference sentence
corpus = pipeline.load_corpus_dir(MINI)
refs = pipeline.reference_tmrs(corpus, res)
table = calibrate(refs)
print("calibrated on", len(refs), "reference sentences")
print("mean reference weight:", round(table.mean_ref_weight, 6))

top = sorted(table.concept_weights.items(), key=lambda kv: -kv[1])[:5]
print("heaviest concepts:")
for name, w in top:
    print(f"  {name:25} {w:.4f}")
print()

# ---- scoring candidates ----

# each row carries its weight, its decision and the scores.jsonl record
# that figdesc classify writes for it, representation included
threshold = compute_threshold(table.mean_ref_weight, LAMBDA)
scored = pipeline.score_candidates(corpus, res, table, threshold, WINDOW)
print(len(scored), "candidates, threshold", round(threshold, 6))

one = max(scored, key=lambda r: r.weight)
record = json.loads(one.line)
print(f"\nhighest candidate: {one.uid}[{one.global_index}] {record['text']!r}")
print("per-element contributions:")
elements = [(e["kind"], e["name"], e["distance"]) for e in record["tmr"]["elements"]]
for (kind, name, dist), part in element_contributions(elements, table):
    print(f"  {kind:8} {name:25} d={dist}  {part:.4f}")
print("weight:", round(one.weight, 4), "->",
      "descriptive" if one.is_descriptive else "not descriptive")
print()

# ---- evaluation against the bundled labels ----

gold = {}
for line in (MINI / "gold.jsonl").read_text().splitlines():
    rec = json.loads(line)
    gold[(rec["uid"], rec["global_index"])] = rec["label"]

keys = sorted(gold)
by_id = {(r.uid, r.global_index): r for r in scored}
preds = [classify(by_id[k].weight, threshold) for k in keys]
labels = [gold[k] for k in keys]
metrics = evaluate(preds, labels)
print({k: round(v, 4) for k, v in metrics.items()})
print()

# ---- how the threshold scale trades precision for recall ----

scores = [by_id[k].weight for k in keys]
for row in lambda_sweep(scores, table.mean_ref_weight, [0.1, 0.3, 0.5, 0.7, 0.9, 1.5], labels):
    print("lambda %.1f  threshold %.4f  accuracy %.3f  f1 %.3f"
          % (row["lambda"], row["threshold"], row["accuracy"], row["f1"]))
