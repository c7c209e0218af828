"""Element weighting, sentence scoring, and threshold classification.

Calibration accumulates, for every non-excluded element across the reference
sentences' representations, the sum of inverse squared distances over all of
its occurrences, then normalizes concepts and properties separately so each
category's weights sum to one. A sentence's weight is the sum of its
elements' calibrated weights, each damped again by that occurrence's squared
distance. The decision threshold is a lambda multiple of the mean reference
sentence weight; a sentence is descriptive when its weight strictly exceeds
the threshold.

All accumulation uses math.fsum, so results are exactly independent of
input order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .corpus import json_field, load_json_object
from .errors import (
    AlignmentError,
    CalibrationError,
    ConfigError,
    DegenerateTableError,
)
from .ontology import ROOT_EVENT, ROOT_OBJECT, UNKNOWN
from .tmr import CONCEPT, PROPERTY, Tmr

DEFAULT_EXCLUDED_CONCEPTS = frozenset({ROOT_EVENT, ROOT_OBJECT})
DEFAULT_EXCLUDED_PROPERTIES = frozenset(
    {"AGENT", "THEME", "THEME-INFORMATION", "INSTRUMENT", "CAUSED-BY", "IS-A"}
)


@dataclass
class WeightTable:
    """Calibrated per-element weights plus the corpus mean reference weight."""

    concept_weights: dict[str, float]
    property_weights: dict[str, float]
    mean_ref_weight: float
    calibration_counts: tuple[int, int, int]  # (tmrs, concepts, properties)


def _included(kind: str, name: str) -> bool:
    if name == UNKNOWN:
        return False
    if kind == CONCEPT:
        return name not in DEFAULT_EXCLUDED_CONCEPTS
    return name not in DEFAULT_EXCLUDED_PROPERTIES


def calibrate(ref_tmrs: list[Tmr]) -> WeightTable:
    """Build a weight table from reference-sentence representations.

    Raises CalibrationError on an empty corpus and DegenerateTableError when
    no representation holds an element or exclusions leave nothing to weigh.
    Exactly permutation-invariant: a shuffled input list produces an
    identical table.
    """
    if not ref_tmrs:
        raise CalibrationError("no reference representations to calibrate on")
    # element -> distance -> occurrence count; integer histograms make the
    # raw sums independent of input order before fsum even enters.
    histo: dict[tuple[str, str], dict[int, int]] = {}
    for tmr in ref_tmrs:
        for el in tmr.elements:
            if not _included(el.kind, el.name):
                continue
            by_dist = histo.setdefault((el.kind, el.name), {})
            by_dist[el.distance] = by_dist.get(el.distance, 0) + 1
    raw = {
        key: math.fsum(
            count / d**2 for d, count in sorted(by_dist.items())
        )
        for key, by_dist in histo.items()
    }
    if not raw:
        if not any(tmr.elements for tmr in ref_tmrs):
            raise DegenerateTableError(
                f"none of the {len(ref_tmrs)} reference representations holds an element"
                " (do the reference sentences have parses?)"
            )
        raise DegenerateTableError("exclusions removed every element")

    def normalize(kind: str) -> dict[str, float]:
        names = sorted(name for k, name in raw if k == kind)
        total = math.fsum(raw[(kind, name)] for name in names)
        if not names:
            return {}
        alpha = 1.0 / total
        return {name: raw[(kind, name)] * alpha for name in names}

    table = WeightTable(
        concept_weights=normalize(CONCEPT),
        property_weights=normalize(PROPERTY),
        mean_ref_weight=0.0,
        calibration_counts=(0, 0, 0),
    )
    # Second pass: the mean reference weight uses the final normalized table.
    weights = sorted(sentence_weight(t, table) for t in ref_tmrs)
    table.mean_ref_weight = math.fsum(weights) / len(weights)
    table.calibration_counts = (
        len(ref_tmrs),
        len(table.concept_weights),
        len(table.property_weights),
    )
    return table


def _weight_of(kind: str, name: str, table: WeightTable) -> float:
    pool = table.concept_weights if kind == CONCEPT else table.property_weights
    return pool.get(name, 0.0)


def element_contributions(
    tmr: Tmr, table: WeightTable
) -> list[tuple[tuple[str, str, int], float]]:
    """Per-occurrence contributions weight/distance^2, in canonical order."""
    rows = []
    for el in sorted(tmr.elements, key=lambda e: (e.kind, e.name, e.distance)):
        if not _included(el.kind, el.name):
            continue
        w = _weight_of(el.kind, el.name, table)
        rows.append(((el.kind, el.name, el.distance), w / el.distance**2))
    return rows


def sentence_weight(tmr: Tmr, table: WeightTable) -> float:
    """Sum of calibrated weights over the representation, inverse-square damped.

    Elements the calibration never saw contribute zero.
    """
    return math.fsum(c for _, c in element_contributions(tmr, table))


def compute_threshold(mean_ref_weight: float, lambda_: float) -> float:
    if not (math.isfinite(lambda_) and lambda_ > 0):
        raise ConfigError(f"lambda must be positive and finite, got {lambda_}")
    return lambda_ * mean_ref_weight


def classify(score: float, threshold: float) -> bool:
    """Descriptive iff the score strictly exceeds the threshold."""
    return score > threshold


def evaluate(predictions: list[bool], gold: list[int]) -> dict[str, float]:
    """Accuracy/precision/recall/F1 with zero-denominator conventions -> 0."""
    if len(predictions) != len(gold):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(gold)} gold labels"
        )
    tp = sum(1 for p, g in zip(predictions, gold) if p and g)
    fp = sum(1 for p, g in zip(predictions, gold) if p and not g)
    fn = sum(1 for p, g in zip(predictions, gold) if not p and g)
    tn = len(gold) - tp - fp - fn
    total = len(gold)
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
    }


def lambda_sweep(
    scores: list[float],
    mean_ref_weight: float,
    lambdas: list[float],
    gold: list[int],
) -> list[dict[str, float]]:
    """One row per lambda: threshold plus accuracy and F1 against gold."""
    rows = []
    for lam in lambdas:
        threshold = compute_threshold(mean_ref_weight, lam)
        preds = [classify(s, threshold) for s in scores]
        metrics = evaluate(preds, gold)
        rows.append(
            {
                "lambda": lam,
                "threshold": threshold,
                "accuracy": metrics["accuracy"],
                "f1": metrics["f1"],
            }
        )
    return rows


def sweep_to_tsv(rows: list[dict[str, float]]) -> str:
    lines = ["lambda\tthreshold\taccuracy\tf1"]
    for row in rows:
        lines.append(
            "%s\t%s\t%s\t%s"
            % (
                format(row["lambda"], ".6g"),
                format(row["threshold"], ".6g"),
                format(row["accuracy"], ".6g"),
                format(row["f1"], ".6g"),
            )
        )
    return "\n".join(lines) + "\n"


# ---- persistence ----

def _round12(x: float) -> float:
    return float(format(x, ".12g"))


def save_weight_table(table: WeightTable) -> str:
    """Serialize to JSON with sorted keys and 12 significant digits."""
    doc = {
        "concepts": {k: _round12(v) for k, v in sorted(table.concept_weights.items())},
        "properties": {
            k: _round12(v) for k, v in sorted(table.property_weights.items())
        },
        "mean_ref_weight": _round12(table.mean_ref_weight),
        "counts": {
            "tmrs": table.calibration_counts[0],
            "concepts": table.calibration_counts[1],
            "properties": table.calibration_counts[2],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_weight_table(data: bytes | str) -> WeightTable:
    """Parse what save_weight_table wrote.

    Weights and mean_ref_weight must be finite numbers and counts integers;
    corpus.json_field reads each field and names one of the wrong type.
    """
    doc = load_json_object(data, "weights")
    concepts = json_field(doc, "concepts", "weights", "an object of finite numbers")
    properties = json_field(doc, "properties", "weights", "an object of finite numbers")
    mean_ref_weight = json_field(doc, "mean_ref_weight", "weights", "a finite number")
    counts = json_field(doc, "counts", "weights", "an object")
    return WeightTable(
        concept_weights=dict(concepts),
        property_weights=dict(properties),
        mean_ref_weight=float(mean_ref_weight),
        calibration_counts=tuple(
            json_field(counts, k, "weights.counts", "an integer", 0)
            for k in ("tmrs", "concepts", "properties")
        ),
    )
