"""Command line front end.

Subcommands: detect, calibrate, classify, evaluate, baseline. Every flag can
also be supplied via a FIGDESC_* environment variable or a JSON config file
(--config); flags win over the environment, which wins over the file. Exit
codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import baseline as bl
from . import figref, pipeline, scoring
from .corpus import json_field, load_json_object
from .errors import AlignmentError, ArticleParseError, ConfigError, FigdescError, SchemaError

ENV_PREFIX = "FIGDESC_"

DEFAULT_LAMBDAS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.5]


def _float_list(value: str) -> list[float]:
    numbers = [float(x) for x in value.split(",") if x.strip()]
    if not numbers:
        raise ValueError("no value")
    return numbers


# The type of each setting that is not a string: what reads its flag,
# FIGDESC_* or config value, and the JSON kind its config value must hold.
_TYPES = {
    "lambda": (float, "a finite number"),
    "window": (int, "an integer"),
    "seed": (int, "an integer"),
    "folds": (int, "an integer"),
    "lambdas": (_float_list, "a string"),
}


class Settings:
    """Layered lookup: CLI flag, then environment, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file = {}
        self._config_path = self._args.get("config") or os.environ.get(ENV_PREFIX + "CONFIG")
        if self._config_path:
            data = pipeline.read_input(self._config_path, "config")
            try:
                self._file = load_json_object(data, self._config_path)
            except (ArticleParseError, SchemaError) as e:
                raise ConfigError(f"config file {e}") from e

    def get(self, name: str, default=None):
        cast, kind = _TYPES.get(name, (str, "a string"))
        # argparse stores --lambda under lambda_ (keyword clash)
        dest = "lambda_" if name == "lambda" else name.replace("-", "_")
        value = self._args.get(dest)
        if value is None:
            value = os.environ.get(ENV_PREFIX + name.replace("-", "_").upper())
        if value is None and name in self._file:
            try:
                value = json_field(self._file, name, "config", kind)
            except SchemaError as e:
                raise ConfigError(f"config file {self._config_path}: {e}") from e
        try:
            return default if value is None else cast(value)
        except ValueError as e:
            raise ConfigError(f"bad value for --{name}: {value!r}") from e

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise ConfigError(f"--{name} is required for this command")
        return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", help="directory of article files")
    p.add_argument("--ontology", help="ontology/lexicon file")
    p.add_argument("--synsets", help="synonym-set JSON file")
    p.add_argument("--embeddings", help="word embedding text file")
    p.add_argument("--gazetteer", help="chemical gazetteer file")
    p.add_argument("--weights", help="calibrated weight table JSON")
    p.add_argument("--lambda", dest="lambda_", help="threshold scale factor")
    p.add_argument("--window", help="neighbor window size")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", help="random seed (baseline folds)")
    p.add_argument("--pattern", help="override figure-reference regex")
    p.add_argument("--config", help="JSON config file with flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="figdesc",
        description="Find figure-descriptive sentences in scientific article text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="list figure references and their candidates")
    _add_common(p)

    p = sub.add_parser("calibrate", help="build a weight table from a corpus")
    _add_common(p)

    p = sub.add_parser("classify", help="score and classify candidate sentences")
    _add_common(p)

    p = sub.add_parser("evaluate", help="lambda sweep and metrics against gold labels")
    _add_common(p)
    p.add_argument("--scores", help="scores JSONL from classify")
    p.add_argument("--gold", help="gold label JSONL")
    p.add_argument("--lambdas", help="comma-separated lambda values to sweep")

    p = sub.add_parser("baseline", help="bag-of-words logistic regression CV")
    _add_common(p)
    p.add_argument("--labeled", help="labeled sentence JSONL")
    p.add_argument("--folds", help="cross-validation fold count")
    p.add_argument(
        "--concept-metrics", help="metrics JSON from evaluate, for side-by-side"
    )

    return parser


def _out_dir(settings: Settings) -> Path:
    out = Path(settings.require("out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _shared_settings(settings: Settings) -> dict:
    lambda_ = settings.get("lambda", 0.5)
    if not (math.isfinite(lambda_) and lambda_ > 0):
        raise ConfigError(f"--lambda must be positive and finite, got {lambda_}")
    window = settings.get("window", 2)
    if window < 0:
        raise ConfigError(f"--window must be non-negative, got {window}")
    pattern = settings.get("pattern")
    figref.compile_pattern(pattern)  # rejects a bad pattern before any work
    return {
        "lambda": lambda_,
        "window": window,
        "pattern": pattern,
        "seed": settings.get("seed", 0),
    }


def _load_resources(settings: Settings, digests: dict[str, str]) -> pipeline.Resources:
    return pipeline.load_resources(
        settings.require("ontology"),
        settings.get("synsets"),
        settings.get("embeddings"),
        settings.get("gazetteer"),
        digests,
    )


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_detect(settings: Settings) -> int:
    corpus_dir = settings.require("corpus")
    out = _out_dir(settings)
    shared = _shared_settings(settings)
    digests: dict[str, str] = {}
    articles = pipeline.load_corpus_dir(corpus_dir, digests)
    records = []
    total_candidates = 0
    for article in articles:
        det = pipeline.detect_article(article, shared["window"], shared["pattern"])
        total_candidates += len(det.candidate_indices)
        records.extend({"uid": det.uid, **ref} for ref in det.refs)
    header = pipeline.provenance(shared, digests)
    pipeline.write_jsonl(out / "detect.jsonl", header, records)
    print(
        f"detect: {len(articles)} articles, {len(records)} figure-referring sentences, "
        f"{total_candidates} candidate sentences -> {out / 'detect.jsonl'}"
    )
    return 0


def cmd_calibrate(settings: Settings) -> int:
    corpus_dir = settings.require("corpus")
    out = _out_dir(settings)
    shared = _shared_settings(settings)
    digests: dict[str, str] = {}
    res = _load_resources(settings, digests)
    articles = pipeline.load_corpus_dir(corpus_dir, digests)
    config = scoring.ScoringConfig(lambda_=shared["lambda"], window=shared["window"])
    refs = pipeline.reference_tmrs(articles, res, shared["pattern"])
    table = scoring.calibrate(refs, config)
    (out / "weights.json").write_text(scoring.save_weight_table(table))
    header = pipeline.provenance(shared, digests)
    _write_json(out / "weights.meta.json", header)
    n_tmr, n_c, n_p = table.calibration_counts
    print(
        f"calibrate: {n_tmr} reference representations, {n_c} concepts, "
        f"{n_p} properties, mean reference weight {table.mean_ref_weight:.6f} "
        f"-> {out / 'weights.json'}"
    )
    return 0


def cmd_classify(settings: Settings) -> int:
    corpus_dir = settings.require("corpus")
    weights_path = settings.require("weights")
    out = _out_dir(settings)
    shared = _shared_settings(settings)
    digests: dict[str, str] = {}
    res = _load_resources(settings, digests)
    articles = pipeline.load_corpus_dir(corpus_dir, digests)
    config = scoring.ScoringConfig(lambda_=shared["lambda"], window=shared["window"])
    table = pipeline.read_input(weights_path, "weights", digests, scoring.load_weight_table)
    threshold = scoring.compute_threshold(table.mean_ref_weight, config.lambda_)
    scored = pipeline.score_candidates(articles, res, table, config, shared["pattern"])
    from .tmr import tmr_to_json

    records = [
        {
            "uid": row.uid,
            "global_index": row.global_index,
            "text": row.text,
            "weight": row.weight,
            "threshold": threshold,
            "is_descriptive": scoring.classify(row.weight, threshold),
            "tmr": tmr_to_json(row.tmr),
        }
        for row in scored
    ]
    header = pipeline.provenance(shared, digests)
    pipeline.write_jsonl(out / "scores.jsonl", header, records)
    n_pos = sum(1 for r in records if r["is_descriptive"])
    print(
        f"classify: {len(records)} candidates, {n_pos} descriptive at "
        f"lambda={config.lambda_:g} (threshold {threshold:.6f}) -> {out / 'scores.jsonl'}"
    )
    return 0


def _row(doc: dict, where: str, field: str, kind: str) -> tuple:
    """((uid, global_index), doc[field]) of one gold or scores row."""
    uid = json_field(doc, "uid", where, "a string")
    global_index = json_field(doc, "global_index", where, "an integer")
    return (uid, global_index), json_field(doc, field, where, kind)


def _by_id(rows: list[tuple], flag: str, path: str) -> dict:
    """The rows' values by id; a repeated id is a SchemaError naming it."""
    by_id = {}
    for (uid, gi), value in rows:
        if (uid, gi) in by_id:
            raise SchemaError(f"--{flag} {path} repeats the id {uid}@{gi}")
        by_id[uid, gi] = value
    return by_id


def cmd_evaluate(settings: Settings) -> int:
    scores_path = settings.require("scores")
    gold_path = settings.require("gold")
    weights_path = settings.require("weights")
    out = _out_dir(settings)
    shared = _shared_settings(settings)
    lambdas = settings.get("lambdas", DEFAULT_LAMBDAS)
    digests: dict[str, str] = {}
    table = pipeline.read_input(weights_path, "weights", digests, scoring.load_weight_table)
    scores_header, rows = pipeline.read_jsonl(
        scores_path,
        lambda doc, where: _row(doc, where, "weight", "a finite number"),
        digests,
        "scores",
    )
    recorded = scores_header.get("inputs")
    scored_with = recorded.get("weights") if isinstance(recorded, dict) else None
    if scored_with is not None and scored_with != digests["weights"]:
        raise AlignmentError(
            f"{scores_path} was scored with weights of sha256 {scored_with}, "
            f"but --weights {weights_path} has sha256 {digests['weights']}"
        )
    by_id = _by_id(rows, "scores", scores_path)
    _, rows = pipeline.read_jsonl(
        gold_path, lambda doc, where: _row(doc, where, "label", "0 or 1"), digests, "gold"
    )
    gold = _by_id(rows, "gold", gold_path)
    missing = sorted(k for k in gold if k not in by_id)
    if missing:
        raise AlignmentError(
            f"--gold {gold_path} has ids missing from --scores {scores_path}: "
            + ", ".join(f"{uid}@{gi}" for uid, gi in missing)
        )
    keys = sorted(gold)
    weights = [by_id[k] for k in keys]
    labels = [gold[k] for k in keys]
    rows = scoring.lambda_sweep(weights, table.mean_ref_weight, lambdas, labels)
    (out / "sweep.tsv").write_text(scoring.sweep_to_tsv(rows))
    lam = shared["lambda"]
    threshold = scoring.compute_threshold(table.mean_ref_weight, lam)
    preds = [scoring.classify(w, threshold) for w in weights]
    headline = scoring.evaluate(preds, labels)
    headline["lambda"] = lam
    headline["threshold"] = threshold
    header = pipeline.provenance({**shared, "lambdas": lambdas}, digests)
    _write_json(out / "metrics.json", {"provenance": header, "metrics": headline})
    _write_json(out / "sweep.meta.json", header)
    print(
        f"evaluate: {len(keys)} labeled candidates, lambda={lam:g}: "
        f"accuracy {headline['accuracy']:.4f}, F1 {headline['f1']:.4f} "
        f"-> {out / 'sweep.tsv'}"
    )
    return 0


def _concept_metrics(data: bytes) -> dict:
    doc = load_json_object(data, "concept metrics")
    return doc.get("metrics", doc)


def cmd_baseline(settings: Settings) -> int:
    labeled_path = settings.require("labeled")
    out = _out_dir(settings)
    folds = settings.get("folds", 10)
    seed = settings.get("seed", 0)
    digests: dict[str, str] = {}
    dataset = pipeline.read_input(labeled_path, "labeled", digests, bl.load_labeled_jsonl)
    metrics_path = settings.get("concept_metrics")
    concept = (
        pipeline.read_input(metrics_path, "concept-metrics", None, _concept_metrics)
        if metrics_path
        else None
    )
    report = bl.kfold_cv(dataset, k=folds, seed=seed)
    if concept is not None:
        report["concept_model"] = concept
    header = pipeline.provenance({"folds": folds, "seed": seed}, digests)
    _write_json(out / "baseline.json", {"provenance": header, "report": report})
    print(
        f"baseline: {len(dataset)} sentences, {folds}-fold CV: "
        f"mean accuracy {report['mean']['accuracy']:.4f}, "
        f"mean F1 {report['mean']['f1']:.4f} -> {out / 'baseline.json'}"
    )
    return 0


_COMMANDS = {
    "detect": cmd_detect,
    "calibrate": cmd_calibrate,
    "classify": cmd_classify,
    "evaluate": cmd_evaluate,
    "baseline": cmd_baseline,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        settings = Settings(args)
        return _COMMANDS[args.command](settings)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FigdescError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - surfaced as an internal failure
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
