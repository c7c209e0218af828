"""Command line front end.

Subcommands: detect, calibrate, classify, evaluate, baseline. _SETTINGS
declares every setting once, and each command takes the flags that _COMMANDS
names for it. A setting comes from its flag, else its FIGDESC_* environment
variable, else the JSON --config file, else its default; main resolves them
all before the command runs. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from . import figref, pipeline, scoring
from .corpus import Article, json_field, load_json_object
from .errors import AlignmentError, ArticleParseError, ConfigError, FigdescError, SchemaError
from .tmr import tmr_to_json

ENV_PREFIX = "FIGDESC_"

DEFAULT_LAMBDAS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.5]

_REQUIRED = object()


def _float_list(value: str) -> list[float]:
    numbers = [float(x) for x in value.split(",") if x.strip()]
    if not numbers:
        raise ValueError("no value")
    return numbers


def _scale(value) -> float:
    lambda_ = float(value)
    if not (math.isfinite(lambda_) and lambda_ > 0):
        raise ConfigError(f"--lambda must be positive and finite, got {lambda_}")
    return lambda_


def _window(value) -> int:
    window = int(value)
    if window < 0:
        raise ConfigError(f"--window must be non-negative, got {window}")
    return window


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _folds(value) -> int:
    folds = int(value)
    if folds < 2:
        raise ConfigError(f"fold count {folds} invalid: --folds must be at least 2")
    return folds


def _pattern(value: str) -> str:
    figref.compile_pattern(value)  # rejects a bad pattern before any work
    return value


# Every setting: what parses its flag, FIGDESC_* or config value (a ValueError
# if it does not parse, a ConfigError if it is out of range); the JSON kind
# json_field checks its config value against; its default, or _REQUIRED; its help.
_SETTINGS = {
    "corpus": (str, "a string", _REQUIRED, "directory of article files"),
    "ontology": (str, "a string", _REQUIRED, "ontology/lexicon file"),
    "synsets": (str, "a string", None, "synonym-set JSON file"),
    "embeddings": (str, "a string", None, "word embedding text file"),
    "gazetteer": (str, "a string", None, "chemical gazetteer file"),
    "weights": (str, "a string", _REQUIRED, "calibrated weight table JSON"),
    "lambda": (_scale, "a finite number", 0.5, "threshold scale factor"),
    "window": (_window, "an integer", 2, "neighbor window size"),
    "out": (str, "a string", _REQUIRED, "output directory"),
    "seed": (_seed, "an integer", 0, "random seed (baseline folds)"),
    "pattern": (_pattern, "a string", None, "override figure-reference regex"),
    "config": (str, "a string", None, "JSON config file with flag defaults"),
    "scores": (str, "a string", _REQUIRED, "scores JSONL from classify"),
    "gold": (str, "a string", _REQUIRED, "gold label JSONL"),
    "lambdas": (_float_list, "a string", DEFAULT_LAMBDAS, "comma-separated lambdas to sweep"),
    "labeled": (str, "a string", _REQUIRED, "labeled sentence JSONL"),
    "folds": (_folds, "an integer", 10, "cross-validation fold count"),
    "concept_metrics": (str, "a string", None, "metrics JSON from evaluate, for side-by-side"),
}

_RESOURCES = ("ontology", "synsets", "embeddings", "gazetteer")
# The settings a provenance header records: those that are not paths.
_RECORDED = ("lambda", "window", "pattern", "seed", "lambdas", "folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="figdesc",
        description="Find figure-descriptive sentences in scientific article text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=_SETTINGS[name][3])
    return parser


def _config_file(path: str | None) -> dict:
    """The settings in the --config file, if any; a key naming none is a ConfigError."""
    if not path:
        return {}
    try:
        doc = load_json_object(pipeline.read_input(path, "config"), path)
    except (ArticleParseError, SchemaError) as e:
        raise ConfigError(f"config file {e}") from e
    for key in doc:
        if key not in _SETTINGS or key == "config":
            raise ConfigError(f"config file {path}: config.{key}: not a setting")
    return doc


def _resolve(args: dict, names: tuple[str, ...]) -> dict:
    """Each named setting: its flag, else FIGDESC_*, else config file value, else default."""
    config_path = args["config"] or os.environ.get(ENV_PREFIX + "CONFIG")
    file = _config_file(config_path)
    settings = {}
    for name in names:
        parse, kind, default, _ = _SETTINGS[name]
        flag = "--" + name.replace("_", "-")
        value = args[name]
        if value is None:
            value = os.environ.get(ENV_PREFIX + name.upper())
        if value is None and name in file:
            try:
                value = json_field(file, name, "config", kind)
            except SchemaError as e:
                raise ConfigError(f"config file {config_path}: {e}") from e
        if value is None and default is _REQUIRED:
            raise ConfigError(f"{flag} is required for this command")
        try:
            settings[name] = default if value is None else parse(value)
        except ValueError as e:
            raise ConfigError(f"bad value for {flag}: {value!r}") from e
    return settings


@contextmanager
def _writing(out: str | Path) -> Iterator[None]:
    """Creates --out for the writes in the block; an OSError there is a ConfigError.

    A command enters it only once it has all it writes, so a command that
    fails leaves no --out behind.
    """
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
        yield
    except OSError as e:
        raise ConfigError(f"cannot write --out {out}: {e.strerror or e}") from e


def _header(settings: dict, digests: dict[str, str]) -> dict:
    recorded = {name: settings[name] for name in _RECORDED if name in settings}
    return pipeline.provenance(recorded, digests)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_detect(settings: dict) -> int:
    out = Path(settings["out"])
    digests: dict[str, str] = {}
    window, pattern = settings["window"], settings["pattern"]
    articles = pipeline.load_corpus_dir(settings["corpus"], digests)

    def encoded(article: Article) -> tuple[str, list[str], int]:
        det = pipeline.detect_article(article, window, pattern)
        lines = [pipeline.encode_record({"uid": det.uid, **ref}) for ref in det.refs]
        return det.uid, lines, len(det.candidate_indices)

    # map() drops each article and its detection once its rows are encoded.
    detections = sorted(map(encoded, articles), key=lambda det: det[0])
    header = _header(settings, digests)
    with _writing(out):
        pipeline.write_jsonl(
            out / "detect.jsonl", header, chain.from_iterable(lines for _, lines, _ in detections)
        )
    n_refs = sum(len(lines) for _, lines, _ in detections)
    n_candidates = sum(n for _, _, n in detections)
    print(
        f"detect: {len(detections)} articles, {n_refs} figure-referring sentences, "
        f"{n_candidates} candidate sentences -> {out / 'detect.jsonl'}"
    )
    return 0


def cmd_calibrate(settings: dict) -> int:
    out = Path(settings["out"])
    digests: dict[str, str] = {}
    res = pipeline.load_resources(*(settings[k] for k in _RESOURCES), digests)
    articles = pipeline.load_corpus_dir(settings["corpus"], digests)
    refs = pipeline.reference_tmrs(articles, res, settings["pattern"])
    # Calibration reads only the exclusion sets, never lambda or the window.
    table = scoring.calibrate(refs, scoring.ScoringConfig())
    header = _header(settings, digests)
    with _writing(out):
        (out / "weights.json").write_text(scoring.save_weight_table(table))
        _write_json(out / "weights.meta.json", header)
    n_tmr, n_c, n_p = table.calibration_counts
    print(
        f"calibrate: {n_tmr} reference representations, {n_c} concepts, "
        f"{n_p} properties, mean reference weight {table.mean_ref_weight:.6f} "
        f"-> {out / 'weights.json'}"
    )
    return 0


def cmd_classify(settings: dict) -> int:
    out = Path(settings["out"])
    digests: dict[str, str] = {}
    res = pipeline.load_resources(*(settings[k] for k in _RESOURCES), digests)
    table = pipeline.read_input(
        settings["weights"], "weights", digests, scoring.load_weight_table
    )
    articles = pipeline.load_corpus_dir(settings["corpus"], digests)
    config = scoring.ScoringConfig(lambda_=settings["lambda"], window=settings["window"])
    threshold = scoring.compute_threshold(table.mean_ref_weight, config.lambda_)
    scored = pipeline.score_candidates(articles, res, table, config, settings["pattern"])
    records = (
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
    )
    header = _header(settings, digests)
    with _writing(out):
        pipeline.write_jsonl(out / "scores.jsonl", header, map(pipeline.encode_record, records))
    n_pos = sum(1 for row in scored if scoring.classify(row.weight, threshold))
    print(
        f"classify: {len(scored)} candidates, {n_pos} descriptive at "
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


def cmd_evaluate(settings: dict) -> int:
    scores_path = settings["scores"]
    gold_path = settings["gold"]
    weights_path = settings["weights"]
    out = Path(settings["out"])
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
    rows = scoring.lambda_sweep(weights, table.mean_ref_weight, settings["lambdas"], labels)
    lam = settings["lambda"]
    threshold = scoring.compute_threshold(table.mean_ref_weight, lam)
    preds = [scoring.classify(w, threshold) for w in weights]
    headline = scoring.evaluate(preds, labels)
    headline["lambda"] = lam
    headline["threshold"] = threshold
    header = _header(settings, digests)
    with _writing(out):
        (out / "sweep.tsv").write_text(scoring.sweep_to_tsv(rows))
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


def cmd_baseline(settings: dict) -> int:
    from . import baseline as bl  # imported here, so no other command loads numpy for it

    out = Path(settings["out"])
    folds = settings["folds"]
    digests: dict[str, str] = {}
    dataset = pipeline.read_input(settings["labeled"], "labeled", digests, bl.load_labeled_jsonl)
    metrics_path = settings["concept_metrics"]
    concept = (
        pipeline.read_input(metrics_path, "concept-metrics", None, _concept_metrics)
        if metrics_path
        else None
    )
    report = bl.kfold_cv(dataset, k=folds, seed=settings["seed"])
    if concept is not None:
        report["concept_model"] = concept
    header = _header(settings, digests)
    with _writing(out):
        _write_json(out / "baseline.json", {"provenance": header, "report": report})
    print(
        f"baseline: {len(dataset)} sentences, {folds}-fold CV: "
        f"mean accuracy {report['mean']['accuracy']:.4f}, "
        f"mean F1 {report['mean']['f1']:.4f} -> {out / 'baseline.json'}"
    )
    return 0


# Each command: its function, its help and the names of the settings it reads.
_COMMANDS = {
    "detect": (cmd_detect, "list figure references and their candidates",
               ("corpus", "window", "pattern", "out", "config")),
    "calibrate": (cmd_calibrate, "build a weight table from a corpus",
                  ("corpus", *_RESOURCES, "pattern", "out", "config")),
    "classify": (cmd_classify, "score and classify candidate sentences",
                 ("corpus", *_RESOURCES, "weights", "lambda", "window", "pattern", "out",
                  "config")),
    "evaluate": (cmd_evaluate, "lambda sweep and metrics against gold labels",
                 ("scores", "gold", "weights", "lambdas", "lambda", "out", "config")),
    "baseline": (cmd_baseline, "bag-of-words logistic regression CV",
                 ("labeled", "folds", "concept_metrics", "seed", "out", "config")),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    run, _, names = _COMMANDS[args["command"]]
    try:
        return run(_resolve(args, names))
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
