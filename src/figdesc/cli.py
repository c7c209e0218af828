"""Command line front end.

Subcommands: detect, calibrate, classify, evaluate, baseline. _SETTINGS
declares every setting once, and each command takes the flags that _COMMANDS
names for it. A setting comes from its flag, else its FIGDESC_* environment
variable, else the JSON --config file, else its default; main resolves them
all before the command runs. A command reads its inputs into the digests
main gives it, and returns its output files, in write order, each with its
write(path, header), and the text of its summary line; main alone builds the
provenance header, creates --out, writes and prints. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 internal error.
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
from .corpus import Sentence, json_field, load_json_object, sha256
from .errors import AlignmentError, ArticleParseError, ConfigError, FigdescError, SchemaError

ENV_PREFIX = "FIGDESC_"

DEFAULT_LAMBDAS = [0.1, 0.3, 0.5, 0.7, 0.9, 1.5]

_REQUIRED = object()


def _scale(value, flag: str = "--lambda") -> float:
    lambda_ = float(value)
    if not (math.isfinite(lambda_) and lambda_ > 0):
        raise ConfigError(f"{flag} must be positive and finite, got {lambda_}")
    return lambda_


def _lambdas(value: str) -> list[float]:
    numbers = [_scale(x, "--lambdas") for x in value.split(",") if x.strip()]
    if not numbers:
        raise ValueError("no value")
    return numbers


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


def _out(value: str) -> str:
    if not value:  # Path("") is the working directory
        raise ConfigError("--out must not be empty")
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
    "window": (_window, "an integer", figref.DEFAULT_WINDOW, "neighbor window size"),
    "out": (_out, "a string", _REQUIRED, "output directory"),
    "seed": (_seed, "an integer", 0, "random seed (baseline folds)"),
    "pattern": (_pattern, "a string", None, "override figure-reference regex"),
    "config": (str, "a string", None, "JSON config file with flag defaults"),
    "scores": (str, "a string", _REQUIRED, "scores JSONL from classify"),
    "gold": (str, "a string", _REQUIRED, "gold label JSONL"),
    "lambdas": (_lambdas, "a string", DEFAULT_LAMBDAS, "comma-separated lambdas to sweep"),
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
def _writing(out: Path) -> Iterator[None]:
    """Creates --out for the writes in the block; an OSError there is a ConfigError.

    main enters it only once the command has returned all it writes, so a
    command that fails leaves no --out behind.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as e:
        raise ConfigError(f"cannot write --out {out}: {e.strerror or e}") from e


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _under_header(key: str, value):
    """A write(path, header) of {"provenance": header, key: value} as JSON."""
    return lambda path, header: _write_json(path, {"provenance": header, key: value})


def cmd_detect(settings: dict, digests: dict[str, str]) -> tuple[dict, str]:
    pattern = settings["pattern"]
    corpus = pipeline.load_corpus_dir(settings["corpus"], digests)

    def row(uid: str, sentence: Sentence, neighbors: list[int]) -> str:
        matches = figref.detect_figure_refs(sentence, pattern)
        record = {"uid": uid, "global_index": sentence.global_index, "neighbors": neighbors}
        record["labels"] = sorted({label for m in matches for label in m.labels})
        record["spans"] = [list(m.span) for m in matches]
        return pipeline.encode_record(record)

    def encoded(det: pipeline.ArticleDetection) -> tuple[list[str], int]:
        return [row(det.uid, *ref) for ref in det.refs], len(det.candidates)

    detections = pipeline.detect_by_uid(corpus, settings["window"], pattern, encoded)
    rows = chain.from_iterable(lines for lines, _ in detections)
    n_refs = sum(len(lines) for lines, _ in detections)
    n_candidates = sum(n for _, n in detections)
    return {"detect.jsonl": lambda path, header: pipeline.write_jsonl(path, header, rows)}, (
        f"{len(detections)} articles, {n_refs} figure-referring sentences, "
        f"{n_candidates} candidate sentences"
    )


def cmd_calibrate(settings: dict, digests: dict[str, str]) -> tuple[dict, str]:
    res = pipeline.load_resources(*(settings[k] for k in _RESOURCES), digests)
    corpus = pipeline.load_corpus_dir(settings["corpus"], digests)
    refs = pipeline.reference_tmrs(corpus, res, settings["pattern"])
    table = scoring.calibrate(refs)
    weights = scoring.save_weight_table(table).encode()
    digest = sha256(weights).hexdigest()
    n_tmr, n_c, n_p = table.calibration_counts
    return {
        "weights.json": lambda path, header: path.write_bytes(weights),
        "weights.meta.json": lambda path, header: _write_json(path, {**header, "weights": digest}),
    }, (
        f"{n_tmr} reference representations, {n_c} concepts, "
        f"{n_p} properties, mean reference weight {table.mean_ref_weight:.6f}"
    )


def _recorded_inputs(data: bytes) -> tuple[dict, str]:
    """The inputs a weights meta file records, and the sha256 of its weights."""
    doc = load_json_object(data, "weights meta")
    inputs = json_field(doc, "inputs", "weights meta", "an object of strings")
    return inputs, json_field(doc, "weights", "weights meta", "a string")


def _check_calibrated_with(settings: dict, digests: dict[str, str]) -> None:
    """The resources loaded must be those calibrate recorded beside --weights.

    The meta file counts only if it records the sha256 of the --weights bytes
    read; one written for another table is ignored, as is a missing one. A
    resource recorded on one side only, or with another sha256, is an
    AlignmentError. Corpus files are not compared: classify may score any corpus.
    """
    meta_path = Path(settings["weights"]).with_name("weights.meta.json")
    if not meta_path.is_file():
        return
    recorded, weights = pipeline.read_input(meta_path, parse=_recorded_inputs)
    if weights != digests["weights"]:
        return
    for key in _RESOURCES:
        want, got = recorded.get(key), digests.get(key)
        if want != got:
            read = f"--{key} {settings[key]} has sha256 {got}" if got else f"no --{key} was given"
            raise AlignmentError(
                f"{meta_path} records {key} of sha256 {want or '(none)'}, but {read}"
            )


def cmd_classify(settings: dict, digests: dict[str, str]) -> tuple[dict, str]:
    res = pipeline.load_resources(*(settings[k] for k in _RESOURCES), digests)
    table = pipeline.read_input(
        settings["weights"], "weights", digests, scoring.load_weight_table
    )
    _check_calibrated_with(settings, digests)
    corpus = pipeline.load_corpus_dir(settings["corpus"], digests)
    threshold = scoring.compute_threshold(table.mean_ref_weight, settings["lambda"])
    scored = pipeline.score_candidates(
        corpus, res, table, threshold, settings["window"], settings["pattern"]
    )
    n_pos = sum(row.is_descriptive for row in scored)
    lines = (row.line for row in scored)
    return {"scores.jsonl": lambda path, header: pipeline.write_jsonl(path, header, lines)}, (
        f"{len(scored)} candidates, {n_pos} descriptive at "
        f"lambda={settings['lambda']:g} (threshold {threshold:.6f})"
    )


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


def cmd_evaluate(settings: dict, digests: dict[str, str]) -> tuple[dict, str]:
    scores_path = settings["scores"]
    gold_path = settings["gold"]
    weights_path = settings["weights"]
    table = pipeline.read_input(weights_path, "weights", digests, scoring.load_weight_table)
    scores_header, rows = pipeline.read_jsonl(
        scores_path,
        lambda doc, where: _row(doc, where, "weight", "a finite number"),
        digests,
        "scores",
    )
    where = f"{scores_path} line 1.provenance"
    recorded = json_field(scores_header, "inputs", where, "an object of strings", {})
    scored_with = recorded.get("weights")
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
    mean, lam = table.mean_ref_weight, settings["lambda"]
    rows = scoring.lambda_sweep(weights, mean, settings["lambdas"], labels)
    headline = scoring.lambda_sweep(weights, mean, [lam], labels)[0]
    return {
        "sweep.tsv": lambda path, header: path.write_text(scoring.sweep_to_tsv(rows)),
        "metrics.json": _under_header("metrics", headline),
        "sweep.meta.json": _write_json,
    }, (
        f"{len(keys)} labeled candidates, lambda={lam:g}: "
        f"accuracy {headline['accuracy']:.4f}, F1 {headline['f1']:.4f}"
    )


def _concept_metrics(data: bytes) -> dict:
    """An evaluate metrics.json's "metrics" object, or a whole document without one."""
    doc = load_json_object(data, "concept metrics")
    return json_field(doc, "metrics", "concept metrics", "an object", doc)


def cmd_baseline(settings: dict, digests: dict[str, str]) -> tuple[dict, str]:
    try:
        from . import baseline as bl  # imported here, so no other command loads numpy for it
    except ModuleNotFoundError as e:
        if e.name != "numpy":
            raise
        raise ConfigError(
            "baseline needs numpy, which is not installed: install the 'baseline' extra"
            " (pip install 'figdesc[baseline]')"
        ) from e

    folds = settings["folds"]
    dataset = pipeline.read_input(settings["labeled"], "labeled", digests, bl.load_labeled_jsonl)
    if len(dataset) < folds:
        raise SchemaError(
            f"--labeled {settings['labeled']} has {len(dataset)} rows, fewer than --folds {folds}"
        )
    metrics_path = settings["concept_metrics"]
    concept = (
        pipeline.read_input(metrics_path, "concept-metrics", None, _concept_metrics)
        if metrics_path
        else None
    )
    report = bl.kfold_cv(dataset, k=folds, seed=settings["seed"])
    if concept is not None:
        report["concept_model"] = concept
    return {"baseline.json": _under_header("report", report)}, (
        f"{len(dataset)} sentences, {folds}-fold CV: "
        f"mean accuracy {report['mean']['accuracy']:.4f}, "
        f"mean F1 {report['mean']['f1']:.4f}"
    )


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
    command = args["command"]
    run, _, names = _COMMANDS[command]
    try:
        settings = _resolve(args, names)
        digests: dict[str, str] = {}
        files, summary = run(settings, digests)
        recorded = {name: settings[name] for name in _RECORDED if name in settings}
        header = pipeline.provenance(recorded, digests)
        out = Path(settings["out"])
        with _writing(out):
            for name, write in files.items():
                write(out / name, header)
        print(f"{command}: {summary} -> {out / next(iter(files))}")
        return 0
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
