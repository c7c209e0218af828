import argparse
import builtins
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from figdesc import figref, fixtures, pipeline
from figdesc.cli import _RECORDED, _row, build_parser, main
from figdesc.corpus import Token
from figdesc.errors import ArticleParseError
from figdesc.scoring import load_weight_table

from .helpers import (
    DATA_ROOT,
    DOCUMENTED_PATTERN,
    LABELED_PATH,
    MINI_CORPUS,
    no_child_left,
    resource_args,
    split_into,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def append(path: Path, value) -> None:
    """One line more in the file at path; appends from many processes stay whole."""
    with open(path, "a") as fh:
        fh.write(f"{value}\n")


def command_argv(command: str, outputs: Path, out: Path) -> list[str]:
    """Arguments of a run of command over the mini corpus and the shared outputs."""
    mini = str(MINI_CORPUS)
    return {
        "detect": ["detect", "--corpus", mini],
        "calibrate": ["calibrate", "--corpus", mini, *resource_args()],
        "classify": [
            "classify", "--corpus", mini, "--weights", str(outputs / "weights.json"),
            *resource_args(),
        ],
        "evaluate": [
            "evaluate", "--scores", str(outputs / "scores.jsonl"),
            "--gold", str(MINI_CORPUS / "gold.jsonl"),
            "--weights", str(outputs / "weights.json"),
        ],
        "baseline": [
            "baseline", "--labeled", str(LABELED_PATH), "--folds", "5",
            "--concept-metrics", str(outputs / "metrics.json"),
        ],
    }[command] + ["--out", str(out)]


def header_of(command: str, out: Path) -> dict:
    """The provenance header of the output that command wrote to out."""
    if command == "classify":
        return json.loads((out / "scores.jsonl").read_text().splitlines()[0])["provenance"]
    if command == "calibrate":
        return json.loads((out / "weights.meta.json").read_text())
    name = {"evaluate": "metrics.json", "baseline": "baseline.json"}[command]
    return json.loads((out / name).read_text())["provenance"]


RESOURCE_FLAGS = ["ontology", "synsets", "embeddings", "gazetteer"]

# Every input file each command reads besides the corpus, by flag.
NON_CORPUS_INPUTS = [
    *(("calibrate", flag) for flag in RESOURCE_FLAGS),
    *(("classify", flag) for flag in [*RESOURCE_FLAGS, "weights"]),
    ("evaluate", "scores"),
    ("evaluate", "gold"),
    ("evaluate", "weights"),
    ("baseline", "labeled"),
    ("baseline", "concept-metrics"),
]


def replace_flag(argv: list[str], flag: str, value: Path) -> list[str]:
    i = argv.index(f"--{flag}")
    return [*argv[: i + 1], str(value), *argv[i + 2 :]]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One full pipeline run shared by the read-only CLI assertions."""
    out = tmp_path_factory.mktemp("cli-run")
    mini = str(MINI_CORPUS)
    assert main(["detect", "--corpus", mini, "--out", str(out)]) == 0
    assert main(["calibrate", "--corpus", mini, "--out", str(out), *resource_args()]) == 0
    assert (
        main(
            [
                "classify",
                "--corpus",
                mini,
                "--weights",
                str(out / "weights.json"),
                "--out",
                str(out),
                *resource_args(),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate",
                "--scores",
                str(out / "scores.jsonl"),
                "--gold",
                str(MINI_CORPUS / "gold.jsonl"),
                "--weights",
                str(out / "weights.json"),
                "--out",
                str(out),
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
                "--folds",
                "5",
                "--out",
                str(out),
                "--concept-metrics",
                str(out / "metrics.json"),
            ]
        )
        == 0
    )
    return out


class TestPipelineCommands:
    def test_detect_output(self, outputs):
        header, records = pipeline.read_jsonl(outputs / "detect.jsonl")
        assert len(records) == 60
        assert set(records[0]) == {"uid", "global_index", "labels", "spans", "neighbors"}
        assert "inputs" in header and "settings" in header
        assert header["settings"]["window"] == 2

    @staticmethod
    def detect_rows(capsys, tmp_path, body, *flags):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "T1.json").write_text(json.dumps({"uid": "T1", "body": body}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "detect", "--corpus", str(corpus), "--out", str(out), *flags)
        assert code == 0, err
        return pipeline.read_jsonl(out / "detect.jsonl")[1]

    def test_detect_row_of_a_hand_built_article(self, capsys, tmp_path):
        body = [
            ["Intro one.", "Intro two."],
            ["Left text.", "Fig. 3 shows it.", "Right text.", "Far text."],
            ["Unrelated."],
        ]
        rows = self.detect_rows(capsys, tmp_path, body, "--window", "2")
        assert rows == [
            {"uid": "T1", "global_index": 3, "labels": ["3"], "spans": [[0, 6]],
             "neighbors": [2, 4, 5]}
        ]

    def test_detect_labels_are_sorted_and_distinct(self, capsys, tmp_path):
        rows = self.detect_rows(capsys, tmp_path, [["Figs. 3, 1 and Fig. 3 agree."]])
        assert rows == [
            {"uid": "T1", "global_index": 0, "labels": ["1", "3"], "spans": [[0, 10], [15, 21]],
             "neighbors": []}
        ]

    @pytest.mark.parametrize("pattern", [r"fig(\d+)?", r"fig(\d*)|(tab)"])
    def test_detect_row_where_group_1_sits_out_a_match(self, capsys, tmp_path, pattern):
        """Only the match that sets group 1 gives a label; every match keeps its span."""
        body = [["Fig2 and fig. tab", "Plain."]]
        rows = self.detect_rows(capsys, tmp_path, body, "--pattern", pattern)
        spans = {r"fig(\d+)?": [[0, 4], [9, 12]], r"fig(\d*)|(tab)": [[0, 4], [9, 12], [14, 17]]}
        assert rows == [
            {"uid": "T1", "global_index": 0, "labels": ["2"], "spans": spans[pattern],
             "neighbors": [1]}
        ]

    def test_documented_pattern_detects_what_the_default_does(self, capsys, tmp_path, outputs):
        """The same rows, byte for byte; only the header, which records the pattern, differs."""
        out = tmp_path / "documented"
        code, _, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(out),
            "--pattern", DOCUMENTED_PATTERN,
        )
        assert code == 0, err
        header, rows = (out / "detect.jsonl").read_bytes().split(b"\n", 1)
        default_header, default_rows = (outputs / "detect.jsonl").read_bytes().split(b"\n", 1)
        assert rows == default_rows
        assert header != default_header

    def test_calibrate_output(self, outputs):
        table = load_weight_table((outputs / "weights.json").read_bytes())
        assert table.calibration_counts[0] == 60
        assert table.calibration_counts[1] > 0
        assert table.calibration_counts[2] > 0
        assert table.mean_ref_weight > 0
        meta = json.loads((outputs / "weights.meta.json").read_text())
        assert any(k.startswith("corpus/") for k in meta["inputs"])
        assert "ontology" in meta["inputs"]

    def test_classify_output(self, outputs):
        header, records = pipeline.read_jsonl(outputs / "scores.jsonl")
        assert len(records) == 40
        thresholds = {r["threshold"] for r in records}
        assert len(thresholds) == 1
        for r in records[:5]:
            assert isinstance(r["is_descriptive"], bool)
            assert r["is_descriptive"] == (r["weight"] > r["threshold"])
            assert "elements" in r["tmr"]
        assert "weights" in header["inputs"]

    def test_evaluate_output(self, outputs):
        lines = (outputs / "sweep.tsv").read_text().splitlines()
        assert lines[0] == "lambda\tthreshold\taccuracy\tf1"
        assert len(lines) == 7  # six default lambdas
        doc = json.loads((outputs / "metrics.json").read_text())
        m = doc["metrics"]
        assert m["tp"] + m["fp"] + m["fn"] + m["tn"] == 40
        assert 0.0 <= m["f1"] <= 1.0
        assert m["lambda"] == 0.5

    def test_baseline_output(self, outputs):
        doc = json.loads((outputs / "baseline.json").read_text())
        report = doc["report"]
        assert report["k"] == 5
        assert len(report["folds"]) == 5
        assert 0.0 <= report["mean"]["f1"] <= 1.0
        # side-by-side comparison pulled from the evaluate output
        assert "f1" in report["concept_model"]

    def test_console_summaries(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(tmp_path)
        )
        assert code == 0
        assert "20 articles" in out
        assert "60 figure-referring" in out
        assert err == ""


class TestSettingsLayering:
    def test_env_supplies_missing_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIGDESC_OUT", str(tmp_path))
        monkeypatch.setenv("FIGDESC_CORPUS", str(MINI_CORPUS))
        code, _, _ = run(capsys, "detect")
        assert code == 0
        assert (tmp_path / "detect.jsonl").exists()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIGDESC_OUT", str(tmp_path / "env"))
        code, _, _ = run(
            capsys,
            "detect",
            "--corpus",
            str(MINI_CORPUS),
            "--out",
            str(tmp_path / "flag"),
        )
        assert code == 0
        assert (tmp_path / "flag" / "detect.jsonl").exists()
        assert not (tmp_path / "env").exists()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"corpus": str(MINI_CORPUS), "out": str(tmp_path / "run")})
        )
        code, _, _ = run(capsys, "detect", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "run" / "detect.jsonl").exists()

    def test_env_beats_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"corpus": str(MINI_CORPUS), "out": str(tmp_path / "from-file")})
        )
        monkeypatch.setenv("FIGDESC_CONFIG", str(cfg))
        monkeypatch.setenv("FIGDESC_OUT", str(tmp_path / "from-env"))
        code, _, _ = run(capsys, "detect")
        assert code == 0
        assert (tmp_path / "from-env" / "detect.jsonl").exists()

    def test_config_numbers_read_as_flags(self, capsys, tmp_path, outputs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1, "window": 2}))
        file_argv = command_argv("classify", outputs, tmp_path / "file")
        assert run(capsys, *file_argv, "--config", str(cfg))[0] == 0
        flags = ["--lambda", "1.0", "--window", "2"]
        assert run(capsys, *command_argv("classify", outputs, tmp_path / "flags"), *flags)[0] == 0
        written = (tmp_path / "file" / "scores.jsonl").read_bytes()
        assert written == (tmp_path / "flags" / "scores.jsonl").read_bytes()
        assert b'"lambda": 1.0' in written

    @pytest.mark.parametrize(
        "command, key, value, kind",
        [
            ("detect", "out", 5, "a string"),
            ("detect", "corpus", ["a"], "a string"),
            ("detect", "window", 2.7, "an integer"),
            ("classify", "lambda", True, "a finite number"),
            ("baseline", "folds", True, "an integer"),
            ("evaluate", "lambdas", 0.5, "a string"),
        ],
        ids=["out", "corpus", "window", "lambda", "folds", "lambdas"],
    )
    def test_mistyped_config_value_names_it(
        self, capsys, tmp_path, outputs, command, key, value, kind
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        if command == "detect":
            argv = ["detect", "--corpus", str(MINI_CORPUS), "--out", str(out)]
        else:
            argv = command_argv(command, outputs, out)
        if f"--{key}" in argv:
            i = argv.index(f"--{key}")
            del argv[i : i + 2]
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert err == f"error: config file {cfg}: config.{key}: must be {kind}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lamda", "concept-metrics", "config"])
    def test_unknown_config_key_names_it(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 2}))
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(out), "--config", str(cfg)
        )
        assert code == 1
        assert err == f"error: config file {cfg}: config.{key}: not a setting\n"
        assert not out.exists()

    def test_one_config_serves_the_chain(self, capsys, tmp_path, outputs):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        flags = resource_args()
        config = {flags[i][2:]: flags[i + 1] for i in range(0, len(flags), 2)}
        config.update(
            corpus=str(MINI_CORPUS),
            out=str(out),
            weights=str(out / "weights.json"),
            scores=str(out / "scores.jsonl"),
            gold=str(MINI_CORPUS / "gold.jsonl"),
            labeled=str(LABELED_PATH),
            folds=5,
            concept_metrics=str(out / "metrics.json"),
        )
        cfg.write_text(json.dumps(config))
        for command in ["detect", "calibrate", "classify", "evaluate", "baseline"]:
            code, _, err = run(capsys, command, "--config", str(cfg))
            assert code == 0, (command, err)
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(path.name for path in outputs.iterdir())
        for name in written:
            assert (out / name).read_bytes() == (outputs / name).read_bytes(), name

    def test_window_setting_reaches_detection(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "detect",
            "--corpus",
            str(MINI_CORPUS),
            "--out",
            str(tmp_path),
            "--window",
            "1",
        )
        assert code == 0
        header, records = pipeline.read_jsonl(tmp_path / "detect.jsonl")
        assert header["settings"]["window"] == 1
        # window 1 around the interior reference reaches only its direct flanks
        assert all(len(r["neighbors"]) <= 2 for r in records)


def without_headers(out: Path) -> dict:
    """Each file in out by name, less its provenance header; a header-only file is dropped."""
    kept = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".meta.json"):
            continue
        if path.suffix == ".jsonl":
            kept[path.name] = path.read_bytes().split(b"\n", 1)[1]
        elif path.suffix == ".json":
            doc = json.loads(path.read_text())
            doc.pop("provenance", None)
            kept[path.name] = doc
        else:
            kept[path.name] = path.read_bytes()
    return kept


class TestEverySettingIsRead:
    """Each setting a command takes changes an output byte outside the header."""

    VARIED = [
        ("detect", "--window", "0"),
        ("detect", "--pattern", r"figure (\d+)"),
        ("calibrate", "--pattern", r"figure (\d+)"),
        ("classify", "--lambda", "0.9"),
        ("classify", "--window", "0"),
        ("classify", "--pattern", r"figure (\d+)"),
        ("evaluate", "--lambda", "0.9"),
        ("evaluate", "--lambdas", "0.2,0.4"),
        ("baseline", "--seed", "1"),
        ("baseline", "--folds", "3"),
    ]

    @pytest.mark.parametrize("command, flag, value", VARIED)
    def test_a_value_other_than_the_default_changes_an_output(
        self, capsys, tmp_path, outputs, command, flag, value
    ):
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), flag, value)
        assert code == 0, err
        varied, shared = without_headers(out), without_headers(outputs)
        assert varied != {name: shared[name] for name in varied}

    def test_every_setting_that_is_not_a_path_is_varied(self):
        recorded = {"--" + name for name in _RECORDED}
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            (command, flag)
            for command, p in sub.choices.items()
            for a in p._actions
            for flag in a.option_strings
            if flag in recorded
        }
        assert taken == {(command, flag) for command, flag, _ in self.VARIED}


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "detect" in out

    def test_missing_required_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "detect", "--out", str(tmp_path))
        assert code == 1
        assert "--corpus is required" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "detect", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("baseline", "--ontology", "/nonexistent"),
            ("baseline", "--lambda", "-5"),
            ("baseline", "--pattern", "("),
            ("detect", "--weights", "/nope"),
            ("calibrate", "--weights", "/nope"),
            ("evaluate", "--corpus", "/nonexistent"),
            # settings the command no longer takes: no output byte depended on them
            ("detect", "--lambda", "0.7"),
            ("calibrate", "--lambda", "0.7"),
            ("calibrate", "--window", "1"),
            ("evaluate", "--window", "1"),
            ("evaluate", "--pattern", "Fig"),
        ],
    )
    def test_flag_the_command_does_not_take(
        self, capsys, tmp_path, outputs, command, flag, value
    ):
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), flag, value)
        assert code == 1
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not out.exists()

    def test_bad_cast_from_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIGDESC_WINDOW", "often")
        code, _, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(tmp_path)
        )
        assert code == 1
        assert "window" in err

    @pytest.mark.parametrize("flag, value", [("--window", "2.5"), ("--lambda", "x"), ("--seed", "1.5")])
    def test_bad_flag_value_names_it(self, capsys, tmp_path, outputs, flag, value):
        command = {"--window": "detect", "--lambda": "evaluate", "--seed": "baseline"}[flag]
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), flag, value)
        assert code == 1
        assert err == f"error: bad value for {flag}: {value!r}\n"
        assert not out.exists()

    def test_config_file_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"window": 2, "pattern": "caf\xe9"}')
        code, _, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(tmp_path / "out"),
            "--config", str(config),
        )
        assert code == 1
        assert f"config file {config}: not UTF-8 at byte offset 29" in err

    def test_missing_corpus_dir(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "detect", "--corpus", str(tmp_path / "ghost"), "--out", str(tmp_path)
        )
        assert code == 1
        assert "does not exist" in err

    def test_malformed_article_is_a_data_error(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.json").write_text('{"uid": "B", ')
        code, _, err = run(
            capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path)
        )
        assert code == 2
        assert "error:" in err

    def test_embedding_count_unlike_the_rows_is_a_data_error(self, capsys, tmp_path, outputs):
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_text("-7 2\na 1 0\nb 0 1\n")
        out = tmp_path / "out"
        argv = replace_flag(command_argv("calibrate", outputs, out), "embeddings", embeddings)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {embeddings}: line 1: header counts -7 rows, but 2 follow\n"
        assert not out.exists()

    def test_gold_ids_missing_from_scores(self, capsys, tmp_path, outputs):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            '{"uid": "ZZZ", "global_index": 0, "label": 1}\n'
            '{"uid": "M001", "global_index": 99, "label": 1}\n'
        )
        code, _, err = run(
            capsys,
            "evaluate",
            "--scores",
            str(outputs / "scores.jsonl"),
            "--gold",
            str(gold),
            "--weights",
            str(outputs / "weights.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert (
            f"--gold {gold} has ids missing from --scores {outputs / 'scores.jsonl'}: "
            "M001@99, ZZZ@0\n"
        ) in err

    def test_nonpositive_lambda(self, capsys, tmp_path, outputs):
        code, _, err = run(
            capsys,
            "classify",
            "--corpus",
            str(MINI_CORPUS),
            "--weights",
            str(outputs / "weights.json"),
            "--out",
            str(tmp_path),
            "--lambda",
            "0",
            *resource_args(),
        )
        assert code == 1
        assert "lambda" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda(self, capsys, tmp_path, outputs, value):
        code, _, err = run(
            capsys,
            "classify",
            "--corpus",
            str(MINI_CORPUS),
            "--weights",
            str(outputs / "weights.json"),
            "--out",
            str(tmp_path),
            "--lambda",
            value,
            *resource_args(),
        )
        assert code == 1
        assert "lambda" in err
        assert not (tmp_path / "scores.jsonl").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("classify", "--lambda", "1e10"), ("evaluate", "--lambda", "1e10"),
         ("evaluate", "--lambdas", "0.5,1e10")],
    )
    def test_threshold_that_overflows(self, capsys, tmp_path, outputs, command, flag, value):
        """A finite lambda times a finite mean reference weight can be inf, which
        no JSON output can hold."""
        table = json.loads((outputs / "weights.json").read_text())
        table["mean_ref_weight"] = 1e300
        weights = tmp_path / "huge.json"
        weights.write_text(json.dumps(table))
        out = tmp_path / "out"
        argv = replace_flag(command_argv(command, outputs, out), "weights", weights)
        if command == "evaluate":  # scores that record no weights, so any table may read them
            rows = (outputs / "scores.jsonl").read_text().splitlines()[1:]
            (tmp_path / "scores.jsonl").write_text("\n".join(['{"provenance": {}}', *rows]))
            argv = replace_flag(argv, "scores", tmp_path / "scores.jsonl")
        code, _, err = run(capsys, *argv, flag, value)
        assert code == 1
        assert err == "error: lambda 10000000000.0 times mean reference weight 1e+300 overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize(
        "command", ["detect", "calibrate", "classify", "evaluate", "baseline"]
    )
    def test_empty_out(self, capsys, tmp_path, outputs, monkeypatch, command, source):
        """Path("") is the working directory, so an empty --out would write there."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = command_argv(command, outputs, tmp_path / "out")[:-2]
        if source == "flag":
            argv += ["--out", ""]
        elif source == "env":
            monkeypatch.setenv("FIGDESC_OUT", "")
        else:
            (tmp_path / "cfg.json").write_text('{"out": ""}')
            argv += ["--config", str(tmp_path / "cfg.json")]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: --out must not be empty\n")
        assert list(work.iterdir()) == []

    def test_negative_window(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "detect",
            "--corpus",
            str(MINI_CORPUS),
            "--out",
            str(tmp_path),
            "--window",
            "-1",
        )
        assert code == 1
        assert "window" in err
        assert not (tmp_path / "detect.jsonl").exists()

    @pytest.mark.parametrize("command", ["detect", "calibrate", "classify", "evaluate"])
    def test_negative_seed_leaves_no_out(self, capsys, tmp_path, outputs, command):
        # only baseline reads the seed: the other commands refuse the flag before writing
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), "--seed", "-1")
        assert code == 1
        assert "unrecognized arguments: --seed -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_negative_seed_from_settings_leaves_no_out(
        self, capsys, tmp_path, outputs, monkeypatch, source
    ):
        # baseline, the one command that reads the seed; TestBaselineInputs gives it as a flag
        if source == "env":
            monkeypatch.setenv("FIGDESC_SEED", "-1")
        else:
            monkeypatch.setenv("FIGDESC_CONFIG", str(tmp_path / "cfg.json"))
            (tmp_path / "cfg.json").write_text('{"seed": -1}')
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv("baseline", outputs, out))
        assert code == 1
        assert err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pattern, reason",
        [("(", "does not compile"), ("Fig", "no capture group 1")],
        ids=["unbalanced", "no-group"],
    )
    @pytest.mark.parametrize("command", ["detect", "calibrate", "classify"])
    def test_bad_pattern_is_a_config_error(
        self, capsys, tmp_path, outputs, command, pattern, reason
    ):
        extra = {
            "detect": [],
            "calibrate": resource_args(),
            "classify": ["--weights", str(outputs / "weights.json"), *resource_args()],
        }[command]
        code, _, err = run(
            capsys,
            command,
            "--corpus",
            str(MINI_CORPUS),
            "--out",
            str(tmp_path),
            "--pattern",
            pattern,
            *extra,
        )
        assert code == 1
        assert reason in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pattern", [r"fig(\d+)?", r"fig(\d*)|(tab)"])
    @pytest.mark.parametrize("command", ["detect", "calibrate", "classify"])
    def test_group_1_may_sit_out_a_match(self, capsys, tmp_path, outputs, command, pattern):
        """Such a match gives no labels, keeps its span, and its sentence refers."""
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), "--pattern", pattern)
        assert code == 0, err
        if command == "detect":
            _, rows = pipeline.read_jsonl(out / "detect.jsonl")
            # M001's "Figure 1 shows the absorption spectrum.": "Fig" matches, "1" does not follow
            assert rows[0] == {
                "uid": "M001", "global_index": 2, "labels": [], "spans": [[0, 3]], "neighbors": []
            }
            assert all(row["spans"] for row in rows)

    @pytest.mark.parametrize("pattern", [5, ["Fig"], True], ids=["int", "list", "bool"])
    @pytest.mark.parametrize("command", ["detect", "calibrate", "classify"])
    def test_non_string_pattern_in_config_is_a_config_error(
        self, capsys, tmp_path, outputs, command, pattern
    ):
        extra = {
            "detect": [],
            "calibrate": resource_args(),
            "classify": ["--weights", str(outputs / "weights.json"), *resource_args()],
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pattern": pattern}))
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            command,
            "--corpus",
            str(MINI_CORPUS),
            "--out",
            str(out),
            "--config",
            str(cfg),
            *extra,
        )
        assert code == 1
        assert f"error: config file {cfg}: config.pattern: must be a string" in err
        assert not out.exists()

    def test_mistyped_article_field_names_the_file_and_field(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        doc = {"uid": "X", "title": 5, "abstract": [1], "metadata": {"k": [1]}, "body": [["One."]]}
        (corpus / "X.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert err == "error: X.json: article.title: must be a string\n"

    def test_corpus_error_names_the_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("M001.json", "M002.json"):
            (corpus / name).write_bytes((MINI_CORPUS / name).read_bytes())
        (corpus / "M002.json").write_bytes((MINI_CORPUS / "M002.json").read_bytes()[:13])
        code, _, err = run(
            capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert "error: M002.json: article: malformed JSON at offset 4" in err

    @pytest.mark.parametrize("name", ["M001.json", "M001.conllu"])
    def test_non_utf8_file_is_a_data_error(self, capsys, tmp_path, name):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for suffix in (".json", ".conllu"):
            source = MINI_CORPUS / f"M001{suffix}"
            (corpus / source.name).write_bytes(source.read_bytes())
        data = (corpus / name).read_bytes()
        cut = data.index(b"treatment")
        (corpus / name).write_bytes(data[:cut] + b"\xe9" + data[cut:])
        code, _, err = run(
            capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert "not UTF-8" in err
        if name.endswith(".conllu"):
            assert name in err


    def test_directory_named_like_a_corpus_file_is_skipped(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for suffix in (".json", ".conllu"):
            source = MINI_CORPUS / f"M001{suffix}"
            (corpus / source.name).write_bytes(source.read_bytes())
        code, _, _ = run(capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path / "a"))
        assert code == 0
        (corpus / "sub.json").mkdir()
        (corpus / "sub.conllu").mkdir()
        code, _, err = run(
            capsys, "detect", "--corpus", str(corpus), "--out", str(tmp_path / "b")
        )
        assert code == 0, err
        assert (tmp_path / "b" / "detect.jsonl").read_bytes() == (
            tmp_path / "a" / "detect.jsonl"
        ).read_bytes()


class TestUnwritableOut:
    """An --out that cannot be created or written into is a usage error naming it."""

    @pytest.mark.parametrize(
        "command, blocked, reason",
        [
            ("detect", "", "File exists"),  # mkdir of --out itself
            ("detect", "sub", "Not a directory"),  # mkdir below a file
            ("detect", "detect.jsonl", "Is a directory"),  # pipeline.write_jsonl
            ("calibrate", "weights.json", "Is a directory"),  # Path.write_text
            ("calibrate", "weights.meta.json", "Is a directory"),  # _write_json
            ("classify", "scores.jsonl", "Is a directory"),
            ("evaluate", "sweep.tsv", "Is a directory"),
            ("evaluate", "metrics.json", "Is a directory"),
            ("baseline", "baseline.json", "Is a directory"),
        ],
    )
    def test_unwritable_out(self, capsys, tmp_path, outputs, command, blocked, reason):
        if blocked in ("", "sub"):
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / blocked
        else:
            out = tmp_path / "out"
            (out / blocked).mkdir(parents=True)
        code, _, err = run(capsys, *command_argv(command, outputs, out))
        assert code == 1
        assert err == f"error: cannot write --out {out}: {reason}\n"


class TestEvaluateInputs:
    """A malformed gold or scores file is a data error naming the file and line."""

    GOOD_GOLD = '{"uid": "M001", "global_index": 1, "label": 1}\n'

    def evaluate(self, capsys, tmp_path, outputs, name, data):
        """evaluate with the gold or scores file replaced by one holding data."""
        inputs = {"gold": MINI_CORPUS / "gold.jsonl", "scores": outputs / "scores.jsonl"}
        inputs[name] = tmp_path / f"{name}.jsonl"
        inputs[name].write_bytes(data)
        out = tmp_path / "out"
        code, _, err = run(
            capsys,
            "evaluate",
            "--scores",
            str(inputs["scores"]),
            "--gold",
            str(inputs["gold"]),
            "--weights",
            str(outputs / "weights.json"),
            "--out",
            str(out),
        )
        assert not (out / "metrics.json").exists()
        return code, err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{bad\n", "line 1: malformed JSON"),
            (GOOD_GOLD + "[1, 2]\n", "line 2: must be a JSON object"),
            ('{"uid": "M001", "global_index": 1}\n', "line 1: missing field 'label'"),
            ('{"uid": "M001", "label": 1}\n', "line 1: missing field 'global_index'"),
            (
                '{"uid": "M001", "global_index": "one", "label": 1}\n',
                "line 1.global_index: must be an integer",
            ),
            (
                GOOD_GOLD + '{"uid": "M001", "global_index": 2, "label": null}\n',
                "line 2.label: must be 0 or 1",
            ),
            ('{"uid": 7, "global_index": 1, "label": 1}\n', "line 1.uid: must be a string"),
            (
                '{"uid": "M001", "global_index": 4.7, "label": 1}\n',
                "line 1.global_index: must be an integer",
            ),
            (
                '{"uid": "M001", "global_index": true, "label": 1}\n',
                "line 1.global_index: must be an integer",
            ),
            (
                '{"uid": "M001", "global_index": "4", "label": 1}\n',
                "line 1.global_index: must be an integer",
            ),
            ('{"uid": "M001", "global_index": 4, "label": 7}\n', "line 1.label: must be 0 or 1"),
            (
                '{"uid": "M001", "global_index": 4, "label": true}\n',
                "line 1.label: must be 0 or 1",
            ),
        ],
        ids=[
            "malformed",
            "not-an-object",
            "no-label",
            "no-global-index",
            "non-integer-global-index",
            "non-integer-label",
            "non-string-uid",
            "fractional-global-index",
            "boolean-global-index",
            "string-global-index",
            "label-7",
            "boolean-label",
        ],
    )
    def test_bad_gold_file(self, capsys, tmp_path, outputs, text, reason):
        code, err = self.evaluate(capsys, tmp_path, outputs, "gold", text.encode())
        assert code == 2
        assert "gold.jsonl " + reason in err

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("{bad", "line 2: malformed JSON"),
            ('"row"', "line 2: must be a JSON object"),
            ('{"uid": "M001", "global_index": 1}', "line 2: missing field 'weight'"),
            (
                '{"uid": "M001", "global_index": [1], "weight": 0.5}',
                "line 2.global_index: must be an integer",
            ),
            (
                '{"uid": "M001", "global_index": 1, "weight": "heavy"}',
                "line 2.weight: must be a finite number",
            ),
            (
                '{"uid": "M001", "global_index": 1, "weight": "0.5"}',
                "line 2.weight: must be a finite number",
            ),
            (
                '{"uid": "M001", "global_index": 1, "weight": true}',
                "line 2.weight: must be a finite number",
            ),
        ],
        ids=[
            "malformed",
            "not-an-object",
            "no-weight",
            "non-integer-global-index",
            "bad-weight",
            "numeric-string-weight",
            "boolean-weight",
        ],
    )
    def test_bad_scores_file(self, capsys, tmp_path, outputs, row, reason):
        header = (outputs / "scores.jsonl").read_text().splitlines()[0]
        code, err = self.evaluate(
            capsys, tmp_path, outputs, "scores", f"{header}\n{row}\n".encode()
        )
        assert code == 2
        assert "scores.jsonl " + reason in err

    @pytest.mark.parametrize("name", ["gold", "scores"])
    def test_repeated_id(self, capsys, tmp_path, outputs, name):
        original = {"gold": MINI_CORPUS / "gold.jsonl", "scores": outputs / "scores.jsonl"}
        lines = original[name].read_text().splitlines()
        row = json.loads(lines[1 if name == "scores" else 0])
        row["label" if name == "gold" else "weight"] = 0
        data = "\n".join([*lines, json.dumps(row)]) + "\n"
        code, err = self.evaluate(capsys, tmp_path, outputs, name, data.encode())
        assert code == 2
        path = tmp_path / f"{name}.jsonl"
        assert err == f"error: --{name} {path} repeats the id {row['uid']}@{row['global_index']}\n"

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    @pytest.mark.parametrize(
        "name, field, kind", [("gold", "label", "0 or 1"), ("scores", "weight", "a finite number")]
    )
    def test_line_ends_and_unicode_breaks_load_the_same_rows(
        self, tmp_path, outputs, newline, name, field, kind
    ):
        """\\r and \\r\\n end a line as \\n does; U+2028 and U+0085 inside a JSON
        string do not, and a bad line is named by the same number."""
        original = {"gold": MINI_CORPUS / "gold.jsonl", "scores": outputs / "scores.jsonl"}[name]
        lines = original.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        noted = [line.replace('{"', '{"note": "a\u2028b\x85c", "', 1) for line in lines]
        path = tmp_path / f"{name}.jsonl"

        def read(path):
            return pipeline.read_jsonl(path, lambda doc, where: _row(doc, where, field, kind))

        path.write_bytes((newline.join(noted) + newline).encode())
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert read(path) == read(original)
        path.write_bytes((newline.join([*noted, "", "{bad"]) + newline).encode())
        with pytest.raises(ArticleParseError, match=f"line {len(lines) + 2}: malformed JSON"):
            read(path)

    def test_scores_file_not_utf8(self, capsys, tmp_path, outputs):
        code, err = self.evaluate(capsys, tmp_path, outputs, "scores", b'{"uid": "caf\xe9"}\n')
        assert code == 2
        assert "scores.jsonl: not UTF-8 at byte offset 12" in err

    def test_provenance_not_an_object(self, capsys, tmp_path, outputs):
        rows = (outputs / "scores.jsonl").read_text().splitlines()[1:]
        data = "\n".join(['{"provenance": [1]}', *rows]).encode()
        code, err = self.evaluate(capsys, tmp_path, outputs, "scores", data)
        assert code == 2
        assert "scores.jsonl line 1.provenance: must be an object" in err

    def test_bad_lambdas(self, capsys, tmp_path, outputs):
        argv = command_argv("evaluate", outputs, tmp_path / "out")
        code, _, err = run(capsys, *argv, "--lambdas", "0.5,abc")
        assert code == 1
        assert "bad value for --lambdas: '0.5,abc'" in err

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_lambdas(self, capsys, tmp_path, outputs, value):
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv("evaluate", outputs, out), "--lambdas", value)
        assert code == 1
        assert f"bad value for --lambdas: {value!r}" in err
        assert not (out / "sweep.tsv").exists()

    @pytest.mark.parametrize(
        "value, shown", [("-1", "-1.0"), ("0.5,0", "0.0"), ("nan", "nan"), ("0.5,inf", "inf")]
    )
    @pytest.mark.parametrize("gold", ["good", "malformed"])
    def test_out_of_range_lambdas_before_any_input(
        self, capsys, tmp_path, outputs, value, shown, gold
    ):
        argv = command_argv("evaluate", outputs, tmp_path / "out")
        if gold == "malformed":
            (tmp_path / "gold.jsonl").write_text('{"uid": ')
            argv = replace_flag(argv, "gold", tmp_path / "gold.jsonl")
        code, _, err = run(capsys, *argv, "--lambdas", value)
        assert code == 1
        assert err == f"error: --lambdas must be positive and finite, got {shown}\n"
        assert not (tmp_path / "out").exists()


class TestEvaluateChecksWeights:
    """evaluate rejects a --weights file other than the one classify scored with."""

    def test_edited_weights_are_a_data_error(self, capsys, tmp_path, outputs):
        table = json.loads((outputs / "weights.json").read_text())
        table["mean_ref_weight"] /= 2
        weights = tmp_path / "edited.json"
        weights.write_text(json.dumps(table))
        out = tmp_path / "out"
        argv = replace_flag(command_argv("evaluate", outputs, out), "weights", weights)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{outputs / 'scores.jsonl'} was scored with weights of sha256" in err
        assert f"but --weights {weights} has sha256" in err
        assert not out.exists()

    def test_same_bytes_elsewhere_pass(self, capsys, tmp_path, outputs):
        weights = tmp_path / "copy.json"
        shutil.copyfile(outputs / "weights.json", weights)
        out = tmp_path / "out"
        argv = replace_flag(command_argv("evaluate", outputs, out), "weights", weights)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert (out / "metrics.json").read_bytes() == (outputs / "metrics.json").read_bytes()

    def evaluate(self, capsys, tmp_path, outputs, header):
        """evaluate of the scores rows under another header line."""
        rows = (outputs / "scores.jsonl").read_text().splitlines()[1:]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        argv = replace_flag(command_argv("evaluate", outputs, out), "scores", scores)
        code, _, err = run(capsys, *argv)
        return code, err.replace(str(scores), "<scores>")

    @pytest.mark.parametrize("header", ['{"provenance": {}}', '{"provenance": {"inputs": {}}}'])
    def test_nothing_recorded_nothing_checked(self, capsys, tmp_path, outputs, header):
        code, err = self.evaluate(capsys, tmp_path, outputs, header)
        assert code == 0, err

    @pytest.mark.parametrize(
        "inputs, reason",
        [
            ('"x"', "inputs: must be an object"),
            ("[]", "inputs: must be an object"),
            ("5", "inputs: must be an object"),
            ('{"weights": 5}', "inputs['weights']: must be a string"),
        ],
        ids=["string", "list", "number", "non-string-weights"],
    )
    def test_recorded_inputs_must_be_an_object_of_strings(
        self, capsys, tmp_path, outputs, inputs, reason
    ):
        header = f'{{"provenance": {{"inputs": {inputs}}}}}'
        code, err = self.evaluate(capsys, tmp_path, outputs, header)
        assert code == 2
        assert err == f"error: <scores> line 1.provenance.{reason}\n"


class TestClassifyChecksCalibration:
    """classify rejects resources other than those weights.meta.json, beside
    --weights, records that calibrate read."""

    @staticmethod
    def weights_dir(tmp_path, outputs, meta=True):
        """A copy of the shared weights.json, and of weights.meta.json if meta."""
        where = tmp_path / "weights"
        where.mkdir()
        for name in ("weights.json", "weights.meta.json")[: 1 + meta]:
            shutil.copyfile(outputs / name, where / name)
        return where

    @staticmethod
    def other_gazetteer(tmp_path):
        path = tmp_path / "gazetteer.txt"
        path.write_text(fixtures.fixture_path("gazetteer.txt").read_text() + "unobtainium\n")
        return path

    def classify(self, capsys, outputs, out, weights, *edits):
        argv = replace_flag(command_argv("classify", outputs, out), "weights", weights)
        for flag, value in edits:
            argv = replace_flag(argv, flag, value)
        return run(capsys, *argv)

    def test_other_resource_is_a_data_error(self, capsys, tmp_path, outputs):
        where = self.weights_dir(tmp_path, outputs)
        gazetteer = self.other_gazetteer(tmp_path)
        out = tmp_path / "out"
        code, _, err = self.classify(
            capsys, outputs, out, where / "weights.json", ("gazetteer", gazetteer)
        )
        assert code == 2
        assert f"{where / 'weights.meta.json'} records gazetteer of sha256" in err
        assert f"but --gazetteer {gazetteer} has sha256" in err
        assert not out.exists()

    def test_resource_not_given_is_a_data_error(self, capsys, tmp_path, outputs):
        where = self.weights_dir(tmp_path, outputs)
        argv = command_argv("classify", outputs, tmp_path / "out")
        argv = replace_flag(argv, "weights", where / "weights.json")
        i = argv.index("--synsets")
        code, _, err = run(capsys, *argv[:i], *argv[i + 2 :])
        assert code == 2
        assert f"{where / 'weights.meta.json'} records synsets of sha256" in err
        assert "but no --synsets was given" in err

    def test_resource_not_recorded_is_a_data_error(self, capsys, tmp_path, outputs):
        where = self.weights_dir(tmp_path, outputs)
        meta = json.loads((where / "weights.meta.json").read_text())
        del meta["inputs"]["embeddings"]
        (where / "weights.meta.json").write_text(json.dumps(meta))
        code, _, err = self.classify(capsys, outputs, tmp_path / "out", where / "weights.json")
        assert code == 2
        assert "records embeddings of sha256 (none), but --embeddings " in err

    def test_other_corpus_is_not_compared(self, capsys, tmp_path, outputs):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        (corpus / "M001.json").unlink()
        where = self.weights_dir(tmp_path, outputs)
        code, _, err = self.classify(
            capsys, outputs, tmp_path / "out", where / "weights.json", ("corpus", corpus)
        )
        assert code == 0, err

    def test_no_meta_file_nothing_checked(self, capsys, tmp_path, outputs):
        where = self.weights_dir(tmp_path, outputs, meta=False)
        gazetteer = self.other_gazetteer(tmp_path)
        code, _, err = self.classify(
            capsys, outputs, tmp_path / "out", where / "weights.json", ("gazetteer", gazetteer)
        )
        assert code == 0, err

    def test_meta_file_of_another_table_is_not_used(self, capsys, tmp_path, outputs):
        """A table copied under another name beside another calibration's meta
        file is used with the resources it was calibrated on."""
        ontology = ["--ontology", str(fixtures.fixture_path("ontology.txt"))]
        own = tmp_path / "own"
        code, _, err = run(
            capsys, "calibrate", "--corpus", str(MINI_CORPUS), "--out", str(own), *ontology
        )
        assert code == 0, err
        where = self.weights_dir(tmp_path, outputs)
        shutil.copyfile(own / "weights.json", where / "old.json")
        code, _, err = run(
            capsys, "classify", "--corpus", str(MINI_CORPUS), "--weights",
            str(where / "old.json"), "--out", str(tmp_path / "out"), *ontology,
        )
        assert code == 0, err

    def test_meta_file_is_read_but_not_recorded(self, capsys, tmp_path, outputs):
        where = self.weights_dir(tmp_path, outputs)
        out = tmp_path / "out"
        code, _, err = self.classify(capsys, outputs, out, where / "weights.json")
        assert code == 0, err
        assert (out / "scores.jsonl").read_bytes() == (outputs / "scores.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [("{", "malformed JSON"), ('{"inputs": {"ontology": 5}}', "must be a string"),
         ("{}", "missing field 'inputs'"), ('{"inputs": {}}', "missing field 'weights'")],
    )
    def test_bad_meta_file_is_a_data_error(self, capsys, tmp_path, outputs, text, message):
        where = self.weights_dir(tmp_path, outputs)
        (where / "weights.meta.json").write_text(text)
        code, _, err = self.classify(capsys, outputs, tmp_path / "out", where / "weights.json")
        assert code == 2
        assert f"{where / 'weights.meta.json'}: " in err and message in err


# Block 0 of M001 parses "No further treatment was applied.", a filler: no
# figure reference in its paragraph, so it is neither a reference nor a
# candidate. A bad parse there must still reject the corpus.
# name: (old text, new text, what the error names)
FILLER_CORRUPTIONS = {
    "form-mismatch": ("\ttreatment\ttreatment\t", "\ttreatmnt\ttreatment\t", "sentence 0"),
    "two-roots": ("1\tNo\tno\tDET\t_\t_\t3\t", "1\tNo\tno\tDET\t_\t_\t0\t", "sentence 0"),
    "self-head": ("1\tNo\tno\tDET\t_\t_\t3\t", "1\tNo\tno\tDET\t_\t_\t1\t", "sentence 0"),
    "head-cycle": (
        "3\ttreatment\ttreatment\tNOUN\t_\t_\t5\t", "3\ttreatment\ttreatment\tNOUN\t_\t_\t1\t",
        "sentence 0",
    ),
    "repeated-id": ("2\tfurther\t", "1\tfurther\t", "CoNLL-U line 2: token id 1 at position 2"),
    "swapped-ids": (
        "1\tNo\tno\tDET\t_\t_\t3\tdet\t_\t_\n2\tfurther",
        "2\tNo\tno\tDET\t_\t_\t3\tdet\t_\t_\n1\tfurther",
        "CoNLL-U line 1: token id 2 at position 1",
    ),
}


class TestParseChecksGuardEveryCommand:
    @pytest.fixture(params=sorted(FILLER_CORRUPTIONS))
    def bad_corpus(self, request, tmp_path):
        old, new, named = FILLER_CORRUPTIONS[request.param]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "M001.json").write_text((MINI_CORPUS / "M001.json").read_text())
        blocks = (MINI_CORPUS / "M001.conllu").read_text().split("\n\n")
        assert old in blocks[0]
        blocks[0] = blocks[0].replace(old, new)
        (corpus / "M001.conllu").write_text("\n\n".join(blocks))
        return corpus, named

    @pytest.mark.parametrize("command", ["detect", "calibrate", "classify"])
    def test_bad_filler_parse_is_a_data_error(
        self, capsys, tmp_path, outputs, bad_corpus, command
    ):
        extra = {
            "detect": [],
            "calibrate": resource_args(),
            "classify": ["--weights", str(outputs / "weights.json"), *resource_args()],
        }[command]
        corpus, named = bad_corpus
        code, _, err = run(
            capsys,
            command,
            "--corpus",
            str(corpus),
            "--out",
            str(tmp_path / "out"),
            *extra,
        )
        assert code == 2
        assert named in err

    def test_tokens_read_by_name(self):
        article = next(iter(pipeline.load_corpus_dir(MINI_CORPUS)))
        assert article.uid == "M001"
        parse = article.sentences()[0].parse
        tok = parse.tokens[2]
        assert (tok.index, tok.form, tok.head) == (3, "treatment", 5)
        assert [t.index for t in parse.tokens if t.head == 0] == [5]
        assert tok == Token(3, "treatment", "treatment", "NOUN", 5, "nsubjpass")


CORPUS_COMMANDS = ["detect", "calibrate", "classify"]


def corpus_argv(command: str, outputs: Path, corpus: Path, out: Path) -> list[str]:
    """Arguments of a run of command over corpus, with the shared outputs' weights."""
    return replace_flag(command_argv(command, outputs, out), "corpus", corpus)


class TestStreamedCorpus:
    """The corpus commands hold one article at a time, with the old order and errors."""

    # The hooks of the next two tests run in the process that loads the
    # articles, a forked child once the corpus is split. They append a line
    # per event to a file, which every process shares.

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_no_article_outlives_the_next_load(
        self, capsys, tmp_path, outputs, monkeypatch, command
    ):
        loaded = tmp_path / "loaded"  # a line per article loaded, with or without its parses
        alive = tmp_path / "alive"  # how many of them are alive as each article file loads
        refs = []  # this process's weak references to the articles it loaded

        def tracked(fn, check):
            def wrapper(*args):
                if check:
                    append(alive, sum(ref() is not None for ref in refs))
                article = fn(*args)
                refs.append(weakref.ref(article))
                append(loaded, article.uid)
                return article

            return wrapper

        monkeypatch.setattr(
            pipeline, "load_article_json", tracked(pipeline.load_article_json, True)
        )
        monkeypatch.setattr(pipeline, "attach_parses", tracked(pipeline.attach_parses, False))
        for parts in (1, 2, 3):
            loaded.write_text("")
            alive.write_text("")
            with split_into(parts):
                code, _, err = run(capsys, *command_argv(command, outputs, tmp_path / "out"))
            assert code == 0, err
            assert alive.read_text().split() == ["0"] * 20, parts
            assert len(loaded.read_text().split()) == 40, parts
            assert no_child_left()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_no_detection_outlives_the_next_load(
        self, capsys, tmp_path, outputs, monkeypatch, command
    ):
        built = tmp_path / "built"  # a line per ArticleDetection the command builds
        alive = tmp_path / "alive"  # how many of them are alive as each article file loads
        refs = []  # this process's weak references to the detections it built
        detect_article, load_article_json = pipeline.detect_article, pipeline.load_article_json

        def detect(*args):
            detection = detect_article(*args)
            refs.append(weakref.ref(detection))
            append(built, detection.uid)
            return detection

        def load(*args):
            append(alive, sum(ref() is not None for ref in refs))
            return load_article_json(*args)

        monkeypatch.setattr(pipeline, "detect_article", detect)
        monkeypatch.setattr(pipeline, "load_article_json", load)
        for parts in (1, 2, 3):
            built.write_text("")
            alive.write_text("")
            with split_into(parts):
                code, _, err = run(capsys, *command_argv(command, outputs, tmp_path / "out"))
            assert code == 0, err
            assert alive.read_text().split() == ["0"] * 20, parts
            assert len(built.read_text().split()) == 20, parts
            assert no_child_left()

    @pytest.mark.parametrize(
        "command, written",
        [("calibrate", ["weights.json", "weights.meta.json"]), ("classify", ["scores.jsonl"])],
    )
    def test_references_come_only_from_detect_article(
        self, capsys, tmp_path, outputs, monkeypatch, command, written
    ):
        """Neither command searches or scans a sentence outside detect_article."""

        def refuse(*args):
            raise AssertionError("a second way of finding a figure reference")

        for owner in (figref, pipeline):
            monkeypatch.setattr(owner, "is_figure_referring", refuse)
            monkeypatch.setattr(owner, "detect_figure_refs", refuse)
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out))
        assert code == 0, err
        for name in written:
            assert (out / name).read_bytes() == (outputs / name).read_bytes(), name

    @staticmethod
    def corpus(path: Path, files: dict[str, tuple[str, str]], parsed: set[str]) -> Path:
        """Mini corpus articles under new names and uids: file stem -> (source, uid).

        The sources named in parsed keep their .conllu sidecars.
        """
        path.mkdir()
        for stem, (source, uid) in files.items():
            doc = json.loads((MINI_CORPUS / f"{source}.json").read_text())
            doc["uid"] = uid
            (path / f"{stem}.json").write_text(json.dumps(doc))
            if source in parsed:
                shutil.copy(MINI_CORPUS / f"{source}.conllu", path / f"{stem}.conllu")
        return path

    @pytest.mark.parametrize(
        "parsed", [{"M001", "M002"}, {"M001"}, set()], ids=["parsed", "one-parsed", "unparsed"]
    )
    def test_outputs_in_uid_order_not_file_name_order(self, capsys, tmp_path, outputs, parsed):
        """a.json holds uid Z and b.json uid A: the same outputs as with the names swapped."""
        weights = str(outputs / "weights.json")
        written = {}
        for name, files in [
            ("swapped", {"a": ("M001", "Z"), "b": ("M002", "A")}),
            ("in-order", {"a": ("M002", "A"), "b": ("M001", "Z")}),
        ]:
            corpus = str(self.corpus(tmp_path / name, files, parsed))
            out = tmp_path / f"out-{name}"
            chain = [
                ["detect", "--corpus", corpus],
                ["classify", "--corpus", corpus, "--weights", weights, *resource_args()],
            ]
            if parsed:  # calibration needs at least one parsed reference sentence
                chain.append(["calibrate", "--corpus", corpus, *resource_args()])
            for argv in chain:
                code, _, err = run(capsys, *argv, "--out", str(out))
                assert code == 0, err
            written[name] = {
                "detect": (out / "detect.jsonl").read_text().splitlines()[1:],
                "scores": (out / "scores.jsonl").read_text().splitlines()[1:],
                "weights": parsed and (out / "weights.json").read_bytes(),
            }
        assert written["swapped"] == written["in-order"]
        for records in (written["swapped"]["detect"], written["swapped"]["scores"]):
            uids = [json.loads(line)["uid"] for line in records]
            assert uids == sorted(uids) and {"A", "Z"} <= set(uids)

    def test_calibrate_without_parses_says_so(self, capsys, tmp_path):
        corpus = self.corpus(tmp_path / "corpus", {"a": ("M001", "A"), "b": ("M002", "B")}, set())
        out = tmp_path / "out"
        argv = ["calibrate", "--corpus", str(corpus), *resource_args(), "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == (
            "error: none of the 6 reference representations holds an element"
            " (do the reference sentences have parses?)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_bad_block_in_the_last_file(self, capsys, tmp_path, outputs, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        sidecar = corpus / "M020.conllu"
        text = sidecar.read_text()
        assert "\tauthors\tauthor\t" in text.split("\n\n")[0]
        sidecar.write_text(text.replace("\tauthors\tauthor\t", "\tauthrs\tauthor\t", 1))
        out = tmp_path / "out"
        code, _, err = run(capsys, *corpus_argv(command, outputs, corpus, out))
        assert code == 2
        assert err == "error: M020.conllu: sentence 0: token forms do not match sentence text\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_repeated_uid_in_the_last_file(self, capsys, tmp_path, outputs, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        shutil.copy(corpus / "M001.json", corpus / "zz.json")
        out = tmp_path / "out"
        code, _, err = run(capsys, *corpus_argv(command, outputs, corpus, out))
        assert code == 2
        assert err == "error: uid: duplicate article uid 'M001' in M001.json and zz.json\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_malformed_article_leaves_no_out(self, capsys, tmp_path, outputs, command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.json").write_text('{"uid": "A", ')
        out = tmp_path / "out"
        code, _, err = run(capsys, *corpus_argv(command, outputs, corpus, out))
        assert code == 2
        assert "a.json: article: malformed JSON" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_unlistable_corpus_directory_exits_1(
        self, capsys, tmp_path, outputs, monkeypatch, command
    ):
        """The listing fails as if the directory were unreadable, which root ignores."""
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        scandir = os.scandir

        def refuse(path="."):
            if Path(path) == corpus:
                raise PermissionError(13, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse)
        out = tmp_path / "out"
        code, _, err = run(capsys, *corpus_argv(command, outputs, corpus, out))
        assert code == 1
        assert err == f"error: cannot read --corpus directory {corpus}: Permission denied\n"
        assert not out.exists()

    def test_classify_reads_weights_before_the_corpus(self, capsys, tmp_path, outputs):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.json").write_text('{"uid": "A", ')
        ghost = tmp_path / "ghost.json"
        out = tmp_path / "out"
        argv = replace_flag(corpus_argv("classify", outputs, corpus, out), "weights", ghost)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: cannot read --weights file {ghost}: No such file or directory\n"
        assert not out.exists()


class TestCorpusReadOnce:
    @pytest.mark.parametrize(
        "command, header_file",
        [
            ("detect", "detect.jsonl"),
            ("calibrate", "weights.meta.json"),
            ("classify", "scores.jsonl"),
        ],
    )
    def test_each_corpus_file_opened_once_and_hashed(
        self, capsys, tmp_path, outputs, monkeypatch, command, header_file
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        (corpus / "Z999.conllu").write_text("# a sidecar no article claims\n")
        opened = tmp_path / "opened"  # a line per corpus file read, by whichever process
        read_bytes = pipeline._read_bytes

        def counting_read_bytes(*path):
            full = Path(os.path.join(*path))
            if full.parent == corpus:
                append(opened, full.name)
            return read_bytes(*path)

        monkeypatch.setattr(pipeline, "_read_bytes", counting_read_bytes)
        extra = {
            "detect": [],
            "calibrate": resource_args(),
            "classify": ["--weights", str(outputs / "weights.json"), *resource_args()],
        }[command]
        names = pipeline.corpus_files(corpus)
        assert "Z999.conllu" in names and "gold.jsonl" not in names
        for parts in (1, 2, 3):
            opened.write_text("")
            out = tmp_path / f"out{parts}"
            argv = [command, "--corpus", str(corpus), "--out", str(out), *extra]
            with split_into(parts):
                code, _, err = run(capsys, *argv)
            assert code == 0, err
            assert no_child_left()
            assert Counter(opened.read_text().split()) == {name: 1 for name in names}, parts
            text = (out / header_file).read_text()
            header = json.loads(text.splitlines()[0] if header_file.endswith(".jsonl") else text)
            if "provenance" in header:
                header = header["provenance"]
            hashes = {k: v for k, v in header["inputs"].items() if k.startswith("corpus/")}
            assert hashes == {
                f"corpus/{name}": hashlib.sha256((corpus / name).read_bytes()).hexdigest()
                for name in names
            }, parts

    @pytest.mark.parametrize("command, flag", NON_CORPUS_INPUTS)
    def test_each_other_input_opened_once_and_hashed(
        self, capsys, tmp_path, outputs, monkeypatch, command, flag
    ):
        argv = command_argv(command, outputs, tmp_path / "out")
        source = Path(argv[argv.index(f"--{flag}") + 1])
        copy = tmp_path / "input" / source.name
        copy.parent.mkdir()
        copy.write_bytes(source.read_bytes())
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == copy:
                opened[copy] += 1
            return real_open(file, *args, **kwargs)

        # Path.read_bytes and read_text open through io.open, plain open() through builtins.
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        code, _, err = run(capsys, *replace_flag(argv, flag, copy))
        monkeypatch.undo()
        assert code == 0, err
        assert opened[copy] == 1
        inputs = header_of(command, tmp_path / "out")["inputs"]
        if flag == "concept-metrics":
            assert flag not in inputs  # shown side by side, not an input of the report
        else:
            assert inputs[flag] == hashlib.sha256(copy.read_bytes()).hexdigest()


class TestMissingInputs:
    """An input file that cannot be read is a usage error naming the flag and path."""

    @pytest.mark.parametrize("command, flag", NON_CORPUS_INPUTS)
    def test_missing_input_file(self, capsys, tmp_path, outputs, command, flag):
        out = tmp_path / "out"
        ghost = tmp_path / "ghost"
        argv = replace_flag(command_argv(command, outputs, out), flag, ghost)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"error: cannot read --{flag} file {ghost}: No such file or directory" in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_missing_config_file(self, capsys, tmp_path):
        ghost = tmp_path / "ghost.json"
        code, _, err = run(
            capsys, "detect", "--corpus", str(MINI_CORPUS), "--out", str(tmp_path),
            "--config", str(ghost),
        )
        assert code == 1
        assert f"cannot read --config file {ghost}" in err

    def test_input_that_is_a_directory(self, capsys, tmp_path, outputs):
        argv = command_argv("classify", outputs, tmp_path / "out")
        argv = replace_flag(argv, "weights", tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"cannot read --weights file {tmp_path}: Is a directory" in err


class TestDeepJson:
    """JSON nested deeper than the decoder goes is bad data, never an internal error."""

    LISTS = "[" * 100_000 + "]" * 100_000
    OBJECTS = '{"a":' * 100_000 + "{}" + "}" * 100_000

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_article_nested_too_deeply_exits_2(self, capsys, tmp_path, outputs, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_CORPUS, corpus)
        (corpus / "M007.json").write_text('{"uid": "M007", "body": ' + self.LISTS + "}")
        out = tmp_path / "out"
        for parts in (1, 2, 3):
            with split_into(parts):
                code, _, err = run(capsys, *corpus_argv(command, outputs, corpus, out))
            assert (code, err) == (2, "error: M007.json: article: JSON nested too deeply\n"), parts
            assert not out.exists()
            assert no_child_left()

    @pytest.mark.parametrize("command", ["detect", "classify", "baseline"])
    def test_config_nested_too_deeply_exits_1(self, capsys, tmp_path, outputs, command):
        config = tmp_path / "config.json"
        config.write_text(self.OBJECTS)
        out = tmp_path / "out"
        code, _, err = run(capsys, *command_argv(command, outputs, out), "--config", str(config))
        assert (code, err) == (1, f"error: config file {config}: JSON nested too deeply\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["weights", "scores", "gold"])
    def test_evaluate_input_nested_too_deeply_exits_2(self, capsys, tmp_path, outputs, flag):
        bad = tmp_path / "bad.json"
        bad.write_text(self.LISTS)
        argv = replace_flag(command_argv("evaluate", outputs, tmp_path / "out"), flag, bad)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "JSON nested too deeply" in err


class TestBaselineInputs:
    """Each bad baseline input is a usage error (1) or a data error (2)."""

    def baseline(self, capsys, tmp_path, labeled, *extra):
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "baseline", "--labeled", str(labeled), "--out", str(out), *extra
        )
        assert not (out / "baseline.json").exists()
        return code, err

    @pytest.mark.parametrize(
        "data, code, reason",
        [
            (b'{"text": "caf\xe9", "label": 1}\n', 2, "not UTF-8 at byte offset 13"),
            (b'{"text": "a", "label": 1}\n5\n', 2, "line 2: must be a JSON object"),
            (b'{"text": 5, "label": 1}\n', 2, "labeled line 1.text: must be a string"),
        ],
        ids=["non-utf8", "not-an-object", "non-string-text"],
    )
    def test_bad_labeled_file(self, capsys, tmp_path, data, code, reason):
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_bytes(data)
        got, err = self.baseline(capsys, tmp_path, labeled)
        assert got == code
        assert reason in err

    @pytest.mark.parametrize("label", ["true", "1.0"])
    def test_label_must_be_0_or_1(self, capsys, tmp_path, label):
        rows = LABELED_PATH.read_text()
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text(rows + '{"text": "Fig. 1 shows a lens.", "label": %s}\n' % label)
        got, err = self.baseline(capsys, tmp_path, labeled)
        assert got == 2
        lineno = rows.count("\n") + 1
        assert f"labeled line {lineno}.label: must be 0 or 1" in err

    def test_negative_seed(self, capsys, tmp_path):
        got, err = self.baseline(capsys, tmp_path, LABELED_PATH, "--seed", "-1")
        assert got == 1
        assert "seed must be non-negative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_too_few_folds(self, capsys, tmp_path, folds):
        got, err = self.baseline(capsys, tmp_path, LABELED_PATH, "--folds", folds)
        assert got == 1
        assert f"fold count {folds} invalid" in err
        assert not (tmp_path / "out").exists()

    def test_more_folds_than_rows(self, capsys, tmp_path):
        got, err = self.baseline(capsys, tmp_path, LABELED_PATH, "--folds", "500")
        assert got == 2
        assert f"--labeled {LABELED_PATH} has 200 rows, fewer than --folds 500" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, extra, folds",
        [(0, (), 10), (0, ("--folds", "2"), 2), (3, (), 10)],
        ids=["empty", "empty-2-folds", "3-rows-default-folds"],
    )
    def test_fewer_rows_than_folds_is_bad_data(self, capsys, tmp_path, rows, extra, folds):
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text("".join(LABELED_PATH.read_text().splitlines(keepends=True)[:rows]))
        got, err = self.baseline(capsys, tmp_path, labeled, *extra)
        assert got == 2
        assert f"--labeled {labeled} has {rows} rows, fewer than --folds {folds}" in err
        assert not (tmp_path / "out").exists()

    def test_as_many_folds_as_rows_runs(self, capsys, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text("".join(LABELED_PATH.read_text().splitlines(keepends=True)[:3]))
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "baseline", "--labeled", str(labeled), "--folds", "3", "--out", str(out)
        )
        assert code == 0
        assert len(json.loads((out / "baseline.json").read_text())["report"]["folds"]) == 3

    def test_missing_labeled_file(self, capsys, tmp_path):
        got, err = self.baseline(capsys, tmp_path, tmp_path / "ghost.jsonl")
        assert got == 1
        assert "cannot read --labeled file" in err

    def test_without_numpy_is_a_config_error(self, tmp_path):
        """An interpreter without numpy: exit 1 naming the extra, and no --out."""
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None  # import numpy now fails as if it were missing\n"
            "from figdesc.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out"
        argv = ["baseline", "--labeled", str(LABELED_PATH), "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: baseline needs numpy, which is not installed: install the 'baseline'"
            " extra (pip install 'figdesc[baseline]')\n"
        )
        assert not out.exists()

    def test_missing_concept_metrics_file(self, capsys, tmp_path):
        got, err = self.baseline(
            capsys, tmp_path, LABELED_PATH, "--concept-metrics", str(tmp_path / "ghost")
        )
        assert got == 1
        assert "cannot read --concept-metrics file" in err

    @pytest.mark.parametrize(
        "text, reason",
        [("{bad", "malformed JSON"), ("[1,2]", "must be a JSON object")],
        ids=["malformed", "not-an-object"],
    )
    def test_bad_concept_metrics_file(self, capsys, tmp_path, text, reason):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(text)
        got, err = self.baseline(
            capsys, tmp_path, LABELED_PATH, "--concept-metrics", str(metrics)
        )
        assert got == 2
        assert reason in err

    @pytest.mark.parametrize("value", ["5", "[]", '"x"', "null"])
    def test_concept_metrics_must_be_an_object(self, capsys, tmp_path, value):
        metrics = tmp_path / "metrics.json"
        metrics.write_text('{"metrics": %s}' % value)
        got, err = self.baseline(
            capsys, tmp_path, LABELED_PATH, "--concept-metrics", str(metrics)
        )
        assert got == 2
        assert f"{metrics}: concept metrics.metrics: must be an object" in err

    def test_concept_metrics_without_a_metrics_key_are_copied_whole(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text('{"f1": 0.5, "note": "by hand"}')
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "baseline", "--labeled", str(LABELED_PATH), "--folds", "2",
            "--concept-metrics", str(metrics), "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "baseline.json").read_text())["report"]
        assert report["concept_model"] == {"f1": 0.5, "note": "by hand"}


class TestImportBudget:
    """Only baseline loads numpy or the baseline module, and no command loads
    numpy.random or OpenSSL's hashing, or XML and logging where it reads none."""

    PROBE = (
        "import json, sys\n"
        "import figdesc, figdesc.corpus, figdesc.cli\n"
        "code = figdesc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "print(code, *(name in sys.modules for name in ('numpy', 'figdesc.baseline')))\n"
    )
    def probe(self, argv: list[str]) -> tuple[str, set[str]]:
        """The last probe line of a fresh run of argv, and the modules it loaded."""
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], env=env, capture_output=True,
            text=True, check=True,
        )
        *_, modules, last = done.stdout.splitlines()
        return last, set(json.loads(modules))

    def loaded(self, argv: list[str]) -> str:
        """'<exit code> <numpy loaded> <figdesc.baseline loaded>' of a fresh run of argv."""
        return self.probe(argv)[0]

    def test_importing_the_package_loads_no_hashlib_xml_or_logging(self):
        _, modules = self.probe([])
        assert {"hashlib", "_hashlib", "xml.etree", "logging"} & modules == set()

    def test_detect_on_a_json_corpus(self, tmp_path, outputs):
        last, modules = self.probe(command_argv("detect", outputs, tmp_path))
        assert last == "0 False False"
        assert {"_hashlib", "hashlib", "xml.etree.ElementTree", "logging"} & modules == set()

    @pytest.mark.parametrize("command", ["calibrate", "classify"])
    def test_numpy_commands_load_no_openssl_hashing(self, tmp_path, outputs, command):
        """The commands that read an embeddings store load no OpenSSL hashing or
        logging; test_light_commands checks that they load no numpy either."""
        argv = command_argv(command, outputs, tmp_path)
        assert "--embeddings" in argv
        _, modules = self.probe(argv)
        assert {"_hashlib", "hashlib", "logging"} & modules == set()

    def test_importing_the_package(self):
        assert self.loaded([]) == "0 False False"

    @pytest.mark.parametrize("command", ["detect", "evaluate", "calibrate", "classify"])
    def test_light_commands(self, tmp_path, outputs, command):
        argv = command_argv(command, outputs, tmp_path)
        assert command in ("detect", "evaluate") or "--embeddings" in argv
        assert self.loaded(argv) == "0 False False"

    def test_calibrate_without_embeddings(self, tmp_path, outputs):
        argv = command_argv("calibrate", outputs, tmp_path)
        i = argv.index("--embeddings")
        assert self.loaded(argv[:i] + argv[i + 2 :]) == "0 False False"

    @pytest.mark.parametrize("command, loaded", [("baseline", "0 True True")])
    def test_commands_that_need_numpy(self, tmp_path, outputs, command, loaded):
        """They load numpy but not numpy.random, whose import of secrets loads
        hashlib and OpenSSL's libcrypto."""
        last, modules = self.probe(command_argv(command, outputs, tmp_path))
        assert last == loaded
        assert {"numpy.random", "secrets", "hashlib", "_hashlib"} & modules == set()

    @pytest.mark.parametrize("command", [None, *CORPUS_COMMANDS, "evaluate", "baseline"])
    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path, outputs, command):
        """The records are NamedTuples and slotted classes, which load nothing.
        numpy itself loads inspect, ast and dis, so baseline is held to dataclasses."""
        argv = command_argv(command, outputs, tmp_path) if command else []
        last, modules = self.probe(argv)
        assert last.startswith("0 ")
        banned = {"dataclasses"}
        if command != "baseline":
            banned |= {"inspect", "ast", "dis"}
        assert banned & modules == set()


class TestReadmeFlagTable:
    def test_readme_lists_the_flags_each_command_takes(self):
        lines = (DATA_ROOT.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| flag | detect"))
        cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[start:]]
        commands = cells[0][1:6]
        documented = {command: set() for command in commands}
        for row in cells[2:]:
            if not row[0].startswith("`--"):
                break
            for command, mark in zip(commands, row[1:6]):
                if mark:
                    documented[command].add(row[0].strip("`"))
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            command: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
            for command, p in sub.choices.items()
        }
        assert documented == accepted
        assert sum(len(flags) for flags in accepted.values()) == 37
