"""The shipped chains and the SHA-256 of every output byte they write.

Each chain runs in this process through cli.main: the mini-corpus chain
(detect, calibrate, classify, evaluate against its gold labels), baseline on
the shipped labelled sentences, and the benchmark's four workloads at seed 1,
scale 0.05. Each output file and each chain's stdout, with the output path
masked, is hashed; PINNED holds the digests. tests/test_pinned_outputs.py
checks every row.

This module needs only the standard library, so that the corpus chains,
which load no numpy, can be checked under any supported Python:

    python tests/pinned_chains.py

runs the corpus chains in one, two and three parts, prints each row that
differs from PINNED and exits 1 if any does.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

if __package__:
    from .helpers import LABELED_PATH, MINI_CORPUS, resource_args, split_into
else:  # run as a script
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / p) for p in ("src", ".")]
    from tests.helpers import LABELED_PATH, MINI_CORPUS, resource_args, split_into

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
WORKLOAD_NAMES = ("parsed-narrow", "parsed-wide", "detect-plain", "baseline-cv")
CORPUS_CHAINS = ("minicorpus", "parsed-narrow", "parsed-wide", "detect-plain")


def load_workloads():
    spec = importlib.util.spec_from_file_location("figdesc_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds Workload.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def chains(work: Path) -> dict[str, list[list[str]]]:
    """Each chain's argv lists by name; "{out}" stands for its output directory."""
    mini = str(MINI_CORPUS)
    weights = ["--weights", "{out}/weights.json"]
    found = {
        "minicorpus": [
            ["detect", "--corpus", mini, "--out", "{out}"],
            ["calibrate", "--corpus", mini, "--out", "{out}", *resource_args()],
            ["classify", "--corpus", mini, *weights, "--out", "{out}", *resource_args()],
            ["evaluate", "--scores", "{out}/scores.jsonl",
             "--gold", str(MINI_CORPUS / "gold.jsonl"), *weights, "--out", "{out}"],
        ],
        "baseline": [["baseline", "--labeled", str(LABELED_PATH), "--out", "{out}"]],
    }
    workloads = load_workloads()
    for name in WORKLOAD_NAMES:
        workload = workloads.generate(ROOT, name, work / "inputs" / name, seed=1, scale=0.05)
        found[name] = [argv for _, argv in workload.chain]
    return found


def run_chain(argvs: list[list[str]], out: Path) -> str:
    """Run the chain through cli.main; its stdout with out masked."""
    from figdesc import cli

    stdout = io.StringIO()
    for argv in argvs:
        argv = [a.replace("{out}", str(out)) for a in argv]
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"figdesc {' '.join(argv)} exited {code}")
    return stdout.getvalue().replace(str(out), "{out}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(work: Path, names: tuple[str, ...] | None = None) -> dict[str, str]:
    """'<chain>/<output file>' and '<chain>/stdout' to the sha256 of their bytes,
    for the chains named, or for every chain.

    FIGDESC_* variables would change settings, so they must be unset.
    """
    digests = {}
    for name, argvs in chains(work).items():
        if names is not None and name not in names:
            continue
        out = work / "out" / name
        digests[f"{name}/stdout"] = sha256(run_chain(argvs, out).encode())
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digests[f"{name}/{path.relative_to(out).as_posix()}"] = sha256(path.read_bytes())
    return dict(sorted(digests.items()))


def no_settings_from_env():
    """FIGDESC_* variables would change settings, so the block runs without them."""
    kept = {k: v for k, v in os.environ.items() if not k.startswith("FIGDESC_")}
    return mock.patch.dict(os.environ, kept, clear=True)


# Pinned under Python 3.11.7, numpy 2.4.6.
PINNED = {
    "baseline-cv/baseline.json": "67f3115e70cd3219f3c0add81c8d9938627e2f647e09b937d2615a24faea2eba",
    "baseline-cv/stdout": "af69994ac5bd6dcb6201bbf4e0272960cea548139f4055065e8f7dff0b9db69c",
    "baseline/baseline.json": "9e4557d97796e7004519dfb7d29641b6b69bd5ade816dc3efe90e67384b867f6",
    "baseline/stdout": "6f31c2564cf308403ea92341061e67beb05e98b435c7d64b287c891ef5044b2a",
    "detect-plain/detect.jsonl": "6ebd8d7c2e8c3373f44ba35060fda2ce05bf116bf122b9d9eebc1de44648ec70",
    "detect-plain/stdout": "bde1fa2c95a280fab6ba3866d64ac8d0d81f5c2855d694bdff3f0b77e7a095f0",
    "minicorpus/detect.jsonl": "fb06aa6aa5bec4964b5e684945746c7e92ef75a624930b4e6da71a61bbcada51",
    "minicorpus/metrics.json": "53763be00d45fd14a2dea6a0bb185fe8b68c4757b7bed8b3f9b91ff5ab9c2ea8",
    "minicorpus/scores.jsonl": "34f2d503d09e3ed1a41cd99a6c9bd2275967c2e2cefdb982811dd37c407647fd",
    "minicorpus/stdout": "2f380af5a593d95d2d956919b739310b16df6c27c3d18ac02cc8f6c9119cf8b1",
    "minicorpus/sweep.meta.json": "b4b845876382f260353fed35ad3389f5ffd6a6d8fe715e9a15c7be7c719b46c8",
    "minicorpus/sweep.tsv": "d7d9ae460314c8b4f07aae32c9e07516dab3cbb1aa5f6768a62855c9eaf43419",
    "minicorpus/weights.json": "b2f3c7d8ac0571a900f543eccc56becf268904b207513d82f4eda8b0945d08ed",
    "minicorpus/weights.meta.json": "242ddd451ad824e5d511c2f273f1e114cae97e69f044a5616aad4266f63cc4b5",
    "parsed-narrow/detect.jsonl": "d7caae3c5b75bd7d50f09321e71458e5d9cd41c40e1e14f7730e28ce2c0da30d",
    "parsed-narrow/metrics.json": "593e7ac1edf27512ae721b1d7d79f96ee0cf87894de4ec91549018413306b83f",
    "parsed-narrow/scores.jsonl": "33b27acd83a750a013eae07c678c8c8779c3ddda0c1f14d8c3d5ab4af0f016dc",
    "parsed-narrow/stdout": "a559621ff175ca19152ccc05741eb6456d0b6fb6c656bab370d3485ad05d220d",
    "parsed-narrow/sweep.meta.json": "c24c54f038e49999fa29e65f002372c7efcf75dc8705e08fbe365906973acd5a",
    "parsed-narrow/sweep.tsv": "5d0ed64e80b3472f25dfaad02c0dec6343e4b5ea0fd6b280de448695c8326ba6",
    "parsed-narrow/weights.json": "c5aec69e91ee7972339eea47b0f800a6bef9466f451e95a744929a3f150c15d2",
    "parsed-narrow/weights.meta.json": "86603a59a034313c2d4cea27a07718dababa1703624a9719e63c148568b654dd",
    "parsed-wide/detect.jsonl": "8b77262657de738b5bd9282eff8636d2c403e4646395140cfcd2e44a78c045b3",
    "parsed-wide/metrics.json": "a7163a49fe064e35bfdba4b62a176a6fac7829099da9be7291336251dfd7eb54",
    "parsed-wide/scores.jsonl": "0bb8e5be919447dbcc039767445396cb24c154d296683eb9bb39ced6092cf479",
    "parsed-wide/stdout": "4abc3d6d6db8e8bde7edf666e35282b6c407e40a912cbf6b829bc04ce5f25a16",
    "parsed-wide/sweep.meta.json": "4dd6a2d890e20e9e08fd41ac5891727f0f9da5f4c4a0275d9f04932bf2dcc506",
    "parsed-wide/sweep.tsv": "f63576c824215ce446529f0234de018ce667071446fbdc6f66f531559617da0d",
    "parsed-wide/weights.json": "514b85289f384438bfa08085ed8620501e1a380207c736cda16b58be59424cbd",
    "parsed-wide/weights.meta.json": "c02ec97ed592627adf5acdb553263d638f5ff04ab8bec4f3f0d3d900c34a32d2",
}


def corpus_chain_mismatches(work: Path, parts: int) -> list[str]:
    """Each corpus-chain row that differs from PINNED, every corpus cut into parts."""
    pinned = {name: PINNED[name] for name in PINNED if name.split("/")[0] in CORPUS_CHAINS}
    with no_settings_from_env(), split_into(parts):
        found = output_digests(work, CORPUS_CHAINS)
    return [
        f"{name}: sha256 {found.get(name)}, pinned {pinned.get(name)}"
        for name in sorted(pinned.keys() | found.keys())
        if found.get(name) != pinned.get(name)
    ]


def check_corpus_chains() -> int:
    """Compare the corpus chains, in one, two and three parts, with PINNED."""
    wrong = 0
    for parts in (1, 2, 3):
        with tempfile.TemporaryDirectory() as tmp:
            mismatches = corpus_chain_mismatches(Path(tmp), parts)
        for line in mismatches:
            print(f"{parts} part(s): {line}")
        wrong += len(mismatches)
    print(f"Python {sys.version.split()[0]}: {wrong} corpus-chain rows differ in 1, 2 and 3 parts")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(check_corpus_chains())
