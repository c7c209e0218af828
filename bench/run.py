"""Benchmark of the figdesc command line on generated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are generated
from the seed, then its CLI chain (`python -m figdesc.cli`, run against the
checkout's src/) is repeated by one closed-loop client, each command
starting after the previous one exits, until S seconds have passed (at
least twice). Outputs are checked against the generator's ground truth and
across repetitions. Times are reported at a fixed reference speed (see
REF_NOMINAL_S); the raw wall times go into the run record.

--trace 0 reports the end-to-end metrics. --trace 1 runs the chain once as
subprocesses, for the output checks, and then alternates untraced and
traced in-process chains (`figdesc.cli.main`) to report per-layer metrics.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Work files live under
.bench_out/ in the checkout; the exit code is 1 when any check fails and 2
when the checkout has no figdesc sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
MIN_REPS = 2

# The speed of a shared host drifts by a quarter or more over tens of
# seconds, which no run length here averages away. Every timed child is
# therefore followed by a run of a fixed reference process (same
# interpreter, same kind of work: string splitting, dicts, a regex, JSON),
# and its wall time is reported at the reference's nominal speed:
# wall * REF_NOMINAL_S / median(the REF_WINDOW reference runs before it and
# the REF_WINDOW after it). The reference does not import figdesc, so no
# change to src/ moves it.
REF_NOMINAL_S = 0.1
REF_WINDOW = 5
REF_CODE = r"""
import json, re
rx = re.compile(r"\bfig\.?\s*(\d+)")
counts = {}
for i in range(12000):
    cols = f"{i}\tw{i % 700}\tlemma{i % 300}\tNOUN\t_\t_\t{i % 9}\tdep\t_\t_".split("\t")
    key = (cols[2], cols[3])
    counts[key] = counts.get(key, 0) + int(cols[6])
    rx.search(f"see fig. {i} for details")
json.loads(json.dumps(sorted((k[0], v) for k, v in counts.items())))
"""

SETUP_CODE = """
from pathlib import Path
from figdesc import pipeline
data = Path(pipeline.__file__).parent / "data"
pipeline.load_resources(
    data / "ontology.txt", data / "synsets.json",
    data / "embeddings.txt", data / "gazetteer.txt",
)
"""

END_TO_END_UNITS = {
    "chain_s": "s",
    "sentences_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "f1": "ratio",
}


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.w = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FIGDESC_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.refs: list[float] = []  # refs[i] ran just before walls[i]
        self.walls: list[float] = []

    # ---- operations ----

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what} {detail}".rstrip(), file=sys.stderr)
        return ok

    def child(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run a Python child; returns (exit code, wall seconds, max RSS MiB)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, stdout=fh, stderr=subprocess.STDOUT
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def reference(self) -> None:
        rc, wall, _ = self.child(["-c", REF_CODE], self.work / "reference.log")
        self.check("reference exit code", rc == 0, (self.work / "reference.log").read_text())
        self.refs.append(wall)

    def timed_child(self, argv: list[str], log: Path) -> tuple[int, int, float]:
        """child() followed by a reference run; returns (exit code, item, max RSS MiB)."""
        if not self.refs:
            self.reference()
        rc, wall, rss = self.child(argv, log)
        self.walls.append(wall)
        self.reference()
        return rc, len(self.walls) - 1, rss

    def at_reference_speed(self, item: int) -> float:
        """The wall time of a timed child at REF_NOMINAL_S reference speed."""
        nearest = self.refs[max(0, item + 1 - REF_WINDOW) : item + 1 + REF_WINDOW]
        return self.walls[item] * REF_NOMINAL_S / statistics.median(nearest)

    def setup_sample(self) -> int:
        rc, item, _ = self.timed_child(["-c", SETUP_CODE], self.work / "setup.log")
        self.check("setup exit code", rc == 0, (self.work / "setup.log").read_text())
        return item

    def argv_for(self, argv: list[str], out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in argv]

    def subprocess_chain(self, rep: int) -> dict:
        """One pass of the workload's CLI chain: timed items, peak RSS, output dir."""
        out = self.work / f"out{rep}"
        items, rss = {}, 0.0
        for cmd, argv in self.w.chain:
            log = self.work / f"{cmd}.log"
            rc, items[cmd], maxrss = self.timed_child(
                ["-m", "figdesc.cli", *self.argv_for(argv, out)], log
            )
            self.check(f"{cmd} exit code", rc == 0, f"got {rc}: {log.read_text()[-2000:]}")
            rss = max(rss, maxrss)
        return {"items": items, "rss": rss, "out": out}

    def inprocess_chain(self, rep: int, tracer: tracing.Tracer | None) -> tuple[float, Path]:
        from figdesc import cli

        # Keep the harness's own objects (ground truth, spans) out of the
        # collector's scans, as they would be in a CLI process.
        gc.collect()
        gc.freeze()
        out = self.work / f"{'t' if tracer else 'u'}{rep}"
        start = time.perf_counter()
        for cmd, argv in self.w.chain:
            argv = self.argv_for(argv, out)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = tracer.command(cmd, cli.main, argv) if tracer else cli.main(argv)
            self.check(f"in-process {cmd} exit code", rc == 0, sink.getvalue()[-2000:])
        return time.perf_counter() - start, out

    # ---- output checks ----

    def check_outputs(self, out: Path) -> float:
        """Check one chain's outputs against the ground truth; returns its F1."""
        try:
            return self._check_outputs(out)
        except (OSError, LookupError, TypeError, ValueError) as e:
            self.check("outputs readable", False, repr(e))
            return 0.0

    def _check_outputs(self, out: Path) -> float:
        name = self.w.name
        if name == "baseline-cv":
            return self.check_baseline(out)
        truth = self.w.truth
        refs, cands = read_detections(out / "detect.jsonl")
        self.check(
            "detect.jsonl references", refs == truth["refs"],
            f"{len(refs)} found, {len(truth['refs'])} generated",
        )
        self.check(
            "detect.jsonl candidates", cands == truth["candidates"],
            f"{len(cands)} found, {len(truth['candidates'])} generated",
        )
        if name == "detect-plain":
            return detection_f1(refs, cands, truth)
        _, scores = read_jsonl(out / "scores.jsonl")
        scored = {(r["uid"], r["global_index"]) for r in scores}
        self.check("scores.jsonl candidates", scored == truth["candidates"])
        table = json.loads((out / "weights.json").read_text())
        self.check(
            "weights.json reference count", table["counts"]["tmrs"] == len(truth["refs"])
        )
        m = json.loads((out / "metrics.json").read_text())["metrics"]
        labelled = m["tp"] + m["fp"] + m["fn"] + m["tn"]
        self.check("metrics.json gold count", labelled == len(truth["gold"]))
        self.check("metrics.json f1 in (0, 1]", 0 < m["f1"] <= 1, str(m["f1"]))
        return m["f1"]

    def check_baseline(self, out: Path) -> float:
        from figdesc import baseline

        report = json.loads((out / "baseline.json").read_text())["report"]
        k, n = self.w.truth["folds"], self.w.truth["labeled"]
        self.check("baseline.json fold count", report["k"] == k and len(report["folds"]) == k)
        sizes = [len(f) for f in baseline.kfold_split(n, k, report["seed"])]
        self.check_fold_sizes(sizes, n, k)
        self.check("baseline mean f1 in (0, 1]", 0 < report["mean"]["f1"] <= 1)
        return report["mean"]["f1"]

    def check_fold_sizes(self, sizes: list[int], n: int, k: int) -> None:
        self.check(
            "baseline fold sizes", len(sizes) == k and sum(sizes) == n
            and max(sizes) - min(sizes) <= 1, str(sizes),
        )

    def check_same_bytes(self, what: str, first: dict, out: Path) -> None:
        self.check(what, digests(out) == first, f"{out.name} differs from the first chain")


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if lines and "provenance" in lines[0]:
        return lines[0]["provenance"], lines[1:]
    return {}, lines


def read_detections(path: Path) -> tuple[set, set]:
    _, records = read_jsonl(path)
    refs = {(r["uid"], r["global_index"]) for r in records}
    cands = {(r["uid"], g) for r in records for g in r["neighbors"]}
    return refs, cands


def detection_f1(refs: set, cands: set, truth: dict) -> float:
    found = {("ref", *k) for k in refs} | {("cand", *k) for k in cands}
    gold = {("ref", *k) for k in truth["refs"]} | {("cand", *k) for k in truth["candidates"]}
    tp = len(found & gold)
    return 2 * tp / (len(found) + len(gold)) if found or gold else 0.0


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.is_file()
    }


def run_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    # Set-up samples alternate with chains so that both see the same spells
    # of a busy or quiet machine.
    setups, chains = [], []
    start = time.perf_counter()
    while len(chains) < MIN_REPS or time.perf_counter() - start < seconds:
        setups.append(bench.setup_sample())
        chains.append(bench.subprocess_chain(len(chains)))
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_sample())
    f1 = bench.check_outputs(chains[0]["out"])
    first = digests(chains[0]["out"])
    for c in chains[1:]:
        bench.check_same_bytes("outputs identical across repetitions", first, c["out"])
    times = {
        cmd: [bench.at_reference_speed(c["items"][cmd]) for c in chains]
        for cmd, _ in bench.w.chain
    }
    chain_totals = [sum(t) for t in zip(*times.values())]
    chain_s = statistics.median(chain_totals)
    metrics = {
        "chain_s": chain_s,
        "sentences_per_s": bench.w.sentences / chain_s,
        "setup_s": statistics.median(bench.at_reference_speed(i) for i in setups),
        "peak_rss_mb": statistics.median(c["rss"] for c in chains),
        "f1": f1,
    }
    extra = {f"{cmd}_s": statistics.median(t) for cmd, t in times.items()}
    extra["repetitions"] = len(chains)
    extra["samples"] = {
        "chain_s": chain_totals,
        **{f"{cmd}_s": t for cmd, t in times.items()},
        "wall_s": bench.walls,
        "reference_s": bench.refs,
    }
    return metrics, extra


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    checked = bench.subprocess_chain(0)
    bench.check_outputs(checked["out"])
    first = digests(checked["out"])
    tracer = tracing.Tracer()
    untraced, traced, per_chain = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        rep = len(traced)
        wall, _ = bench.inprocess_chain(rep, None)
        untraced.append(wall)
        tracer.begin_chain(rep)
        with tracer.installed():
            wall, out = bench.inprocess_chain(rep, tracer)
        traced.append(wall)
        bench.check_same_bytes("traced outputs identical to subprocess outputs", first, out)
        indices = tracer.chain_spans(rep)
        bench.check("spans nest inside their parents", tracer.nesting_ok(indices))
        per_chain.append(tracer.chain_metrics(rep, bench.w.sentences))
    if bench.w.name == "baseline-cv":
        for sizes in tracer.fold_sizes:
            bench.check_fold_sizes(sizes, bench.w.truth["labeled"], bench.w.truth["folds"])
    elif "scores.jsonl" in first:
        _, scores = read_jsonl(checked["out"] / "scores.jsonl")
        expected = {(r["uid"], r["global_index"]): r["weight"] for r in scores}
        bench.check("traced weights equal subprocess scores.jsonl", tracer.weights == expected)
    metrics = tracing.median_metrics(per_chain)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    tracer.write(OUT / f"trace-{bench.w.name}.jsonl")
    extra = {
        "repetitions": len(traced),
        "untraced_chain_s": statistics.median(untraced),
        "traced_chain_s": statistics.median(traced),
        "command_self_sums": {
            name: {"traced_s": total, "self_sum_s": summed}
            for name, (total, summed) in tracer.command_sums(len(traced) - 1).items()
        },
    }
    return metrics, extra


def commit_id() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": commit_id(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="input size relative to the standard workload (the smoke test uses a small one)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "figdesc" / "cli.py").is_file() or not (
        ROOT / "scripts" / "build_fixtures.py"
    ).is_file():
        print(f"error: {ROOT} holds no figdesc sources to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = time.perf_counter()
        w = workloads.generate(ROOT, args.workload, work / "inputs", args.seed, args.scale)
        generate_s = time.perf_counter() - start
        bench = Bench(w, work)
        bench.child(["-c", "import figdesc.cli"], work / "warmup.log")  # bytecode cache
        if args.trace:
            metrics, extra = run_traced(bench, args.seconds)
            units = {k: tracing.metric_unit(k) for k in metrics}
        else:
            metrics, extra = run_end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "environment": environment(args),
        "inputs": w.properties,
        "generate_s": generate_s,
        **extra,
    }
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print("run:", json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        for name in ("detect_s", "calibrate_s", "classify_s"):
            if name in extra:
                print(f"{name} {extra[name]:.6g} s")
        print(f"failed_ratio {bench.failed / bench.attempted:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
