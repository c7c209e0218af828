"""Every name the benchmark's tracer patches still exists where it patches it,
and every row its hooks read still has the fields they read.

bench/tracing.py wraps figdesc functions at their module attributes and at
each importer's binding. A name that moved or went away fails here, in well
under a second, with the names of all the missing bindings.
"""

import importlib.util
import json
from pathlib import Path

from figdesc import pipeline
from figdesc.scoring import calibrate, compute_threshold

from .helpers import MINI_CORPUS

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("figdesc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding():
    tracer = load_tracing().Tracer()
    patch = tracer._patch
    missing = []  # "<owner>.<attribute>" of each binding the tracer cannot find
    patched = []

    def checked_patch(owner, attr, name, hook=None):
        if attr not in vars(owner):
            missing.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")
            return
        patched.append((owner, attr, vars(owner)[attr]))
        patch(owner, attr, name, hook)

    tracer._patch = checked_patch
    before = pipeline.detect_article
    with tracer.installed():
        assert pipeline.detect_article is not before
    assert missing == [], f"bench/tracing.py patches bindings that are gone: {missing}"
    assert patched
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


def test_score_candidates_rows_feed_the_tracer_hook(resources):
    """The tracer's score_candidates hook reads each row's uid, index and weight:
    the weights it records are those of the records classify writes."""
    corpus = pipeline.load_corpus_dir(MINI_CORPUS)
    table = calibrate(pipeline.reference_tmrs(corpus, resources))
    threshold = compute_threshold(table.mean_ref_weight, 0.5)
    rows = pipeline.score_candidates(corpus, resources, table, threshold, 2)
    tracer = load_tracing().Tracer()
    tracer._on_score_candidates((corpus, resources, table, threshold, 2), rows)
    records = [json.loads(row.line) for row in rows]
    assert len(records) == 40
    assert tracer.weights == {(r["uid"], r["global_index"]): r["weight"] for r in records}
