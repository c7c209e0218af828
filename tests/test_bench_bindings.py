"""Every name the benchmark's tracer patches still exists where it patches it.

bench/tracing.py wraps figdesc functions at their module attributes and at
each importer's binding. A name that moved or went away fails here, in well
under a second, with the names of all the missing bindings.
"""

import importlib.util
from pathlib import Path

from figdesc import pipeline

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
