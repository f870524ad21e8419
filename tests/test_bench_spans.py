"""The benchmark's span tracer patches functions by name: every target in
``bench/spans.py`` must still exist where the tracer looks it up, so a
renamed or removed function fails here rather than only in a traced
benchmark run. Nothing is patched."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("edgesim_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_span_target_resolves(spans):
    targets = spans._targets()
    assert targets
    for owner, attr, span, _merge, counter in targets:
        # Tracer.installed reads the attribute from the owner's own namespace
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} is gone"
        assert span in spans.SPANS
        assert counter is None or counter[0] in spans.COUNTERS
