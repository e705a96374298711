"""The benchmark's tracer finds every call site it wraps, except the rows known to be stale."""

import importlib.util
from pathlib import Path

from treebsde import sweep

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

# SPAN_SITES rows naming an attribute the package no longer has; a later
# benchmark change drops them, and then this list is empty
STALE = [
    "treebsde.cli.picard_solve",
    "treebsde.snell.enumerate_stop_value",
    "treebsde.game.dynkin_pair_oracle",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_misses_only_the_stale_sites():
    spans = load_spans()
    represent = sweep.represent_layer
    tracer = spans.Tracer(spans.SpanRecorder())
    try:
        tracer.install()
        assert sweep.represent_layer is not represent
    finally:
        tracer.restore()
    assert sweep.represent_layer is represent
    assert tracer.missing == STALE
