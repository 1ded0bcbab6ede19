"""Every span the benchmark's tracer attaches still finds its target.

`perfbench/spans.py` skips a target the package no longer has, and that
layer's metrics then read 0; a rename in the package must update the tracer.
"""
import importlib.util
from pathlib import Path

import mblaser.cli  # noqa: F401  (imports every module the tracer patches)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pass
    assert tracer.missing == []
