"""The benchmark's span tracer names library entry points by string.

``benchmarks/spans.py`` wraps each ``(layer, attribute, class)`` it lists
with ``getattr`` at run time, so renaming one of them would only surface as
a failed ``--trace 1`` run.  This test resolves every entry on the
installed package instead.
"""

import importlib.util
from pathlib import Path

import steinitz

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    spans = _load_spans()
    for layer, attr, cls_name, _ in spans.ENTRY_POINTS:
        owner = getattr(steinitz, layer)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (layer, cls_name, attr)
            assert (cls_name, attr) in spans.SPAN_NAMES, (cls_name, attr)
        assert callable(getattr(owner, attr)), (layer, cls_name, attr)
