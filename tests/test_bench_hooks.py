"""The benchmark's tracer can still wrap and restore every name it patches.

``perfbench/spans.py`` replaces functions by name in the ``fpfuse`` modules
and ``Template.minutiae_arrays``; a rename in ``src/`` would otherwise only
show up in a traced benchmark run.
"""

import importlib
from pathlib import Path

from fpfuse.templates import Template

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    targets = [(module, attr) for _, attr, modules in spans._WRAPPED for module in modules]
    originals = [getattr(module, attr) for module, attr in targets]
    original_arrays = Template.minutiae_arrays

    tracer = spans.Tracer().install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        assert Template.minutiae_arrays.__wrapped__ is original_arrays
    finally:
        tracer.close()

    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert Template.minutiae_arrays is original_arrays
