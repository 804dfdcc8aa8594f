"""The benchmark's tracer can still wrap and restore every name it patches,
and a traced ``fpfuse eval`` still goes through every one of them.

``perfbench/spans.py`` replaces functions by name in the ``fpfuse`` modules
and ``Template.minutiae_arrays``; a rename in ``src/``, or a stage that
``cmd_eval`` stops calling through the ``fpfuse.cli`` namespace, would
otherwise only show up in a traced benchmark run.
"""

import importlib
import json
from pathlib import Path

import numpy as np

import fpfuse.losses
import fpfuse.pipeline
from fpfuse import (UNGATED, GroundTruthRecord, PipelineConfig, PredictionRecord, SynthSpec,
                    generate_corpus, write_bundle)
from fpfuse.cli import main
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


def _traced(spans, argv):
    tracer = spans.Tracer().install()
    tracer.round = 0
    try:
        assert main(argv) == 0
    finally:
        tracer.close()
    return tracer.per_layer([0], 1, 0.0)


def test_traced_eval_times_every_stage(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    corpus = tmp_path / "corpus"
    write_bundle(generate_corpus(SynthSpec(seed=7, subjects=4, impressions=3)), corpus)
    assert (corpus / "refs").is_dir()

    layers = _traced(spans, ["eval", "--corpus", str(corpus)])
    for stage in ("enumerate_pairs", "score_pairs", "apply_pipeline", "metrics",
                  "minutiae_quality"):
        assert layers[f"evaluation.{stage}_s"] > 0, stage
    gates = sum(v for k, v in layers.items() if k.startswith("pipeline.gate."))
    assert gates == 4 * 3 + 6
    # Gate-first scoring: the local matcher runs on the in-band pairs only.
    assert layers["matching.local_match_calls"] == sum(
        layers[f"pipeline.gate.local_evaluated.{c}"] for c in ("genuine", "impostor"))

    config = tmp_path / "ungated.json"
    config.write_text(json.dumps(UNGATED))
    layers = _traced(spans, ["eval", "--corpus", str(corpus), "--config", str(config)])
    assert layers["matching.local_match_s"] > 0
    assert layers["matching.local_used_ratio"] == 1.0


def test_traced_request_counts_its_gate(monkeypatch):
    """A per-pair request goes through ``infer_pair`` in the module, where the
    tracer counts its gate by the request's label."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    corpus = generate_corpus(SynthSpec(seed=7, subjects=4, impressions=3)).corpus
    sid = corpus.subject_ids[0]
    a, b = corpus.template(sid, 0), corpus.template(sid, 1)
    cfg = PipelineConfig(**UNGATED)

    tracer = spans.Tracer().install()
    tracer.round = 0
    try:
        for label in ("genuine", "impostor"):
            tracer.label = label
            fpfuse.pipeline.infer_pair_with_config(a, b, cfg)
    finally:
        tracer.close()

    layers = tracer.per_layer([0], 1, 0.0)
    assert layers["pipeline.infer_pair_calls"] == 2
    assert layers["pipeline.gate.local_evaluated.genuine"] == 1
    assert layers["pipeline.gate.local_evaluated.impostor"] == 1


def test_traced_loss_counts_one_solve_and_cost_per_layer(monkeypatch):
    """``total_loss`` builds its costs and solves through the ``fpfuse.losses``
    namespace, once per layer: the final one and five intermediates."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(5)
    L, d_m = 12, 8

    def layer():
        return (np.column_stack([rng.uniform(0, 384, (L, 2)), rng.uniform(0, 6, L)]),
                rng.normal(size=(L, d_m)))

    pred = PredictionRecord(rng.normal(size=16), *layer(), tuple(layer() for _ in range(5)))
    gt = GroundTruthRecord(rng.normal(size=16), *layer())

    tracer = spans.Tracer().install()
    tracer.round = 0
    try:
        fpfuse.losses.total_loss(pred, gt)
    finally:
        tracer.close()

    layers = tracer.per_layer([0], 1, 0.0)
    assert layers["assignment.solve_calls.losses"] == 6
    assert layers["losses.cost_matrix_s"] > 0
