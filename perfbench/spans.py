"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``fpfuse`` modules from outside:
it replaces the name in every module namespace that looks it up at call
time, records one span per call (name, start, end, parent span, round) in
compact arrays kept in memory, and restores the originals on ``close``.
Nothing under ``src/`` is changed.  Spans are written out once, when the
run ends.

A layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import fpfuse.cli
import fpfuse.evaluation
import fpfuse.losses
import fpfuse.matching
import fpfuse.pipeline
import fpfuse.synth
import fpfuse.templates

# (span name, function name, modules whose namespace is patched).  Callers
# import these names with ``from .x import f``, so each caller's namespace
# is patched; the assignment solver gets one span name per calling module.
_WRAPPED = (
    ("templates.read_corpus", "read_corpus", (fpfuse.templates, fpfuse.cli)),
    ("templates.read_template", "read_template", (fpfuse.templates, fpfuse.cli)),
    ("matching.global_match", "global_match", (fpfuse.evaluation, fpfuse.pipeline)),
    ("matching.local_match", "local_match", (fpfuse.evaluation, fpfuse.pipeline)),
    ("assignment.solve.matching", "solve_assignment", (fpfuse.matching,)),
    ("assignment.solve.evaluation", "solve_assignment", (fpfuse.evaluation,)),
    ("assignment.solve.losses", "solve_assignment", (fpfuse.losses,)),
    ("pipeline.infer_pair_with_config", "infer_pair_with_config", (fpfuse.pipeline,)),
    ("pipeline.infer_pair", "infer_pair", (fpfuse.pipeline,)),
    ("evaluation.enumerate_pairs", "enumerate_pairs", (fpfuse.cli,)),
    ("evaluation.score_pairs", "score_pairs", (fpfuse.cli,)),
    ("evaluation.apply_pipeline", "apply_pipeline", (fpfuse.cli,)),
    ("evaluation.evaluate_scores", "evaluate_scores", (fpfuse.cli,)),
    ("evaluation.aggregate_minutiae_quality", "aggregate_minutiae_quality", (fpfuse.cli,)),
    ("losses.total_loss", "total_loss", (fpfuse.losses,)),
    ("losses.correspondence_cost_matrix", "correspondence_cost_matrix", (fpfuse.losses,)),
    ("synth.generate_corpus", "generate_corpus", (fpfuse.synth,)),
    ("cli.main", "main", (fpfuse.cli,)),
)

GATES = ("confident_genuine", "confident_impostor", "local_evaluated")
CLASSES = ("genuine", "impostor")

# Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER = [
    ("templates.read_corpus_s", "s", "lower"),
    ("templates.templates_decoded", "count", "lower"),
    ("templates.minutiae_arrays_calls", "count", "lower"),
    ("templates.minutiae_arrays_s", "s", "lower"),
    ("matching.global_match_calls", "count", "lower"),
    ("matching.global_match_s", "s", "lower"),
    ("matching.local_match_calls", "count", "lower"),
    ("matching.local_match_s", "s", "lower"),
    ("matching.work_units", "count", "lower"),
    ("matching.local_used_ratio", "ratio", "higher"),
    ("assignment.solve_calls.matching", "count", "lower"),
    ("assignment.solve_calls.evaluation", "count", "lower"),
    ("assignment.solve_calls.losses", "count", "lower"),
    ("assignment.solve_s.matching", "s", "lower"),
    ("assignment.solve_s.evaluation", "s", "lower"),
    ("assignment.solve_s.losses", "s", "lower"),
    ("assignment.cells_per_solve", "cells", "lower"),
    ("pipeline.infer_pair_calls", "count", "lower"),
    ("pipeline.infer_pair_self_s", "s", "lower"),
] + [(f"pipeline.gate.{g}.{c}", "count", "lower" if g == "local_evaluated" else "higher")
     for g in GATES for c in CLASSES] + [
    ("evaluation.enumerate_pairs_s", "s", "lower"),
    ("evaluation.score_pairs_s", "s", "lower"),
    ("evaluation.apply_pipeline_s", "s", "lower"),
    ("evaluation.metrics_s", "s", "lower"),
    ("evaluation.minutiae_quality_s", "s", "lower"),
    ("losses.total_loss_s", "s", "lower"),
    ("losses.cost_matrix_s", "s", "lower"),
    ("synth.generate_corpus_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SETUP_ROUND = -1


class Tracer:
    """Records spans and counters while installed; restores the originals on close."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_round = array("i")
        self.counters = defaultdict(float)   # (round, name) -> value
        self.round = SETUP_ROUND
        self.label = None                    # "genuine" / "impostor" of the current request
        self._stack: list = []
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for span, attr, modules in _WRAPPED:
            for module in modules:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
        cls = fpfuse.templates.Template
        original = cls.minutiae_arrays
        self._saved.append((cls, "minutiae_arrays", original))
        cls.minutiae_arrays = self._wrap("templates.minutiae_arrays", original)
        return self

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        name_id = len(self.names)
        self.names.append(span)
        observe = _OBSERVERS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_round.append(tracer.round)
            tracer.span_end.append(0)
            tracer._stack.append(idx)
            tracer.span_start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter_ns()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.round, name)] += value

    # -- summaries ----------------------------------------------------------

    def _arrays(self):
        # Copies, so that the arrays stay free to grow after a summary.
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_start, dtype=np.int64),
                np.array(self.span_end, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_round, dtype=np.int32))

    def per_layer(self, rounds: list, setups: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced round; corpus synthesis and decoding
        per traced round plus per set-up repetition."""
        name, start, end, parent, rnd = self._arrays()
        dur = (end - start).astype(np.float64) / 1e9
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        in_rounds = np.isin(rnd, rounds)
        n_rounds = max(1, len(rounds))
        ids = {}
        for i, n in enumerate(self.names):
            ids.setdefault(n, []).append(i)

        def total(values, span_names):
            mask = np.isin(name, [i for n in span_names for i in ids.get(n, [])])
            return float(values[mask & in_rounds].sum()) / n_rounds

        def seconds(*span_names):
            return total(dur, span_names)

        def calls(*span_names):
            return total(np.ones(dur.size), span_names)

        def with_setup(values, span_name):
            # Per traced round plus per set-up: verify-stream decodes its
            # corpus in set-up, the eval workloads in every round.
            mask = np.isin(name, ids.get(span_name, []))
            return (total(values, (span_name,))
                    + float(values[mask & (rnd == SETUP_ROUND)].sum()) / max(1, setups))

        def counter(key):
            return sum(v for (r, k), v in self.counters.items()
                       if k == key and r in rounds) / n_rounds

        solves = ("assignment.solve.matching", "assignment.solve.evaluation",
                  "assignment.solve.losses")
        n_solves = calls(*solves)
        n_local = calls("matching.local_match")
        out = {
            "templates.read_corpus_s": with_setup(dur, "templates.read_corpus"),
            "templates.templates_decoded": with_setup(np.ones(dur.size),
                                                      "templates.read_template"),
            "templates.minutiae_arrays_calls": calls("templates.minutiae_arrays"),
            "templates.minutiae_arrays_s": seconds("templates.minutiae_arrays"),
            "matching.global_match_calls": calls("matching.global_match"),
            "matching.global_match_s": seconds("matching.global_match"),
            "matching.local_match_calls": n_local,
            "matching.local_match_s": seconds("matching.local_match"),
            "matching.work_units": counter("work_units"),
            "matching.local_used_ratio": counter("local_used") / n_local if n_local else 0.0,
            "assignment.cells_per_solve": counter("cells") / n_solves if n_solves else 0.0,
            "pipeline.infer_pair_calls": calls("pipeline.infer_pair"),
            "pipeline.infer_pair_self_s": total(self_s, ("pipeline.infer_pair",
                                                         "pipeline.infer_pair_with_config")),
            "evaluation.enumerate_pairs_s": seconds("evaluation.enumerate_pairs"),
            "evaluation.score_pairs_s": seconds("evaluation.score_pairs"),
            "evaluation.apply_pipeline_s": seconds("evaluation.apply_pipeline"),
            "evaluation.metrics_s": seconds("evaluation.evaluate_scores"),
            "evaluation.minutiae_quality_s": seconds("evaluation.aggregate_minutiae_quality"),
            "losses.total_loss_s": seconds("losses.total_loss"),
            "losses.cost_matrix_s": seconds("losses.correspondence_cost_matrix"),
            "synth.generate_corpus_s": with_setup(dur, "synth.generate_corpus"),
            "cli.unattributed_s": total(self_s, ("cli.main",)),
            "trace.overhead_s": overhead_s,
        }
        for caller in ("matching", "evaluation", "losses"):
            out[f"assignment.solve_calls.{caller}"] = calls(f"assignment.solve.{caller}")
            out[f"assignment.solve_s.{caller}"] = seconds(f"assignment.solve.{caller}")
        for g in GATES:
            for c in CLASSES:
                out[f"pipeline.gate.{g}.{c}"] = counter(f"gate.{g}.{c}")
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Write every span and the per-layer summary to one ``.npz`` file."""
        name, start, end, parent, rnd = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start_ns=start,
                            end_ns=end, parent=parent, round=rnd,
                            summary=np.array(json.dumps(summary, sort_keys=True)))


# ---------------------------------------------------------------------------
# Counters taken from call arguments and results

def _observe_local(tracer, args, kwargs, result):
    tracer.count("work_units", result.work_units)


def _observe_solve(tracer, args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    shape = np.shape(getattr(c, "entries", c))
    tracer.count("cells", shape[0] * shape[1])


def _observe_apply(tracer, args, kwargs, result):
    scores = args[0] if args else kwargs["scores"]
    genuine = np.array([a[0] == b[0] for a, b in scores.pairs], dtype=bool)
    for code, gate in enumerate(GATES):
        hit = result.gates == code
        tracer.count(f"gate.{gate}.genuine", int((hit & genuine).sum()))
        tracer.count(f"gate.{gate}.impostor", int((hit & ~genuine).sum()))
    tracer.count("local_used", int((result.gates == 2).sum()))


def _observe_infer(tracer, args, kwargs, result):
    tracer.count(f"gate.{result.gate}.{tracer.label}")
    if result.gate == "local_evaluated":
        tracer.count("local_used")


_OBSERVERS = {
    "matching.local_match": _observe_local,
    "assignment.solve.matching": _observe_solve,
    "assignment.solve.evaluation": _observe_solve,
    "assignment.solve.losses": _observe_solve,
    "evaluation.apply_pipeline": _observe_apply,
    "pipeline.infer_pair": _observe_infer,
}
