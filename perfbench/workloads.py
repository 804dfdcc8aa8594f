"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (which the
runner times and repeats), runs whole rounds of the same operations in
``run_round``, and checks the outputs of the measured rounds in ``check``.
Every workload runs in this one process and thread.

* ``eval-gated``   one in-process ``fpfuse eval`` of a 50x4 corpus with
                   refs/, default config (gate band 0.75/0.15).
* ``eval-ungated`` the same on a 50x4 corpus of the fusion-advantage spec,
                   gate disabled, local scores normalized by a double sigmoid
                   fitted on a separate hold-out corpus.
* ``verify-stream`` a closed loop with one caller: one
                   ``infer_pair_with_config`` per request.
* ``loss-reorder`` one ``total_loss`` per prediction / ground-truth record.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fpfuse.cli
import fpfuse.evaluation
import fpfuse.losses
import fpfuse.pipeline
import fpfuse.synth
import fpfuse.templates
from fpfuse.assignment import CorrespondenceWeights
from fpfuse.losses import GroundTruthRecord, PredictionRecord
from fpfuse.pipeline import PipelineConfig

import checks
from checks import CheckFailed, CorpusView, expect


@dataclass
class Round:
    ops: int
    failed: int
    pairs: int
    wall_s: float
    latencies_ns: array       # one entry per operation


class Workload:
    """Shared bookkeeping: failed operations and outputs that change between rounds."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.tiny = scale == "tiny"
        self.workdir = workdir
        self.mismatch = None       # a later round whose outputs differ from the first
        self.failures = []         # repr of each failed operation's exception
        self.untimed_s = 0.0       # set-up time spent writing input files

    @contextlib.contextmanager
    def untimed(self):
        """Exclude the enclosed work from ``setup_s``: writing the inputs to disk
        is the benchmark's scaffolding, and its time varies with the file system."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer) -> Round:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def _check_repeat(self, outputs, first):
        if first is None:
            return outputs
        if self.mismatch is None and outputs != first:
            self.mismatch = "a later round's outputs differ from the first round's"
        return first


# ---------------------------------------------------------------------------
# eval workloads

class _EvalWorkload(Workload):
    """One in-process ``fpfuse eval`` per operation."""

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.corpus_dir = workdir / "corpus"
        self.report = workdir / "report.json"
        self.scores_csv = workdir / "scores.csv"
        self.summary = None

    def spec(self, subjects: int) -> fpfuse.synth.SynthSpec:
        raise NotImplementedError

    def _write_corpus(self, out: Path, subjects: int) -> None:
        spec = self.spec(subjects)
        bundle = fpfuse.synth.generate_corpus(spec)
        with self.untimed():
            shutil.rmtree(out, ignore_errors=True)
            fpfuse.synth.write_bundle(bundle, out, spec=spec,
                                      include_references=self.with_refs)

    def argv(self, corpus: Path):
        return ["eval", "--corpus", str(corpus), "--out", str(self.report),
                "--scores-csv", str(self.scores_csv)]

    def _eval(self, corpus: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fpfuse.cli.main(self.argv(corpus))
        if code != 0:
            raise RuntimeError(f"fpfuse eval exited with {code}")
        return out.getvalue().splitlines()[-1]

    def setup(self):
        self._write_corpus(self.corpus_dir, self.subjects)

    def warmup(self):
        warm = self.workdir / "warmup"
        self._write_corpus(warm, 8)
        self._eval(warm)

    def run_round(self, tracer):
        failed = 0
        start = time.perf_counter_ns()
        try:
            line = self._eval(self.corpus_dir)
        except Exception as exc:  # counted as a failed operation, reported below
            self.failures.append(repr(exc))
            failed, line = 1, None
        wall = time.perf_counter_ns() - start
        if line is not None:
            self.summary = self._check_repeat(line, self.summary)
        return Round(ops=1, failed=failed, pairs=self.pairs, wall_s=wall / 1e9,
                     latencies_ns=array("q", [wall]))

    @property
    def pairs(self) -> int:
        S, I = self.subjects, self.impressions
        return S * I * (I - 1) // 2 + S * (S - 1) // 2

    def _outputs(self):
        expect(self.summary is not None, "no eval operation succeeded")
        expect(self.mismatch is None, str(self.mismatch))
        summary = json.loads(self.summary)
        report = json.loads(self.report.read_text())
        expect(all(report[k] == summary[k] for k in summary),
               "report file disagrees with the printed summary")
        genuine, impostor = checks.read_scores_csv(self.scores_csv)
        view = CorpusView(self.corpus_dir, self.subjects, self.impressions)
        return summary, view, genuine, impostor

    def check(self):
        summary, view, genuine, impostor = self._outputs()
        self.check_outputs(summary, view, genuine, impostor)

    def check_outputs(self, summary, view, genuine, impostor):
        raise NotImplementedError


class EvalGated(_EvalWorkload):
    name = "eval-gated"
    default_seed = 303
    with_refs = True
    theta_t, theta_f = 0.75, 0.15

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.subjects, self.impressions = (8, 3) if self.tiny else (50, 4)

    def spec(self, subjects):
        return fpfuse.synth.SynthSpec(seed=self.seed, subjects=subjects,
                                      impressions=self.impressions)

    def check_outputs(self, summary, view, genuine, impostor):
        refs = CorpusView(self.corpus_dir / "refs", self.subjects, self.impressions)
        checks.check_protocol_counts(summary, self.subjects, self.impressions)
        checks.check_gates(summary, view, genuine, impostor, self.theta_t, self.theta_f)
        checks.check_work_units(summary, view, self.theta_t, self.theta_f)
        checks.check_frr(summary, genuine, impostor)
        checks.check_minutiae_quality(summary, checks.minutiae_quality_by_lsa(view, refs))


class EvalUngated(_EvalWorkload):
    name = "eval-ungated"
    default_seed = 202
    with_refs = False
    # A disabled gate: theta_t above and theta_f below every global score.
    theta_t, theta_f = 2.0, -1.0

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.subjects, self.impressions = (30, 4) if self.tiny else (50, 4)
        self.holdout_subjects = 12 if self.tiny else 40
        self.config = workdir / "config.json"

    def spec(self, subjects):
        return fpfuse.synth.SynthSpec(seed=self.seed, subjects=subjects, impressions=4,
                                      global_collision_rate=0.05, distortion_rate=0.15,
                                      weak_global_rate=0.1)

    def setup(self):
        super().setup()
        S = self.holdout_subjects
        holdout = fpfuse.synth.generate_corpus(
            fpfuse.synth.SynthSpec(seed=self.seed + 202, subjects=S, impressions=2)).corpus
        genuine, impostor = fpfuse.evaluation.enumerate_pairs(
            fpfuse.evaluation.Protocol(S, 2), holdout)
        raw = fpfuse.evaluation.score_pairs(holdout, genuine + impostor)
        n_gen = len(genuine)
        p = fpfuse.pipeline.fit_double_sigmoid(raw.s_l_raw[:n_gen], raw.s_l_raw[n_gen:])
        with self.untimed():
            self.config.write_text(json.dumps({
                "theta_t": self.theta_t, "theta_f": self.theta_f, "fusion": "mean",
                "norm": {"kind": "double_sigmoid",
                         "params": {"center": p.center, "left_width": p.left_width,
                                    "right_width": p.right_width}}}))

    def argv(self, corpus):
        return super().argv(corpus) + ["--config", str(self.config)]

    def check_outputs(self, summary, view, genuine, impostor):
        checks.check_protocol_counts(summary, self.subjects, self.impressions)
        expect(summary["gate_stats"]["local_evaluated"] == self.pairs,
               f"gate disabled but only {summary['gate_stats']['local_evaluated']} "
               f"of {self.pairs} pairs were matched locally")
        checks.check_work_units(summary, view, self.theta_t, self.theta_f)
        checks.check_frr(summary, genuine, impostor)
        checks.check_fusion_beats_global(view, genuine, impostor)


# ---------------------------------------------------------------------------
# verify-stream

# Shares of the corpus's pairs inside the gate band, (genuine, impostor): the
# medians over seeds 1-30 of the verify-stream corpus at 20x8, where the share
# of all pairs in the band ranged from 1.9% to 5.5% (perfbench/README.md).
BAND_SHARE = (90 / 12720, 326 / 12720)


class VerifyStream(Workload):
    """Closed loop, one caller: the next request is sent when the previous returns."""

    name = "verify-stream"
    default_seed = 101

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.subjects, self.impressions = (8, 4) if self.tiny else (20, 8)
        self.cfg = PipelineConfig()
        self.results = None
        self.first_scores = None

    def setup(self):
        corpus_dir = self.workdir / "corpus"
        spec = fpfuse.synth.SynthSpec(seed=self.seed, subjects=self.subjects,
                                      impressions=self.impressions,
                                      weak_global_rate=0.5, global_collision_rate=0.05)
        bundle = fpfuse.synth.generate_corpus(spec)
        with self.untimed():
            shutil.rmtree(corpus_dir, ignore_errors=True)
            fpfuse.synth.write_bundle(bundle, corpus_dir, include_references=False)
        corpus = fpfuse.templates.read_corpus(corpus_dir)
        self.templates = [t for sid in corpus.subject_ids for t in corpus.subjects[sid]]
        emb = np.stack([t.global_embedding for t in self.templates]).astype(np.float64)
        self.global_scores = np.clip(emb @ emb.T, 0.0, 1.0)
        I = self.impressions
        pairs = [(s * I + i, s * I + j, "genuine") for s in range(self.subjects)
                 for i in range(I) for j in range(i + 1, I)]
        pairs += [(a * I + i, b * I + j, "impostor") for a in range(self.subjects)
                  for b in range(a + 1, self.subjects) for i in range(I) for j in range(I)]
        s_g = np.array([self.global_scores[a, b] for a, b, _ in pairs])
        band = (s_g >= self.cfg.theta_f) & (s_g <= self.cfg.theta_t)
        genuine = np.array([label == "genuine" for _, _, label in pairs])
        # As many requests as the corpus has pairs, each drawn from its own
        # stratum of the corpus's pairs; the strata keep the in-band shares at
        # their medians over seeds 1-30, so that every seed costs the same.
        n_gen = round(len(pairs) * BAND_SHARE[0])
        n_imp = round(len(pairs) * BAND_SHARE[1])
        strata = (n_gen, n_imp, len(pairs) - n_gen - n_imp)
        self.n_band = n_gen + n_imp
        rng = np.random.default_rng(self.seed)
        chosen = []
        for mask, k in zip((band & genuine, band & ~genuine, ~band), strata):
            pool = np.flatnonzero(mask)
            if pool.size >= k:
                chosen.extend(rng.choice(pool, size=k, replace=False).tolist())
            else:   # every pair of a short stratum, topped up by a draw from it
                chosen.extend(pool.tolist())
                chosen.extend(rng.choice(pool, size=k - pool.size).tolist())
        order = rng.permutation(len(chosen))
        self.requests = [pairs[chosen[k]] for k in order]

    def warmup(self):
        self.run_round(None, keep=False)

    def run_round(self, tracer, keep=True):
        infer = fpfuse.pipeline.infer_pair_with_config
        cfg, templates, lat = self.cfg, self.templates, array("q")
        clock = time.perf_counter_ns
        results, failed = [], 0
        start = clock()
        for a, b, label in self.requests:
            if tracer is not None:
                tracer.label = label
            t0 = clock()
            try:
                results.append(infer(templates[a], templates[b], cfg))
            except Exception as exc:  # counted as a failed operation
                self.failures.append(repr(exc))
                failed += 1
                results.append(None)
            lat.append(clock() - t0)
        wall = clock() - start
        if keep:
            if self.results is None:
                self.results = results
            self.first_scores = self._check_repeat(
                [r.s_final if r else None for r in results], self.first_scores)
        return Round(ops=len(self.requests), failed=failed, pairs=len(self.requests),
                     wall_s=wall / 1e9, latencies_ns=lat)

    def check(self):
        expect(self.mismatch is None, str(self.mismatch))
        ok = [(q, r) for q, r in zip(self.requests, self.results) if r is not None]
        checks.check_match_results([r for _, r in ok], [q for q, _ in ok],
                                   self.global_scores, self.cfg.theta_t, self.cfg.theta_f)
        in_band = sum(r.gate == checks.LOCAL for _, r in ok)
        expect(in_band == self.n_band, f"{in_band} requests in the gate band, want {self.n_band}")


# ---------------------------------------------------------------------------
# loss-reorder

# Correspondence weights passed explicitly, so the scipy check uses the same cost.
LOSS_WEIGHTS = (1.0, 57.2958, 20.0)


class LossReorder(Workload):
    name = "loss-reorder"
    default_seed = 505

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.n_records, self.n_minutiae = (4, 12) if self.tiny else (64, 50)
        self.d_m, self.d_g, self.layers = 64, 192, 5
        self.cw = CorrespondenceWeights(*LOSS_WEIGHTS)
        self.first = None

    def _noisy_permutation(self, rng, gt_po, gt_e):
        L = gt_po.shape[0]
        perm = rng.permutation(L)
        po = gt_po[perm] + np.column_stack([rng.normal(scale=3.0, size=(L, 2)),
                                            rng.normal(scale=0.05, size=L)])
        po[:, 2] = np.mod(po[:, 2], 2.0 * math.pi)
        return po, gt_e[perm] + rng.normal(scale=0.1, size=(L, self.d_m))

    def setup(self):
        rng = np.random.default_rng(self.seed)
        L = self.n_minutiae
        self.records = []
        for _ in range(self.n_records):
            gt_po = np.column_stack([rng.uniform(0.0, 384.0, size=(L, 2)),
                                     rng.uniform(0.0, 2.0 * math.pi, size=L)])
            gt_e = rng.normal(size=(L, self.d_m))
            gt_e /= np.linalg.norm(gt_e, axis=1, keepdims=True)
            gt_g = rng.normal(size=self.d_g)
            gt_g /= np.linalg.norm(gt_g)
            po, e = self._noisy_permutation(rng, gt_po, gt_e)
            inter = tuple(self._noisy_permutation(rng, gt_po, gt_e) for _ in range(self.layers))
            pred = PredictionRecord(gt_g + rng.normal(scale=0.01, size=self.d_g), po, e, inter)
            self.records.append((pred, GroundTruthRecord(gt_g, gt_po, gt_e)))

    def warmup(self):
        self.run_round(None, keep=False)

    def run_round(self, tracer, keep=True):
        total_loss = fpfuse.losses.total_loss
        cw, lat = self.cw, array("q")
        clock = time.perf_counter_ns
        results, failed = [], 0
        start = clock()
        for pred, gt in self.records:
            t0 = clock()
            try:
                results.append(total_loss(pred, gt, cw=cw))
            except Exception as exc:  # counted as a failed operation
                self.failures.append(repr(exc))
                failed += 1
                results.append(None)
            lat.append(clock() - t0)
        wall = clock() - start
        if keep:
            self.first = self._check_repeat(results, self.first)
        return Round(ops=len(self.records), failed=failed, pairs=len(self.records),
                     wall_s=wall / 1e9, latencies_ns=lat)

    def check(self):
        expect(self.mismatch is None, str(self.mismatch))
        ok = [(rec, out) for rec, out in zip(self.records, self.first) if out is not None]
        expect(ok, "no total_loss operation succeeded")
        wants = [checks.loss_by_lsa(pred, gt, LOSS_WEIGHTS) for (pred, gt), _ in ok]
        checks.check_losses([out for _, out in ok], wants)


WORKLOADS = {w.name: w for w in (EvalGated, EvalUngated, VerifyStream, LossReorder)}
