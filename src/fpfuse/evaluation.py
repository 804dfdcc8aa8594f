"""Verification-protocol enumeration, score metrics and minutiae quality.

Pairs follow the standard verification protocol: genuine comparisons are
all impression pairs within a subject; impostor comparisons take one
canonical impression per subject across all subject pairs, giving
``S*I*(I-1)/2`` genuine and ``S*(S-1)/2`` impostor comparisons.

:func:`score_pairs` scores the pairs once for pipeline configs that share
one local config; :func:`apply_pipeline` derives each one's final scores.

Score metrics use the decision rule ``score >= threshold -> genuine`` on a
grid of the distinct observed scores plus +inf, which keeps every reported
operating point realizable.

:func:`evaluate_scores` builds the report document that ``fpfuse eval``
writes as JSON: ``counts``, ``frr_at_far`` and ``thresholds`` (keyed by
each of :data:`FAR_TARGETS` formatted with ``%g``), ``eer``, ``roc`` (one
``{"thr", "far", "frr"}`` object per operating point), ``gate_stats``,
``work_units_total`` and ``minutiae_quality`` (the fields of
:class:`MinutiaeQuality`, or null without references).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .assignment import solve_assignment, squared_distances
from .matching import LocalMatchConfig, global_match, local_match
from .pipeline import GATE_LOCAL_EVALUATED, GATES, UNGATED, PipelineConfig, band_gate, gated_fuse
from .templates import Corpus

PairKey = Tuple[Tuple[str, int], Tuple[str, int]]

# FAR operating points of the report's ``frr_at_far`` and ``thresholds``.
FAR_TARGETS = (0.001, 0.01)


@dataclass(frozen=True)
class Protocol:
    """Subject/impression counts of an evaluation corpus."""

    subjects: int
    impressions: int

    def __post_init__(self):
        if self.subjects < 1 or self.impressions < 1:
            raise ValueError("protocol needs at least one subject and one impression")


def enumerate_pairs(protocol: Protocol, corpus: Corpus) -> Tuple[List[PairKey], List[PairKey]]:
    """Deterministic genuine and impostor pair lists (subject-major order) of
    a corpus of ``protocol``'s shape; ``ValueError`` for another shape."""
    ids = corpus.subject_ids
    if len(ids) != protocol.subjects:
        raise ValueError(f"corpus has {len(ids)} subjects, protocol expects {protocol.subjects}")
    for sid in ids:
        have = len(corpus.subjects[sid])
        if have != protocol.impressions:
            raise ValueError(
                f"ragged corpus: subject {sid} has {have} impressions, expected {protocol.impressions}")
    genuine: List[PairKey] = []
    for sid in ids:
        for i in range(protocol.impressions):
            for j in range(i + 1, protocol.impressions):
                genuine.append(((sid, i), (sid, j)))
    impostor: List[PairKey] = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            impostor.append(((ids[a], 0), (ids[b], 0)))
    return genuine, impostor


# ---------------------------------------------------------------------------
# Score metrics

def _as_scores(values, name: str) -> np.ndarray:
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError(f"{name} score list is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} scores must be finite")
    return arr


def _operating_points(genuine_scores, impostor_scores):
    """``(grid, far, frr)``: the threshold grid and the FAR and FRR at each of
    its thresholds under ``score >= threshold -> accept``.  FAR falls from 1
    to 0 along the grid and FRR rises from 0 to 1."""
    genuine = _as_scores(genuine_scores, "genuine")
    impostor = _as_scores(impostor_scores, "impostor")
    grid = np.concatenate([np.unique(np.concatenate([genuine, impostor])), [np.inf]])
    far = 1.0 - np.searchsorted(impostor, grid, side="left") / impostor.size
    frr = np.searchsorted(genuine, grid, side="left") / genuine.size
    return grid, far, frr


def _frr_at(points, far_target: float) -> Tuple[float, float]:
    grid, far, frr = points
    idx = int(np.flatnonzero(far <= far_target)[0])  # the last point has FAR 0
    return float(frr[idx]), float(grid[idx])


def _eer(points) -> float:
    _, far, frr = points
    diff = far - frr  # 1 at the first point and -1 at the last
    k = int(np.flatnonzero((diff[:-1] > 0) & (diff[1:] <= 0))[0])
    alpha = diff[k] / (diff[k] - diff[k + 1])
    return float(far[k] + alpha * (far[k + 1] - far[k]))


def frr_at_far(genuine_scores, impostor_scores, far_target: float) -> Tuple[float, float]:
    """FRR at the loosest threshold whose FAR still meets the target.

    Returns ``(frr, threshold)`` where the threshold is the smallest grid
    value with ``FAR(threshold) <= far_target``.
    """
    if not 0.0 <= far_target <= 1.0:
        raise ValueError("far_target must lie in [0, 1]")
    return _frr_at(_operating_points(genuine_scores, impostor_scores), far_target)


# ---------------------------------------------------------------------------
# Minutiae quality

# A predicted minutia pairs with its reference minutia within this distance.
QUALITY_DIST_PX = 20.0


@dataclass(frozen=True)
class MinutiaeQuality:
    paired: int
    missed: int
    spurious: int
    goodness_index: float
    avg_positional_error_px: float


def minutiae_quality(pred_positions, gt_positions) -> MinutiaeQuality:
    """Detection quality of predicted minutiae against a reference, given
    their (n, 2) position arrays.

    Pairs by optimal location-only correspondence, accepts pairs within
    :data:`QUALITY_DIST_PX`, and scores ``(paired - missed - spurious) / |gt|``.
    An empty reference yields a goodness index of 0.  An empty input such as
    ``[]`` holds no minutiae; a shape other than (n, 2) raises ``ValueError``.
    """
    pred, gt = (np.asarray(p, dtype=np.float64) for p in (pred_positions, gt_positions))
    pred, gt = (p.reshape(0, 2) if p.size == 0 else p for p in (pred, gt))
    if pred.shape[1:] != (2,) or gt.shape[1:] != (2,):
        raise ValueError(f"minutiae_quality needs (n, 2) position arrays, "
                         f"got shapes {pred.shape} and {gt.shape}")
    n_pred, n_gt = pred.shape[0], gt.shape[0]
    cost = np.sqrt(squared_distances(pred, gt))
    pairs = solve_assignment(cost).pairs
    errors = cost[tuple(zip(*pairs))] if pairs else np.zeros(0)
    errors = errors[errors <= QUALITY_DIST_PX]
    paired = errors.size
    return _quality(paired, n_gt - paired, n_pred - paired, float(errors.sum()))


def _quality(paired: int, missed: int, spurious: int, error_sum: float) -> MinutiaeQuality:
    """Goodness index (0 for an empty reference) and mean error of the pairs."""
    total_gt = paired + missed
    gi = (paired - missed - spurious) / total_gt if total_gt else 0.0
    avg_err = error_sum / paired if paired else 0.0
    return MinutiaeQuality(paired=paired, missed=missed, spurious=spurious,
                           goodness_index=gi, avg_positional_error_px=avg_err)


def aggregate_minutiae_quality(corpus: Corpus, references: Corpus) -> MinutiaeQuality:
    """Pool per-impression quality counts across a corpus.  ``references``
    must hold the same subjects and impression counts, else ``ValueError``."""
    shape = {sid: len(t) for sid, t in corpus.subjects.items()}
    ref_shape = {sid: len(t) for sid, t in references.subjects.items()}
    if ref_shape != shape:
        raise ValueError(f"references hold {len(ref_shape)} subjects and "
                         f"{references.template_count} impressions, the corpus {len(shape)} "
                         f"and {corpus.template_count}; they must match subject by subject")
    paired = missed = spurious = 0
    weighted_err = 0.0
    for sid in corpus.subject_ids:
        for k, t in enumerate(corpus.subjects[sid]):
            q = minutiae_quality(t.positions, references.subjects[sid][k].positions)
            paired += q.paired
            missed += q.missed
            spurious += q.spurious
            weighted_err += q.avg_positional_error_px * q.paired
    return _quality(paired, missed, spurious, weighted_err)


# ---------------------------------------------------------------------------
# Corpus scoring

@dataclass(frozen=True, eq=False)
class ChannelScores:
    """Raw per-pair channel scores, computed once and reusable across configs.

    A pair that :func:`score_pairs` did not match locally carries
    ``s_l_raw = NaN`` and ``work_units = 0``.
    """

    pairs: Tuple[PairKey, ...]
    s_g_raw: np.ndarray
    s_l_raw: np.ndarray
    work_units: np.ndarray
    local: LocalMatchConfig      # the local-matcher config the scores were made with


# Scoring context of a forked worker, set by the pool's initializer, whose
# arguments a forked worker inherits: the corpus is never pickled, and the
# parent's copy stays empty.
_SCORING_CONTEXT: dict = {}

# Local matches per worker below which the fork pool costs more than it
# saves: with two workers on a shared 2-CPU Linux host, 64 pairs took
# 0.056 s serially and 0.076 s in the pool, 256 pairs 0.34 s and 0.21 s.
POOL_MIN_PAIRS_PER_JOB = 64


def _local_chunk(pairs, corpus: Corpus, local_cfg: LocalMatchConfig):
    s_l = np.empty(len(pairs))
    work = np.empty(len(pairs), dtype=np.int64)
    for idx, (key_a, key_b) in enumerate(pairs):
        local = local_match(corpus.template(*key_a), corpus.template(*key_b), local_cfg)
        s_l[idx] = local.score
        work[idx] = local.work_units
    return s_l, work


def _local_chunk_from_context(pairs):
    return _local_chunk(pairs, _SCORING_CONTEXT["corpus"], _SCORING_CONTEXT["local_cfg"])


def score_pairs(corpus: Corpus, pairs: Sequence[PairKey],
                configs: Sequence[PipelineConfig] = (PipelineConfig(**UNGATED),),
                jobs: int = 1) -> ChannelScores:
    """Raw global scores for every pair, and raw local scores under the one
    local config the ``configs`` share (else ``ValueError``) for the pairs
    that some config sends to the local matcher: every pair by default.  A
    skipped pair carries ``s_l_raw = NaN`` and 0 work units;
    :func:`apply_pipeline` accepts the scores for any config of that local
    config whose band lies within the union of the configs' bands.

    With ``jobs > 1`` and at least ``POOL_MIN_PAIRS_PER_JOB`` local matches
    per worker, the matches are chunked across worker processes and
    scattered back by index, so results do not depend on the worker count.
    """
    local_cfgs = {cfg.local for cfg in configs}
    if len(local_cfgs) != 1:
        raise ValueError(f"score_pairs needs configs that share one local config, "
                         f"got {len(local_cfgs)} local configs")
    local_cfg, = local_cfgs
    pairs = list(pairs)
    s_g = np.array([global_match(corpus.template(*key_a), corpus.template(*key_b))
                    for key_a, key_b in pairs], dtype=np.float64)
    todo = np.array([k for k, s in enumerate(s_g.tolist())
                     if any(band_gate(s, cfg) == GATE_LOCAL_EVALUATED for cfg in configs)],
                    dtype=np.intp)
    todo_pairs = [pairs[k] for k in todo]
    if jobs <= 1 or len(todo_pairs) < POOL_MIN_PAIRS_PER_JOB * jobs:
        s_l_todo, work_todo = _local_chunk(todo_pairs, corpus, local_cfg)
    else:
        import multiprocessing as mp
        bounds = np.linspace(0, len(todo_pairs), jobs * 4 + 1).astype(int)
        chunks = [todo_pairs[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        context = {"corpus": corpus, "local_cfg": local_cfg}
        with mp.get_context("fork").Pool(jobs, _SCORING_CONTEXT.update, (context,)) as pool:
            parts = pool.map(_local_chunk_from_context, chunks)
        s_l_todo = np.concatenate([p[0] for p in parts])
        work_todo = np.concatenate([p[1] for p in parts])
    s_l = np.full(len(pairs), np.nan)
    work = np.zeros(len(pairs), dtype=np.int64)
    s_l[todo] = s_l_todo
    work[todo] = work_todo
    return ChannelScores(pairs=tuple(pairs), s_g_raw=s_g, s_l_raw=s_l, work_units=work,
                         local=local_cfg)


@dataclass(frozen=True, eq=False)
class PipelineScores:
    """Final scores and gate bookkeeping for one pipeline configuration."""

    final: np.ndarray
    gates: np.ndarray            # int codes: indices into GATES
    work_units: np.ndarray

    @property
    def gate_stats(self) -> Dict[str, int]:
        return {gate: int((self.gates == code).sum()) for code, gate in enumerate(GATES)}


_LOCAL = GATES.index(GATE_LOCAL_EVALUATED)


def apply_pipeline(scores: ChannelScores, cfg: PipelineConfig) -> PipelineScores:
    """Derive a pipeline's final scores from precomputed raw channel scores.

    Maps the gate-and-fuse rule of ``infer_pair`` over the pairs, so the
    scores are bit-identical to ``infer_pair``'s.  Only the pairs the config
    sends to the local matcher are normalized.  Raises ``ValueError`` if
    ``scores`` was made with another local config, or if one of those pairs
    was not matched locally (``cfg``'s band is wider than those scored for).
    """
    if scores.local != cfg.local:
        raise ValueError(f"scores made with local config {scores.local}, not {cfg.local}")
    s_g = scores.s_g_raw.tolist()
    gates = [band_gate(s, cfg) for s in s_g]
    codes = np.array([GATES.index(gate) for gate in gates], dtype=np.int64)
    local = codes == _LOCAL
    s_l_raw = scores.s_l_raw[local]
    missing = int(np.isnan(s_l_raw).sum())
    if missing:
        raise ValueError(f"{missing} pairs inside the band [{cfg.theta_f!r}, {cfg.theta_t!r}] "
                         f"were not matched locally: the scores were made for narrower bands")
    s_l_norm = np.full(len(s_g), np.nan)
    s_l_norm[local] = cfg.norm(s_l_raw)
    final = [gated_fuse(gate, g, l, cfg.fusion)[2]
             for gate, g, l in zip(gates, s_g, s_l_norm.tolist())]
    work = np.where(local, scores.work_units, 0)
    return PipelineScores(final=np.array(final, dtype=np.float64), gates=codes, work_units=work)


def evaluate_scores(genuine: np.ndarray, impostor: np.ndarray,
                    gate_stats: Dict[str, int], work_total: int,
                    quality: Optional[MinutiaeQuality] = None) -> dict:
    """The report document of one pipeline run over the protocol's pairs."""
    points = _operating_points(genuine, impostor)
    at_far = {f"{target:g}": _frr_at(points, target) for target in FAR_TARGETS}
    return {
        "counts": {"genuine": int(genuine.size), "impostor": int(impostor.size)},
        "frr_at_far": {key: frr for key, (frr, _) in at_far.items()},
        "thresholds": {key: thr for key, (_, thr) in at_far.items()},
        "eer": _eer(points),
        "roc": [{"thr": float(t), "far": float(fa), "frr": float(fr)}
                for t, fa, fr in zip(*points)],
        "gate_stats": dict(gate_stats),
        "work_units_total": int(work_total),
        "minutiae_quality": None if quality is None else asdict(quality),
    }
