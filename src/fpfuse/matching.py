"""Global and local matchers over two templates.

Global matching is a dot product of the unit global embeddings, taken on
the float64 copies each template makes once, clamped to [0, 1].  Local
matching pairs minutiae one-to-one: candidate pairs above an
embedding-cosine floor are filtered for geometric consistency under a rigid
alignment seeded from the best candidate, and the survivors are assigned to
maximize the sum of cosine similarities.  The raw local score is that sum,
unbounded above; ``work_units`` counts candidate evaluations and is the
matching-cost proxy.

Whether a pair needs the local matcher at all is decided by the gate rule
in :mod:`fpfuse.pipeline`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .assignment import angular_distance, solve_assignment, squared_distances
from .templates import Template, number

# Cosines within one part in 1e12 of 1 are snapped to exactly 1 so that a
# self match scores exactly the minutiae count.
_COS_SNAP = 1e-12


@dataclass(frozen=True)
class LocalMatchConfig:
    """Knobs of the local matcher."""

    emb_sim_floor: float = 0.3
    geo_tolerance_px: float = 20.0
    ori_tolerance_rad: float = 0.35
    max_minutiae: Optional[int] = None

    def __post_init__(self):
        for name, lo, hi in (("emb_sim_floor", -1.0, 1.0), ("geo_tolerance_px", 0.0, math.inf),
                             ("ori_tolerance_rad", 0.0, math.inf)):
            object.__setattr__(self, name, number(getattr(self, name), name, lo, hi))
        if self.max_minutiae is not None:
            object.__setattr__(self, "max_minutiae",
                               number(self.max_minutiae, "max_minutiae", 1, integer=True))


@dataclass(frozen=True)
class LocalMatchResult:
    score: float
    matched_pairs: Tuple[Tuple[int, int, float], ...]
    work_units: int


def clamp01(x: float) -> float:
    """``min(1.0, max(0.0, x))`` of a float, so NaN and -0.0 give 0.0, at a
    fifth of its cost: every pair clamps two or three scores."""
    return x if 0.0 < x <= 1.0 else (1.0 if x > 1.0 else 0.0)


def global_match(a: Template, b: Template) -> float:
    """Similarity of the global embeddings: their float64 dot product,
    clamped to [0, 1].  Takes one dot product of the templates' ``global64``
    copies, the bits of casting both float32 embeddings per call.  Raises
    ``ValueError`` when the dimensions differ."""
    ga, gb = a.global64, b.global64
    if len(ga) != len(gb):
        raise ValueError(f"global dimension mismatch: {len(ga)} != {len(gb)}")
    return clamp01(float(ga.dot(gb)))  # the method skips np.dot's dispatch


def _cosine_matrix(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(emb_a, axis=1)
    nb = np.linalg.norm(emb_b, axis=1)
    denom = np.outer(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (emb_a @ emb_b.T) / denom
    cos[~np.isfinite(cos)] = -np.inf
    np.clip(cos, -1.0, 1.0, out=cos)
    cos[cos > 1.0 - _COS_SNAP] = 1.0
    return cos


def _best_pairing(cos: np.ndarray, survivors: np.ndarray):
    """Max-cosine one-to-one subset of the survivor pairs.

    Rows may stay unmatched via zero-cost dummy columns, so pairs with
    negative cosine are never forced in.
    """
    rows = np.flatnonzero(survivors.any(axis=1))
    cols = np.flatnonzero(survivors.any(axis=0))
    if rows.size == 0:
        return 0.0, ()
    block = np.ix_(rows, cols)
    sub = np.hstack((np.where(survivors[block], -cos[block], np.inf),
                     np.zeros((rows.size, rows.size))))
    # The rows ascend and the solver's pairs are row-sorted, so these are too.
    pairs = tuple((int(rows[r]), int(cols[c]), float(cos[rows[r], cols[c]]))
                  for r, c in solve_assignment(sub).pairs if c < cols.size)
    return math.fsum(p[2] for p in pairs), pairs


def local_match(a: Template, b: Template, cfg: LocalMatchConfig = LocalMatchConfig()) -> LocalMatchResult:
    """Pair minutiae one-to-one and score the match by summed cosines.

    Steps: truncate each side to ``max_minutiae`` (template order),
    collect candidate pairs above the cosine floor, estimate one rigid
    alignment from the highest-cosine candidate (the first in row-major
    order on ties), drop candidates that are geometrically inconsistent with
    it, then pick the one-to-one pairing that maximizes the cosine sum.
    Degenerate inputs score 0.
    """
    if a.theta.size and b.theta.size and a.minutia_dim != b.minutia_dim:
        raise ValueError(f"minutia dimension mismatch: {a.minutia_dim} != {b.minutia_dim}")
    pos_a, ori_a, emb_a = a.minutiae_arrays()
    pos_b, ori_b, emb_b = b.minutiae_arrays()
    k = cfg.max_minutiae
    if k is not None:
        pos_a, ori_a, emb_a = pos_a[:k], ori_a[:k], emb_a[:k]
        pos_b, ori_b, emb_b = pos_b[:k], ori_b[:k], emb_b[:k]
    work = pos_a.shape[0] * pos_b.shape[0]
    if work == 0:
        return LocalMatchResult(score=0.0, matched_pairs=(), work_units=work)
    cos = _cosine_matrix(emb_a, emb_b)
    candidates = cos >= cfg.emb_sim_floor
    if not candidates.any():
        return LocalMatchResult(score=0.0, matched_pairs=(), work_units=work)
    # The first global maximum is a candidate: it is at least the floor.
    i, j = np.unravel_index(int(cos.argmax()), cos.shape)
    rot = float(ori_b[j] - ori_a[i])
    c, s = math.cos(rot), math.sin(rot)
    rot_mat = np.array([[c, -s], [s, c]])
    projected = pos_a @ rot_mat.T + (pos_b[j] - rot_mat @ pos_a[i])
    geo_ok = squared_distances(projected, pos_b) <= cfg.geo_tolerance_px ** 2
    ori_ok = angular_distance(ori_a[:, None] + rot, ori_b[None, :]) <= cfg.ori_tolerance_rad
    score, pairs = _best_pairing(cos, candidates & geo_ok & ori_ok)
    return LocalMatchResult(score=max(score, 0.0), matched_pairs=pairs, work_units=work)
