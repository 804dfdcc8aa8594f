"""Reference implementation of the training objective.

The total loss is a global-embedding MSE plus, for the final layer and for
each intermediate decoder layer, a position/orientation MSE and a
local-embedding MSE taken after reordering the ground-truth minutiae rows
by that layer's own optimal correspondence.  Orientation is always
circular: the correspondence cost and the theta column of the position MSE
both use :func:`angular_distance`.  These are reference formulas over
plain arrays, not a training loop.

One rule, ``_minutiae``, checks a minutia set (``(L, 3)`` x/y/theta rows and
``(L, d)`` embeddings).  A record applies it once, when built, to its own set
and to each intermediate layer; :func:`reorder_ground_truth` applies it to
both of its sides.  :func:`total_loss` checks only what relates its two
records, their shapes.  Both reorder through one helper.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .assignment import (CorrespondenceWeights, correspondence_cost_matrix,
                         angular_distance, solve_assignment)
from .templates import json_numbers, number


@dataclass(frozen=True, eq=False)
class _MinutiaeRecord:
    """Global embedding and minutiae rows, checked for rank, shape and finiteness."""

    global_embedding: np.ndarray          # (d_g,)
    positions: np.ndarray                 # (L, 3): x, y, theta
    embeddings: np.ndarray                # (L, d_m)

    def __post_init__(self):
        g = _finite(self.global_embedding, "global_embedding", ndim=1)
        if g.size == 0:
            raise ValueError("global_embedding must not be empty")
        po, e = _minutiae(self.positions, self.embeddings, "")
        for name, value in (("global_embedding", g), ("positions", po), ("embeddings", e)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, doc: dict):
        """The record of a JSON object with ``global``, ``positions`` and ``embeddings``."""
        return cls(*_json_arrays(doc))


def _json_arrays(doc: dict, prefix: str = "", keys=("global", "positions", "embeddings")):
    """The arrays under ``keys`` of a JSON record, whose leaves must be numbers."""
    return tuple(np.asarray(json_numbers(doc[key], prefix + key)) for key in keys)


@dataclass(frozen=True, eq=False)
class PredictionRecord(_MinutiaeRecord):
    """Model outputs for one image: global embedding, minutiae, per-layer intermediates."""

    intermediates: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        inter = tuple(_minutiae(po, e, f"intermediates[{i}].")
                      for i, (po, e) in enumerate(self.intermediates))
        object.__setattr__(self, "intermediates", inter)
        for i, (po, e) in enumerate(inter):
            if po.shape != self.positions.shape or e.shape != self.embeddings.shape:
                raise ValueError(f"intermediate layer {i} shape mismatch")

    @classmethod
    def from_dict(cls, doc: dict) -> "PredictionRecord":
        inter = tuple(_json_arrays(layer, f"intermediates[{i}].", ("positions", "embeddings"))
                      for i, layer in enumerate(doc.get("intermediates", [])))
        return cls(*_json_arrays(doc), inter)


@dataclass(frozen=True, eq=False)
class GroundTruthRecord(_MinutiaeRecord):
    """Reference targets matching one prediction's shapes."""


def _finite(arr, what: str, ndim: Optional[int] = None) -> np.ndarray:
    try:
        arr = np.asarray(arr, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        arr = np.array(math.inf)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must hold finite numbers")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _minutiae(positions, embeddings, prefix: str) -> Tuple[np.ndarray, np.ndarray]:
    """A minutia set's finite float64 ``(L, 3)`` x/y/theta rows and ``(L, d)``
    embeddings, else ``ValueError`` naming the field after ``prefix``."""
    po = _finite(positions, prefix + "positions")
    if po.ndim != 2 or po.shape[1] != 3:
        raise ValueError(f"{prefix}positions must have shape (L, 3), got {po.shape}")
    e = _finite(embeddings, prefix + "embeddings", ndim=2)
    if e.shape[0] != po.shape[0]:
        raise ValueError(f"{prefix}embeddings rows {e.shape[0]} != positions rows {po.shape[0]}")
    return po, e


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the weighted loss sum."""

    global_weight: float = 1.0
    position_weight: float = 1.0
    embedding_weight: float = 1.0
    intermediate_position_weight: float = 1.0
    intermediate_embedding_weight: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            number(value, name, lo=0.0)


@dataclass(frozen=True)
class LossBreakdown:
    global_loss: float
    position_loss: float
    embedding_loss: float
    intermediate_position_loss: float
    intermediate_embedding_loss: float
    total: float

    def to_dict(self) -> dict:
        """``asdict(self)``; the benchmark's loss check calls it."""
        return asdict(self)


def mse(a, b) -> float:
    """Mean of squared element differences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} != {b.shape}")
    if a.size == 0:
        raise ValueError("mse requires non-empty inputs")
    return float(np.mean((a - b) ** 2))


def reorder_ground_truth(pred_po, pred_e, gt_po, gt_e,
                         w: CorrespondenceWeights = CorrespondenceWeights()
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Permute ground-truth rows to align with the predictions.

    Row ``i`` of the returned arrays is the ground-truth minutia matched to
    prediction ``i`` by the optimal correspondence.
    """
    pred_po, pred_e = _minutiae(pred_po, pred_e, "pred ")
    gt_po, gt_e = _minutiae(gt_po, gt_e, "gt ")
    if pred_po.shape[0] != gt_po.shape[0]:
        raise ValueError(f"row count mismatch: {pred_po.shape[0]} != {gt_po.shape[0]}")
    return _reordered(pred_po, pred_e, gt_po, gt_e, w)


def _reordered(pred_po, pred_e, gt_po, gt_e, w: CorrespondenceWeights
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of checked ``gt_po`` and ``gt_e`` permuted by the optimal
    correspondence to the predictions: new arrays, empty for ``L = 0``."""
    cost = correspondence_cost_matrix(pred_po[:, :2], pred_po[:, 2], pred_e,
                                      gt_po[:, :2], gt_po[:, 2], gt_e, w)
    # A square solve pairs every row, and its pairs come sorted by row.
    perm = [col for _, col in solve_assignment(cost).pairs]
    return gt_po[perm], gt_e[perm]


def _mean_square(diff: np.ndarray) -> float:
    """The mean of ``diff`` squared, squared in place, as ``np.mean`` sums
    and divides."""
    diff *= diff
    return float(diff.sum() / diff.size)


def _layer_loss(po, e, gt: GroundTruthRecord, cw: CorrespondenceWeights) -> Tuple[float, float]:
    """Position and embedding MSEs of one layer against the ground truth
    reordered by that layer's own correspondence; theta's error is circular."""
    gt_po, gt_e = _reordered(po, e, gt.positions, gt.embeddings, cw)
    diff = po - gt_po
    diff[:, 2] = angular_distance(po[:, 2], gt_po[:, 2])
    return _mean_square(diff), _mean_square(e - gt_e)


def total_loss(pred: PredictionRecord, gt: GroundTruthRecord,
               w: LossWeights = LossWeights(),
               cw: CorrespondenceWeights = CorrespondenceWeights()) -> LossBreakdown:
    """Weighted sum of the global loss and every layer's position and
    embedding losses; the intermediate layers' terms are summed."""
    if pred.global_embedding.shape != gt.global_embedding.shape:
        raise ValueError("global embedding shape mismatch")
    if pred.positions.shape != gt.positions.shape or pred.embeddings.shape != gt.embeddings.shape:
        raise ValueError("minutiae shape mismatch between prediction and ground truth")
    if pred.positions.shape[0] == 0:  # every layer's MSE would be a mean of nothing
        raise ValueError("the records hold no minutiae: the position and embedding "
                         "losses need at least one")
    global_loss = mse(pred.global_embedding, gt.global_embedding)
    position_loss, embedding_loss = _layer_loss(pred.positions, pred.embeddings, gt, cw)
    inter = [_layer_loss(po, e, gt, cw) for po, e in pred.intermediates]
    intermediate_position_loss = math.fsum(p for p, _ in inter)
    intermediate_embedding_loss = math.fsum(e for _, e in inter)

    total = math.fsum((
        w.global_weight * global_loss,
        w.position_weight * position_loss,
        w.embedding_weight * embedding_loss,
        w.intermediate_position_weight * intermediate_position_loss,
        w.intermediate_embedding_weight * intermediate_embedding_loss,
    ))
    return LossBreakdown(
        global_loss=global_loss,
        position_loss=position_loss,
        embedding_loss=embedding_loss,
        intermediate_position_loss=intermediate_position_loss,
        intermediate_embedding_loss=intermediate_embedding_loss,
        total=total,
    )
