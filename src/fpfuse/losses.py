"""Reference implementation of the training objective.

The total loss is a global-embedding MSE plus, for the final layer and for
each intermediate decoder layer, a position/orientation MSE and a
local-embedding MSE taken after reordering the ground-truth minutiae rows
by that layer's own optimal correspondence.  Orientation is always
circular: the correspondence cost and the theta column of the position MSE
both use :func:`angular_distance`.  These are reference formulas over
plain arrays, not a training loop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from .assignment import (CorrespondenceWeights, correspondence_cost_matrix,
                         angular_distance, solve_assignment)
from .templates import json_numbers, number


@dataclass(frozen=True)
class _MinutiaeRecord:
    """Global embedding and minutiae rows, checked for shape and finiteness."""

    global_embedding: np.ndarray          # (d_g,)
    positions: np.ndarray                 # (L, 3): x, y, theta
    embeddings: np.ndarray                # (L, d_m)

    def __post_init__(self):
        object.__setattr__(self, "global_embedding",
                           _finite(self.global_embedding, "global_embedding"))
        object.__setattr__(self, "positions", _check_positions(self.positions, "positions"))
        object.__setattr__(self, "embeddings", _finite(self.embeddings, "embeddings"))
        L = self.positions.shape[0]
        if self.embeddings.shape[0] != L:
            raise ValueError(f"embeddings rows {self.embeddings.shape[0]} != positions rows {L}")

    @classmethod
    def from_dict(cls, doc: dict):
        """The record of a JSON object with ``global``, ``positions`` and ``embeddings``."""
        return cls(*_json_arrays(doc))


def _json_arrays(doc: dict, prefix: str = "", keys=("global", "positions", "embeddings")):
    """The arrays under ``keys`` of a JSON record, whose leaves must be numbers."""
    return tuple(np.asarray(json_numbers(doc[key], prefix + key)) for key in keys)


@dataclass(frozen=True)
class PredictionRecord(_MinutiaeRecord):
    """Model outputs for one image: global embedding, minutiae, per-layer intermediates."""

    intermediates: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        inter = tuple((_check_positions(po, f"intermediates[{i}].positions"),
                       _finite(e, f"intermediates[{i}].embeddings"))
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


@dataclass(frozen=True)
class GroundTruthRecord(_MinutiaeRecord):
    """Reference targets matching one prediction's shapes."""


def _finite(arr, what: str) -> np.ndarray:
    try:
        arr = np.asarray(arr, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        arr = np.array(math.inf)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must hold finite numbers")
    return arr


def _check_positions(arr, what: str) -> np.ndarray:
    arr = _finite(arr, what)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{what} must have shape (L, 3), got {arr.shape}")
    return arr


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


def mse_gradient(a, b) -> np.ndarray:
    """Analytic gradient of :func:`mse` with respect to ``a``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} != {b.shape}")
    return 2.0 * (a - b) / a.size


def reorder_ground_truth(pred_po, pred_e, gt_po, gt_e,
                         w: CorrespondenceWeights = CorrespondenceWeights()
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Permute ground-truth rows to align with the predictions.

    Row ``i`` of the returned arrays is the ground-truth minutia matched to
    prediction ``i`` by the optimal correspondence.
    """
    pred_po = _check_positions(pred_po, "pred positions")
    gt_po = _check_positions(gt_po, "gt positions")
    gt_e = np.asarray(gt_e, dtype=np.float64)
    if pred_po.shape[0] != gt_po.shape[0]:
        raise ValueError(f"row count mismatch: {pred_po.shape[0]} != {gt_po.shape[0]}")
    if pred_po.shape[0] == 0:
        return gt_po.copy(), gt_e.copy()
    cost = correspondence_cost_matrix(pred_po[:, :2], pred_po[:, 2], pred_e,
                                      gt_po[:, :2], gt_po[:, 2], gt_e, w)
    # A square solve pairs every row, and its pairs come sorted by row.
    perm = [col for _, col in solve_assignment(cost).pairs]
    return gt_po[perm], gt_e[perm]


def _layer_loss(po, e, gt: GroundTruthRecord, cw: CorrespondenceWeights) -> Tuple[float, float]:
    """Position and embedding MSEs of one layer against the ground truth
    reordered by that layer's own correspondence; theta's error is circular."""
    gt_po, gt_e = reorder_ground_truth(po, e, gt.positions, gt.embeddings, cw)
    sq = (po - gt_po) ** 2
    sq[:, 2] = angular_distance(po[:, 2], gt_po[:, 2]) ** 2
    return float(np.mean(sq)), mse(e, gt_e)


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
