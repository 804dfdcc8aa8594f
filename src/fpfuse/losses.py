"""Reference implementation of the training objective.

The total loss combines a global-embedding MSE, position/orientation and
local-embedding MSEs computed after reordering the ground-truth minutiae
rows by optimal correspondence, and the analogous terms summed over the
five intermediate decoder layers (each layer refits its own
correspondence).  These are reference formulas over plain arrays, not a
training loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import List, Tuple

import numpy as np

from .assignment import (CorrespondenceWeights, correspondence_cost_matrix,
                         angular_distance, solve_assignment)
from .pipeline import as_float


@dataclass(frozen=True)
class PredictionRecord:
    """Model outputs for one image: global embedding, minutiae, per-layer intermediates."""

    global_embedding: np.ndarray          # (d_g,)
    positions: np.ndarray                 # (L, 3): x, y, theta
    embeddings: np.ndarray                # (L, d_m)
    intermediates: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "global_embedding",
                           _finite(self.global_embedding, "global_embedding"))
        object.__setattr__(self, "positions", _check_positions(self.positions, "positions"))
        object.__setattr__(self, "embeddings", _finite(self.embeddings, "embeddings"))
        inter = tuple((_check_positions(po, f"intermediates[{i}].positions"),
                       _finite(e, f"intermediates[{i}].embeddings"))
                      for i, (po, e) in enumerate(self.intermediates))
        object.__setattr__(self, "intermediates", inter)
        L = self.positions.shape[0]
        if self.embeddings.shape[0] != L:
            raise ValueError(f"embeddings rows {self.embeddings.shape[0]} != positions rows {L}")
        for i, (po, e) in enumerate(inter):
            if po.shape != self.positions.shape or e.shape != self.embeddings.shape:
                raise ValueError(f"intermediate layer {i} shape mismatch")

    @classmethod
    def from_dict(cls, doc: dict) -> "PredictionRecord":
        inter = tuple((np.asarray(layer["positions"]), np.asarray(layer["embeddings"]))
                      for layer in doc.get("intermediates", []))
        return cls(global_embedding=np.asarray(doc["global"]),
                   positions=np.asarray(doc["positions"]),
                   embeddings=np.asarray(doc["embeddings"]),
                   intermediates=inter)


@dataclass(frozen=True)
class GroundTruthRecord:
    """Reference targets matching one prediction's shapes."""

    global_embedding: np.ndarray
    positions: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "global_embedding",
                           _finite(self.global_embedding, "global_embedding"))
        object.__setattr__(self, "positions", _check_positions(self.positions, "positions"))
        object.__setattr__(self, "embeddings", _finite(self.embeddings, "embeddings"))
        if self.embeddings.shape[0] != self.positions.shape[0]:
            raise ValueError("embeddings rows != positions rows")

    @classmethod
    def from_dict(cls, doc: dict) -> "GroundTruthRecord":
        return cls(global_embedding=np.asarray(doc["global"]),
                   positions=np.asarray(doc["positions"]),
                   embeddings=np.asarray(doc["embeddings"]))


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
            # A finite number that is not a bool; NaN fails the comparison.
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not 0 <= as_float(value) < math.inf):
                raise ValueError(f"{name} must be a nonnegative finite number, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "LossWeights":
        return cls(**doc)


@dataclass(frozen=True)
class LossBreakdown:
    global_loss: float
    position_loss: float
    embedding_loss: float
    intermediate_position_loss: float
    intermediate_embedding_loss: float
    total: float

    def to_dict(self) -> dict:
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


def _position_mse(pred_po: np.ndarray, gt_po: np.ndarray, circular_orientation: bool) -> float:
    """MSE over (x, y, theta) rows; the theta column optionally uses the circular distance."""
    if not circular_orientation:
        return mse(pred_po, gt_po)
    diff = pred_po - gt_po
    sq = diff ** 2
    sq[:, 2] = angular_distance(pred_po[:, 2], gt_po[:, 2]) ** 2
    return float(np.mean(sq))


def _correspondence_permutation(pred_po, pred_e, gt_po, gt_e,
                                w: CorrespondenceWeights,
                                circular_orientation: bool) -> np.ndarray:
    cost = correspondence_cost_matrix(
        pred_po[:, :2], pred_po[:, 2], pred_e,
        gt_po[:, :2], gt_po[:, 2], gt_e,
        w, circular_orientation)
    result = solve_assignment(cost)
    perm = np.empty(pred_po.shape[0], dtype=np.int64)
    for row, col in result.pairs:
        perm[row] = col
    return perm


def reorder_ground_truth(pred_po, pred_e, gt_po, gt_e,
                         w: CorrespondenceWeights = CorrespondenceWeights(),
                         circular_orientation: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Permute ground-truth rows to align with the predictions.

    Row ``i`` of the returned arrays is the ground-truth minutia matched to
    prediction ``i`` by the optimal correspondence.
    """
    pred_po = _check_positions(pred_po, "pred positions")
    gt_po = _check_positions(gt_po, "gt positions")
    pred_e = np.asarray(pred_e, dtype=np.float64)
    gt_e = np.asarray(gt_e, dtype=np.float64)
    if pred_po.shape[0] != gt_po.shape[0]:
        raise ValueError(f"row count mismatch: {pred_po.shape[0]} != {gt_po.shape[0]}")
    if pred_po.shape[0] == 0:
        return gt_po.copy(), gt_e.copy()
    perm = _correspondence_permutation(pred_po, pred_e, gt_po, gt_e, w, circular_orientation)
    return gt_po[perm], gt_e[perm]


def total_loss(pred: PredictionRecord, gt: GroundTruthRecord,
               w: LossWeights = LossWeights(),
               cw: CorrespondenceWeights = CorrespondenceWeights(),
               circular_orientation: bool = True) -> LossBreakdown:
    """Weighted sum of global, local and per-layer intermediate losses.

    Each intermediate layer refits its own correspondence against the
    ground truth before its MSE terms are computed.
    """
    if pred.global_embedding.shape != gt.global_embedding.shape:
        raise ValueError("global embedding shape mismatch")
    if pred.positions.shape != gt.positions.shape or pred.embeddings.shape != gt.embeddings.shape:
        raise ValueError("minutiae shape mismatch between prediction and ground truth")
    global_loss = mse(pred.global_embedding, gt.global_embedding)

    gt_po, gt_e = reorder_ground_truth(pred.positions, pred.embeddings,
                                       gt.positions, gt.embeddings, cw, circular_orientation)
    position_loss = _position_mse(pred.positions, gt_po, circular_orientation)
    embedding_loss = mse(pred.embeddings, gt_e)

    inter_po_terms: List[float] = []
    inter_e_terms: List[float] = []
    for layer_po, layer_e in pred.intermediates:
        l_po, l_e = reorder_ground_truth(layer_po, layer_e,
                                         gt.positions, gt.embeddings, cw, circular_orientation)
        inter_po_terms.append(_position_mse(layer_po, l_po, circular_orientation))
        inter_e_terms.append(mse(layer_e, l_e))
    intermediate_position_loss = math.fsum(inter_po_terms)
    intermediate_embedding_loss = math.fsum(inter_e_terms)

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
