"""Reference training loss for the property tests: each layer reordered by
the public ``reorder_ground_truth``, its theta error taken circularly and its
MSEs by ``np.mean``, as separate calls that check their inputs each time."""

import math

import numpy as np

from fpfuse.assignment import CorrespondenceWeights, angular_distance
from fpfuse.losses import LossBreakdown, LossWeights, mse, reorder_ground_truth


def _layer_loss(po, e, gt, cw):
    gt_po, gt_e = reorder_ground_truth(po, e, gt.positions, gt.embeddings, cw)
    sq = (po - gt_po) ** 2
    sq[:, 2] = angular_distance(po[:, 2], gt_po[:, 2]) ** 2
    return float(np.mean(sq)), mse(e, gt_e)


def total_loss(pred, gt, w=LossWeights(), cw=CorrespondenceWeights()) -> LossBreakdown:
    """Weighted sum of the global loss and every layer's position and
    embedding losses; the intermediate layers' terms are summed."""
    if pred.global_embedding.shape != gt.global_embedding.shape:
        raise ValueError("global embedding shape mismatch")
    if pred.positions.shape != gt.positions.shape or pred.embeddings.shape != gt.embeddings.shape:
        raise ValueError("minutiae shape mismatch between prediction and ground truth")
    if pred.positions.shape[0] == 0:
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
    return LossBreakdown(global_loss, position_loss, embedding_loss,
                         intermediate_position_loss, intermediate_embedding_loss, total)
