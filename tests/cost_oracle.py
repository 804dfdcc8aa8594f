"""Reference correspondence costs for the loss tests: the broadcast form, in
which the pairwise differences are built as ``(n, m, k)`` arrays and their
squares summed, with no Gram form and no scaling."""

import numpy as np

from fpfuse.assignment import CorrespondenceWeights, angular_distance


def correspondence_cost_matrix(pred_pos, pred_ori, pred_emb, gt_pos, gt_ori, gt_emb,
                               w: CorrespondenceWeights = CorrespondenceWeights()) -> np.ndarray:
    """Pairwise minutia costs between two sets given as arrays."""
    pred_pos = np.asarray(pred_pos, dtype=np.float64)
    gt_pos = np.asarray(gt_pos, dtype=np.float64)
    pred_emb = np.asarray(pred_emb, dtype=np.float64)
    gt_emb = np.asarray(gt_emb, dtype=np.float64)
    if pred_emb.shape[1] != gt_emb.shape[1]:
        raise ValueError(
            f"embedding dimension mismatch: {pred_emb.shape[1]} != {gt_emb.shape[1]}")
    diff = pred_pos[:, None, :] - gt_pos[None, :, :]
    loc = np.sqrt((diff ** 2).sum(axis=2))
    ori = angular_distance(np.asarray(pred_ori)[:, None], np.asarray(gt_ori)[None, :])
    ediff = pred_emb[:, None, :] - gt_emb[None, :, :]
    emb = np.sqrt((ediff ** 2).sum(axis=2))
    return w.w_loc * loc + w.w_ori * ori + w.w_emb * emb
