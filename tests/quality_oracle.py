"""Reference minutiae quality for the evaluation tests: the broadcast form, in
which the pairwise position differences are built as an ``(n, m, 2)`` array
and their squares summed, and the accepted pairs' errors are gathered in a
list, one ``float`` per pair."""

import numpy as np

from fpfuse.assignment import solve_assignment
from fpfuse.evaluation import MinutiaeQuality, _quality


def minutiae_quality(pred_positions, gt_positions) -> MinutiaeQuality:
    """Detection quality of predicted minutiae against a reference, pairs
    accepted within 20 px."""
    pred = np.asarray(pred_positions, dtype=np.float64).reshape(-1, 2)
    gt = np.asarray(gt_positions, dtype=np.float64).reshape(-1, 2)
    n_pred, n_gt = pred.shape[0], gt.shape[0]
    diff = pred[:, None, :] - gt[None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=2))
    errors = [float(cost[r, c]) for r, c in solve_assignment(cost).pairs
              if cost[r, c] <= 20.0]
    paired = len(errors)
    return _quality(paired, n_gt - paired, n_pred - paired, float(np.sum(errors)))
