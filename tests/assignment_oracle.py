"""The assignment kernels without their fast paths, for the property tests.

Each computes every step whatever its input: the solver takes the global
minimum, the row minima and the argmins separately, matches rows to their
argmin in a loop and reads its tie tolerance from a copy of the finite
entries; the cost matrix scales the embeddings by ``ldexp`` even when the
exponent is 0.  The fast paths must give the same pairs, totals, potentials
(by ``==``: a gathered minimum may be -0.0 where ``min`` gives +0.0) and
cost bits."""

import math
from typing import List, Tuple

import numpy as np

from fpfuse.assignment import (_TIE_TOL_SCALE, Assignment, CorrespondenceWeights,
                               InfeasibleAssignmentError, _canonical_pairs, _unique_optimum,
                               angular_distance, squared_distances)


def _augmenting_path_solve(cost: np.ndarray):
    """Match every row of ``cost`` (n <= m required) to a distinct column:
    row reduction, then shortest augmenting paths for the rows left over."""
    n, m = cost.shape
    u = cost.min(axis=1)
    blocked = np.flatnonzero(np.isinf(u))
    if blocked.size:
        raise InfeasibleAssignmentError(
            f"row {blocked[0]} cannot be matched: every entry is forbidden")
    v = np.zeros(m)
    col_of_row = [-1] * n
    row_of_col = [-1] * m
    for i, j in enumerate(cost.argmin(axis=1).tolist()):
        if row_of_col[j] < 0:
            row_of_col[j] = i
            col_of_row[i] = j
    for start in [i for i, j in enumerate(col_of_row) if j < 0]:
        reduced = cost - v
        minv = reduced[start] - u[start]
        way = np.full(m, -1, dtype=np.int64)
        scanned: List[Tuple[int, float]] = []
        while True:
            j = int(minv.argmin())
            dist = float(minv[j])
            if dist == math.inf:
                raise InfeasibleAssignmentError(
                    f"row {start} cannot be matched: forbidden entries block every maximal pairing")
            i = row_of_col[j]
            if i < 0:
                sink, total = j, dist
                break
            scanned.append((j, dist))
            reduced[:, j] = np.inf
            minv[j] = np.inf
            relaxed = reduced[i] + (dist - u[i])
            better = relaxed < minv
            np.copyto(minv, relaxed, where=better)
            way[better] = j
        u[start] += total
        for j, dist in scanned:
            u[row_of_col[j]] += total - dist
            v[j] += dist - total
        j = sink
        while True:
            pcol = int(way[j])
            i = start if pcol == -1 else row_of_col[pcol]
            row_of_col[j] = i
            col_of_row[i] = j
            if pcol == -1:
                break
            j = pcol
    return np.array(col_of_row, dtype=np.int64), np.array(row_of_col, dtype=np.int64), u, v


def tie_tolerance(cost: np.ndarray) -> float:
    """1e-9 of one plus the largest finite magnitude in a cost matrix free
    of NaN and -inf, read from a copy of its finite entries."""
    lo, hi = float(cost.min()), float(cost.max())
    if hi == math.inf:
        finite = cost[np.isfinite(cost)]
        peak = float(np.abs(finite).max()) if finite.size else 0.0
    else:
        peak = max(-lo, hi)
    return _TIE_TOL_SCALE * (1.0 + peak)


def solve_assignment(c) -> Assignment:
    """``fpfuse.solve_assignment`` by the steps above."""
    cost = np.asarray(c, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0)
    lo = float(cost.min())
    if math.isnan(lo):
        raise ValueError("cost matrix contains NaN")
    if lo == -math.inf:
        raise ValueError("cost matrix contains -inf")
    tol = tie_tolerance(cost)
    if n <= m:
        col_of_row, row_of_col, u, v = _augmenting_path_solve(cost)
    else:
        row_of_col, col_of_row, v, u = _augmenting_path_solve(cost.T)
    reduced = cost - u[:, None]
    if v.any():
        reduced -= v
    tight = reduced <= tol
    if not (_unique_optimum(tight, row_of_col) if n <= m
            else _unique_optimum(tight.T, col_of_row)):
        col_of_row = _canonical_pairs(tight, u, v, tol, col_of_row, row_of_col)
    rows = (col_of_row >= 0).nonzero()[0]
    cols = col_of_row[rows]
    total = math.fsum(cost[rows, cols].tolist())
    return Assignment(tuple(zip(rows.tolist(), cols.tolist())), total)


def correspondence_cost_matrix(pred_pos, pred_ori, pred_emb, gt_pos, gt_ori, gt_emb,
                               w: CorrespondenceWeights = CorrespondenceWeights()) -> np.ndarray:
    """``fpfuse.correspondence_cost_matrix``'s Gram form, scaled by
    ``2**-e`` and back whatever the exponent ``e``."""
    pred_pos = np.asarray(pred_pos, dtype=np.float64)
    gt_pos = np.asarray(gt_pos, dtype=np.float64)
    pred_emb = np.asarray(pred_emb, dtype=np.float64)
    gt_emb = np.asarray(gt_emb, dtype=np.float64)
    loc = squared_distances(pred_pos, gt_pos)
    np.sqrt(loc, out=loc)
    ori = angular_distance(np.asarray(pred_ori)[:, None], np.asarray(gt_ori)[None, :])
    peak = max(np.abs(pred_emb).max(initial=0.0), np.abs(gt_emb).max(initial=0.0))
    _, e = np.frexp(peak)
    a, b = np.ldexp(pred_emb, -e), np.ldexp(gt_emb, -e)
    emb = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)
    ab = a @ b.T
    ab *= 2.0
    emb -= ab
    np.maximum(emb, 0.0, out=emb)
    np.sqrt(emb, out=emb)
    np.ldexp(emb, e, out=emb)
    loc *= w.w_loc
    ori *= w.w_ori
    loc += ori
    emb *= w.w_emb
    loc += emb
    return loc
