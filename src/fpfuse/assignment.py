"""Exact minimum-cost one-to-one assignment and minutiae correspondence.

The solver finds a maximal pairing (``min(n, m)`` pairs) of globally minimal
total cost.  ``+inf`` entries mark forbidden pairs; if they block every
maximal pairing the solve fails.  Among equally cheap optima the
lexicographically smallest row-sorted pair sequence is returned, so results
are reproducible across runs and platforms.

:func:`correspondence_cost_matrix` scores every candidate pair between two
minutiae sets, given as arrays, with a weighted sum of the positional L2
distance, the circular orientation distance and the embedding L2 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .templates import TWO_PI


class InfeasibleAssignmentError(ValueError):
    """No maximal one-to-one pairing avoids the forbidden (+inf) entries."""


@dataclass(frozen=True)
class Assignment:
    """Row-sorted one-to-one pairs and their exact total cost."""

    pairs: Tuple[Tuple[int, int], ...]
    total_cost: float


@dataclass(frozen=True)
class CorrespondenceWeights:
    """Weights of the location / orientation / embedding distance terms."""

    w_loc: float = 1.0
    w_ori: float = 57.2958  # ~1 per degree, comparable to 1 per pixel
    w_emb: float = 20.0

    def __post_init__(self):
        if self.w_loc < 0 or self.w_ori < 0 or self.w_emb < 0:
            raise ValueError("correspondence weights must be nonnegative")
        if self.w_loc == 0 and self.w_ori == 0 and self.w_emb == 0:
            raise ValueError("correspondence weights must not all be zero")


def angular_distance(a, b):
    """Circular distance between angles in radians, in [0, pi].  Vectorized."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    diff = np.mod(diff, TWO_PI)
    out = np.minimum(diff, TWO_PI - diff)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Solver

_TIE_TOL_SCALE = 1e-9


def _augmenting_path_solve(cost: np.ndarray):
    """Match every row of ``cost`` (n <= m required) to a distinct column.

    Shortest augmenting paths with potentials, O(n * m^2).  Returns
    ``(col_of_row, row_of_col, u, v)`` where the potentials satisfy
    ``cost[i, j] - u[i] - v[j] >= 0`` with equality on matched pairs,
    and ``v <= 0`` with ``v == 0`` on unmatched columns.
    """
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m)
    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col = np.full(m, -1, dtype=np.int64)
    for start in range(n):
        minv = cost[start] - u[start] - v  # tentative distance to each column
        way = np.full(m, -1, dtype=np.int64)  # previous column on the cheapest known path
        used = np.zeros(m, dtype=bool)
        scanned: List[int] = []
        while True:
            cand = np.where(used, np.inf, minv)
            j = int(np.argmin(cand))
            dist = cand[j]
            if not np.isfinite(dist):
                raise InfeasibleAssignmentError(
                    f"row {start} cannot be matched: forbidden entries block every maximal pairing")
            used[j] = True
            if row_of_col[j] < 0:
                sink, total = j, dist
                break
            scanned.append(j)
            i = row_of_col[j]
            relaxed = dist + cost[i] - u[i] - v
            better = ~used & (relaxed < minv)
            minv = np.where(better, relaxed, minv)
            way = np.where(better, j, way)
        # Dual update keeps reduced costs nonnegative and the path tight.
        u[start] += total
        for j in scanned:
            u[row_of_col[j]] += total - minv[j]
            v[j] += minv[j] - total
        # Augment along the recorded path.
        j = sink
        while True:
            pcol = way[j]
            i = start if pcol == -1 else row_of_col[pcol]
            row_of_col[j] = i
            col_of_row[i] = j
            if pcol == -1:
                break
            j = pcol
    return col_of_row, row_of_col, u, v


def _is_unique_optimum(cost, col_of_row, u, v, tol) -> bool:
    """True when every off-solution entry has strictly positive reduced cost.

    Under that condition any other maximal pairing costs strictly more, so
    the solution is the unique optimum and already canonical.
    """
    red = cost - u[:, None] - v[None, :]
    red[np.arange(cost.shape[0]), col_of_row] = np.inf
    return bool((red > tol).all())


def _reroute(tight, fixed, r, c, col_of_row, row_of_col) -> bool:
    """Move row ``r`` to column ``c`` along an alternating cycle of tight
    edges that avoids ``fixed`` columns: a path from the row holding ``c``
    to the column holding ``r``, each of whose rows takes the column it
    reached.  Returns False, changing nothing, when there is no such cycle.
    """
    seen = fixed.copy()
    seen[c] = True
    via = np.empty(len(fixed), dtype=np.int64)  # row each seen column was reached from
    stack = [row_of_col[c]]
    while stack:
        i = stack.pop()
        cols = np.flatnonzero(tight[i] & ~seen)
        seen[cols] = True
        via[cols] = i
        if seen[col_of_row[r]]:
            j = col_of_row[r]
            while j != c:
                i = via[j]
                col_of_row[i], row_of_col[j], j = j, i, col_of_row[i]  # j: i's old column
            col_of_row[r], row_of_col[c] = c, r
            return True
        stack.extend(row_of_col[cols])
    return False


def _canonical_pairs(cost: np.ndarray, tol: float, col_of_row: np.ndarray,
                     row_of_col: np.ndarray, u: np.ndarray, v: np.ndarray) -> List[Tuple[int, int]]:
    """Lexicographically smallest optimal maximal pairing.

    Starts from an optimal matching of ``cost`` (-1 marks an unmatched row
    or column) and the potentials :func:`_augmenting_path_solve` leaves:
    ``v <= 0``, and 0 where unmatched.  Pads to a square matrix with
    zero-cost dummy rows/columns of potential 0 (a dummy column stands for
    "row unmatched") and pairs the free rows and columns, which keeps the
    solution optimal.  Every perfect matching of tight (zero reduced cost)
    edges is then optimal, and one holds edge (r, c) exactly when an
    alternating cycle runs through it.  So each real row in turn takes and
    fixes the first of its tight, unfixed columns, ascending with the
    dummies last, that is its own or that :func:`_reroute` reaches.
    """
    n, m = cost.shape
    s = max(n, m)
    sq = np.pad(cost, ((0, s - n), (0, s - m)))
    u = np.pad(u, (0, s - n))
    v = np.pad(v, (0, s - m))
    col_of_row = np.pad(col_of_row, (0, s - n), constant_values=-1)
    row_of_col = np.pad(row_of_col, (0, s - m), constant_values=-1)
    free_rows = np.flatnonzero(col_of_row < 0)
    free_cols = np.flatnonzero(row_of_col < 0)
    col_of_row[free_rows] = free_cols
    row_of_col[free_cols] = free_rows
    # Finite potentials leave every reduced cost finite or +inf, never NaN.
    tight = sq - u[:, None] - v[None, :] <= tol
    fixed = np.zeros(s, dtype=bool)
    for r in range(n):
        for c in np.flatnonzero(tight[r] & ~fixed):
            if c == col_of_row[r] or _reroute(tight, fixed, r, c, col_of_row, row_of_col):
                break
        fixed[c] = True
    return [(r, int(col_of_row[r])) for r in range(n) if col_of_row[r] < m]


def solve_assignment(c: np.ndarray | Sequence[Sequence[float]]) -> Assignment:
    """Minimum-cost maximal one-to-one pairing of rows to columns of a dense
    n x m cost matrix, where ``+inf`` marks a forbidden pair.

    Ties between optimal pairings break toward the lexicographically
    smallest row-sorted pair sequence.  Raises ``ValueError`` for a matrix
    that is not 2-D or holds NaN or -inf, and
    :class:`InfeasibleAssignmentError` when forbidden entries block every
    maximal pairing.  The input is never written to.
    """
    cost = np.asarray(c, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if np.isnan(cost).any():
        raise ValueError("cost matrix contains NaN")
    if np.isneginf(cost).any():
        raise ValueError("cost matrix contains -inf")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0)
    finite = cost[np.isfinite(cost)]
    tol = _TIE_TOL_SCALE * (1.0 + (float(np.abs(finite).max()) if finite.size else 0.0))
    if n <= m:
        col_of_row, row_of_col, u, v = _augmenting_path_solve(cost)
        pairs = [(i, int(col_of_row[i])) for i in range(n)]
        unique = _is_unique_optimum(cost, col_of_row, u, v, tol)
    else:
        # Solve the transpose; its row potentials belong to our columns.
        row_of_col, col_of_row, v, u = _augmenting_path_solve(cost.T)
        pairs = sorted((int(row_of_col[j]), j) for j in range(m))
        unique = _is_unique_optimum(cost.T, row_of_col, v, u, tol)
    if not unique:
        pairs = _canonical_pairs(cost, tol, col_of_row, row_of_col, u, v)
    total = math.fsum(cost[i, j] for i, j in pairs)
    return Assignment(tuple(pairs), total)


# ---------------------------------------------------------------------------
# Minutiae correspondence

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

