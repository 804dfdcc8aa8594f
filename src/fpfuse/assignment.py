"""Exact minimum-cost one-to-one assignment and minutiae correspondence.

The solver finds a maximal pairing (``min(n, m)`` pairs) of globally minimal
total cost.  ``+inf`` entries mark forbidden pairs; if they block every
maximal pairing the solve fails.  Among equally cheap optima the
lexicographically smallest row-sorted pair sequence is returned, so results
are reproducible across runs and platforms.

A solve finds one optimal matching and its dual potentials, then returns
the canonical one among the optima.  The canonical pass, which searches
alternating cycles of tight (zero reduced cost) edges row by row, is skipped
when a cheaper test proves the optimum found unique: the digraph of tight
edges between rows, oriented by the matching, has no cycle.  Dijkstra's
dual update leaves tight edges beyond the matched pairs on most dense
problems, so testing for those alone would send most of them through the
pass.  The acyclicity test held for all 400 minutiae-quality solves of two
seeded 50x4 synthetic corpora.

:func:`correspondence_cost_matrix` scores every candidate pair between two
minutiae sets, given as arrays, with a weighted sum of the positional L2
distance, the circular orientation distance and the embedding L2 distance.
It builds no ``(n, m, d)`` array: the location term comes from
:func:`squared_distances`, and the embedding term from the Gram form
``sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0))`` of both sets scaled by one power of
two.  That term is accurate to about 1e-8 of the embeddings' norm near zero
distance, and its last bits depend on the BLAS build.
:func:`squared_distances` is the one planar distance of the package: these
costs, ``evaluation.minutiae_quality`` and ``matching.local_match``'s
geometric filter take it.  :func:`angular_distance` reduces the absolute
difference of two angles by ``np.fmod``, at about half the cost of
``np.mod``'s floor remainder and with its bits: on operands of one sign the
two differ only in a sign fix that never fires, and both give +0.0 for a
zero remainder.

Three kernels skip work whose result their input already fixes, so every
output keeps its bits:

* :func:`angular_distance` takes the remainder only when some difference
  is 2 pi or more, or NaN: below 2 pi, ``fmod`` returns its operand.
* :func:`correspondence_cost_matrix` skips its three ``ldexp`` calls when
  the embeddings' binary exponent is 0 (their largest magnitude lies in
  [0.5, 1)) and both embedding arrays are contiguous: ``ldexp(x, 0)`` is
  ``x``, in ``x``'s layout, and the product's bits follow the layout.
* :func:`solve_assignment` takes one ``argmin`` per row and gathers the row
  minima at it for its NaN and -inf checks, its tie tolerance and the warm
  start, which pairs every row with its argmin at once when no two rows
  share one.  A gathered minimum may be -0.0 where ``min`` gives +0.0;
  potentials enter only comparisons and sums, so no pair or total moves.
  With +inf present, the tie tolerance reads the largest finite entry by a
  masked max, not from a copy of the finite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .templates import TWO_PI, checked


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
        checked(self, "w_loc", "w_ori", "w_emb", lo=0.0)
        if self.w_loc == 0 and self.w_ori == 0 and self.w_emb == 0:
            raise ValueError("correspondence weights must not all be zero")


def angular_distance(a, b):
    """Circular distance between angles in radians, in [0, pi].  Vectorized."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    if not diff.max(initial=0.0) < TWO_PI:  # a NaN fails the test and takes fmod too
        diff = np.fmod(diff, TWO_PI)
    out = np.minimum(diff, TWO_PI - diff)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Solver

_TIE_TOL_SCALE = 1e-9


def _augmenting_path_solve(cost: np.ndarray, first=None, u=None):
    """Match every row of ``cost`` (n <= m required) to a distinct column.

    Returns ``(col_of_row, row_of_col, u, v)`` where the potentials satisfy
    ``cost[i, j] - u[i] - v[j] >= 0`` with equality on matched pairs,
    and ``v <= 0`` with ``v == 0`` on unmatched columns.

    Warm start by row reduction, the first phase of Jonker & Volgenant, "A
    shortest augmenting path algorithm for dense and sparse linear
    assignment problems" (Computing 38, 1987): ``u`` is each row's minimum
    and ``v = 0``, and in row order each row takes its first argmin column
    unless an earlier row holds it.  One ``argmin`` per row gives both:
    ``first``, each row's first argmin column, and ``u``, the minima
    gathered at it.  A caller that has both passes both, and ``u`` is then
    updated in place.  A gathered minimum may be -0.0 where ``min`` gives
    +0.0; potentials enter only comparisons and sums, so no pair or total
    can move.  When no two rows share their argmin, every row takes it at
    once, with no loop.  Shortest augmenting paths (Dijkstra on reduced
    costs, O(m^2) each) then match only the rows left over.  Each takes
    ``cost - v`` once and sets a column of it to +inf once the column is
    scanned, so one vector add relaxes a row and never lowers the distance
    of a scanned column.
    """
    n, m = cost.shape
    if first is None:
        first = cost.argmin(axis=1)
        u = cost[np.arange(n), first]
    blocked = np.flatnonzero(np.isinf(u))
    if blocked.size:  # an all-+inf row would turn its reduced costs into NaN
        raise InfeasibleAssignmentError(
            f"row {blocked[0]} cannot be matched: every entry is forbidden")
    v = np.zeros(m)
    cols = first.tolist()
    if len(set(cols)) == n:  # no two rows share their argmin
        row_of_col = np.empty(m, dtype=np.int64)
        row_of_col.fill(-1)
        row_of_col[first] = np.arange(n)
        return first.astype(np.int64, copy=False), row_of_col, u, v
    col_of_row = [-1] * n
    row_of_col = [-1] * m
    for i, j in enumerate(cols):
        if row_of_col[j] < 0:
            row_of_col[j] = i
            col_of_row[i] = j
    for start in [i for i, j in enumerate(col_of_row) if j < 0]:
        reduced = cost - v  # all but the row potential; a scanned column turns +inf
        minv = reduced[start] - u[start]  # tentative distance to each unscanned column
        way = np.full(m, -1, dtype=np.int64)  # previous column on the cheapest known path
        scanned: List[Tuple[int, float]] = []  # (column, its distance)
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
        # Dual update keeps reduced costs nonnegative and the path tight.
        u[start] += total
        for j, dist in scanned:
            u[row_of_col[j]] += total - dist
            v[j] += dist - total
        # Augment along the recorded path.
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


def _unique_optimum(tight: np.ndarray, row_of_col: np.ndarray) -> bool:
    """True when the optimal matching found is the only optimal maximal
    pairing, so that :func:`_canonical_pairs` would return it unchanged.

    Takes the tight mask of an n x m problem with n <= m and the row holding
    each column (-1 for a free one); every row is matched.  Padded as
    :func:`_canonical_pairs` pads it, another optimal pairing exists exactly
    when an alternating cycle of tight edges moves a real row (Régin, AAAI
    1994; Tassa, TCS 423, 2012).  Such a cycle is a cycle of the digraph
    with an edge r -> r' for each row r tight to the column r' holds.  Kahn's
    algorithm finds one unless it removes every edge; self-loops, a row's
    own column, are left out.

    A row tight to a free column refuses the certificate at once.  Its edge
    enters the dummy rows, which are tight to every column of potential 0.
    Following their edges closed a cycle in every one of some 37 000 seeded
    problems tried, so that longer test would certify no more.
    """
    if np.count_nonzero(tight) == tight.shape[0]:  # only the matched pairs are tight
        return True
    rows, cols = np.nonzero(tight)
    heads = row_of_col[cols]
    if (heads < 0).any():
        return False
    moved = heads != rows
    successors = {}
    indegree = {}
    for r, h in zip(rows[moved].tolist(), heads[moved].tolist()):
        successors.setdefault(r, []).append(h)
        indegree[h] = indegree.get(h, 0) + 1
    ready = [r for r in successors if r not in indegree]
    while ready:
        for h in successors.get(ready.pop(), ()):
            indegree[h] -= 1
            if not indegree[h]:
                ready.append(h)
    return not any(indegree.values())


def _canonical_pairs(tight: np.ndarray, u: np.ndarray, v: np.ndarray, tol: float,
                     col_of_row: np.ndarray, row_of_col: np.ndarray) -> np.ndarray:
    """Column of each row in the lexicographically smallest optimal maximal
    pairing, -1 for an unmatched row.

    Runs only when :func:`_unique_optimum` fails: when the optimum is
    unique, the matching found is that pairing and this pass would return it
    unchanged, at several times the certificate's cost.

    Starts from an optimal matching (-1 marks an unmatched row or column),
    the potentials :func:`_augmenting_path_solve` leaves (``v <= 0``, and 0
    where unmatched) and the n x m mask of their tight (zero reduced cost)
    entries.  Pads to a square matrix with zero-cost dummy rows/columns of
    potential 0 (a dummy column stands for "row unmatched") and pairs the
    free rows and columns, which keeps the solution optimal.  Every perfect
    matching of tight edges is then optimal, and one holds edge (r, c)
    exactly when an alternating cycle runs through it.  So each real row in
    turn takes and fixes the first of its tight, unfixed columns, ascending
    with the dummies last, that is its own or that :func:`_reroute` reaches.

    A row whose own column is the first tight column of its whole row keeps
    it without a search: no earlier column can be taken, and its own column
    is never fixed, since only the columns of earlier rows are.
    """
    n, m = tight.shape
    s = max(n, m)
    # Padded reduced costs: real rows x dummy columns are 0 - u, dummy rows x
    # real columns 0 - v.  There is no dummy x dummy block, as s = max(n, m).
    square = np.empty((s, s), dtype=bool)
    square[:n, :m] = tight
    square[:n, m:] = (-u <= tol)[:, None]
    square[n:, :m] = -v <= tol
    col_of_row = np.concatenate([col_of_row, np.full(s - n, -1)])
    row_of_col = np.concatenate([row_of_col, np.full(s - m, -1)])
    free_rows = np.flatnonzero(col_of_row < 0)
    free_cols = np.flatnonzero(row_of_col < 0)
    col_of_row[free_rows] = free_cols
    row_of_col[free_cols] = free_rows
    first_tight = square[:n].argmax(axis=1).tolist()
    fixed = np.zeros(s, dtype=bool)
    for r in range(n):
        c = col_of_row[r]
        if first_tight[r] != c:
            for c in np.flatnonzero(square[r] & ~fixed):
                if c == col_of_row[r] or _reroute(square, fixed, r, c, col_of_row, row_of_col):
                    break
        fixed[c] = True
    return np.where(col_of_row[:n] < m, col_of_row[:n], -1)


def _tie_tolerance(cost: np.ndarray, lo: float) -> float:
    """How far above zero a reduced cost still counts as tight: 1e-9 of one
    plus the largest finite magnitude in ``cost``, a matrix free of NaN and
    -inf whose smallest entry is ``lo``.  With +inf present that magnitude
    is the largest of ``-lo``, the largest finite entry and 0, which a
    masked max reads without copying the finite entries out."""
    hi = float(cost.max())
    if hi == math.inf:
        peak = max(-lo, float(cost.max(where=np.isfinite(cost), initial=-math.inf)), 0.0)
    else:
        peak = max(-lo, hi)
    return _TIE_TOL_SCALE * (1.0 + peak)


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
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0)
    # One argmin per row of the n <= m orientation gives the row minima the
    # warm start needs.  argmin returns a row's first NaN, else its first
    # -inf, so the minima hold one exactly when the matrix does.
    oriented = cost if n <= m else cost.T
    first = oriented.argmin(axis=1)
    minima = oriented[np.arange(len(first)), first]
    lo = float(minima.min())  # NaN when any entry is NaN
    if math.isnan(lo):
        raise ValueError("cost matrix contains NaN")
    if lo == -math.inf:
        raise ValueError("cost matrix contains -inf")
    tol = _tie_tolerance(cost, lo)
    col_of_row, row_of_col, u, v = _augmenting_path_solve(oriented, first, minima)
    if n > m:  # the transpose was solved: its row potentials belong to our columns
        col_of_row, row_of_col, u, v = row_of_col, col_of_row, v, u
    # Finite potentials leave every reduced cost finite or +inf, never NaN.
    # Without a Dijkstra pass every column potential is +0.0, and x - 0.0 is x.
    reduced = cost - u[:, None]
    if v.any():
        reduced -= v
    tight = reduced <= tol
    # A unique optimum is the canonical one.  Uniqueness does not depend on
    # the orientation, so the certificate takes the one with n <= m.
    if not (_unique_optimum(tight, row_of_col) if n <= m
            else _unique_optimum(tight.T, col_of_row)):
        col_of_row = _canonical_pairs(tight, u, v, tol, col_of_row, row_of_col)
    rows = (col_of_row >= 0).nonzero()[0]
    cols = col_of_row[rows]
    total = math.fsum(cost[rows, cols].tolist())
    return Assignment(tuple(zip(rows.tolist(), cols.tolist())), total)


# ---------------------------------------------------------------------------
# Minutiae correspondence

def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(n, m)`` squared distances between the rows of ``(n, 2)`` and
    ``(m, 2)`` position arrays: ``dx*dx + dy*dy`` over the planes of x and y
    differences, the bits of a broadcast sum of squares without its
    ``(n, m, 2)`` array."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def correspondence_cost_matrix(pred_pos, pred_ori, pred_emb, gt_pos, gt_ori, gt_emb,
                               w: CorrespondenceWeights = CorrespondenceWeights()) -> np.ndarray:
    """Pairwise minutia costs between two sets given as arrays: positions
    ``(n, 2)``, orientations ``(n,)`` and embeddings ``(n, d)``.

    The location distance is the root of :func:`squared_distances`.  The
    embedding distance is taken in Gram form,
    ``sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0))``, after both embedding sets are
    scaled by ``2**-e``, where ``e`` is the binary exponent
    (:func:`numpy.frexp`) of their largest absolute value; the root is
    scaled back by ``2**e``.  A power-of-two scaling is exact, so
    normal-range inputs give the bits of the unscaled form, while
    embeddings near either end of the float range neither overflow to
    ``inf - inf`` nor lose their squares to underflow.  The Gram form
    cancels near zero distance: there it is accurate to about 1e-8 of the
    embeddings' norm, so two equal rows may cost that much, not 0.  Its
    last bits depend on the BLAS build.  Elsewhere a pair's cost differs
    from the broadcast form's by about 1e-13 on costs in the hundreds, far
    inside :func:`solve_assignment`'s relative tie tolerance of 1e-9.
    """
    pred_pos = np.asarray(pred_pos, dtype=np.float64)
    gt_pos = np.asarray(gt_pos, dtype=np.float64)
    pred_emb = np.asarray(pred_emb, dtype=np.float64)
    gt_emb = np.asarray(gt_emb, dtype=np.float64)
    if pred_emb.ndim != 2 or gt_emb.ndim != 2:
        raise ValueError(f"embeddings must be 2-D (L, d), got shapes "
                         f"{pred_emb.shape} and {gt_emb.shape}")
    if pred_emb.shape[1] != gt_emb.shape[1]:
        raise ValueError(
            f"embedding dimension mismatch: {pred_emb.shape[1]} != {gt_emb.shape[1]}")
    # Each plane is built once and then updated in place, by the operations
    # of ``w_loc*loc + w_ori*ori + w_emb*emb`` in their order.
    loc = squared_distances(pred_pos, gt_pos)
    np.sqrt(loc, out=loc)
    ori = angular_distance(np.asarray(pred_ori)[:, None], np.asarray(gt_ori)[None, :])
    peak = max(np.abs(pred_emb).max(initial=0.0), np.abs(gt_emb).max(initial=0.0))
    _, e = np.frexp(peak)  # ldexp scales without forming 2**-e, which can overflow
    # ldexp(x, 0) is x, in x's layout when x is contiguous.  A strided view
    # still takes the copy: the bits of the product follow the layout.
    if e or not (pred_emb.flags.forc and gt_emb.flags.forc):
        a, b = np.ldexp(pred_emb, -e), np.ldexp(gt_emb, -e)
    else:
        a, b = pred_emb, gt_emb
    emb = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)
    ab = a @ b.T
    ab *= 2.0
    emb -= ab
    np.maximum(emb, 0.0, out=emb)
    np.sqrt(emb, out=emb)
    if e:
        np.ldexp(emb, e, out=emb)
    loc *= w.w_loc
    ori *= w.w_ori
    loc += ori
    emb *= w.w_emb
    loc += emb
    return loc
