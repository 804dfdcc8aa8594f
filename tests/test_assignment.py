import hashlib
import importlib.util
import itertools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fpfuse import (Assignment, CorrespondenceWeights, InfeasibleAssignmentError,
                    angular_distance, correspondence_cost_matrix,
                    reorder_ground_truth, solve_assignment)
from fpfuse import assignment

from conftest import as_arrays, brute_force, random_minutia, unit


def test_single_entry():
    result = solve_assignment([[3.0]])
    assert result.pairs == ((0, 0),)
    assert result.total_cost == 3.0


def test_three_by_three_example():
    result = solve_assignment([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    assert set(result.pairs) == {(0, 1), (1, 0), (2, 2)}
    assert result.total_cost == 5.0


def test_rectangular_dominant_diagonal():
    result = solve_assignment([[1, 9, 9], [9, 1, 9]])
    assert result.pairs == ((0, 0), (1, 1))
    assert result.total_cost == 2.0


def test_empty_matrix():
    assert solve_assignment(np.zeros((0, 3))).pairs == ()
    assert solve_assignment(np.zeros((3, 0))).total_cost == 0.0


def test_infeasible_raises():
    # The all-+inf rows and the all-+inf column (a row of the transposed
    # solve) would get a row-reduction potential of +inf and NaN reduced
    # costs; they must be refused, not matched on NaN comparisons.
    for cost in ([[np.inf]],
                 [[1.0, np.inf], [np.inf, np.inf]],
                 [[1.0, 2.0, 3.0], [np.inf] * 3],                  # n < m
                 [[np.inf] * 3, [0.0, 1.0, 2.0], [1.0, 0.0, 2.0]],  # n == m, the first row
                 [[1.0, np.inf], [-2.0, np.inf], [3.0, np.inf]]):  # n > m, a column
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(cost)


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        solve_assignment(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[-np.inf]]))


@pytest.mark.parametrize("cost, error", [
    ([[np.nan, -np.inf]], "NaN"),            # NaN is named first, as it always was
    ([[-np.inf, np.nan], [1.0, 2.0]], "NaN"),
    ([[1.0, -np.inf], [np.inf, 2.0]], "-inf"),
    ([[np.inf, np.nan]], "NaN"),
])
def test_cost_matrix_errors_keep_their_order(cost, error):
    with pytest.raises(ValueError, match=f"cost matrix contains {re.escape(error)}$"):
        solve_assignment(cost)


def test_oracle_random_floats():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(-5, 10, size=(n, m))
        before = cost.copy()
        got = solve_assignment(cost)
        assert np.array_equal(cost, before)
        total, seq = brute_force(cost)
        assert got.total_cost == pytest.approx(total, abs=1e-9)
        assert got.pairs == seq


def test_oracle_tie_rich_integers():
    # small integer entries force many optima; pairs must match the
    # lexicographically smallest optimum exactly
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        cost = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        got = solve_assignment(cost)
        total, seq = brute_force(cost)
        assert got.total_cost == total
        assert got.pairs == seq


def test_oracle_with_sentinels():
    rng = np.random.default_rng(44)
    infeasible_seen = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        cost = rng.integers(0, 4, size=(n, m)).astype(np.float64)
        cost[rng.random((n, m)) < 0.35] = np.inf
        best = brute_force(cost)
        if best is None:
            infeasible_seen += 1
            with pytest.raises(InfeasibleAssignmentError):
                solve_assignment(cost)
        else:
            got = solve_assignment(cost)
            assert got.total_cost == best[0]
            assert got.pairs == best[1]
    assert infeasible_seen > 0


def test_lexicographic_minimality_beyond_brute_force():
    # Each row's column (m for unmatched) is the smallest free one it can
    # take: forcing an earlier free column onto the row, with the earlier
    # rows fixed, must cost more or be infeasible.  Too large for the
    # brute-force oracle, and tie-rich enough for long alternating cycles.
    rng = np.random.default_rng(49)
    for _ in range(60):
        n, m = (int(k) for k in rng.integers(8, 25, size=2))
        cost = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        got = solve_assignment(cost)
        col = dict(got.pairs)
        prefix = cost.copy()  # the rows before r fixed as the solution pairs them
        taken = set()
        for r in range(n):
            own = col.get(r, m)
            for c in sorted(set(range(own)) - taken):
                forced = prefix.copy()
                forced[r, :] = np.inf
                forced[:, c] = np.inf
                forced[r, c] = cost[r, c]
                try:
                    alt = solve_assignment(forced)
                except InfeasibleAssignmentError:
                    continue
                assert (r, c) not in alt.pairs or alt.total_cost > got.total_cost
            prefix[r, :] = np.inf
            if own < m:
                prefix[:, own] = np.inf
                prefix[r, own] = cost[r, own]
                taken.add(own)


@pytest.mark.parametrize("cost", [np.zeros((2, 3)), np.zeros((3, 2))])
def test_certificate_refuses_a_tie(cost):
    """Every pairing of an all-zero matrix is optimal, so the certificate
    must refuse and the canonical pass pick the smallest pairs."""
    with mock.patch("fpfuse.assignment._canonical_pairs",
                    wraps=assignment._canonical_pairs) as canonical:
        got = solve_assignment(cost)
    assert canonical.call_count == 1
    assert got.pairs == ((0, 0), (1, 1))


@pytest.mark.parametrize("cost", [[[0.0, 5.0, 2.0], [0.0, 1.0, 5.0]],
                                  [[0.0, 0.0], [5.0, 1.0], [2.0, 5.0]]])
def test_certificate_skips_the_pass_on_a_unique_optimum(cost):
    """Dijkstra leaves a tight edge beyond the matched pairs, row 1 to row
    0's column, but no alternating cycle closes: the pass is skipped."""
    with mock.patch("fpfuse.assignment._canonical_pairs") as canonical:
        got = solve_assignment(cost)
    canonical.assert_not_called()
    assert got == Assignment(((0, 0), (1, 1)), 1.0)


def test_solver_digest_is_pinned():
    """The pairs and totals of ``tools/assignment_digest.py``'s 7400 seeded
    problems, hashed as its ``main`` does, are those the solver has always
    given."""
    path = Path(__file__).resolve().parents[1] / "tools" / "assignment_digest.py"
    spec = importlib.util.spec_from_file_location("assignment_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    digest = hashlib.sha256("\n".join(tool.results()).encode()).hexdigest()
    assert digest == "15c8144c8a2b922025c9d7c3937eb9c93ba8bc364c99c5ff27462c612e2b5a1b"


def test_permutation_invariance():
    rng = np.random.default_rng(45)
    cost = rng.uniform(0, 10, size=(5, 6))
    base = solve_assignment(cost)
    rperm = rng.permutation(5)
    cperm = rng.permutation(6)
    permuted = solve_assignment(cost[np.ix_(rperm, cperm)])
    assert permuted.total_cost == pytest.approx(base.total_cost, abs=1e-12)
    remapped = {(int(rperm[r]), int(cperm[c])) for r, c in permuted.pairs}
    base_cost = sum(cost[i, j] for i, j in remapped)
    assert base_cost == pytest.approx(base.total_cost, abs=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(46)
    cost = rng.uniform(0, 10, size=(4, 4))
    base = solve_assignment(cost)
    for lam in (0.25, 3.0, 117.0):
        scaled = solve_assignment(lam * cost)
        assert scaled.pairs == base.pairs
        assert scaled.total_cost == pytest.approx(lam * base.total_cost, rel=1e-12)


def test_angular_distance_symmetry_and_bound():
    rng = np.random.default_rng(47)
    a = rng.uniform(-10, 10, size=500)
    b = rng.uniform(-10, 10, size=500)
    d_ab = angular_distance(a, b)
    d_ba = angular_distance(b, a)
    assert np.allclose(d_ab, d_ba)
    assert (d_ab >= 0).all() and (d_ab <= math.pi + 1e-12).all()
    assert angular_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)


def pair_cost(p, g, w=CorrespondenceWeights()):
    """Cost of one (x, y, theta, embedding) row against another."""
    return float(correspondence_cost_matrix(*as_arrays([p]), *as_arrays([g]), w)[0, 0])


def test_minutia_cost_identity_is_zero():
    rng = np.random.default_rng(48)
    m = random_minutia(rng)
    assert pair_cost(m, m, CorrespondenceWeights(1, 1, 1)) == pytest.approx(0.0, abs=1e-7)


def test_minutia_cost_wraparound():
    e = unit([1.0, 1.0])
    p = (5, 5, 0.1, e)
    g = (5, 5, 2 * math.pi - 0.1, e)
    assert pair_cost(p, g, CorrespondenceWeights(1, 1, 1)) == pytest.approx(0.2, abs=1e-6)


def test_minutia_cost_three_four_five():
    e1 = np.zeros(4); e1[0] = 1.0
    e2 = np.zeros(4); e2[1] = 1.0
    got = pair_cost((0, 0, 0.0, e1), (3, 4, 0.0, e2), CorrespondenceWeights(1, 1, 1))
    assert got == pytest.approx(5.0 + math.sqrt(2.0), abs=1e-6)


def test_minutia_cost_literal_orientation_flag():
    e = unit([1.0, 0.0])
    p = (0, 0, 0.1, e)
    g = (0, 0, 2 * math.pi - 0.1, e)
    assert pair_cost(p, g, CorrespondenceWeights(1, 1, 1)) == pytest.approx(0.2, abs=1e-6)


def test_minutia_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        pair_cost((0, 0, 0, [1.0, 0.0]), (0, 0, 0, [1.0, 0.0, 0.0]))


@pytest.mark.parametrize("emb", [np.array([0.3, 0.4]), np.zeros((2, 1, 2))])
def test_minutia_cost_refuses_embeddings_that_are_not_2d(emb):
    pos, theta = np.zeros((2, 2)), np.zeros(2)
    for args in ((pos, theta, emb, pos, theta, np.zeros((2, 2))),
                 (pos, theta, np.zeros((2, 2)), pos, theta, emb)):
        with pytest.raises(ValueError, match="embeddings must be 2-D"):
            correspondence_cost_matrix(*args)


def _records(rows):
    """(L, 3) x/y/theta rows and (L, d) embeddings, as ``reorder_ground_truth`` takes them."""
    pos, theta, emb = as_arrays(rows)
    return np.column_stack([pos, theta]), emb


def test_correspond_identity_any_order():
    rng = np.random.default_rng(49)
    gt = [random_minutia(rng) for _ in range(6)]
    order = rng.permutation(6)
    pred_po, pred_e = _records([gt[i] for i in order])
    gt_po, gt_e = reorder_ground_truth(pred_po, pred_e, *_records(gt))
    assert np.array_equal(gt_po, pred_po) and np.array_equal(gt_e, pred_e)


def test_correspond_empty_side():
    rng = np.random.default_rng(50)
    gt_pos, gt_theta, gt_emb = as_arrays([random_minutia(rng) for _ in range(3)])
    none = (np.zeros((0, 2)), np.zeros(0), np.zeros((0, gt_emb.shape[1])))
    assert solve_assignment(correspondence_cost_matrix(*none, gt_pos, gt_theta, gt_emb)).pairs == ()
    assert solve_assignment(correspondence_cost_matrix(gt_pos, gt_theta, gt_emb, *none)).pairs == ()
    po, e = reorder_ground_truth(np.zeros((0, 3)), none[2], np.zeros((0, 3)), none[2])
    assert po.shape == (0, 3) and e.shape == none[2].shape


def test_correspond_displaced_still_matched():
    rng = np.random.default_rng(51)
    gt = [random_minutia(rng) for _ in range(4)]
    pred = list(gt)
    x, y, theta, emb = gt[2]
    pred[2] = (x + 100.0, y, theta, emb)
    w = CorrespondenceWeights(1.0, 10.0, 10.0)
    pred_po, pred_e = _records(pred)
    gt_po, gt_e = reorder_ground_truth(pred_po, pred_e, *_records(gt), w)
    # a permutation: the displaced one is still matched
    assert sorted(map(tuple, gt_po)) == sorted(map(tuple, _records(gt)[0]))
    cost = correspondence_cost_matrix(*as_arrays(pred), *as_arrays(gt), w)
    best_total = min(math.fsum(cost[i, perm[i]] for i in range(4))
                     for perm in itertools.permutations(range(4)))
    got = correspondence_cost_matrix(pred_po[:, :2], pred_po[:, 2], pred_e,
                                     gt_po[:, :2], gt_po[:, 2], gt_e, w)
    assert math.fsum(np.diag(got)) == pytest.approx(best_total, abs=1e-9)


def test_correspondence_weight_validation():
    with pytest.raises(ValueError):
        CorrespondenceWeights(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CorrespondenceWeights(-1.0, 1.0, 1.0)
