import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest

from fpfuse import (CorrespondenceWeights, GroundTruthRecord, LossWeights,
                    PredictionRecord, angular_distance, correspondence_cost_matrix, mse,
                    reorder_ground_truth, total_loss)

import cost_oracle


def random_record_pair(rng, L=4, d_g=6, d_m=3, layers=2, noise=0.1):
    gt_po = np.column_stack([rng.uniform(0, 100, size=(L, 2)),
                             rng.uniform(0, 2 * math.pi, size=L)])
    gt_e = rng.normal(size=(L, d_m))
    gt_g = rng.normal(size=d_g)
    perm = rng.permutation(L)
    pred_po = gt_po[perm] + rng.normal(scale=noise, size=(L, 3))
    pred_e = gt_e[perm] + rng.normal(scale=noise, size=(L, d_m))
    inter = tuple((gt_po[rng.permutation(L)] + rng.normal(scale=noise, size=(L, 3)),
                   gt_e + rng.normal(scale=noise, size=(L, d_m)))
                  for _ in range(layers))
    pred = PredictionRecord(global_embedding=gt_g + rng.normal(scale=noise, size=d_g),
                            positions=pred_po, embeddings=pred_e, intermediates=inter)
    gt = GroundTruthRecord(global_embedding=gt_g, positions=gt_po, embeddings=gt_e)
    return pred, gt


# ---------------------------------------------------------------------------
# mse

def test_mse_identity():
    a = np.arange(6.0)
    assert mse(a, a) == 0.0


def test_mse_known_value():
    assert mse([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


# ---------------------------------------------------------------------------
# reordering

def test_reorder_identity_when_aligned():
    rng = np.random.default_rng(32)
    pred, gt = random_record_pair(rng, noise=0.0)
    po, e = reorder_ground_truth(gt.positions, gt.embeddings, gt.positions, gt.embeddings)
    assert np.array_equal(po, gt.positions)
    assert np.array_equal(e, gt.embeddings)


def test_reorder_recovers_reversal():
    rng = np.random.default_rng(33)
    gt_po = np.column_stack([rng.uniform(0, 300, size=(5, 2)), rng.uniform(0, 6, size=5)])
    gt_e = rng.normal(size=(5, 3))
    pred_po, pred_e = gt_po[::-1].copy(), gt_e[::-1].copy()
    po, e = reorder_ground_truth(pred_po, pred_e, gt_po, gt_e)
    assert np.array_equal(po, pred_po)
    assert np.array_equal(e, pred_e)
    assert mse(pred_po, po) == 0.0


def test_reorder_matches_brute_force():
    rng = np.random.default_rng(34)
    w = CorrespondenceWeights()
    for _ in range(40):
        L = int(rng.integers(1, 6))
        pred, gt = random_record_pair(rng, L=L, noise=1.0)
        po, e = reorder_ground_truth(pred.positions, pred.embeddings,
                                     gt.positions, gt.embeddings, w)
        def perm_cost(perm):
            total = 0.0
            for i, j in enumerate(perm):
                loc = np.linalg.norm(pred.positions[i, :2] - gt.positions[j, :2])
                ori = angular_distance(pred.positions[i, 2], gt.positions[j, 2])
                emb = np.linalg.norm(pred.embeddings[i] - gt.embeddings[j])
                total += w.w_loc * loc + w.w_ori * ori + w.w_emb * emb
            return total
        best = min(itertools.permutations(range(L)), key=perm_cost)
        assert np.array_equal(po, gt.positions[list(best)])
        assert np.array_equal(e, gt.embeddings[list(best)])


def test_reorder_shape_mismatch():
    rng = np.random.default_rng(35)
    pred, gt = random_record_pair(rng, L=3)
    with pytest.raises(ValueError):
        reorder_ground_truth(pred.positions[:2], pred.embeddings[:2],
                             gt.positions, gt.embeddings)


@pytest.mark.parametrize("args, message", [
    ((np.zeros((2, 3)), [[0.0, 1.0], [math.nan, 0.0]], np.zeros((2, 3)), np.zeros((2, 2))),
     "pred embeddings must hold finite numbers"),
    ((np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((3, 2))),
     "gt embeddings rows 3 != positions rows 2"),
    ((np.zeros((0, 3)), np.zeros((5, 2)), np.zeros((0, 3)), np.zeros((0, 2))),
     "pred embeddings rows 5 != positions rows 0"),
], ids=["nan-embedding", "extra-gt-rows", "empty-positions"])
def test_reorder_checks_the_embeddings_as_a_record_does(args, message):
    """They used to reach the solver (NaN) or numpy's broadcast, or came back as given."""
    with pytest.raises(ValueError, match=re.escape(message)):
        reorder_ground_truth(*args)


def test_reorder_of_empty_sets_returns_empty_arrays():
    po, e = reorder_ground_truth(np.zeros((0, 3)), np.zeros((0, 4)),
                                 np.zeros((0, 3)), np.zeros((0, 4)))
    assert po.shape == (0, 3) and e.shape == (0, 4)


def test_reorder_optimality_pure_location():
    # with location-only weights the reordered MSE beats any other permutation
    rng = np.random.default_rng(36)
    w = CorrespondenceWeights(w_loc=1.0, w_ori=0.0, w_emb=0.0)
    for _ in range(20):
        L = int(rng.integers(2, 6))
        pred, gt = random_record_pair(rng, L=L, noise=3.0)
        po, _ = reorder_ground_truth(pred.positions, pred.embeddings,
                                     gt.positions, gt.embeddings, w)
        got = float(np.mean((pred.positions[:, :2] - po[:, :2]) ** 2))
        for perm in itertools.permutations(range(L)):
            alt = float(np.mean((pred.positions[:, :2] - gt.positions[list(perm), :2]) ** 2))
            assert got <= alt + 1e-9


@pytest.mark.parametrize("scale", [1e155, 1e300, 1e-160])
def test_reorder_at_extreme_embedding_magnitudes(scale):
    # At 1e155 the squared norms of the embeddings overflow to inf, so a Gram
    # form without its power-of-two scaling gives inf - inf = NaN costs; at
    # 1e-160 the squared differences are subnormal.  The predictions are the
    # ground truth's rows shuffled, with jittered positions.
    rng = np.random.default_rng(37)
    L = 8
    gt_po = np.column_stack([rng.uniform(0, 100, size=(L, 2)), rng.uniform(0, 6, size=L)])
    gt_e = rng.normal(size=(L, 16))
    gt_e *= scale / np.linalg.norm(gt_e, axis=1, keepdims=True)
    perm = rng.permutation(L)
    pred_po = gt_po[perm] + np.column_stack([rng.normal(scale=1.0, size=(L, 2)),
                                             rng.normal(scale=0.05, size=L)])
    pred_e = gt_e[perm]
    cost = correspondence_cost_matrix(pred_po[:, :2], pred_po[:, 2], pred_e,
                                      gt_po[:, :2], gt_po[:, 2], gt_e)
    assert np.isfinite(cost).all()
    got = reorder_ground_truth(pred_po, pred_e, gt_po, gt_e)
    with mock.patch("fpfuse.losses.correspondence_cost_matrix",
                    cost_oracle.correspondence_cost_matrix), np.errstate(over="ignore"):
        want = reorder_ground_truth(pred_po, pred_e, gt_po, gt_e)
    assert np.array_equal(got[0], gt_po[perm]) and np.array_equal(got[1], pred_e)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# total loss

def test_total_loss_zero_on_equal():
    rng = np.random.default_rng(37)
    gt_po = np.column_stack([rng.uniform(0, 100, size=(4, 2)), rng.uniform(0, 6, size=4)])
    gt_e = rng.normal(size=(4, 3))
    g = rng.normal(size=5)
    pred = PredictionRecord(g, gt_po, gt_e, intermediates=((gt_po, gt_e), (gt_po, gt_e)))
    gt = GroundTruthRecord(g, gt_po, gt_e)
    breakdown = total_loss(pred, gt)
    assert breakdown.total == 0.0
    assert breakdown.global_loss == breakdown.position_loss == breakdown.embedding_loss == 0.0
    assert breakdown.intermediate_position_loss == breakdown.intermediate_embedding_loss == 0.0


def test_total_loss_one_hot_weights():
    rng = np.random.default_rng(38)
    pred, gt = random_record_pair(rng)
    w = LossWeights(global_weight=1.0, position_weight=0.0, embedding_weight=0.0,
                    intermediate_position_weight=0.0, intermediate_embedding_weight=0.0)
    breakdown = total_loss(pred, gt, w)
    assert breakdown.total == pytest.approx(breakdown.global_loss, abs=1e-15)


def test_total_loss_permutation_invariant_to_gt_row_order():
    rng = np.random.default_rng(39)
    pred, gt = random_record_pair(rng, L=5)
    perm = rng.permutation(5)
    gt_shuffled = GroundTruthRecord(gt.global_embedding,
                                    gt.positions[perm], gt.embeddings[perm])
    a = total_loss(pred, gt)
    b = total_loss(pred, gt_shuffled)
    assert a.total == pytest.approx(b.total, abs=1e-9)
    assert a.position_loss == pytest.approx(b.position_loss, abs=1e-9)


def test_total_loss_shape_mismatch():
    rng = np.random.default_rng(40)
    pred, gt = random_record_pair(rng, L=3)
    bad_gt = GroundTruthRecord(gt.global_embedding, gt.positions[:2], gt.embeddings[:2])
    with pytest.raises(ValueError):
        total_loss(pred, bad_gt)


def test_total_loss_global_shape_mismatch():
    rng = np.random.default_rng(41)
    pred, gt = random_record_pair(rng, d_g=6)
    short_gt = GroundTruthRecord(gt.global_embedding[:5], gt.positions, gt.embeddings)
    with pytest.raises(ValueError, match="global embedding shape mismatch"):
        total_loss(pred, short_gt)


@pytest.mark.filterwarnings("error")
def test_total_loss_refuses_records_without_minutiae():
    """Refused by name before any mean is taken, so no numpy warning comes first."""
    none_po, none_e = np.zeros((0, 3)), np.zeros((0, 2))
    pred = PredictionRecord(np.ones(3), none_po, none_e, ((none_po, none_e),))
    gt = GroundTruthRecord(np.zeros(3), none_po, none_e)
    with pytest.raises(ValueError, match="no minutiae"):
        total_loss(pred, gt)


def test_total_loss_nonnegative_components():
    rng = np.random.default_rng(41)
    for _ in range(10):
        pred, gt = random_record_pair(rng, noise=2.0)
        b = total_loss(pred, gt)
        assert min(b.global_loss, b.position_loss, b.embedding_loss,
                   b.intermediate_position_loss, b.intermediate_embedding_loss) >= 0.0


def test_position_loss_is_circular_at_wraparound():
    po = np.array([[10.0, 10.0, 0.05]])
    gt_po = np.array([[10.0, 10.0, 2 * math.pi - 0.05]])
    e = np.ones((1, 2))
    pred = PredictionRecord(np.zeros(3), po, e)
    gt = GroundTruthRecord(np.zeros(3), gt_po, e)
    assert total_loss(pred, gt).position_loss == pytest.approx(0.1 ** 2 / 3, abs=1e-9)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(global_weight=-0.5)


def test_records_refuse_an_empty_global_embedding_when_built():
    """It used to be refused only by ``total_loss``, as ``mse``'s empty inputs."""
    po, e = np.zeros((1, 3)), np.zeros((1, 2))
    for cls in (PredictionRecord, GroundTruthRecord):
        with pytest.raises(ValueError, match="global_embedding must not be empty"):
            cls(np.zeros(0), po, e)


def test_an_intermediate_layer_is_checked_by_the_record_rule():
    po, e = np.zeros((2, 3)), np.zeros((2, 2))
    with pytest.raises(ValueError, match=re.escape("intermediates[1].embeddings rows 3 != "
                                                   "positions rows 2")):
        PredictionRecord(np.ones(2), po, e, ((po, e), (po, np.zeros((3, 2)))))
    with pytest.raises(ValueError, match="intermediate layer 0 shape mismatch"):
        PredictionRecord(np.ones(2), po, e, ((po[:1], e[:1]),))


def test_record_validation():
    with pytest.raises(ValueError):
        PredictionRecord(np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PredictionRecord(np.zeros(3), np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PredictionRecord(np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2)),
                         intermediates=((np.zeros((3, 3)), np.zeros((3, 2))),))
