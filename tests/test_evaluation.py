import math
import re

import numpy as np
import pytest

from fpfuse import (Corpus, Protocol, SynthSpec, aggregate_minutiae_quality, enumerate_pairs,
                    evaluate_scores, frr_at_far, generate_corpus, minutiae_quality, score_pairs)
from fpfuse import evaluation
from fpfuse.evaluation import POOL_MIN_PAIRS_PER_JOB

from conftest import as_arrays, random_minutia, stub_corpus


# ---------------------------------------------------------------------------
# protocol

def test_pair_counts_match_closed_forms_exhaustively():
    for s in range(1, 11):
        for i in range(1, 11):
            p = Protocol(subjects=s, impressions=i)
            genuine, impostor = enumerate_pairs(p, stub_corpus(s, i))
            assert len(genuine) == s * i * (i - 1) // 2
            assert len(impostor) == s * (s - 1) // 2


def test_standard_protocol_counts():
    genuine, impostor = enumerate_pairs(Protocol(100, 8), stub_corpus(100, 8))
    assert (len(genuine), len(impostor)) == (2800, 4950)
    genuine, impostor = enumerate_pairs(Protocol(140, 12), stub_corpus(140, 12))
    assert (len(genuine), len(impostor)) == (9240, 9730)


def test_tiny_protocol_hand_count():
    genuine, impostor = enumerate_pairs(Protocol(2, 2), stub_corpus(2, 2))
    assert len(genuine) == 2 and len(impostor) == 1
    assert genuine[0] == (("000", 0), ("000", 1))
    assert impostor[0] == (("000", 0), ("001", 0))


def test_enumeration_order_deterministic():
    a = enumerate_pairs(Protocol(5, 3), stub_corpus(5, 3))
    b = enumerate_pairs(Protocol(5, 3), stub_corpus(5, 3))
    assert a == b


def test_ragged_corpus_rejected(small_bundle):
    corpus = small_bundle.corpus
    with pytest.raises(ValueError):
        enumerate_pairs(Protocol(subjects=len(corpus.subject_ids), impressions=9), corpus)
    with pytest.raises(ValueError):
        enumerate_pairs(Protocol(subjects=2, impressions=3), corpus)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)], ids=["0x4", "4x0"])
def test_empty_protocol_raises(shape):
    with pytest.raises(ValueError, match="protocol needs at least one subject and one impression"):
        Protocol(*shape)


# ---------------------------------------------------------------------------
# frr_at_far

def test_frr_at_far_example():
    frr, thr = frr_at_far([0.9, 0.8, 0.3], [0.85, 0.2, 0.1], 0.0)
    assert thr == pytest.approx(0.9)
    assert frr == pytest.approx(2.0 / 3.0)


def test_frr_at_far_perfect_separation():
    for target in (0.0, 0.001, 0.1, 1.0):
        frr, _ = frr_at_far([0.9, 0.8], [0.1, 0.2], target)
        assert frr == 0.0


def test_frr_at_far_adversarial_order():
    frr, thr = frr_at_far([0.1, 0.2], [0.8, 0.9], 0.0)
    assert frr == 1.0
    assert math.isinf(thr)


def test_frr_at_far_tightness_property():
    rng = np.random.default_rng(61)
    for _ in range(200):
        genuine = rng.normal(1.0, 1.0, size=int(rng.integers(3, 40)))
        impostor = rng.normal(0.0, 1.0, size=int(rng.integers(3, 40)))
        target = float(rng.uniform(0, 0.3))
        frr, thr = frr_at_far(genuine, impostor, target)
        far_at = np.mean(impostor >= thr)
        assert far_at <= target + 1e-12
        grid = np.concatenate([np.unique(np.concatenate([genuine, impostor])), [np.inf]])
        below = grid[grid < thr]
        if below.size:
            assert np.mean(impostor >= below[-1]) > target


def test_frr_at_far_validation():
    with pytest.raises(ValueError):
        frr_at_far([], [0.1], 0.0)
    with pytest.raises(ValueError):
        frr_at_far([0.5], [0.1], 1.5)


# ---------------------------------------------------------------------------
# the report's roc / eer

def report(genuine, impostor):
    """The report document of these scores, with no gate or quality data."""
    return evaluate_scores(np.asarray(genuine, dtype=np.float64),
                           np.asarray(impostor, dtype=np.float64), {}, 0)


def test_roc_handcrafted_point_list():
    roc = report([0.9, 0.8, 0.3], [0.85, 0.2, 0.1])["roc"]
    got = [(p["thr"], p["far"], p["frr"]) for p in roc]
    third = 1.0 / 3.0
    expected = [
        (0.1, 1.0, 0.0),
        (0.2, 2 * third, 0.0),
        (0.3, third, 0.0),
        (0.8, third, third),
        (0.85, third, 2 * third),
        (0.9, 0.0, 2 * third),
        (np.inf, 0.0, 1.0),
    ]
    assert len(got) == len(expected)
    for (t, fa, fr), (et, efa, efr) in zip(got, expected):
        assert t == pytest.approx(et)
        assert fa == pytest.approx(efa)
        assert fr == pytest.approx(efr)


def test_roc_monotonicity_random():
    rng = np.random.default_rng(62)
    for _ in range(100):
        genuine = rng.normal(1, 1, size=int(rng.integers(2, 50)))
        impostor = rng.normal(0, 1, size=int(rng.integers(2, 50)))
        roc = report(genuine, impostor)["roc"]
        far = np.array([p["far"] for p in roc])
        frr = np.array([p["frr"] for p in roc])
        thr = np.array([p["thr"] for p in roc])
        assert (np.diff(thr) > 0).all()
        assert (np.diff(far) <= 1e-15).all()
        assert (np.diff(frr) >= -1e-15).all()
        assert ((far >= 0) & (far <= 1) & (frr >= 0) & (frr <= 1)).all()


def test_eer_disjoint_and_identical():
    assert report([2.0, 3.0, 4.0], [-1.0, 0.0, 1.0])["eer"] == pytest.approx(0.0, abs=1e-12)
    scores = list(np.linspace(0, 1, 50))
    assert report(scores, scores)["eer"] == pytest.approx(0.5, abs=1e-9)


def test_eer_handcrafted():
    assert report([0.9, 0.8, 0.3], [0.85, 0.2, 0.1])["eer"] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("metric", [
    lambda: frr_at_far([0.5], [math.nan], 0.0),
    lambda: report([math.nan, 0.5], [0.2]),
    lambda: report([0.5], [math.inf]),
])
def test_score_metrics_reject_non_finite_scores(metric):
    with pytest.raises(ValueError, match="finite"):
        metric()


# ---------------------------------------------------------------------------
# minutiae quality

def random_positions(rng, n):
    return as_arrays([random_minutia(rng) for _ in range(n)])[0]


def test_quality_identity():
    rng = np.random.default_rng(63)
    gt = random_positions(rng, 8)
    q = minutiae_quality(gt, gt)
    assert q.paired == 8 and q.missed == 0 and q.spurious == 0
    assert q.goodness_index == 1.0
    assert q.avg_positional_error_px == 0.0


def test_quality_empty_prediction():
    rng = np.random.default_rng(64)
    gt = random_positions(rng, 10)
    q = minutiae_quality(np.zeros((0, 2)), gt)
    assert q.paired == 0 and q.missed == 10 and q.spurious == 0
    assert q.goodness_index == -1.0


def test_quality_fixed_offset():
    gt = np.array([(40.0 + 60.0 * i, 50.0) for i in range(5)], dtype=np.float32)
    pred = gt + np.float32([3.0, 4.0])
    q = minutiae_quality(pred, gt)
    assert q.paired == 5 and q.missed == 0 and q.spurious == 0
    assert q.goodness_index == 1.0
    assert q.avg_positional_error_px == pytest.approx(5.0, abs=1e-5)


def test_quality_threshold_excludes_far_pairs():
    gt = [(50.0, 50.0), (300.0, 300.0)]
    pred = [(55.0, 50.0), (300.0, 340.0)]
    q = minutiae_quality(pred, gt)
    assert q.paired == 1 and q.missed == 1 and q.spurious == 1
    assert q.goodness_index == pytest.approx((1 - 1 - 1) / 2)


def test_quality_spurious_counts():
    rng = np.random.default_rng(67)
    gt = random_positions(rng, 4)
    pred = np.vstack([gt, random_positions(rng, 1)])
    q = minutiae_quality(pred, gt)
    assert q.spurious >= 1


@pytest.mark.parametrize("pred, gt", [((2, 3), (3, 2)), ((4,), (2, 2)), ((2, 2), (2, 2, 1)),
                                      ((1, 2), (6,))])
def test_quality_refuses_arrays_that_are_not_n_by_2(pred, gt):
    """They used to be reshaped: (2, 3) and (3, 2) zeros read as 3 pairs, GI 1.0."""
    with pytest.raises(ValueError, match=re.escape(f"got shapes {pred} and {gt}")):
        minutiae_quality(np.zeros(pred), np.zeros(gt))


def test_quality_of_an_empty_input_is_no_minutiae():
    gt = [(50.0, 50.0), (300.0, 300.0)]
    assert minutiae_quality([], gt) == minutiae_quality(np.zeros((0, 2)), gt)
    assert minutiae_quality(gt, []).spurious == 2
    assert minutiae_quality([], []).goodness_index == 0.0


def test_minutiae_quality_rejects_mismatched_references(small_bundle):
    corpus, refs = small_bundle.corpus, small_bundle.references
    fewer = Corpus({sid: refs.subjects[sid][:-1] for sid in refs.subject_ids})
    other = Corpus({f"x{sid}": refs.subjects[sid] for sid in refs.subject_ids})
    for bad in (fewer, other):
        with pytest.raises(ValueError, match="references"):
            aggregate_minutiae_quality(corpus, bad)


# ---------------------------------------------------------------------------
# scoring pool

class _UnpicklableCorpus(Corpus):
    def __reduce_ex__(self, protocol):
        raise TypeError("a corpus is inherited by forked workers, never pickled")


def test_score_pairs_pool_workers_inherit_the_corpus_unpickled():
    corpus = _UnpicklableCorpus(generate_corpus(SynthSpec(seed=5, subjects=20, impressions=4,
                                                          minutiae_per_identity=12)).corpus.subjects)
    genuine, impostor = enumerate_pairs(Protocol(20, 4), corpus)
    pairs = genuine + impostor
    assert len(pairs) == 310 >= POOL_MIN_PAIRS_PER_JOB * 2
    serial, pooled = score_pairs(corpus, pairs, jobs=1), score_pairs(corpus, pairs, jobs=2)
    for name in ("s_g_raw", "s_l_raw", "work_units"):
        assert getattr(serial, name).tobytes() == getattr(pooled, name).tobytes()
    assert evaluation._SCORING_CONTEXT == {}  # the parent never holds the workers' context
