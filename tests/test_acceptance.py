"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  The corpora are seeded, so every number here is reproducible.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from fpfuse import (CorrespondenceWeights, DoubleSigmoidParams,
                    PipelineConfig, Protocol, SynthSpec, angular_distance,
                    apply_pipeline, double_sigmoid, enumerate_pairs,
                    evaluate_scores, fit_double_sigmoid, frr_at_far, from_json,
                    generate_corpus, minutiae_quality, reorder_ground_truth,
                    score_pairs, solve_assignment, total_loss)
from fpfuse.losses import GroundTruthRecord, PredictionRecord
from fpfuse.cli import main

from conftest import as_arrays, random_minutia


def _ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values))
    return ranks


@pytest.fixture(scope="module")
def fitted_norm():
    """Double-sigmoid parameters fitted on a clean hold-out corpus."""
    corpus = generate_corpus(SynthSpec(seed=404, subjects=40, impressions=2)).corpus
    genuine, impostor = enumerate_pairs(Protocol(40, 2), corpus)
    raw = score_pairs(corpus, genuine + impostor)
    n_gen = len(genuine)
    params = fit_double_sigmoid(raw.s_l_raw[:n_gen], raw.s_l_raw[n_gen:])
    return {"kind": "double_sigmoid",
            "params": {"center": params.center, "left_width": params.left_width,
                       "right_width": params.right_width}}


def _config(fitted_norm, theta_t, theta_f, **local):
    doc = {"theta_t": theta_t, "theta_f": theta_f, "fusion": "mean",
           "norm": fitted_norm}
    if local:
        doc["local"] = local
    return from_json(PipelineConfig, doc, "config")


# ---------------------------------------------------------------------------
# criterion: protocol exactness

def test_protocol_exactness():
    start = time.perf_counter()
    genuine, impostor = enumerate_pairs(Protocol(100, 8))
    assert (len(genuine), len(impostor)) == (2800, 4950)
    genuine, impostor = enumerate_pairs(Protocol(140, 12))
    assert (len(genuine), len(impostor)) == (9240, 9730)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS protocol exactness: 2800/4950 and 9240/9730 exact ({elapsed:.2f}s < 1s)")


# ---------------------------------------------------------------------------
# criterion: assignment oracle

def test_assignment_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240915)
    perm_cache = {m: np.array(list(itertools.permutations(range(m))))
                  for m in range(1, 7)}
    for trial in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(-10.0, 10.0, size=(n, m))
        got = solve_assignment(cost)
        work = cost if n <= m else cost.T
        k, kk = work.shape
        perms = perm_cache[kk][:, :k]  # injective col choices for each row
        totals = work[np.arange(k)[None, :], perms].sum(axis=1)
        best = float(totals.min())
        assert got.total_cost == pytest.approx(best, abs=1e-9), trial
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS assignment oracle: 500 trials, solver == brute force ({elapsed:.2f}s < 5s)")


# ---------------------------------------------------------------------------
# criterion: fusion advantage (mutually exclusive failure modes)

def test_fusion_advantage(fitted_norm):
    start = time.perf_counter()
    spec = SynthSpec(seed=202, subjects=200, impressions=4,
                     global_collision_rate=0.05, distortion_rate=0.15,
                     weak_global_rate=0.1)
    bundle = generate_corpus(spec)
    corpus = bundle.corpus
    genuine_pairs, impostor_pairs = enumerate_pairs(Protocol(200, 4), corpus)
    n_gen = len(genuine_pairs)
    raw = score_pairs(corpus, genuine_pairs + impostor_pairs, jobs=1)

    cfg = _config(fitted_norm, 2.0, -1.0)  # ungated
    fused = apply_pipeline(raw, cfg)
    global_only = raw.s_g_raw
    local_only = np.clip(cfg.norm(raw.s_l_raw), 0.0, 1.0)

    frr_fused, thr_fused = frr_at_far(fused.final[:n_gen], fused.final[n_gen:], 0.01)
    frr_global, _ = frr_at_far(global_only[:n_gen], global_only[n_gen:], 0.01)
    frr_local, thr_local = frr_at_far(local_only[:n_gen], local_only[n_gen:], 0.01)
    assert frr_fused < frr_global
    assert frr_fused < frr_local

    collided = set(bundle.manifest.collided_subject_pairs)
    distorted = set(map(tuple, bundle.manifest.distorted_impressions))
    pairs = list(raw.pairs)
    col_mask = np.array([(pairs[k][0][0], pairs[k][1][0]) in collided
                         for k in range(n_gen, len(pairs))])
    dist_mask = np.array([pairs[k][0] in distorted or pairs[k][1] in distorted
                          for k in range(n_gen)])
    assert col_mask.sum() > 0 and dist_mask.sum() > 0

    # global channel fails on collided impostors: accepted at the operating
    # threshold calibrated on clean impostors only
    _, thr_clean_global = frr_at_far(global_only[:n_gen],
                                     global_only[n_gen:][~col_mask], 0.01)
    global_failures = global_only[n_gen:][col_mask] >= thr_clean_global
    assert global_failures.mean() >= 0.5

    # local channel fails on distorted genuine pairs: rejected at its own
    # FAR=1% threshold (distortion does not touch impostor pairs)
    local_failures = local_only[:n_gen][dist_mask] < thr_local
    assert local_failures.mean() >= 0.5

    # the fused pipeline, at its own FAR=1% threshold, flips >= 50% of each
    # failure set back to the correct decision
    fused_collided = fused.final[n_gen:][col_mask][global_failures]
    fused_distorted = fused.final[:n_gen][dist_mask][local_failures]
    recovery_global = float((fused_collided < thr_fused).mean())
    recovery_local = float((fused_distorted >= thr_fused).mean())
    assert recovery_global >= 0.5
    assert recovery_local >= 0.5

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("\nPASS fusion advantage: FRR@FAR=1%% fused %.2f%% < global %.2f%% and local %.2f%%; "
          "failure recovery %.0f%%/%.0f%% (%.0fs < 120s)" %
          (100 * frr_fused, 100 * frr_global, 100 * frr_local,
           100 * recovery_global, 100 * recovery_local, elapsed))


# ---------------------------------------------------------------------------
# criterion: gating monotonicity

def test_gating_monotonicity(fitted_norm):
    corpus = generate_corpus(SynthSpec(seed=303, subjects=100, impressions=4)).corpus
    genuine_pairs, impostor_pairs = enumerate_pairs(Protocol(100, 4), corpus)
    n_gen = len(genuine_pairs)
    raw = score_pairs(corpus, genuine_pairs + impostor_pairs)
    gaps = [None, 0.9, 0.6, 0.3, 0.1]  # centered at 0.45; None = disabled
    counts, frrs = [], []
    for gap in gaps:
        if gap is None:
            cfg = _config(fitted_norm, 2.0, -1.0)
        else:
            cfg = _config(fitted_norm, 0.45 + gap / 2, 0.45 - gap / 2)
        derived = apply_pipeline(raw, cfg)
        counts.append(derived.gate_stats["local_evaluated"])
        frrs.append(frr_at_far(derived.final[:n_gen], derived.final[n_gen:], 0.01)[0])
    assert all(c0 >= c1 for c0, c1 in zip(counts, counts[1:])), counts
    delta_pp = abs(frrs[2] - frrs[0]) * 100
    assert delta_pp <= 0.5
    print(f"\nPASS gating monotonicity: local_evaluated {counts} non-increasing; "
          f"FRR(gap 0.6) within {delta_pp:.3f}pp of disabled")


# ---------------------------------------------------------------------------
# criterion: minutiae-subset trade-off

def test_minutiae_subset_tradeoff(fitted_norm):
    # distortion present so the local channel has something to lose
    corpus = generate_corpus(SynthSpec(seed=505, subjects=100, impressions=4,
                                       distortion_rate=0.15)).corpus
    genuine_pairs, impostor_pairs = enumerate_pairs(Protocol(100, 4), corpus)
    n_gen = len(genuine_pairs)
    work, frr_fused, frr_local = [], [], []
    for k in (50, 30, 10):
        cfg = _config(fitted_norm, 2.0, -1.0, max_minutiae=k)
        raw = score_pairs(corpus, genuine_pairs + impostor_pairs, cfg.local)
        fused = apply_pipeline(raw, cfg)
        local_only = np.clip(cfg.norm(raw.s_l_raw), 0.0, 1.0)
        work.append(int(fused.work_units.sum()))
        frr_fused.append(frr_at_far(fused.final[:n_gen], fused.final[n_gen:], 0.01)[0])
        frr_local.append(frr_at_far(local_only[:n_gen], local_only[n_gen:], 0.01)[0])
    assert work[0] > work[1] > work[2]
    assert frr_fused[0] <= frr_fused[1] <= frr_fused[2]
    fused_degradation = frr_fused[2] - frr_fused[0]
    local_degradation = frr_local[2] - frr_local[0]
    assert fused_degradation < local_degradation
    print("\nPASS minutiae-subset trade-off: work %s strictly down; fused FRR %s "
          "non-decreasing; degradation %.2fpp < local-only %.2fpp" %
          (work, ["%.3f" % f for f in frr_fused],
           100 * fused_degradation, 100 * local_degradation))


# ---------------------------------------------------------------------------
# criterion: normalization properties

def test_normalization_properties():
    p = DoubleSigmoidParams(center=17.3, left_width=6.0, right_width=11.0)
    assert abs(double_sigmoid(17.3, p) - 0.5) <= 1e-12

    # +-15 edge widths: the widest grid where adjacent outputs stay
    # distinguishable in float64 (the map saturates numerically beyond)
    grid = np.linspace(17.3 - 15 * 6.0, 17.3 + 15 * 11.0, 10_000)
    mapped = double_sigmoid(grid, p)
    assert (np.diff(mapped) > 0).all()

    rng = np.random.default_rng(71)
    samples = np.concatenate([rng.normal(30, 8, 400), rng.normal(2, 1, 400)])
    fit = fit_double_sigmoid(samples[:400], samples[400:])
    base = _ranks(samples)
    assert np.array_equal(_ranks(double_sigmoid(samples, fit)), base)
    print("\nPASS normalization properties: center=0.5 @1e-12, strict monotonicity "
          "on 1e4 grid, rank order preserved by the fitted double sigmoid")


# ---------------------------------------------------------------------------
# criterion: loss correctness

def _straight_line_total(pred_g, pred_po, pred_e, inter, gt_g, gt_po, gt_e, w):
    """Independent recomputation with plain loops and explicit permutations."""
    def perm_cost(po_a, e_a, perm):
        total = 0.0
        for i, j in enumerate(perm):
            loc = math.hypot(po_a[i][0] - gt_po[j][0], po_a[i][1] - gt_po[j][1])
            ori = angular_distance(po_a[i][2], gt_po[j][2])
            emb = math.sqrt(sum((e_a[i][d] - gt_e[j][d]) ** 2 for d in range(len(e_a[i]))))
            total += w.w_loc * loc + w.w_ori * ori + w.w_emb * emb
        return total

    def best_perm(po_a, e_a):
        return min(itertools.permutations(range(3)), key=lambda p: perm_cost(po_a, e_a, p))

    def po_mse(po_a, perm):
        acc = 0.0
        for i, j in enumerate(perm):
            acc += (po_a[i][0] - gt_po[j][0]) ** 2
            acc += (po_a[i][1] - gt_po[j][1]) ** 2
            acc += angular_distance(po_a[i][2], gt_po[j][2]) ** 2
        return acc / 9.0

    def e_mse(e_a, perm):
        acc = 0.0
        for i, j in enumerate(perm):
            for d in range(len(e_a[i])):
                acc += (e_a[i][d] - gt_e[j][d]) ** 2
        return acc / 6.0

    l_g = sum((a - b) ** 2 for a, b in zip(pred_g, gt_g)) / len(pred_g)
    perm = best_perm(pred_po, pred_e)
    l_po = po_mse(pred_po, perm)
    l_e = e_mse(pred_e, perm)
    l_po_i = 0.0
    l_e_i = 0.0
    for po_a, e_a in inter:
        p = best_perm(po_a, e_a)
        l_po_i += po_mse(po_a, p)
        l_e_i += e_mse(e_a, p)
    total = l_g + l_po + l_e + l_po_i + l_e_i
    return l_g, l_po, l_e, l_po_i, l_e_i, total


def test_loss_correctness():
    # handcrafted L=3, d_m=2, d_g=4 fixture with five intermediate layers
    pred_g = [0.11, -0.42, 0.95, 0.31]
    gt_g = [0.05, -0.40, 1.02, 0.22]
    pred_po = [[10.2, 20.1, 0.31], [200.5, 40.7, 5.9], [90.0, 300.2, 2.2]]
    gt_po = [[201.0, 41.0, 6.05], [89.0, 299.0, 2.35], [11.0, 19.5, 0.2]]
    pred_e = [[0.9, 0.1], [-0.4, 0.8], [0.2, -0.7]]
    gt_e = [[-0.35, 0.85], [0.25, -0.6], [0.85, 0.2]]
    rng = np.random.default_rng(5150)
    inter = []
    for _ in range(5):
        jitter_po = (np.asarray(pred_po) + rng.normal(scale=3.0, size=(3, 3))).tolist()
        jitter_e = (np.asarray(pred_e) + rng.normal(scale=0.2, size=(3, 2))).tolist()
        inter.append((jitter_po, jitter_e))

    w = CorrespondenceWeights()
    pred = PredictionRecord(pred_g, pred_po, pred_e,
                            intermediates=tuple((np.asarray(a), np.asarray(b))
                                                for a, b in inter))
    gt = GroundTruthRecord(gt_g, gt_po, gt_e)
    got = total_loss(pred, gt, cw=w)
    oracle = _straight_line_total(pred_g, pred_po, pred_e, inter, gt_g, gt_po, gt_e, w)
    for got_v, want_v in zip((got.global_loss, got.position_loss, got.embedding_loss,
                              got.intermediate_position_loss,
                              got.intermediate_embedding_loss, got.total), oracle):
        assert got_v == pytest.approx(want_v, abs=1e-9)

    # Hungarian reordering equals brute force over all 120 permutations, L <= 5
    rng = np.random.default_rng(73)
    for _ in range(100):
        L = int(rng.integers(1, 6))
        gt_po_r = np.column_stack([rng.uniform(0, 300, size=(L, 2)),
                                   rng.uniform(0, 2 * math.pi, size=L)])
        gt_e_r = rng.normal(size=(L, 3))
        pred_po_r = gt_po_r[rng.permutation(L)] + rng.normal(scale=5.0, size=(L, 3))
        pred_e_r = rng.normal(size=(L, 3))
        po, e = reorder_ground_truth(pred_po_r, pred_e_r, gt_po_r, gt_e_r, w)
        def cost_of(perm):
            total = 0.0
            for i, j in enumerate(perm):
                total += w.w_loc * np.linalg.norm(pred_po_r[i, :2] - gt_po_r[j, :2])
                total += w.w_ori * angular_distance(pred_po_r[i, 2], gt_po_r[j, 2])
                total += w.w_emb * np.linalg.norm(pred_e_r[i] - gt_e_r[j])
            return total
        best = min(itertools.permutations(range(L)), key=cost_of)
        assert np.array_equal(po, gt_po_r[list(best)])
        assert np.array_equal(e, gt_e_r[list(best)])
    print("\nPASS loss correctness: fixture == straight-line oracle @1e-9; "
          "reordering == brute force (100 trials)")


# ---------------------------------------------------------------------------
# criterion: metrics sanity

def test_metrics_sanity():
    rng = np.random.default_rng(74)
    for _ in range(1000):
        genuine = rng.normal(rng.uniform(0, 2), 1.0, size=int(rng.integers(2, 30)))
        impostor = rng.normal(0.0, 1.0, size=int(rng.integers(2, 30)))
        roc = evaluate_scores(genuine, impostor, {}, 0)["roc"]
        far = np.array([p["far"] for p in roc])
        frr = np.array([p["frr"] for p in roc])
        assert (np.diff(far) <= 1e-15).all()
        assert (np.diff(frr) >= -1e-15).all()
        assert ((far >= 0) & (far <= 1) & (frr >= 0) & (frr <= 1)).all()
        target = float(rng.uniform(0, 0.5))
        _, thr = frr_at_far(genuine, impostor, target)
        assert np.mean(impostor >= thr) <= target + 1e-12
        grid = np.concatenate([np.unique(np.concatenate([genuine, impostor])), [np.inf]])
        below = grid[grid < thr]
        if below.size:
            assert np.mean(impostor >= below[-1]) > target  # tightness
    gt = as_arrays([random_minutia(np.random.default_rng(75)) for _ in range(9)])[0]
    q = minutiae_quality(gt, gt)
    assert (q.paired, q.missed, q.spurious) == (9, 0, 0)
    assert q.goodness_index == 1.0 and q.avg_positional_error_px == 0.0
    print("\nPASS metrics sanity: ROC monotone on 1000 instances, frr_at_far tight "
          "on every instance, quality identity exact")


# ---------------------------------------------------------------------------
# criterion: determinism across --jobs

def test_determinism_cli_jobs(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 31337, "subjects": 24, "impressions": 3}))
    corpus_a = tmp_path / "corpus_a"
    corpus_b = tmp_path / "corpus_b"
    assert main(["synth", "--spec", str(spec_path), "--out", str(corpus_a)]) == 0
    assert main(["synth", "--spec", str(spec_path), "--out", str(corpus_b)]) == 0
    files_a = sorted(p.relative_to(corpus_a) for p in corpus_a.rglob("*.fpt"))
    files_b = sorted(p.relative_to(corpus_b) for p in corpus_b.rglob("*.fpt"))
    assert files_a == files_b
    for rel in files_a:
        assert (corpus_a / rel).read_bytes() == (corpus_b / rel).read_bytes()

    reports = []
    for jobs in (1, 4):
        out = tmp_path / f"report_{jobs}.json"
        assert main(["eval", "--corpus", str(corpus_a), "--protocol", "24x3",
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print("\nPASS determinism: synth corpora byte-identical; eval reports "
          "byte-identical for --jobs 1 and 4")
