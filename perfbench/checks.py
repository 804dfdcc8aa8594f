"""Output checks, computed apart from the program under test.

Each ``check_*`` function takes what the program produced and raises
:class:`CheckFailed` when it disagrees with an independent computation
(a separate FPT1 reader, a numpy matrix product of the global embeddings,
``scipy.optimize.linear_sum_assignment``, a sort-and-count FRR) or with a
property the method must have.  None of them compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import bisect
import math
import struct
from pathlib import Path

import numpy as np

GENUINE = "confident_genuine"
IMPOSTOR = "confident_impostor"
LOCAL = "local_evaluated"
SKIP = {GENUINE: 1.0, IMPOSTOR: 0.0}
# Score comparisons allow for a different summation order in the dot product.
SCORE_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent inputs

_FPT1_HEADER = struct.Struct("<BIIIIIH")


def read_fpt1(path: Path):
    """Global embedding (float64) and minutia (x, y) positions of one FPT1 file."""
    data = path.read_bytes()
    expect(data[:4] == b"FPT1", f"{path}: not an FPT1 file")
    _, d_g, d_m, n, _, _, src_len = _FPT1_HEADER.unpack_from(data, 4)
    offset = 4 + _FPT1_HEADER.size + src_len
    glob = np.frombuffer(data, dtype="<f4", count=d_g, offset=offset).astype(np.float64)
    offset += 4 * d_g
    rec = np.dtype([("xyt", "<f4", 3), ("emb", "<f4", d_m)])
    minutiae = np.frombuffer(data, dtype=rec, count=n, offset=offset)
    return glob, minutiae["xyt"][:, :2].astype(np.float64)


class CorpusView:
    """A corpus directory read with the reader above, in protocol order."""

    def __init__(self, root: Path, subjects: int, impressions: int):
        self.subjects, self.impressions = subjects, impressions
        globs, self.positions = [], []
        for s in range(subjects):
            for k in range(impressions):
                g, pos = read_fpt1(root / f"subject_{s:03d}" / f"impression_{k}.fpt")
                globs.append(g)
                self.positions.append(pos)
        emb = np.stack(globs)
        self.global_scores = np.clip(emb @ emb.T, 0.0, 1.0)
        self.n_minutiae = np.array([p.shape[0] for p in self.positions], dtype=np.int64)

    def index(self, subject: int, impression: int) -> int:
        return subject * self.impressions + impression

    def protocol_pairs(self):
        """Genuine then impostor pairs as flat template indices, subject-major."""
        S, I = self.subjects, self.impressions
        genuine = [(self.index(s, i), self.index(s, j))
                   for s in range(S) for i in range(I) for j in range(i + 1, I)]
        impostor = [(self.index(a, 0), self.index(b, 0))
                    for a in range(S) for b in range(a + 1, S)]
        return np.array(genuine, dtype=np.int64).reshape(-1, 2), \
            np.array(impostor, dtype=np.int64).reshape(-1, 2)


def read_scores_csv(path: Path):
    """Genuine and impostor final scores from ``eval --scores-csv``.

    With numpy 2 the CLI writes each score as ``np.float64(<repr>)``; the
    wrapper is stripped so that the scores themselves can be checked.
    """
    genuine, impostor = [], []
    lines = path.read_text().splitlines()
    expect(lines[0] == "kind,score", f"{path}: unexpected header {lines[0]!r}")
    for line in lines[1:]:
        kind, value = line.split(",")
        if value.startswith("np.float64(") and value.endswith(")"):
            value = value[len("np.float64("):-1]
        expect(kind in ("genuine", "impostor"), f"{path}: unknown kind {kind!r}")
        (genuine if kind == "genuine" else impostor).append(float(value))
    return np.array(genuine), np.array(impostor)


def frr_at_far_by_counting(genuine, impostor, target: float) -> float:
    """FRR at the smallest observed threshold (or +inf) whose FAR meets the target."""
    g = sorted(genuine)
    i = sorted(impostor)
    for t in sorted(set(g) | set(i)) + [math.inf]:
        accepted_impostors = len(i) - bisect.bisect_left(i, t)
        if accepted_impostors <= target * len(i):
            return bisect.bisect_left(g, t) / len(g)
    raise CheckFailed("no threshold meets the FAR target")  # +inf always does


# ---------------------------------------------------------------------------
# eval workloads

def check_protocol_counts(summary: dict, subjects: int, impressions: int) -> None:
    want = {"genuine": subjects * impressions * (impressions - 1) // 2,
            "impostor": subjects * (subjects - 1) // 2}
    expect(summary["counts"] == want, f"protocol counts {summary['counts']} != {want}")
    total = sum(summary["gate_stats"].values())
    expect(total == want["genuine"] + want["impostor"],
           f"gate counts sum to {total}, not the pair count {want['genuine'] + want['impostor']}")


def expected_gates(s_g: np.ndarray, theta_t: float, theta_f: float) -> np.ndarray:
    return np.where(s_g > theta_t, GENUINE, np.where(s_g < theta_f, IMPOSTOR, LOCAL))


def check_gates(summary: dict, view: CorpusView, genuine_csv, impostor_csv,
                theta_t: float, theta_f: float) -> None:
    """Gate counts and gated final scores against the matrix-product global scores."""
    gen_pairs, imp_pairs = view.protocol_pairs()
    pairs = np.concatenate([gen_pairs, imp_pairs])
    s_g = view.global_scores[pairs[:, 0], pairs[:, 1]]
    gates = expected_gates(s_g, theta_t, theta_f)
    edge = (np.abs(s_g - theta_t) < SCORE_TOL) | (np.abs(s_g - theta_f) < SCORE_TOL)
    for gate, count in summary["gate_stats"].items():
        want = int((gates == gate).sum())
        expect(abs(count - want) <= int(edge.sum()),
               f"gate {gate}: program {count}, matrix product {want}")
    final = np.concatenate([genuine_csv, impostor_csv])
    expect(final.size == pairs.shape[0], f"{final.size} scores for {pairs.shape[0]} pairs")
    for gate, skip in SKIP.items():
        hit = (gates == gate) & ~edge
        err = np.abs(final[hit] - 0.5 * (s_g[hit] + skip))
        expect(err.size == 0 or float(err.max()) <= SCORE_TOL,
               f"{gate} final scores differ from 0.5*(s_g + {skip}) by up to {err.max():.3g}")
    expect(bool(((final >= 0.0) & (final <= 1.0)).all()), "final score outside [0, 1]")


def check_work_units(summary: dict, view: CorpusView, theta_t: float, theta_f: float) -> None:
    """``work_units_total`` is the sum of n_a * n_b over the pairs the gate sent to local."""
    gen_pairs, imp_pairs = view.protocol_pairs()
    pairs = np.concatenate([gen_pairs, imp_pairs])
    s_g = view.global_scores[pairs[:, 0], pairs[:, 1]]
    local = expected_gates(s_g, theta_t, theta_f) == LOCAL
    n = view.n_minutiae
    want = int((n[pairs[local, 0]] * n[pairs[local, 1]]).sum())
    expect(summary["work_units_total"] == want,
           f"work_units_total {summary['work_units_total']} != sum n_a*n_b {want}")


def check_frr(summary: dict, genuine_csv, impostor_csv) -> None:
    """The report's FRR@FAR, recounted from the scores CSV."""
    for key, got in summary["frr_at_far"].items():
        want = frr_at_far_by_counting(genuine_csv, impostor_csv, float(key))
        expect(got == want, f"FRR@FAR={key}: report {got}, recount {want}")


def check_fusion_beats_global(view: CorpusView, genuine_csv, impostor_csv,
                              far: float = 0.01) -> None:
    """Ungated fusion must reject fewer genuine pairs than the global channel alone."""
    gen_pairs, imp_pairs = view.protocol_pairs()
    g = view.global_scores[gen_pairs[:, 0], gen_pairs[:, 1]]
    i = view.global_scores[imp_pairs[:, 0], imp_pairs[:, 1]]
    fused = frr_at_far_by_counting(genuine_csv, impostor_csv, far)
    global_only = frr_at_far_by_counting(g, i, far)
    expect(fused < global_only,
           f"fused FRR@{far:g}FAR {fused:.4f} not below global-only {global_only:.4f}")


def minutiae_quality_by_lsa(view: CorpusView, refs: CorpusView, dist_px: float = 20.0):
    # Imported here, so that it loads only after the runner reads peak_rss_mb.
    from scipy.optimize import linear_sum_assignment

    paired = missed = spurious = 0
    err = 0.0
    for pred, gt in zip(view.positions, refs.positions):
        p = 0
        if pred.size and gt.size:
            cost = np.sqrt(((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2))
            rows, cols = linear_sum_assignment(cost)
            d = cost[rows, cols]
            ok = d <= dist_px
            p = int(ok.sum())
            err += float(d[ok].sum())
        paired += p
        missed += gt.shape[0] - p
        spurious += pred.shape[0] - p
    total = paired + missed
    return {"paired": paired, "missed": missed, "spurious": spurious,
            "goodness_index": (paired - missed - spurious) / total if total else 0.0,
            "avg_positional_error_px": err / paired if paired else 0.0}


def check_minutiae_quality(summary: dict, want: dict) -> None:
    """Minutiae quality against an optimal assignment from scipy."""
    got = summary["minutiae_quality"]
    expect(got is not None, "report has no minutiae_quality")
    for key in ("paired", "missed", "spurious"):
        expect(got[key] == want[key], f"minutiae_quality.{key}: {got[key]} != {want[key]}")
    for key in ("goodness_index", "avg_positional_error_px"):
        expect(math.isclose(got[key], want[key], rel_tol=1e-9, abs_tol=1e-12),
               f"minutiae_quality.{key}: {got[key]} != {want[key]}")


# ---------------------------------------------------------------------------
# verify-stream

def check_match_results(results, requests, global_scores: np.ndarray,
                        theta_t: float, theta_f: float) -> None:
    """Per-request properties of gated inference, against the matrix-product scores."""
    expect(len(results) == len(requests), f"{len(results)} results for {len(requests)} requests")
    for (a, b, _), r in zip(requests, results):
        want_sg = float(global_scores[a, b])
        expect(abs(r.s_g_raw - want_sg) <= SCORE_TOL,
               f"pair {a},{b}: s_g_raw {r.s_g_raw} != matrix product {want_sg}")
        expect(0.0 <= r.s_final <= 1.0, f"pair {a},{b}: s_final {r.s_final} outside [0, 1]")
        gate = str(expected_gates(np.array(r.s_g_raw), theta_t, theta_f))
        expect(r.gate == gate, f"pair {a},{b}: gate {r.gate} but s_g_raw {r.s_g_raw} gives {gate}")
        expect((r.s_l_raw is None) == (r.gate != LOCAL),
               f"pair {a},{b}: s_l_raw {r.s_l_raw} with gate {r.gate}")
        if r.gate != LOCAL:
            want = 0.5 * (r.s_g_raw + SKIP[r.gate])
            expect(abs(r.s_final - want) <= SCORE_TOL,
                   f"pair {a},{b}: gated s_final {r.s_final} != {want}")


# ---------------------------------------------------------------------------
# loss-reorder

def _angular(a, b):
    d = np.mod(np.abs(a - b), 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _reordered_terms(po, e, gt_po, gt_e, weights):
    from scipy.optimize import linear_sum_assignment

    w_loc, w_ori, w_emb = weights
    cost = (w_loc * np.sqrt(((po[:, None, :2] - gt_po[None, :, :2]) ** 2).sum(axis=2))
            + w_ori * _angular(po[:, None, 2], gt_po[None, :, 2])
            + w_emb * np.sqrt(((e[:, None, :] - gt_e[None, :, :]) ** 2).sum(axis=2)))
    rows, cols = linear_sum_assignment(cost)
    perm = cols[np.argsort(rows)]
    sq = (po - gt_po[perm]) ** 2
    sq[:, 2] = _angular(po[:, 2], gt_po[perm, 2]) ** 2
    return float(sq.mean()), float(((e - gt_e[perm]) ** 2).mean())


def loss_by_lsa(pred, gt, weights) -> dict:
    """Loss breakdown with every correspondence solved by scipy."""
    position, embedding = _reordered_terms(pred.positions, pred.embeddings,
                                           gt.positions, gt.embeddings, weights)
    inter = [_reordered_terms(po, e, gt.positions, gt.embeddings, weights)
             for po, e in pred.intermediates]
    out = {
        "global_loss": float(((pred.global_embedding - gt.global_embedding) ** 2).mean()),
        "position_loss": position,
        "embedding_loss": embedding,
        "intermediate_position_loss": math.fsum(p for p, _ in inter),
        "intermediate_embedding_loss": math.fsum(e for _, e in inter),
    }
    out["total"] = math.fsum(out.values())
    return out


def check_losses(breakdowns, wants) -> None:
    expect(len(breakdowns) == len(wants), f"{len(breakdowns)} results for {len(wants)} records")
    for k, (got, want) in enumerate(zip(breakdowns, wants)):
        got = got.to_dict()
        for key, value in want.items():
            expect(math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12),
                   f"record {k}: {key} {got[key]} != optimal-assignment {value}")
