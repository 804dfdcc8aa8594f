"""The benchmark's own test.

Run from the repository root with ``python3 -m pytest -q perfbench/selftest.py``.
It runs every workload once at a tiny size, traced and untraced, checks the
printed metrics against ``BENCHMARK.json``, and shows that each output check
rejects a deliberately perturbed output.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _table(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == _table(BENCHMARK["end_to_end"])
    assert spans.PER_LAYER == _table(BENCHMARK["per_layer"])
    assert list(run.WORKLOAD_NAMES) == [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    cmd = BENCHMARK["command"][1:] + ["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--scale", "tiny"]
    proc = subprocess.run([sys.executable] + cmd, cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace and workload == "verify-stream":
        # Decoded once per set-up, none in the rounds: counted per set-up.
        assert result["metrics"]["templates.templates_decoded"]["value"] == 32.0
        assert result["metrics"]["templates.read_corpus_s"]["value"] > 0


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.*"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loss-reorder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check rejects a perturbed output

def _prepared(name, tmp_path):
    w = workloads.WORKLOADS[name](7, "tiny", tmp_path)
    w.setup()
    w.run_round(None)
    w.check()                      # the unperturbed output passes
    return w


def _rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def test_eval_gated_checks_reject_perturbations(tmp_path):
    w = _prepared("eval-gated", tmp_path)
    summary, view, gen, imp = w._outputs()
    S, I, t, f = w.subjects, w.impressions, w.theta_t, w.theta_f

    bad = json.loads(json.dumps(summary))
    bad["counts"]["impostor"] += 1
    _rejects(checks.check_protocol_counts, bad, S, I)

    bad = json.loads(json.dumps(summary))
    bad["gate_stats"]["confident_impostor"] += 1
    _rejects(checks.check_protocol_counts, bad, S, I)
    bad["gate_stats"]["local_evaluated"] -= 1
    _rejects(checks.check_gates, bad, view, gen, imp, t, f)

    _, imp_pairs = view.protocol_pairs()
    gated = np.flatnonzero(view.global_scores[imp_pairs[:, 0], imp_pairs[:, 1]] < f)[0]
    shifted = imp.copy()
    shifted[gated] += 1e-6
    _rejects(checks.check_gates, summary, view, gen, shifted, t, f)

    bad = dict(summary, work_units_total=summary["work_units_total"] + 1)
    _rejects(checks.check_work_units, bad, view, t, f)

    bad = dict(summary, frr_at_far={"0.01": summary["frr_at_far"]["0.01"] + 1 / gen.size})
    _rejects(checks.check_frr, bad, gen, imp)

    refs = checks.CorpusView(w.corpus_dir / "refs", S, I)
    want = checks.minutiae_quality_by_lsa(view, refs)
    bad = dict(summary, minutiae_quality=dict(summary["minutiae_quality"],
                                              paired=want["paired"] + 1))
    _rejects(checks.check_minutiae_quality, bad, want)
    bad = dict(summary, minutiae_quality=dict(
        summary["minutiae_quality"],
        avg_positional_error_px=want["avg_positional_error_px"] * (1 + 1e-6)))
    _rejects(checks.check_minutiae_quality, bad, want)

    w.mismatch = "differs"
    _rejects(w.check)


def test_eval_ungated_checks_reject_perturbations(tmp_path):
    w = _prepared("eval-ungated", tmp_path)
    summary, view, gen, imp = w._outputs()
    checks.check_fusion_beats_global(view, gen, imp)
    _rejects(checks.check_fusion_beats_global, view, np.zeros_like(gen), imp)
    bad = dict(summary, work_units_total=summary["work_units_total"] - 1)
    _rejects(checks.check_work_units, bad, view, w.theta_t, w.theta_f)


def test_verify_stream_checks_reject_perturbations(tmp_path):
    w = _prepared("verify-stream", tmp_path)
    results, requests = list(w.results), list(w.requests)
    gated = next(k for k, r in enumerate(results) if r.s_l_raw is None)
    local = next(k for k, r in enumerate(results) if r.s_l_raw is not None)
    perturbed = [
        (gated, dict(s_final=1.5)),
        (gated, dict(s_final=results[gated].s_final + 1e-6)),
        (gated, dict(s_l_raw=1.0)),
        (local, dict(s_l_raw=None)),
        (gated, dict(gate="local_evaluated")),
        (local, dict(s_g_raw=results[local].s_g_raw + 1e-6)),
    ]
    for k, change in perturbed:
        bad = list(results)
        bad[k] = dataclasses.replace(results[k], **change)
        _rejects(checks.check_match_results, bad, requests, w.global_scores,
                 w.cfg.theta_t, w.cfg.theta_f)


def test_loss_reorder_checks_reject_perturbations(tmp_path):
    w = _prepared("loss-reorder", tmp_path)
    wants = [checks.loss_by_lsa(pred, gt, workloads.LOSS_WEIGHTS) for pred, gt in w.records]
    for field in ("position_loss", "intermediate_embedding_loss", "total"):
        bad = list(w.first)
        bad[0] = dataclasses.replace(bad[0], **{field: getattr(bad[0], field) * (1 + 1e-6)})
        _rejects(checks.check_losses, bad, wants)
    # Ground-truth rows left in their order: a suboptimal correspondence.
    pred, gt = w.records[0]
    sq = (pred.positions - gt.positions) ** 2
    sq[:, 2] = checks._angular(pred.positions[:, 2], gt.positions[:, 2]) ** 2
    bad = list(w.first)
    bad[0] = dataclasses.replace(bad[0], position_loss=float(sq.mean()))
    _rejects(checks.check_losses, bad, wants)
    w.first = [None] * len(w.first)          # every operation failed
    _rejects(w.check)
