import contextlib
import io
import json
import math
import os
import shutil
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpfuse.cli
from fpfuse import (PipelineConfig, SynthSpec, from_json, generate_corpus, write_bundle,
                    write_template)
from fpfuse.cli import corpus_checksum, main
from fpfuse.evaluation import POOL_MIN_PAIRS_PER_JOB
from fpfuse.templates import _HEADER

from conftest import basis_template, make_template


@pytest.fixture()
def synth_dir(tmp_path):
    spec = {"seed": 42, "subjects": 4, "impressions": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_expected_layout(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 5, "subjects": 3, "impressions": 2}))
    out = tmp_path / "c"
    code, doc = run_json(capsys, ["synth", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    assert doc["templates"] == 6
    files = sorted(p.relative_to(out).as_posix() for p in out.glob("subject_*/*.fpt"))
    assert files[0] == "subject_000/impression_0.fpt"
    assert len(files) == 6
    assert (out / "manifest.json").is_file()
    assert (out / "refs" / "subject_000" / "impression_0.fpt").is_file()
    assert doc["checksum"] == corpus_checksum(out)


def test_synth_checksum_reproducible(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 99, "subjects": 3, "impressions": 2}))
    sums = []
    for name in ("a", "b"):
        code, doc = run_json(capsys, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / name)])
        assert code == 0
        sums.append(doc["checksum"])
    assert sums[0] == sums[1]


def test_synth_seed_is_the_spec_files_alone(tmp_path, capsys, monkeypatch):
    """The spec file's seed alone seeds the corpus; an exported FPFUSE_SEED changes nothing."""
    spec = SynthSpec(seed=1, subjects=2, impressions=2)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(spec)))
    write_bundle(generate_corpus(spec), tmp_path / "own", spec=spec)
    monkeypatch.setenv("FPFUSE_SEED", "5")
    code, doc = run_json(capsys, ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == 0
    assert doc["checksum"] == corpus_checksum(tmp_path / "own")


def test_synth_invalid_probability_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 1, "subjects": 2, "impressions": 2,
                                     "drop_probability": 1.5}))
    code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "z")])
    assert code == 2
    assert "drop_probability" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"subjects": 2.5}, "subjects"),
    ({"minutiae_per_identity": 2.5}, "minutiae_per_identity"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"image_size": [0, 0]}, "image_size"),
    ({"image_size": [384.5, 384]}, "image_size"),
    ({"minutia_dim": 0}, "minutia_dim"),
    ({"global_dim": 0}, "global_dim"),
    ({"minutiae_per_identity": -1}, "minutiae_per_identity"),
    ({"position_jitter_px": math.nan}, "position_jitter_px"),
    ({"drop_probability": True}, "drop_probability"),
    ({"rotation_range_rad": "0.1"}, "rotation_range_rad"),
    ({"spurious_rate": math.inf}, "spurious_rate"),
    ({"collision_similarity_floor": math.inf}, "collision_similarity_floor"),
    ({"seed": -1}, "seed"),
    ({"position_jitter_px": 10 ** 400}, "position_jitter_px"),
    ({"image_size": [2 ** 32, 384]}, "image_size"),
])
def test_synth_bad_spec_exits_2(tmp_path, capsys, doc, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"subjects": 2, "impressions": 2, **doc}))
    out = tmp_path / "z"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", '[["subjects", 2], ["impressions", 2]]'])
def test_synth_spec_not_an_object_exits_2(tmp_path, capsys, text):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    out = tmp_path / "z"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert "synth spec must hold a JSON object, got list" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_an_out_directory_with_entries(synth_dir, tmp_path, capsys):
    out = synth_dir  # 4 subjects, with refs/
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    spec_path = tmp_path / "spec3.json"
    spec_path.write_text(json.dumps({"subjects": 3, "impressions": 2}))
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec_path), "--out", str(out), "--no-refs"]) == 2
    assert "--out" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_synth_refuses_an_out_directory_before_generating(synth_dir, monkeypatch):
    def no_generating(*args, **kwargs):
        raise AssertionError("generated a corpus for an --out that holds entries")
    monkeypatch.setattr(fpfuse.cli, "generate_corpus", no_generating)
    assert main(["synth", "--out", str(synth_dir)]) == 2


def test_synth_seeds_beyond_64_bits_stay_distinct(tmp_path, capsys):
    sums = []
    for seed in (0, 2 ** 64):
        spec_path = tmp_path / f"spec{seed}.json"
        spec_path.write_text(json.dumps({"seed": seed, "subjects": 2, "impressions": 2}))
        code, doc = run_json(capsys, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / str(seed))])
        assert code == 0
        sums.append(doc["checksum"])
    assert sums[0] != sums[1]


# ---------------------------------------------------------------------------
# match

def test_match_self_is_confident_genuine(synth_dir, capsys):
    path = str(synth_dir / "subject_000" / "impression_0.fpt")
    code, doc = run_json(capsys, ["match", "--a", path, "--b", path])
    assert code == 0
    assert doc["gate"] == "confident_genuine"
    assert doc["s_final"] == pytest.approx(1.0, abs=1e-6)
    assert doc["work_units"] == 0


def test_match_orthogonal_is_confident_impostor(tmp_path, capsys):
    a = tmp_path / "a.fpt"
    b = tmp_path / "b.fpt"
    a.write_bytes(write_template(basis_template(axis=0)))
    b.write_bytes(write_template(basis_template(axis=1)))
    code, doc = run_json(capsys, ["match", "--a", str(a), "--b", str(b)])
    assert code == 0
    assert doc["gate"] == "confident_impostor"
    assert doc["s_final"] == 0.0


def test_match_midband_reports_all_fields(tmp_path, capsys):
    a = tmp_path / "a.fpt"
    b = tmp_path / "b.fpt"
    a.write_bytes(write_template(make_template([1.0, 0.0])))
    b.write_bytes(write_template(make_template([0.5, math.sqrt(0.75)])))
    code, doc = run_json(capsys, ["match", "--a", str(a), "--b", str(b)])
    assert code == 0
    assert doc["gate"] == "local_evaluated"
    for key in ("s_g_raw", "s_l_raw", "s_g_norm", "s_l_effective", "s_final", "work_units"):
        assert key in doc
    assert doc["s_g_raw"] == pytest.approx(0.5, abs=1e-6)


def test_match_unreadable_exits_2(tmp_path, capsys):
    good = tmp_path / "a.fpt"
    good.write_bytes(write_template(basis_template()))
    bad = tmp_path / "bad.fpt"
    bad.write_bytes(b"FPT1garbage")
    assert main(["match", "--a", str(good), "--b", str(bad)]) == 2
    assert main(["match", "--a", str(good), "--b", str(tmp_path / "missing.fpt")]) == 2


def test_match_template_missing_a_key_exits_2_naming_it(tmp_path, capsys):
    good = tmp_path / "a.fpt"
    good.write_bytes(write_template(basis_template()))
    doc = json.loads(write_template(basis_template(), format="json"))
    del doc["minutiae"]
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    assert main(["match", "--a", str(bad), "--b", str(good)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read template {bad}: "
                                       "malformed JSON template: missing key 'minutiae'\n")


# ---------------------------------------------------------------------------
# eval

def test_eval_toy_corpus_counts(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 3, "subjects": 2, "impressions": 2}))
    out = tmp_path / "c"
    main(["synth", "--spec", str(spec_path), "--out", str(out)])
    report_path = tmp_path / "report.json"
    code, doc = run_json(capsys, ["eval", "--corpus", str(out),
                                  "--out", str(report_path)])
    assert code == 0
    assert doc["counts"] == {"genuine": 2, "impostor": 1}
    saved = json.loads(report_path.read_text())
    assert saved["counts"] == doc["counts"]
    assert sum(saved["gate_stats"].values()) == 3
    assert saved["minutiae_quality"] is not None
    roc_csv = tmp_path / "report_roc.csv"
    assert roc_csv.is_file()
    assert roc_csv.read_text().startswith("threshold,far,frr")


def test_eval_report_document(synth_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, summary = run_json(capsys, ["eval", "--corpus", str(synth_dir),
                                      "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["counts"] == summary["counts"] == {"genuine": 4 * 3, "impostor": 6}
    assert sum(doc["gate_stats"].values()) == 4 * 3 + 6
    assert set(doc["frr_at_far"]) == set(doc["thresholds"]) == {"0.001", "0.01"}
    assert doc["minutiae_quality"]["avg_positional_error_px"] < 6.0
    assert doc["protocol"] == {"subjects": 4, "impressions": 3}


def test_eval_report_config_block_is_the_config_file(synth_dir, tmp_path):
    params = {"center": 12, "left_width": 7.5, "right_width": 4}
    doc = {"theta_t": 1, "fusion": "max", "norm": {"kind": "double_sigmoid", "params": params},
           "local": {"max_minutiae": 30}}
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc))
    assert main(["eval", "--corpus", str(synth_dir), "--config", str(config),
                 "--out", str(report)]) == 0
    block = json.loads(report.read_text())["config"]
    assert block == {"theta_t": 1.0, "theta_f": 0.15, "fusion": "max",
                     "norm": {"kind": "double_sigmoid", "params": params},
                     "local": {"emb_sim_floor": 0.3, "geo_tolerance_px": 20.0,
                               "ori_tolerance_rad": 0.35, "max_minutiae": 30}}
    assert block == asdict(from_json(PipelineConfig, doc, "config"))


def test_eval_missing_corpus_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["eval", "--corpus", str(missing)]) == 2
    assert f"cannot read corpus {missing}" in capsys.readouterr().err


def test_eval_jobs_byte_identical(synth_dir, tmp_path):
    reports = []
    for jobs, name in ((1, "r1.json"), (4, "r4.json")):
        path = tmp_path / name
        assert main(["eval", "--corpus", str(synth_dir),
                     "--out", str(path), "--jobs", str(jobs)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_eval_jobs_byte_identical_with_pairs_in_band(tmp_path):
    """Enough in-band pairs that ``--jobs 2`` chunks the local matches out to
    the worker pool and scatters them back."""
    corpus = tmp_path / "corpus"
    write_bundle(generate_corpus(SynthSpec(seed=42, subjects=16, impressions=3,
                                           weak_global_rate=0.5, global_collision_rate=0.3)),
                 corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "theta_t": 0.95, "theta_f": -0.1, "fusion": "max",
        "norm": {"kind": "double_sigmoid",
                 "params": {"center": 20.0, "left_width": 10.0, "right_width": 15.0}}}))
    outputs = []
    for jobs in (1, 2):
        report, scores = tmp_path / f"r{jobs}.json", tmp_path / f"s{jobs}.csv"
        assert main(["eval", "--corpus", str(corpus), "--config", str(config),
                     "--out", str(report), "--scores-csv", str(scores),
                     "--jobs", str(jobs)]) == 0
        outputs.append((report.read_bytes(), scores.read_bytes()))
    report = json.loads(outputs[0][0])
    in_band = report["gate_stats"]["local_evaluated"]
    assert POOL_MIN_PAIRS_PER_JOB * 2 <= in_band < sum(report["counts"].values())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["eval", "bench"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2(synth_dir, capsys, command, jobs):
    assert main([command, "--corpus", str(synth_dir), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_eval_scores_csv_is_numeric(synth_dir, tmp_path):
    path = tmp_path / "scores.csv"
    assert main(["eval", "--corpus", str(synth_dir), "--scores-csv", str(path)]) == 0
    header, *lines = path.read_text().splitlines()
    assert header == "kind,score"
    assert len(lines) == 4 * 3 + 6
    for line in lines:
        kind, score = line.split(",")
        assert kind in ("genuine", "impostor")
        assert 0.0 <= float(score) <= 1.0


def _synth(tmp_path, name, subjects, impressions, seed=42):
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps({"seed": seed, "subjects": subjects,
                                     "impressions": impressions}))
    out = tmp_path / name
    assert main(["synth", "--spec", str(spec_path), "--out", str(out), "--no-refs"]) == 0
    return out


@pytest.mark.parametrize("refs_shape", [None, (3, 3), (5, 3), (4, 2)])
def test_eval_bad_refs_exits_2(synth_dir, tmp_path, capsys, refs_shape):
    if refs_shape is None:
        refs = tmp_path / "empty"
        refs.mkdir()
    else:
        refs = _synth(tmp_path, "refs", *refs_shape)
    capsys.readouterr()
    assert main(["eval", "--corpus", str(synth_dir), "--refs", str(refs)]) == 2
    assert "references" in capsys.readouterr().err


@pytest.mark.parametrize("in_refs", [False, True])
def test_eval_names_the_template_that_fails_to_decode(synth_dir, capsys, in_refs):
    root = synth_dir / "refs" if in_refs else synth_dir
    bad = root / "subject_001" / "impression_2.fpt"
    payload = bytearray(bad.read_bytes())
    payload[-4:] = np.float32(np.nan).tobytes()  # the last embedding value
    bad.write_bytes(bytes(payload))
    capsys.readouterr()
    assert main(["eval", "--corpus", str(synth_dir)]) == 2
    err = capsys.readouterr().err
    prefix = f"bad references {root}" if in_refs else f"cannot read corpus {synth_dir}"
    assert f"{prefix}: subject_001/impression_2.fpt: invalid template: minutiae[" in err
    assert "embedding: norm (norm nan" in err


@pytest.mark.parametrize("name, found", [("impression_5.fpt", "0, 2, 5"),
                                         ("impression_x.fpt", "0, 2, x")])
def test_eval_rejects_gaps_in_impression_numbers(synth_dir, capsys, name, found):
    subject = synth_dir / "subject_003"
    (subject / "impression_1.fpt").rename(subject / name)
    capsys.readouterr()
    assert main(["eval", "--corpus", str(synth_dir)]) == 2
    assert (f"cannot read corpus {synth_dir}: subject_003: impression files must be numbered "
            f"0 to 2, found {found}") in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"norm": {"kind": "double_sigmoid", "params": {}}},
    {"local": {"seed_candidates": 3}},
    {"theta_t": None},
    {"theta_t": math.nan},
    {"local": {"geo_tolerance_px": math.nan}},
    {"norm": {"kind": "double_sigmoid",
              "params": {"center": "20", "left_width": True, "right_width": 1.0}}},
    {"norm": {"kind": "double_sigmoid",
              "params": {"center": 0.0, "left_width": 1.0, "right_width": 1.0, "scale": 3}}},
    {"norm": {"kind": "double_sigmoid",
              "params": {"center": math.nan, "left_width": 1.0, "right_width": 1.0}}},
])
def test_bad_config_exits_2(synth_dir, tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    template = str(synth_dir / "subject_000" / "impression_0.fpt")
    for argv in (["eval", "--corpus", str(synth_dir)],
                 ["match", "--a", template, "--b", template]):
        capsys.readouterr()
        assert main(argv + ["--config", str(config)]) == 2
        assert "bad pipeline config" in capsys.readouterr().err


def test_config_naming_a_removed_normalizer_exits_2(synth_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"norm": {"kind": "zscore", "params": {"mean": 0, "std": 1}}}))
    capsys.readouterr()
    assert main(["eval", "--corpus", str(synth_dir), "--config", str(config)]) == 2
    assert ("unknown normalizer kind 'zscore'; expected one of ('identity', 'double_sigmoid')"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# bench

def test_bench_grid_rows_sorted_by_gap(synth_dir, capsys):
    code, doc = run_json(capsys, [
        "bench", "--corpus", str(synth_dir),
        "--grid", "0.75:0.15,disabled,0.5:0.4"])
    assert code == 0
    gaps = [row["gap"] for row in doc["rows"]]
    assert gaps == sorted(gaps, reverse=True)
    le = [row["local_evaluated"] for row in doc["rows"]]
    assert le == sorted(le, reverse=True)
    assert all("frr@far=0.01" in row for row in doc["rows"])


def test_bench_degenerate_grid(synth_dir, capsys):
    code, doc = run_json(capsys, ["bench", "--corpus", str(synth_dir),
                                  "--grid", "0.5:0.5"])
    assert code == 0
    row = doc["rows"][0]
    assert row["local_evaluated"] <= 1  # only pairs with s_g exactly 0.5


def test_bench_empty_grid_exits_2(synth_dir):
    assert main(["bench", "--corpus", str(synth_dir), "--grid", " , "]) == 2


@pytest.mark.parametrize("grid", ["nan:0.1", "inf:0.1", "0.5:-inf", "0.5:nan"])
def test_bench_non_finite_grid_exits_2(synth_dir, capsys, grid):
    assert main(["bench", "--corpus", str(synth_dir), "--grid", grid]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("far", ["2", "nan", "-0.1", "x", "0.01,inf"])
def test_bench_bad_far_exits_2_before_scoring(synth_dir, capsys, monkeypatch, far):
    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a corpus with a bad --far")
    monkeypatch.setattr(fpfuse.cli, "score_pairs", no_scoring)
    assert main(["bench", "--corpus", str(synth_dir), "--far", far]) == 2
    assert "--far" in capsys.readouterr().err


# An empty sweep is a bad sweep, not a request for the default grid.
@pytest.mark.parametrize("sweep", ["50,0", "50,-3", "50,x", "50,2.5", ""])
def test_bench_bad_sweep_exits_2_before_scoring(synth_dir, capsys, monkeypatch, sweep):
    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a corpus with a bad --sweep-minutiae")
    monkeypatch.setattr(fpfuse.cli, "score_pairs", no_scoring)
    assert main(["bench", "--corpus", str(synth_dir), "--sweep-minutiae", sweep]) == 2
    assert f"bad --sweep-minutiae {sweep!r}" in capsys.readouterr().err


def test_bench_grid_and_sweep_exit_2_before_reading_the_corpus(synth_dir, capsys, monkeypatch):
    def no_reading(*args, **kwargs):
        raise AssertionError("read a corpus for --grid with --sweep-minutiae")
    monkeypatch.setattr(fpfuse.cli, "read_corpus", no_reading)
    assert main(["bench", "--corpus", str(synth_dir),
                 "--grid", "0.9:0.1", "--sweep-minutiae", "10"]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "--sweep-minutiae" in err


@pytest.mark.parametrize("argv, message", [
    (["bench", "--grid", ",,"], "empty threshold grid"),
    (["bench", "--sweep-minutiae", "5,x"], "bad --sweep-minutiae '5,x'"),
    (["bench", "--config", "{config}"], "bad pipeline config"),
    (["eval", "--config", "{config}"], "bad pipeline config"),
])
def test_bad_arguments_exit_2_before_reading_the_corpus(synth_dir, tmp_path, capsys,
                                                        monkeypatch, argv, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta_t": "x"}))
    read = []
    monkeypatch.setattr(fpfuse.cli, "read_corpus", lambda *args: read.append(args))
    argv = [arg.format(config=config) for arg in argv] + ["--corpus", str(synth_dir)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert read == []


def test_bench_minutiae_sweep(synth_dir, capsys):
    code, doc = run_json(capsys, [
        "bench", "--corpus", str(synth_dir),
        "--sweep-minutiae", "50,30,10"])
    assert code == 0
    ks = [row["max_minutiae"] for row in doc["rows"]]
    assert ks == [50, 30, 10]
    works = [row["work_units"] for row in doc["rows"]]
    assert works[0] > works[1] > works[2]


@pytest.mark.parametrize("argv", [
    ["eval", "--out", "{missing}/r.json"],
    ["eval", "--scores-csv", "{missing}/s.csv"],
    ["eval", "--roc-csv", "{directory}"],
    ["bench", "--out", "{missing}/b.json"],
    ["synth", "--out", "{file}"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    corpus = _synth(tmp_path, "c", 3, 2)
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing" / "d", "directory": tmp_path,
             "file": tmp_path / "file"}
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] != "synth":
        argv += ["--corpus", str(corpus)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["synth", "--spec", "", "--out", "s"], "error: bad synth spec : "),
    (["losses", "--weights", ""], "error: bad loss weights : "),
    (["eval", "--refs", ""], "error: bad references .: no subject_"),
    (["eval", "--out", ""], "error: "),
    (["eval", "--roc-csv", ""], "error: "),
    (["eval", "--scores-csv", ""], "error: "),
    (["bench", "--out", ""], "error: "),
], ids=["synth-spec", "losses-weights", "eval-refs", "eval-out", "eval-roc-csv",
        "eval-scores-csv", "bench-out"])
def test_an_empty_option_value_is_read_or_written(tmp_path, capsys, monkeypatch, argv, message):
    """An empty value names the current directory, which fails to read or to
    be written; it used to count as absent and exit 0 with the default."""
    monkeypatch.chdir(tmp_path)  # the current directory then holds no corpus
    if argv[0] == "losses":
        pred_path, gt_path = loss_fixture(tmp_path)
        argv += ["--pred", str(pred_path), "--gt", str(gt_path)]
    elif argv[0] != "synth":
        argv += ["--corpus", str(_synth(tmp_path, "c", 3, 2))]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(message)


# ---------------------------------------------------------------------------
# losses

def loss_fixture(tmp_path):
    rng = np.random.default_rng(8)
    gt_po = np.column_stack([rng.uniform(0, 100, size=(3, 2)),
                             rng.uniform(0, 6, size=3)])
    gt_e = rng.normal(size=(3, 2))
    g = rng.normal(size=4)
    pred_doc = {"global": list(g), "positions": gt_po.tolist(),
                "embeddings": gt_e.tolist(),
                "intermediates": [{"positions": gt_po.tolist(),
                                   "embeddings": gt_e.tolist()}]}
    gt_doc = {"global": list(g), "positions": gt_po.tolist(),
              "embeddings": gt_e.tolist()}
    pred_path = tmp_path / "pred.json"
    gt_path = tmp_path / "gt.json"
    pred_path.write_text(json.dumps(pred_doc))
    gt_path.write_text(json.dumps(gt_doc))
    return pred_path, gt_path


def test_losses_zero_on_equal(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    code, doc = run_json(capsys, ["losses", "--pred", str(pred_path), "--gt", str(gt_path)])
    assert code == 0
    assert doc["total"] == 0.0
    assert set(doc) == {"global_loss", "position_loss", "embedding_loss",
                        "intermediate_position_loss", "intermediate_embedding_loss",
                        "total"}


def test_losses_one_hot_weights(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    pred = json.loads(pred_path.read_text())
    pred["global"] = [v + 1.0 for v in pred["global"]]
    pred_path.write_text(json.dumps(pred))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"global_weight": 2.0, "position_weight": 0.0,
                                   "embedding_weight": 0.0, "intermediate_position_weight": 0.0,
                                   "intermediate_embedding_weight": 0.0}))
    code, doc = run_json(capsys, ["losses", "--pred", str(pred_path),
                                  "--gt", str(gt_path), "--weights", str(weights)])
    assert code == 0
    assert doc["total"] == pytest.approx(2.0 * doc["global_loss"])
    assert doc["global_loss"] == pytest.approx(1.0)


def test_losses_weights_from_a_file(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    pred = json.loads(pred_path.read_text())
    pred["global"] = [v + 1.0 for v in pred["global"]]
    pred_path.write_text(json.dumps(pred))
    weights = {"global_weight": 3.0, "position_weight": 0.0}
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps(weights))
    argv = ["losses", "--pred", str(pred_path), "--gt", str(gt_path), "--weights"]
    code, from_file = run_json(capsys, argv + [str(weights_path)])
    assert code == 0
    assert from_file["total"] == pytest.approx(3.0 * from_file["global_loss"])


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_losses_weights_path_that_is_no_file_exits_2_naming_it(tmp_path, capsys, kind):
    pred_path, gt_path = loss_fixture(tmp_path)
    path = tmp_path / "no" / "such.json" if kind == "missing" else tmp_path
    error = "No such file or directory" if kind == "missing" else "Is a directory"
    argv = ["losses", "--pred", str(pred_path), "--gt", str(gt_path), "--weights", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad loss weights {path}: [Errno ") and error in err, err


def test_losses_shape_mismatch_exits_2(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    gt = json.loads(gt_path.read_text())
    gt["positions"] = gt["positions"][:2]
    gt["embeddings"] = gt["embeddings"][:2]
    gt_path.write_text(json.dumps(gt))
    assert main(["losses", "--pred", str(pred_path), "--gt", str(gt_path)]) == 2


@pytest.mark.parametrize("which", ["pred", "gt"])
def test_losses_record_not_an_object_exits_2(tmp_path, capsys, which):
    paths = dict(zip(("pred", "gt"), loss_fixture(tmp_path)))
    paths[which].write_text("[1, 2]")
    assert main(["losses", "--pred", str(paths["pred"]), "--gt", str(paths["gt"])]) == 2
    assert f"--{which} must hold a JSON object" in capsys.readouterr().err


def test_losses_weights_not_an_object_exits_2(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    weights = tmp_path / "weights.json"
    weights.write_text("[1]")
    argv = ["losses", "--pred", str(pred_path), "--gt", str(gt_path), "--weights", str(weights)]
    assert main(argv) == 2
    assert "--weights must hold a JSON object" in capsys.readouterr().err


def test_losses_record_missing_a_key_exits_2_naming_it(tmp_path, capsys):
    pred_path, gt_path = loss_fixture(tmp_path)
    pred = json.loads(pred_path.read_text())
    del pred["global"]
    pred_path.write_text(json.dumps(pred))
    assert main(["losses", "--pred", str(pred_path), "--gt", str(gt_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read loss records {pred_path}: "
                                       "missing key 'global'\n")


@pytest.mark.parametrize("which, patch, key", [
    ("weights", {"global_weight": math.nan}, "global_weight"),
    ("weights", {"global_weight": math.inf}, "global_weight"),
    ("weights", {"global_weight": "2"}, "global_weight"),
    ("weights", {"position_weight": True}, "position_weight"),
    ("pred", {"global": [math.nan] * 4}, "global_embedding"),
    ("gt", {"embeddings": [[math.nan, 0.0]] * 3}, "embeddings"),
    ("pred", {"intermediates": [{"positions": [[0.0, 0.0, math.inf]] * 3,
                                 "embeddings": [[1.0, 0.0]] * 3}]},
     "intermediates[0].positions"),
    ("weights", {"global_weight": 10 ** 400}, "global_weight must be"),
    ("pred", {"global": [10 ** 400, 0.0, 0.0, 0.0]}, "global_embedding"),
    ("pred", {"global": ["1.0", 0.0, 0.0, 0.0]}, "global must hold numbers"),
    ("gt", {"positions": [[True, 0.0, 0.0]] * 3}, "positions must hold numbers"),
    ("pred", {"embeddings": [["1", "0"]] * 3}, "embeddings must hold numbers"),
    ("pred", {"intermediates": [{"positions": [[0.0, 0.0, False]] * 3,
                                 "embeddings": [[1.0, 0.0]] * 3}]},
     "intermediates[0].positions must hold numbers"),
])
def test_losses_bad_numbers_exit_2(tmp_path, capsys, which, patch, key):
    paths = dict(zip(("pred", "gt"), loss_fixture(tmp_path)))
    argv = ["losses", "--pred", str(paths["pred"]), "--gt", str(paths["gt"])]
    if which == "weights":
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(patch))
        argv += ["--weights", str(weights)]
    else:
        doc = json.loads(paths[which].read_text())
        paths[which].write_text(json.dumps({**doc, **patch}))
    assert main(argv) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("pred_patch, gt_patch, message", [
    ({"embeddings": [0.3, 0.4]}, {}, "embeddings must be 2-D, got shape (2,)"),
    ({"embeddings": [[[0.3, 0.4]], [[0.5, 0.6]]]}, {},
     "embeddings must be 2-D, got shape (2, 1, 2)"),
    ({"global": [[1.0, 0.0]]}, {"global": [[1.0, 0.0]]},
     "global_embedding must be 1-D, got shape (1, 2)"),
    ({"intermediates": [{"positions": [[1.0, 2.0, 0.5], [30.0, 4.0, 1.5]],
                         "embeddings": [0.3, 0.4]}]}, {},
     "intermediates[0].embeddings must be 2-D, got shape (2,)"),
])
def test_losses_records_of_the_wrong_rank_exit_2_naming_the_field(tmp_path, capsys, pred_patch,
                                                                  gt_patch, message):
    """Two-row records, so that a 1-D embedding has as many rows as positions."""
    record = {"global": [1.0, 0.0], "positions": [[1.0, 2.0, 0.5], [30.0, 4.0, 1.5]],
              "embeddings": [[0.3, 0.4], [0.5, 0.6]]}
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    pred_path.write_text(json.dumps({**record, **pred_patch}))
    gt_path.write_text(json.dumps({**record, **gt_patch}))
    assert main(["losses", "--pred", str(pred_path), "--gt", str(gt_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read loss records {pred_path}: {message}\n"


def test_pretty_output_renders_table(synth_dir, capsys):
    code = main(["--pretty", "bench", "--corpus", str(synth_dir),
                 "--grid", "disabled,0.75:0.15"])
    assert code == 0
    out = capsys.readouterr().out
    assert "theta_t" in out and "local_evaluated" in out


def test_pretty_output_without_a_table_is_indented_json(synth_dir, capsys):
    assert main(["eval", "--corpus", str(synth_dir)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["--pretty", "eval", "--corpus", str(synth_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{\n  ") and json.loads(out) == plain


# ---------------------------------------------------------------------------
# bad input

DEEP = "[" * 100_000 + "]" * 100_000  # nested far beyond the parser's recursion limit


@pytest.mark.parametrize("case", ["eval --config", "bench --config", "synth --spec",
                                  "losses --pred", "losses --gt", "losses --weights file",
                                  "match --a", "match --b", "corpus file", "refs file"])
def test_deeply_nested_json_exits_2_naming_the_input(synth_dir, tmp_path, capsys, case):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    template = str(synth_dir / "subject_000" / "impression_0.fpt")
    pred, gt = loss_fixture(tmp_path)
    losses = ["losses", "--pred", str(pred), "--gt", str(gt)]
    evaluate = ["eval", "--corpus", str(synth_dir)]
    bad_file = "subject_001/impression_2.fpt"
    argv, named = {
        "eval --config": (evaluate + ["--config", str(deep)], f"bad pipeline config {deep}"),
        "bench --config": (["bench", "--corpus", str(synth_dir), "--config", str(deep)],
                           f"bad pipeline config {deep}"),
        "synth --spec": (["synth", "--spec", str(deep), "--out", str(tmp_path / "z")],
                         f"bad synth spec {deep}"),
        "losses --pred": (["losses", "--pred", str(deep), "--gt", str(gt)],
                          f"cannot read loss records {deep}"),
        "losses --gt": (["losses", "--pred", str(pred), "--gt", str(deep)],
                        f"cannot read loss records {deep}"),
        "losses --weights file": (losses + ["--weights", str(deep)], f"bad loss weights {deep}"),
        "match --a": (["match", "--a", str(deep), "--b", template],
                      f"cannot read template {deep}"),
        "match --b": (["match", "--a", template, "--b", str(deep)],
                      f"cannot read template {deep}"),
        "corpus file": (evaluate, f"cannot read corpus {synth_dir}: {bad_file}"),
        "refs file": (evaluate, f"bad references {synth_dir / 'refs'}: {bad_file}"),
    }[case]
    if case.endswith(" file") and case.split()[0] in ("corpus", "refs"):
        root = synth_dir / "refs" if case == "refs file" else synth_dir
        (root / bad_file).write_text(DEEP)
    capsys.readouterr()
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {named}: "), lines[0][:200]


# ---------------------------------------------------------------------------
# the input boundary as a property

@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A 3x2 corpus with its refs/, written once for the properties below."""
    out = tmp_path_factory.mktemp("tiny") / "corpus"
    write_bundle(generate_corpus(SynthSpec(seed=11, subjects=3, impressions=2,
                                           minutiae_per_identity=12)), out)
    return out


# One change to one corpus file: a float32 slot set to a bit pattern, or
# ``cut`` bytes at ``at`` replaced by ``insert`` (no change when both are empty).
SNAN = [struct.pack("<I", bits) for bits in (0x7F800001, 0xFF800001, 0x7FBFFFFF)]
mutations = st.one_of(
    st.tuples(st.just("slot"), st.integers(0, 10 ** 6),
              st.sampled_from(SNAN) | st.binary(min_size=4, max_size=4)),
    st.tuples(st.just("splice"), st.integers(0, 10 ** 6),
              st.integers(0, 4) | st.just(10 ** 6), st.binary(max_size=4)))


def _mutated(data, mutation):
    if mutation[0] == "slot":
        _, k, bits = mutation
        start = 4 + _HEADER.size + _HEADER.unpack_from(data, 4)[-1]  # after source_id
        at = start + 4 * (k % ((len(data) - start) // 4))
        return data[:at] + bits + data[at + 4:]
    _, at, cut, insert = mutation
    at %= len(data) + 1
    return data[:at] + insert + data[at + cut:]


@pytest.mark.parametrize("command", ["match", "eval"])
@settings(max_examples=40, deadline=None)
@given(file_index=st.integers(0, 63), mutation=mutations,
       bad=st.dictionaries(st.integers(0, 5), st.sampled_from(["empty", "missing", "directory",
                                                                  "malformed"]), max_size=2),
       jobs=st.sampled_from(["1", "2", "0"]))
def test_match_and_eval_exit_0_or_2_with_one_error_line(tiny_corpus, command, file_index,
                                                        mutation, bad, jobs):
    """Over a corpus with one mutated file and up to two options given a bad
    value (a good value of None leaves the option out)."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        corpus = tmp / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        files = sorted(corpus.rglob("*.fpt"))  # the impressions and their references
        target = files[file_index % len(files)]
        target.write_bytes(_mutated(target.read_bytes(), mutation))
        config = tmp / "config.json"
        config.write_text(json.dumps({"theta_t": 0.9, "theta_f": 0.1}))
        (tmp / "malformed").write_bytes(b'{"theta_t": \xff')
        if command == "match":
            options = [("--a", target), ("--b", files[0]), ("--config", config)]
        else:
            options = [("--corpus", corpus), ("--config", config), ("--refs", None),
                       ("--out", tmp / "report.json"), ("--roc-csv", None),
                       ("--scores-csv", tmp / "scores.csv")]
        values = {"empty": "", "missing": tmp / "missing" / "x", "directory": tmp,
                  "malformed": tmp / "malformed"}
        argv = [command] + (["--jobs", jobs] if command == "eval" else [])
        for k, (option, good) in enumerate(options):
            value = values[bad[k]] if k in bad else good
            if value is not None:
                argv += [option, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2, argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
            err.getvalue()
