"""Command-line surface: synth, match, eval, bench, losses.

All outputs are machine-readable JSON (CSV for raw scores); ``--pretty``
renders human tables instead.  Exit code 0 on success, 2 on usage or data
errors, with one ``error:`` line and no traceback.  Every input is a file
(corpus, references, config, spec, templates, loss records and weights),
read through one boundary, :func:`_read`, whose error names the file; the
spec file's ``seed`` is the one seed of a synthetic corpus.
``eval`` and ``bench`` run the protocol of the corpus's own shape.
``bench`` takes either ``--grid`` or ``--sweep-minutiae``, never both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .evaluation import (Protocol, apply_pipeline, enumerate_pairs,
                         evaluate_scores, aggregate_minutiae_quality,
                         frr_at_far, score_pairs)
from .losses import GroundTruthRecord, LossWeights, PredictionRecord, total_loss
from .pipeline import UNGATED, PipelineConfig, infer_pair
from .synth import SynthSpec, check_out_dir, generate_corpus, write_bundle
from .templates import described, from_json, json_object, number, read_corpus, read_template


def corpus_checksum(root: Path) -> str:
    """SHA-256 over every template file's bytes, in canonical path order."""
    digest = hashlib.sha256()
    for path in sorted(root.glob("subject_*/impression_*.fpt")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read(what: str, read, *args):
    """``read(*args)``, the one boundary every input the CLI reads passes.  A
    failure to read or decode it, nesting too deep to parse included, is
    raised again as a ``ValueError`` led by ``what``, for ``main`` to exit 2."""
    try:
        return read(*args)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: {described(exc)}") from exc


def _json(path: str):
    """The JSON document held in the file ``path``."""
    return json.loads(Path(path).read_text())


def _config(cls, path: str, what: str):
    return from_json(cls, _json(path), what)


def _load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return _read(f"bad pipeline config {path}", _config, PipelineConfig, path, "config")


def _emit(doc, pretty: bool, rows_key: Optional[str] = None):
    if not pretty:
        print(json.dumps(doc, sort_keys=True))
        return
    if rows_key and isinstance(doc, dict) and doc.get(rows_key):
        rows = doc[rows_key]
        cols = list(rows[0])
        widths = {c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) for c in cols}
        print("  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            print("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in cols))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(args) -> int:
    spec = (_read(f"bad synth spec {args.spec}", _config, SynthSpec, args.spec, "synth spec")
            if args.spec is not None else SynthSpec())
    try:
        out = check_out_dir(args.out)  # before generating, which can take long
    except ValueError as exc:
        raise ValueError(f"--out: {exc}") from exc
    bundle = generate_corpus(spec)
    write_bundle(bundle, out, spec=spec, include_references=not args.no_refs)
    checksum = corpus_checksum(out)
    _emit({"out": str(out), "templates": bundle.corpus.template_count,
           "subjects": spec.subjects, "impressions": spec.impressions,
           "checksum": checksum}, args.pretty)
    return 0


def cmd_match(args) -> int:
    cfg = _load_config(args.config)
    a = _read(f"cannot read template {args.a}", lambda: read_template(Path(args.a).read_bytes()))
    b = _read(f"cannot read template {args.b}", lambda: read_template(Path(args.b).read_bytes()))
    _emit(asdict(infer_pair(a, b, cfg)), args.pretty)
    return 0


def _load_eval_inputs(args):
    """The corpus, the protocol of its shape, and the protocol's pairs,
    genuine first, with the number of genuine pairs."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    corpus = _read(f"cannot read corpus {args.corpus}", read_corpus, args.corpus)
    protocol = Protocol(subjects=len(corpus.subject_ids),
                        impressions=len(corpus.subjects[corpus.subject_ids[0]]))
    genuine_pairs, impostor_pairs = enumerate_pairs(protocol, corpus)
    return corpus, protocol, genuine_pairs + impostor_pairs, len(genuine_pairs)


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)  # before the corpus, which can take long to read
    corpus, protocol, pairs, n_gen = _load_eval_inputs(args)
    quality = None
    refs_dir = Path(args.corpus) / "refs" if args.refs is None else Path(args.refs)
    if args.refs is not None or refs_dir.is_dir():
        quality = _read(f"bad references {refs_dir}",
                        lambda: aggregate_minutiae_quality(corpus, read_corpus(refs_dir)))
    raw = score_pairs(corpus, pairs, [cfg], jobs=args.jobs)
    derived = apply_pipeline(raw, cfg)
    doc = evaluate_scores(derived.final[:n_gen], derived.final[n_gen:],
                          derived.gate_stats, int(derived.work_units.sum()),
                          quality=quality)
    doc["config"] = asdict(cfg)
    doc["protocol"] = {"subjects": protocol.subjects, "impressions": protocol.impressions}
    payload = json.dumps(doc, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(payload)
    roc_path = args.roc_csv if args.roc_csv is not None or args.out is None else (
        str(Path(args.out).with_suffix("")) + "_roc.csv")
    if roc_path is not None:
        lines = ["threshold,far,frr"]
        lines += [f"{p['thr']!r},{p['far']!r},{p['frr']!r}" for p in doc["roc"]]
        Path(roc_path).write_text("\n".join(lines) + "\n")
    if args.scores_csv is not None:
        lines = ["kind,score"]
        lines += [f"genuine,{float(v)!r}" for v in derived.final[:n_gen]]
        lines += [f"impostor,{float(v)!r}" for v in derived.final[n_gen:]]
        Path(args.scores_csv).write_text("\n".join(lines) + "\n")
    summary = {k: doc[k] for k in ("counts", "frr_at_far", "eer", "gate_stats", "work_units_total",
                                   "minutiae_quality")}
    _emit(summary, args.pretty)
    return 0


def _parse_grid(text: str, cfg: PipelineConfig) -> List[PipelineConfig]:
    """``cfg`` once per band of the grid."""
    grid: List[PipelineConfig] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == "disabled":
            grid.append(replace(cfg, **UNGATED))
            continue
        try:
            t, f = token.split(":")
            grid.append(replace(cfg, theta_t=float(t), theta_f=float(f)))
        except ValueError as exc:
            raise ValueError(f"bad grid token {token!r}; expected 'theta_t:theta_f' "
                             f"or 'disabled' ({exc})") from exc
    if not grid:
        raise ValueError("empty threshold grid")
    return grid


def cmd_bench(args) -> int:
    if args.grid is not None and args.sweep_minutiae is not None:
        raise ValueError("--grid and --sweep-minutiae exclude each other; give one")
    try:
        far_targets = [number(float(t), "a FAR target", 0.0, 1.0)
                       for t in args.far.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --far {args.far!r}: {exc}") from exc
    # Every argument is checked before the corpus, which can take long to read.
    cfg = _load_config(args.config)
    if args.sweep_minutiae is not None:
        try:
            sweep = [replace(cfg, **UNGATED, local=replace(cfg.local, max_minutiae=int(k)))
                     for k in args.sweep_minutiae.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad --sweep-minutiae {args.sweep_minutiae!r}: {exc}") from exc
    else:
        grid = _parse_grid("disabled,0.75:0.15" if args.grid is None else args.grid, cfg)
    corpus, _, pairs, n_gen = _load_eval_inputs(args)

    rows = []
    if args.sweep_minutiae is not None:
        for ungated in sweep:
            raw = score_pairs(corpus, pairs, [ungated], jobs=args.jobs)
            fused = apply_pipeline(raw, ungated)
            local_only = np.clip(ungated.norm(raw.s_l_raw), 0.0, 1.0)
            row = {"max_minutiae": ungated.local.max_minutiae,
                   "work_units": int(fused.work_units.sum())}
            for target in far_targets:
                row[f"frr_fused@far={target:g}"] = frr_at_far(
                    fused.final[:n_gen], fused.final[n_gen:], target)[0]
                row[f"frr_local@far={target:g}"] = frr_at_far(
                    local_only[:n_gen], local_only[n_gen:], target)[0]
            rows.append(row)
        rows.sort(key=lambda r: -r["max_minutiae"])
    else:
        raw = score_pairs(corpus, pairs, grid, jobs=args.jobs)
        for band in grid:
            derived = apply_pipeline(raw, band)
            row = {
                "theta_t": band.theta_t,
                "theta_f": band.theta_f,
                "gap": band.theta_t - band.theta_f,
                "local_evaluated": derived.gate_stats["local_evaluated"],
                "work_units": int(derived.work_units.sum()),
            }
            for target in far_targets:
                row[f"frr@far={target:g}"] = frr_at_far(
                    derived.final[:n_gen], derived.final[n_gen:], target)[0]
            rows.append(row)
        rows.sort(key=lambda r: -r["gap"])
    doc = {"rows": rows}
    if args.out is not None:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True))
    _emit(doc, args.pretty, rows_key="rows")
    return 0


def cmd_losses(args) -> int:
    pred = _read(f"cannot read loss records {args.pred}", lambda: PredictionRecord.from_dict(
        json_object(_json(args.pred), "--pred")))
    gt = _read(f"cannot read loss records {args.gt}", lambda: GroundTruthRecord.from_dict(
        json_object(_json(args.gt), "--gt")))
    weights = (_read(f"bad loss weights {args.weights}", _config, LossWeights, args.weights,
                     "--weights")
               if args.weights is not None else LossWeights())
    _emit(asdict(total_loss(pred, gt, weights)), args.pretty)
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfuse",
        description="Fingerprint template matching, score fusion and evaluation toolkit.")
    parser.add_argument("--pretty", action="store_true", help="human-readable tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="generator spec JSON (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--no-refs", action="store_true", help="skip writing refs/")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("match", help="compare two template files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_match)

    corpus_help = ("corpus directory; the verification protocol is its own shape: "
                   "every subject, each with the same number of impressions")
    p = sub.add_parser("eval", help="run the verification protocol over a corpus")
    p.add_argument("--corpus", required=True, help=corpus_help)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--roc-csv", help="ROC CSV path")
    p.add_argument("--scores-csv", help="raw final scores CSV path")
    p.add_argument("--refs", help="reference corpus for minutiae quality (default: <corpus>/refs)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="threshold-gate grid or minutiae-subset sweep")
    p.add_argument("--corpus", required=True, help=corpus_help)
    p.add_argument("--config")
    p.add_argument("--grid", help="comma list of theta_t:theta_f pairs or 'disabled' "
                   "(default: disabled,0.75:0.15); excludes --sweep-minutiae")
    p.add_argument("--sweep-minutiae", help="comma list of max_minutiae values")
    p.add_argument("--far", default="0.01", help="comma list of FAR targets")
    p.add_argument("--out", help="table JSON path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("losses", help="training-loss breakdown for one record pair")
    p.add_argument("--pred", required=True, help="prediction record JSON")
    p.add_argument("--gt", required=True, help="ground-truth record JSON")
    p.add_argument("--weights", help="loss weights JSON file")
    p.set_defaults(func=cmd_losses)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
