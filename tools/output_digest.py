"""Digest of every user-visible ``fpfuse`` output on seeded inputs.

Runs the CLI in-process on two seeded synthetic corpora and prints one
SHA-256 per output, then one combined digest over them all:

- ``synth`` stdout, corpus and ``refs/`` checksums and ``manifest.json``,
  for the default spec and for one with collisions, distortion and weak
  captures (seed 303 and 202, 50x4);
- ``eval`` stdout, report, ROC CSV and scores CSV, with the default config
  (and ``refs/``) and with an ungated double-sigmoid config at ``--jobs 1``
  and ``--jobs 2``;
- ``bench`` with the default grid and with ``--sweep-minutiae``;
- ``match`` on three pairs, with and without a config;
- ``losses``, plain and ``--pretty``, and on a record of the loss benchmark's
  shape: 50 minutiae, 64-dimensional embeddings, five intermediate layers;
- both demos' stdout.

It imports ``fpfuse`` from the ``src`` directory of its own checkout, so a
copy of this file placed in another checkout digests that checkout.  Two
checkouts give byte-identical outputs when their combined digests agree.

    python3 tools/output_digest.py [--out digests.txt]

``--out`` writes the per-output lines after a comment line that names the
numpy version and BLAS library, so two runs can be compared with ``diff``
to find the outputs that differ.  Temporary paths in the outputs are
replaced by ``<tmp>``.  It takes a few seconds.

``output_digests.txt`` beside this file holds those lines for the current
outputs, and ``tests/test_output_digest.py`` checks them.  A change that
means to change an output rewrites that file with ``--out``.  The last bits
of ``losses 50x64 five layers`` depend on the BLAS build (the Gram-form
cost matrix), so its line may differ under another numpy or BLAS.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fpfuse import cli  # noqa: E402

SPECS = {
    "default": {"seed": 303, "subjects": 50, "impressions": 4},
    "hard": {"seed": 202, "subjects": 50, "impressions": 4, "global_collision_rate": 0.05,
             "distortion_rate": 0.15, "weak_global_rate": 0.1},
}
UNGATED_DOUBLE_SIGMOID = {
    "theta_t": 2.0, "theta_f": -1.0, "fusion": "mean",
    "norm": {"kind": "double_sigmoid",
             "params": {"center": 20.0, "left_width": 10.0, "right_width": 15.0}},
}
PAIRS = [("000", 0, "000", 1), ("000", 0, "001", 0), ("007", 2, "013", 3)]


def _run(tmp: Path, argv) -> str:
    """stdout of ``fpfuse argv``, which must exit 0, with ``tmp`` as ``<tmp>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"fpfuse {' '.join(map(str, argv))} exited {code}")
    return out.getvalue().replace(str(tmp), "<tmp>")


def _loss_records(tmp: Path, seed: int, n: int, d_m: int, layers):
    """A prediction and its ground truth, seeded: ``n`` minutiae with
    ``d_m``-dimensional embeddings, and one intermediate layer per
    (position, embedding) noise scale of ``layers``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=16)
    positions = np.column_stack([rng.uniform(0, 384, (n, 2)), rng.uniform(0, 6, n)])
    embeddings = rng.normal(size=(n, d_m))

    def noisy(a, scale):  # jittered, with its rows shuffled
        return (a + rng.normal(0, scale, a.shape))[rng.permutation(len(a))].tolist()

    gt = {"global": g.tolist(), "positions": positions.tolist(),
          "embeddings": embeddings.tolist()}
    pred = {"global": (g + rng.normal(0, 0.1, g.shape)).tolist(),
            "positions": noisy(positions, 2.0), "embeddings": noisy(embeddings, 0.1),
            "intermediates": [{"positions": noisy(positions, p),
                               "embeddings": noisy(embeddings, e)} for p, e in layers]}
    paths = tmp / f"pred_{seed}.json", tmp / f"gt_{seed}.json"
    for path, doc in zip(paths, (pred, gt)):
        path.write_text(json.dumps(doc))
    return paths


def outputs(tmp: Path):
    """Yield (name, bytes) for every output, in a fixed order."""
    corpora = {}
    for name, spec in SPECS.items():
        spec_path, out = tmp / f"{name}_spec.json", tmp / name
        spec_path.write_text(json.dumps(spec))
        yield f"synth {name} stdout", _run(tmp, ["synth", "--spec", spec_path, "--out", out])
        yield f"synth {name} corpus checksum", cli.corpus_checksum(out)
        yield f"synth {name} refs checksum", cli.corpus_checksum(out / "refs")
        yield f"synth {name} manifest", (out / "manifest.json").read_text()
        corpora[name] = out

    config = tmp / "ungated.json"
    config.write_text(json.dumps(UNGATED_DOUBLE_SIGMOID))
    runs = [("default", corpora["default"], [])]
    runs += [(f"ungated jobs {jobs}", corpora["hard"], ["--config", config, "--jobs", jobs])
             for jobs in (1, 2)]
    for name, corpus, extra in runs:
        report, scores = tmp / f"{name.replace(' ', '_')}.json", tmp / "scores.csv"
        yield f"eval {name} stdout", _run(tmp, ["eval", "--corpus", corpus, "--out", report,
                                               "--scores-csv", scores, *extra])
        yield f"eval {name} report", report.read_text()
        yield f"eval {name} roc csv", Path(str(report.with_suffix("")) + "_roc.csv").read_text()
        yield f"eval {name} scores csv", scores.read_text()

    for name, extra in (("default grid", []), ("sweep-minutiae", ["--sweep-minutiae", "40,20"])):
        table = tmp / "bench.json"
        yield f"bench {name} stdout", _run(tmp, ["bench", "--corpus", corpora["default"],
                                                 "--far", "0.001,0.01", "--out", table, *extra])
        yield f"bench {name} table", table.read_text()

    for corpus_name, corpus in corpora.items():
        for sid_a, ia, sid_b, ib in PAIRS:
            argv = ["match", "--a", corpus / f"subject_{sid_a}" / f"impression_{ia}.fpt",
                    "--b", corpus / f"subject_{sid_b}" / f"impression_{ib}.fpt"]
            pair = f"{corpus_name} {sid_a}/{ia} {sid_b}/{ib}"
            yield f"match {pair}", _run(tmp, argv)
            yield f"match {pair} with config", _run(tmp, argv + ["--config", config])

    pred, gt = _loss_records(tmp, 17, 12, 8, [(4.0, 4.0), (3.0, 3.0)])
    argv = ["losses", "--pred", pred, "--gt", gt]
    yield "losses", _run(tmp, argv)
    yield "losses pretty", _run(tmp, ["--pretty", *argv])
    pred, gt = _loss_records(tmp, 505, 50, 64, [(3.0, 0.1)] * 5)
    yield "losses 50x64 five layers", _run(tmp, ["losses", "--pred", pred, "--gt", gt])

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        yield f"demo {demo.name}", proc.stdout


def build() -> str:
    """The numpy version and BLAS library of this interpreter."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    return f"numpy {np.__version__}, BLAS {blas}"


def digest_lines():
    """One ``<sha256>  <name>`` line per output, in ``outputs``'s order."""
    with tempfile.TemporaryDirectory() as tmp:
        return [f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"
                for name, text in outputs(Path(tmp))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write one line per output to this file")
    args = parser.parse_args(argv)
    lines = digest_lines()
    if args.out:
        Path(args.out).write_text("\n".join([f"# {build()}", *lines]) + "\n")
    print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} outputs: combined sha256 {digest}")


if __name__ == "__main__":
    main()
