"""Benchmark runner for fpfuse.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-gated --seed 303 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One run sets the workload up several times (the median is ``setup_s``),
warms up, then runs whole rounds of the same operations until the next
round would end past ``--seconds``.  It checks the outputs and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced run and writes every span to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WARMUP_ROUND = -2

END_TO_END = [
    ("pairs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
WORKLOAD_NAMES = ("eval-gated", "eval-ungated", "verify-stream", "loss-reorder")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for the benchmark's own test")
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer, first_round: int):
    """Whole rounds until the next one, at the median round time, would pass ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = first_round + len(rounds)
        rounds.append(workload.run_round(tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_s for r in rounds) > seconds:
            return rounds


def run_one(args) -> int:
    import numpy as np

    from checks import CheckFailed
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workdir = OUT / f"work-{args.workload}-{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True)
    tracer = Tracer().install() if args.trace else None
    try:
        workload = cls(seed, args.scale, workdir)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.untimed_s = 0.0
            workload.setup()
            setup_s.append(time.perf_counter() - t0 - workload.untimed_s)
        if tracer is not None:
            tracer.round = WARMUP_ROUND
        workload.warmup()
        if tracer is None:
            rounds = measure(workload, args.seconds, None, 0)
        else:
            traced = measure(workload, args.seconds / 2, tracer, 0)
            tracer.close()
            plain = measure(workload, args.seconds / 2, None, len(traced))
            rounds = traced + plain
        # Read before the checks, whose own inputs and scipy are not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = True
        try:
            workload.check()
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        for failure in workload.failures[:3]:
            print(f"failed operation: {failure}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # Each latency figure is taken per round, then averaged over the rounds.
        # On a shared host the CPU speed shifts between a fast and a slow level
        # every few seconds; a mean weighs the levels by the time spent at each,
        # where the median of the rounds jumps from one level to the other.
        def per_round(q):
            return statistics.fmean(float(np.percentile(r.latencies_ns, q)) / 1e6
                                    for r in rounds)

        values = {
            "pairs_per_s": sum(r.pairs for r in rounds) / sum(r.wall_s for r in rounds),
            "latency_p50_ms": per_round(50),
            "latency_p99_ms": per_round(99),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        table = END_TO_END
    else:
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in plain))
        values = tracer.per_layer(list(range(len(traced))), SETUP_REPEATS, overhead)
        tracer.write(OUT / f"trace-{args.workload}-{seed}.npz", values)
        table = PER_LAYER
    result = {
        "correct": correct,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    rounds_s = [r.wall_s for r in rounds]
    (OUT / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, round_wall_s=rounds_s), indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other; a table per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fpfuse" / "__init__.py").is_file():
        print(f"error: no fpfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
