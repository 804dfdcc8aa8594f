"""Digest of ``solve_assignment`` over seeded random problems.

Solves a fixed, seeded family of cost matrices (tie-rich integers, signed
normals, ``+inf`` sentinels, minutiae-like distance matrices and
matcher-like cosine matrices with zero-cost dummy columns, in both
orientations) and prints one SHA-256 over every result: the row-sorted
pairs and ``repr`` of the total cost, or ``infeasible``.  Two checkouts of
the solver agree exactly on these problems when their digests agree.

    python3 tools/assignment_digest.py [--out results.txt]

``--out`` writes one line per problem, so two runs can be compared with
``diff`` to find the problems that differ.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fpfuse import InfeasibleAssignmentError, solve_assignment  # noqa: E402


def _shape(rng, lo, hi):
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def _tie_rich(rng):
    return rng.integers(0, 3, size=_shape(rng, 1, 12)).astype(np.float64)


def _normals(rng):
    return rng.normal(size=_shape(rng, 1, 15)) * float(rng.choice([1.0, 1e-3, 1e3]))


def _sentinels(rng):
    cost = rng.integers(-2, 4, size=_shape(rng, 1, 10)).astype(np.float64)
    cost[rng.random(cost.shape) < rng.uniform(0.1, 0.5)] = np.inf
    return cost


def _distances(rng):
    # minutiae-quality-like: a jittered copy of a point set, with drops and extras
    n_gt = int(rng.integers(20, 61))
    gt = rng.uniform(0, 384, size=(n_gt, 2))
    keep = gt[rng.random(n_gt) > rng.uniform(0, 0.3)]
    extra = rng.uniform(0, 384, size=(int(rng.integers(0, 10)), 2))
    pred = np.vstack([keep + rng.normal(0, 4, size=keep.shape), extra])
    pred = np.round(pred) if rng.random() < 0.3 else pred  # integer grids tie often
    return np.sqrt(((pred[:, None, :] - gt[None, :, :]) ** 2).sum(axis=2))


def _cosines(rng):
    # matcher-like: -cos on surviving cells, +inf elsewhere, zero-cost dummies
    n, m = _shape(rng, 1, 20)
    cos = np.clip(rng.normal(0.2, 0.5, size=(n, m)), -1.0, 1.0)
    if rng.random() < 0.3:
        cos[rng.random((n, m)) < 0.3] = 1.0
    sub = np.where(rng.random((n, m)) < 0.4, -cos, np.inf)
    return np.hstack([sub, np.zeros((n, n))])


FAMILIES = [("tie_rich", _tie_rich, 1200), ("normals", _normals, 800),
            ("sentinels", _sentinels, 800), ("distances", _distances, 300),
            ("cosines", _cosines, 600)]


def results():
    """Yield one text line per seeded problem, in a fixed order."""
    for seed, (name, make, count) in enumerate(FAMILIES):
        rng = np.random.default_rng(seed)
        for k in range(count):
            cost = make(rng)
            for orient, mat in (("", cost), ("T", cost.T)):
                try:
                    got = solve_assignment(mat)
                    text = f"{got.pairs} {got.total_cost!r}"
                except InfeasibleAssignmentError:
                    text = "infeasible"
                yield f"{name} {k}{orient} {text}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write one line per problem to this file")
    args = parser.parse_args(argv)
    lines = list(results())
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    infeasible = sum(line.endswith(" infeasible") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} problems ({infeasible} infeasible): sha256 {digest}")


if __name__ == "__main__":
    main()
