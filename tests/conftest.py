import itertools
import math

import numpy as np
import pytest

from fpfuse import Corpus, LocalMatchConfig, SynthSpec, Template, generate_corpus


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def as_arrays(rows):
    """(positions, theta, embeddings) arrays from (x, y, theta, embedding) rows."""
    rows = list(rows)
    positions = np.array([r[:2] for r in rows], dtype=np.float64).reshape(-1, 2)
    theta = np.array([r[2] for r in rows], dtype=np.float64)
    embeddings = (np.array([r[3] for r in rows], dtype=np.float64).reshape(len(rows), -1)
                  if rows else np.zeros((0, 0)))
    return positions, theta, embeddings


def make_template(global_direction, minutiae=(), image_size=(384, 384), source_id="t"):
    """Template from a global direction and (x, y, theta, embedding) minutia rows."""
    return Template(unit(global_direction), *as_arrays(minutiae), image_size, source_id)


def random_minutia(rng, d_m=8, image_size=(384, 384)):
    """One (x, y, theta, embedding) row inside the image."""
    h, w = image_size
    return (rng.uniform(0, w), rng.uniform(0, h), rng.uniform(0, 2 * math.pi),
            unit(rng.normal(size=d_m)))


def basis_template(d_g=8, axis=0, minutiae=(), source_id="t"):
    g = np.zeros(d_g)
    g[axis] = 1.0
    return make_template(g, minutiae, source_id=source_id)


def stub_corpus(subjects, impressions):
    """A corpus of the given shape, one template repeated, for pair counts."""
    t = basis_template()
    return Corpus({f"{k:03d}": (t,) * impressions for k in range(subjects)})


def brute_force(cost):
    """Exhaustive minimum plus lexicographic tie-break; None when infeasible."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    best = None
    if n <= m:
        candidates = (tuple((i, c) for i, c in enumerate(cols))
                      for cols in itertools.permutations(range(m), n))
    else:
        candidates = (tuple(sorted(zip(rows, perm)))
                      for rows in itertools.combinations(range(n), m)
                      for perm in itertools.permutations(range(m)))
    for seq in candidates:
        total = math.fsum(cost[i, j] for i, j in seq)
        if math.isinf(total):
            continue
        if best is None or total < best[0] or (total == best[0] and seq < best[1]):
            best = (total, seq)
    return best


@pytest.fixture(scope="session")
def small_bundle():
    """Tiny deterministic corpus shared by fast tests."""
    return generate_corpus(SynthSpec(seed=11, subjects=6, impressions=3))


@pytest.fixture(scope="session")
def default_local_cfg():
    return LocalMatchConfig()
