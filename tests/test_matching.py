import itertools
import math

import numpy as np
import pytest

from fpfuse import LocalMatchConfig, global_match, local_match

from conftest import basis_template, make_template, random_minutia, unit


def grid_template(n, d_m=8, seed=0, spacing=60.0, image_size=(384, 384)):
    """Well-separated minutiae with near-orthogonal embeddings."""
    rng = np.random.default_rng(seed)
    minutiae = []
    for i in range(n):
        x = 40.0 + spacing * (i % 5)
        y = 40.0 + spacing * (i // 5)
        minutiae.append((x, y, rng.uniform(0, 2 * math.pi), unit(rng.normal(size=d_m))))
    return make_template(rng.normal(size=8), minutiae, image_size=image_size)


def rigid_copy(t, rot, tx, ty):
    c, s = math.cos(rot), math.sin(rot)
    pos, theta, emb = t.minutiae_arrays()
    x, y = pos.T
    minutiae = zip(c * x - s * y + tx, s * x + c * y + ty, (theta + rot) % (2 * math.pi), emb)
    return make_template(np.asarray(t.global_embedding, dtype=np.float64),
                         minutiae, image_size=(2000, 2000))


# ---------------------------------------------------------------------------
# global_match

def test_global_self_match_is_one():
    t = basis_template()
    assert global_match(t, t) == pytest.approx(1.0, abs=1e-6)


def test_global_orthogonal_is_zero():
    assert global_match(basis_template(axis=0), basis_template(axis=1)) == 0.0


def test_global_known_value():
    a = make_template([0.6, 0.8, 0, 0])
    b = make_template([0.8, 0.6, 0, 0])
    assert global_match(a, b) == pytest.approx(0.96, abs=1e-6)


def test_global_negative_clamped():
    a = make_template([1.0, 0, 0, 0])
    b = make_template([-1.0, 0, 0, 0])
    assert global_match(a, b) == 0.0


def test_global_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = make_template(rng.normal(size=16))
        b = make_template(rng.normal(size=16))
        assert global_match(a, b) == global_match(b, a)


def test_global_dimension_mismatch():
    with pytest.raises(ValueError):
        global_match(basis_template(d_g=4), basis_template(d_g=8))


# ---------------------------------------------------------------------------
# local_match

def test_self_match_scores_exact_count():
    t = grid_template(10)
    result = local_match(t, t)
    assert result.score == 10.0
    assert len(result.matched_pairs) == 10
    assert all(cos == 1.0 for _, _, cos in result.matched_pairs)
    assert result.work_units == 100


def test_empty_side_scores_zero():
    t = grid_template(5)
    empty = basis_template()
    for a, b in ((t, empty), (empty, t), (empty, empty)):
        result = local_match(a, b)
        assert result.score == 0.0
        assert result.matched_pairs == ()
    assert local_match(empty, empty).work_units == 0


def test_rigid_transform_recovered():
    t = grid_template(6)
    moved = rigid_copy(t, math.radians(10.0), 15.0, -7.0)
    result = local_match(t, moved)
    assert len(result.matched_pairs) == 6
    assert result.score == pytest.approx(6.0, abs=1e-9)
    # brute-force best one-to-one cosine pairing as the oracle
    emb_a = t.embeddings.astype(np.float64)
    emb_b = moved.embeddings.astype(np.float64)
    cos = emb_a @ emb_b.T / np.outer(np.linalg.norm(emb_a, axis=1),
                                     np.linalg.norm(emb_b, axis=1))
    best = max(sum(cos[i, p[i]] for i in range(6))
               for p in itertools.permutations(range(6)))
    assert result.score == pytest.approx(best, abs=1e-6)


def test_rigid_invariance_of_score():
    t = grid_template(8, seed=3)
    base = local_match(t, t).score
    moved = rigid_copy(t, 0.35, 40.0, -60.0)
    assert abs(local_match(t, moved).score - base) < 1e-6


def test_score_bound():
    rng = np.random.default_rng(9)
    for seed in range(5):
        a = grid_template(int(rng.integers(1, 12)), seed=seed)
        b = grid_template(int(rng.integers(1, 12)), seed=seed + 100)
        r = local_match(a, b)
        assert 0.0 <= r.score <= min(len(a.theta), len(b.theta)) + 1e-12


def test_one_directional_score_symmetric_here():
    a = grid_template(7, seed=7)
    moved = rigid_copy(a, 0.1, 5.0, 5.0)
    fwd = local_match(a, moved).score
    back = local_match(moved, a).score
    assert fwd == pytest.approx(back, abs=1e-9)


def test_work_units_full_product():
    a = grid_template(6)
    b = grid_template(4, seed=1)
    r = local_match(a, b)
    assert r.work_units == 24


def test_truncation_reduces_work_monotonically():
    a = grid_template(12, seed=11)
    b = rigid_copy(a, 0.05, 3.0, 2.0)
    works = []
    for k in (12, 8, 4, 2):
        r = local_match(a, b, LocalMatchConfig(max_minutiae=k))
        works.append(r.work_units)
        assert r.work_units <= k * k
    assert works == sorted(works, reverse=True)


def test_truncation_uses_first_k():
    a = grid_template(6, seed=13)
    b = rigid_copy(a, 0.0, 0.0, 0.0)
    r = local_match(a, b, LocalMatchConfig(max_minutiae=3))
    assert {p[0] for p in r.matched_pairs} <= {0, 1, 2}
    assert {p[1] for p in r.matched_pairs} <= {0, 1, 2}


def test_floor_excludes_weak_candidates():
    rng = np.random.default_rng(15)
    e1 = unit(rng.normal(size=16))
    e2 = unit(rng.normal(size=16))
    a = make_template([1, 0], [(10, 10, 0.5, e1)])
    b = make_template([1, 0], [(10, 10, 0.5, e2)])
    cos = float(np.dot(e1, e2))
    floor_above = min(0.99, abs(cos) + 0.2)
    r = local_match(a, b, LocalMatchConfig(emb_sim_floor=floor_above))
    assert r.score == 0.0 and r.matched_pairs == ()


def test_negative_floor_never_forces_negative_score():
    a = make_template([1, 0], [(10, 10, 0.0, [1.0, 0.0])])
    b = make_template([1, 0], [(10, 10, 0.0, [-1.0, 0.0])])
    r = local_match(a, b, LocalMatchConfig(emb_sim_floor=-1.0))
    assert r.score == 0.0


def test_minutia_dimension_mismatch():
    a = make_template([1, 0], [(1, 1, 0, [1.0, 0.0])])
    b = make_template([1, 0], [(1, 1, 0, [1.0, 0.0, 0.0])])
    with pytest.raises(ValueError):
        local_match(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        LocalMatchConfig(emb_sim_floor=1.5)
    with pytest.raises(ValueError):
        LocalMatchConfig(geo_tolerance_px=-1.0)
    with pytest.raises(ValueError):
        LocalMatchConfig(max_minutiae=0)
    for knob in ("geo_tolerance_px", "ori_tolerance_rad"):
        with pytest.raises(ValueError):
            LocalMatchConfig(**{knob: math.nan})
