import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from fpfuse import (LocalMatchConfig, SynthSpec, from_json, generate_corpus,
                    generate_identity, generate_impression, global_match,
                    local_match, minutiae_quality, read_corpus, validate, write_bundle,
                    write_template)


def test_identity_deterministic():
    spec = SynthSpec(seed=7, subjects=3, impressions=2)
    a = generate_identity(spec, 1)
    b = generate_identity(spec, 1)
    assert np.array_equal(a.global_direction, b.global_direction)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.embeddings, b.embeddings)


def test_identity_globals_nearly_orthogonal():
    spec = SynthSpec(seed=8, subjects=2, impressions=1)
    rng = np.random.default_rng(0)
    ok = 0
    trials = 1000
    directions = {}
    for _ in range(trials):
        i, j = rng.choice(2000, size=2, replace=False)
        for k in (i, j):
            if k not in directions:
                directions[k] = generate_identity(spec, int(k)).global_direction
        if abs(float(np.dot(directions[i], directions[j]))) < 0.2:
            ok += 1
    assert ok / trials >= 0.99


def test_identity_zero_minutiae():
    spec = SynthSpec(seed=9, subjects=1, impressions=1, minutiae_per_identity=0)
    ident = generate_identity(spec, 0)
    assert ident.positions.shape == (0, 2)
    t = generate_impression(ident, spec, 0)
    assert len(t.theta) <= 12  # Poisson spurious additions only


def test_zero_noise_impression_equals_identity():
    spec = SynthSpec(seed=10, subjects=1, impressions=1,
                     rotation_range_rad=0.0, translation_range_px=0.0,
                     position_jitter_px=0.0, orientation_jitter_rad=0.0,
                     embedding_jitter=0.0, global_jitter=0.0,
                     drop_probability=0.0, spurious_rate=0.0)
    ident = generate_identity(spec, 0)
    t = generate_impression(ident, spec, 0)
    assert len(t.theta) == spec.minutiae_per_identity
    assert np.allclose(t.positions, ident.positions, atol=1e-4)
    assert float(np.dot(np.asarray(t.global_embedding, np.float64),
                        ident.global_direction)) == pytest.approx(1.0, abs=1e-6)


def test_full_drop_leaves_only_spurious():
    spec = SynthSpec(seed=11, subjects=1, impressions=1, drop_probability=1.0,
                     spurious_rate=3.0)
    ident = generate_identity(spec, 0)
    t = generate_impression(ident, spec, 0)
    # none of the survivors matches a canonical embedding
    for e in t.embeddings.astype(np.float64):
        sims = ident.embeddings @ e
        assert sims.max() < 0.9


def test_default_noise_sibling_scores(small_bundle):
    corpus = small_bundle.corpus
    g_scores, recovery = [], []
    for sid in corpus.subject_ids:
        ts = corpus.subjects[sid]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                g_scores.append(global_match(ts[i], ts[j]))
                r = local_match(ts[i], ts[j])
                recovery.append(len(r.matched_pairs) /
                                min(len(ts[i].theta), len(ts[j].theta)))
    assert min(g_scores) > 0.9
    assert float(np.mean(recovery)) >= 0.8


def test_impressions_valid_templates(small_bundle):
    for templates in small_bundle.corpus.subjects.values():
        for t in templates:
            assert validate(t) == []


def test_corpus_determinism_bytes():
    spec = SynthSpec(seed=21, subjects=4, impressions=3, distortion_rate=0.3,
                     global_collision_rate=0.4)
    a = generate_corpus(spec)
    b = generate_corpus(spec)
    assert a.manifest == b.manifest
    for sid in a.corpus.subject_ids:
        for t1, t2 in zip(a.corpus.subjects[sid], b.corpus.subjects[sid]):
            assert write_template(t1) == write_template(t2)


def test_manifest_empty_without_injection(small_bundle):
    manifest = small_bundle.manifest
    assert manifest.collided_subject_pairs == ()
    assert manifest.distorted_impressions == ()


def test_collision_manifest_sound():
    spec = SynthSpec(seed=22, subjects=20, impressions=2, global_collision_rate=0.1)
    bundle = generate_corpus(spec)
    pairs = bundle.manifest.collided_subject_pairs
    target = round(0.1 * 20 * 19 / 2)
    assert pairs, "expected collided pairs at this rate"
    assert abs(len(pairs) - target) <= target  # cluster granularity
    for a, b in pairs:
        ta = bundle.corpus.subjects[a][0]
        tb = bundle.corpus.subjects[b][0]
        assert global_match(ta, tb) > 0.9


def test_distortion_manifest_sound():
    spec = SynthSpec(seed=23, subjects=10, impressions=4, distortion_rate=0.4)
    bundle = generate_corpus(spec)
    hits = bundle.manifest.distorted_impressions
    assert hits
    for sid, k in hits:
        impression = bundle.corpus.subjects[sid][k]
        ref = bundle.references.subjects[sid][k]
        q = minutiae_quality(impression.positions, ref.positions)
        kept_fraction = q.paired / len(ref.theta)
        assert kept_fraction <= 1.0 - spec.distortion_drop_fraction + 0.05


def test_distorted_pairs_score_below_clean_median():
    spec = SynthSpec(seed=24, subjects=12, impressions=3, distortion_rate=0.25)
    bundle = generate_corpus(spec)
    distorted = set(map(tuple, bundle.manifest.distorted_impressions))
    clean_scores, hit_scores = [], []
    cfg = LocalMatchConfig()
    for sid in bundle.corpus.subject_ids:
        ts = bundle.corpus.subjects[sid]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                score = local_match(ts[i], ts[j], cfg).score
                if (sid, i) in distorted or (sid, j) in distorted:
                    hit_scores.append(score)
                else:
                    clean_scores.append(score)
    assert hit_scores and clean_scores
    assert max(hit_scores) < float(np.median(clean_scores))


def test_weak_global_rate_spares_enrollment():
    spec = SynthSpec(seed=25, subjects=15, impressions=4, weak_global_rate=0.5)
    bundle = generate_corpus(spec)
    base = SynthSpec(seed=25, subjects=15, impressions=4)
    clean = generate_corpus(base)
    for sid in bundle.corpus.subject_ids:
        a = bundle.corpus.subjects[sid][0]
        b = clean.corpus.subjects[sid][0]
        assert np.array_equal(a.global_embedding, b.global_embedding)


def test_spec_round_trip(tmp_path):
    spec = SynthSpec(seed=3, subjects=5, impressions=2, distortion_rate=0.1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(spec)))
    assert from_json(SynthSpec, json.loads(path.read_text()), "synth spec") == spec


def test_write_bundle_refuses_a_directory_with_entries(tmp_path):
    write_bundle(generate_corpus(SynthSpec(seed=3, subjects=4, impressions=2)), tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match="new or empty directory"):
        write_bundle(generate_corpus(SynthSpec(seed=4, subjects=3, impressions=2)), tmp_path)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert len(read_corpus(tmp_path).subject_ids) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(drop_probability=1.5)
    with pytest.raises(ValueError):
        SynthSpec(position_jitter_px=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(subjects=0)


def _bundle_bytes(spec):
    bundle = generate_corpus(spec)
    return b"".join(write_template(t)
                    for corpus in (bundle.corpus, bundle.references)
                    for sid in corpus.subject_ids for t in corpus.subjects[sid])


def test_every_spec_knob_changes_the_bytes():
    base = SynthSpec(seed=3, subjects=6, impressions=3, global_collision_rate=0.4,
                     distortion_rate=0.5, weak_global_rate=0.5)
    base_bytes = _bundle_bytes(base)
    dead = []
    for f in fields(SynthSpec):
        value = getattr(base, f.name)
        if f.name == "image_size":
            value = (400, 400)
        elif isinstance(value, int):
            value += 1
        else:
            value = value / 2 if value else 0.1
        if _bundle_bytes(replace(base, **{f.name: value})) == base_bytes:
            dead.append(f.name)
    assert dead == []
