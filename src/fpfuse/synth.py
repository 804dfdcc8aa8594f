"""Seeded synthetic corpus generator.

Identities are random points in embedding space with random minutiae;
impressions apply a rigid transform plus per-field jitter, dropout and
spurious additions.  Two mutually exclusive failure modes can be injected:
subject clusters that share a near-identical global embedding (high global
similarity between different identities) and distorted impressions whose
local features are heavily corrupted while the global embedding survives.
Embedding sizes and failure strengths are module constants, not spec knobs:
``_GLOBAL_DIM``, ``_MINUTIA_DIM``, ``_WEAK_GLOBAL_JITTER``, ``_COLLISION_OFFSET``,
``_DISTORTION_DROP_FRACTION``, ``_DISTORTION_EMBEDDING_JITTER``, ``_DISTORTION_JITTER_SCALE``.

Every random draw comes from a counter-based generator keyed by
``(seed, subject, impression, field)``, so corpora are bit-reproducible
regardless of generation order or parallelism.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .templates import (MAX_IMAGE_SIDE, Corpus, Template, canonicalize_angle, checked,
                        number, write_corpus)

# Field tags for RNG stream keys.
_F_GLOBAL = 0
_F_MINUTIAE = 1
_F_TRANSFORM = 2
_F_JITTER = 3
_F_DROP = 4
_F_SPURIOUS = 5
_F_COLLIDE = 6
_F_DISTORT = 7
_F_WEAK = 8
_IDENTITY_IMPRESSION = 0xFFFF  # impression slot for per-identity streams

_GLOBAL_DIM = 192                   # global embedding size
_MINUTIA_DIM = 64                   # minutia embedding size
_WEAK_GLOBAL_JITTER = 0.045         # global jitter of a weak capture
_COLLISION_OFFSET = 0.012           # spread of a collided cluster around its direction
_DISTORTION_DROP_FRACTION = 0.5     # share of minutiae a distorted impression drops
_DISTORTION_EMBEDDING_JITTER = 0.6  # embedding jitter of a distorted impression
_DISTORTION_JITTER_SCALE = 4.0      # position/orientation jitter factor when distorted

# The SynthSpec knobs that are probabilities.
_PROBABILITIES = ("drop_probability", "global_collision_rate", "distortion_rate",
                  "weak_global_rate")


@dataclass(frozen=True)
class SynthSpec:
    """All generator knobs.  Probabilities in [0, 1], spreads >= 0.  Fixed, not knobs:
    ``_GLOBAL_DIM``, ``_MINUTIA_DIM``, ``_WEAK_GLOBAL_JITTER``, ``_COLLISION_OFFSET``,
    ``_DISTORTION_DROP_FRACTION``, ``_DISTORTION_EMBEDDING_JITTER`` and
    ``_DISTORTION_JITTER_SCALE``."""

    seed: int = 0
    subjects: int = 10
    impressions: int = 4
    minutiae_per_identity: int = 50
    image_size: Tuple[int, int] = (384, 384)
    # Impression noise.
    rotation_range_rad: float = 0.1
    translation_range_px: float = 10.0
    position_jitter_px: float = 1.5
    orientation_jitter_rad: float = 0.02
    embedding_jitter: float = 0.04
    global_jitter: float = 0.013
    drop_probability: float = 0.05
    spurious_rate: float = 2.0
    # Weak captures: non-enrollment impressions (k >= 1) whose global
    # embedding is much noisier while the minutiae stay clean.  Models
    # low-quality acquisitions; enrollment impressions are quality-gated.
    weak_global_rate: float = 0.0
    # Failure injection.
    global_collision_rate: float = 0.0
    distortion_rate: float = 0.0

    def __post_init__(self):
        # Integer knobs and their least value.
        for name, least in (("seed", 0), ("subjects", 1), ("impressions", 1),
                            ("minutiae_per_identity", 0)):
            checked(self, name, lo=least, integer=True)
        size = self.image_size
        if not (isinstance(size, (list, tuple)) and len(size) == 2):
            raise ValueError(f"image_size must be a pair of integers, got {size!r}")
        object.__setattr__(self, "image_size", tuple(
            number(side, "image_size", 1, MAX_IMAGE_SIDE, integer=True) for side in size))
        # Float knobs: probabilities in [0, 1], the rest nonnegative.
        for name in (f.name for f in fields(self) if isinstance(f.default, float)):
            checked(self, name, lo=0.0, hi=1.0 if name in _PROBABILITIES else math.inf)


def _rng(spec_seed: int, subject: int, impression: int, field_tag: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(spec_seed),
                                 spawn_key=(subject, impression, field_tag))
    return np.random.Generator(np.random.Philox(seq))


def _unit(vec: np.ndarray) -> np.ndarray:
    return np.asarray(vec, dtype=np.float64) / np.linalg.norm(vec)


@dataclass(frozen=True, eq=False)
class Identity:
    """Latent identity: a global direction plus a canonical minutiae set."""

    subject_index: int
    global_direction: np.ndarray          # unit, (d_g,)
    positions: np.ndarray                 # (L, 2) pixels
    orientations: np.ndarray              # (L,) radians in [0, 2pi)
    embeddings: np.ndarray                # (L, d_m) unit rows


def generate_identity(spec: SynthSpec, subject_index: int) -> Identity:
    """Deterministic latent identity for ``(spec.seed, subject_index)``."""
    rng = _rng(spec.seed, subject_index, _IDENTITY_IMPRESSION, _F_GLOBAL)
    direction = _unit(rng.normal(size=_GLOBAL_DIM))
    rng = _rng(spec.seed, subject_index, _IDENTITY_IMPRESSION, _F_MINUTIAE)
    n = spec.minutiae_per_identity
    h, w = spec.image_size
    positions = np.column_stack([rng.uniform(0.0, w, size=n), rng.uniform(0.0, h, size=n)])
    orientations = rng.uniform(0.0, 2.0 * math.pi, size=n)
    embeddings = rng.normal(size=(n, _MINUTIA_DIM))
    embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
    return Identity(subject_index=subject_index, global_direction=direction,
                    positions=positions, orientations=orientations, embeddings=embeddings)


def _apply_collisions(spec: SynthSpec, identities: List[Identity]):
    """Group subjects into clusters sharing a global direction.

    The number of collided impostor subject-pairs approximates
    ``global_collision_rate * C(S, 2)``; a cluster of k subjects realizes
    C(k, 2) collided pairs (pairwise copying without clusters would leak
    extra near-identical pairs through transitivity).
    """
    s = spec.subjects
    target = round(spec.global_collision_rate * s * (s - 1) / 2)
    if target < 1:
        return identities, []
    order_rng = _rng(spec.seed, 0, _IDENTITY_IMPRESSION, _F_COLLIDE)
    pool = list(order_rng.permutation(s))
    clusters: List[List[int]] = []
    remaining = target
    while remaining >= 1 and len(pool) >= 2:
        k = int((1 + math.isqrt(1 + 8 * remaining)) // 2)
        k = max(2, min(k, len(pool)))
        clusters.append(sorted(int(x) for x in pool[:k]))
        pool = pool[k:]
        remaining -= k * (k - 1) // 2
    collided_pairs: List[Tuple[int, int]] = []
    out = list(identities)
    for cluster in clusters:
        center = identities[cluster[0]].global_direction
        for subject in cluster:
            noise_rng = _rng(spec.seed, subject, _IDENTITY_IMPRESSION, _F_COLLIDE)
            direction = _unit(center + noise_rng.normal(scale=_COLLISION_OFFSET,
                                                        size=_GLOBAL_DIM))
            out[subject] = replace(identities[subject], global_direction=direction)
        for i, a in enumerate(cluster):
            for b in cluster[i + 1:]:
                collided_pairs.append((a, b))
    return out, sorted(collided_pairs)


def _impression_transform(identity: Identity, spec: SynthSpec, impression_index: int):
    """Positions (L, 2) and orientations (L,) of the identity's minutiae
    under the impression's rigid transform, before any noise."""
    h, w = spec.image_size
    cx, cy = w / 2.0, h / 2.0
    rng = _rng(spec.seed, identity.subject_index, impression_index, _F_TRANSFORM)
    rot = rng.uniform(-spec.rotation_range_rad, spec.rotation_range_rad)
    tx = rng.uniform(-spec.translation_range_px, spec.translation_range_px)
    ty = rng.uniform(-spec.translation_range_px, spec.translation_range_px)
    if rot == 0.0:  # exact path: avoids center/uncenter rounding at zero noise
        positions = identity.positions + (tx, ty)
    else:
        c, s = math.cos(rot), math.sin(rot)
        rot_mat = np.array([[c, -s], [s, c]])
        centered = identity.positions - (cx, cy)
        positions = centered @ rot_mat.T + (cx + tx, cy + ty)
    return positions, identity.orientations + rot


def _in_frame(positions: np.ndarray, spec: SynthSpec) -> np.ndarray:
    h, w = spec.image_size
    return ((positions[:, 0] >= 0.0) & (positions[:, 0] <= w)
            & (positions[:, 1] >= 0.0) & (positions[:, 1] <= h))


def generate_impression(identity: Identity, spec: SynthSpec, impression_index: int,
                        distorted: bool = False) -> Template:
    """One noisy observation of an identity; deterministic per (seed, subject, k)."""
    subject = identity.subject_index
    h, w = spec.image_size

    scale = _DISTORTION_JITTER_SCALE if distorted else 1.0
    pos_jitter = spec.position_jitter_px * scale
    ori_jitter = spec.orientation_jitter_rad * scale
    emb_jitter = _DISTORTION_EMBEDDING_JITTER if distorted else spec.embedding_jitter

    positions, orientations = _impression_transform(identity, spec, impression_index)
    n = identity.positions.shape[0]

    rng = _rng(spec.seed, subject, impression_index, _F_DROP)
    if distorted:
        n_drop = int(round(_DISTORTION_DROP_FRACTION * n))
        dropped = np.zeros(n, dtype=bool)
        dropped[rng.permutation(n)[:n_drop]] = True
    else:
        dropped = rng.random(n) < spec.drop_probability

    global_jitter = spec.global_jitter
    if spec.weak_global_rate > 0.0 and impression_index >= 1:
        weak_rng = _rng(spec.seed, subject, impression_index, _F_WEAK)
        if weak_rng.random() < spec.weak_global_rate:
            global_jitter = _WEAK_GLOBAL_JITTER

    rng = _rng(spec.seed, subject, impression_index, _F_JITTER)
    positions = positions + rng.normal(scale=pos_jitter, size=(n, 2))
    orientations = orientations + rng.normal(scale=ori_jitter, size=n)
    embeddings = identity.embeddings + rng.normal(scale=emb_jitter, size=(n, _MINUTIA_DIM))
    global_embedding = _unit(identity.global_direction
                             + rng.normal(scale=global_jitter, size=_GLOBAL_DIM))

    keep = ~dropped & _in_frame(positions, spec)
    kept_embeddings = embeddings[keep]
    kept_embeddings /= np.linalg.norm(kept_embeddings, axis=1, keepdims=True)

    rng = _rng(spec.seed, subject, impression_index, _F_SPURIOUS)
    n_spurious = int(rng.poisson(spec.spurious_rate)) if spec.spurious_rate > 0 else 0
    spurious = np.empty((n_spurious, 3))  # x, y, theta
    spurious_embeddings = np.empty((n_spurious, _MINUTIA_DIM))
    for k in range(n_spurious):  # draw order per minutia: embedding, x, y, theta
        spurious_embeddings[k] = _unit(rng.normal(size=_MINUTIA_DIM))
        spurious[k] = rng.uniform(0.0, w), rng.uniform(0.0, h), rng.uniform(0.0, 2.0 * math.pi)

    return Template(
        global_embedding=global_embedding,
        positions=np.concatenate([positions[keep], spurious[:, :2]]),
        theta=canonicalize_angle(np.concatenate([orientations[keep], spurious[:, 2]])),
        embeddings=np.concatenate([kept_embeddings, spurious_embeddings]),
        image_size=spec.image_size,
        source_id=f"subject_{subject:03d}/impression_{impression_index}",
    )


def _reference_template(identity: Identity, spec: SynthSpec, impression_index: int) -> Template:
    """Noise-free transformed minutiae: what a perfect extractor would report."""
    positions, orientations = _impression_transform(identity, spec, impression_index)
    keep = _in_frame(positions, spec)
    return Template(
        global_embedding=identity.global_direction,
        positions=positions[keep],
        theta=canonicalize_angle(orientations[keep]),
        embeddings=identity.embeddings[keep],
        image_size=spec.image_size,
        source_id=f"ref/subject_{identity.subject_index:03d}/impression_{impression_index}",
    )


@dataclass(frozen=True)
class InjectionManifest:
    """Ground truth of the injected failure modes."""

    collided_subject_pairs: Tuple[Tuple[str, str], ...]
    distorted_impressions: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True, eq=False)
class CorpusBundle:
    corpus: Corpus
    manifest: InjectionManifest
    references: Corpus


def _subject_id(index: int) -> str:
    return f"{index:03d}"


def generate_corpus(spec: SynthSpec) -> CorpusBundle:
    """Full corpus plus injection manifest and per-impression references."""
    identities = [generate_identity(spec, i) for i in range(spec.subjects)]
    identities, collided = _apply_collisions(spec, identities)

    distorted: List[Tuple[str, int]] = []
    subjects: Dict[str, Tuple[Template, ...]] = {}
    refs: Dict[str, Tuple[Template, ...]] = {}
    for idx in range(spec.subjects):
        sid = _subject_id(idx)
        impressions = []
        ref_impressions = []
        for k in range(spec.impressions):
            hit = False
            if spec.distortion_rate > 0.0:
                gate_rng = _rng(spec.seed, idx, k, _F_DISTORT)
                hit = bool(gate_rng.random() < spec.distortion_rate)
            if hit:
                distorted.append((sid, k))
            impressions.append(generate_impression(identities[idx], spec, k, distorted=hit))
            ref_impressions.append(_reference_template(identities[idx], spec, k))
        subjects[sid] = tuple(impressions)
        refs[sid] = tuple(ref_impressions)

    manifest = InjectionManifest(
        collided_subject_pairs=tuple((_subject_id(a), _subject_id(b)) for a, b in collided),
        distorted_impressions=tuple(distorted),
    )
    return CorpusBundle(corpus=Corpus(subjects), manifest=manifest, references=Corpus(refs))


def check_out_dir(out_dir: str | Path) -> Path:
    """``out_dir`` as a path if it is a new or empty directory, else
    ``ValueError``: a corpus written over another would mix their subjects
    and refs/."""
    root = Path(out_dir)
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise ValueError(f"{root} must be a new or empty directory")
    return root


def write_bundle(bundle: CorpusBundle, out_dir: str | Path, spec: Optional[SynthSpec] = None,
                 include_references: bool = True) -> None:
    """Write corpus, manifest.json and (optionally) refs/ under ``out_dir``,
    which must pass :func:`check_out_dir`."""
    root = check_out_dir(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    write_corpus(bundle.corpus, root)
    doc = asdict(bundle.manifest)
    if spec is not None:
        doc["spec"] = asdict(spec)
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    if include_references:
        write_corpus(bundle.references, root / "refs")
