"""Fingerprint template domain types, validation and serialization.

A template is one impression's stored representation: a unit-norm global
embedding plus a set of minutiae, each carrying pixel coordinates, an
orientation in radians and a unit-norm local embedding.  Templates are
immutable after construction and safe to share across threads.

Two wire formats are provided: a little-endian binary format (magic
``FPT1``, float32 payload, bit-exact round trips) and a JSON mirror.
Corpora live on disk as ``subject_<id>/impression_<k>.fpt`` directories.

Reader contract: :func:`read_template` returns a template that passes
:func:`validate`, or raises :class:`DecodeError`.  Both formats share one
ingest step that renormalizes slightly drifted embeddings, wraps
orientations, and rejects any other violation, NaN or out-of-frame
coordinates included.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

BINARY_MAGIC = b"FPT1"
BINARY_VERSION = 1

# |norm - 1| <= VALID tolerance passes validation untouched; values in
# (VALID, INGEST] are renormalized by readers; beyond INGEST the data is
# considered corrupt and rejected.
NORM_VALID_TOL = 1e-6
NORM_INGEST_TOL = 1e-3


class DecodeError(ValueError):
    """Malformed template payload.  ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def canonicalize_angle(theta: float) -> float:
    """Map an angle in radians onto [0, 2*pi), also after float32 rounding.
    Non-finite angles are returned unchanged, for :func:`validate` to flag."""
    theta = float(theta)
    if not math.isfinite(theta):
        return theta
    wrapped = math.fmod(theta, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    if _f32(wrapped) >= TWO_PI:  # float32 rounds values just below 2*pi up to it
        wrapped = 0.0
    return wrapped


def _f32(value: float) -> float:
    # All serialized fields are float32; coercing at construction keeps
    # write/read round trips bit-exact.
    return float(np.float32(value))


def _f32_vector(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Minutia:
    """One minutia: pixel location, orientation and local embedding."""

    x: float
    y: float
    theta: float
    embedding: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _f32(self.x))
        object.__setattr__(self, "y", _f32(self.y))
        object.__setattr__(self, "theta", _f32(self.theta))
        object.__setattr__(self, "embedding", _f32_vector(self.embedding))

    def canonical(self) -> "Minutia":
        """Copy with theta wrapped onto [0, 2*pi)."""
        return Minutia(self.x, self.y, canonicalize_angle(self.theta), self.embedding)


@dataclass(frozen=True)
class Template:
    """One impression: unit global embedding plus its minutiae."""

    global_embedding: np.ndarray
    minutiae: Tuple[Minutia, ...]
    image_size: Tuple[int, int]
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "global_embedding", _f32_vector(self.global_embedding))
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        h, w = self.image_size
        object.__setattr__(self, "image_size", (int(h), int(w)))

    @property
    def global_dim(self) -> int:
        return int(self.global_embedding.shape[0])

    @property
    def minutia_dim(self) -> int:
        return int(self.minutiae[0].embedding.shape[0]) if self.minutiae else 0

    def minutiae_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions (n, 2), orientations (n,), embeddings (n, d) as float64."""
        n = len(self.minutiae)
        if n == 0:
            return (np.zeros((0, 2)), np.zeros(0), np.zeros((0, 0)))
        pos = np.array([(m.x, m.y) for m in self.minutiae], dtype=np.float64)
        ori = np.array([m.theta for m in self.minutiae], dtype=np.float64)
        emb = np.stack([m.embedding for m in self.minutiae]).astype(np.float64)
        return pos, ori, emb


def _norm(vec: np.ndarray) -> float:
    # np.linalg.norm of a vector is sqrt(v.dot(v)); this skips its dispatch.
    v = vec.astype(np.float64)
    return math.sqrt(v.dot(v))


@dataclass(frozen=True)
class Violation:
    """One failed invariant; data, not an exception."""

    field: str
    rule: str
    detail: str = ""

    def __str__(self):
        text = f"{self.field}: {self.rule}"
        return f"{text} ({self.detail})" if self.detail else text


def validate(t: Template) -> List[Violation]:
    """Check every template invariant; an empty list means the template is valid."""
    violations: List[Violation] = []
    if t.global_embedding.size == 0:
        violations.append(Violation("global_embedding", "non-empty"))
    else:
        norm = _norm(t.global_embedding)
        if not math.isfinite(norm) or abs(norm - 1.0) > NORM_VALID_TOL:
            violations.append(
                Violation("global_embedding", "norm", f"norm {norm:.6g} not within {NORM_VALID_TOL:g} of 1")
            )
    h, w = t.image_size
    if h <= 0 or w <= 0:
        violations.append(Violation("image_size", "positive", f"{t.image_size}"))
    d_m = t.minutia_dim
    for i, m in enumerate(t.minutiae):
        name = f"minutiae[{i}]"
        if not (math.isfinite(m.x) and math.isfinite(m.y)):
            violations.append(Violation(name, "finite coordinates", f"({m.x}, {m.y})"))
        elif not (0.0 <= m.x <= w and 0.0 <= m.y <= h):
            violations.append(
                Violation(name, "within image", f"({m.x:.1f}, {m.y:.1f}) outside {w}x{h}")
            )
        if not (0.0 <= m.theta < TWO_PI):
            violations.append(
                Violation(name + ".theta", "range [0, 2pi)", f"theta {m.theta:.6g}")
            )
        if m.embedding.shape[0] != d_m:
            violations.append(
                Violation(name + ".embedding", "dimension", f"{m.embedding.shape[0]} != {d_m}")
            )
        else:
            norm = _norm(m.embedding)
            if not math.isfinite(norm) or abs(norm - 1.0) > NORM_VALID_TOL:
                violations.append(
                    Violation(name + ".embedding", "norm", f"norm {norm:.6g} not within {NORM_VALID_TOL:g} of 1")
                )
    return violations


# ---------------------------------------------------------------------------
# Serialization

_HEADER = struct.Struct("<BIIIII H")  # version, d_g, d_m, n_minutiae, h, w, source_id length


def write_template(t: Template, format: str = "binary") -> bytes:
    """Serialize a template.  ``format`` is ``"binary"`` or ``"json"``."""
    if format == "binary":
        return _write_binary(t)
    if format == "json":
        return _write_json(t)
    raise ValueError(f"unknown template format {format!r}")


def read_template(data: bytes) -> Template:
    """Decode a template from either wire format (auto-detected by magic)."""
    if data[:4] == BINARY_MAGIC:
        return _read_binary(data)
    return _read_json(data)


def _write_binary(t: Template) -> bytes:
    src = t.source_id.encode("utf-8")
    d_m = t.minutia_dim
    out = bytearray()
    out += BINARY_MAGIC
    out += _HEADER.pack(BINARY_VERSION, t.global_dim, d_m, len(t.minutiae),
                        t.image_size[0], t.image_size[1], len(src))
    out += src
    out += np.asarray(t.global_embedding, dtype="<f4").tobytes()
    for m in t.minutiae:
        out += struct.pack("<fff", m.x, m.y, m.theta)
        out += np.asarray(m.embedding, dtype="<f4").tobytes()
    return bytes(out)


def _take(data: bytes, offset: int, count: int, what: str) -> Tuple[bytes, int]:
    if offset + count > len(data):
        raise DecodeError(f"truncated template: expected {count} bytes for {what}", offset)
    return data[offset:offset + count], offset + count


def _ingest_unit(vec: np.ndarray, what: str) -> np.ndarray:
    """Renormalize slightly drifted unit vectors; reject anything worse."""
    norm = _norm(vec)
    if abs(norm - 1.0) <= NORM_VALID_TOL:
        return vec
    if abs(norm - 1.0) <= NORM_INGEST_TOL and norm > 0.0:
        return (np.asarray(vec, dtype=np.float64) / norm).astype(np.float32)
    raise DecodeError(f"{what} norm {norm:.6g} deviates beyond {NORM_INGEST_TOL:g} from 1")


def _ingest(global_embedding: np.ndarray, fields: Sequence[tuple], image_size: Tuple[int, int],
            source_id: str) -> Template:
    """Shared tail of both readers; ``fields`` holds ``(x, y, theta, embedding)``
    per minutia.  The result passes ``validate`` or ``DecodeError`` is raised."""
    minutiae = tuple(
        Minutia(x, y, canonicalize_angle(theta), _ingest_unit(emb, f"minutiae[{i}].embedding"))
        for i, (x, y, theta, emb) in enumerate(fields))
    t = Template(_ingest_unit(global_embedding, "global_embedding"), minutiae, image_size,
                 source_id)
    violations = validate(t)
    if violations:
        raise DecodeError("invalid template: " + "; ".join(str(v) for v in violations))
    return t


def _read_binary(data: bytes) -> Template:
    if data[:4] != BINARY_MAGIC:
        raise DecodeError(f"bad magic {data[:4]!r}, expected {BINARY_MAGIC!r}", 0)
    offset = 4
    raw, offset = _take(data, offset, _HEADER.size, "header")
    version, d_g, d_m, n_minutiae, h, w, src_len = _HEADER.unpack(raw)
    if version != BINARY_VERSION:
        raise DecodeError(f"unsupported version {version}", 4)
    raw, offset = _take(data, offset, src_len, "source_id")
    source_id = raw.decode("utf-8")
    global_embedding, offset = _take(data, offset, 4 * d_g, "global embedding")
    fields = []
    rec = 12 + 4 * d_m
    for i in range(n_minutiae):
        raw, offset = _take(data, offset, rec, f"minutia {i}")
        fields.append(struct.unpack("<fff", raw[:12]) + (np.frombuffer(raw[12:], dtype="<f4"),))
    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes after template", offset)
    return _ingest(np.frombuffer(global_embedding, dtype="<f4"), fields, (h, w), source_id)


def _write_json(t: Template) -> bytes:
    doc = {
        "global": [float(v) for v in t.global_embedding],
        "minutiae": [
            {"x": m.x, "y": m.y, "theta": m.theta, "emb": [float(v) for v in m.embedding]}
            for m in t.minutiae
        ],
        "image_size": [t.image_size[0], t.image_size[1]],
        "source_id": t.source_id,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _read_json(data: bytes) -> Template:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"template is neither FPT1 binary nor JSON: {exc}", 0) from exc
    try:
        fields = [(float(rec["x"]), float(rec["y"]), float(rec["theta"]),
                   np.asarray(rec["emb"], dtype=np.float32)) for rec in doc["minutiae"]]
        h, w = doc["image_size"]
        return _ingest(np.asarray(doc["global"], dtype=np.float32), fields, (int(h), int(w)),
                       str(doc.get("source_id", "")))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(f"malformed JSON template: {exc}") from exc


# ---------------------------------------------------------------------------
# Corpus

@dataclass(frozen=True)
class Corpus:
    """Ordered impressions per subject, with uniform embedding dimensions."""

    subjects: Dict[str, Tuple[Template, ...]]
    dims: Tuple[int, int] = field(default=(0, 0))

    def __post_init__(self):
        subjects = {str(k): tuple(v) for k, v in self.subjects.items()}
        object.__setattr__(self, "subjects", subjects)
        d_g, d_m = self.dims
        if d_g == 0 and d_m == 0:
            for templates in subjects.values():
                for t in templates:
                    d_g = t.global_dim
                    d_m = t.minutia_dim or d_m
                    break
                if d_g:
                    break
        object.__setattr__(self, "dims", (int(d_g), int(d_m)))

    @property
    def subject_ids(self) -> List[str]:
        return sorted(self.subjects)

    @property
    def template_count(self) -> int:
        return sum(len(v) for v in self.subjects.values())

    def template(self, subject_id: str, impression: int) -> Template:
        return self.subjects[subject_id][impression]

    def all_templates(self) -> Iterable[Template]:
        for sid in self.subject_ids:
            yield from self.subjects[sid]


def write_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    """Write ``subject_<id>/impression_<k>.fpt`` files under ``out_dir``."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for sid in corpus.subject_ids:
        subject_dir = root / f"subject_{sid}"
        subject_dir.mkdir(exist_ok=True)
        for k, t in enumerate(corpus.subjects[sid]):
            (subject_dir / f"impression_{k}.fpt").write_bytes(write_template(t))


def read_corpus(root: str | Path) -> Corpus:
    """Load a corpus directory written by :func:`write_corpus`."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    subjects: Dict[str, Tuple[Template, ...]] = {}
    for subject_dir in sorted(root.glob("subject_*")):
        sid = subject_dir.name[len("subject_"):]
        files = sorted(subject_dir.glob("impression_*.fpt"),
                       key=lambda p: int(p.stem.split("_")[1]))
        templates = tuple(read_template(p.read_bytes()) for p in files)
        if templates:
            subjects[sid] = templates
    if not subjects:
        raise FileNotFoundError(f"no subject_*/impression_*.fpt files under {root}")
    return Corpus(subjects)
