"""Fingerprint template domain types, validation and serialization.

A template is one impression's stored representation: a unit-norm global
embedding plus a set of minutiae.  The minutiae are read-only float32
arrays with one row per minutia: ``positions`` (n, 2) in pixels (x, y),
``theta`` (n,) in radians and ``embeddings`` (n, d_m), the unit-norm local
embeddings.  The three are views of one record array, ``records``, whose
layout is the FPT1 minutia record (x, y, theta, then the d_m embedding
values, all little-endian float32), so the binary reader decodes the
record block with one ``np.frombuffer`` and the writer encodes it with one
``tobytes``.  Templates are immutable after construction and safe to
share across threads.

Two wire formats are provided: a little-endian binary format (magic
``FPT1``, float32 payload, bit-exact round trips) and a JSON mirror.
Corpora live on disk as ``subject_<id>/impression_<k>.fpt`` directories.

Reader contract: :func:`read_template` returns a template that passes
:func:`validate`, or raises :class:`DecodeError`, whatever the bytes hold:
JSON nested too deep to parse, and every float32 bit pattern, included.
:func:`validate` is the one validity check, and the reader calls it twice
at most.  A template valid as read is returned at once, the binary reader's
record block adopted without a copy.  Any other one is repaired on a copy,
drifted embeddings renormalized and orientations wrapped, and validated
again; what is still wrong, NaN or out-of-frame coordinates included, is
listed in the ``DecodeError``.  The reader's float status is scoped once,
around its whole body, so a signaling NaN or a JSON number beyond the
float32 range is cast without a warning and rejected by :func:`validate`.
:func:`read_corpus` lists each directory once, decodes each file with its
own :func:`read_template` call, requires each subject's impressions to be
numbered 0 to k-1, and names the failing file.

The JSON checks every config shares live here too: :func:`number` is the
one number rule and :func:`from_json` the one config reader.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi

BINARY_MAGIC = b"FPT1"
BINARY_VERSION = 1
MAX_IMAGE_SIDE = 2 ** 32 - 1  # FPT1 stores each image side as a uint32

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


def canonicalize_angle(theta):
    """Map angles in radians onto [0, 2*pi), also after float32 rounding.

    Takes a scalar (returns a float) or an array (returns a float64 array).
    Non-finite angles are returned unchanged, for :func:`validate` to flag.
    """
    t = np.asarray(theta, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        wrapped = np.fmod(t, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    # float32 rounds values just below 2*pi up to it
    wrapped = np.where(wrapped.astype(np.float32) >= np.float64(TWO_PI), 0.0, wrapped)
    wrapped = np.where(np.isfinite(t), wrapped, t)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


@functools.lru_cache(maxsize=16)
def _record_dtype(d_m: int) -> np.dtype:
    """One FPT1 minutia record: x, y, theta, then the local embedding."""
    return np.dtype([("xyt", "<f4", 3), ("emb", "<f4", d_m)])


@dataclass(frozen=True, eq=False)
class Template:
    """One impression: unit global embedding plus its minutiae as row arrays.

    All arrays are stored as read-only float32; ``positions``, ``theta`` and
    ``embeddings`` become views of ``records``.  Construction checks shapes
    (``ValueError`` on a mismatch) but not values: :func:`validate` does.
    A template without minutiae has ``embeddings`` of shape (0, 0).

    ``global64`` is a read-only float64 copy of ``global_embedding``, made
    once for every template however it is built (8·d_g bytes, 1.5 KB at
    d_g = 192).  :func:`fpfuse.matching.global_match` takes the dot product
    of these copies, so a pair pays no per-call cast and gets the bits the
    cast would give.
    """

    global_embedding: np.ndarray          # (d_g,)
    positions: np.ndarray                 # (n, 2) pixels, x then y
    theta: np.ndarray                     # (n,) radians
    embeddings: np.ndarray                # (n, d_m)
    image_size: Tuple[int, int]
    source_id: str = ""
    records: np.ndarray = field(init=False, repr=False)
    global64: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.array(self.global_embedding, dtype=np.float32)
        pos = np.asarray(self.positions, dtype=np.float32)
        theta = np.asarray(self.theta, dtype=np.float32)
        emb = np.asarray(self.embeddings, dtype=np.float32)
        if g.ndim != 1:
            raise ValueError(f"global embedding must be 1-D, got shape {g.shape}")
        n = theta.shape[0] if theta.ndim == 1 else -1
        if pos.shape != (n, 2) or emb.ndim != 2 or emb.shape[0] != n:
            raise ValueError(f"minutiae arrays must have shapes (n, 2), (n,) and (n, d_m), "
                             f"got {pos.shape}, {theta.shape} and {emb.shape}")
        records = np.empty(n, dtype=_record_dtype(emb.shape[1] if n else 0))
        records["xyt"][:, :2] = pos
        records["xyt"][:, 2] = theta
        if n:
            records["emb"] = emb
        self._adopt(g, records, self.image_size, self.source_id)

    def _adopt(self, global_embedding: np.ndarray, records: np.ndarray,
               image_size: Tuple[int, int], source_id: str) -> "Template":
        """Set every field, the minutia arrays as views of ``records``, an FPT1
        record array that becomes read-only and is not copied, and
        ``global64`` as a cast of ``global_embedding``.  The binary reader
        calls this on a bare ``object.__new__(Template)``."""
        global64 = global_embedding.astype(np.float64)
        for array in (global_embedding, records, global64):
            array.flags.writeable = False
        xyt = records["xyt"]
        h, w = image_size
        for name, value in (("global_embedding", global_embedding), ("positions", xyt[:, :2]),
                            ("theta", xyt[:, 2]), ("embeddings", records["emb"]),
                            ("image_size", (int(h), int(w))), ("source_id", source_id),
                            ("records", records), ("global64", global64)):
            object.__setattr__(self, name, value)
        return self

    @property
    def global_dim(self) -> int:
        return int(self.global_embedding.shape[0])

    @property
    def minutia_dim(self) -> int:
        return int(self.embeddings.shape[1])

    def minutiae_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float64 copies of positions (n, 2), theta (n,) and embeddings (n, d_m)."""
        return (self.positions.astype(np.float64), self.theta.astype(np.float64),
                self.embeddings.astype(np.float64))


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed in float64."""
    r = rows.astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", r, r))


@dataclass(frozen=True)
class Violation:
    """One failed invariant; data, not an exception."""

    field: str
    rule: str
    detail: str = ""

    def __str__(self):
        text = f"{self.field}: {self.rule}"
        return f"{text} ({self.detail})" if self.detail else text


# The largest float32 below 2*pi (float32 rounds 2*pi itself up): a float32
# angle lies in [0, 2*pi) exactly when it lies in [0, _THETA_MAX].
_THETA_MAX = float(np.nextafter(np.float32(TWO_PI), np.float32(0.0)))


def validate(t: Template) -> List[Violation]:
    """Check every template invariant; an empty list means the template is
    valid.  A handful of whole-array tests decide first; the report is built
    only when one of them fails."""
    global_norm, norms = _norms(t.global64[None, :])[0], _norms(t.embeddings)
    h, w = t.image_size
    sized = 0 < h <= MAX_IMAGE_SIDE and 0 < w <= MAX_IMAGE_SIDE
    drift = np.abs(norms - 1.0)
    xyt = t.records["xyt"]
    # Sides out of range are clamped to 2**128, beyond every finite float32,
    # so they compare alike, also when they lie beyond the float range.
    bound = np.array((w, h, _THETA_MAX) if sized else
                     [min(max(side, -2.0 ** 128), 2.0 ** 128) for side in (w, h)] + [_THETA_MAX])
    in_range = (0.0 <= xyt) & (xyt <= bound)  # every x, y and theta at once; NaN compares False
    if (abs(global_norm - 1.0) <= NORM_VALID_TOL  # False for an empty global (norm 0)
            and sized and drift.max(initial=0.0) <= NORM_VALID_TOL and in_range.all()):
        return []
    violations: List[Violation] = []
    if t.global_embedding.size == 0:
        violations.append(Violation("global_embedding", "non-empty"))
    elif not abs(global_norm - 1.0) <= NORM_VALID_TOL:
        violations.append(Violation("global_embedding", "norm",
                                    f"norm {global_norm:.6g} not within {NORM_VALID_TOL:g} of 1"))
    if not sized:
        violations.append(Violation("image_size", f"sides in [1, {MAX_IMAGE_SIDE}]",
                                    f"{t.image_size}"))
    x, y, theta = xyt.astype(np.float64).T
    finite = np.isfinite(x) & np.isfinite(y)
    found = [(i, Violation(f"minutiae[{i}]", "finite coordinates", f"({x[i]}, {y[i]})"))
             for i in np.flatnonzero(~finite)]
    found += [(i, Violation(f"minutiae[{i}]", "within image",
                            f"({x[i]:.1f}, {y[i]:.1f}) outside {w}x{h}"))
              for i in np.flatnonzero(finite & ~(in_range[:, 0] & in_range[:, 1]))]
    found += [(i, Violation(f"minutiae[{i}].theta", "range [0, 2pi)", f"theta {theta[i]:.6g}"))
              for i in np.flatnonzero(~in_range[:, 2])]
    found += [(i, Violation(f"minutiae[{i}].embedding", "norm",
                            f"norm {norms[i]:.6g} not within {NORM_VALID_TOL:g} of 1"))
              for i in np.flatnonzero(~(drift <= NORM_VALID_TOL))]
    found.sort(key=lambda item: item[0])  # stable: per minutia, in the order checked above
    return violations + [v for _, v in found]


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


@np.errstate(invalid="ignore", over="ignore")
def read_template(data: bytes) -> Template:
    """Decode a template from either wire format (auto-detected by magic).
    A signaling NaN, or a JSON number beyond the float32 range, is cast
    without a warning, for :func:`validate` to reject."""
    if data[:4] == BINARY_MAGIC:
        return _read_binary(data)
    return _read_json(data)


def _write_binary(t: Template) -> bytes:
    src = t.source_id.encode("utf-8")
    header = _HEADER.pack(BINARY_VERSION, t.global_dim, t.minutia_dim, t.records.shape[0],
                          t.image_size[0], t.image_size[1], len(src))
    return b"".join((BINARY_MAGIC, header, src, t.global_embedding.astype("<f4").tobytes(),
                     t.records.tobytes()))


def _take(data: bytes, offset: int, count: int, what: str) -> Tuple[bytes, int]:
    if offset + count > len(data):
        raise DecodeError(f"truncated template: expected {count} bytes for {what}", offset)
    return data[offset:offset + count], offset + count


def _renormalized(rows: np.ndarray) -> np.ndarray:
    """A float64 copy of ``rows`` with each row whose norm is off 1 by more
    than ``NORM_VALID_TOL`` and at most ``NORM_INGEST_TOL`` divided by its
    norm: float32 rounding then moves it off 1 by at most 2**-24."""
    out = rows.astype(np.float64)
    norms = _norms(out)
    drift = np.abs(norms - 1.0)
    fix = (drift > NORM_VALID_TOL) & (drift <= NORM_INGEST_TOL)
    out[fix] /= norms[fix, None]
    return out


# A DecodeError names this many violations and counts the rest; validate()
# still returns every one.
_SHOWN_VIOLATIONS = 5


def _ingest(t: Template) -> Template:
    """Shared tail of both readers.  A ``t`` that :func:`validate` finds valid
    is returned as it is.  Otherwise theta is wrapped and slightly drifted
    embeddings are renormalized on a copy, which is validated again; the
    violations left, if any, raise ``DecodeError``."""
    if not validate(t):
        return t
    t = replace(t, global_embedding=_renormalized(t.global_embedding[None, :])[0],
                theta=canonicalize_angle(t.theta), embeddings=_renormalized(t.embeddings))
    violations = validate(t)
    if violations:
        shown = "; ".join(str(v) for v in violations[:_SHOWN_VIOLATIONS])
        if len(violations) > _SHOWN_VIOLATIONS:
            shown += f"; and {len(violations) - _SHOWN_VIOLATIONS} more ({len(violations)} in all)"
        raise DecodeError("invalid template: " + shown)
    return t


def _read_binary(data: bytes) -> Template:
    raw, offset = _take(data, 4, _HEADER.size, "header")  # read_template checked BINARY_MAGIC
    version, d_g, d_m, n_minutiae, h, w, src_len = _HEADER.unpack(raw)
    if version != BINARY_VERSION:
        raise DecodeError(f"unsupported version {version}", 4)
    raw, offset = _take(data, offset, src_len, "source_id")
    try:
        source_id = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"source_id is not UTF-8: {exc}", offset - src_len) from exc
    global_embedding, offset = _take(data, offset, 4 * d_g, "global embedding")
    block, offset = _take(data, offset, n_minutiae * (12 + 4 * d_m),
                          f"{n_minutiae} minutia records")
    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes after template", offset)
    records = np.frombuffer(block, dtype=_record_dtype(d_m if n_minutiae else 0))
    return _ingest(object.__new__(Template)._adopt(np.frombuffer(global_embedding, dtype="<f4"),
                                                   records, (h, w), source_id))


def _write_json(t: Template) -> bytes:
    doc = {
        "global": t.global_embedding.tolist(),
        "minutiae": [{"x": x, "y": y, "theta": theta, "emb": emb}
                     for (x, y), theta, emb in zip(t.positions.tolist(), t.theta.tolist(),
                                                   t.embeddings.tolist())],
        "image_size": [t.image_size[0], t.image_size[1]],
        "source_id": t.source_id,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def json_numbers(value, what: str):
    """Return ``value``, a JSON number or a nest of arrays, after checking
    that every leaf is an int or a float.  Any other leaf, a bool or a
    numeric string included, raises ``ValueError`` naming ``what``."""
    stack = [value]
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ValueError(f"{what} must hold numbers, got {leaf!r}")
    return value


def number(value, what: str, lo: float = -math.inf, hi: float = math.inf,
           integer: bool = False):
    """``value`` as a float, or as an int with ``integer``, after checking that
    it is a real number (an integral one with ``integer``) that is not a bool,
    is finite and lies in ``[lo, hi]``.  An int beyond the float range counts
    as infinite.  Anything else raises ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer
                                                  else numbers.Real):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not (finite and lo <= value <= hi):
        span = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo}, {hi}]"
        raise ValueError(f"{what} must be a finite number{span}, got {value!r}")
    return int(value) if integer else float(value)


def from_json(cls, doc, what: str):
    """The dataclass config ``cls`` built from ``doc``, a JSON object whose
    keys are its field names.  A key left out keeps its default, and a field
    whose default is a dataclass takes a nested object.  A non-object or an
    unknown key raises ``ValueError`` naming ``what``; ``cls`` checks the
    values."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(doc).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(unknown)}; "
                         f"expected {', '.join(names)}")
    args = dict(doc)
    for f in fields(cls):
        if f.name in doc and is_dataclass(f.default_factory):
            args[f.name] = from_json(f.default_factory, doc[f.name], f"{what} {f.name}")
    return cls(**args)


def described(exc: Exception) -> str:
    """``str(exc)``, saying that a key is missing where a ``KeyError`` gives
    only the key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _read_json(data: bytes) -> Template:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DecodeError(f"template is neither FPT1 binary nor JSON: {exc}", 0) from exc
    try:
        recs = doc["minutiae"]
        embs = json_numbers([rec["emb"] for rec in recs], "minutia emb")
        dims = {len(e) for e in embs}
        if len(dims) > 1:
            raise DecodeError(f"minutia embeddings differ in dimension: {sorted(dims)}")
        d_m = dims.pop() if dims else 0
        xyt = json_numbers([[rec["x"], rec["y"], rec["theta"]] for rec in recs],
                           "minutia x, y and theta")
        h, w = (number(side, "image_size", integer=True) for side in doc["image_size"])
        source_id = doc.get("source_id", "")
        if not isinstance(source_id, str):
            raise ValueError(f"source_id must be a string, got {source_id!r}")
        g = np.asarray(json_numbers(doc["global"], "global"), dtype=np.float32)
        xyt = np.array(xyt, dtype=np.float64).reshape(-1, 3)
        # wrapped before the float32 cast, which may round an angle up to 2*pi
        return _ingest(Template(g, xyt[:, :2], canonicalize_angle(xyt[:, 2]),
                                np.array(embs, dtype=np.float32).reshape(len(embs), d_m),
                                (h, w), source_id))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(f"malformed JSON template: {described(exc)}") from exc


# ---------------------------------------------------------------------------
# Corpus

@dataclass(frozen=True, eq=False)
class Corpus:
    """Ordered impressions per subject.  Embedding dimensions are not checked
    here; the matchers reject a pair whose dimensions differ."""

    subjects: Dict[str, Tuple[Template, ...]]

    def __post_init__(self):
        object.__setattr__(self, "subjects", {str(k): tuple(v) for k, v in self.subjects.items()})

    @property
    def subject_ids(self) -> List[str]:
        return sorted(self.subjects)

    @property
    def template_count(self) -> int:
        return sum(len(v) for v in self.subjects.values())

    def template(self, subject_id: str, impression: int) -> Template:
        return self.subjects[subject_id][impression]


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
    """Load a corpus directory written by :func:`write_corpus`.

    Each file is decoded by its own :func:`read_template` call.  A subject's
    files must be numbered ``impression_0.fpt`` up to ``impression_<k-1>.fpt``
    with no gap, as :func:`write_corpus` writes them; any other numbering
    raises ``ValueError`` naming the subject directory and the numbers found.
    A ``DecodeError`` is raised again with the failing file's path, relative
    to ``root``, in front of its message.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    subjects: Dict[str, Tuple[Template, ...]] = {}
    # One listing per directory; a subject_* entry that is not a directory holds nothing.
    for entry in sorted(os.scandir(root), key=lambda e: e.name):
        if not (entry.name.startswith("subject_") and entry.is_dir()):
            continue
        found = [name[len("impression_"):-len(".fpt")] for name in os.listdir(entry.path)
                 if name.startswith("impression_") and name.endswith(".fpt")]
        if sorted(found) != sorted(str(k) for k in range(len(found))):
            raise ValueError(f"{entry.name}: impression files must be numbered 0 to "
                             f"{len(found) - 1}, found "
                             f"{', '.join(sorted(found, key=lambda k: (len(k), k)))}")
        templates = tuple(_read_file(root, f"{entry.name}/impression_{k}.fpt")
                          for k in range(len(found)))
        if templates:
            subjects[entry.name[len("subject_"):]] = templates
    if not subjects:
        raise FileNotFoundError(f"no subject_*/impression_*.fpt files under {root}")
    return Corpus(subjects)


def _read_file(root: Path, name: str) -> Template:
    """:func:`read_template` of the corpus file ``root/name``; a ``DecodeError`` names it."""
    with open(os.path.join(root, name), "rb") as f:
        data = f.read()
    try:
        return read_template(data)
    except DecodeError as exc:
        error = DecodeError(f"{name}: {exc}")
        error.offset = exc.offset
        raise error from exc
