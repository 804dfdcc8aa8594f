"""Reference decoder for the reader property tests: the ingest step with no
fast path.  Every template is copied, its angles wrapped and its drifted
norms fixed one row at a time, whether or not anything needs it, and is
then checked by ``validate`` once."""

import json

import numpy as np

from fpfuse.templates import (_HEADER, _SHOWN_VIOLATIONS, BINARY_MAGIC, NORM_INGEST_TOL,
                              NORM_VALID_TOL, DecodeError, Template, _norms, _record_dtype,
                              canonicalize_angle, validate)


def renormalized(rows):
    """``rows`` in float64, each row whose norm is off 1 by more than
    ``NORM_VALID_TOL`` and at most ``NORM_INGEST_TOL`` divided by its norm."""
    out = np.array(rows, dtype=np.float64)
    for i, norm in enumerate(_norms(out)):
        if NORM_VALID_TOL < abs(norm - 1.0) <= NORM_INGEST_TOL:
            out[i] = out[i] / norm
    return out


def ingest(global_embedding, xyt, embeddings, image_size, source_id) -> Template:
    """Row ``i`` of ``xyt`` holds minutia ``i``'s x, y and theta."""
    t = Template(renormalized(global_embedding[None, :])[0], xyt[:, :2],
                 canonicalize_angle(xyt[:, 2]), renormalized(embeddings), image_size, source_id)
    violations = validate(t)
    if violations:
        shown = "; ".join(str(v) for v in violations[:_SHOWN_VIOLATIONS])
        if len(violations) > _SHOWN_VIOLATIONS:
            shown += f"; and {len(violations) - _SHOWN_VIOLATIONS} more ({len(violations)} in all)"
        raise DecodeError("invalid template: " + shown)
    return t


def read(data: bytes) -> Template:
    """Decode a well-formed payload of either wire format and ingest it."""
    if data[:4] == BINARY_MAGIC:
        _, d_g, d_m, n, h, w, src_len = _HEADER.unpack_from(data, 4)
        start = 4 + _HEADER.size + src_len
        source_id = data[4 + _HEADER.size:start].decode("utf-8")
        g = np.frombuffer(data[start:start + 4 * d_g], dtype="<f4")
        records = np.frombuffer(data[start + 4 * d_g:], dtype=_record_dtype(d_m if n else 0))
        return ingest(g, records["xyt"], records["emb"], (h, w), source_id)
    doc = json.loads(data)
    recs = doc["minutiae"]
    d_m = len(recs[0]["emb"]) if recs else 0
    return ingest(np.asarray(doc["global"], dtype=np.float32),
                  np.array([[r["x"], r["y"], r["theta"]] for r in recs],
                           dtype=np.float64).reshape(-1, 3),
                  np.array([r["emb"] for r in recs], dtype=np.float32).reshape(len(recs), d_m),
                  tuple(doc["image_size"]), doc["source_id"])
