"""Reference decoder for the reader property tests: the ingest step with no
fast path.  Every template is copied, its angles wrapped, its drifted norms
fixed and its violations listed, whether or not anything needs it."""

import json

import numpy as np

from fpfuse.templates import (_HEADER, _SHOWN_VIOLATIONS, BINARY_MAGIC, DecodeError, Template,
                              _drifted, _norms, _record_dtype, _rescaled, _violations,
                              canonicalize_angle)


def ingest(global_embedding, xyt, embeddings, image_size, source_id) -> Template:
    """Row ``i`` of ``xyt`` holds minutia ``i``'s x, y and theta."""
    t = Template(global_embedding, xyt[:, :2], canonicalize_angle(xyt[:, 2]), embeddings,
                 image_size, source_id)
    g = t.global_embedding[None, :]
    g_norms, norms = _norms(g), _norms(t.embeddings)
    g_fix, fix = _drifted(g_norms), _drifted(norms)
    if g_fix.any() or fix.any():
        t = Template(_rescaled(g, g_norms, g_fix)[0], t.positions, t.theta,
                     _rescaled(t.embeddings, norms, fix), t.image_size, t.source_id)
    violations = _violations(t, g_norms[0], norms)
    if violations:
        shown = "; ".join(str(v) for v in violations[:_SHOWN_VIOLATIONS])
        if len(violations) > _SHOWN_VIOLATIONS:
            shown += f"; and {len(violations) - _SHOWN_VIOLATIONS} more ({len(violations)} in all)"
        raise DecodeError("invalid template: " + shown)
    return t


def full_report(t: Template):
    """Every violation of ``t``, found with no fast path."""
    return _violations(t, _norms(t.global_embedding[None, :])[0], _norms(t.embeddings))


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
