"""Build a template by hand, validate it, and round-trip both wire formats."""

import numpy as np

from fpfuse import (Template, canonicalize_angle, read_template, validate,
                    write_template)

rng = np.random.default_rng(0)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# one row per minutia: pixel position, orientation in radians, local embedding
template = Template(
    global_embedding=unit_rows(rng.normal(size=192)),
    positions=np.array([[120.5, 88.0], [201.0, 140.2], [60.3, 301.7]]),
    theta=np.array([1.05, 5.60, 0.22]),
    embeddings=unit_rows(rng.normal(size=(3, 64))),
    image_size=(384, 384),
    source_id="demo/impression_0",
)

print("violations on a well-formed template:", validate(template))
print("stored as float32 rows:", template.positions.dtype, template.positions.shape,
      template.theta.shape, template.embeddings.shape)

# a deliberately broken variant: orientation outside [0, 2*pi)
broken = Template(
    global_embedding=template.global_embedding,
    positions=np.array([[10.0, 10.0]]),
    theta=np.array([7.0]),
    embeddings=unit_rows(rng.normal(size=(1, 64))),
    image_size=(384, 384),
)
for violation in validate(broken):
    print("violation:", violation)
print("canonicalized theta:", canonicalize_angle(broken.theta))

blob = write_template(template)            # binary, float32, bit-exact
print(f"\nbinary payload: {len(blob)} bytes, magic={blob[:4]!r}")
back = read_template(blob)
print("binary round trip bit-exact:",
      np.array_equal(back.global_embedding, template.global_embedding)
      and np.array_equal(back.records, template.records))

text = write_template(template, format="json")
print(f"json payload: {len(text)} bytes")
print("json round trip close:",
      np.allclose(read_template(text).global_embedding, template.global_embedding))

# decode errors carry the failing byte offset
try:
    read_template(blob[:40])
except ValueError as exc:
    print("truncated payload ->", exc)
