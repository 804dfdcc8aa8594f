import hashlib
import json
import math

import numpy as np
import pytest

from fpfuse import (Corpus, DecodeError, Minutia, SynthSpec, Template,
                    canonicalize_angle, generate_corpus, read_corpus,
                    read_template, validate, write_corpus, write_template)

from conftest import basis_template, make_template, random_minutia, unit

TWO_PI = 2 * math.pi


def test_validate_accepts_unit_global_no_minutiae():
    t = basis_template()
    assert validate(t) == []


def test_validate_flags_global_norm():
    t = Template(global_embedding=np.array([0.5, 0, 0, 0]), minutiae=(),
                 image_size=(384, 384))
    violations = validate(t)
    assert len(violations) == 1
    assert violations[0].field == "global_embedding"
    assert violations[0].rule == "norm"


def test_validate_flags_uncanonical_theta():
    m = Minutia(x=10, y=10, theta=7.0, embedding=[1.0, 0.0])
    t = basis_template(minutiae=[m])
    violations = validate(t)
    assert any(v.rule == "range [0, 2pi)" for v in violations)
    fixed = m.canonical()
    assert fixed.theta == pytest.approx(7.0 - TWO_PI, abs=1e-4)
    assert fixed.theta == pytest.approx(0.7168, abs=1e-4)
    assert validate(basis_template(minutiae=[fixed])) == []


def test_validate_flags_out_of_frame_and_bad_embedding():
    bad_pos = Minutia(x=500.0, y=10.0, theta=0.1, embedding=[1.0, 0.0])
    bad_emb = Minutia(x=10.0, y=10.0, theta=0.1, embedding=[0.4, 0.0])
    violations = validate(basis_template(minutiae=[bad_pos, bad_emb]))
    rules = {(v.field, v.rule) for v in violations}
    assert ("minutiae[0]", "within image") in rules
    assert ("minutiae[1].embedding", "norm") in rules


def test_canonicalize_idempotent():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-20, 20, size=200):
        once = canonicalize_angle(theta)
        assert 0.0 <= once < TWO_PI
        assert canonicalize_angle(once) == once


def test_binary_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    minutiae = [random_minutia(rng) for _ in range(7)]
    t = make_template(rng.normal(size=16), minutiae, source_id="subject_003/impression_1")
    back = read_template(write_template(t))
    assert back.source_id == t.source_id
    assert back.image_size == t.image_size
    assert np.array_equal(back.global_embedding, t.global_embedding)
    assert len(back.minutiae) == len(t.minutiae)
    for a, b in zip(back.minutiae, t.minutiae):
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)
        assert np.array_equal(a.embedding, b.embedding)


def test_empty_minutiae_round_trips():
    t = basis_template()
    back = read_template(write_template(t))
    assert back.minutiae == ()
    assert np.array_equal(back.global_embedding, t.global_embedding)


def test_json_round_trip():
    rng = np.random.default_rng(6)
    t = make_template(rng.normal(size=8), [random_minutia(rng) for _ in range(3)])
    payload = write_template(t, format="json")
    back = read_template(payload)
    assert np.allclose(back.global_embedding, t.global_embedding, atol=1e-9)
    for a, b in zip(back.minutiae, t.minutiae):
        assert a.x == pytest.approx(b.x, abs=1e-9)
        assert np.allclose(a.embedding, b.embedding, atol=1e-9)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_template(basis_template(), format="xml")


def test_decode_bad_magic_names_offset():
    with pytest.raises(DecodeError) as err:
        read_template(b"FPTX" + b"\x00" * 40)
    assert err.value.offset == 0


def test_decode_truncation_names_offset():
    payload = write_template(basis_template())
    with pytest.raises(DecodeError) as err:
        read_template(payload[:-3])
    assert "byte offset" in str(err.value)


def test_decode_bad_version():
    payload = bytearray(write_template(basis_template()))
    payload[4] = 9
    with pytest.raises(DecodeError, match="version"):
        read_template(bytes(payload))


def test_decode_trailing_bytes_rejected():
    payload = write_template(basis_template())
    with pytest.raises(DecodeError, match="trailing"):
        read_template(payload + b"\x00")


def test_ingest_renormalizes_small_drift():
    t = basis_template()
    payload = bytearray(write_template(t))
    # nudge the first float of the global embedding: norm drifts into the
    # renormalize band ((1e-6, 1e-3])
    drifted = np.array([1.0005, 0, 0, 0, 0, 0, 0, 0], dtype="<f4")
    start = len(payload) - 4 * 8
    payload[start:] = drifted.tobytes()
    back = read_template(bytes(payload))
    assert validate(back) == []
    assert abs(float(np.linalg.norm(back.global_embedding.astype(np.float64))) - 1.0) <= 1e-6


def test_ingest_rejects_large_drift():
    t = basis_template()
    payload = bytearray(write_template(t))
    bad = np.array([1.5, 0, 0, 0, 0, 0, 0, 0], dtype="<f4")
    payload[-4 * 8:] = bad.tobytes()
    with pytest.raises(DecodeError, match="global_embedding"):
        read_template(bytes(payload))


def test_reader_canonicalizes_theta():
    m = Minutia(x=1.0, y=1.0, theta=0.5, embedding=[1.0, 0.0])
    t = basis_template(minutiae=[m])
    payload = bytearray(write_template(t))
    # overwrite theta (header 4+23 bytes + source 1 + global 32, then x, y)
    theta_off = 4 + 23 + 1 + 32 + 8
    payload[theta_off:theta_off + 4] = np.float32(7.0).tobytes()
    back = read_template(bytes(payload))
    assert 0.0 <= back.minutiae[0].theta < TWO_PI
    assert back.minutiae[0].theta == pytest.approx(7.0 - TWO_PI, abs=1e-4)


def test_corpus_round_trip_and_pinned_checksum(tmp_path):
    # 25 subjects x 4 impressions = 100 templates
    spec = SynthSpec(seed=12345, subjects=25, impressions=4)
    corpus = generate_corpus(spec).corpus
    assert corpus.template_count == 100
    write_corpus(corpus, tmp_path)
    back = read_corpus(tmp_path)
    assert back.subject_ids == corpus.subject_ids
    for sid in corpus.subject_ids:
        for a, b in zip(back.subjects[sid], corpus.subjects[sid]):
            assert np.array_equal(a.global_embedding, b.global_embedding)
            assert len(a.minutiae) == len(b.minutiae)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("subject_*/impression_*.fpt")):
        digest.update(path.relative_to(tmp_path).as_posix().encode())
        digest.update(path.read_bytes())
    # pinned from a reference run (numpy Philox streams are version-stable)
    assert digest.hexdigest() == (
        "ece93dba49c20b74a4623adb45dbcc59bec03994dec8aa20bf710b092f5574b4")


def test_read_corpus_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_corpus(tmp_path / "nope")


def test_corpus_dims_inferred(small_bundle):
    corpus = small_bundle.corpus
    assert corpus.dims == (192, 64)


def test_property_round_trip_random_templates():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(0, 9))
        t = make_template(rng.normal(size=12),
                          [random_minutia(rng, d_m=6) for _ in range(n)])
        back = read_template(write_template(t))
        assert np.array_equal(back.global_embedding, t.global_embedding)
        for a, b in zip(back.minutiae, t.minutiae):
            assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)
            assert np.array_equal(a.embedding, b.embedding)


def test_json_theta_just_below_zero_stays_valid():
    t = basis_template(minutiae=[Minutia(x=5.0, y=5.0, theta=0.5, embedding=[1.0, 0.0])])
    doc = json.loads(write_template(t, format="json"))
    doc["minutiae"][0]["theta"] = -1e-9
    back = read_template(json.dumps(doc).encode())
    assert back.minutiae[0].theta == 0.0
    assert validate(back) == []


def test_canonical_guards_float32_two_pi():
    # both round to float32 2*pi, which lies outside [0, 2*pi)
    assert canonicalize_angle(-1e-9) == 0.0
    assert canonicalize_angle(TWO_PI - 1e-9) == 0.0
    assert Minutia(1.0, 1.0, -1e-9, [1.0, 0.0]).canonical().theta == 0.0
    assert math.isnan(canonicalize_angle(math.nan))


@pytest.mark.parametrize("x, y, theta", [(math.nan, 5.0, 0.5), (5.0, math.inf, 0.5),
                                         (500.0, 5.0, 0.5), (5.0, -1.0, 0.5),
                                         (5.0, 5.0, math.inf)])
def test_readers_reject_non_finite_and_out_of_frame(x, y, theta):
    t = basis_template(minutiae=[Minutia(x=x, y=y, theta=theta, embedding=[1.0, 0.0])])
    for fmt in ("binary", "json"):
        with pytest.raises(DecodeError, match="minutiae\\[0\\]"):
            read_template(write_template(t, format=fmt))


def test_readers_reject_mixed_minutia_dimensions():
    t = basis_template(minutiae=[Minutia(1.0, 1.0, 0.5, [1.0, 0.0]),
                                 Minutia(2.0, 2.0, 0.5, [1.0, 0.0, 0.0])])
    with pytest.raises(DecodeError, match="dimension"):
        read_template(write_template(t, format="json"))
