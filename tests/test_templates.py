import hashlib
import json
import math

import numpy as np
import pytest

from fpfuse import (Corpus, DecodeError, GroundTruthRecord, PipelineConfig,
                    PredictionRecord, SynthSpec, Template, apply_pipeline,
                    canonicalize_angle, generate_corpus, generate_identity, read_corpus,
                    read_template, score_pairs, validate, write_corpus, write_template)
from fpfuse import templates
from fpfuse.templates import MAX_IMAGE_SIDE

from conftest import as_arrays, basis_template, make_template, random_minutia

TWO_PI = 2 * math.pi


def test_validate_accepts_unit_global_no_minutiae():
    t = basis_template()
    assert validate(t) == []


def test_validate_flags_global_norm():
    t = Template(np.array([0.5, 0, 0, 0]), *as_arrays([]), image_size=(384, 384))
    violations = validate(t)
    assert len(violations) == 1
    assert violations[0].field == "global_embedding"
    assert violations[0].rule == "norm"


def test_validate_flags_uncanonical_theta():
    t = basis_template(minutiae=[(10, 10, 7.0, [1.0, 0.0])])
    violations = validate(t)
    assert any(v.rule == "range [0, 2pi)" for v in violations)
    fixed = canonicalize_angle(t.theta)
    assert fixed[0] == pytest.approx(7.0 - TWO_PI, abs=1e-4)
    assert fixed[0] == pytest.approx(0.7168, abs=1e-4)
    assert validate(basis_template(minutiae=[(10, 10, fixed[0], [1.0, 0.0])])) == []


def test_validate_flags_out_of_frame_and_bad_embedding():
    bad_pos = (500.0, 10.0, 0.1, [1.0, 0.0])
    bad_emb = (10.0, 10.0, 0.1, [0.4, 0.0])
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
    assert np.array_equal(back.positions, t.positions)
    assert np.array_equal(back.theta, t.theta)
    assert np.array_equal(back.embeddings, t.embeddings)
    assert back.embeddings.shape == (7, 8)


def test_empty_minutiae_round_trips():
    t = basis_template()
    payload = write_template(t)
    back = read_template(payload)
    assert back.positions.shape == (0, 2) and back.theta.shape == (0,)
    assert back.minutia_dim == 0 and payload[4 + 5:4 + 9] == bytes(4)  # header d_m
    assert np.array_equal(back.global_embedding, t.global_embedding)


def test_json_round_trip():
    rng = np.random.default_rng(6)
    t = make_template(rng.normal(size=8), [random_minutia(rng) for _ in range(3)])
    payload = write_template(t, format="json")
    back = read_template(payload)
    assert np.allclose(back.global_embedding, t.global_embedding, atol=1e-9)
    assert np.allclose(back.positions, t.positions, atol=1e-9)
    assert np.allclose(back.embeddings, t.embeddings, atol=1e-9)


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


def test_decode_source_id_not_utf8():
    payload = bytearray(write_template(basis_template(source_id="ab")))
    payload[4 + 23] = 0xFF  # the first source_id byte, after the magic and the header
    with pytest.raises(DecodeError, match="source_id is not UTF-8") as err:
        read_template(bytes(payload))
    assert err.value.offset == 4 + 23


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


def test_json_reader_rejects_an_empty_global():
    doc = json.loads(write_template(basis_template(), format="json"))
    doc["global"] = []
    with pytest.raises(DecodeError, match="global_embedding: non-empty"):
        read_template(json.dumps(doc).encode())


def test_reader_canonicalizes_theta():
    t = basis_template(minutiae=[(1.0, 1.0, 0.5, [1.0, 0.0])])
    payload = bytearray(write_template(t))
    # overwrite theta (header 4+23 bytes + source 1 + global 32, then x, y)
    theta_off = 4 + 23 + 1 + 32 + 8
    payload[theta_off:theta_off + 4] = np.float32(7.0).tobytes()
    back = read_template(bytes(payload))
    assert 0.0 <= back.theta[0] < TWO_PI
    assert back.theta[0] == pytest.approx(7.0 - TWO_PI, abs=1e-4)


def test_binary_reader_adopts_a_valid_record_block_and_copies_a_fixed_one():
    rng = np.random.default_rng(9)
    t = make_template(rng.normal(size=8), [random_minutia(rng) for _ in range(4)])
    payload = bytearray(write_template(t))
    back = read_template(bytes(payload))
    assert not back.records.flags.owndata and not back.records.flags.writeable
    assert back.records.tobytes() == t.records.tobytes()
    theta_off = 4 + 23 + 1 + 32 + 8  # header, source_id "t", global, then x and y
    payload[theta_off:theta_off + 4] = np.float32(7.0).tobytes()
    wrapped = read_template(bytes(payload))
    assert wrapped.records.flags.owndata and not wrapped.records.flags.writeable
    assert wrapped.theta[0] == np.float32(canonicalize_angle(np.float32(7.0)))


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
            assert len(a.theta) == len(b.theta)
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


def test_read_corpus_skips_subject_entries_that_are_not_directories(tmp_path):
    write_corpus(generate_corpus(SynthSpec(seed=5, subjects=2, impressions=2)).corpus, tmp_path)
    (tmp_path / "subject_notes.txt").write_text("not a subject")
    (tmp_path / "subject_empty").mkdir()
    assert read_corpus(tmp_path).subject_ids == ["000", "001"]


def test_read_corpus_decodes_each_file_with_one_read_template_call(tmp_path, monkeypatch):
    write_corpus(generate_corpus(SynthSpec(seed=5, subjects=3, impressions=2)).corpus, tmp_path)
    calls = []

    def counted(data):
        calls.append(len(data))
        return read_template(data)

    monkeypatch.setattr(templates, "read_template", counted)
    assert read_corpus(tmp_path).template_count == len(calls) == 6


@pytest.mark.parametrize("names, found", [
    (["impression_0.fpt", "impression_2.fpt", "impression_3.fpt"], "0, 2, 3"),
    (["impression_0.fpt", "impression_1.fpt", "impression_10.fpt"], "0, 1, 10"),
    (["impression_0.fpt", "impression_x.fpt"], "0, x"),
    (["impression_01.fpt"], "01"),
    (["impression_1.fpt", "impression_.fpt"], ", 1"),
])
def test_read_corpus_requires_impressions_numbered_from_0_without_gaps(tmp_path, names, found):
    payload = write_template(basis_template())
    (tmp_path / "subject_000").mkdir()
    (tmp_path / "subject_000" / "impression_0.fpt").write_bytes(payload)
    (tmp_path / "subject_001").mkdir()
    for name in names:
        (tmp_path / "subject_001" / name).write_bytes(payload)
    with pytest.raises(ValueError) as info:
        read_corpus(tmp_path)
    assert str(info.value) == (f"subject_001: impression files must be numbered 0 to "
                               f"{len(names) - 1}, found {found}")


def test_read_corpus_decode_error_names_the_file(tmp_path):
    write_corpus(generate_corpus(SynthSpec(seed=5, subjects=3, impressions=2)).corpus, tmp_path)
    bad = tmp_path / "subject_002" / "impression_1.fpt"
    bad.write_bytes(bad.read_bytes()[:-3])
    with pytest.raises(DecodeError) as info:
        read_corpus(tmp_path)
    assert str(info.value).startswith("subject_002/impression_1.fpt: truncated template:")
    assert info.value.offset is not None and str(info.value).endswith(
        f"(byte offset {info.value.offset})")


def test_property_round_trip_random_templates():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(0, 9))
        t = make_template(rng.normal(size=12),
                          [random_minutia(rng, d_m=6) for _ in range(n)])
        back = read_template(write_template(t))
        assert np.array_equal(back.global_embedding, t.global_embedding)
        assert write_template(back) == write_template(t)
        assert np.array_equal(back.records, t.records)


def test_json_theta_just_below_zero_stays_valid():
    t = basis_template(minutiae=[(5.0, 5.0, 0.5, [1.0, 0.0])])
    doc = json.loads(write_template(t, format="json"))
    doc["minutiae"][0]["theta"] = -1e-9
    back = read_template(json.dumps(doc).encode())
    assert back.theta[0] == 0.0
    assert validate(back) == []


def test_canonical_guards_float32_two_pi():
    # both round to float32 2*pi, which lies outside [0, 2*pi)
    assert canonicalize_angle(-1e-9) == 0.0
    assert canonicalize_angle(TWO_PI - 1e-9) == 0.0
    assert math.isnan(canonicalize_angle(math.nan))
    wrapped = canonicalize_angle(np.array([-1e-9, TWO_PI - 1e-9, 7.0, -math.inf]))
    assert wrapped[:2].tolist() == [0.0, 0.0]
    assert wrapped[2] == canonicalize_angle(7.0) and wrapped[3] == -math.inf


@pytest.mark.parametrize("x, y, theta", [(math.nan, 5.0, 0.5), (5.0, math.inf, 0.5),
                                         (500.0, 5.0, 0.5), (5.0, -1.0, 0.5),
                                         (5.0, 5.0, math.inf)])
def test_readers_reject_non_finite_and_out_of_frame(x, y, theta):
    t = basis_template(minutiae=[(x, y, theta, [1.0, 0.0])])
    for fmt in ("binary", "json"):
        with pytest.raises(DecodeError, match="minutiae\\[0\\]"):
            read_template(write_template(t, format=fmt))


def test_decode_error_names_first_violations_and_counts_the_rest():
    t = basis_template(minutiae=[(500.0 + i, 5.0, 0.5, [1.0, 0.0]) for i in range(40)])
    assert len(validate(t)) == 40
    with pytest.raises(DecodeError) as info:
        read_template(write_template(t))
    message = str(info.value)
    assert message.count("within image") == 5
    assert "minutiae[4]" in message and "minutiae[5]" not in message
    assert message.endswith("and 35 more (40 in all)")


def test_readers_reject_mixed_minutia_dimensions():
    doc = json.loads(write_template(basis_template(), format="json"))
    doc["minutiae"] = [{"x": 1.0, "y": 1.0, "theta": 0.5, "emb": [1.0, 0.0]},
                       {"x": 2.0, "y": 2.0, "theta": 0.5, "emb": [1.0, 0.0, 0.0]}]
    with pytest.raises(DecodeError, match="dimension"):
        read_template(json.dumps(doc).encode())


@pytest.mark.parametrize("field", ["global", "x", "image_size"])
def test_json_reader_rejects_integers_beyond_float_range(field):
    doc = json.loads(write_template(basis_template(minutiae=[(5.0, 5.0, 0.5, [1.0, 0.0])]),
                                    format="json"))
    if field == "x":
        doc["minutiae"][0]["x"] = 10 ** 400
    else:
        doc[field][0] = 10 ** 400
    with pytest.raises(DecodeError, match="malformed JSON template"):
        read_template(json.dumps(doc).encode())


@pytest.mark.parametrize("path, value", [
    (("image_size",), ["384", 384.9]),
    (("image_size",), [384.0, 384]),
    (("image_size",), [True, 384]),
    (("minutiae", 0, "x"), "10"),
    (("minutiae", 0, "theta"), True),
    (("minutiae", 0, "emb"), ["1.0", 0.0]),
    (("global",), ["1.0"] + [0.0] * 7),
    (("source_id",), 7),
])
def test_json_reader_rejects_non_numbers(path, value):
    doc = json.loads(write_template(basis_template(minutiae=[(5.0, 5.0, 0.5, [1.0, 0.0])]),
                                    format="json"))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    with pytest.raises(DecodeError, match="malformed JSON template"):
        read_template(json.dumps(doc).encode())


def test_image_side_beyond_uint32_is_invalid():
    wide = make_template(np.eye(8)[0], image_size=(MAX_IMAGE_SIDE + 1, 384))
    assert [v.field for v in validate(wide)] == ["image_size"]
    assert validate(make_template(np.eye(8)[0], image_size=(MAX_IMAGE_SIDE, 384))) == []
    # Sides beyond the float range are violations too, not an OverflowError.
    for side in (10 ** 400, -10 ** 400):
        huge = make_template(np.eye(8)[0], [(5.0, 5.0, 0.5, np.eye(8)[1])], image_size=(side, 384))
        assert [v.field for v in validate(huge)][0] == "image_size"
    doc = json.loads(write_template(basis_template(), format="json"))
    doc["image_size"] = [5_000_000_000, 384]
    with pytest.raises(DecodeError, match="image_size"):
        read_template(json.dumps(doc).encode())


@pytest.mark.parametrize("positions, theta, embeddings", [
    (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 4))),   # row counts differ
    (np.zeros((2, 3)), np.zeros(2), np.zeros((2, 4))),   # positions not (n, 2)
    (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 4))),  # theta not 1-D
    (np.zeros((2, 2)), np.zeros(2), np.zeros(2)),        # embeddings not 2-D
])
def test_template_rejects_mismatched_shapes(positions, theta, embeddings):
    with pytest.raises(ValueError, match="shapes"):
        Template(np.eye(4)[0], positions, theta, embeddings, (384, 384))


def test_template_arrays_are_read_only_float32_views_of_records():
    rng = np.random.default_rng(8)
    t = make_template(rng.normal(size=4), [random_minutia(rng, d_m=5) for _ in range(3)])
    for arr in (t.global_embedding, t.positions, t.theta, t.embeddings, t.records):
        assert not arr.flags.writeable
    for arr in (t.positions, t.theta, t.embeddings):
        assert arr.dtype == np.float32 and arr.base is t.records
    assert t.records["xyt"][:, 2].tolist() == t.theta.tolist()


def test_objects_that_hold_arrays_compare_by_identity_and_hash():
    """``==`` on two templates or corpora used to raise ``ValueError`` (an
    array's truth value is ambiguous), and hashing raised ``TypeError``.
    Each object here is paired with an equal-valued twin built apart."""
    spec = SynthSpec(seed=7, subjects=2, impressions=2)
    bundle, twin_bundle = generate_corpus(spec), generate_corpus(spec)
    corpus = bundle.corpus
    t = corpus.template("000", 0)
    pairs = [(("000", 0), ("000", 1)), (("000", 0), ("001", 0))]
    scores = [score_pairs(corpus, pairs) for _ in range(2)]
    po, e = np.zeros((1, 3)), np.ones((1, 2))
    twins = [(t, read_template(write_template(t))), (corpus, Corpus(corpus.subjects)),
             (bundle, twin_bundle), (generate_identity(spec, 0), generate_identity(spec, 0)),
             tuple(scores),
             tuple(apply_pipeline(s, PipelineConfig()) for s in scores),
             (PredictionRecord(np.ones(2), po, e), PredictionRecord(np.ones(2), po, e)),
             (GroundTruthRecord(np.ones(2), po, e), GroundTruthRecord(np.ones(2), po, e))]
    for a, b in twins:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
