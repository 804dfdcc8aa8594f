"""Property tests of the reader contract, the config schema, the gate rule,
the float64 global copy and the global score, gate-and-fuse, the assignment
solver and its uniqueness certificate, the loss reference's correspondence
costs and its one minutia-set rule, the one planar distance and minutiae
quality."""

import json
import math
import struct
import warnings
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fpfuse import (CorrespondenceWeights, DecodeError, GroundTruthRecord,
                    InfeasibleAssignmentError, LocalMatchConfig, LossWeights, Normalizer,
                    PipelineConfig, PredictionRecord, Protocol, SynthSpec, Template,
                    angular_distance, apply_pipeline, canonicalize_angle,
                    correspondence_cost_matrix, enumerate_pairs, from_json, generate_corpus,
                    global_match, infer_pair_with_config, minutiae_quality, read_template,
                    reorder_ground_truth, score_pairs, solve_assignment, total_loss, validate,
                    write_template)
from fpfuse.assignment import _augmenting_path_solve, squared_distances
from fpfuse.pipeline import (FUSION_RULES, GATE_LOCAL_EVALUATED, GATES, SKIP_LOCAL, UNGATED,
                             gated_fuse)
from fpfuse.templates import _HEADER, MAX_IMAGE_SIDE

import cost_oracle
import ingest_oracle
import loss_oracle
import quality_oracle
from conftest import as_arrays, brute_force

TWO_PI = 2 * math.pi
SIZE = (64, 48)  # (h, w)

PROPERTY = settings(max_examples=60, deadline=None)


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


thetas = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(-1e-6, 0.0, exclude_max=True),          # just below 0
    st.floats(TWO_PI - 1e-6, TWO_PI, exclude_max=True),  # just below 2*pi
    st.floats(-50.0, 50.0),
)
minutia_fields = st.tuples(st.floats(0.0, SIZE[1]), st.floats(0.0, SIZE[0]), thetas)


@st.composite
def templates(draw, fields=minutia_fields):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d_g, d_m = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rows = [(x, y, theta, _unit(rng, d_m)) for x, y, theta in draw(st.lists(fields, max_size=6))]
    return Template(_unit(rng, d_g), *as_arrays(rows), SIZE, draw(st.text(max_size=8)))


@PROPERTY
@given(templates(), st.sampled_from(["binary", "json"]))
def test_read_returns_valid_template(t, fmt):
    back = read_template(write_template(t, format=fmt))
    assert validate(back) == []
    assert back.source_id == t.source_id
    assert np.array_equal(back.positions, t.positions)
    assert np.array_equal(back.theta, canonicalize_angle(t.theta).astype(np.float32))
    if fmt == "binary":
        assert np.array_equal(back.global_embedding, t.global_embedding)


bad_coordinates = st.one_of(st.just(math.nan), st.floats(-1e6, -1e-3),
                            st.floats(SIZE[0] + 1.0, 1e6))


@PROPERTY
@given(templates(), st.tuples(bad_coordinates, st.floats(0.0, 40.0)),
       st.booleans(), st.sampled_from(["binary", "json"]))
def test_read_rejects_nan_and_out_of_frame(t, bad, swap, fmt):
    x, y = reversed(bad) if swap else bad
    d_m = t.minutia_dim or 3
    embeddings = t.embeddings if len(t.theta) else np.zeros((0, d_m))
    broken = Template(t.global_embedding, np.vstack([t.positions, [(x, y)]]),
                      np.append(t.theta, 1.0), np.vstack([embeddings, np.eye(d_m)[0]]),
                      t.image_size, t.source_id)
    with pytest.raises(DecodeError):
        read_template(write_template(broken, format=fmt))


# Values a reader must fix or reject, each next to the bound it crosses.
drifts = st.one_of(st.floats(1 - 2e-3, 1 + 2e-3),
                   st.sampled_from([1 + 2e-6, 1 - 2e-6, 1 + 5e-4, 1 - 9e-4, 1 + 1.5e-3, 0.5]))
bad_thetas = st.one_of(st.floats(-50.0, 0.0, exclude_max=True), st.floats(TWO_PI, 50.0),
                       st.sampled_from([-1e-9, TWO_PI, float(np.nextafter(TWO_PI, 0)),
                                        TWO_PI + 1e-3, math.nan, math.inf, -math.inf]))
off_frame = st.one_of(st.floats(-1e6, 0.0, exclude_max=True), st.floats(SIZE[0] + 1.0, 1e6),
                      st.sampled_from([-1e-9, math.nan, math.inf, -math.inf]))


def _loop_violations(t):
    """Whole-template reference for ``validate``, one element at a time: the
    global embedding, the image size, then each minutia's rules in turn."""
    h, w = t.image_size
    out = []
    if len(t.global_embedding) == 0:
        out.append(("global_embedding", "non-empty"))
    elif not abs(math.sqrt(sum(float(v) ** 2 for v in t.global_embedding)) - 1.0) <= 1e-6:
        out.append(("global_embedding", "norm"))
    if not (0 < h <= 2 ** 32 - 1 and 0 < w <= 2 ** 32 - 1):
        out.append(("image_size", "sides in [1, 4294967295]"))
    for i in range(len(t.theta)):
        x, y, theta = float(t.positions[i, 0]), float(t.positions[i, 1]), float(t.theta[i])
        if not (math.isfinite(x) and math.isfinite(y)):
            out.append((f"minutiae[{i}]", "finite coordinates"))
        elif not (0.0 <= x <= w and 0.0 <= y <= h):
            out.append((f"minutiae[{i}]", "within image"))
        if not 0.0 <= theta < TWO_PI:
            out.append((f"minutiae[{i}].theta", "range [0, 2pi)"))
        if not abs(math.sqrt(sum(float(v) ** 2 for v in t.embeddings[i])) - 1.0) <= 1e-6:
            out.append((f"minutiae[{i}].embedding", "norm"))
    return out


any_float = st.floats(-10.0, 100.0) | st.floats(width=32)
scales = st.sampled_from([1.0, 0.4, 2.0]) | drifts


@PROPERTY
@given(st.lists(st.tuples(any_float | off_frame, any_float | off_frame, any_float | bad_thetas,
                          scales), max_size=6),
       st.none() | scales,  # None: an empty global
       st.sampled_from([SIZE, (0, 48), (64, 0), (-1, 48), (MAX_IMAGE_SIDE, MAX_IMAGE_SIDE),
                        (64, MAX_IMAGE_SIDE + 1), (10 ** 400, 48), (64, -10 ** 400)]),
       st.integers(0, 2 ** 32 - 1))
@example([], None, SIZE, 0)
@example([], 1.0, (0, 48), 0)
@example([], 1.0, (64, 0), 0)
def test_validate_matches_per_minutia_reference(rows, global_scale, image_size, seed):
    rng = np.random.default_rng(seed)
    g = np.zeros(0) if global_scale is None else global_scale * np.eye(3)[0]
    t = Template(g, *as_arrays([(x, y, theta, scale * _unit(rng, 4))
                                for x, y, theta, scale in rows]), image_size)
    assert [(v.field, v.rule) for v in validate(t)] == _loop_violations(t)


@PROPERTY
@given(templates())
def test_every_strict_prefix_of_a_binary_payload_is_rejected(t):
    payload = write_template(t)
    for cut in range(len(payload)):
        with pytest.raises(DecodeError) as err:
            read_template(payload[:cut])
        assert err.value.offset is not None


@st.composite
def raw_templates(draw):
    """(global, rows): a valid template's global embedding and (x, y, theta,
    embedding) rows, then up to three faults, each one value a reader must
    fix or reject: a drifted norm, an empty global, a theta out of range or
    a coordinate out of frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d_g, d_m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    g = _unit(rng, d_g)
    rows = [[x, y, theta, _unit(rng, d_m)] for x, y, theta in draw(st.lists(minutia_fields,
                                                                           max_size=5))]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["global norm", "empty global", "x", "y", "theta", "norm"]))
        if fault == "global norm":
            g = g * draw(drifts)
        elif fault == "empty global":
            g = np.zeros(0)
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "norm":
                row[3] = row[3] * draw(drifts)
            else:
                row["xyt".index(fault[0])] = draw(bad_thetas if fault == "theta" else off_frame)
    return g, [tuple(row) for row in rows]


def _outcome(read, data):
    """What a reader makes of ``data``: the template's bytes, or the error text."""
    try:
        t = read(data)
    except DecodeError as exc:
        return str(exc)
    assert _loop_violations(t) == []
    return t.records.dtype, t.records.tobytes(), t.global_embedding.tobytes(), t.image_size, \
        t.source_id


_E = np.eye(3)


@settings(max_examples=400, deadline=None)
@given(raw_templates(), st.sampled_from(["binary", "json"]))
@example((_E[0], []), "binary")                                               # no minutiae
@example((np.zeros(0), [(5.0, 5.0, 1.0, _E[1])]), "json")                     # empty global
@example((_E[0] * (1 + 5e-4), [(5.0, 5.0, 1.0, _E[1])]), "binary")          # drift, fixed
@example((_E[0], [(5.0, 5.0, 1.0, _E[1] * (1 - 9e-4))]), "json")             # drift, fixed
@example((_E[0], [(5.0, 5.0, 1.0, _E[1] * (1 + 1.5e-3))]), "binary")         # drift, rejected
@example((_E[0], [(5.0, 5.0, -1e-9, _E[1])]), "json")                        # theta < 0
@example((_E[0], [(5.0, 5.0, TWO_PI, _E[1])]), "binary")                     # theta at 2*pi
@example((_E[0], [(5.0, 5.0, TWO_PI + 1.0, _E[1])]), "binary")               # above 2*pi
@example((_E[0], [(5.0, 5.0, float(np.nextafter(TWO_PI, 0)), _E[1])]), "json")  # 2*pi in f32
@example((_E[0], [(5.0, 5.0, -0.0, _E[1]), (SIZE[1], SIZE[0], 0.0, _E[2])]), "json")
@example((_E[0], [(math.nan, 5.0, 1.0, _E[1])]), "binary")
@example((_E[0], [(5.0, math.inf, 1.0, _E[1])]), "json")
@example((_E[0], [(-math.inf, 5.0, 1.0, _E[1])]), "binary")
@example((_E[0], [(5.0, SIZE[0] + 0.5, 1.0, _E[1])]), "binary")              # out of frame
@example((_E[0], [(5.0, 5.0, 1.0, _E[1] * (1 - 9e-4)),                         # drift, fixed,
                  (6.0, 6.0, 1.0, _E[2] * (1 + 1.5e-3))]), "binary")          # next to rejected
@example((_E[0] * (1 + 5e-4), [(5.0, 5.0, math.inf, _E[1])]), "binary")      # global fixed, theta
def test_reader_gives_what_the_reference_ingest_gives(raw, fmt):
    g, rows = raw
    data = write_template(Template(g, *as_arrays(rows), SIZE, "s"), format=fmt)
    if fmt == "json":  # carry the float64 x, y and theta, not their float32 roundings
        doc = json.loads(data)
        for rec, (x, y, theta, _) in zip(doc["minutiae"], rows):
            rec.update(x=x, y=y, theta=theta)
        data = json.dumps(doc).encode()
    assert _outcome(read_template, data) == _outcome(ingest_oracle.read, data)


def _honours_reader_contract(data):
    """``read_template(data)`` returns a template that passes ``validate`` or
    raises ``DecodeError``: nothing else, and no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t = read_template(data)
        except DecodeError:
            return
    assert validate(t) == []


# Float32 bit patterns a reader takes or refuses without a warning: signaling
# and quiet NaNs of either sign, the infinities, subnormals, -0.0 and the
# float32 just below 2*pi.
FLOAT32_PATTERNS = [0x7F800001, 0xFF800001, 0x7FBFFFFF, 0xFFBFFFFF, 0x7FC00000, 0xFFC00000,
                    0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF, 0x80000000,
                    int(np.nextafter(np.float32(TWO_PI), np.float32(0.0)).view(np.uint32))]


@settings(max_examples=200, deadline=None)
@given(templates(), st.lists(st.tuples(st.integers(0, 10 ** 6),
                                       st.sampled_from(FLOAT32_PATTERNS)
                                       | st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=3))
def test_binary_reader_contract_holds_for_every_float32_bit_pattern(t, slots):
    data = bytearray(write_template(t))
    start = 4 + _HEADER.size + len(t.source_id.encode("utf-8"))  # the first float32 slot
    for slot, bits in slots:
        at = start + 4 * (slot % ((len(data) - start) // 4))
        data[at:at + 4] = struct.pack("<I", bits)
    _honours_reader_contract(bytes(data))


@settings(max_examples=200, deadline=None)
@given(templates(), st.sampled_from(["global", "x", "y", "theta", "emb"]), st.integers(0, 10 ** 6),
       st.sampled_from([1e300, -1e300, 3.5e38, -3.5e38, 10 ** 40, -10 ** 40, 10 ** 400,
                        math.inf, -math.inf, math.nan]))
def test_json_reader_contract_holds_beyond_the_float32_range(t, key, index, value):
    doc = json.loads(write_template(t, format="json"))
    if key == "global":
        doc["global"][index % len(doc["global"])] = value
    elif doc["minutiae"]:
        rec = doc["minutiae"][index % len(doc["minutiae"])]
        if key == "emb":
            rec["emb"][index % len(rec["emb"])] = value
        else:
            rec[key] = value
    _honours_reader_contract(json.dumps(doc).encode())


# ---------------------------------------------------------------------------
# config schema

finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-3, 1e6)
norms = st.one_of(
    st.tuples(st.just("identity"), st.just({})),
    st.tuples(st.just("double_sigmoid"),
              st.fixed_dictionaries({"center": finite, "left_width": positive,
                                     "right_width": positive})),
)


local_configs = st.builds(LocalMatchConfig, emb_sim_floor=st.floats(-1.0, 1.0),
                          geo_tolerance_px=st.floats(0.0, 1e3),
                          ori_tolerance_rad=st.floats(0.0, 4.0),
                          max_minutiae=st.none() | st.integers(1, 10 ** 6))


@st.composite
def configs(draw, bands=st.tuples(finite, finite), norm_kinds=norms, locals_=local_configs):
    theta_f, theta_t = sorted(draw(bands))
    kind, params = draw(norm_kinds)
    return PipelineConfig(theta_t=theta_t, theta_f=theta_f,
                          fusion=draw(st.sampled_from(FUSION_RULES)),
                          norm=Normalizer(kind, params), local=draw(locals_))


def _from_its_json(config):
    return from_json(type(config), json.loads(json.dumps(asdict(config))), "config")


@PROPERTY
@given(configs())
def test_config_json_round_trip(cfg):
    assert _from_its_json(cfg) == cfg


# Values a config field may be given: numbers JSON holds, numbers it cannot
# (NaN, infinities, integers beyond the float range) and non-numbers.
edge_values = st.one_of(
    st.floats(), st.integers(), st.tuples(st.integers(-1, 2 ** 33), st.integers(-1, 2 ** 33)),
    st.sampled_from([True, False, None, "1", -0.0, 2.5, 10 ** 400, -10 ** 400, 2 ** 64]),
)
NORM_FIELDS = tuple(f.name for f in fields(Normalizer))
LOCAL_FIELDS = tuple(f.name for f in fields(LocalMatchConfig))
PIPELINE_EDITS = ("theta_t", "theta_f", "fusion") + NORM_FIELDS + LOCAL_FIELDS


def _edited(cfg, edits):
    """``cfg`` with the ``edits`` fields replaced; ``params`` sets every parameter."""
    norm = {k: v for k, v in edits.items() if k in NORM_FIELDS}
    if "params" in norm:
        norm["params"] = dict.fromkeys(cfg.norm.params, norm["params"])
    local = {k: v for k, v in edits.items() if k in LOCAL_FIELDS}
    top = {k: v for k, v in edits.items() if k not in NORM_FIELDS + LOCAL_FIELDS}
    return replace(cfg, **top, norm=replace(cfg.norm, **norm), local=replace(cfg.local, **local))


def _round_trip(build):
    """A config that constructs equals itself read back from its JSON."""
    try:
        config = build()
    except ValueError:
        return
    assert _from_its_json(config) == config


@PROPERTY
@given(configs(), st.dictionaries(st.sampled_from(PIPELINE_EDITS), edge_values, max_size=2))
def test_every_pipeline_config_that_constructs_survives_json(cfg, edits):
    _round_trip(lambda: _edited(cfg, edits))


@PROPERTY
@given(st.dictionaries(st.sampled_from([f.name for f in fields(SynthSpec)]), edge_values,
                       max_size=3))
def test_every_synth_spec_that_constructs_survives_json(edits):
    _round_trip(lambda: SynthSpec(**edits))


@PROPERTY
@given(st.dictionaries(st.sampled_from([f.name for f in fields(LossWeights)]), edge_values,
                       max_size=3))
def test_every_loss_weights_that_constructs_survives_json(edits):
    _round_trip(lambda: LossWeights(**edits))


# ---------------------------------------------------------------------------
# per-pair and batch scoring agree bit for bit

raw_local = LocalMatchConfig()


@pytest.fixture(scope="module")
def scored_corpus():
    spec = SynthSpec(seed=5, subjects=5, impressions=3, global_collision_rate=0.3,
                     distortion_rate=0.2, weak_global_rate=0.5)
    corpus = generate_corpus(spec).corpus
    genuine, impostor = enumerate_pairs(Protocol(5, 3), corpus)
    return corpus, score_pairs(corpus, genuine + impostor)


score_norms = st.one_of(
    st.tuples(st.just("identity"), st.just({})),
    st.tuples(st.just("double_sigmoid"),
              st.fixed_dictionaries({"center": st.floats(0.0, 50.0),
                                     "left_width": st.floats(0.1, 30.0),
                                     "right_width": st.floats(0.1, 30.0)})),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_per_pair_equals_batch(scored_corpus, data):
    corpus, raw = scored_corpus
    # band edges drawn from the observed global scores hit the ties too
    edge = st.sampled_from(raw.s_g_raw.tolist()) | st.floats(-0.5, 1.5)
    cfg = data.draw(configs(bands=st.tuples(edge, edge), norm_kinds=score_norms,
                            locals_=st.just(raw_local)))
    batch = apply_pipeline(raw, cfg)
    for k, ((sid_a, ia), (sid_b, ib)) in enumerate(raw.pairs):
        single = infer_pair_with_config(corpus.template(sid_a, ia), corpus.template(sid_b, ib),
                                        cfg)
        assert single.s_final == batch.final[k]
        assert GATES.index(single.gate) == batch.gates[k]
        assert single.work_units == batch.work_units[k]
    # scored gate-first: the local matcher runs on the band's pairs only
    gated = apply_pipeline(score_pairs(corpus, raw.pairs, [cfg]), cfg)
    _assert_same_scores(gated, batch)


def _assert_same_scores(got, want):
    assert got.final.tobytes() == want.final.tobytes()
    assert np.array_equal(got.gates, want.gates)
    assert np.array_equal(got.work_units, want.work_units)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_grid_scored_on_the_union_of_its_bands(scored_corpus, data):
    """``bench --grid`` scores the union of its bands once; each band's
    result equals the one scored on every pair."""
    corpus, raw = scored_corpus
    edge = st.sampled_from(raw.s_g_raw.tolist()) | st.floats(-0.5, 1.5)
    base = data.draw(configs(norm_kinds=score_norms, locals_=st.just(raw_local)))
    grid = [replace(base, theta_f=min(band), theta_t=max(band))
            for band in data.draw(st.lists(st.tuples(edge, edge), min_size=1, max_size=4))]
    union = score_pairs(corpus, raw.pairs, grid)
    for band in grid:
        _assert_same_scores(apply_pipeline(union, band), apply_pipeline(raw, band))


@pytest.mark.parametrize("norm", [Normalizer(),
                                  Normalizer("double_sigmoid", {"center": 20.0, "left_width": 10.0,
                                                                "right_width": 15.0})])
def test_scores_of_a_narrower_band_are_refused(scored_corpus, norm):
    """A config whose band reaches pairs that were not matched locally raises,
    rather than fusing a NaN local score (``identity`` would clamp it to 0)."""
    corpus, raw = scored_corpus
    lo, hi = np.quantile(raw.s_g_raw, [0.4, 0.6])
    narrow = PipelineConfig(theta_t=hi, theta_f=lo, norm=norm)
    wide = PipelineConfig(**UNGATED, norm=norm)
    scores = score_pairs(corpus, raw.pairs, [narrow])
    assert 0 < np.isnan(scores.s_l_raw).sum() < len(raw.pairs)
    apply_pipeline(scores, narrow)
    with pytest.raises(ValueError, match="not matched locally"):
        apply_pipeline(scores, wide)


def test_scores_of_another_local_config_are_refused(scored_corpus):
    """Scores made with one local-matcher config are never fused as another's."""
    corpus, raw = scored_corpus
    assert raw.local == raw_local
    few = replace(raw_local, max_minutiae=5)
    scores = score_pairs(corpus, raw.pairs, [PipelineConfig(**UNGATED, local=few)])
    assert scores.local == few
    apply_pipeline(scores, PipelineConfig(**UNGATED, local=few))
    with pytest.raises(ValueError, match="made with local config"):
        apply_pipeline(scores, PipelineConfig(**UNGATED, local=raw_local))


def test_configs_of_different_local_configs_are_refused(scored_corpus):
    """The configs that ``score_pairs`` scores for share one local config,
    the one its local scores are made with."""
    corpus, raw = scored_corpus
    few = replace(raw_local, max_minutiae=5)
    mixed = [PipelineConfig(local=raw_local), PipelineConfig(**UNGATED, local=few)]
    for configs in (mixed, []):
        with pytest.raises(ValueError, match="share one local config"):
            score_pairs(corpus, raw.pairs, configs)


# ---------------------------------------------------------------------------
# the float64 global copy and the global score

def _cast_then_dot(a, b):
    """global_match as a per-call cast of both float32 embeddings, the oracle."""
    dot = float(np.dot(np.asarray(a.global_embedding, dtype=np.float64),
                       np.asarray(b.global_embedding, dtype=np.float64)))
    return min(1.0, max(0.0, dot))


def _every_way_built(t):
    """``t`` as built in code and through each path that makes a template:
    both readers, ``dataclasses.replace`` and the reader's repair of a
    drifted global embedding, which goes through ``replace`` as well."""
    drifted = replace(t, global_embedding=t.global_embedding * np.float32(1 + 5e-4))
    return {"code": t,
            "binary": read_template(write_template(t)),
            "json": read_template(write_template(t, format="json")),
            "replace": replace(t, source_id=t.source_id + "'"),
            "repaired": read_template(write_template(drifted))}


@PROPERTY
@given(templates(), templates())
def test_the_float64_global_copy_is_the_cast_on_every_path(t, other):
    built = _every_way_built(t)
    assert abs(float(built["repaired"].global64 @ built["repaired"].global64) - 1.0) < 1e-6
    for how, u in built.items():
        assert u.global64.dtype == np.float64, how
        assert not u.global64.flags.writeable, how
        with pytest.raises(ValueError, match="read-only"):
            u.global64[0] = 0.0
        assert u.global64.tobytes() == u.global_embedding.astype(np.float64).tobytes(), how
        for v in (*built.values(), other):
            if v.global_dim != u.global_dim:
                with pytest.raises(ValueError, match="global dimension mismatch"):
                    global_match(u, v)
                continue
            assert global_match(u, v).hex() == _cast_then_dot(u, v).hex(), how
        wider = replace(u, global_embedding=np.append(u.global_embedding, np.float32(0.0)))
        for pair in ((u, wider), (wider, u)):
            with pytest.raises(ValueError, match="global dimension mismatch"):
                global_match(*pair)


# ---------------------------------------------------------------------------
# gate-and-fuse against the clamp-then-checked-fuse form

def _checked_fuse(a, b, rule):
    """A range check, then the mean or the max: the oracle."""
    assert rule in FUSION_RULES and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
    return 0.5 * (a + b) if rule == "mean" else max(a, b)


def _clamp(x):
    return min(1.0, max(0.0, float(x)))


any_scores = (st.sampled_from([0.0, 1.0, -0.0, math.nan, math.inf, -math.inf])
              | st.floats(0.0, 1.0) | st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GATES), any_scores, any_scores, st.sampled_from(FUSION_RULES))
@example(GATE_LOCAL_EVALUATED, 0.0, 0.0, "mean")
@example(GATE_LOCAL_EVALUATED, 1.0, 1.0, "max")
@example(GATE_LOCAL_EVALUATED, 0.5, math.nan, "mean")  # a NaN local score clamps to 0
@example(GATE_LOCAL_EVALUATED, 0.5, math.nan, "max")
def test_gated_fuse_is_clamp_then_checked_fuse(gate, s_g, s_l, rule):
    s_g_norm = _clamp(s_g)
    s_l_effective = SKIP_LOCAL[gate] if gate in SKIP_LOCAL else _clamp(s_l)
    want = (s_g_norm, s_l_effective, _checked_fuse(s_g_norm, s_l_effective, rule))
    got = gated_fuse(gate, s_g, s_l, rule)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    with pytest.raises(ValueError, match="unknown fusion rule 'median'"):
        gated_fuse(gate, s_g, s_l, "median")


# ---------------------------------------------------------------------------
# the assignment solver against the exhaustive oracle

small_costs = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
                     elements=st.integers(-3, 3).map(float) | st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(small_costs)
def test_solver_equals_the_exhaustive_oracle(cost):
    best = brute_force(cost)
    if best is None:
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(cost)
    else:
        got = solve_assignment(cost)
        assert (got.total_cost, got.pairs) == best


@settings(max_examples=300, deadline=None)
@given(small_costs)
def test_warm_started_potentials_meet_the_canonical_pass_invariants(cost):
    """What ``_canonical_pairs`` relies on: reduced costs >= 0 and 0 on the
    matched pairs, ``v <= 0``, and ``v == 0`` on the unmatched columns.
    Small integers keep the potentials exact, so the checks are too."""
    cost = cost if cost.shape[0] <= cost.shape[1] else cost.T
    if brute_force(cost) is None:
        with pytest.raises(InfeasibleAssignmentError):
            _augmenting_path_solve(cost)
        return
    col_of_row, row_of_col, u, v = _augmenting_path_solve(cost)
    rows = np.arange(cost.shape[0])
    assert np.array_equal(row_of_col[col_of_row], rows)
    assert (row_of_col >= 0).sum() == len(rows)
    reduced = cost - u[:, None] - v[None, :]
    assert (reduced >= 0).all()
    assert (reduced[rows, col_of_row] == 0).all()
    assert (v <= 0).all() and (v[row_of_col < 0] == 0).all()


@st.composite
def tie_rich_problems(draw):
    """Cost matrices on which many pairings tie: small integers with +inf
    sentinels, distances between points of a small integer grid, and
    matcher-like quantized cosines on surviving cells with zero-cost dummy
    columns; in either orientation."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integers", "grid", "matcher"]))
    if kind == "integers":
        cost = rng.integers(-2, 3, (n, m)).astype(np.float64)
        cost[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = math.inf
    elif kind == "grid":
        a, b = rng.integers(0, 5, (n, 2)), rng.integers(0, 5, (m, 2))
        dx = a[:, 0, None] - b[None, :, 0]
        dy = a[:, 1, None] - b[None, :, 1]
        cost = np.sqrt(dx * dx + dy * dy)
    else:
        cos = rng.integers(-4, 5, (n, m)) / 4
        cost = np.hstack([np.where(rng.random((n, m)) < 0.5, -cos, math.inf), np.zeros((n, n))])
    return cost.T if draw(st.booleans()) else cost


def _solved(cost):
    try:
        return solve_assignment(cost)
    except InfeasibleAssignmentError:
        return "infeasible"


@settings(max_examples=300, deadline=None)
@given(tie_rich_problems())
def test_uniqueness_certificate_changes_no_solve(cost):
    """Skipping the canonical pass where the certificate holds gives what the
    pass gives."""
    with mock.patch("fpfuse.assignment._unique_optimum", return_value=False):
        want = _solved(cost)
    assert _solved(cost) == want


# ---------------------------------------------------------------------------
# the loss reference's correspondence costs against the broadcast form

@st.composite
def loss_records(draw, max_layers=2):
    """A prediction with up to ``max_layers`` intermediate layers and its ground truth.

    On the integer grid, positions, angles and embeddings are small integers
    (angles in quarter turns), so distances tie exactly; the Gram form is
    exact there too.  Ground-truth rows may be duplicated, and a layer whose
    noise is 0 is an exact, shuffled copy of the ground truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L, d_m = draw(st.sampled_from([0, 1, 2, 3, 6])), draw(st.sampled_from([1, 2, 8]))
    grid = draw(st.booleans())
    if grid:
        gt_po = np.column_stack([rng.integers(0, 4, (L, 2)), rng.integers(0, 4, L) * (np.pi / 2)])
        gt_e = rng.integers(-2, 3, (L, d_m)).astype(np.float64)
    else:
        gt_po = np.column_stack([rng.uniform(0, 100, (L, 2)), rng.uniform(0, TWO_PI, L)])
        gt_e = rng.normal(size=(L, d_m))
    for _ in range(draw(st.integers(0, L // 2))):
        i, j = rng.integers(0, L, 2)
        gt_po[i], gt_e[i] = gt_po[j], gt_e[j]

    def layer():
        noise, perm = draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0])), rng.permutation(L)
        jitter_po, jitter_e = rng.normal(size=(L, 3)), rng.normal(size=(L, d_m))
        if grid:
            jitter_po[:, 2] *= np.pi / 2
            jitter_po, jitter_e = np.round(jitter_po), np.round(jitter_e)
        po = gt_po[perm] + noise * jitter_po
        po[:, 2] = np.mod(po[:, 2], TWO_PI)
        return po, gt_e[perm] + noise * jitter_e

    g = rng.normal(size=4)
    pred = PredictionRecord(g + rng.normal(size=4), *layer(),
                            tuple(layer() for _ in range(draw(st.integers(0, max_layers)))))
    return pred, GroundTruthRecord(g, gt_po, gt_e)


def _with_oracle_costs(f, *args):
    """``f(*args)`` with ``fpfuse.losses`` scoring pairs by the broadcast form."""
    with mock.patch("fpfuse.losses.correspondence_cost_matrix",
                    cost_oracle.correspondence_cost_matrix):
        return f(*args)


def _outcome_of(f, *args):
    """``f(*args)``, or the text of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(loss_records())
def test_cost_matrix_equals_the_broadcast_form(records):
    """Within 1e-9 of the largest cost, as the solver's tie tolerance is,
    plus the Gram form's cancellation near zero distance: ``|a|^2 + |b|^2 -
    2 a.b`` is off by at most ``(d + 2) * eps * (|a| + |b|)^2``, so its root
    by ``(|a| + |b|) * sqrt((d + 2) * eps)``."""
    pred, gt = records
    w = CorrespondenceWeights()
    args = (pred.positions[:, :2], pred.positions[:, 2], pred.embeddings,
            gt.positions[:, :2], gt.positions[:, 2], gt.embeddings, w)
    got, want = correspondence_cost_matrix(*args), cost_oracle.correspondence_cost_matrix(*args)
    assert got.shape == want.shape
    if not want.size:
        return
    norms = np.linalg.norm(pred.embeddings, axis=1)[:, None] + np.linalg.norm(gt.embeddings, axis=1)
    near_zero = w.w_emb * norms * math.sqrt((gt.embeddings.shape[1] + 2) * np.finfo(float).eps)
    assert (np.abs(got - want) <= 1e-9 * (1 + np.abs(want).max()) + near_zero).all()


@PROPERTY
@given(loss_records())
def test_losses_are_bit_identical_under_the_broadcast_form(records):
    """A permutation may differ only between equal rows.  With no minutiae
    both forms refuse the record with the same error."""
    pred, gt = records
    for po, e in ((pred.positions, pred.embeddings), *pred.intermediates):
        args = (po, e, gt.positions, gt.embeddings)
        got, want = reorder_ground_truth(*args), _with_oracle_costs(reorder_ground_truth, *args)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    got = _outcome_of(total_loss, pred, gt)
    assert got == _with_oracle_costs(_outcome_of, total_loss, pred, gt)


loss_weights = st.builds(LossWeights, *[st.floats(0.0, 10.0)] * 5)


@PROPERTY
@given(loss_records(max_layers=5), loss_weights)
def test_total_loss_equals_the_per_layer_composition(records, w):
    """Every field bit for bit; with no minutiae both refuse the record with
    the same error."""
    pred, gt = records
    got = _outcome_of(total_loss, pred, gt, w)
    want = _outcome_of(loss_oracle.total_loss, pred, gt, w)
    if isinstance(want, str):
        assert got == want
    else:
        assert [v.hex() for v in asdict(got).values()] == [v.hex() for v in asdict(want).values()]


@st.composite
def malformed_minutia_sets(draw):
    """Positions and embeddings that break the minutia-set rule in one way: a
    non-finite number, an integer beyond the float range, a wrong rank or
    width, or embeddings with another row count than the positions."""
    L, d = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    po, e = np.zeros((L, 3)), np.zeros((L, d))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    defect = draw(st.sampled_from(["po value", "e value", "po huge", "po width", "po rank",
                                   "e rank", "e rows"]))
    if defect == "po value":
        po = np.vstack([po, [0.0, 0.0, bad]])
    elif defect == "e value":
        po, e = np.zeros((L + 1, 3)), np.vstack([e, np.full(d, bad)])
    elif defect == "po huge":
        po = po.tolist() + [[10 ** 400, 0.0, 0.0]]
    elif defect == "po width":
        po = np.zeros((L, draw(st.sampled_from([0, 2, 4]))))
    elif defect == "po rank":
        po = np.zeros(draw(st.sampled_from([(3,), (L, 3, 1)])))
    elif defect == "e rank":
        e = np.zeros(draw(st.sampled_from([(L,), (L, d, 1)])))
    else:
        e = np.zeros((L + draw(st.integers(1, 3)), d))
    return po, e


@PROPERTY
@given(malformed_minutia_sets())
def test_one_rule_refuses_a_minutia_set_everywhere(minutiae):
    """A record, an intermediate layer and either side of
    ``reorder_ground_truth`` refuse a malformed minutia set with one message,
    led by the prefix that names where it was found."""
    po, e = minutiae
    ok = (np.zeros((1, 3)), np.zeros((1, 1)))
    outcomes = {"": _outcome_of(GroundTruthRecord, np.ones(2), po, e),
                "intermediates[0].": _outcome_of(PredictionRecord, np.ones(2), *ok, ((po, e),)),
                "pred ": _outcome_of(reorder_ground_truth, po, e, *ok),
                "gt ": _outcome_of(reorder_ground_truth, *ok, po, e)}
    assert all(isinstance(text, str) and text.startswith(prefix)
               for prefix, text in outcomes.items())
    messages = {text[len(prefix):] for prefix, text in outcomes.items()}
    assert len(messages) == 1
    assert messages.pop().startswith(("positions ", "embeddings "))


# ---------------------------------------------------------------------------
# the circular distance against the floor remainder

def _angular_distance_by_mod(a, b):
    """``angular_distance`` with ``np.mod``, the floor remainder, for ``np.fmod``."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    diff = np.mod(diff, TWO_PI)
    out = np.minimum(diff, TWO_PI - diff)
    return float(out) if out.ndim == 0 else out


# Finite differences only: magnitudes stay below 1e300, so no |a - b| overflows.
angles = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])
          | st.integers(-1000, 1000).map(lambda k: k * TWO_PI)
          | st.floats(-20.0, 20.0)
          | st.floats(-1e-300, 1e-300)
          | st.floats(-1e300, 1e300)
          | st.floats(0.9e300, 1e300))


@st.composite
def angle_operands(draw):
    """Two scalars, or two arrays of one shape, or a scalar and an array."""
    shape = draw(st.none() | array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))

    def operand():
        if shape is None or draw(st.booleans()):
            return draw(angles)
        return draw(arrays(np.float64, shape, elements=angles))
    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(angle_operands())
@example((0.0, -0.0))
@example((TWO_PI, 0.0))
@example((np.array([-0.0, 5e-324, 3 * TWO_PI]), np.array([0.0, -5e-324, -TWO_PI])))
@example((1e300, -1e300))
def test_angular_distance_equals_the_floor_remainder_form(operands):
    got, want = angular_distance(*operands), _angular_distance_by_mod(*operands)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# the one planar distance against the broadcast form

coordinates = (st.sampled_from([0.0, -0.0]) | st.integers(-8, 8).map(float)
               | st.floats(-1e150, 1e150) | st.floats(-1e150, -0.5e150)
               | st.floats(0.5e150, 1e150))
position_arrays = arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)),
                         elements=coordinates)


@PROPERTY
@given(position_arrays, position_arrays)
@example(np.zeros((0, 2)), np.ones((3, 2)))
@example(np.ones((3, 2)), np.zeros((0, 2)))
@example(np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[-0.0, -0.0]]))
@example(np.full((2, 2), 1e150), np.array([[-1e150, 1e150], [3.0, -0.0]]))
def test_squared_distances_equal_the_broadcast_form(a, b):
    """Magnitudes up to 1e150 keep every square and sum finite."""
    want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    got = squared_distances(a, b)
    assert got.shape == want.shape == (len(a), len(b))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# minutiae quality against the broadcast-and-list form

@st.composite
def position_sets(draw):
    """Predicted and reference positions: either both on a small integer grid,
    where distances tie, or a jittered subset of the reference plus extras."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_gt = draw(st.integers(0, 15))
    if draw(st.booleans()):
        gt = rng.integers(0, 6, (n_gt, 2)).astype(np.float64)
        pred = rng.integers(0, 6, (draw(st.integers(0, 15)), 2)).astype(np.float64)
    else:
        gt = rng.uniform(0, 100, (n_gt, 2))
        kept = gt[rng.random(n_gt) < 0.8]
        pred = np.vstack([kept + rng.normal(0, draw(st.sampled_from([0.0, 3.0, 30.0])), kept.shape),
                          rng.uniform(0, 100, (draw(st.integers(0, 5)), 2))])
    return pred, gt


@PROPERTY
@given(position_sets(), st.sampled_from([1.0, 4.0, 20.0]))
@example((np.zeros((0, 2)), np.ones((3, 2))), 1.0)
@example((np.ones((3, 2)), np.zeros((0, 2))), 1.0)
@example((np.zeros((0, 2)), np.zeros((0, 2))), 1.0)
@example((np.zeros((1, 2)), np.array([[3.0, 4.0], [5.0, 0.0]])), 4.0)
def test_minutiae_quality_equals_the_broadcast_form(positions, scale):
    """Scaled by 4 or 20, grid points lie exactly the 20 px threshold apart."""
    pred, gt = (p * scale for p in positions)
    assert minutiae_quality(pred, gt) == quality_oracle.minutiae_quality(pred, gt)
