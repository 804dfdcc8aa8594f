"""Property tests of the reader contract, the config schema and the gate rule."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfuse import (DecodeError, LocalMatchConfig, Minutia, PipelineConfig,
                    Protocol, SynthSpec, Template, apply_pipeline,
                    enumerate_pairs, generate_corpus, infer_pair_with_config,
                    read_template, score_pairs, validate, write_template)
from fpfuse.pipeline import FUSION_RULES, GATES

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
    minutiae = [Minutia(x, y, theta, _unit(rng, d_m))
                for x, y, theta in draw(st.lists(fields, max_size=6))]
    return Template(_unit(rng, d_g), tuple(minutiae), SIZE, draw(st.text(max_size=8)))


@PROPERTY
@given(templates(), st.sampled_from(["binary", "json"]))
def test_read_returns_valid_template(t, fmt):
    back = read_template(write_template(t, format=fmt))
    assert validate(back) == []
    assert back.source_id == t.source_id
    for a, b in zip(back.minutiae, t.minutiae):
        assert (a.x, a.y) == (b.x, b.y)
        assert a.theta == b.canonical().theta
    if fmt == "binary":
        assert np.array_equal(back.global_embedding, t.global_embedding)


bad_coordinates = st.one_of(st.just(math.nan), st.floats(-1e6, -1e-3),
                            st.floats(SIZE[0] + 1.0, 1e6))


@PROPERTY
@given(templates(), st.tuples(bad_coordinates, st.floats(0.0, 40.0)),
       st.booleans(), st.sampled_from(["binary", "json"]))
def test_read_rejects_nan_and_out_of_frame(t, bad, swap, fmt):
    x, y = reversed(bad) if swap else bad
    broken = Template(t.global_embedding,
                      t.minutiae + (Minutia(x, y, 1.0, np.eye(t.minutia_dim or 3)[0]),),
                      t.image_size, t.source_id)
    with pytest.raises(DecodeError):
        read_template(write_template(broken, format=fmt))


# ---------------------------------------------------------------------------
# config schema

finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-3, 1e6)
norms = st.one_of(
    st.tuples(st.just("identity"), st.just({})),
    st.tuples(st.just("double_sigmoid"),
              st.fixed_dictionaries({"center": finite, "left_width": positive,
                                     "right_width": positive})),
    st.tuples(st.just("minmax"),
              st.tuples(finite, positive).map(lambda p: {"min": p[0], "max": p[0] + p[1]})),
    st.tuples(st.sampled_from(["zscore", "tanh"]),
              st.fixed_dictionaries({"mean": finite, "std": positive})),
)


local_configs = st.builds(LocalMatchConfig, emb_sim_floor=st.floats(-1.0, 1.0),
                          geo_tolerance_px=st.floats(0.0, 1e3),
                          ori_tolerance_rad=st.floats(0.0, 4.0),
                          max_minutiae_used=st.none() | st.integers(1, 10 ** 6))


@st.composite
def configs(draw, bands=st.tuples(finite, finite), norm_kinds=norms, locals_=local_configs):
    theta_f, theta_t = sorted(draw(bands))
    kind, params = draw(norm_kinds)
    return PipelineConfig(theta_t=theta_t, theta_f=theta_f,
                          fusion=draw(st.sampled_from(FUSION_RULES)),
                          norm_kind=kind, norm_params=params,
                          apply_norm_to_global=draw(st.booleans()), local=draw(locals_))


@PROPERTY
@given(configs())
def test_config_json_round_trip(cfg):
    assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# ---------------------------------------------------------------------------
# per-pair and batch scoring agree bit for bit

raw_local = LocalMatchConfig()


@pytest.fixture(scope="module")
def scored_corpus():
    spec = SynthSpec(seed=5, subjects=5, impressions=3, global_collision_rate=0.3,
                     distortion_rate=0.2, weak_global_rate=0.5)
    corpus = generate_corpus(spec).corpus
    genuine, impostor = enumerate_pairs(Protocol(5, 3), corpus)
    return corpus, score_pairs(corpus, genuine + impostor, raw_local)


score_norms = st.one_of(
    st.tuples(st.just("identity"), st.just({})),
    st.tuples(st.just("double_sigmoid"),
              st.fixed_dictionaries({"center": st.floats(0.0, 50.0),
                                     "left_width": st.floats(0.1, 30.0),
                                     "right_width": st.floats(0.1, 30.0)})),
    st.tuples(st.just("minmax"), st.tuples(st.floats(-5.0, 30.0), st.floats(0.1, 50.0))
              .map(lambda p: {"min": p[0], "max": p[0] + p[1]})),
    st.tuples(st.sampled_from(["zscore", "tanh"]),
              st.fixed_dictionaries({"mean": st.floats(0.0, 40.0),
                                     "std": st.floats(0.1, 30.0)})),
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
