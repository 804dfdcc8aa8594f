import copy
import inspect
import json
import math
import pickle
import re
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from fpfuse import (UNGATED, CorrespondenceWeights, DoubleSigmoidParams, LocalMatchConfig,
                    LossWeights, MatchResult, Normalizer, PipelineConfig, SynthSpec,
                    double_sigmoid, fit_double_sigmoid,
                    from_json, infer_pair, infer_pair_with_config)
from fpfuse.pipeline import (GATE_CONFIDENT_GENUINE, GATE_CONFIDENT_IMPOSTOR,
                             GATE_LOCAL_EVALUATED, gated_fuse)

from conftest import as_arrays, basis_template, make_template, unit

# Three minutiae that both templates of a pair share: they match one to one,
# so the raw local score is 3 (a sum of cosines of 1), above [0, 1].
SHARED_MINUTIAE = [(60.0 + 90.0 * i, 80.0 + 70.0 * i, 0.5 * i, unit(np.eye(4)[i]))
                   for i in range(3)]


# ---------------------------------------------------------------------------
# double sigmoid

def test_double_sigmoid_center():
    p = DoubleSigmoidParams(center=3.0, left_width=2.0, right_width=5.0)
    assert double_sigmoid(3.0, p) == pytest.approx(0.5, abs=1e-12)


def test_double_sigmoid_limits():
    p = DoubleSigmoidParams(center=0.0, left_width=1.0, right_width=1.0)
    assert double_sigmoid(-20.0, p) < 1e-6
    assert double_sigmoid(20.0, p) > 1.0 - 1e-6


def test_double_sigmoid_known_value():
    p = DoubleSigmoidParams(center=2.0, left_width=1.0, right_width=4.0)
    assert double_sigmoid(2.0 + 4.0, p) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
    assert double_sigmoid(6.0, p) == pytest.approx(0.8807970779778823, abs=1e-12)


def test_double_sigmoid_strictly_increasing():
    p = DoubleSigmoidParams(center=1.0, left_width=0.5, right_width=2.0)
    grid = np.linspace(-9.0, 11.0, 4001)
    out = double_sigmoid(grid, p)
    assert (np.diff(out) > 0).all()
    assert ((out > 0) & (out < 1)).all()


def test_double_sigmoid_rejects_nonfinite():
    p = DoubleSigmoidParams(center=0.0, left_width=1.0, right_width=1.0)
    with pytest.raises(ValueError):
        double_sigmoid(float("nan"), p)


def test_double_sigmoid_of_a_tiny_width_warns_nothing():
    """A positive width as small as 1e-308 overflows the division; the clip
    bounds z, so the scores are exact and nothing is printed."""
    p = DoubleSigmoidParams(center=3.0, left_width=1e-308, right_width=1e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = double_sigmoid([2.0, 3.0, 4.0, -1e308, 1e308], p)
    low, high = 1.0 / (1.0 + math.exp(700.0)), 1.0 / (1.0 + math.exp(-700.0))
    assert out.tolist() == [low, 0.5, high, low, high]


def test_double_sigmoid_params_validation():
    with pytest.raises(ValueError):
        DoubleSigmoidParams(center=0.0, left_width=0.0, right_width=1.0)


# ---------------------------------------------------------------------------
# normalizers

def test_normalizations_preserve_rank_order():
    rng = np.random.default_rng(23)
    scores = rng.normal(10.0, 4.0, size=300)
    p = fit_double_sigmoid(scores + 8, scores - 8)
    fitted = Normalizer("double_sigmoid", asdict(p))
    assert np.array_equal(fitted(scores), double_sigmoid(scores, p))
    for norm in (Normalizer(), fitted):
        assert np.array_equal(np.argsort(norm(scores)), np.argsort(scores)), norm.kind


# ---------------------------------------------------------------------------
# fusion

def _fused(a, b, rule):
    return gated_fuse(GATE_LOCAL_EVALUATED, a, b, rule)[2]


def test_fuse_rules():
    assert _fused(0.4, 0.6, "mean") == pytest.approx(0.5)
    assert _fused(0.4, 0.6, "max") == 0.6
    for rule in ("mean", "max"):
        assert _fused(0.37, 0.37, rule) == pytest.approx(0.37)


def test_fuse_validates_inputs():
    with pytest.raises(ValueError, match="unknown fusion rule 'median'"):
        _fused(0.5, 0.5, "median")


# ---------------------------------------------------------------------------
# fit

def test_fit_double_sigmoid_midpoint():
    p = fit_double_sigmoid([10.0, 10.0], [2.0, 2.0])
    assert p.center == pytest.approx(6.0)
    assert p.left_width == pytest.approx(4.0)
    assert p.right_width == pytest.approx(4.0)


def test_fit_double_sigmoid_degenerate():
    p = fit_double_sigmoid([5.0, 5.0], [5.0, 5.0])
    assert p.left_width == pytest.approx(1e-6)
    assert p.right_width == pytest.approx(1e-6)


def test_fit_double_sigmoid_empty():
    with pytest.raises(ValueError):
        fit_double_sigmoid([], [1.0])


# ---------------------------------------------------------------------------
# gated inference

def test_identical_templates_gate_genuine():
    t = basis_template()
    r = infer_pair(t, t, PipelineConfig(theta_t=0.75, theta_f=0.15))
    assert r.gate == GATE_CONFIDENT_GENUINE
    assert r.s_l_raw is None
    assert r.s_l_effective == 1.0
    assert r.s_final == pytest.approx(1.0, abs=1e-6)
    assert r.work_units == 0


def test_orthogonal_templates_gate_impostor():
    r = infer_pair(basis_template(axis=0), basis_template(axis=1),
                   PipelineConfig(theta_t=0.75, theta_f=0.15))
    assert r.gate == GATE_CONFIDENT_IMPOSTOR
    assert r.s_l_effective == 0.0
    assert r.s_final == 0.0


def test_midband_runs_local():
    half = math.sqrt(0.5)
    a = make_template([1.0, 0.0, 0.0, 0.0], SHARED_MINUTIAE)
    b = make_template([0.5, math.sqrt(0.75), 0.0, 0.0], SHARED_MINUTIAE)  # dot = 0.5
    cfg = PipelineConfig(theta_t=0.75, theta_f=0.15, fusion="mean", norm=Normalizer())
    r = infer_pair(a, b, cfg)
    assert r.gate == GATE_LOCAL_EVALUATED
    assert r.s_g_raw == pytest.approx(0.5, abs=1e-6)
    assert r.s_l_raw == pytest.approx(3.0, abs=1e-6)
    assert r.s_final == pytest.approx(0.75, abs=1e-6)


def test_gate_partition_boundaries():
    from fpfuse import Template
    cfg = PipelineConfig(theta_t=0.75, theta_f=0.15)
    a = make_template([1.0, 0.0])
    # a = (1, 0) makes the dot product exactly b's first component; 0.75 is
    # an exact float32, so the boundary case is inclusive (local runs)
    for dot, gate in ((0.75, GATE_LOCAL_EVALUATED),
                      (0.76, GATE_CONFIDENT_GENUINE),
                      (0.5, GATE_LOCAL_EVALUATED),
                      (0.15625, GATE_LOCAL_EVALUATED),  # exact f32, > theta_f
                      (0.1, GATE_CONFIDENT_IMPOSTOR)):
        b = Template([dot, math.sqrt(max(0.0, 1 - dot * dot))], *as_arrays([]),
                     image_size=(384, 384))
        r = infer_pair(a, b, cfg)
        assert r.gate == gate, dot


def test_disabled_gate_equals_ungated(small_bundle):
    corpus = small_bundle.corpus
    ids = corpus.subject_ids
    cfg = PipelineConfig(**UNGATED, norm=Normalizer("double_sigmoid", {
        "center": 20.0, "left_width": 18.0, "right_width": 18.0}), local=LocalMatchConfig())
    norm_l = Normalizer("double_sigmoid", cfg.norm.params)
    from fpfuse import global_match, local_match
    for a, b in [(corpus.template(ids[0], 0), corpus.template(ids[0], 1)),
                 (corpus.template(ids[0], 0), corpus.template(ids[1], 0))]:
        r = infer_pair(a, b, cfg)
        assert r.gate == GATE_LOCAL_EVALUATED
        expected = 0.5 * (min(1.0, max(0.0, global_match(a, b)))
                          + min(1.0, max(0.0, norm_l(local_match(a, b, cfg.local).score))))
        assert r.s_final == expected


def test_unbounded_normalizer_clamped():
    a = make_template([1.0, 0.0], SHARED_MINUTIAE)
    b = make_template([0.5, math.sqrt(0.75)], SHARED_MINUTIAE)
    # the identity normalizer leaves the local score of 3 above 1
    cfg = PipelineConfig(theta_t=0.75, theta_f=0.15, norm=Normalizer("identity"))
    r = infer_pair(a, b, cfg)
    assert r.s_l_raw > 1.0
    assert r.s_l_effective == 1.0
    assert 0.0 <= r.s_final <= 1.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        PipelineConfig(theta_t=0.1, theta_f=0.5)
    PipelineConfig(theta_t=0.5, theta_f=0.5)  # equality allowed


# ---------------------------------------------------------------------------
# config round trip

def test_pipeline_config_round_trip(tmp_path):
    cfg = PipelineConfig(
        theta_t=0.8, theta_f=0.1, fusion="max",
        norm=Normalizer("double_sigmoid",
                        {"center": 19.0, "left_width": 17.0, "right_width": 18.0}),
        local=LocalMatchConfig(emb_sim_floor=0.25, geo_tolerance_px=15.0,
                               ori_tolerance_rad=0.3, max_minutiae=40),
    )
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(asdict(cfg)))
    back = from_json(PipelineConfig, json.loads(path.read_text()), "config")
    assert back == cfg


@pytest.mark.parametrize("cls, doc, what, error", [
    (PipelineConfig, {"norm": {"kind": "identity", "scale": 2.0}}, "config",
     "unknown config norm key(s) scale; expected kind, params"),
    (PipelineConfig, {"local": {"max_minutiae_used": 7}}, "config",
     "unknown config local key(s) max_minutiae_used; expected emb_sim_floor"),
    (SynthSpec, {"subjects": 2, "collision_similarity_floor": 0.5}, "synth spec",
     "unknown synth spec key(s) collision_similarity_floor; expected seed"),
    (LossWeights, {"global_weight": 1.0, "orientation_weight": 1.0}, "--weights",
     "unknown --weights key(s) orientation_weight; expected global_weight"),
])
def test_from_json_names_unknown_keys(cls, doc, what, error):
    with pytest.raises(ValueError) as err:
        from_json(cls, doc, what)
    assert str(err.value).startswith(error)


def test_pipeline_config_defaults():
    cfg = from_json(PipelineConfig, {}, "config")
    assert cfg.theta_t == 0.75 and cfg.theta_f == 0.15
    assert cfg.fusion == "mean" and cfg.norm.kind == "identity"
    assert cfg.local.max_minutiae is None


def test_pipeline_config_rejects_unknown():
    with pytest.raises(ValueError):
        from_json(PipelineConfig, {"fusion": "geometric"}, "config")
    with pytest.raises(ValueError):
        Normalizer("rank", {})


def test_infer_with_config_matches_manual(small_bundle):
    corpus = small_bundle.corpus
    ids = corpus.subject_ids
    cfg = PipelineConfig(norm=Normalizer("double_sigmoid", {
        "center": 20.0, "left_width": 10.0, "right_width": 15.0}))
    a, b = corpus.template(ids[0], 0), corpus.template(ids[0], 1)
    r1 = infer_pair_with_config(a, b, cfg)
    r2 = infer_pair(a, b, cfg)
    assert r1 == r2


@pytest.mark.parametrize("doc", [
    {"local": {"seed_candidates": 3}},
    {"local": {"symmetric": True}},
    {"norm": {"kind": "identity", "scale": 2.0}},
    {"thresholds": [0.7, 0.2]},
    {"local": [1, 2]},
    {"local": 0},
    {"norm": []},
    {"norm": None},
    [],
    {"norm": {"apply_to_global": "false"}},
])
def test_pipeline_config_rejects_unknown_keys(doc):
    with pytest.raises(ValueError):
        from_json(PipelineConfig, doc, "config")


@pytest.mark.parametrize("doc, key", [
    ({"local": {"emb_sim_floor": "0.3"}}, "emb_sim_floor"),
    ({"local": {"max_minutiae": 2.9}}, "max_minutiae"),
    ({"local": {"max_minutiae": True}}, "max_minutiae"),
    ({"theta_t": True}, "theta_t"),
    ({"theta_f": "0.1"}, "theta_f"),
    ({"local": {"geo_tolerance_px": "8"}}, "geo_tolerance_px"),
    ({"fusion": 1}, "fusion"),
    ({"norm": {"kind": None}}, "kind"),
    ({"norm": {"params": [["mean", 0.0], ["std", 1.0]]}}, "params"),
    ({"theta_t": math.nan}, "theta_t"),
    ({"theta_f": -math.inf}, "theta_f"),
    ({"local": {"geo_tolerance_px": math.nan}}, "geo_tolerance_px"),
    ({"norm": {"kind": "double_sigmoid",
               "params": {"center": 2.0, "left_width": "2", "right_width": 1.0}}}, "left_width"),
    ({"norm": {"kind": "double_sigmoid",
               "params": {"center": 2.0, "left_width": 1.0, "right_width": True}}}, "right_width"),
    ({"norm": {"kind": "double_sigmoid",
               "params": {"center": math.nan, "left_width": 1.0, "right_width": 1.0}}}, "center"),
])
def test_pipeline_config_rejects_wrong_json_types(doc, key):
    with pytest.raises(ValueError, match=key):
        from_json(PipelineConfig, doc, "config")
    # The same value given in code fails the same check.
    top = {k: v for k, v in doc.items() if k not in ("norm", "local")}
    with pytest.raises(ValueError, match=key):
        PipelineConfig(**top, norm=Normalizer(**doc.get("norm", {})),
                       local=LocalMatchConfig(**doc.get("local", {})))


@pytest.mark.parametrize("build", [
    lambda: LocalMatchConfig(geo_tolerance_px=math.inf),
    lambda: LocalMatchConfig(emb_sim_floor=True),
    lambda: LocalMatchConfig(max_minutiae=2.5),
    lambda: PipelineConfig(theta_t=True, theta_f=0),
    lambda: PipelineConfig(local={"emb_sim_floor": 0.3}),
    lambda: PipelineConfig(norm={"kind": "identity"}),
    lambda: CorrespondenceWeights(w_loc=math.nan),
    lambda: CorrespondenceWeights(w_ori=math.inf),
    lambda: DoubleSigmoidParams(center=math.nan, left_width=1.0, right_width=1.0),
    lambda: DoubleSigmoidParams(center=0.0, left_width=math.inf, right_width=1.0),
])
def test_configs_built_in_code_check_their_numbers(build):
    with pytest.raises(ValueError):
        build()


def test_pipeline_config_takes_json_integers_as_numbers():
    cfg = from_json(PipelineConfig, {"theta_t": 1, "theta_f": 0, "local": {"max_minutiae": 7}},
                    "config")
    assert (cfg.theta_t, cfg.theta_f, cfg.local.max_minutiae) == (1.0, 0.0, 7)
    assert isinstance(cfg.theta_t, float)


@pytest.mark.parametrize("kind, params", [
    ("double_sigmoid", {}),
    ("double_sigmoid", {"center": 1.0, "left_width": 1.0}),
    ("double_sigmoid", {"center": 0.0, "left_width": 1.0, "right_width": 0.0}),
    ("double_sigmoid", {"center": 0.0, "left_width": -1.0, "right_width": 1.0}),
    ("double_sigmoid", {"center": "a", "left_width": 1.0, "right_width": 1.0}),
    ("double_sigmoid", {"center": 0.0, "left_width": 1.0, "right_width": 1.0, "scale": 3}),
    ("identity", {"scale": 3}),
])
def test_pipeline_config_checks_normalizer_params(kind, params):
    # DoubleSigmoidParams's width check names "double sigmoid"
    with pytest.raises(ValueError, match=kind.replace("_", "[_ ]")):
        Normalizer(kind, params)


@pytest.mark.parametrize("side", ["left_width", "right_width"])
@pytest.mark.parametrize("width, shown", [(0, "0.0"), (-1.5, "-1.5")])
def test_double_sigmoid_width_error_names_its_field_and_value(side, width, shown):
    params = {"center": 0.0, "left_width": 1.0, "right_width": 1.0, side: width}
    text = f"double sigmoid {side} must be positive, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        DoubleSigmoidParams(**params)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        Normalizer("double_sigmoid", params)


def test_pipeline_config_checks_band():
    with pytest.raises(ValueError):
        PipelineConfig(theta_t=0.2, theta_f=0.5)


# ---------------------------------------------------------------------------
# the match record: slotted, with its own __init__, and still a frozen dataclass

RECORD_FIELDS = ("s_g_raw", "s_l_raw", "s_g_norm", "s_l_effective", "s_final", "gate",
                 "work_units")
SETTLED = (0.875, None, 0.875, 1.0, 0.9375, GATE_CONFIDENT_GENUINE, 0)
EVALUATED = (0.5, 3.25, 0.5, 1.0, 0.75, GATE_LOCAL_EVALUATED, 42)


@pytest.mark.parametrize("values", [SETTLED, EVALUATED])
def test_match_record_positional_and_keyword_construction_agree(values):
    by_name = dict(zip(RECORD_FIELDS, values))
    records = [MatchResult(*values), MatchResult(**by_name),
               MatchResult(*values[:3], **dict(list(by_name.items())[3:]))]
    assert all(r == records[0] for r in records)
    assert tuple(getattr(records[0], name) for name in RECORD_FIELDS) == values
    assert tuple(f.name for f in fields(MatchResult)) == RECORD_FIELDS
    params = inspect.signature(MatchResult).parameters
    assert tuple(params) == RECORD_FIELDS
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params.values())
    with pytest.raises(TypeError):
        MatchResult(*values[:-1])
    with pytest.raises(TypeError):
        MatchResult(*values, 0)
    with pytest.raises(TypeError):
        MatchResult(*values[:-1], work_units=0, extra=1)


def test_match_record_is_frozen():
    r = MatchResult(*SETTLED)
    for name in RECORD_FIELDS:
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, 0.0)
        with pytest.raises(FrozenInstanceError):
            delattr(r, name)
    # A slotted record has no room for another attribute.  The exception
    # differs by Python version: the 3.11 dataclass raises TypeError here.
    with pytest.raises((AttributeError, TypeError)):
        r.other = 0.0
    assert r == MatchResult(*SETTLED)


def test_match_record_compares_and_hashes_by_value():
    a = MatchResult(*SETTLED)
    b = MatchResult(float("0.875"), None, 0.875, 1.0, 0.9375, "confident_" + "genuine", 0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert hash(a) == hash(SETTLED)
    for k, other in enumerate([0.5, 1.0, 0.5, 0.0, 0.5, GATE_CONFIDENT_IMPOSTOR, 1]):
        changed = MatchResult(*SETTLED[:k], other, *SETTLED[k + 1:])
        assert changed != a and not changed == a
    assert a != SETTLED and not a == SETTLED


def test_match_record_repr_and_asdict_keep_their_text():
    r = MatchResult(*EVALUATED)
    assert repr(r) == ("MatchResult(s_g_raw=0.5, s_l_raw=3.25, s_g_norm=0.5, "
                       "s_l_effective=1.0, s_final=0.75, gate='local_evaluated', "
                       "work_units=42)")
    assert tuple(asdict(r)) == RECORD_FIELDS
    # cmd_match prints asdict of the record.
    assert json.dumps(asdict(MatchResult(*SETTLED))) == (
        '{"s_g_raw": 0.875, "s_l_raw": null, "s_g_norm": 0.875, "s_l_effective": 1.0, '
        '"s_final": 0.9375, "gate": "confident_genuine", "work_units": 0}')


def test_match_record_survives_replace_copy_and_pickle():
    r = MatchResult(*EVALUATED)
    assert replace(r) == r
    assert replace(r, gate=GATE_CONFIDENT_IMPOSTOR, work_units=0) == MatchResult(
        *EVALUATED[:5], GATE_CONFIDENT_IMPOSTOR, 0)
    assert copy.copy(r) == r and copy.deepcopy(r) == r
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(r, protocol))
        assert type(back) is MatchResult and back == r


def test_match_record_has_no_instance_dict():
    r = MatchResult(*SETTLED)
    assert not hasattr(r, "__dict__")
    assert MatchResult.__slots__ == RECORD_FIELDS
    with pytest.raises(TypeError):
        vars(r)
