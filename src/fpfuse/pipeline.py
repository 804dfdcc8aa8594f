"""Score normalization, fusion and the thresholding-gated pair inference.

The global score is cheap and already lives in [0, 1]; the raw local score
is an unbounded sum of cosines.  Before fusing, a :class:`Normalizer` brings
the local score to [0, 1].  It has two kinds: ``identity``, the default,
leaves the score for :func:`gated_fuse` to clamp, and ``double_sigmoid``
maps it through a two-piece logistic fitted on a hold-out split
(:func:`fit_double_sigmoid`).  Gating skips local matching entirely when
the global score alone is decisive: above ``theta_t`` the pair is a
confident genuine, below ``theta_f`` a confident impostor, and only scores
inside the band pay for a local match.

The one configuration is :class:`PipelineConfig`: its band is
``theta_t``/``theta_f``, and :data:`UNGATED` holds the band that keeps every
pair inside (a disabled gate).  The gate-and-fuse rule lives here once, as
scalar code (:func:`band_gate`, then :func:`gated_fuse`).  :func:`infer_pair`
applies it to one pair and ``evaluation.apply_pipeline`` maps it over a
corpus, bit-identically.

A config file is its dataclass: each field name is a JSON key, a nested
config (``norm``, ``local``) is a nested object, :func:`fpfuse.templates.from_json`
reads it and ``dataclasses.asdict`` writes it.  Every config checks its
fields when it is built, through the one number rule
:func:`fpfuse.templates.number`, so a config built in code and one read from
JSON pass the same checks, and every config that constructs survives a JSON
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .matching import LocalMatchConfig, clamp01, global_match, local_match
from .templates import Template, number

GATE_CONFIDENT_GENUINE = "confident_genuine"
GATE_CONFIDENT_IMPOSTOR = "confident_impostor"
GATE_LOCAL_EVALUATED = "local_evaluated"
# Batch results store a gate as its index in this tuple.
GATES = (GATE_CONFIDENT_GENUINE, GATE_CONFIDENT_IMPOSTOR, GATE_LOCAL_EVALUATED)

# Substituted local scores when gating skips the local matcher: saturate the
# fused score toward the confident decision.
SKIP_LOCAL = {GATE_CONFIDENT_GENUINE: 1.0, GATE_CONFIDENT_IMPOSTOR: 0.0}

WIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class DoubleSigmoidParams:
    """Two-piece logistic map: 0.5 at ``center``, edge widths per side."""

    center: float
    left_width: float
    right_width: float

    def __post_init__(self):
        for name in ("center", "left_width", "right_width"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        for name in ("left_width", "right_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"double sigmoid {name} must be positive, "
                                 f"got {getattr(self, name)!r}")


def double_sigmoid(s, p: DoubleSigmoidParams):
    """Map scores into (0, 1), strictly increasing, 0.5 at the center."""
    s = np.asarray(s, dtype=np.float64)
    if not np.isfinite(s).all():
        raise ValueError("double_sigmoid requires finite scores")
    width = np.where(s < p.center, p.left_width, p.right_width)
    z = np.clip(-2.0 * (s - p.center) / width, -700.0, 700.0)
    out = 1.0 / (1.0 + np.exp(z))
    return float(out) if out.ndim == 0 else out


def fit_double_sigmoid(scores_genuine, scores_impostor) -> DoubleSigmoidParams:
    """Place the center midway between the class means on a hold-out split."""
    genuine = np.asarray(scores_genuine, dtype=np.float64)
    impostor = np.asarray(scores_impostor, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("fit_double_sigmoid requires non-empty score lists")
    g_mean = float(genuine.mean())
    i_mean = float(impostor.mean())
    center = 0.5 * (g_mean + i_mean)
    return DoubleSigmoidParams(
        center=center,
        left_width=max(WIDTH_FLOOR, center - i_mean),
        right_width=max(WIDTH_FLOOR, g_mean - center),
    )


FUSION_RULES = ("mean", "max")


def fuse(a: float, b: float, rule: str = "mean") -> float:
    """Combine two normalized scores in [0, 1] by :func:`gated_fuse`'s rule.
    Raises ``ValueError`` for an unknown rule, then for a score outside
    [0, 1]."""
    fused = gated_fuse(GATE_LOCAL_EVALUATED, a, b, rule)[2]
    for name, value in (("a", a), ("b", b)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"fuse input {name}={value} outside [0, 1]")
    return fused


# A disabled gate: theta_t > 1 and theta_f < 0 keep every pair inside the band.
UNGATED = {"theta_t": 2.0, "theta_f": -1.0}


def band_gate(s_g_raw: float, cfg: PipelineConfig) -> str:
    """Gate of a raw global score: only ``local_evaluated`` pays for a local match."""
    if s_g_raw > cfg.theta_t:
        return GATE_CONFIDENT_GENUINE
    if s_g_raw < cfg.theta_f:
        return GATE_CONFIDENT_IMPOSTOR
    return GATE_LOCAL_EVALUATED


def gated_fuse(gate: str, s_g: float, s_l_norm: Optional[float],
               rule: str) -> Tuple[float, float, float]:
    """Clamp the global score and the normalized local score to [0, 1]
    (an ``identity``-normalized local score is unbounded, and NaN clamps to
    0), substitute the local score of a skipped pair, and fuse: ``mean`` is
    ``0.5 * (g + l)``, ``max`` the larger.  Returns
    ``(s_g_norm, s_l_effective, s_final)``; raises ``ValueError`` for an
    unknown rule.  Both scores lie in [0, 1] when they are fused, so no
    range is checked here.
    """
    s_g_norm = clamp01(float(s_g))
    s_l_effective = SKIP_LOCAL.get(gate)
    if s_l_effective is None:
        s_l_effective = clamp01(float(s_l_norm))
    if rule == "mean":
        return s_g_norm, s_l_effective, 0.5 * (s_g_norm + s_l_effective)
    if rule == "max":
        return s_g_norm, s_l_effective, max(s_g_norm, s_l_effective)
    raise ValueError(f"unknown fusion rule {rule!r}; expected one of {FUSION_RULES}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one gated pair comparison."""

    s_g_raw: float
    s_l_raw: Optional[float]
    s_g_norm: float
    s_l_effective: float
    s_final: float
    gate: str
    work_units: int


# ---------------------------------------------------------------------------
# Configurable normalizers and the pipeline config

# Normalizer kinds and the parameters each reads from its config entry.
_NORM_PARAMS = {
    "identity": (),
    "double_sigmoid": ("center", "left_width", "right_width"),
}
NORM_KINDS = tuple(_NORM_PARAMS)


@dataclass(frozen=True)
class Normalizer:
    """The local-score normalizer's config entry, callable on scores.

    ``identity`` (``fpfuse eval``'s default) passes the raw score through
    for :func:`gated_fuse` to clamp; ``double_sigmoid`` (demo 02, the
    ungated benchmark workload, ``tools/output_digest.py``) maps it through
    :func:`double_sigmoid`.  ``params`` holds exactly the kind's
    parameters, each a finite number; anything else raises ``ValueError``
    here, not at the first score."""

    kind: str = "identity"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown normalizer kind {self.kind!r}; expected one of {NORM_KINDS}")
        names = _NORM_PARAMS[self.kind]
        if not isinstance(self.params, dict) or set(self.params) != set(names):
            raise ValueError(f"{self.kind} normalizer params must be a JSON object with keys "
                             f"{', '.join(names) or 'none'}, got {self.params!r}")
        args = [number(self.params[name], f"{self.kind} normalizer param {name}")
                for name in names]
        # Built once: params is read at construction only.
        object.__setattr__(self, "_map", partial(double_sigmoid, p=DoubleSigmoidParams(*args))
                           if self.kind == "double_sigmoid" else None)

    def __call__(self, scores):
        return scores if self._map is None else self._map(scores)


@dataclass(frozen=True)
class PipelineConfig:
    """Full inference configuration, field for field its config file."""

    theta_t: float = 0.75
    theta_f: float = 0.15
    fusion: str = "mean"
    norm: Normalizer = field(default_factory=Normalizer)
    local: LocalMatchConfig = field(default_factory=LocalMatchConfig)

    def __post_init__(self):
        for name in ("theta_t", "theta_f"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if self.fusion not in FUSION_RULES:
            raise ValueError(f"unknown fusion rule {self.fusion!r}")
        for name, kind in (("norm", Normalizer), ("local", LocalMatchConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not self.theta_f <= self.theta_t:
            raise ValueError(f"the band needs theta_f <= theta_t, "
                             f"got theta_f={self.theta_f!r} and theta_t={self.theta_t!r}")


def infer_pair(a: Template, b: Template, cfg: PipelineConfig = PipelineConfig()) -> MatchResult:
    """Gated global+local comparison of two templates."""
    s_g_raw = global_match(a, b)
    gate = band_gate(s_g_raw, cfg)
    s_l_raw, s_l_norm, work = None, None, 0
    if gate == GATE_LOCAL_EVALUATED:
        local = local_match(a, b, cfg.local)
        s_l_raw, s_l_norm, work = local.score, cfg.norm(local.score), local.work_units
    return MatchResult(s_g_raw, s_l_raw, *gated_fuse(gate, s_g_raw, s_l_norm, cfg.fusion),
                       gate=gate, work_units=work)


def infer_pair_with_config(a: Template, b: Template, cfg: PipelineConfig) -> MatchResult:
    # Calls infer_pair through the module, so a wrapper installed there sees
    # every request.
    return infer_pair(a, b, cfg)
