"""Matching walkthrough: global scores, local minutiae pairing, and the
thresholding gate that skips local work on easy pairs.

Prints the score distributions at each pipeline stage for a small seeded
corpus (all pairs / in-band global / in-band local / final fused).
"""

from dataclasses import asdict

import numpy as np

from fpfuse import (LocalMatchConfig, Normalizer, PipelineConfig, Protocol, SynthSpec,
                    apply_pipeline, enumerate_pairs, fit_double_sigmoid,
                    generate_corpus, global_match, infer_pair_with_config,
                    local_match, score_pairs)

spec = SynthSpec(seed=2024, subjects=30, impressions=4)
corpus = generate_corpus(spec).corpus
ids = corpus.subject_ids

# one genuine and one impostor pair, end to end
a, b = corpus.template(ids[0], 0), corpus.template(ids[0], 1)
x, y = corpus.template(ids[0], 0), corpus.template(ids[1], 0)
print("genuine  global:", round(global_match(a, b), 4))
print("impostor global:", round(global_match(x, y), 4))
r = local_match(a, b, LocalMatchConfig())
print(f"genuine  local: score={r.score:.2f} over {len(r.matched_pairs)} pairs "
      f"({r.work_units} candidate evaluations)")
r = local_match(x, y, LocalMatchConfig())
print(f"impostor local: score={r.score:.2f} over {len(r.matched_pairs)} pairs")

# score every protocol pair once, then derive pipeline variants from the raw
# channel scores
genuine_pairs, impostor_pairs = enumerate_pairs(Protocol(30, 4), corpus)
n_gen = len(genuine_pairs)
raw = score_pairs(corpus, genuine_pairs + impostor_pairs)

params = fit_double_sigmoid(raw.s_l_raw[:n_gen], raw.s_l_raw[n_gen:])
norm = Normalizer("double_sigmoid", asdict(params))
print(f"\nfitted local-score normalization: center={params.center:.1f} "
      f"widths=({params.left_width:.1f}, {params.right_width:.1f})")


def histogram(title, genuine, impostor, lo=0.0, hi=1.0, bins=10):
    print(f"\n{title}")
    edges = np.linspace(lo, hi, bins + 1)
    g, _ = np.histogram(genuine, bins=edges)
    i, _ = np.histogram(impostor, bins=edges)
    for k in range(bins):
        bar_g = "g" * int(np.ceil(40 * g[k] / max(1, g.max())))
        bar_i = "i" * int(np.ceil(40 * i[k] / max(1, i.max())))
        print(f"  [{edges[k]:4.2f},{edges[k + 1]:4.2f})  {bar_g:<42}{bar_i}")


cfg = PipelineConfig(theta_t=0.75, theta_f=0.15, fusion="mean", norm=norm)
derived = apply_pipeline(raw, cfg)

histogram("stage 1: raw global scores (all pairs)",
          raw.s_g_raw[:n_gen], raw.s_g_raw[n_gen:])
in_band = (raw.s_g_raw >= cfg.theta_f) & (raw.s_g_raw <= cfg.theta_t)
histogram("stage 2: global scores where the gate permits local matching",
          raw.s_g_raw[:n_gen][in_band[:n_gen]], raw.s_g_raw[n_gen:][in_band[n_gen:]])
histogram("stage 3: normalized local scores on those in-band pairs",
          np.atleast_1d(cfg.norm(raw.s_l_raw[:n_gen][in_band[:n_gen]])),
          np.atleast_1d(cfg.norm(raw.s_l_raw[n_gen:][in_band[n_gen:]])))
histogram("stage 4: final fused scores (all pairs)",
          derived.final[:n_gen], derived.final[n_gen:])

print("\ngate statistics:", derived.gate_stats)
print("local work with gating:", int(derived.work_units.sum()),
      "of", int(raw.work_units.sum()), "ungated candidate evaluations")

# the per-pair path applies the same gate-and-fuse rule as the batch one
k = n_gen + 5
(sid_a, ia), (sid_b, ib) = raw.pairs[k]
single = infer_pair_with_config(corpus.template(sid_a, ia), corpus.template(sid_b, ib), cfg)
print("\nper-pair infer_pair equals the batch pipeline on a sample pair:",
      single.s_final == derived.final[k])
