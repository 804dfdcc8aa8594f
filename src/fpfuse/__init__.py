"""Fingerprint template matching, score fusion and evaluation toolkit.

The pipeline compares two templates by fusing a cheap global-embedding
similarity with a minutiae-level local match, optionally skipping the local
stage when the global score alone is decisive.  The package also ships the
training-loss reference formulas, a verification-protocol evaluator and a
seeded synthetic corpus generator used by the test and demo suites.
"""

from .assignment import (Assignment, CorrespondenceWeights,
                         InfeasibleAssignmentError, angular_distance,
                         correspondence_cost_matrix, solve_assignment)
from .evaluation import (ChannelScores, MinutiaeQuality, Protocol,
                         aggregate_minutiae_quality, apply_pipeline,
                         enumerate_pairs, evaluate_scores, frr_at_far,
                         minutiae_quality, score_pairs)
from .losses import (GroundTruthRecord, LossBreakdown, LossWeights,
                     PredictionRecord, mse, reorder_ground_truth, total_loss)
from .matching import (LocalMatchConfig, LocalMatchResult, global_match,
                       local_match)
from .pipeline import (UNGATED, DoubleSigmoidParams, MatchResult, Normalizer,
                       PipelineConfig, double_sigmoid, fit_double_sigmoid,
                       fuse, infer_pair, infer_pair_with_config)
from .synth import (CorpusBundle, Identity, InjectionManifest, SynthSpec,
                    generate_corpus, generate_identity, generate_impression,
                    write_bundle)
from .templates import (Corpus, DecodeError, Template, Violation,
                        canonicalize_angle, from_json, read_corpus, read_template,
                        validate, write_corpus, write_template)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "ChannelScores", "Corpus", "CorpusBundle",
    "CorrespondenceWeights", "DecodeError",
    "DoubleSigmoidParams", "GroundTruthRecord", "Identity",
    "InfeasibleAssignmentError", "InjectionManifest", "LocalMatchConfig",
    "LocalMatchResult", "LossBreakdown", "LossWeights", "MatchResult",
    "MinutiaeQuality", "Normalizer", "PipelineConfig", "PredictionRecord",
    "Protocol", "SynthSpec", "Template", "UNGATED",
    "Violation", "aggregate_minutiae_quality", "angular_distance",
    "apply_pipeline", "canonicalize_angle", "correspondence_cost_matrix",
    "double_sigmoid", "enumerate_pairs", "evaluate_scores",
    "fit_double_sigmoid", "frr_at_far", "from_json", "fuse", "generate_corpus",
    "generate_identity", "generate_impression", "global_match", "infer_pair",
    "infer_pair_with_config", "local_match", "minutiae_quality", "mse",
    "read_corpus", "read_template", "reorder_ground_truth",
    "score_pairs", "solve_assignment", "total_loss", "validate",
    "write_bundle", "write_corpus", "write_template",
]
