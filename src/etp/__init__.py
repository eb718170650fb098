"""etp: explain-then-predict pipelines with extractive rationales.

A compact library for training a two-phase rationale pipeline (a
multi-task explainer followed by a predictor that sees only the
wildcard-masked rationale), evaluating it with the standard rationale
metric suite, and generating synthetic planted-rationale tasks for
fast, deterministic verification.
"""

from .autodiff import Tape, Tensor
from .data import Instance, SyntheticSpec, Vocabulary, batchify, generate_synthetic, load_jsonl
from .losses import LossBreakdown, combined_loss, task_loss, weighted_token_bce
from .metrics import (
    MetricsReport,
    auprc,
    comprehensiveness,
    explanation_statistics,
    iou_f1,
    lambda_criterion,
    macro_f1,
    mask_to_spans,
    spans_to_mask,
    sufficiency,
    token_prf,
)
from .models import (
    ExplainerModel,
    ModelConfig,
    PredictorModel,
    decode_spans,
    mask_input,
    pool_subtokens,
)
from .optim import Adam
from .pipeline import (
    PipelineState,
    TrainConfig,
    evaluate,
    infer,
    run_pipeline,
    train_explainer,
    train_predictor,
)

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "Instance",
    "SyntheticSpec",
    "Vocabulary",
    "batchify",
    "generate_synthetic",
    "load_jsonl",
    "LossBreakdown",
    "combined_loss",
    "task_loss",
    "weighted_token_bce",
    "MetricsReport",
    "auprc",
    "comprehensiveness",
    "explanation_statistics",
    "iou_f1",
    "lambda_criterion",
    "macro_f1",
    "mask_to_spans",
    "spans_to_mask",
    "sufficiency",
    "token_prf",
    "ExplainerModel",
    "ModelConfig",
    "PredictorModel",
    "decode_spans",
    "mask_input",
    "pool_subtokens",
    "Adam",
    "PipelineState",
    "TrainConfig",
    "evaluate",
    "infer",
    "run_pipeline",
    "train_explainer",
    "train_predictor",
    "__version__",
]
