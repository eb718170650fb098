"""Two-phase training orchestration.

Phase one trains the explainer's task and explanation heads jointly on
the shared encoder, minimizing task loss plus lambda times the
explanation loss, with early stopping on the validation sum of task
macro F1 and token F1. Phase two freezes the best explainer, keeps only
training instances whose auxiliary prediction matches the gold label,
rebuilds every document as a wildcard-masked rationale, and trains an
independently parameterized predictor on those masked inputs (early
stopping on validation macro F1 alone; validation is never filtered).

Inference composes the frozen pieces: explain, mask, predict. The
auxiliary head plays no part in it.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses, metrics
from .autodiff import Tape, Tensor
from .data import Batch, DataError, Dataset, Instance, Layout, Vocabulary, build_vocab
from .data import check_layout, lay_out, load_label_map, pack, save_label_map
from .data import batchify  # noqa: F401  perfbench/tracing.py wraps the data layer here
from .models import (
    ExplainerModel,
    ModelConfig,
    ModelOptions,
    PredictorModel,
    decode_spans,
    mask_input,
    pool_subtokens,
    subtoken_spans_to_words,
    word_spans_to_subtokens,
)
from .optim import Adam, OptimizerError

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainHistory",
    "PipelineState",
    "PipelineError",
    "InferResult",
    "train_explainer",
    "filter_training_instances",
    "build_masked_dataset",
    "train_predictor",
    "run_pipeline",
    "infer",
    "infer_many",
    "faithfulness",
    "score_report",
    "score_results",
    "evaluate",
    "write_predictions",
    "save_run",
    "load_run",
    "dump_flat_config",
    "parse_flat_config",
    "coerce_config",
    "FIELD_TYPES",
]

logger = logging.getLogger("etp.pipeline")

# Offset separating the predictor's init stream from the explainer's.
_PREDICTOR_SEED_OFFSET = 7919

# Each epoch sorts the seeded permutation of the training set by laid-out
# length inside windows of this many batches before cutting it into
# batches, so a batch holds documents of similar length and few GRU steps
# run over padding; the batch order is then shuffled.
BUCKET_BATCHES = 16


class PipelineError(RuntimeError):
    pass


@dataclass
class TrainConfig(ModelOptions):
    """Knobs for both training phases, after the model family's options."""

    lam: float = 5.0
    epochs: int = 10
    patience: int = 3
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    wildcard: str = "."
    threshold: float = 0.5
    exp_weighting: str = "inverse_prior"
    max_len: int = 512
    subtoken_mode: str = "word"

    def validate(self) -> "TrainConfig":
        """Check every field with the rule's owner; raises ValueError."""
        super().validate()
        check_layout(self.max_len, self.subtoken_mode)
        Vocabulary.build([], self.wildcard)  # raises on a wildcard the vocabulary cannot hold
        if self.epochs < 1 or self.patience < 0 or self.batch_size < 1:
            raise ValueError("epochs >= 1, patience >= 0, batch_size >= 1 required")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.exp_weighting not in losses.WEIGHTING_MODES:
            raise ValueError(f"unknown exp_weighting {self.exp_weighting!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        back = parse_flat_config(dump_flat_config(self))  # drops '#...' and edge whitespace
        for name, value in ((f.name, str(getattr(self, f.name))) for f in fields(self)):
            if back.get(name) != value:
                raise ValueError(f"{name} {value!r} would not read back from train_config.txt")
        return self

    def model_config(
        self, vocab_size: int, num_classes: int, span_len: int = 512, vocab_digest: str = ""
    ) -> ModelConfig:
        options = {f.name: getattr(self, f.name) for f in fields(ModelOptions)}
        return ModelConfig(vocab_size=vocab_size, num_classes=num_classes, span_len=span_len,
                           vocab_digest=vocab_digest, **options)


@dataclass
class EpochStats:
    epoch: int
    l_task: float
    l_exp: float
    l_loss: float
    val_macro_f1: float
    val_token_f1: float | None


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0  # 0: the initial weights
    stopped_early: bool = False
    diverged: bool = False


@dataclass
class PipelineState:
    explainer: ExplainerModel
    predictor: PredictorModel
    stage1: TrainHistory
    stage2: TrainHistory
    cfg: TrainConfig
    vocab: Vocabulary
    label_map: dict[str, int]

    def label_name(self, index: int):
        return {idx: raw for raw, idx in self.label_map.items()}[index]


@dataclass
class InferResult:
    uid: str
    label: int
    probs: np.ndarray
    rationale_mask: np.ndarray
    spans: list[tuple[int, int]]
    scores: np.ndarray


# ---------------------------------------------------------------------------
# forward helpers


def _token_targets(lay: Layout) -> np.ndarray:
    """Each kept word's gold bit, once per sub-token of the word."""
    gold = lay.instance.rationale_mask[: len(lay.word_groups)]
    return np.repeat(gold, [ge - gs for gs, ge in lay.word_groups])


def _gold_spans(lay: Layout) -> list[tuple[int, int]]:
    """The gold word spans clipped to the kept words."""
    n = len(lay.word_groups)
    return [(s, min(e, n)) for s, e in lay.instance.rationale_spans if s < n]


def _exp_loss(model: ExplainerModel, enc, batch: Batch, cfg: TrainConfig) -> Tensor:
    if cfg.head == "token":
        scores = model.explain_tokens(enc, batch.doc_mask)
        targets = [_token_targets(lay) for lay in batch.layouts]
        return losses.token_explanation_loss(scores, batch.doc_row_index, targets, cfg.exp_weighting)
    sf = model.explain_spans(enc, batch.doc_start, batch.doc_sublen)
    doc_spans = [word_spans_to_subtokens(_gold_spans(lay), lay.word_groups) for lay in batch.layouts]
    targets = np.zeros_like(sf.valid)
    for b, spans in enumerate(doc_spans):
        for s, _ in spans:
            targets[s, b] = 1.0
    rows = np.flatnonzero(sf.valid)
    start = losses.span_start_loss(ad.take_rows(sf.p_start, rows), targets.reshape(-1)[rows])
    end = losses.span_end_loss(sf.p_end, doc_spans)
    return ad.mul(losses.span_total_loss(start, end), 1.0 / batch.size)


def _explain(model: ExplainerModel, batches: list[Batch], cfg: TrainConfig) -> list[InferResult]:
    """One eval-mode explainer pass: each batch is encoded once and both
    heads read that encoding. The results carry the auxiliary head's
    label and probabilities; masks and scores cover the whole document,
    and words dropped by truncation score 0."""
    out = []
    for batch in batches:
        enc = model.encode(batch.ids, batch.pad_mask)
        probs = model.predict_task(enc).data
        if cfg.head == "token":
            sub_scores = model.explain_tokens(enc, batch.doc_mask).data
        else:
            # the span head is as long as the longest train or val document;
            # it reads a longer document up to that length, and the words
            # past it score 0 like words dropped by max_len truncation
            head_len = np.minimum(batch.doc_sublen, model.cfg.span_len)
            sf = model.explain_spans(enc, batch.doc_start, head_len)
        for b, lay in enumerate(batch.layouts):
            if cfg.head == "token":
                sub = sub_scores[batch.doc_row_index[b], 0]
                word_scores = pool_subtokens(sub, lay.word_groups)
                hard = (word_scores >= cfg.threshold).astype(np.int8)
                spans = metrics.mask_to_spans(hard)
            else:
                spans_sub = decode_spans(sf.start_numpy(b), sf.end_numpy(b), cfg.threshold)
                spans = subtoken_spans_to_words(spans_sub, lay.word_groups)
                hard = metrics.spans_to_mask(spans, len(lay.word_groups))
                word_scores = hard.astype(np.float64)
            uid, n = lay.instance.uid, len(lay.instance.document)
            mask = np.zeros(n, dtype=np.int8)
            mask[: len(hard)] = hard
            scores = np.zeros(n)
            scores[: len(word_scores)] = word_scores
            out.append(InferResult(uid, int(probs[b].argmax()), probs[b], mask, spans, scores))
    return out


class _EvalBatches:
    """Forward-only batches over ``instances`` in laid-out length order,
    so that few rows step through padding; ``layouts`` and the passes
    below list their per-document results in input order."""

    def __init__(self, instances, vocab: Vocabulary, cfg: TrainConfig):
        self.cfg = cfg
        self.layouts = lay_out(instances, vocab, cfg.max_len, cfg.subtoken_mode)
        order = np.argsort([len(lay) for lay in self.layouts], kind="stable")
        self.batches = pack([self.layouts[i] for i in order], cfg.batch_size)
        # back[i]: where input document i sits in batch order
        self.back = np.argsort(order)

    def explain(self, model: ExplainerModel) -> list[InferResult]:
        explained = _explain(model, self.batches, self.cfg)
        return [explained[i] for i in self.back]

    def predict(self, model) -> np.ndarray:
        """Eval-mode class probabilities, one row per document."""
        probs = [model.predict_task(model.encode(b.ids, b.pad_mask)).data for b in self.batches]
        # the (0, classes) head shapes the answer for zero documents
        return np.concatenate([np.empty((0, model.cfg.num_classes)), *probs])[self.back]


def _epoch_batches(layouts: list[Layout], batch_size: int, rng: np.random.Generator) -> list[Batch]:
    """One epoch's training batches: the seeded permutation, stably sorted
    by length inside windows of BUCKET_BATCHES batches, cut into batches
    that are then shuffled with the same generator."""
    lengths = np.array([len(lay) for lay in layouts])
    order = rng.permutation(len(layouts))
    window = BUCKET_BATCHES * batch_size
    for lo in range(0, len(order), window):
        part = order[lo : lo + window]
        order[lo : lo + window] = part[np.argsort(lengths[part], kind="stable")]
    cuts = [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]
    return [
        pack([layouts[i] for i in cuts[c]], batch_size)[0] for c in rng.permutation(len(cuts))
    ]


def _validation_scores(model, val: _EvalBatches, num_classes, stage: int):
    """Validation macro F1, plus token F1 over the kept words in stage 1."""
    layouts = val.layouts
    gold = np.array([lay.instance.label for lay in layouts], dtype=np.int64)
    if stage == 2:
        pred = val.predict(model).argmax(axis=1)
        return metrics.macro_f1(pred, gold, num_classes), None
    explained = val.explain(model)
    macro = metrics.macro_f1(np.array([e.label for e in explained]), gold, num_classes)
    token = metrics.token_prf_dataset(
        [e.rationale_mask[: len(lay.word_groups)] for e, lay in zip(explained, layouts)],
        [lay.instance.rationale_mask[: len(lay.word_groups)] for lay in layouts],
    )["f1"]
    return macro, token


# ---------------------------------------------------------------------------
# training loops


def _stage_inputs(train, val, vocab: Vocabulary, cfg: TrainConfig, stage: int):
    """A stage's training set, laid out once for all its epochs, and its
    validation batches."""
    if not train:
        raise PipelineError(f"stage {stage} cannot proceed on an empty training set")
    if not val:
        raise PipelineError("validation set must be nonempty")
    return lay_out(train, vocab, cfg.max_len, cfg.subtoken_mode), _EvalBatches(val, vocab, cfg)


def _train_loop(model, train: list[Layout], val: _EvalBatches, cfg: TrainConfig, num_classes,
                stage: int):
    """Shared epoch loop; stage 1 optimizes the combined loss and stops
    on macro F1 + token F1, stage 2 optimizes the task loss alone and
    stops on macro F1."""
    opt = Adam(model.parameters(), lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(cfg.seed + 11 + stage)
    dropout_rng = np.random.default_rng(cfg.seed + 23 + stage)
    history = TrainHistory()
    best_criterion = -np.inf
    best_state = model.state_arrays()
    bad_epochs = 0
    for epoch in range(1, cfg.epochs + 1):
        sums = np.zeros(3)
        count = 0
        real = cells = 0.0
        diverged = False
        for batch in _epoch_batches(train, cfg.batch_size, shuffle_rng):
            with Tape() as tape:
                enc = model.encode(batch.ids, batch.pad_mask)
                probs = model.predict_task(enc, train=True, dropout_rng=dropout_rng)
                l_task = losses.task_loss(probs, batch.labels)
                if stage == 1:
                    bd = losses.combined_loss(l_task, _exp_loss(model, enc, batch, cfg), cfg.lam)
                    values, total = bd.values(), bd.total
                else:
                    values, total = (l_task.item(), 0.0, l_task.item()), l_task
                if not np.isfinite(values).all():
                    diverged = True
                    break
                tape.backward(total)
            try:
                opt.step()
            except OptimizerError:
                diverged = True
                break
            opt.zero_grad()
            sums += np.array(values) * batch.size
            count += batch.size
            real += batch.pad_mask.sum()
            cells += batch.pad_mask.size
        if diverged:
            logger.warning("stage %d: non-finite loss at epoch %d; restoring best weights", stage, epoch)
            history.diverged = True
            break
        l_task_m, l_exp_m, l_loss_m = (sums / max(count, 1)).tolist()
        macro, token = _validation_scores(model, val, num_classes, stage)
        criterion = metrics.lambda_criterion(macro, token) if stage == 1 else macro
        history.epochs.append(
            EpochStats(epoch, l_task_m, l_exp_m, l_loss_m, macro, token)
        )
        logger.info(
            "stage %d epoch %d: loss %.4f (task %.4f, exp %.4f) val macro F1 %.4f%s; "
            "packed real/cells %.3f",
            stage,
            epoch,
            l_loss_m,
            l_task_m,
            l_exp_m,
            macro,
            "" if token is None else f" token F1 {token:.4f}",
            real / max(cells, 1.0),
        )
        if criterion > best_criterion:
            best_criterion = criterion
            best_state = model.state_arrays()
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience > 0:
                history.stopped_early = True
                break
    logger.info("stage %d: restored epoch %d of %d%s", stage, history.best_epoch,
                len(history.epochs), "; stopped early" if history.stopped_early else "")
    model.load_state(best_state)
    return model, history


def train_explainer(train, val, cfg: TrainConfig, vocab: Vocabulary, num_classes: int):
    """Phase-one multi-task training; returns the best-epoch explainer."""
    cfg.validate()
    layouts, val_order = _stage_inputs(train, val, vocab, cfg, stage=1)
    model_cfg = cfg.model_config(len(vocab), num_classes, vocab_digest=vocab.digest())
    if cfg.head == "span":
        # the span head is as long as the longest laid-out train or val document
        model_cfg.span_len = max(len(lay) - lay.doc_start for lay in layouts + val_order.layouts)
    model = ExplainerModel(model_cfg, seed=cfg.seed)
    return _train_loop(model, layouts, val_order, cfg, num_classes, stage=1)


def filter_training_instances(instances, explanations):
    """Keep exactly the instances whose auxiliary prediction
    (``explanations[i].label`` for ``instances[i]``) matches the gold
    label. Applies to training data only; callers must never filter
    validation or test sets."""
    return [inst for inst, e in zip(instances, explanations) if e.label == inst.label]


def build_masked_dataset(instances, masks, wildcard: str):
    """Replace each document with its wildcard-masked hard rationale."""
    return [
        replace(inst, document=mask_input(inst.document, m, wildcard))
        for inst, m in zip(instances, masks)
    ]


def train_predictor(masked_train, masked_val, cfg: TrainConfig, vocab: Vocabulary, num_classes: int):
    """Phase-two training on masked inputs, task loss only."""
    cfg.validate()
    layouts, val_order = _stage_inputs(masked_train, masked_val, vocab, cfg, stage=2)
    model_cfg = cfg.model_config(len(vocab), num_classes, vocab_digest=vocab.digest())
    model = PredictorModel(model_cfg, seed=cfg.seed + _PREDICTOR_SEED_OFFSET)
    return _train_loop(model, layouts, val_order, cfg, num_classes, stage=2)


def run_pipeline(dataset: Dataset, cfg: TrainConfig) -> PipelineState:
    cfg.validate()
    train = dataset.splits["train"]
    val = dataset.splits.get("val")
    if not val:
        raise PipelineError("pipeline needs a validation split")
    vocab = dataset.vocab
    if cfg.subtoken_mode != "word" or vocab.wildcard != cfg.wildcard:
        vocab = build_vocab(train, cfg.wildcard, cfg.subtoken_mode)
    num_classes = dataset.num_classes
    explainer, hist1 = train_explainer(train, val, cfg, vocab, num_classes)
    train_exp = _EvalBatches(train, vocab, cfg).explain(explainer)
    val_exp = _EvalBatches(val, vocab, cfg).explain(explainer)
    # masking commutes with the filter: it keeps the label of every document
    masked_train = filter_training_instances(
        build_masked_dataset(train, [e.rationale_mask for e in train_exp], cfg.wildcard), train_exp
    )
    kept, total = Counter(i.label for i in masked_train), Counter(i.label for i in train)
    classes = sorted(dataset.label_map.items(), key=lambda kv: kv[1])
    logger.info(
        "auxiliary filter kept %d / %d training instances (%s)",
        len(masked_train),
        len(train),
        ", ".join(f"class {raw}: {kept[c]} / {total[c]}" for raw, c in classes),
    )
    starved = [f"class {raw}" for raw, c in classes if not kept[c]]
    if starved:
        logger.warning("auxiliary filter kept no training instance of %s", ", ".join(starved))
    masked_val = build_masked_dataset(val, [e.rationale_mask for e in val_exp], cfg.wildcard)
    predictor, hist2 = train_predictor(masked_train, masked_val, cfg, vocab, num_classes)
    return PipelineState(
        explainer=explainer,
        predictor=predictor,
        stage1=hist1,
        stage2=hist2,
        cfg=cfg,
        vocab=vocab,
        label_map=dataset.label_map,
    )


# ---------------------------------------------------------------------------
# inference and evaluation


def _predict_masked(state: PipelineState, instances, masks) -> np.ndarray:
    """Predictor probabilities on the documents with every word outside
    its mask replaced by the wildcard."""
    masked = build_masked_dataset(instances, masks, state.cfg.wildcard)
    return _EvalBatches(masked, state.vocab, state.cfg).predict(state.predictor)


def infer_many(state: PipelineState, instances) -> list[InferResult]:
    """Explain, mask, and predict for a list of instances.

    The label comes from the predictor run on the wildcard-masked
    document; the auxiliary head's output is ignored. Returned masks and
    score vectors cover the full document (words dropped by truncation
    score 0).
    """
    explained = _EvalBatches(instances, state.vocab, state.cfg).explain(state.explainer)
    probs = _predict_masked(state, instances, [e.rationale_mask for e in explained])
    return [replace(e, label=int(p.argmax()), probs=p) for p, e in zip(probs, explained)]


def infer(state: PipelineState, instance: Instance) -> InferResult:
    return infer_many(state, [instance])[0]


def faithfulness(state: PipelineState, instances, rationale_masks, p_only=None):
    """Batched comprehensiveness and sufficiency of given rationales.

    Equivalent to calling the two metric functions instance by instance
    with a keep-mask closure over the predictor; batching just amortizes
    the three forward passes (full, rationale-stripped, rationale-only);
    a caller that has the rationale-only probabilities passes ``p_only``.
    """
    masks = [np.asarray(m) for m in rationale_masks]
    if p_only is None:
        p_only = _predict_masked(state, instances, masks)
    p_full = _EvalBatches(instances, state.vocab, state.cfg).predict(state.predictor)
    p_stripped = _predict_masked(state, instances, [1 - m for m in masks])
    cls = p_full.argmax(axis=1)
    idx = np.arange(len(instances))
    comp = p_full[idx, cls] - p_stripped[idx, cls]
    suff = p_full[idx, cls] - p_only[idx, cls]
    return comp, suff


def _prediction_record(state: PipelineState, res: InferResult) -> dict:
    """One line of a predictions file."""
    return {
        "id": res.uid,
        "label": state.label_name(res.label),
        "rationale": [int(v) for v in res.rationale_mask],
        "spans": [[int(s), int(e)] for s, e in res.spans],
        "scores": [float(v) for v in res.scores],
    }


def _finite_array(uid: str, name: str, values) -> np.ndarray:
    """A prediction record's ``name`` field as float64; anything but an
    array of finite numbers raises DataError naming the record."""
    arr = None
    if isinstance(values, list) and all(type(v) in (int, float) for v in values):
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer past the float64 range
            pass
    if arr is None or not np.isfinite(arr).all():
        raise DataError(f"prediction {uid}: {name} must be an array of finite numbers")
    return arr


def score_report(instances, predictions, label_map, faith=None) -> metrics.MetricsReport:
    """The metric battery over one prediction record per instance.

    A record follows the predictions-file schema: ``label``,
    ``rationale`` (a 0/1 mask over the document), and optionally
    ``spans`` (default: the mask's runs) and ``scores`` (default: the
    mask); a null optional field counts as absent. ``faith(masks)``
    returns comprehensiveness and sufficiency arrays for the predicted
    masks; without it both are left out. A record that does not fit its
    instance raises DataError naming it, and so do an empty list and a
    record count other than the instance count.
    """
    if not instances:
        raise DataError("nothing to score: the split has no instances")
    if len(predictions) != len(instances):
        raise DataError(f"{len(predictions)} prediction records for {len(instances)} instances")
    labels, masks, spans, scores = [], [], [], []
    for inst, rec in zip(instances, predictions):
        n = len(inst.document)
        raw = rec.get("label")
        if raw is None:
            raise DataError(f"prediction {inst.uid}: missing label")
        if str(raw) not in label_map:
            raise DataError(f"prediction {inst.uid}: unknown label {raw!r}")
        labels.append(label_map[str(raw)])
        mask = _finite_array(inst.uid, "rationale", rec.get("rationale"))
        if mask.shape != (n,):
            raise DataError(f"prediction {inst.uid}: rationale length mismatch")
        if not np.isin(mask, (0, 1)).all():
            raise DataError(f"prediction {inst.uid}: rationale entries must be 0 or 1")
        mask = mask.astype(np.int8)
        masks.append(mask)
        if rec.get("spans") is None:
            spans.append(metrics.mask_to_spans(mask))
        else:
            try:
                inst_spans = [(s, e) for s, e in rec["spans"]]
            except (TypeError, ValueError):
                inst_spans = None
            # the rule data files follow for evidence offsets: a bool is not an offset
            if inst_spans is None or any(type(v) is not int for span in inst_spans for v in span):
                raise DataError(f"prediction {inst.uid}: a span is not a [start, end] integer pair")
            for s, e in inst_spans:
                if not 0 <= s < e <= n:
                    raise DataError(f"prediction {inst.uid}: span ({s}, {e}) is empty, inverted "
                                    f"or outside [0, {n}]")
            spans.append(inst_spans)
        inst_scores = mask.astype(np.float64)
        if rec.get("scores") is not None:
            inst_scores = _finite_array(inst.uid, "scores", rec["scores"])
        if inst_scores.shape != (n,):
            raise DataError(f"prediction {inst.uid}: {inst_scores.size} scores for {n} words")
        scores.append(inst_scores)
    gold_masks = [np.asarray(inst.rationale_mask) for inst in instances]
    gold_spans = [inst.rationale_spans for inst in instances]
    prf = metrics.token_prf_dataset(masks, gold_masks)
    comp = suff = None
    if faith is not None:
        comp_all, suff_all = faith(masks)
        comp, suff = float(comp_all.mean()), float(suff_all.mean())
    return metrics.MetricsReport(
        macro_f1=metrics.macro_f1(
            np.array(labels), np.array([inst.label for inst in instances]), len(label_map)
        ),
        token_precision=prf["precision"],
        token_recall=prf["recall"],
        token_f1=prf["f1"],
        token_f1_micro=prf["micro_f1"],
        iou_f1=metrics.iou_f1_dataset(spans, gold_spans),
        auprc=metrics.auprc_dataset(scores, gold_masks),
        comprehensiveness=comp,
        sufficiency=suff,
        statistics=metrics.explanation_statistics(spans, gold_spans),
        n_instances=len(instances),
    )


def score_results(state: PipelineState, instances, results) -> metrics.MetricsReport:
    """Full metric battery for ``infer_many(state, instances)``'s results.

    Sufficiency reuses the results' probabilities: they are the
    predictor's output on the rationale-only documents.
    """
    p_only = np.array([r.probs for r in results])
    return score_report(
        instances,
        [_prediction_record(state, r) for r in results],
        state.label_map,
        lambda masks: faithfulness(state, instances, masks, p_only),
    )


def evaluate(state: PipelineState, instances) -> metrics.MetricsReport:
    """Full metric battery for end-to-end predictions on ``instances``."""
    return score_results(state, instances, infer_many(state, instances))


# ---------------------------------------------------------------------------
# flat key=value config files


def dump_flat_config(obj) -> str:
    return "".join(f"{f.name} = {getattr(obj, f.name)}\n" for f in fields(obj))


def parse_flat_config(text: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# how a config file's or a flag's text becomes a field's value, by annotation
FIELD_TYPES = {"int": int, "float": float, "str": str}


def coerce_config(cls, mapping: dict[str, str], **overrides):
    """Build a dataclass from string key=value pairs plus typed overrides."""
    kwargs = {}
    by_name = {f.name: f for f in fields(cls)}
    for key, raw in mapping.items():
        if key not in by_name:
            raise ValueError(f"unknown config key {key!r} for {cls.__name__}")
        kind = by_name[key].type
        try:
            kwargs[key] = FIELD_TYPES[kind](raw)
        except ValueError:
            article = "an" if kind == "int" else "a"
            raise ValueError(f"config key {key!r}: {raw!r} is not {article} {kind}") from None
    kwargs.update(overrides)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# run directories


def _write_history_csv(path, history: TrainHistory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(EpochStats)])
        for row in history.epochs:
            writer.writerow(["" if v is None else repr(v) for v in astuple(row)])


def write_predictions(path, state: PipelineState, results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(json.dumps(_prediction_record(state, res)) + "\n")


def save_run(run_dir, state: PipelineState, report: metrics.MetricsReport | None = None) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "train_config.txt").write_text(dump_flat_config(state.cfg), encoding="utf-8")
    state.explainer.save(run_dir / "explainer.npz")
    state.predictor.save(run_dir / "predictor.npz")
    state.vocab.save(run_dir / "vocab.txt")
    save_label_map(run_dir / "labels.json", state.label_map)
    _write_history_csv(run_dir / "stage1_metrics.csv", state.stage1)
    _write_history_csv(run_dir / "stage2_metrics.csv", state.stage2)
    if report is not None:
        (run_dir / "metrics.json").write_text(report.to_json(), encoding="utf-8")
        (run_dir / "metrics.txt").write_text(report.to_text(), encoding="utf-8")


def load_run(run_dir) -> PipelineState:
    """The pipeline a run directory holds; its config must be valid and
    each checkpoint must be the model that config, vocab.txt and
    labels.json describe."""
    run_dir = Path(run_dir)
    for name in ("explainer.npz", "predictor.npz", "train_config.txt", "vocab.txt", "labels.json"):
        if not (run_dir / name).exists():
            raise PipelineError(f"run directory {run_dir} is missing {name}")
    text = (run_dir / "train_config.txt").read_text()
    try:
        cfg = coerce_config(TrainConfig, parse_flat_config(text)).validate()
    except ValueError as exc:
        raise PipelineError(f"run directory {run_dir}: train_config.txt: {exc}") from None
    vocab = Vocabulary.load(run_dir / "vocab.txt")
    label_map = load_label_map(run_dir / "labels.json")
    explainer = ExplainerModel.load(run_dir / "explainer.npz")
    predictor = PredictorModel.load(run_dir / "predictor.npz")
    for name, model, head in (("explainer", explainer, cfg.head), ("predictor", predictor, "none")):
        # a checkpoint written before the vocabulary digest was recorded has none to compare
        digest = model.cfg.vocab_digest
        if digest and digest != vocab.digest():
            raise PipelineError(
                f"run directory {run_dir}: vocab.txt is not the vocabulary {name}.npz was "
                "trained on"
            )
        expected = cfg.model_config(len(vocab), len(label_map), model.cfg.span_len, digest)
        if model.cfg != replace(expected, head=head) or vocab.wildcard != cfg.wildcard:
            raise PipelineError(
                f"run directory {run_dir}: {name}.npz, train_config.txt, vocab.txt and "
                "labels.json disagree"
            )
    return PipelineState(
        explainer=explainer,
        predictor=predictor,
        stage1=TrainHistory(),
        stage2=TrainHistory(),
        cfg=cfg,
        vocab=vocab,
        label_map=label_map,
    )
