"""Evaluation battery: task metrics, hard- and soft-rationale agreement
metrics, faithfulness metrics, and explanation statistics.

Spans are half-open (start, end) intervals over document tokens and are
kept sorted and pairwise disjoint. Division-by-zero corners follow one
convention throughout: 0/0 counts as 0 (an empty prediction never earns
credit), which is also what the independent reference implementations
in the test suite assume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "normalize_spans",
    "spans_to_mask",
    "mask_to_spans",
    "macro_f1",
    "token_prf",
    "token_prf_dataset",
    "iou_f1",
    "iou_f1_dataset",
    "auprc",
    "auprc_dataset",
    "comprehensiveness",
    "sufficiency",
    "ExplanationStats",
    "explanation_statistics",
    "lambda_criterion",
    "MetricsReport",
]

Span = tuple[int, int]


# ---------------------------------------------------------------------------
# span/mask plumbing


def normalize_spans(spans: Sequence[Span]) -> list[Span]:
    """Sort spans and merge overlapping or adjacent ones."""
    cleaned = []
    for s, e in spans:
        if s >= e:
            raise ValueError(f"empty or inverted span ({s}, {e})")
        cleaned.append((int(s), int(e)))
    cleaned.sort()
    merged: list[Span] = []
    for s, e in cleaned:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def spans_to_mask(spans: Sequence[Span], length: int) -> np.ndarray:
    mask = np.zeros(length, dtype=np.int8)
    for s, e in spans:
        if not 0 <= s < e <= length:
            raise ValueError(f"span ({s}, {e}) out of range for length {length}")
        mask[s:e] = 1
    return mask


def mask_to_spans(mask) -> list[Span]:
    mask = np.asarray(mask)
    spans = []
    start = None
    for i, v in enumerate(mask):
        if v and start is None:
            start = i
        elif not v and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(mask)))
    return spans


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


# ---------------------------------------------------------------------------
# task metric


def macro_f1(pred, gold, num_classes: int) -> float:
    """Unweighted mean of per-class F1.

    A class absent from both predictions and gold contributes F1 = 0,
    so never predicting a class is penalized.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if pred.size == 0 or pred.shape != gold.shape:
        raise ValueError(f"macro_f1: bad label arrays {pred.shape} vs {gold.shape}")
    if pred.min() < 0 or gold.min() < 0 or pred.max() >= num_classes or gold.max() >= num_classes:
        raise ValueError(f"macro_f1: labels outside [0, {num_classes})")
    total = 0.0
    for c in range(num_classes):
        tp = int(((pred == c) & (gold == c)).sum())
        p = _safe_div(tp, int((pred == c).sum()))
        r = _safe_div(tp, int((gold == c).sum()))
        total += _f1(p, r)
    return total / num_classes


# ---------------------------------------------------------------------------
# hard-rationale metrics


def token_prf(pred_mask, gold_mask) -> tuple[float, float, float]:
    """Precision/recall/F1 of predicted rationale tokens vs gold."""
    pred = np.asarray(pred_mask).astype(bool)
    gold = np.asarray(gold_mask).astype(bool)
    if pred.shape != gold.shape:
        raise ValueError(f"token_prf: mask shapes differ {pred.shape} vs {gold.shape}")
    inter = int((pred & gold).sum())
    p = _safe_div(inter, int(pred.sum()))
    r = _safe_div(inter, int(gold.sum()))
    return p, r, _f1(p, r)


def token_prf_dataset(pred_masks, gold_masks) -> dict[str, float]:
    """Macro (per instance, then averaged) and micro (corpus counts) P/R/F1."""
    if not pred_masks or len(pred_masks) != len(gold_masks):
        raise ValueError("token_prf_dataset: empty or mismatched inputs")
    ps, rs, fs = [], [], []
    inter = npred = ngold = 0
    for pm, gm in zip(pred_masks, gold_masks):
        p, r, f = token_prf(pm, gm)
        ps.append(p)
        rs.append(r)
        fs.append(f)
        pm = np.asarray(pm).astype(bool)
        gm = np.asarray(gm).astype(bool)
        inter += int((pm & gm).sum())
        npred += int(pm.sum())
        ngold += int(gm.sum())
    micro_p = _safe_div(inter, npred)
    micro_r = _safe_div(inter, ngold)
    return {
        "precision": float(np.mean(ps)),
        "recall": float(np.mean(rs)),
        "f1": float(np.mean(fs)),
        "micro_precision": micro_p,
        "micro_recall": micro_r,
        "micro_f1": _f1(micro_p, micro_r),
    }


def _iou(a: Span, b: Span) -> float:
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return _safe_div(inter, union)


def iou_f1(pred_spans, gold_spans, threshold: float = 0.5) -> float:
    """Span-level F1 under greedy one-to-one IOU matching.

    Candidate pairs are taken in descending IOU order (ties broken by
    span order, for determinism); each span can match at most once, and
    a matched pair counts as a true positive only if its IOU reaches the
    threshold.
    """
    pred = normalize_spans(pred_spans)
    gold = normalize_spans(gold_spans)
    pairs = sorted(
        ((-_iou(p, g), i, j) for i, p in enumerate(pred) for j, g in enumerate(gold)),
    )
    used_p: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for neg_iou, i, j in pairs:
        if i in used_p or j in used_g or neg_iou == 0.0:
            continue
        used_p.add(i)
        used_g.add(j)
        if -neg_iou >= threshold:
            tp += 1
    p = _safe_div(tp, len(pred))
    r = _safe_div(tp, len(gold))
    return _f1(p, r)


def iou_f1_dataset(pred_span_lists, gold_span_lists, threshold: float = 0.5) -> float:
    if not pred_span_lists or len(pred_span_lists) != len(gold_span_lists):
        raise ValueError("iou_f1_dataset: empty or mismatched inputs")
    return float(
        np.mean([iou_f1(p, g, threshold) for p, g in zip(pred_span_lists, gold_span_lists)])
    )


# ---------------------------------------------------------------------------
# soft-rationale metrics


def auprc(scores, gold_mask) -> float:
    """Average precision of token scores against the gold rationale.

    Tokens are ranked by descending score with ties kept in index order
    (stable sort); AP accumulates the precision at each rank where a
    gold token is retrieved, divided by the number of gold tokens. The
    value depends only on the ranking, so any strictly monotone
    transform of the scores leaves it unchanged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold_mask).astype(np.float64)
    if scores.shape != gold.shape or scores.ndim != 1:
        raise ValueError(f"auprc: bad inputs {scores.shape} vs {gold.shape}")
    n_pos = gold.sum()
    if n_pos == 0:
        raise ValueError("auprc: gold rationale has no positive token")
    order = np.argsort(-scores, kind="stable")
    hits = gold[order]
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float((precision * hits).sum() / n_pos)


def auprc_dataset(score_lists, gold_masks) -> float:
    """Macro-average AP; instances without a positive gold token are skipped."""
    if not score_lists or len(score_lists) != len(gold_masks):
        raise ValueError("auprc_dataset: empty or mismatched inputs")
    values = [
        auprc(s, g) for s, g in zip(score_lists, gold_masks) if np.asarray(g).astype(bool).any()
    ]
    return float(np.mean(values)) if values else 0.0


# ---------------------------------------------------------------------------
# faithfulness metrics

# Both metrics drive the predictor through a keep-mask closure:
# predict_proba(keep) must return the class distribution for the
# instance with exactly the keep-flagged document tokens visible (the
# rest replaced by the wildcard), and predict_proba(None) the
# distribution on the untouched input. Currying the predictor and
# instance this way keeps the metric independent of tokenization and
# masking details.


def comprehensiveness(predict_proba: Callable, rationale_mask) -> float:
    """Drop in predicted-class probability when the rationale is removed."""
    rationale = np.asarray(rationale_mask)
    full = np.asarray(predict_proba(None), dtype=np.float64)
    cls = int(np.argmax(full))
    stripped = np.asarray(predict_proba(1 - rationale), dtype=np.float64)
    return float(full[cls] - stripped[cls])


def sufficiency(predict_proba: Callable, rationale_mask) -> float:
    """Drop in predicted-class probability when only the rationale remains."""
    rationale = np.asarray(rationale_mask)
    full = np.asarray(predict_proba(None), dtype=np.float64)
    cls = int(np.argmax(full))
    only = np.asarray(predict_proba(rationale), dtype=np.float64)
    return float(full[cls] - only[cls])


# ---------------------------------------------------------------------------
# explanation statistics


@dataclass
class ExplanationStats:
    """Shape and agreement statistics of machine vs gold rationales."""

    machine_avg_span_length: float
    gold_avg_span_length: float
    rationale_precision: float
    rationale_recall: float
    jaccard: float
    one_way_jaccard: float


def _macro_avg_span_length(span_lists) -> float:
    per_instance = [
        float(np.mean([e - s for s, e in spans])) for spans in span_lists if spans
    ]
    return float(np.mean(per_instance)) if per_instance else 0.0


def explanation_statistics(pred_span_lists, gold_span_lists) -> ExplanationStats:
    """Span-length and token-overlap statistics.

    Span lengths are averaged within each instance first, then across
    instances (instances with no spans are skipped). Precision/recall of
    machine tokens against gold are corpus-level counts; Jaccard and
    one-way Jaccard (|intersection| / |machine|) are computed per
    instance and macro-averaged.
    """
    if len(pred_span_lists) != len(gold_span_lists) or not pred_span_lists:
        raise ValueError("explanation_statistics: empty or mismatched inputs")
    inter_total = pred_total = gold_total = 0
    jaccards, one_ways = [], []
    for pred, gold in zip(pred_span_lists, gold_span_lists):
        pred_tokens = {t for s, e in normalize_spans(pred) for t in range(s, e)}
        gold_tokens = {t for s, e in normalize_spans(gold) for t in range(s, e)}
        inter = len(pred_tokens & gold_tokens)
        union = len(pred_tokens | gold_tokens)
        inter_total += inter
        pred_total += len(pred_tokens)
        gold_total += len(gold_tokens)
        jaccards.append(_safe_div(inter, union))
        one_ways.append(_safe_div(inter, len(pred_tokens)))
    return ExplanationStats(
        machine_avg_span_length=_macro_avg_span_length(pred_span_lists),
        gold_avg_span_length=_macro_avg_span_length(gold_span_lists),
        rationale_precision=_safe_div(inter_total, pred_total),
        rationale_recall=_safe_div(inter_total, gold_total),
        jaccard=float(np.mean(jaccards)),
        one_way_jaccard=float(np.mean(one_ways)),
    )


def lambda_criterion(task_metric: float, exp_metric: float) -> float:
    """Equal-weight combination used to select the loss trade-off weight."""
    for v in (task_metric, exp_metric):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"criterion inputs must lie in [0, 1], got {v}")
    return task_metric + exp_metric


# ---------------------------------------------------------------------------
# report container


@dataclass
class MetricsReport:
    """Flat bundle of every metric the evaluation battery produces."""

    macro_f1: float
    token_precision: float
    token_recall: float
    token_f1: float
    token_f1_micro: float
    iou_f1: float
    auprc: float
    comprehensiveness: float | None
    sufficiency: float | None
    statistics: ExplanationStats
    n_instances: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        flat: dict[str, object] = {}
        for key, value in self.to_dict().items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    flat[f"statistics.{k2}"] = v2
            else:
                flat[key] = value
        lines = []
        for key in sorted(flat):
            value = flat[key]
            lines.append(f"{key} = {'' if value is None else value}")
        return "\n".join(lines) + "\n"
