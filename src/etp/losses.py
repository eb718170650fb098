"""Training objectives: task cross-entropy, weighted token explanation
loss, the lambda-combined objective, and the span start/end losses.

All functions build autodiff graphs when handed tensors, so every loss
here is differentiable end to end. Log arguments are clamped from below
at ``CLAMP`` (1e-12): the clamp only activates on exact-zero
probabilities, where it trades an infinite loss for a finite one with a
zero local gradient, and leaves every other gradient untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "CLAMP",
    "LossBreakdown",
    "task_loss",
    "weighted_token_bce",
    "token_explanation_loss",
    "combined_loss",
    "span_start_loss",
    "span_end_loss",
    "span_total_loss",
]

CLAMP = 1e-12

WEIGHTING_MODES = ("inverse_prior", "literal_count", "none")

def _flat(p: Tensor) -> Tensor:
    return p if p.data.ndim == 1 else ad.reshape(p, (-1,))


def task_loss(probs: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the gold class.

    ``probs`` is a (B, k) matrix of class distributions; ``labels`` are
    integer class indices.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if probs.data.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ad.DimensionError(
            f"task_loss: probs {probs.shape} and labels {labels.shape} do not conform"
        )
    picked = ad.pick(probs, np.arange(len(labels)), labels)
    return ad.neg(ad.tmean(ad.log(ad.clip_min(picked, CLAMP))))


def _bce_weights(targets: np.ndarray, weighting: str) -> np.ndarray:
    """Per-token weights for the explanation loss.

    ``inverse_prior`` up-weights each token by the inverse in-passage
    frequency of its own class (n / n_class), so the rare rationale
    class dominates; it falls back to uniform weights when the passage
    is single-class. ``literal_count`` uses the raw same-class count
    n_class instead, and ``none`` disables weighting.
    """
    if weighting not in WEIGHTING_MODES:
        raise ValueError(f"unknown weighting mode {weighting!r}; expected one of {WEIGHTING_MODES}")
    n = targets.size
    n_pos = int(targets.sum())
    n_neg = n - n_pos
    if weighting == "none":
        return np.ones(n)
    class_count = np.where(targets > 0.5, n_pos, n_neg).astype(np.float64)
    if weighting == "literal_count":
        return class_count
    if n_pos == 0 or n_neg == 0:
        return np.ones(n)
    return n / class_count


def _weighted_bce_graph(p: Tensor, coef_pos: np.ndarray, coef_neg: np.ndarray) -> Tensor:
    """-(sum coef_pos*ln p + sum coef_neg*ln(1-p)) with clamped logs."""
    pos = ad.tsum(ad.mul(coef_pos, ad.log(ad.clip_min(p, CLAMP))))
    neg_ = ad.tsum(ad.mul(coef_neg, ad.log(ad.clip_min(ad.sub(1.0, p), CLAMP))))
    return ad.neg(ad.add(pos, neg_))


def weighted_token_bce(p: Tensor, targets, weighting: str = "inverse_prior") -> Tensor:
    """Length-normalized, class-weighted binary cross-entropy.

    (1/n) * sum_i w_i * BCE(p_i, t_i) over one passage's unpadded
    tokens, with weights from :func:`_bce_weights`.
    """
    p = _flat(p)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != p.shape:
        raise ad.DimensionError(
            f"weighted_token_bce: scores {p.shape} vs targets {targets.shape}"
        )
    if targets.size == 0:
        raise ad.DimensionError("weighted_token_bce: empty passage")
    w = _bce_weights(targets, weighting) / targets.size
    return _weighted_bce_graph(p, w * targets, w * (1.0 - targets))


def token_explanation_loss(
    scores: Tensor,
    index_lists: list[np.ndarray],
    target_lists: list[np.ndarray],
    weighting: str = "inverse_prior",
) -> Tensor:
    """Batch mean of per-passage :func:`weighted_token_bce`.

    ``scores`` holds token probabilities for a whole batch in one
    column; ``index_lists[i]`` selects passage i's rows and
    ``target_lists[i]`` gives its gold labels. Fusing the passages into
    a single gather keeps the graph small; the result equals averaging
    the per-passage losses directly.
    """
    if len(index_lists) != len(target_lists) or not index_lists:
        raise ad.DimensionError("token_explanation_loss: empty or mismatched batch")
    n_inst = len(index_lists)
    all_idx = np.concatenate(index_lists)
    coef_pos = []
    coef_neg = []
    for idx, t in zip(index_lists, target_lists):
        t = np.asarray(t, dtype=np.float64)
        if len(idx) != t.size or t.size == 0:
            raise ad.DimensionError("token_explanation_loss: bad per-passage targets")
        w = _bce_weights(t, weighting) / (t.size * n_inst)
        coef_pos.append(w * t)
        coef_neg.append(w * (1.0 - t))
    gathered = _flat(ad.take_rows(scores, all_idx))
    return _weighted_bce_graph(gathered, np.concatenate(coef_pos), np.concatenate(coef_neg))


@dataclass
class LossBreakdown:
    """Task, explanation, and combined losses for one step or epoch."""

    task_loss: Tensor
    exp_loss: Tensor
    total: Tensor

    def values(self) -> tuple[float, float, float]:
        return self.task_loss.item(), self.exp_loss.item(), self.total.item()


def combined_loss(task: Tensor, exp: Tensor, lam: float) -> LossBreakdown:
    """total = task + lam * exp, computed in exactly that f64 order."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    total = ad.add(task, ad.mul(exp, float(lam)))
    return LossBreakdown(task_loss=task, exp_loss=exp, total=total)


def span_start_loss(p_start: Tensor, targets) -> Tensor:
    """Unnormalized sum of per-token BCE against start indicators."""
    p = _flat(p_start)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != p.shape:
        raise ad.DimensionError(f"span_start_loss: scores {p.shape} vs targets {targets.shape}")
    return _weighted_bce_graph(p, targets, 1.0 - targets)


def span_end_loss(p_end: Tensor, doc_spans) -> Tensor:
    """Sum over every document's gold spans of -ln p(end | start).

    ``p_end`` stacks one (L, L) row-stochastic end matrix per document,
    document b in rows b*L ... b*L+L-1; ``doc_spans[b]`` are document
    b's half-open (start, end) intervals, read at row b*L + start,
    column end - 1.
    """
    length = p_end.shape[1]
    if p_end.shape[0] != len(doc_spans) * length:
        raise ad.DimensionError(f"span_end_loss: {p_end.shape} for {len(doc_spans)} documents")
    rows, ends = [], []
    for b, spans in enumerate(doc_spans):
        for s, e in spans:
            if not 0 <= s < e <= length:
                raise ValueError(f"span ({s}, {e}) out of range for length {length}")
            rows.append(b * length + s)
            ends.append(e - 1)
    if not rows:
        return Tensor(0.0)
    picked = ad.pick(p_end, np.array(rows), np.array(ends))
    return ad.neg(ad.tsum(ad.log(ad.clip_min(picked, CLAMP))))


def span_total_loss(start: Tensor, end: Tensor) -> Tensor:
    return ad.add(start, end)
