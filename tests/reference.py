"""Independent brute-force reference implementations.

Deliberately naive: explicit loops, token sets instead of interval
arithmetic, rankings built by repeated selection, and one forward pass
per document. These exist only to cross-check the production
implementations; the metric references share no code with them.
"""

from dataclasses import replace

import numpy as np

import etp.autodiff as ad
from etp import losses, rnn
from etp.autodiff import Tensor
from etp.data import batchify
from etp.models import mask_input


def ref_macro_f1(pred, gold, num_classes):
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gold) if p != c and g == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += f1
    return total / num_classes


def ref_token_prf(pred_mask, gold_mask):
    pred = {i for i, v in enumerate(pred_mask) if v}
    gold = {i for i, v in enumerate(gold_mask) if v}
    inter = len(pred & gold)
    p = inter / len(pred) if pred else 0.0
    r = inter / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _ref_merge(spans):
    tokens = set()
    for s, e in spans:
        tokens.update(range(s, e))
    merged = []
    for t in sorted(tokens):
        if merged and merged[-1][1] == t:
            merged[-1][1] = t + 1
        else:
            merged.append([t, t + 1])
    return [tuple(m) for m in merged]


def ref_iou_f1(pred_spans, gold_spans, threshold=0.5):
    pred = _ref_merge(pred_spans)
    gold = _ref_merge(gold_spans)
    pairs = []
    for i, p in enumerate(pred):
        for j, g in enumerate(gold):
            ptok = set(range(p[0], p[1]))
            gtok = set(range(g[0], g[1]))
            union = len(ptok | gtok)
            iou = len(ptok & gtok) / union if union else 0.0
            pairs.append((iou, i, j))
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    used_p, used_g = set(), set()
    tp = 0
    for iou, i, j in pairs:
        if iou == 0.0 or i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        if iou >= threshold:
            tp += 1
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def ref_auprc(scores, gold):
    # build the ranking by repeated selection: highest score first,
    # earliest index first among ties
    remaining = list(range(len(scores)))
    ranking = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        ranking.append(best)
        remaining.remove(best)
    n_pos = sum(1 for g in gold if g)
    hits = 0
    ap = 0.0
    for rank, idx in enumerate(ranking, start=1):
        if gold[idx]:
            hits += 1
            ap += hits / rank
    return ap / n_pos


def ref_jaccard(pred_tokens, gold_tokens):
    pred, gold = set(pred_tokens), set(gold_tokens)
    union = pred | gold
    j = len(pred & gold) / len(union) if union else 0.0
    one_way = len(pred & gold) / len(pred) if pred else 0.0
    return j, one_way


def random_span_set(rng, length, max_spans=3):
    spans = []
    for _ in range(int(rng.integers(0, max_spans + 1))):
        s = int(rng.integers(0, length))
        e = int(rng.integers(s + 1, min(length, s + 6) + 1))
        spans.append((s, e))
    return spans


def ref_decode_spans(p_start, p_end, threshold, length):
    """Literal restatement of the interval decoding rule."""
    tokens = set()
    for i in range(length):
        if p_start[i] >= threshold:
            best_j, best_v = i, p_end[i][i]
            for j in range(i, length):
                if p_end[i][j] > best_v:
                    best_j, best_v = j, p_end[i][j]
            tokens.update(range(i, best_j + 1))
    return _ref_merge([(t, t + 1) for t in sorted(tokens)])


def start_attention(m1, p_start):
    """Reference form of the span head's start-weighted mixing step.

    Each row of ``m1`` is gated elementwise by the start-probability-
    weighted sum of all rows; a one-hot ``p_start`` at j reduces row i
    to m1[i] * m1[j].
    """
    m1 = np.asarray(m1, dtype=np.float64)
    p = np.asarray(p_start, dtype=np.float64).reshape(-1, 1)
    return m1 * (p * m1).sum(axis=0, keepdims=True)


def ref_explain_spans(model, enc, doc_start, doc_sublen):
    """The span head built one instance at a time.

    Same parameters and encoder output as ``ExplainerModel.explain_spans``,
    but the start attention sums each instance's rows through a dense
    (B, L*B) selector matrix, and each instance's end matrix comes from
    its own row gather, matmul and row softmax. Returns the flat start
    probabilities and a list of B (L, L) end-matrix tensors.
    """
    cfg, head = model.cfg, model.params["exp"]
    L, d = cfg.span_len, cfg.span_hidden
    B, T = enc.batch, enc.seq_len
    valid = np.zeros((L, B))
    gather = np.full((L, B), T * B)
    for b in range(B):
        for t in range(int(doc_sublen[b])):
            valid[t, b] = 1.0
            gather[t, b] = (int(doc_start[b]) + t) * B + b
    aug = ad.concat([enc.token_reps, Tensor(np.zeros((1, cfg.d_rep)))], axis=0)
    passage = ad.take_rows(aug, gather.reshape(-1))
    m1 = rnn.bigru(passage, L, B, head["rnn1"], d, step_mask=valid)
    w1 = ad.take_rows(head["start_w"], np.repeat(np.arange(L), B))
    p_start = ad.sigmoid(ad.tsum(ad.mul(m1, w1), axis=1))

    weighted = ad.mul(m1, ad.reshape(p_start, (L * B, 1)))
    weighted = ad.mul(weighted, valid.reshape(-1, 1))
    selector = np.zeros((B, L * B))
    for b in range(B):
        selector[b, np.arange(L) * B + b] = 1.0
    attn = ad.matmul(Tensor(selector), weighted)
    m1_tilde = ad.mul(m1, ad.take_rows(attn, np.tile(np.arange(B), L)))

    m2_in = ad.concat([passage, m1, m1_tilde, ad.mul(m1, m1_tilde)], axis=1)
    m2 = rnn.bigru(m2_in, L, B, head["rnn2"], d, step_mask=valid)
    readout = ad.concat([passage, m2], axis=1)
    tri = np.where(np.triu(np.ones((L, L))) > 0, 0.0, -np.inf)
    p_end = []
    for b in range(B):
        c_b = ad.take_rows(readout, np.arange(L) * B + b)
        logits = ad.matmul(head["end_w"], ad.transpose(c_b))
        p_end.append(ad.softmax(logits, mask=tri, axis=-1))
    return p_start, p_end


def ref_span_loss(p_start, p_end, doc_sublen, doc_spans):
    """Batch mean of the per-instance span loss: BCE over instance b's
    real start slots plus -ln p(end | start) over its gold sub-token
    spans, summed one instance at a time."""
    B = len(p_end)
    total = Tensor(0.0)
    for b in range(B):
        n = int(doc_sublen[b])
        targets = np.zeros(n)
        for s, _ in doc_spans[b]:
            targets[s] = 1.0
        start = losses.span_start_loss(ad.take_rows(p_start, np.arange(n) * B + b), targets)
        end = Tensor(0.0)
        if doc_spans[b]:
            starts = np.array([s for s, _ in doc_spans[b]])
            ends = np.array([e - 1 for _, e in doc_spans[b]])
            picked = ad.pick(p_end[b], starts, ends)
            end = ad.neg(ad.tsum(ad.log(ad.clip_min(picked, losses.CLAMP))))
        total = ad.add(total, ad.add(start, end))
    return ad.mul(total, 1.0 / B)


def ref_sigmoid(x):
    """The logistic function in its branch-on-sign form."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_gru_run(xp, u_zr, u_c, seq_len, batch, step_mask, reverse, g):
    """A GRU time loop and its backward replay on plain arrays.

    Same recurrence as ``rnn.gru_run``, written as the arithmetic blend
    (1-z)*h + z*c, a masked step mixing new and old state as
    m*h_new + (1-m)*h, and the recurrent weights' gradients summed as
    two small GEMMs per step. Returns the (T*B, H) output and the
    gradients of sum(out * g) with respect to ``xp``, ``u_zr`` and ``u_c``.
    """
    hidden = u_c.shape[0]
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    h = np.zeros((batch, hidden))
    out = np.empty((seq_len * batch, hidden))
    saved = {}
    for t in order:
        rows = slice(t * batch, (t + 1) * batch)
        xs = xp[rows]
        zr = ref_sigmoid(xs[:, : 2 * hidden] + h @ u_zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        rh = r * h
        c = np.tanh(xs[:, 2 * hidden :] + rh @ u_c)
        h_new = (1.0 - z) * h + z * c
        m = np.ones((batch, 1)) if step_mask is None else step_mask[t][:, None]
        saved[t] = (z, r, c, rh, h, m)
        h = m * h_new + (1.0 - m) * h
        out[rows] = h

    dxs = np.empty_like(xp)
    du_zr = np.zeros_like(u_zr)
    du_c = np.zeros_like(u_c)
    dh_carry = np.zeros((batch, hidden))
    for t in reversed(order):
        rows = slice(t * batch, (t + 1) * batch)
        z, r, c, rh, h, m = saved[t]
        g_t = g[rows] + dh_carry
        g_step = g_t * m
        gc = g_step * z * (1.0 - c * c)
        d_rh = gc @ u_c.T
        gr = d_rh * h * r * (1.0 - r)
        gz = g_step * (c - h) * z * (1.0 - z)
        dhu = np.concatenate([gz, gr], axis=1)
        dh = g_step * (1.0 - z) + d_rh * r + dhu @ u_zr.T
        dxs[rows] = np.concatenate([dhu, gc], axis=1)
        du_zr += h.T @ dhu
        du_c += rh.T @ gc
        dh_carry = dh + g_t * (1.0 - m)
    return out, dxs, du_zr, du_c


def keep_mask_closure(state, instance):
    """predict_proba(keep) closure for the per-instance metric functions:
    one predictor pass over ``instance`` with the words outside ``keep``
    wildcarded (``keep=None`` keeps every word)."""
    cfg, vocab = state.cfg, state.vocab

    def predict_proba(keep):
        doc = (
            instance.document
            if keep is None
            else mask_input(instance.document, keep, cfg.wildcard)
        )
        batch = batchify(
            [replace(instance, document=doc)], 1, vocab, cfg.max_len, cfg.subtoken_mode
        )[0]
        enc = state.predictor.encode(batch.ids, batch.pad_mask)
        return state.predictor.predict_task(enc).data[0]

    return predict_proba
