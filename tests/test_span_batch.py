"""The batched span head and span loss against the per-instance
reference in ``reference.py``, on random ragged, padded batches."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etp import losses
from etp.autodiff import Tape
from etp.data import batchify
from etp.models import ExplainerModel, ModelConfig
from etp.pipeline import _exp_loss

import reference as ref
from conftest import tiny_dataset, tiny_train_config


@st.composite
def ragged_span_batches(draw):
    """A span-head batch: B instances, each a document of ``n`` sub-tokens
    starting at ``doc_start`` inside a row padded past its end, with up
    to two gold spans."""
    span_len = draw(st.integers(2, 7))
    B = draw(st.integers(1, 5))
    sublen = [draw(st.integers(1, span_len)) for _ in range(B)]
    start = [draw(st.integers(0, 3)) for _ in range(B)]
    spans = []
    for n in sublen:
        doc = []
        for _ in range(draw(st.integers(0, 2))):
            s = draw(st.integers(0, n - 1))
            doc.append((s, draw(st.integers(s + 1, n))))
        spans.append(doc)
    extra_pad = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**16))
    return span_len, np.array(start), np.array(sublen), spans, extra_pad, seed


def _model(span_len, seed):
    cfg = ModelConfig(
        vocab_size=9, num_classes=2, embed_dim=3, enc_hidden=2, enc_layers=1, task_hidden=4,
        span_hidden=2, span_len=span_len, dropout=0.0, head="span",
    )
    return ExplainerModel(cfg, seed=seed)


def _grads(model, build):
    for p in model.parameters().values():
        p.zero_grad()
    with Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss.item(), {k: p.grad.copy() for k, p in model.parameters().items()}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(ragged_span_batches())
def test_batched_span_head_matches_per_instance_reference(case):
    span_len, doc_start, doc_sublen, spans, extra_pad, seed = case
    B = len(doc_sublen)
    model = _model(span_len, seed)
    rng = np.random.default_rng(seed)
    ends = doc_start + doc_sublen
    T = int(ends.max()) + extra_pad
    pad = (np.arange(T)[None, :] < ends[:, None]).astype(np.float64)
    ids = np.where(pad > 0, rng.integers(4, 9, (B, T)), 0)
    layouts = [
        SimpleNamespace(instance=SimpleNamespace(rationale_spans=s),
                        word_groups=[(i, i + 1) for i in range(n)])
        for s, n in zip(spans, doc_sublen)
    ]
    batch = SimpleNamespace(size=B, doc_start=doc_start, doc_sublen=doc_sublen, layouts=layouts)
    cfg = tiny_train_config(head="span")

    enc = model.encode(ids, pad)
    sf = model.explain_spans(enc, doc_start, doc_sublen)
    p_start, p_end = ref.ref_explain_spans(model, enc, doc_start, doc_sublen)
    np.testing.assert_array_equal(sf.p_start.data, p_start.data)
    assert sf.p_end.shape == (B * span_len, span_len)
    below = np.tril_indices(span_len, k=-1)
    for b in range(B):
        block = sf.end_numpy(b)
        np.testing.assert_allclose(block, p_end[b].data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (block[below] == 0.0).all()

    def reference_loss():
        enc = model.encode(ids, pad)
        p_start, p_end = ref.ref_explain_spans(model, enc, doc_start, doc_sublen)
        return ref.ref_span_loss(p_start, p_end, doc_sublen, spans)

    got_loss, got = _grads(model, lambda: _exp_loss(model, model.encode(ids, pad), batch, cfg))
    want_loss, want = _grads(model, reference_loss)
    assert abs(got_loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12, err_msg=name)


def _span_step_nodes(model, batch, cfg):
    with Tape() as tape:
        enc = model.encode(batch.ids, batch.pad_mask)
        probs = model.predict_task(enc, train=True, dropout_rng=np.random.default_rng(0))
        l_task = losses.task_loss(probs, batch.labels)
        total = losses.combined_loss(l_task, _exp_loss(model, enc, batch, cfg), cfg.lam).total
        tape.backward(total)
    return len(tape.nodes)


def test_span_training_graph_does_not_grow_with_batch_size():
    dataset = tiny_dataset(n=24)
    train = dataset.splits["train"]
    cfg = tiny_train_config(head="span", batch_size=16)
    small, large = (batchify(train[:size], size, dataset.vocab)[0] for size in (2, 16))
    span_len = int(large.doc_sublen.max())
    model = ExplainerModel(cfg.model_config(len(dataset.vocab), 2, span_len), seed=0)
    assert _span_step_nodes(model, small, cfg) == _span_step_nodes(model, large, cfg)
