"""Model tests: encoder semantics, both heads, masking, decoding, and
checkpoints."""

import numpy as np
import pytest

import etp.autodiff as ad
from etp.autodiff import Tape, Tensor
from etp.data import Instance, Vocabulary, batchify
from etp.losses import combined_loss, task_loss, token_explanation_loss
from etp.models import (
    ExplainerModel,
    ModelConfig,
    PredictorModel,
    decode_spans,
    load_checkpoint,
    load_model,
    mask_input,
    pool_subtokens,
    save_checkpoint,
    subtoken_spans_to_words,
    word_spans_to_subtokens,
)
from etp.optim import Adam

import reference as ref
from helpers import fd_check, param_group, state_as


def tiny_config(**kw) -> ModelConfig:
    base = dict(
        vocab_size=12,
        num_classes=2,
        embed_dim=5,
        enc_hidden=4,
        enc_layers=2,
        task_hidden=6,
        token_gru_hidden=5,
        span_hidden=3,
        span_len=6,
        dropout=0.0,
        head="token",
    )
    base.update(kw)
    return ModelConfig(**base)


def simple_batch(rng, bsz=3, seq=6, vocab=12):
    ids = rng.integers(4, vocab, (bsz, seq))
    pad_mask = np.ones((bsz, seq))
    pad_mask[0, 4:] = 0  # first row shorter
    ids[0, 4:] = 0
    return ids, pad_mask


def _zero_encoder_rnns(model):
    for layer in range(model.cfg.enc_layers):
        for direction in model.params["enc"][f"layer{layer}"].values():
            for t in direction.values():
                t.data[...] = 0.0


class TestEncoder:
    def test_zero_recurrent_weights_give_zero_representations(self):
        model = ExplainerModel(tiny_config(), seed=0)
        _zero_encoder_rnns(model)
        rng = np.random.default_rng(0)
        ids, pad = simple_batch(rng)
        enc = model.encode(ids, pad)
        np.testing.assert_array_equal(enc.token_reps.data, 0.0)
        np.testing.assert_array_equal(enc.pooled.data, 0.0)

    def test_single_token_shapes(self):
        model = ExplainerModel(tiny_config(), seed=1)
        enc = model.encode(np.array([[5]]), np.ones((1, 1)))
        assert enc.token_reps.shape == (1, model.cfg.d_rep)
        assert enc.pooled.shape == (1, model.cfg.d_rep)

    def test_pad_content_cannot_leak(self):
        model = ExplainerModel(tiny_config(), seed=2)
        ids = np.array([[4, 5, 6, 0, 0, 0]])
        pad = np.array([[1.0, 1, 1, 0, 0, 0]])
        enc_a = model.encode(ids, pad)
        junk = ids.copy()
        junk[0, 3:] = [7, 9, 11]
        enc_b = model.encode(junk, pad)
        np.testing.assert_array_equal(enc_a.pooled.data, enc_b.pooled.data)
        # real token rows identical too
        rows = [t * 1 + 0 for t in range(3)]
        np.testing.assert_array_equal(enc_a.token_reps.data[rows], enc_b.token_reps.data[rows])

    def test_out_of_vocabulary_id_rejected(self):
        model = ExplainerModel(tiny_config(), seed=3)
        with pytest.raises(IndexError, match="vocabulary"):
            model.encode(np.array([[99]]), np.ones((1, 1)))

    def test_pooled_is_mean_of_real_positions(self):
        model = ExplainerModel(tiny_config(), seed=4)
        rng = np.random.default_rng(4)
        ids, pad = simple_batch(rng)
        enc = model.encode(ids, pad)
        B = ids.shape[0]
        for b in range(B):
            rows = [t * B + b for t in range(ids.shape[1]) if pad[b, t]]
            np.testing.assert_allclose(
                enc.pooled.data[b], enc.token_reps.data[rows].mean(axis=0), atol=1e-12
            )


class TestTaskHead:
    def test_zero_final_layer_uniform(self):
        model = ExplainerModel(tiny_config(num_classes=3), seed=5)
        model.params["task"]["w2"].data[...] = 0.0
        model.params["task"]["b2"].data[...] = 0.0
        rng = np.random.default_rng(5)
        ids, pad = simple_batch(rng)
        probs = model.predict_task(model.encode(ids, pad))
        np.testing.assert_allclose(probs.data, 1.0 / 3.0, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        model = ExplainerModel(tiny_config(num_classes=4), seed=6)
        rng = np.random.default_rng(6)
        ids, pad = simple_batch(rng)
        probs = model.predict_task(model.encode(ids, pad))
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_swapping_output_columns_swaps_probabilities(self):
        model = ExplainerModel(tiny_config(), seed=7)
        rng = np.random.default_rng(7)
        ids, pad = simple_batch(rng)
        before = model.predict_task(model.encode(ids, pad)).data.copy()
        model.params["task"]["w2"].data[...] = model.params["task"]["w2"].data[:, ::-1]
        model.params["task"]["b2"].data[...] = model.params["task"]["b2"].data[::-1]
        after = model.predict_task(model.encode(ids, pad)).data
        np.testing.assert_allclose(after, before[:, ::-1], atol=1e-12)

    def test_eval_mode_is_deterministic_despite_dropout_config(self):
        model = ExplainerModel(tiny_config(dropout=0.5), seed=8)
        rng = np.random.default_rng(8)
        ids, pad = simple_batch(rng)
        p1 = model.predict_task(model.encode(ids, pad)).data
        p2 = model.predict_task(model.encode(ids, pad)).data
        np.testing.assert_array_equal(p1, p2)

    def test_train_mode_requires_rng(self):
        model = ExplainerModel(tiny_config(dropout=0.5), seed=9)
        rng = np.random.default_rng(9)
        ids, pad = simple_batch(rng)
        with pytest.raises(ad.UsageError):
            model.predict_task(model.encode(ids, pad), train=True)


class TestTokenHead:
    def test_zero_head_weights_give_half_on_documents_zero_elsewhere(self):
        model = ExplainerModel(tiny_config(), seed=10)
        for t in model.params["exp"]["gru"].values():
            t.data[...] = 0.0
        model.params["exp"]["w"].data[...] = 0.0
        model.params["exp"]["b"].data[...] = 0.0
        rng = np.random.default_rng(10)
        ids, pad = simple_batch(rng)
        doc_mask = pad.copy()
        doc_mask[:, 0] = 0  # pretend position 0 is a query everywhere
        scores = model.explain_tokens(model.encode(ids, pad), doc_mask).data
        B, T = ids.shape
        for b in range(B):
            for t in range(T):
                expected = 0.5 if doc_mask[b, t] else 0.0
                assert scores[t * B + b, 0] == expected

    def test_scores_length_matches_input(self):
        model = ExplainerModel(tiny_config(), seed=11)
        rng = np.random.default_rng(11)
        ids, pad = simple_batch(rng)
        scores = model.explain_tokens(model.encode(ids, pad), pad)
        assert scores.shape == (ids.size, 1)

    def test_scores_in_unit_interval(self):
        model = ExplainerModel(tiny_config(), seed=12)
        rng = np.random.default_rng(12)
        ids, pad = simple_batch(rng)
        scores = model.explain_tokens(model.encode(ids, pad), pad).data
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_mean_score_gradient_wrt_embedding(self):
        model = ExplainerModel(
            tiny_config(embed_dim=3, enc_hidden=2, enc_layers=1, token_gru_hidden=2), seed=13
        )
        ids = np.array([[4, 5], [6, 7]])
        pad = np.ones((2, 2))
        emb = model.params["enc"]["embedding"]

        def loss():
            enc = model.encode(ids, pad)
            return ad.tmean(model.explain_tokens(enc, pad))

        fd_check(loss, [emb])


class TestPoolSubtokens:
    def test_singleton_groups_identity(self):
        scores = np.array([0.1, 0.7, 0.3])
        out = pool_subtokens(scores, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_array_equal(out, scores)

    def test_max_within_group(self):
        out = pool_subtokens([0.2, 0.9], [(0, 2)])
        np.testing.assert_array_equal(out, [0.9])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            sizes = rng.integers(1, 4, int(rng.integers(1, 6)))
            edges = np.concatenate([[0], np.cumsum(sizes)])
            groups = [(int(edges[i]), int(edges[i + 1])) for i in range(len(sizes))]
            scores = rng.uniform(0, 1, int(edges[-1]))
            got = pool_subtokens(scores, groups)
            want = [max(scores[s:e]) for s, e in groups]
            np.testing.assert_array_equal(got, want)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            pool_subtokens([0.1, 0.2, 0.3], [(0, 2), (1, 3)])
        with pytest.raises(ValueError, match="cover"):
            pool_subtokens([0.1, 0.2, 0.3], [(0, 2)])


def span_model(seed=0, **kw):
    kw.setdefault("head", "span")
    return ExplainerModel(tiny_config(**kw), seed=seed)


def span_inputs(rng, bsz=2, seq=8):
    ids = rng.integers(4, 12, (bsz, seq))
    pad = np.ones((bsz, seq))
    doc_start = np.array([2, 0])  # first instance has a 2-token prefix
    doc_sublen = np.array([6, 5])
    pad[1, 5:] = 0
    ids[1, 5:] = 0
    return ids, pad, doc_start, doc_sublen


class TestSpanHead:
    def test_zero_start_weights_give_half(self):
        model = span_model(seed=15)
        model.params["exp"]["start_w"].data[...] = 0.0
        rng = np.random.default_rng(15)
        ids, pad, ds, dl = span_inputs(rng)
        sf = model.explain_spans(model.encode(ids, pad), ds, dl)
        np.testing.assert_allclose(sf.p_start.data, 0.5, atol=1e-15)

    def test_equal_end_logits_masked_uniform(self):
        model = span_model(seed=16)
        model.params["exp"]["end_w"].data[...] = 0.0
        rng = np.random.default_rng(16)
        ids, pad, ds, dl = span_inputs(rng)
        sf = model.explain_spans(model.encode(ids, pad), ds, dl)
        L = model.cfg.span_len
        assert sf.p_end.shape == (2 * L, L)
        for b in range(2):
            for i in range(L):
                row = sf.end_numpy(b)[i]
                np.testing.assert_allclose(row[i:], 1.0 / (L - i), atol=1e-12)
                np.testing.assert_array_equal(row[:i], 0.0)

    def test_rows_stochastic_with_exact_zeros_below_diagonal(self):
        model = span_model(seed=17)
        rng = np.random.default_rng(17)
        ids, pad, ds, dl = span_inputs(rng)
        sf = model.explain_spans(model.encode(ids, pad), ds, dl)
        L = model.cfg.span_len
        for b in range(2):
            block = sf.end_numpy(b)
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)
            assert (block[np.tril_indices(L, k=-1)] == 0.0).all()

    def test_start_probabilities_in_unit_interval(self):
        model = span_model(seed=18)
        rng = np.random.default_rng(18)
        ids, pad, ds, dl = span_inputs(rng)
        sf = model.explain_spans(model.encode(ids, pad), ds, dl)
        assert ((sf.p_start.data >= 0) & (sf.p_start.data <= 1)).all()

    def test_one_hot_start_attention_collapse(self):
        rng = np.random.default_rng(19)
        m1 = rng.normal(size=(5, 4))
        for j in range(5):
            p = np.zeros(5)
            p[j] = 1.0
            np.testing.assert_allclose(ref.start_attention(m1, p), m1 * m1[j], atol=1e-15)

    def test_oversized_document_rejected(self):
        model = span_model(seed=20)
        rng = np.random.default_rng(20)
        ids, pad, ds, _ = span_inputs(rng)
        with pytest.raises(ad.DimensionError, match="span head length"):
            model.explain_spans(model.encode(ids, pad), ds, np.array([7, 5]))

    def test_gradients_flow_from_span_losses(self):
        from etp import losses

        model = span_model(seed=21, embed_dim=3, enc_hidden=2, enc_layers=1, span_hidden=2, span_len=4)
        ids = np.array([[4, 5, 6, 7]])
        pad = np.ones((1, 4))
        ds, dl = np.array([0]), np.array([4])
        targets = np.array([1.0, 0, 0, 0])
        spans = [(0, 2)]
        params = list(param_group(model, "exp.").values())

        def loss():
            sf = model.explain_spans(model.encode(ids, pad), ds, dl)
            p_b = ad.take_rows(sf.p_start, np.arange(4))
            start = losses.span_start_loss(p_b, targets)
            end = losses.span_end_loss(sf.p_end, [spans])
            return losses.span_total_loss(start, end)

        fd_check(loss, params)


class TestDecodeSpans:
    def test_nothing_above_threshold(self):
        p_start = np.array([0.1, 0.2, 0.3])
        p_end = np.full((3, 3), 1 / 3)
        assert decode_spans(p_start, p_end) == []

    def test_single_start_argmax_end(self):
        p_start = np.array([0.9, 0.1, 0.1])
        p_end = np.array([[0.1, 0.7, 0.2], [0, 0.5, 0.5], [0, 0, 1.0]])
        assert decode_spans(p_start, p_end) == [(0, 2)]

    def test_matches_brute_force_rule(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p_start = rng.uniform(0, 1, n)
            logits = rng.normal(size=(n, n))
            mask = np.where(np.triu(np.ones((n, n))) > 0, 0.0, -np.inf)
            z = logits + mask
            p_end = np.exp(z - z.max(axis=1, keepdims=True))
            p_end /= p_end.sum(axis=1, keepdims=True)
            got = decode_spans(p_start, p_end, threshold=0.5)
            want = ref.ref_decode_spans(p_start, p_end, 0.5, n)
            assert got == [tuple(s) for s in want]

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            decode_spans(np.array([0.5]), np.eye(1), threshold=0.0)


class TestSpanWordMapping:
    def test_round_trip_word_mode(self):
        groups = [(i, i + 1) for i in range(6)]
        spans = [(1, 3), (4, 6)]
        sub = word_spans_to_subtokens(spans, groups)
        assert sub == spans
        assert subtoken_spans_to_words(sub, groups) == spans

    def test_bigram_mapping(self):
        groups = [(0, 2), (2, 5), (5, 6)]
        assert word_spans_to_subtokens([(1, 3)], groups) == [(2, 6)]
        assert subtoken_spans_to_words([(3, 4)], groups) == [(1, 2)]


class TestMaskInput:
    def test_example(self):
        assert mask_input(["a", "b", "c"], [0, 1, 0], ".") == [".", "b", "."]

    def test_all_ones_identity(self):
        tokens = ["x", "y"]
        assert mask_input(tokens, [1, 1], ".") == tokens

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            tokens = [f"t{i}" for i in range(n)]
            mask = rng.integers(0, 2, n)
            once = mask_input(tokens, mask, ".")
            twice = mask_input(once, mask, ".")
            assert once == twice

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mask_input(["a"], [1, 0], ".")


class TestSharedEncoder:
    def test_explanation_loss_alone_moves_encoder(self):
        model = ExplainerModel(tiny_config(), seed=24)
        rng = np.random.default_rng(24)
        ids, pad = simple_batch(rng)
        targets = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0, 1, 0]), np.array([1.0] * 5 + [0.0])]
        idx = [np.arange(4) * 3 + 0, np.arange(6) * 3 + 1, np.arange(6) * 3 + 2]
        with Tape() as tape:
            scores = model.explain_tokens(model.encode(ids, pad), pad)
            tape.backward(token_explanation_loss(scores, idx, targets))
        enc_grads = [p.grad for p in param_group(model, "enc.").values()]
        assert any(np.abs(g).max() > 0 for g in enc_grads)
        before = {k: v.copy() for k, v in model.state_arrays().items() if k.startswith("enc.")}
        opt = Adam(model.parameters(), lr=1e-2)
        opt.step()
        after = {k: v for k, v in model.state_arrays().items() if k.startswith("enc.")}
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_training_step_holds_no_projection_twice(self):
        # each x @ w + b is one affine node, so no matmul product is kept beside its sum
        model = ExplainerModel(tiny_config(dropout=0.1), seed=27)
        rng = np.random.default_rng(27)
        ids, pad = simple_batch(rng)
        targets = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0, 1, 0]), np.array([1.0] * 5 + [0.0])]
        idx = [np.arange(4) * 3 + 0, np.arange(6) * 3 + 1, np.arange(6) * 3 + 2]
        with Tape() as tape:
            enc = model.encode(ids, pad)
            probs = model.predict_task(enc, train=True, dropout_rng=rng)
            scores = model.explain_tokens(enc, pad)
            bd = combined_loss(task_loss(probs, [0, 1, 1]), token_explanation_loss(scores, idx, targets), 1.0)
            tape.backward(bd.total)
        kinds = [node.op for node in tape.nodes]
        # two encoder directions per layer, the token head's GRU and output, two task layers
        assert kinds.count("affine") == 2 * model.cfg.enc_layers + 2 + 2
        bias_adds = [n for n in tape.nodes if n.op == "add" and any(q.op == "matmul" for q in n.parents)]
        assert bias_adds == []

    def test_predictor_shares_no_parameters_with_explainer(self):
        explainer = ExplainerModel(tiny_config(), seed=25)
        predictor = PredictorModel(tiny_config(), seed=26)
        explainer_ids = {id(p) for p in explainer.parameters().values()}
        predictor_ids = {id(p) for p in predictor.parameters().values()}
        assert explainer_ids.isdisjoint(predictor_ids)


class TestPrecision:
    @pytest.mark.parametrize("cls,head", [(ExplainerModel, "token"), (ExplainerModel, "span"),
                                          (PredictorModel, "token")])
    def test_model_built_from_a_config_computes_in_f64(self, cls, head):
        model = cls(tiny_config(head=head), seed=34)
        assert model.dtype == np.float64
        assert {(p.data.dtype, p.grad.dtype) for p in model.parameters().values()} == {
            (np.dtype(np.float64), np.dtype(np.float64))
        }
        ids, pad = simple_batch(np.random.default_rng(34))
        assert model.predict_task(model.encode(ids, pad)).data.dtype == np.float64

    @pytest.mark.parametrize("head", ["token", "span"])
    def test_f32_state_computes_in_f32_close_to_f64(self, head):
        wide = ExplainerModel(tiny_config(head=head), seed=35)
        narrow = ExplainerModel(tiny_config(head=head), seed=35)
        narrow.load_state(state_as(wide, np.float32))
        assert narrow.dtype == np.float32
        assert {p.grad.dtype for p in narrow.parameters().values()} == {np.dtype(np.float32)}
        ids, pad = simple_batch(np.random.default_rng(35))
        outputs = []
        for model in (wide, narrow):
            enc = model.encode(ids, pad)
            if head == "token":
                scores = model.explain_tokens(enc, pad).data
            else:
                sf = model.explain_spans(enc, np.zeros(3, int), pad.sum(axis=1).astype(int))
                scores = np.concatenate([sf.p_start.data, sf.p_end.data.reshape(-1)])
            outputs.append((model.predict_task(enc).data, scores))
        for wide_out, narrow_out in zip(*outputs):
            assert narrow_out.dtype == np.float32
            np.testing.assert_allclose(narrow_out, wide_out, rtol=1e-4, atol=1e-6)

    def test_f32_checkpoint_loads_as_f32(self, tmp_path):
        model = ExplainerModel(tiny_config(), seed=36)
        model.load_state(state_as(model, np.float32))
        model.save(tmp_path / "model.npz")
        assert {a.dtype for a in load_checkpoint(tmp_path / "model.npz")[2].values()} == {
            np.dtype(np.float32)
        }
        again = ExplainerModel.load(tmp_path / "model.npz")
        assert again.dtype == np.float32
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(again.parameters()[name].data, p.data)

    @pytest.mark.parametrize("kind", ["int", "f16", "mixed"])
    def test_parameter_set_of_another_dtype_is_value_error_naming_the_file(self, tmp_path, kind):
        model = ExplainerModel(tiny_config(), seed=37)
        if kind == "mixed":
            arrays = model.state_arrays()
            arrays["exp.w"] = arrays["exp.w"].astype(np.float32)
        else:
            arrays = state_as(model, {"int": np.int64, "f16": np.float16}[kind])
        path = tmp_path / "model.npz"
        save_checkpoint(path, "explainer", model.cfg, arrays)
        message = r"model\.npz: parameters must all be float32 or all float64, got"
        with pytest.raises(ValueError, match=message):
            load_model(path)


class TestCheckpoints:
    def test_round_trip_preserves_params_and_config(self, tmp_path):
        model = ExplainerModel(tiny_config(head="span"), seed=27)
        path = tmp_path / "model.npz"
        model.save(path)
        again = ExplainerModel.load(path)
        assert again.cfg == model.cfg
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(again.parameters()[name].data, p.data)

    def test_kind_mismatch_rejected(self, tmp_path):
        model = PredictorModel(tiny_config(), seed=28)
        path = tmp_path / "model.npz"
        model.save(path)
        with pytest.raises(ValueError, match="predictor"):
            ExplainerModel.load(path)
        assert isinstance(load_model(path), PredictorModel)

    @pytest.mark.parametrize("load", [load_model, ExplainerModel.load], ids=["load_model", "load"])
    def test_checkpoint_file_read_once(self, tmp_path, monkeypatch, load):
        ExplainerModel(tiny_config(), seed=28).save(tmp_path / "model.npz")
        reads = []
        real_np_load = np.load
        monkeypatch.setattr(np, "load", lambda *a, **kw: reads.append(a) or real_np_load(*a, **kw))
        assert isinstance(load(tmp_path / "model.npz"), ExplainerModel)
        assert len(reads) == 1

    def test_checkpoint_is_self_describing(self, tmp_path):
        model = ExplainerModel(tiny_config(enc_hidden=3), seed=29)
        path = tmp_path / "model.npz"
        model.save(path)
        kind, cfg, arrays = load_checkpoint(path)
        assert kind == "explainer"
        assert cfg.enc_hidden == 3
        assert set(arrays) == set(model.parameters())

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = ExplainerModel(tiny_config(), seed=30)
        rng = np.random.default_rng(30)
        ids, pad = simple_batch(rng)
        before = model.predict_task(model.encode(ids, pad)).data
        path = tmp_path / "model.npz"
        model.save(path)
        again = ExplainerModel.load(path)
        after = again.predict_task(again.encode(ids, pad)).data
        np.testing.assert_array_equal(before, after)

    def test_cut_file_is_value_error_naming_it(self, tmp_path):
        path = tmp_path / "model.npz"
        ExplainerModel(tiny_config(), seed=31).save(path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="model.npz"):
            load_model(path)

    @pytest.mark.parametrize("meta", [None, "not json", '["a list"]'],
                             ids=["missing", "not-json", "not-an-object"])
    def test_bad_meta_record_is_value_error_naming_the_file(self, tmp_path, meta):
        model = ExplainerModel(tiny_config(), seed=32)
        payload = {f"param:{k}": v for k, v in model.state_arrays().items()}
        if meta is not None:
            payload["meta"] = np.array(meta)
        path = tmp_path / "model.npz"
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="model.npz"):
            load_checkpoint(path)

    def test_missing_parameter_is_value_error_naming_the_file(self, tmp_path):
        arrays = ExplainerModel(tiny_config(), seed=33).state_arrays()
        del arrays["exp.w"]
        path = tmp_path / "model.npz"
        save_checkpoint(path, "explainer", tiny_config(), arrays)
        with pytest.raises(ValueError, match=r"model\.npz.*exp\.w"):
            load_model(path)
