"""Pipeline tests: the two training phases, filtering, masking,
inference composition, and determinism."""

import dataclasses
import logging
from collections import Counter

import numpy as np
import pytest

from etp import losses, metrics, pipeline
from etp.autodiff import Tape
from etp.data import DataError, Dataset, SyntheticSpec, batchify, build_vocab, generate_synthetic
from etp.models import _EncoderClassifier, mask_input, pool_subtokens
from etp.pipeline import (
    PipelineError,
    TrainConfig,
    _explain,
    build_masked_dataset,
    coerce_config,
    dump_flat_config,
    evaluate,
    faithfulness,
    filter_training_instances,
    infer,
    infer_many,
    load_run,
    parse_flat_config,
    run_pipeline,
    save_run,
    train_explainer,
    train_predictor,
)

from conftest import tiny_dataset, tiny_train_config
from helpers import param_group
from reference import keep_mask_closure


def explain(model, instances, vocab, cfg):
    batches = batchify(instances, cfg.batch_size, vocab, cfg.max_len, cfg.subtoken_mode)
    return _explain(model, batches, cfg)


def masked_dataset(model, instances, vocab, cfg):
    masks = [e.rationale_mask for e in explain(model, instances, vocab, cfg)]
    return build_masked_dataset(instances, masks, cfg.wildcard)


class TestTrainConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(threshold=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(head="graph").validate()

    @pytest.mark.parametrize(
        "field, value",
        [("lam", float("nan")), ("lam", float("inf")), ("learning_rate", float("nan")),
         ("learning_rate", float("inf"))],
    )
    def test_non_finite_lambda_and_learning_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value}).validate()

    def test_flat_config_round_trip(self):
        cfg = tiny_train_config(lam=2.5, head="span", subtoken_mode="char_bigram")
        text = dump_flat_config(cfg)
        again = coerce_config(TrainConfig, parse_flat_config(text))
        assert again == cfg

    @pytest.mark.parametrize("wildcard", ["#", " x", "a#b", "x ", "\x85", "\r", "?", "a=b", "<w>"])
    def test_every_accepted_wildcard_reads_back(self, wildcard):
        cfg = tiny_train_config(wildcard=wildcard)
        lost = wildcard != wildcard.strip() or "#" in wildcard or len(wildcard.splitlines()) != 1
        if lost:
            with pytest.raises(ValueError, match="wildcard .* would not read back"):
                cfg.validate()
        else:
            text = dump_flat_config(cfg.validate())
            assert coerce_config(TrainConfig, parse_flat_config(text)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            coerce_config(TrainConfig, {"momentum": "0.9"})

    @pytest.mark.parametrize(
        "key, raw, message",
        [("epochs", "abc", "config key 'epochs': 'abc' is not an int"),
         ("epochs", "2.5", "config key 'epochs': '2.5' is not an int"),
         ("lam", "x1", "config key 'lam': 'x1' is not a float")],
        ids=["int-word", "int-decimal", "float"],
    )
    def test_value_of_the_wrong_type_names_its_key(self, key, raw, message):
        with pytest.raises(ValueError) as err:
            coerce_config(TrainConfig, {key: raw})
        assert str(err.value) == message


class TestTrainExplainer:
    def test_lambda_zero_leaves_explanation_head_at_init(self, dataset):
        cfg = tiny_train_config(lam=0.0, epochs=2)
        model, _ = train_explainer(
            dataset.splits["train"], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        fresh = type(model)(model.cfg, seed=cfg.seed)
        for name, p in param_group(model, "exp.").items():
            np.testing.assert_array_equal(p.data, param_group(fresh, "exp.")[name].data)
        # while the task head did move
        moved = [
            not np.array_equal(p.data, param_group(fresh, "task.")[name].data)
            for name, p in param_group(model, "task.").items()
        ]
        assert any(moved)

    def test_one_epoch_decreases_training_loss(self, dataset):
        cfg = tiny_train_config(epochs=3, patience=3)
        _, history = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        assert history.epochs[-1].l_loss < history.epochs[0].l_loss

    def test_same_seed_identical_loss_curves(self, dataset):
        cfg = tiny_train_config(epochs=2)
        curves = []
        for _ in range(2):
            _, history = train_explainer(
                dataset.splits["train"], dataset.splits["val"], cfg, dataset.vocab, 2
            )
            curves.append([(e.l_task, e.l_exp, e.l_loss, e.val_macro_f1) for e in history.epochs])
        assert curves[0] == curves[1]

    def test_empty_training_set_rejected(self, dataset):
        with pytest.raises(PipelineError, match="stage 1 .*empty"):
            train_explainer([], dataset.splits["val"], tiny_train_config(), dataset.vocab, 2)

    def test_empty_validation_rejected(self, dataset):
        with pytest.raises(PipelineError, match="validation"):
            train_explainer(dataset.splits["train"], [], tiny_train_config(), dataset.vocab, 2)

    def test_nan_loss_aborts_without_crashing(self, dataset, monkeypatch):
        from etp.models import ExplainerModel

        orig = ExplainerModel.__init__

        def poisoned(self, cfg_, seed=0):
            orig(self, cfg_, seed=seed)
            self.params["enc"]["embedding"].data[0, 0] = np.nan

        monkeypatch.setattr(ExplainerModel, "__init__", poisoned)
        _, history = train_explainer(
            dataset.splits["train"], dataset.splits["val"], tiny_train_config(), dataset.vocab, 2
        )
        assert history.diverged and not history.epochs

    @pytest.mark.parametrize(
        "patience, expected",
        [
            (1, "stage 1: restored epoch 1 of 2; stopped early"),
            (0, "stage 1: restored epoch 1 of 3"),
        ],
        ids=["stopped-early", "ran-out"],
    )
    def test_closing_line_names_the_restored_epoch(
        self, dataset, caplog, monkeypatch, patience, expected
    ):
        # a flat validation score: the first epoch stays the best one
        monkeypatch.setattr(pipeline, "_validation_scores", lambda *args: (0.5, 0.5))
        cfg = tiny_train_config(epochs=3, patience=patience)
        with caplog.at_level(logging.INFO, logger="etp.pipeline"):
            _, history = train_explainer(
                dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
            )
        assert history.best_epoch == 1 and history.stopped_early == (patience == 1)
        assert caplog.records[-1].getMessage() == expected

    def test_span_head_trains(self, dataset):
        cfg = tiny_train_config(head="span", epochs=1)
        model, history = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"][:4], cfg, dataset.vocab, 2
        )
        assert model.cfg.head == "span"
        assert history.epochs[0].val_token_f1 is not None

    def test_span_head_is_as_long_as_the_longest_laid_out_document(self):
        # a one-word query and its separator leave 8 of max_len 10 to the document
        dataset = tiny_dataset(pair=True)
        cfg = tiny_train_config(head="span", epochs=1, max_len=10)
        train, val = dataset.splits["train"], dataset.splits["val"]
        model, _ = train_explainer(train, val, cfg, dataset.vocab, 2)
        laid_out = batchify(train + val, cfg.batch_size, dataset.vocab, cfg.max_len)
        assert model.cfg.span_len == max(int(b.doc_sublen.max()) for b in laid_out) == 8


class TestFilter:
    def test_constant_classifier_keeps_one_class(self, dataset):
        cfg = tiny_train_config()
        model, _ = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        model.params["task"]["w2"].data[...] = 0.0
        model.params["task"]["b2"].data[...] = [5.0, -5.0]  # always predict class 0
        train = dataset.splits["train"]
        kept = filter_training_instances(train, explain(model, train, dataset.vocab, cfg))
        assert kept and all(inst.label == 0 for inst in kept)

    def test_matches_brute_force_per_instance_check(self, dataset):
        cfg = tiny_train_config(epochs=1)
        model, _ = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        train = dataset.splits["train"]
        kept = filter_training_instances(train, explain(model, train, dataset.vocab, cfg))
        brute = []
        for inst in dataset.splits["train"]:
            batch = batchify([inst], 1, dataset.vocab, cfg.max_len, cfg.subtoken_mode)[0]
            probs = model.predict_task(model.encode(batch.ids, batch.pad_mask)).data[0]
            if int(np.argmax(probs)) == inst.label:
                brute.append(inst.uid)
        assert [inst.uid for inst in kept] == brute

    def test_filtered_set_is_subset_with_exact_membership(self, dataset):
        cfg = tiny_train_config(epochs=1)
        model, _ = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        train = dataset.splits["train"]
        kept = filter_training_instances(train, explain(model, train, dataset.vocab, cfg))
        train_ids = {inst.uid for inst in dataset.splits["train"]}
        assert {inst.uid for inst in kept} <= train_ids

    def test_log_line_reports_kept_over_total_per_class(self, dataset, caplog, monkeypatch):
        kept_lists = []

        def recording_filter(instances, explanations):
            kept = filter_training_instances(instances, explanations)
            kept_lists.append(kept)
            return kept

        monkeypatch.setattr(pipeline, "filter_training_instances", recording_filter)
        with caplog.at_level(logging.INFO, logger="etp.pipeline"):
            run_pipeline(dataset, tiny_train_config(epochs=1))
        (kept,) = kept_lists
        train = dataset.splits["train"]
        per_class = ", ".join(
            f"class {c}: {sum(i.label == c for i in kept)} / {sum(i.label == c for i in train)}"
            for c in (0, 1)
        )
        expected = (
            f"auxiliary filter kept {len(kept)} / {len(train)} training instances ({per_class})"
        )
        assert expected in [r.getMessage() for r in caplog.records]

    def test_class_the_filter_empties_is_warned_about(self, dataset, caplog, monkeypatch):
        def drop_class_0(instances, explanations):
            return [i for i in filter_training_instances(instances, explanations) if i.label == 1]

        monkeypatch.setattr(pipeline, "filter_training_instances", drop_class_0)
        with caplog.at_level(logging.WARNING, logger="etp.pipeline"):
            run_pipeline(dataset, tiny_train_config(epochs=1))
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert "auxiliary filter kept no training instance of class 0" in warnings


class TestMaskedDataset:
    def _trained(self, dataset, **kw):
        cfg = tiny_train_config(epochs=1, **kw)
        model, _ = train_explainer(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        return model, cfg

    def test_all_high_scores_leave_documents_unchanged(self, dataset):
        model, cfg = self._trained(dataset)
        for t in model.params["exp"]["gru"].values():
            t.data[...] = 0.0
        model.params["exp"]["w"].data[...] = 0.0
        model.params["exp"]["b"].data[...] = 0.0  # sigmoid(0) = 0.5 >= threshold
        masked = masked_dataset(model, dataset.splits["val"], dataset.vocab, cfg)
        for orig, m in zip(dataset.splits["val"], masked):
            assert m.document == orig.document

    def test_all_low_scores_give_all_wildcard_documents(self, dataset):
        model, cfg = self._trained(dataset)
        for t in model.params["exp"]["gru"].values():
            t.data[...] = 0.0
        model.params["exp"]["w"].data[...] = 0.0
        model.params["exp"]["b"].data[...] = -12.0
        masked = masked_dataset(model, dataset.splits["val"], dataset.vocab, cfg)
        for orig, m in zip(dataset.splits["val"], masked):
            assert m.document == [cfg.wildcard] * len(orig.document)
            assert m.query == orig.query
            assert m.label == orig.label

    def test_matches_manual_explain_threshold_mask_composition(self, dataset):
        model, cfg = self._trained(dataset)
        instances = dataset.splits["val"]
        masked = masked_dataset(model, instances, dataset.vocab, cfg)
        for inst, got in zip(instances, masked):
            batch = batchify([inst], 1, dataset.vocab, cfg.max_len, cfg.subtoken_mode)[0]
            scores = model.explain_tokens(
                model.encode(batch.ids, batch.pad_mask), batch.doc_mask
            ).data
            sub = scores[batch.doc_row_index[0], 0]
            words = pool_subtokens(sub, batch.layouts[0].word_groups)
            hard = np.zeros(len(inst.document), dtype=np.int8)
            hard[: len(words)] = words >= cfg.threshold
            assert got.document == mask_input(inst.document, hard, cfg.wildcard)


class TestTrainPredictor:
    def test_all_ones_rationale_equals_full_input_training(self, dataset):
        cfg = tiny_train_config(epochs=1)
        full = dataset.splits["train"][:8]
        masked = [
            dataclasses.replace(i, document=mask_input(i.document, np.ones(len(i.document)), "."))
            for i in full
        ]
        assert all(a.document == b.document for a, b in zip(full, masked))
        m1, h1 = train_predictor(masked, dataset.splits["val"], cfg, dataset.vocab, 2)
        m2, h2 = train_predictor(full, dataset.splits["val"], cfg, dataset.vocab, 2)
        assert [e.l_task for e in h1.epochs] == [e.l_task for e in h2.epochs]

    def test_loss_decreases(self, dataset):
        cfg = tiny_train_config(epochs=3, patience=3)
        _, history = train_predictor(
            dataset.splits["train"], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        assert history.epochs[-1].l_task < history.epochs[0].l_task

    def test_empty_training_set_rejected(self, dataset):
        with pytest.raises(PipelineError, match="empty"):
            train_predictor([], dataset.splits["val"], tiny_train_config(), dataset.vocab, 2)

    def test_stage2_history_has_no_token_f1(self, dataset):
        cfg = tiny_train_config(epochs=1)
        _, history = train_predictor(
            dataset.splits["train"][:8], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        assert all(e.val_token_f1 is None for e in history.epochs)

    def test_step_records_only_the_task_graph(self, dataset, monkeypatch):
        nodes = []
        backward = Tape.backward

        def counting_backward(tape, loss):
            nodes.append(len(tape.nodes))
            return backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting_backward)
        train_predictor(
            dataset.splits["train"][:4], dataset.splits["val"], tiny_train_config(epochs=1),
            dataset.vocab, 2,
        )
        # embedding, one BiGRU layer (2 affine, 2 gru_run, concat), pooling, the task
        # head's dropout and two affine layers, softmax and the task loss
        assert nodes == [20]


@pytest.fixture(scope="module")
def state():
    dataset = tiny_dataset()
    return run_pipeline(dataset, tiny_train_config()), dataset


class TestInference:
    def test_equals_manual_composition(self, state):
        st, dataset = state
        inst = dataset.splits["test"][0]
        res = infer(st, inst)
        masked_doc = mask_input(inst.document, res.rationale_mask, st.cfg.wildcard)
        batch = batchify(
            [dataclasses.replace(inst, document=masked_doc)],
            1,
            st.vocab,
            st.cfg.max_len,
            st.cfg.subtoken_mode,
        )[0]
        probs = st.predictor.predict_task(st.predictor.encode(batch.ids, batch.pad_mask)).data[0]
        assert res.label == int(np.argmax(probs))
        np.testing.assert_allclose(res.probs, probs, atol=1e-12)

    def test_auxiliary_head_perturbation_has_no_effect(self, state):
        st, dataset = state
        inst = dataset.splits["test"][1]
        before = infer(st, inst)
        st.explainer.params["task"]["w2"].data[...] += 3.21
        st.explainer.params["task"]["b2"].data[...] -= 1.23
        after = infer(st, inst)
        st.explainer.params["task"]["w2"].data[...] -= 3.21
        st.explainer.params["task"]["b2"].data[...] += 1.23
        assert before.label == after.label
        np.testing.assert_array_equal(before.rationale_mask, after.rationale_mask)
        np.testing.assert_array_equal(before.probs, after.probs)

    def test_all_zero_rationale_is_wildcard_document_prediction(self, state):
        st, dataset = state
        inst = dataset.splits["test"][2]
        wild_doc = [st.cfg.wildcard] * len(inst.document)
        batch = batchify(
            [dataclasses.replace(inst, document=wild_doc)],
            1,
            st.vocab,
            st.cfg.max_len,
            st.cfg.subtoken_mode,
        )[0]
        expected = st.predictor.predict_task(
            st.predictor.encode(batch.ids, batch.pad_mask)
        ).data[0]
        closure = keep_mask_closure(st, inst)
        got = closure(np.zeros(len(inst.document), dtype=int))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_infer_many_matches_single(self, state):
        st, dataset = state
        instances = dataset.splits["test"][:4]
        many = infer_many(st, instances)
        for inst, res in zip(instances, many):
            single = infer(st, inst)
            assert single.label == res.label
            np.testing.assert_array_equal(single.rationale_mask, res.rationale_mask)

    def test_empty_list_gets_no_results(self, state):
        assert infer_many(state[0], []) == []

    def test_empty_list_is_not_scored(self, state):
        with pytest.raises(DataError, match="nothing to score"):
            evaluate(state[0], [])

    def test_span_head_reads_documents_longer_than_its_length(self):
        dataset = tiny_dataset()
        st = run_pipeline(dataset, tiny_train_config(head="span", epochs=1))
        first, second = dataset.splits["test"][:2]
        doc = first.document + second.document
        long = dataclasses.replace(
            first, document=doc, rationale_mask=np.zeros(len(doc)), rationale_spans=[]
        )
        span_len = st.explainer.cfg.span_len
        assert len(doc) > span_len
        _, res = infer_many(st, [first, long])
        # words past the head's length are treated like truncated words
        assert res.rationale_mask.shape == res.scores.shape == (len(doc),)
        assert not res.rationale_mask[span_len:].any() and not res.scores[span_len:].any()
        assert all(e <= span_len for _, e in res.spans)

class TestFaithfulnessComposition:
    def test_batched_equals_per_instance_closures(self):
        dataset = tiny_dataset(seed=3)
        st = run_pipeline(dataset, tiny_train_config(epochs=1))
        instances = dataset.splits["test"][:5]
        masks = [inst.rationale_mask for inst in instances]
        comp, suff = faithfulness(st, instances, masks)
        for i, inst in enumerate(instances):
            closure = keep_mask_closure(st, inst)
            assert comp[i] == pytest.approx(
                metrics.comprehensiveness(closure, masks[i]), abs=1e-12
            )
            assert suff[i] == pytest.approx(metrics.sufficiency(closure, masks[i]), abs=1e-12)


class TestScoreReport:
    def test_null_optional_fields_count_as_absent(self):
        instances = tiny_dataset(seed=6).splits["test"]
        label_map = {"0": 0, "1": 1}
        # rationales off the gold by one word, so every metric reads the spans
        records = [
            {"label": inst.label_raw, "rationale": np.roll(inst.rationale_mask, 1).tolist()}
            for inst in instances
        ]
        nulls = [{**rec, "spans": None, "scores": None} for rec in records]
        assert (pipeline.score_report(instances, nulls, label_map).to_json()
                == pipeline.score_report(instances, records, label_map).to_json())

    def test_record_without_rationale_is_data_error_naming_it(self):
        instances = tiny_dataset(seed=6).splits["test"]
        records = [{"label": inst.label_raw} for inst in instances]
        with pytest.raises(DataError, match=f"prediction {instances[0].uid}: rationale"):
            pipeline.score_report(instances, records, {"0": 0, "1": 1})

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_record_count_other_than_instance_count_is_data_error(self, cut):
        instances = tiny_dataset(seed=6).splits["test"]
        records = [{"label": inst.label_raw, "rationale": inst.rationale_mask.tolist()}
                   for inst in instances]
        records = records[:cut] if cut < 0 else records + records[:cut]
        with pytest.raises(DataError, match=f"{len(records)} prediction records for "
                                            f"{len(instances)} instances"):
            pipeline.score_report(instances, records, {"0": 0, "1": 1})


class TestEndToEnd:
    def test_pipeline_determinism_identical_reports(self):
        reports = []
        for _ in range(2):
            dataset = tiny_dataset(seed=1)
            state = run_pipeline(dataset, tiny_train_config(epochs=2))
            reports.append(evaluate(state, dataset.splits["test"]).to_json())
        assert reports[0] == reports[1]

    def test_save_load_run_round_trip(self, tmp_path):
        dataset = tiny_dataset(seed=2)
        state = run_pipeline(dataset, tiny_train_config(epochs=1))
        report = evaluate(state, dataset.splits["test"])
        save_run(tmp_path / "run", state, report)
        again = load_run(tmp_path / "run")
        inst = dataset.splits["test"][0]
        a, b = infer(state, inst), infer(again, inst)
        assert a.label == b.label
        np.testing.assert_array_equal(a.rationale_mask, b.rationale_mask)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert (tmp_path / "run" / "stage1_metrics.csv").exists()
        assert (tmp_path / "run" / "metrics.json").read_text() == report.to_json()

    def test_load_run_names_the_config_key_of_the_wrong_type(self, tmp_path):
        dataset = tiny_dataset(seed=2)
        run = tmp_path / "run"
        save_run(run, run_pipeline(dataset, tiny_train_config(epochs=1)))
        text = (run / "train_config.txt").read_text()
        assert "lam = 1.0\n" in text
        (run / "train_config.txt").write_text(text.replace("lam = 1.0\n", "lam = x1\n"))
        with pytest.raises(PipelineError) as err:
            load_run(run)
        assert str(err.value) == (
            f"run directory {run}: train_config.txt: config key 'lam': 'x1' is not a float"
        )

    def test_stage2_set_is_filtered_stage1_subset(self):
        dataset = tiny_dataset(seed=4)
        cfg = tiny_train_config(epochs=1)
        model, _ = train_explainer(
            dataset.splits["train"], dataset.splits["val"], cfg, dataset.vocab, 2
        )
        train = dataset.splits["train"]
        explained = explain(model, train, dataset.vocab, cfg)
        kept = filter_training_instances(train, explained)
        masked = filter_training_instances(
            build_masked_dataset(train, [e.rationale_mask for e in explained], cfg.wildcard), explained
        )
        assert [m.uid for m in masked] == [k.uid for k in kept]
        for k, m in zip(kept, masked):
            (expected,) = masked_dataset(model, [k], dataset.vocab, cfg)
            assert m.document == expected.document


class TestPassCounts:
    def test_one_encoder_pass_per_question(self, monkeypatch):
        """Rows encoded outside a tape: each validation epoch asks each
        model once, one explainer pass over the training and validation
        sets answers both the filter and the mask, and evaluate encodes
        each document four times (explainer, rationale-only, full and
        rationale-stripped)."""
        dataset = tiny_dataset(seed=5)
        epochs = 2
        n_train, n_val, n_test = (len(dataset.splits[k]) for k in ("train", "val", "test"))
        rows = Counter()
        phase = ["run_pipeline"]
        encode = _EncoderClassifier.encode

        def counting_encode(self, ids, pad_mask):
            if Tape.current is None:
                rows[phase[0]] += len(ids)
            return encode(self, ids, pad_mask)

        def in_phase(name):
            fn = getattr(pipeline, name)

            def wrapped(*args, **kwargs):
                phase[0] = name
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = "run_pipeline"

            return wrapped

        monkeypatch.setattr(_EncoderClassifier, "encode", counting_encode)
        for name in ("train_explainer", "train_predictor"):
            monkeypatch.setattr(pipeline, name, in_phase(name))
        state = run_pipeline(dataset, tiny_train_config(epochs=epochs, patience=0))
        assert not (state.stage1.diverged or state.stage2.diverged)
        assert rows == {
            "train_explainer": epochs * n_val,
            "run_pipeline": n_train + n_val,
            "train_predictor": epochs * n_val,
        }
        rows.clear()
        evaluate(state, dataset.splits["test"])
        assert rows == {"run_pipeline": 4 * n_test}


def stage1_batches(train, val, vocab, **cfg_kw):
    """Every batch stage 1 trains on, in the order it trains on them."""
    seen = []
    exp_loss = pipeline._exp_loss

    def recording(model, enc, batch, cfg):
        seen.append(batch)
        return exp_loss(model, enc, batch, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_exp_loss", recording)
        train_explainer(train, val, tiny_train_config(**cfg_kw), vocab, 2)
    return seen


def bench_shaped(n, seed=1):
    """Documents of 20-40 words, as in the benchmark's workloads."""
    spec = SyntheticSpec(vocab_size=200, num_classes=2, doc_len=(20, 40), phrase_len=(3, 5),
                         distractor_rate=0.3, seed=seed)
    splits, label_map = generate_synthetic(spec, n, n_val=8, n_test=1)
    return Dataset(splits=splits, label_map=label_map, vocab=build_vocab(splits["train"]))


@pytest.fixture(scope="module")
def two_epochs():
    """Stage 1's batches over 1,000 bench-shaped documents, 2 epochs of 63 batches of 16."""
    dataset = bench_shaped(1000)
    batches = stage1_batches(dataset.splits["train"], dataset.splits["val"], dataset.vocab,
                             epochs=2, patience=0, batch_size=16)
    assert len(batches) == 2 * 63
    return dataset, [batches[:63], batches[63:]]


class TestEpochBatches:
    def test_every_training_instance_appears_once_per_epoch(self, two_epochs):
        dataset, epochs = two_epochs
        uids = sorted(inst.uid for inst in dataset.splits["train"])
        for batches in epochs:
            assert sorted(lay.instance.uid for b in batches for lay in b.layouts) == uids
        first, second = ([[lay.instance.uid for lay in b.layouts] for b in bs] for bs in epochs)
        assert first != second

    def test_batches_hold_documents_of_similar_length(self, two_epochs):
        # shuffled batches of 20-40 word documents are about 24% padding
        _, epochs = two_epochs
        for batches in epochs:
            real = sum(b.pad_mask.sum() for b in batches)
            cells = sum(b.pad_mask.size for b in batches)
            assert real / cells >= 0.9

    def test_batch_order_is_not_sorted_by_length(self, two_epochs):
        _, epochs = two_epochs
        for batches in epochs:
            steps = np.array([b.ids.shape[1] for b in batches])
            assert (np.diff(steps) > 0).any() and (np.diff(steps) < 0).any()
            # nor nearly sorted: lengths and positions are far from rank-correlated
            ranks = np.argsort(np.argsort(steps, kind="stable"))
            assert abs(np.corrcoef(ranks, np.arange(len(steps)))[0, 1]) < 0.5

    def test_batch_sequence_is_fixed_by_the_seed(self):
        dataset = bench_shaped(120, seed=2)
        train, val, vocab = dataset.splits["train"], dataset.splits["val"], dataset.vocab

        def sequence(seed):
            batches = stage1_batches(train, val, vocab, epochs=2, batch_size=8, seed=seed)
            return [[lay.instance.uid for lay in b.layouts] for b in batches]

        assert sequence(0) == sequence(0)
        assert sequence(0) != sequence(1)


def alternating_lengths(instances):
    """The instances ordered short, long, short, ..., with the first one repeated last."""
    by_len = sorted(instances, key=lambda inst: len(inst.document))
    half = len(by_len) // 2
    mixed = [inst for pair in zip(by_len[:half], by_len[half:][::-1]) for inst in pair]
    return mixed + [mixed[0]]


class TestInputOrder:
    """Calls run in length order and answer in input order."""

    def test_infer_many_matches_per_document_infer(self, state):
        st, dataset = state
        items = alternating_lengths(dataset.splits["test"])
        assert len(items) > st.cfg.batch_size
        many = infer_many(st, items)
        assert [r.uid for r in many] == [inst.uid for inst in items]
        for inst, res in zip(items, many):
            single = infer(st, inst)
            assert res.label == single.label
            np.testing.assert_array_equal(res.rationale_mask, single.rationale_mask)
            np.testing.assert_allclose(res.probs, single.probs, atol=1e-12)
        np.testing.assert_array_equal(many[0].probs, many[-1].probs)

    def test_faithfulness_matches_per_document_calls(self, state):
        st, dataset = state
        items = alternating_lengths(dataset.splits["test"])
        masks = [inst.rationale_mask for inst in items]
        comp, suff = faithfulness(st, items, masks)
        for i, (inst, mask) in enumerate(zip(items, masks)):
            one_comp, one_suff = faithfulness(st, [inst], [mask])
            assert comp[i] == pytest.approx(one_comp[0], abs=1e-12)
            assert suff[i] == pytest.approx(one_suff[0], abs=1e-12)

    def test_evaluate_scores_the_per_document_results(self, state):
        st, dataset = state
        items = alternating_lengths(dataset.splits["test"])
        report = evaluate(st, items).to_dict()
        expected = pipeline.score_results(st, items, [infer(st, inst) for inst in items]).to_dict()
        assert report.pop("statistics") == expected.pop("statistics")
        assert report == pytest.approx(expected, abs=1e-12)
