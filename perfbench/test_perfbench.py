"""Tests of the benchmark's own code.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from etp import autodiff as ad  # noqa: E402
from etp import pipeline  # noqa: E402
from etp.data import Dataset, SyntheticSpec, Vocabulary, generate_synthetic  # noqa: E402


def _originals():
    return [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for owner, attr, *_ in tracing._targets(Counter())
    ]


def _assert_restored(originals):
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{attr} was not restored"


def _tiny_pipeline(head: str):
    """(trained tiny pipeline state, its test documents)"""
    spec = SyntheticSpec(vocab_size=40, num_classes=2, doc_len=(8, 12), phrase_len=(2, 3),
                         distractor_rate=0.3, seed=3)
    splits, label_map = generate_synthetic(spec, 24, n_val=8, n_test=8)
    corpus = [t for inst in splits["train"] for t in inst.document]
    dataset = Dataset(splits=splits, label_map=label_map, vocab=Vocabulary.build(corpus))
    cfg = pipeline.TrainConfig(lam=1.0, epochs=2, patience=0, batch_size=4, seed=0, head=head,
                               embed_dim=8, enc_hidden=6, enc_layers=1, task_hidden=8,
                               token_gru_hidden=6, span_hidden=4)
    return pipeline.run_pipeline(dataset, cfg), splits["test"]


def _tiny_run(head: str):
    state, docs = _tiny_pipeline(head)
    return pipeline.evaluate(state, docs).to_json()


def test_self_time_on_hand_built_tree():
    spans = [
        ["bench.rep", 0.0, 10.0, -1],
        ["pipeline.run_pipeline", 1.0, 9.0, 0],
        ["rnn.gru_run.fwd", 2.0, 5.0, 1],
        ["autodiff.op.add.fwd", 3.0, 4.0, 2],
        ["autodiff.op.add.fwd", 3.25, 3.5, 3],
        ["rnn.gru_run.fwd", 6.0, 7.0, 1],
        ["metrics.macro_f1", 9.5, 9.875, 0],
        ["metrics.mask_to_spans", 9.5, 9.625, 6],
    ]
    by_name, layer_self, layer_outer = tracing.summarize(spans)
    assert layer_self == pytest.approx({
        "bench": 10.0 - 8.0 - 0.375,
        "pipeline": 8.0 - 3.0 - 1.0,
        "rnn": (3.0 - 1.0) + 1.0,
        "autodiff": (1.0 - 0.25) + 0.25,
        "metrics": (0.375 - 0.125) + 0.125,
    })
    # a span nested in one of the same name counts once toward the inclusive time
    assert by_name["autodiff.op.add.fwd"] == pytest.approx([1.0, 2, 1.0])
    assert by_name["rnn.gru_run.fwd"] == pytest.approx([4.0, 2, 3.0])
    assert layer_outer["metrics"] == pytest.approx(0.375)
    assert sum(layer_self.values()) == pytest.approx(10.0)


def test_wrapped_ops_return_the_same_values_and_gradients():
    rng = np.random.default_rng(0)
    a_data, b_data = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

    def grads():
        a = ad.Tensor(a_data, requires_grad=True)
        b = ad.Tensor(b_data, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.softmax(ad.matmul(a, b))
            loss = ad.tsum(ad.mul(out, out))
            tape.backward(loss)
        return loss.data.copy(), a.grad.copy(), b.grad.copy()

    originals = _originals()
    plain = grads()
    with tracing.Tracer() as tracer:
        traced = grads()
    _assert_restored(originals)
    for x, y in zip(plain, traced):
        assert np.array_equal(x, y)
    by_name, _, _ = tracing.summarize(tracer.spans)
    assert by_name["autodiff.op.matmul.bwd"][1] == 1
    assert by_name["autodiff.Tape.backward"][1] == 1
    backward = next(i for i, s in enumerate(tracer.spans) if s[0] == "autodiff.Tape.backward")
    bwd_parents = {s[3] for s in tracer.spans if s[0].endswith(".bwd")}
    assert bwd_parents == {backward}
    assert tracer.counters["autodiff.tape_nodes"] == 4


@pytest.mark.parametrize("head", ["token", "span"])
def test_tiny_traced_pipeline_is_bit_identical(head):
    originals = _originals()
    plain = _tiny_run(head)
    with tracing.Tracer() as tracer:
        traced = _tiny_run(head)
    _assert_restored(originals)
    assert traced == plain
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.counters, 1.0, 1.5)
    assert metrics["rnn.gru_run.calls"][0] > 0
    # every stage-1 step, plus at least one step on the filtered stage-2 set
    assert metrics["optim.steps"][0] > 2 * (24 // 4)
    assert 0.0 < metrics["pipeline.filter_keep_ratio"][0] <= 1.0
    explain = "models.explain_spans_s" if head == "span" else "models.explain_tokens_s"
    assert metrics[explain][0] > 0.0


def test_inference_window_makes_the_minimum_calls_and_checks_batch_agreement(monkeypatch):
    state, docs = _tiny_pipeline("token")
    w = workloads.Workload("tiny", head="token", n_train=24, epochs=2)
    ledger = workloads.Ledger()
    workloads.InferenceRun(w, state, docs, ledger).run(0.0)
    assert ledger.failed == 0
    counts = {name: len(values) for name, values in ledger.samples.items()}
    assert counts == {"infer_ms": 100, "eval_s": 3, "infer_docs_per_s.b16": 5,
                      "infer_docs_per_s.b64": 5}
    assert ledger.attempted == sum(workloads.MIN_CALLS.values())

    real = pipeline.infer_many

    def flip_at_64(st, instances):
        results = real(st, instances)
        if st.cfg.batch_size == 64:
            results[0].label = 1 - results[0].label
        return results

    monkeypatch.setattr(pipeline, "infer_many", flip_at_64)
    ledger = workloads.Ledger()
    workloads.InferenceRun(w, state, docs, ledger).run(0.0)
    assert ledger.failed == workloads.MIN_CALLS["infer_many.b64"]
    assert all(e.startswith("infer_many.b64: ") and "differs" in e for e in ledger.errors)


def test_wrappers_are_removed_when_the_traced_code_raises():
    originals = _originals()
    with pytest.raises(ad.DimensionError):
        with tracing.Tracer():
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))
    _assert_restored(originals)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = workloads.Ledger()
    for name in ("setup_s", "pipeline_s", "eval_s", "infer_docs_per_s.b16",
                 "infer_docs_per_s.b64", "infer_ms"):
        ledger.add(name, 1.0)
    end_to_end = workloads.end_to_end_metrics(ledger)
    per_layer = tracing.per_layer_metrics([], Counter(), 1.0, 1.0)
    for section, printed in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert listed == {name: unit for name, (_, unit) in printed.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "token_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
