"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest -s tests/test_acceptance.py`` to see them live). The
expensive artifacts (the benchmark dataset, the trained pipeline, the
lambda sweep) are module-scoped fixtures, so the whole file costs one
dataset generation, one full pipeline run, one four-point sweep (two worker
processes), and two small CLI training runs.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import etp.autodiff as ad
from etp import cli, losses, metrics, rnn
from etp.autodiff import Tape, Tensor
from etp.data import Dataset, SyntheticSpec, Vocabulary, batchify, generate_synthetic, load_dataset
from etp.models import ExplainerModel, ModelConfig, mask_input
from etp.pipeline import (
    TrainConfig,
    _explain,
    evaluate,
    faithfulness,
    filter_training_instances,
    infer_many,
    run_pipeline,
)

import reference as ref
from helpers import finite_difference

H_FD = 1e-5
RTOL_FD = 1e-4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts


BENCH_SPEC = dict(
    vocab_size=200,
    num_classes=2,
    doc_len=(20, 40),
    phrase_len=(3, 5),
    distractor_rate=0.3,
    seed=7,
)


@pytest.fixture(scope="module")
def bench_dataset(tmp_path_factory) -> tuple[Dataset, Path]:
    """The benchmark dataset, both on disk (for CLI runs) and loaded."""
    out = tmp_path_factory.mktemp("bench") / "data"
    rc = cli.main(
        [
            "gen-data",
            "--out",
            str(out),
            "--n",
            "2000",
            "--n-val",
            "200",
            "--n-test",
            "200",
            "--vocab",
            "200",
            "--doc-len",
            "20",
            "40",
            "--phrase-len",
            "3",
            "5",
            "--distractor-rate",
            "0.3",
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    return load_dataset(out), out


@pytest.fixture(scope="module")
def trained(bench_dataset):
    """Full pipeline at lambda=1, seed 7, plus its test report and runtime."""
    dataset, _ = bench_dataset
    cfg = TrainConfig(lam=1.0, seed=7)
    start = time.monotonic()
    state = run_pipeline(dataset, cfg)
    report_ = evaluate(state, dataset.splits["test"])
    elapsed = time.monotonic() - start
    return state, report_, elapsed, dataset


@pytest.fixture(scope="module")
def sweep_rows(bench_dataset, tmp_path_factory):
    _, data_dir = bench_dataset
    out = tmp_path_factory.mktemp("sweep") / "grid"
    rc = cli.main(
        [
            "sweep",
            "--data",
            str(data_dir),
            "--out",
            str(out),
            "--grid",
            "0.1,1,10,100",
            "--seed",
            "7",
            # the four points are independent: two processes, one per core
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh)), out


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def _fd_config_ok(build_loss, tensors) -> bool:
    # |analytic - fd| <= atol + rtol * max(|analytic|, |fd|); the absolute
    # floor absorbs central-difference cancellation noise (~1e-11 at
    # h=1e-5 on O(1) losses) for near-zero gradients
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        tape.backward(build_loss())
    for t in tensors:
        analytic = t.grad.copy()
        fd = finite_difference(lambda: build_loss().item(), t.data, h=H_FD)
        bound = 1e-8 + RTOL_FD * np.maximum(np.abs(analytic), np.abs(fd))
        if (np.abs(analytic - fd) > bound).any():
            return False
    return True


def _per_op_configs(seed: int):
    """One gradient-check configuration per registered differentiable op."""
    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)

    a34, b34, col = t(3, 4), t(3, 4), t(3, 1)
    bias = t(4)
    m_a, m_b = t(3, 4), t(4, 2)
    parts = [t(2, 2), t(2, 3)]
    sm = t(3, 5)
    tri = np.where(np.triu(np.ones((4, 4))) > 0, 0.0, -np.inf)
    sq = t(4, 4)
    pos = Tensor(rng.uniform(0.3, 2.0, (3, 3)), requires_grad=True)
    table = t(6, 3)
    ids = rng.integers(0, 6, 5)
    pick_r, pick_c = np.arange(4), rng.integers(0, 4, 4)
    drop_seed = int(rng.integers(1 << 30))
    u_zr, u_c = t(3, 6), t(3, 3)
    run_xp, step_xp = t(8, 9), t(2, 9)
    run_mask = np.ones((4, 2))
    run_mask[3, 0] = 0.0
    fwd_mask = np.ones((4, 2))
    fwd_mask[2:, 1] = 0.0
    w = {k: Tensor(v.data, requires_grad=True) for k, v in rnn.init_gru(rng, 3, 3).items()}
    seq_x = t(8, 3)
    cols = t(4, 8)
    ends_after_start = np.tile(tri.T, (1, 2))
    col_weights = np.arange(32.0).reshape(4, 8)
    # drawn last: a draw placed earlier would shift every later configuration's values
    aff_b = t(2)

    def run(xp, seq_len, mask, reverse):
        return lambda: ad.tsum(ad.tanh(rnn.gru_run(xp, u_zr, u_c, seq_len, 2, mask, reverse)))

    return {
        "add": (lambda: ad.tsum(ad.tanh(ad.add(a34, bias))), [a34, bias]),
        "sub": (lambda: ad.tsum(ad.sigmoid(ad.sub(a34, b34))), [a34, b34]),
        "neg": (lambda: ad.tsum(ad.tanh(ad.neg(a34))), [a34]),
        "mul": (lambda: ad.tsum(ad.tanh(ad.mul(a34, col))), [a34, col]),
        "matmul": (lambda: ad.tsum(ad.sigmoid(ad.matmul(m_a, m_b))), [m_a, m_b]),
        "affine": (lambda: ad.tsum(ad.sigmoid(ad.affine(m_a, m_b, aff_b))), [m_a, m_b, aff_b]),
        "concat": (lambda: ad.tsum(ad.tanh(ad.concat(parts, axis=1))), parts),
        "sigmoid": (lambda: ad.tsum(ad.sigmoid(a34)), [a34]),
        "tanh": (lambda: ad.tsum(ad.tanh(b34)), [b34]),
        "softmax": (
            lambda: ad.tsum(ad.mul(ad.softmax(sm), np.arange(15.0).reshape(3, 5))),
            [sm],
        ),
        "softmax_masked": (
            lambda: ad.tsum(ad.mul(ad.softmax(sq, mask=tri), np.eye(4) + 0.3)),
            [sq],
        ),
        "softmax_masked_axis0": (
            lambda: ad.tsum(ad.mul(ad.softmax(cols, mask=ends_after_start, axis=0), col_weights)),
            [cols],
        ),
        "sum": (lambda: ad.tsum(ad.sigmoid(ad.tsum(a34, axis=1))), [a34]),
        "sum_axis0": (lambda: ad.tsum(ad.sigmoid(ad.tsum(a34, axis=0))), [a34]),
        "mean": (lambda: ad.tmean(ad.mul(a34, a34)), [a34]),
        "log": (lambda: ad.tsum(ad.log(pos)), [pos]),
        "clip_min": (lambda: ad.tsum(ad.log(ad.clip_min(pos, 0.5))), [pos]),
        "dropout": (
            lambda: ad.tsum(ad.dropout(a34, 0.4, np.random.default_rng(drop_seed))),
            [a34],
        ),
        "embedding": (lambda: ad.tsum(ad.tanh(ad.embedding(table, ids))), [table]),
        "take_rows": (lambda: ad.tsum(ad.sigmoid(ad.take_rows(table, ids))), [table]),
        "transpose": (lambda: ad.tsum(ad.mul(ad.transpose(m_a), ad.transpose(m_a))), [m_a]),
        "reshape": (lambda: ad.tsum(ad.tanh(ad.reshape(a34, (4, 3)))), [a34]),
        "pick": (lambda: ad.tsum(ad.sigmoid(ad.pick(sq, pick_r, pick_c))), [sq]),
        "gru_run": (run(run_xp, 4, run_mask, True), [run_xp, u_zr, u_c]),
        "gru_run_fwd": (run(run_xp, 4, None, False), [run_xp, u_zr, u_c]),
        "gru_run_fwd_masked": (run(run_xp, 4, fwd_mask, False), [run_xp, u_zr, u_c]),
        "gru_run_one_step": (run(step_xp, 1, None, False), [step_xp, u_zr, u_c]),
        "gru_sequence": (
            lambda: ad.tsum(ad.sigmoid(rnn.gru_sequence(seq_x, 4, 2, w, 3, None, True))),
            [seq_x] + list(w.values()),
        ),
    }


def _token_graph_config(seed: int):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        vocab_size=9,
        num_classes=2,
        embed_dim=3,
        enc_hidden=2,
        enc_layers=1,
        task_hidden=4,
        token_gru_hidden=3,
        dropout=0.0,
        head="token",
    )
    model = ExplainerModel(cfg, seed=seed)
    B, T = 2, 5
    ids = rng.integers(4, 9, (B, T))
    pad = np.ones((B, T))
    pad[0, 4:] = 0
    doc_mask = pad.copy()
    doc_mask[:, 0] = 0
    idx = [np.arange(1, 4) * B + 0, np.arange(1, 5) * B + 1]
    targets = [rng.integers(0, 2, 3).astype(float), rng.integers(0, 2, 4).astype(float)]
    for t in targets:
        t[0] = 1.0  # keep both classes present
        t[-1] = 0.0
    labels = rng.integers(0, 2, B)

    def build():
        enc = model.encode(ids, pad)
        l_task = losses.task_loss(model.predict_task(enc), labels)
        scores = model.explain_tokens(enc, doc_mask)
        l_exp = losses.token_explanation_loss(scores, idx, targets)
        return losses.combined_loss(l_task, l_exp, 1.7).total

    return build, list(model.parameters().values())


def _span_graph_config(seed: int):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        vocab_size=9,
        num_classes=2,
        embed_dim=3,
        enc_hidden=2,
        enc_layers=1,
        task_hidden=4,
        span_hidden=2,
        span_len=4,
        dropout=0.0,
        head="span",
    )
    model = ExplainerModel(cfg, seed=seed)
    B, T = 2, 5
    ids = rng.integers(4, 9, (B, T))
    pad = np.ones((B, T))
    doc_start = np.array([1, 0])
    doc_sublen = np.array([4, 3])
    pad[1, 3:] = 0
    # every real start slot, time-major (row t*B + b), and its target
    rows = np.array([0, 1, 2, 3, 4, 5, 6])
    start_targets = np.array([1.0, 0, 0, 1, 0, 0, 0])
    spans = [[(0, 2)], [(1, 3)]]

    def build():
        enc = model.encode(ids, pad)
        sf = model.explain_spans(enc, doc_start, doc_sublen)
        l_start = losses.span_start_loss(ad.take_rows(sf.p_start, rows), start_targets)
        l_end = losses.span_end_loss(sf.p_end, spans)
        return losses.span_total_loss(l_start, l_end)

    return build, list(model.parameters().values())


def test_every_registered_op_has_a_gradient_config():
    missing = sorted(set(ad.OPS) - set(_per_op_configs(0)))
    assert not missing, f"ops without a finite-difference configuration: {missing}"


class TestCriterion1:
    def test_gradient_correctness(self):
        start = time.monotonic()
        configs = []
        for seed in (101, 202):
            configs.extend(_per_op_configs(seed).items())
        for seed in (11, 22):
            configs.append((f"token_loss_graph_{seed}", _token_graph_config(seed)))
            configs.append((f"span_loss_graph_{seed}", _span_graph_config(seed)))
        failures = [name for name, (build, tensors) in configs if not _fd_config_ok(build, tensors)]
        elapsed = time.monotonic() - start
        ok = not failures and len(configs) >= 58 and elapsed <= 60.0
        report(
            1,
            ok,
            f"{len(configs)} random configurations, rel err <= {RTOL_FD} at h={H_FD}, "
            f"{elapsed:.1f}s (failures: {failures or 'none'})",
        )


class TestCriterion2:
    def test_loss_oracles(self):
        value = losses.weighted_token_bce(
            Tensor([0.8, 0.2, 0.2, 0.2]), [1, 0, 0, 0], "inverse_prior"
        ).item()
        hand_ok = abs(value - 0.446288) <= 1e-6

        bd = losses.combined_loss(Tensor(0.62531), Tensor(42.0), 0.0)
        lam_ok = bd.total.item() == 0.62531

        rng = np.random.default_rng(3)
        p = Tensor(rng.uniform(0.05, 0.95, 10))
        t = np.array([1, 0] * 5, dtype=float)
        balanced = losses.weighted_token_bce(p, t, "inverse_prior").item()
        plain = losses.weighted_token_bce(p, t, "none").item()
        bal_ok = abs(balanced - 2.0 * plain) <= 1e-12

        report(
            2,
            hand_ok and lam_ok and bal_ok,
            f"weighted BCE {value:.9f} vs 0.446288 (within 1e-6: {hand_ok}); "
            f"lambda=0 exact: {lam_ok}; balanced = 2x unweighted within 1e-12: {bal_ok}",
        )


class TestCriterion3:
    def test_metric_oracles_brute_force(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            pred_mask = rng.integers(0, 2, n)
            gold_mask = rng.integers(0, 2, n)
            got = metrics.token_prf(pred_mask, gold_mask)
            want = ref.ref_token_prf(pred_mask, gold_mask)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))

            pred_spans = ref.random_span_set(rng, max(n, 4))
            gold_spans = ref.random_span_set(rng, max(n, 4))
            worst = max(
                worst,
                abs(metrics.iou_f1(pred_spans, gold_spans) - ref.ref_iou_f1(pred_spans, gold_spans)),
            )

            gold = gold_mask if gold_mask.any() else np.eye(n, dtype=int)[0]
            scores = np.round(rng.uniform(0, 1, n), 1)
            worst = max(worst, abs(metrics.auprc(scores, gold) - ref.ref_auprc(scores, gold)))

            k = int(rng.integers(2, 5))
            pl = rng.integers(0, k, n)
            gl = rng.integers(0, k, n)
            worst = max(worst, abs(metrics.macro_f1(pl, gl, k) - ref.ref_macro_f1(pl, gl, k)))

            stats = metrics.explanation_statistics([pred_spans], [gold_spans])
            ptok = {t for s, e in pred_spans for t in range(s, e)}
            gtok = {t for s, e in gold_spans for t in range(s, e)}
            jac, one_way = ref.ref_jaccard(ptok, gtok)
            worst = max(worst, abs(stats.jaccard - jac), abs(stats.one_way_jaccard - one_way))
        agreement_ok = worst <= 1e-9

        rng = np.random.default_rng(100)
        mono_ok = True
        for case in range(100):
            n = int(rng.integers(2, 33))
            gold = rng.integers(0, 2, n)
            if not gold.any():
                gold[0] = 1
            scores = np.round(rng.uniform(0, 1, n), 2)
            base = metrics.auprc(scores, gold)
            for tf in (lambda s: 10.0 * s - 3.0, np.exp, lambda s: s**5):
                if abs(metrics.auprc(tf(scores), gold) - base) > 1e-12:
                    mono_ok = False
        report(
            3,
            agreement_ok and mono_ok,
            f"1000 random instances, worst brute-force deviation {worst:.2e} (<= 1e-9: "
            f"{agreement_ok}); AUPRC monotone-invariant on 100 cases: {mono_ok}",
        )


class TestCriterion4:
    def test_structural_invariants(self, bench_dataset):
        dataset, _ = bench_dataset
        rng = np.random.default_rng(4)

        cfg = ModelConfig(
            vocab_size=len(dataset.vocab),
            num_classes=2,
            embed_dim=8,
            enc_hidden=6,
            enc_layers=1,
            span_hidden=4,
            span_len=12,
            dropout=0.0,
            head="span",
        )
        model = ExplainerModel(cfg, seed=5)
        ids = rng.integers(4, len(dataset.vocab), (3, 12))
        pad = np.ones((3, 12))
        pad[1, 9:] = 0
        sf = model.explain_spans(
            model.encode(ids, pad), np.zeros(3, dtype=int), np.array([12, 9, 12])
        )
        span_ok = True
        for b in range(3):
            block = sf.end_numpy(b)
            span_ok &= bool(np.abs(block.sum(axis=1) - 1.0).max() <= 1e-9)
            span_ok &= bool((block[np.tril_indices(12, k=-1)] == 0.0).all())

        mask_ok = True
        for _ in range(100):
            n = int(rng.integers(1, 20))
            tokens = [f"t{i}" for i in range(n)]
            m = rng.integers(0, 2, n)
            once = mask_input(tokens, m, ".")
            mask_ok &= mask_input(once, m, ".") == once

        round_ok = True
        for _ in range(200):
            n = int(rng.integers(4, 40))
            spans = ref.random_span_set(rng, n)
            round_ok &= metrics.mask_to_spans(metrics.spans_to_mask(spans, n)) == (
                metrics.normalize_spans(spans)
            )
            m = rng.integers(0, 2, n)
            round_ok &= (metrics.spans_to_mask(metrics.mask_to_spans(m), n) == m).all()

        tcfg = TrainConfig(lam=1.0, seed=5, enc_hidden=8, embed_dim=8, enc_layers=1)
        fresh = ExplainerModel(tcfg.model_config(len(dataset.vocab), 2, 512), seed=5)
        subset = dataset.splits["train"][:64]
        kept = filter_training_instances(
            subset, _explain(fresh, batchify(subset, tcfg.batch_size, dataset.vocab), tcfg)
        )
        brute = []
        for inst in subset:
            batch = batchify([inst], 1, dataset.vocab, tcfg.max_len)[0]
            probs = fresh.predict_task(fresh.encode(batch.ids, batch.pad_mask)).data[0]
            if int(np.argmax(probs)) == inst.label:
                brute.append(inst.uid)
        filter_ok = [i.uid for i in kept] == brute

        ok = span_ok and mask_ok and round_ok and filter_ok
        report(
            4,
            ok,
            f"span rows stochastic with exact sub-diagonal zeros: {span_ok}; mask_input "
            f"idempotent: {mask_ok}; span/mask round trip exact: {round_ok}; filter matches "
            f"brute-force predicate: {filter_ok}",
        )


class TestCriterion5:
    def test_synthetic_end_to_end(self, trained):
        _, rep, elapsed, _ = trained
        ok = rep.macro_f1 >= 0.95 and rep.token_f1 >= 0.80 and elapsed <= 600.0
        report(
            5,
            ok,
            f"test macro F1 {rep.macro_f1:.4f} (>= 0.95), token F1 {rep.token_f1:.4f} "
            f"(>= 0.80), pipeline {elapsed:.0f}s (<= 600s)",
        )


class TestCriterion6:
    def test_lambda_trend(self, sweep_rows):
        rows, _ = sweep_rows
        by_lam = {float(r["lambda"]): r for r in rows}
        token_ok = float(by_lam[10.0]["token_f1"]) >= float(by_lam[0.1]["token_f1"])
        macro_ok = float(by_lam[100.0]["macro_f1"]) <= float(by_lam[1.0]["macro_f1"])
        criterion_ok = all(
            float(r["criterion"]) == float(r["macro_f1"]) + float(r["token_f1"]) for r in rows
        )
        ok = token_ok and macro_ok and criterion_ok
        report(
            6,
            ok,
            "token F1 @10 {:.4f} >= @0.1 {:.4f}: {}; macro F1 @100 {:.4f} <= @1 {:.4f}: {}; "
            "criterion column exact rowwise sum: {}".format(
                float(by_lam[10.0]["token_f1"]),
                float(by_lam[0.1]["token_f1"]),
                token_ok,
                float(by_lam[100.0]["macro_f1"]),
                float(by_lam[1.0]["macro_f1"]),
                macro_ok,
                criterion_ok,
            ),
        )


class TestCriterion7:
    def test_faithfulness_direction(self, trained):
        state, _, _, dataset = trained
        instances = dataset.splits["test"]
        assert len(instances) >= 200
        results = [r.rationale_mask for r in infer_many(state, instances)]
        rng = np.random.default_rng(77)
        random_masks = []
        for mask in results:
            k = int(mask.sum())
            rand = np.zeros(len(mask), dtype=np.int8)
            if k:
                rand[rng.choice(len(mask), size=min(k, len(mask)), replace=False)] = 1
            random_masks.append(rand)
        comp_pred, suff_pred = faithfulness(state, instances, results)
        comp_rand, suff_rand = faithfulness(state, instances, random_masks)
        comp_gap = comp_pred.mean() - comp_rand.mean()
        suff_gap = suff_pred.mean() - suff_rand.mean()
        ok = comp_gap >= 0.05 and suff_gap <= -0.05
        report(
            7,
            ok,
            f"over {len(instances)} instances: comprehensiveness gap {comp_gap:+.3f} "
            f"(>= +0.05), sufficiency gap {suff_gap:+.3f} (<= -0.05)",
        )


class TestCriterion8:
    def test_train_determinism(self, tmp_path):
        data_dir = tmp_path / "data"
        rc = cli.main(
            [
                "gen-data",
                "--out",
                str(data_dir),
                "--n",
                "200",
                "--n-val",
                "40",
                "--n-test",
                "40",
                "--vocab",
                "120",
                "--doc-len",
                "12",
                "20",
                "--phrase-len",
                "3",
                "4",
                "--seed",
                "13",
            ]
        )
        assert rc == 0
        payloads = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = cli.main(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--out",
                    str(out),
                    "--seed",
                    "21",
                    "--epochs",
                    "3",
                ]
            )
            assert rc == 0
            payloads.append((out / "metrics.json").read_bytes())
        ok = payloads[0] == payloads[1]
        report(8, ok, f"two seeded train runs byte-identical metrics JSON: {ok}")
