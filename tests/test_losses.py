"""Loss oracles: hand-derived values, invariants, and gradient checks."""

import math

import numpy as np
import pytest

import etp.autodiff as ad
from etp.autodiff import Tape, Tensor
from etp import losses

from helpers import fd_check

LN2 = math.log(2.0)


class TestTaskLoss:
    def test_perfect_prediction(self):
        probs = Tensor([[1.0, 0.0]])
        assert losses.task_loss(probs, [0]).item() == 0.0

    def test_uniform_prediction(self):
        probs = Tensor([[0.5, 0.5]])
        assert losses.task_loss(probs, [1]).item() == pytest.approx(LN2, abs=1e-12)

    def test_batch_mean(self):
        probs = Tensor([[1.0, 0.0], [0.5, 0.5]])
        expected = (0.0 + LN2) / 2
        assert losses.task_loss(probs, [0, 0]).item() == pytest.approx(expected, abs=1e-12)
        assert losses.task_loss(probs, [0, 0]).item() == pytest.approx(0.3466, abs=1e-4)

    def test_zero_probability_clamped(self):
        probs = Tensor([[0.0, 1.0]])
        value = losses.task_loss(probs, [0]).item()
        assert value == pytest.approx(-math.log(losses.CLAMP))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        labels = np.array([0, 2, 3])
        fd_check(lambda: losses.task_loss(ad.softmax(logits), labels), [logits])


class TestWeightedTokenBce:
    def test_exact_match_is_zero(self):
        p = Tensor([1.0, 0.0, 0.0, 1.0])
        t = [1, 0, 0, 1]
        assert losses.weighted_token_bce(p, t).item() == 0.0

    def test_hand_derived_inverse_prior(self):
        p = Tensor([0.8, 0.2, 0.2, 0.2])
        t = [1, 0, 0, 0]
        # (1/4)[4*(-ln 0.8) + 3*(4/3)*(-ln 0.8)] = -2 ln 0.8
        expected = -2.0 * math.log(0.8)
        value = losses.weighted_token_bce(p, t).item()
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.446288, abs=1e-6)

    def test_hand_derived_uniform_pair(self):
        value = losses.weighted_token_bce(Tensor([0.5, 0.5]), [1, 0]).item()
        assert value == pytest.approx(2 * LN2, abs=1e-12)

    def test_balanced_equals_twice_unweighted(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.uniform(0.05, 0.95, 8))
        t = np.array([1, 0, 1, 0, 0, 1, 0, 1])
        weighted = losses.weighted_token_bce(p, t, "inverse_prior").item()
        unweighted = losses.weighted_token_bce(p, t, "none").item()
        assert weighted == pytest.approx(2.0 * unweighted, abs=1e-12)

    def test_single_class_falls_back_to_uniform(self):
        p = Tensor([0.7, 0.9])
        t = np.ones(2)
        inv = losses.weighted_token_bce(p, t, "inverse_prior").item()
        plain = losses.weighted_token_bce(p, t, "none").item()
        assert inv == plain

    def test_literal_count_mode(self):
        p = Tensor([0.8, 0.2, 0.2, 0.2])
        t = [1, 0, 0, 0]
        # (1/4)[1*BCE + 3*3*BCE] = (10/4) * (-ln 0.8)
        expected = -(10.0 / 4.0) * math.log(0.8)
        value = losses.weighted_token_bce(p, t, "literal_count").item()
        assert value == pytest.approx(expected, abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="weighting"):
            losses.weighted_token_bce(Tensor([0.5]), [1], "bogus")

    def test_nonnegative_and_zero_only_on_match(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            t = rng.integers(0, 2, n).astype(float)
            p = Tensor(rng.uniform(0.01, 0.99, n))
            value = losses.weighted_token_bce(p, t).item()
            assert value > 0.0
        exact = Tensor(np.array([1.0, 0.0, 1.0]))
        assert losses.weighted_token_bce(exact, [1, 0, 1]).item() == 0.0

    def test_gradient(self):
        rng = np.random.default_rng(3)
        raw = Tensor(rng.uniform(-2, 2, 6), requires_grad=True)
        t = np.array([1, 0, 0, 1, 0, 0], dtype=float)
        fd_check(lambda: losses.weighted_token_bce(ad.sigmoid(raw), t), [raw])


class TestBatchedTokenLoss:
    def test_equals_mean_of_per_passage_losses(self):
        rng = np.random.default_rng(4)
        n_rows = 20
        scores_data = rng.uniform(0.05, 0.95, (n_rows, 1))
        idx = [np.array([0, 3, 5, 7]), np.array([8, 9, 10]), np.array([12, 15, 16, 18, 19])]
        targets = [np.array([1.0, 0, 0, 1]), np.array([0.0, 1, 0]), np.array([1.0, 0, 0, 0, 1])]
        for mode in losses.WEIGHTING_MODES:
            fused = losses.token_explanation_loss(Tensor(scores_data), idx, targets, mode).item()
            manual = np.mean(
                [
                    losses.weighted_token_bce(Tensor(scores_data[i, 0]), t, mode).item()
                    for i, t in zip(idx, targets)
                ]
            )
            assert fused == pytest.approx(manual, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        raw = Tensor(rng.uniform(-1, 1, (8, 1)), requires_grad=True)
        idx = [np.array([0, 1, 2]), np.array([4, 5, 6, 7])]
        targets = [np.array([1.0, 0, 0]), np.array([0.0, 1, 1, 0])]
        fd_check(
            lambda: losses.token_explanation_loss(ad.sigmoid(raw), idx, targets),
            [raw],
        )


class TestCombinedLoss:
    def test_lambda_zero_total_is_task_exactly(self):
        bd = losses.combined_loss(Tensor(0.123456789), Tensor(7.7), 0.0)
        assert bd.total.item() == 0.123456789

    def test_arithmetic(self):
        bd = losses.combined_loss(Tensor(1.0), Tensor(2.0), 5.0)
        assert bd.total.item() == 11.0

    def test_tensor_path_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            task = Tensor(rng.uniform(0, 3))
            exp = Tensor(rng.uniform(0, 3))
            lam = float(rng.uniform(0, 10))
            bd = losses.combined_loss(task, exp, lam)
            assert bd.total.item() == task.item() + lam * exp.item()

    def test_lambda_zero_tensor_path(self):
        task, exp = Tensor(0.777), Tensor(123.456)
        bd = losses.combined_loss(task, exp, 0.0)
        assert bd.total.item() == task.item()

    def test_monotone_in_lambda(self):
        values = [
            losses.combined_loss(Tensor(1.0), Tensor(0.5), lam).total.item()
            for lam in (0.0, 0.1, 1.0, 5.0, 50.0)
        ]
        assert values == sorted(values)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            losses.combined_loss(Tensor(1.0), Tensor(1.0), -0.1)

    def test_gradient_flows_through_both_terms(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)

        def loss():
            task = ad.tsum(ad.mul(a, a))
            exp = ad.tsum(ad.sigmoid(b))
            return losses.combined_loss(task, exp, 2.5).total

        fd_check(loss, [a, b])


class TestSpanLosses:
    def test_perfect_start_predictions(self):
        assert losses.span_start_loss(Tensor([1.0, 0.0, 0.0]), [1, 0, 0]).item() == 0.0

    def test_start_hand_value(self):
        value = losses.span_start_loss(Tensor([0.5, 0.5]), [1, 0]).item()
        assert value == pytest.approx(2 * LN2, abs=1e-12)

    def test_start_unchanged_by_matching_token(self):
        base = losses.span_start_loss(Tensor([0.5, 0.5]), [1, 0]).item()
        extended = losses.span_start_loss(Tensor([0.5, 0.5, 1.0]), [1, 0, 1]).item()
        assert extended == base

    def test_end_certain_span_is_zero(self):
        p_end = Tensor(np.eye(3))
        assert losses.span_end_loss(p_end, [[(0, 1)]]).item() == 0.0

    def test_end_two_half_probability_spans(self):
        p_end = Tensor(np.full((4, 4), 0.5))
        value = losses.span_end_loss(p_end, [[(0, 2), (2, 4)]]).item()
        assert value == pytest.approx(2 * LN2, abs=1e-12)

    def test_end_empty_span_set(self):
        assert losses.span_end_loss(Tensor(np.eye(3)), [[]]).item() == 0.0

    def test_end_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            losses.span_end_loss(Tensor(np.eye(3)), [[(2, 4)]])

    def test_end_reads_each_document_block(self):
        # two stacked 3x3 blocks; document 1's span (1, 3) reads row 3 + 1, column 2
        p_end = np.zeros((6, 3))
        p_end[0, 1] = 0.5
        p_end[4, 2] = 0.25
        value = losses.span_end_loss(Tensor(p_end), [[(0, 2)], [(1, 3)]]).item()
        assert value == pytest.approx(LN2 + 2 * LN2, abs=1e-12)

    def test_end_block_count_mismatch_rejected(self):
        with pytest.raises(ad.DimensionError, match="2 documents"):
            losses.span_end_loss(Tensor(np.eye(3)), [[(0, 1)], [(0, 1)]])

    def test_total_is_sum(self):
        assert losses.span_total_loss(Tensor(1.0), Tensor(0.5)).item() == 1.5
        assert losses.span_total_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0

    def test_total_recomputation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p_start = Tensor(rng.uniform(0.05, 0.95, 6))
            t = rng.integers(0, 2, 6).astype(float)
            p_end = Tensor(rng.dirichlet(np.ones(6), size=6))
            spans = [(1, 3), (4, 6)]
            s = losses.span_start_loss(p_start, t)
            e = losses.span_end_loss(p_end, [spans])
            assert losses.span_total_loss(s, e).item() == s.item() + e.item()

    def test_gradients(self):
        rng = np.random.default_rng(9)
        raw_start = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        raw_end = Tensor(rng.uniform(-1, 1, (5, 5)), requires_grad=True)
        t = np.array([1.0, 0, 0, 1, 0])
        tri = np.where(np.triu(np.ones((5, 5))) > 0, 0.0, -np.inf)
        spans = [(0, 2), (3, 5)]

        def loss():
            start = losses.span_start_loss(ad.sigmoid(raw_start), t)
            end = losses.span_end_loss(ad.softmax(raw_end, mask=tri), [spans])
            return losses.span_total_loss(start, end)

        fd_check(loss, [raw_start, raw_end])
