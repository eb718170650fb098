"""Metric oracles: hand examples, brute-force agreement, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etp import metrics
from etp.metrics import (
    ExplanationStats,
    MetricsReport,
    auprc,
    comprehensiveness,
    explanation_statistics,
    iou_f1,
    lambda_criterion,
    macro_f1,
    mask_to_spans,
    normalize_spans,
    spans_to_mask,
    sufficiency,
    token_prf,
)

import reference as ref

# the same 200 examples on every run
ROUND_TRIP = settings(derandomize=True, database=None, max_examples=200, deadline=None)


class TestSpanMaskPlumbing:
    def test_spans_to_mask_example(self):
        np.testing.assert_array_equal(spans_to_mask([(1, 3)], 4), [0, 1, 1, 0])

    def test_mask_to_spans_example(self):
        assert mask_to_spans([1, 1, 0, 1]) == [(0, 2), (3, 4)]

    @ROUND_TRIP
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_round_trip_random_masks(self, bits):
        mask = np.array(bits)
        np.testing.assert_array_equal(spans_to_mask(mask_to_spans(mask), mask.size), mask)

    @ROUND_TRIP
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 6)), max_size=4).map(
                    lambda pairs: [(s, min(s + k, n)) for s, k in pairs]
                ),
            )
        )
    )
    def test_round_trip_random_spans(self, case):
        n, spans = case
        assert mask_to_spans(spans_to_mask(spans, n)) == normalize_spans(spans)

    def test_out_of_range_span_rejected(self):
        with pytest.raises(ValueError, match="range"):
            spans_to_mask([(2, 9)], 5)

    def test_normalize_merges_and_sorts(self):
        assert normalize_spans([(5, 7), (1, 3), (2, 4)]) == [(1, 4), (5, 7)]

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            normalize_spans([(3, 3)])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 1, 0], [0, 1, 1, 0], 2) == 1.0

    def test_hand_confusion(self):
        assert macro_f1([0, 0, 1, 1], [0, 1, 0, 1], 2) == pytest.approx(0.5)

    def test_constant_prediction(self):
        # class 0: P=0.5, R=1 -> F1=2/3; class 1 never predicted -> 0
        assert macro_f1([0, 0, 0, 0], [0, 0, 1, 1], 2) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([], [], 2)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 32))
            pred = rng.integers(0, k, n)
            gold = rng.integers(0, k, n)
            assert macro_f1(pred, gold, k) == pytest.approx(
                ref.ref_macro_f1(pred, gold, k), abs=1e-9
            )


class TestTokenPrf:
    def test_identical(self):
        assert token_prf([1, 0, 1], [1, 0, 1]) == (1.0, 1.0, 1.0)

    def test_hand_counts(self):
        assert token_prf([1, 1, 0, 0], [0, 1, 1, 0]) == (0.5, 0.5, 0.5)

    def test_empty_pred(self):
        assert token_prf([0, 0, 0], [1, 1, 0]) == (0.0, 0.0, 0.0)

    def test_precision_recall_swap_under_argument_exchange(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 32))
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 2, n)
            pa, ra, fa = token_prf(a, b)
            pb, rb, fb = token_prf(b, a)
            assert pa == rb and ra == pb and fa == pytest.approx(fb)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 32))
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 2, n)
            got = token_prf(a, b)
            want = ref.ref_token_prf(a, b)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestIouF1:
    def test_identical_nonempty(self):
        assert iou_f1([(2, 5)], [(2, 5)]) == 1.0

    def test_low_overlap_below_threshold(self):
        # overlap 2, union 6 -> IOU 1/3 < 0.5
        assert iou_f1([(2, 6)], [(4, 8)]) == 0.0

    def test_high_overlap_above_threshold(self):
        # overlap 3, union 4 -> IOU 3/4 >= 0.5
        assert iou_f1([(0, 4)], [(0, 3)]) == 1.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            n = int(rng.integers(4, 32))
            pred = ref.random_span_set(rng, n)
            gold = ref.random_span_set(rng, n)
            assert iou_f1(pred, gold) == pytest.approx(ref.ref_iou_f1(pred, gold), abs=1e-9)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.1], [1, 0]) == 1.0

    def test_positive_found_second(self):
        assert auprc([0.1, 0.9], [1, 0]) == 0.5

    def test_all_positive_gold(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            scores = rng.uniform(0, 1, 7)
            assert auprc(scores, np.ones(7)) == 1.0

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            auprc([0.5, 0.5], [0, 0])

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 32))
            gold = rng.integers(0, 2, n)
            if not gold.any():
                gold[int(rng.integers(n))] = 1
            # quantized scores create real ties
            scores = np.round(rng.uniform(0, 1, n), 1)
            assert auprc(scores, gold) == pytest.approx(ref.ref_auprc(scores, gold), abs=1e-9)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(8)
        transforms = [
            lambda s: 3.0 * s + 1.0,
            lambda s: s**3,
            lambda s: np.exp(s),
            lambda s: np.tanh(2.0 * s),
        ]
        for case in range(100):
            n = int(rng.integers(2, 32))
            gold = rng.integers(0, 2, n)
            if not gold.any():
                gold[int(rng.integers(n))] = 1
            scores = np.round(rng.uniform(0, 1, n), 2)
            base = auprc(scores, gold)
            tf = transforms[case % len(transforms)]
            assert auprc(tf(scores), gold) == pytest.approx(base, abs=1e-12)


class _FakePredictor:
    """predict_proba closure standing in for a trained model: confidence
    for class 1 grows with the number of visible key tokens."""

    def __init__(self, key_positions, n_tokens):
        self.key = np.zeros(n_tokens)
        self.key[key_positions] = 1.0

    def __call__(self, keep):
        visible = self.key if keep is None else self.key * np.asarray(keep)
        p1 = 0.1 + 0.8 * visible.sum() / max(self.key.sum(), 1)
        return np.array([1.0 - p1, p1])


class TestFaithfulness:
    def test_empty_rationale_comprehensiveness_is_exactly_zero(self):
        fn = _FakePredictor([2, 3], 6)
        assert comprehensiveness(fn, np.zeros(6, dtype=int)) == 0.0

    def test_full_rationale_sufficiency_is_exactly_zero(self):
        fn = _FakePredictor([2, 3], 6)
        assert sufficiency(fn, np.ones(6, dtype=int)) == 0.0

    def test_values_within_unit_interval_bounds(self):
        rng = np.random.default_rng(9)
        fn = _FakePredictor([1, 4], 8)
        for _ in range(20):
            mask = rng.integers(0, 2, 8)
            assert -1.0 <= comprehensiveness(fn, mask) <= 1.0
            assert -1.0 <= sufficiency(fn, mask) <= 1.0

    def test_two_pass_composition(self):
        fn = _FakePredictor([0, 1, 5], 6)
        mask = np.array([1, 1, 0, 0, 0, 0])
        full = fn(None)
        j = int(np.argmax(full))
        assert comprehensiveness(fn, mask) == pytest.approx(full[j] - fn(1 - mask)[j])
        assert sufficiency(fn, mask) == pytest.approx(full[j] - fn(mask)[j])


class TestExplanationStatistics:
    def test_identical_rationales(self):
        spans = [[(0, 3)], [(2, 5)]]
        stats = explanation_statistics(spans, spans)
        assert stats.jaccard == 1.0 and stats.one_way_jaccard == 1.0
        assert stats.rationale_precision == 1.0 and stats.rationale_recall == 1.0

    def test_hand_set_arithmetic(self):
        stats = explanation_statistics([[(1, 3)]], [[(2, 4)]])
        assert stats.jaccard == pytest.approx(1.0 / 3.0)
        assert stats.one_way_jaccard == pytest.approx(0.5)

    def test_macro_average_length(self):
        stats = explanation_statistics([[(0, 4), (10, 12)]], [[(0, 1)]])
        assert stats.machine_avg_span_length == pytest.approx(3.0)
        assert stats.gold_avg_span_length == pytest.approx(1.0)

    def test_brute_force_jaccard_agreement(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(4, 32))
            pred = ref.random_span_set(rng, n)
            gold = ref.random_span_set(rng, n)
            stats = explanation_statistics([pred], [gold])
            pred_tokens = {t for s, e in pred for t in range(s, e)}
            gold_tokens = {t for s, e in gold for t in range(s, e)}
            jac, one_way = ref.ref_jaccard(pred_tokens, gold_tokens)
            assert stats.jaccard == pytest.approx(jac, abs=1e-9)
            assert stats.one_way_jaccard == pytest.approx(one_way, abs=1e-9)


class TestLambdaCriterion:
    def test_examples(self):
        assert lambda_criterion(1.0, 1.0) == 2.0
        assert lambda_criterion(0.9, 0.4) == pytest.approx(1.3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lambda_criterion(1.2, 0.0)

    def test_argmax_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        grid = [(float(m), float(t)) for m, t in rng.uniform(0, 1, (20, 2))]
        scores = [lambda_criterion(m, t) for m, t in grid]
        best = int(np.argmax(scores))
        brute = max(range(len(grid)), key=lambda i: grid[i][0] + grid[i][1])
        assert best == brute


class TestReportSerialization:
    def _report(self):
        return MetricsReport(
            macro_f1=0.5,
            token_precision=0.25,
            token_recall=0.75,
            token_f1=0.375,
            token_f1_micro=0.4,
            iou_f1=0.1,
            auprc=0.9,
            comprehensiveness=0.2,
            sufficiency=-0.05,
            statistics=ExplanationStats(3.0, 4.0, 0.5, 0.6, 0.3, 0.7),
            n_instances=10,
        )

    def test_json_round_trip(self):
        import json

        report = self._report()
        assert json.loads(report.to_json()) == report.to_dict()

    def test_text_has_flat_keys(self):
        text = self._report().to_text()
        assert "macro_f1 = 0.5" in text
        assert "statistics.jaccard = 0.3" in text

    def test_none_faithfulness_serializes(self):
        report = self._report()
        report.comprehensiveness = None
        assert '"comprehensiveness": null' in report.to_json()
