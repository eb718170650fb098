"""Dataset layer tests: JSONL schema, vocabulary, synthetic generator,
and batch layout."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from etp import data
from etp.data import (
    Batch,
    DataError,
    Instance,
    Layout,
    SyntheticSpec,
    Vocabulary,
    batchify,
    build_label_map,
    generate_synthetic,
    lay_out,
    load_dataset,
    load_jsonl,
    pack,
    save_jsonl,
    subtokenize,
    write_dataset,
)
from etp.pipeline import _gold_spans, _token_targets


class TestVocabulary:
    def test_reserved_ids_stable_across_save_load(self, tmp_path):
        vocab = Vocabulary.build(["zebra", "apple", "zebra"], wildcard=".")
        vocab.save(tmp_path / "vocab.txt")
        again = Vocabulary.load(tmp_path / "vocab.txt")
        assert again.tokens == vocab.tokens
        assert (again.pad_id, again.sep_id, again.wildcard_id, again.unk_id) == (0, 1, 2, 3)
        assert again.wildcard == "."

    def test_reserved_ids_distinct(self):
        vocab = Vocabulary.build([], wildcard="_")
        ids = {vocab.pad_id, vocab.sep_id, vocab.wildcard_id, vocab.unk_id}
        assert len(ids) == 4

    def test_digest_depends_on_the_tokens_alone(self, tmp_path):
        vocab = Vocabulary.build(["zebra", "apple"])
        vocab.save(tmp_path / "vocab.txt")
        assert Vocabulary.load(tmp_path / "vocab.txt").digest() == vocab.digest()
        assert Vocabulary.build(["zebra", "apples"]).digest() != vocab.digest()
        assert Vocabulary.build(["zebra", "apple"], wildcard="_").digest() != vocab.digest()

    def test_tokens_holding_other_line_breaks_survive_save_and_load(self, tmp_path):
        # only "\n" ends a line of vocab.txt; every other break a token may hold is kept
        words = ["a\x85b", "c\rd", "x", "e\u2028f", "g\x0bh", "i\x1cj", "k\u2029l", "m\x0cn"]
        vocab = Vocabulary.build(words)
        vocab.save(tmp_path / "vocab.txt")
        again = Vocabulary.load(tmp_path / "vocab.txt")
        assert again.tokens == vocab.tokens
        assert len(again) == Vocabulary.N_RESERVED + len(words)
        assert again.digest() == vocab.digest()

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.build(["a"])
        np.testing.assert_array_equal(vocab.encode(["a", "never-seen"]), [4, vocab.unk_id])

    def test_wildcard_collision_rejected(self):
        with pytest.raises(DataError):
            Vocabulary.build([], wildcard="<pad>")

    @pytest.mark.parametrize("token", ["", "a\nb"])
    def test_unserializable_token_rejected_on_build(self, token):
        # rejected when the vocabulary is made, not after training when it is saved
        with pytest.raises(DataError, match="cannot be serialized one-per-line"):
            Vocabulary.build(["ok", token])

    def test_decode_inverts_encode_for_known_tokens(self):
        vocab = Vocabulary.build(["x", "y"])
        ids = vocab.encode(["x", "y", "."])
        assert [vocab.tokens[i] for i in ids] == ["x", "y", "."]


class TestSubtokenize:
    def test_word_mode_identity(self):
        assert subtokenize("hello", "word") == ["hello"]

    def test_char_bigram(self):
        assert subtokenize("cat", "char_bigram") == ["ca", "at"]
        assert subtokenize("ab", "char_bigram") == ["ab"]
        assert subtokenize("x", "char_bigram") == ["x"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            subtokenize("x", "sentencepiece")


class TestJsonl:
    def test_schema_mapping(self, tmp_path):
        path = tmp_path / "d.jsonl"
        line = {
            "id": "a",
            "document": ["x", "y"],
            "query": None,
            "label": 0,
            "evidences": [{"start_token": 1, "end_token": 2}],
        }
        path.write_text(json.dumps(line) + "\n")
        instances, label_map = load_jsonl(path)
        inst = instances[0]
        np.testing.assert_array_equal(inst.rationale_mask, [0, 1])
        assert inst.rationale_spans == [(1, 2)]
        assert label_map == {"0": 0}

    def test_empty_evidences_all_zero_mask(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"id": "a", "document": ["x"], "query": None, "label": "neg", "evidences": []})
            + "\n"
        )
        instances, _ = load_jsonl(path)
        np.testing.assert_array_equal(instances[0].rationale_mask, [0])

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(DataError, match=":1:"):
            load_jsonl(path)

    def test_span_out_of_range_reports_instance(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "bad-span",
                    "document": ["x", "y"],
                    "query": None,
                    "label": 0,
                    "evidences": [{"start_token": 1, "end_token": 5}],
                }
            )
            + "\n"
        )
        with pytest.raises(DataError, match="bad-span"):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "document, evidences, message",
        [
            ([], [], "'document' must be a non-empty array"),
            (["x", "y"], [{"start_token": 2, "end_token": 1}], r"span \(2, 1\) is empty"),
            (["x", "y"], [{"start_token": 1, "end_token": 1}], r"span \(1, 1\) is empty"),
            (["x", "y"], [{"start_token": -1, "end_token": 1}], r"span \(-1, 1\)"),
            (["x", "y"], [{"start_token": 0, "end_token": 3}], r"outside \[0, 2\]"),
            (["x", "y"], [{"start_token": False, "end_token": True}], "must be integers"),
            (["x", "y"], [{"start_token": 0, "end_token": 1.0}], "must be integers"),
        ],
        ids=["empty-document", "inverted", "empty-span", "negative", "past-end", "bool", "float"],
    )
    def test_bad_document_or_span_names_path_and_line(self, tmp_path, document, evidences, message):
        path = tmp_path / "d.jsonl"
        good = {"id": "a", "document": ["x"], "label": 0, "evidences": []}
        bad = {"id": "b", "document": document, "label": 0, "evidences": evidences}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match=f"{path}:2: .*{message}"):
            load_jsonl(path)

    def test_round_trip_identity(self, tmp_path):
        spec = SyntheticSpec(seed=3)
        splits, label_map = generate_synthetic(spec, 30)
        path = tmp_path / "round.jsonl"
        save_jsonl(path, splits["train"])
        again, _ = load_jsonl(path, label_map)
        assert len(again) == len(splits["train"])
        for a, b in zip(splits["train"], again):
            assert a.uid == b.uid
            assert a.document == b.document
            assert a.query == b.query
            assert a.label == b.label
            assert a.rationale_spans == b.rationale_spans
            np.testing.assert_array_equal(a.rationale_mask, b.rationale_mask)

    def test_label_map_numeric_ordering(self):
        assert build_label_map([10, 2, 2, 1]) == {"1": 0, "2": 1, "10": 2}
        assert build_label_map(["pos", "neg"]) == {"neg": 0, "pos": 1}


class TestInstanceValidation:
    def test_empty_document_rejected(self):
        with pytest.raises(DataError, match="instance z: empty document"):
            Instance.from_spans("z", [], None, 0, 0, [])

    @pytest.mark.parametrize(
        "span, message",
        [((1, 0), r"empty or inverted span \(1, 0\)"), ((0, 5), r"span \(0, 5\) out of range")],
        ids=["inverted", "past-end"],
    )
    def test_bad_span_names_the_instance(self, span, message):
        with pytest.raises(DataError, match=r"^instance u7: " + message):
            Instance.from_spans("u7", ["a", "b"], None, 0, 0, [span])


class TestSyntheticGenerator:
    def test_fixed_seed_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            splits, label_map = generate_synthetic(SyntheticSpec(seed=7), 50)
            write_dataset(tmp_path / sub, splits, label_map)
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.txt", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_distractors_single_planted_span(self):
        spec = SyntheticSpec(distractor_rate=0.0, phrase_len=(3, 3), seed=1)
        splits, _ = generate_synthetic(spec, 100)
        for inst in splits["train"]:
            assert len(inst.rationale_spans) == 1
            s, e = inst.rationale_spans[0]
            assert e - s == 3
            assert all(tok.startswith("k") for tok in inst.document[s:e])

    def test_class_token_frequency_classifier_is_perfect_without_distractors(self):
        spec = SyntheticSpec(distractor_rate=0.0, seed=2)
        splits, _ = generate_synthetic(spec, 200)
        for inst in splits["train"]:
            counts = Counter(
                int(tok[1]) for tok in inst.document if tok.startswith("k")
            )
            assert counts.most_common(1)[0][0] == inst.label

    def test_distractor_strictly_shorter_keeps_majority_class(self):
        spec = SyntheticSpec(distractor_rate=1.0, seed=3)
        splits, _ = generate_synthetic(spec, 200)
        for inst in splits["train"]:
            counts = Counter(int(tok[1]) for tok in inst.document if tok.startswith("k"))
            majority = counts.most_common(1)[0]
            evidence_class = int(inst.label)
            assert majority[0] == evidence_class

    def test_pair_mode(self):
        spec = SyntheticSpec(pair_task=True, seed=4)
        splits, label_map = generate_synthetic(spec, 100)
        assert label_map == {"refuted": 0, "supported": 1}
        for inst in splits["train"]:
            assert inst.query is not None and len(inst.query) == 1
            evidence_class = int(inst.document[inst.rationale_spans[0][0]][1])
            query_class = int(inst.query[0][1])
            assert (inst.label_raw == "supported") == (evidence_class == query_class)

    def test_splits_disjoint_by_id(self):
        splits, _ = generate_synthetic(SyntheticSpec(seed=5), 40)
        ids = [i.uid for split in splits.values() for i in split]
        assert len(ids) == len(set(ids))

    def test_phrase_longer_than_min_doc_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(doc_len=(4, 10), phrase_len=(5, 6)).validate()


class TestBatchify:
    def _vocab(self, instances):
        corpus = [t for inst in instances for t in inst.document + (inst.query or [])]
        return Vocabulary.build(corpus)

    def _inst(self, uid, doc, query=None, spans=(), label=0):
        return Instance.from_spans(uid, doc, query, label, label, list(spans))

    def test_single_instance_no_padding(self):
        inst = self._inst("a", ["x", "y", "z"], spans=[(0, 1)])
        vocab = self._vocab([inst])
        (batch,) = batchify([inst], 4, vocab)
        assert batch.size == 1 and batch.ids.shape[1] == 3
        assert batch.pad_mask.all()

    def test_mixed_lengths_padded(self):
        insts = [self._inst("a", ["x"] * 3), self._inst("b", ["y"] * 5)]
        vocab = self._vocab(insts)
        (batch,) = batchify(insts, 2, vocab)
        assert batch.ids.shape[1] == 5
        np.testing.assert_array_equal(batch.pad_mask[0], [1, 1, 1, 0, 0])
        assert (batch.ids[0, 3:] == vocab.pad_id).all()

    def test_pair_layout_query_sep_document(self):
        inst = self._inst("a", ["d1", "d2"], query=["q1", "q2"])
        vocab = self._vocab([inst])
        (batch,) = batchify([inst], 1, vocab)
        expected = [
            vocab.index["q1"],
            vocab.index["q2"],
            vocab.sep_id,
            vocab.index["d1"],
            vocab.index["d2"],
        ]
        np.testing.assert_array_equal(batch.ids[0], expected)
        assert batch.doc_start[0] == 3
        np.testing.assert_array_equal(batch.doc_mask[0], [0, 0, 0, 1, 1])

    def test_truncation_drops_document_never_query(self):
        inst = self._inst("a", [f"d{i}" for i in range(10)], query=["q"], spans=[(0, 2)])
        vocab = self._vocab([inst])
        (batch,) = batchify([inst], 1, vocab, max_len=6)
        assert batch.ids.shape[1] == 6
        assert len(batch.layouts[0].word_groups) == 4  # q, sep, then 4 document words
        assert batch.ids[0, 0] == vocab.index["q"]
        assert _gold_spans(batch.layouts[0]) == [(0, 2)]

    def test_gold_spans_are_clipped_to_the_kept_words(self):
        inst = self._inst("a", [f"d{i}" for i in range(6)], spans=[(1, 2), (3, 6)])
        (lay,) = lay_out([inst], self._vocab([inst]), max_len=4)
        assert _gold_spans(lay) == [(1, 2), (3, 4)]
        (lay,) = lay_out([inst], self._vocab([inst]), max_len=3)
        assert _gold_spans(lay) == [(1, 2)]

    def test_gold_targets_follow_word_mask(self):
        inst = self._inst("a", ["w0", "w1", "w2", "w3"], spans=[(1, 3)])
        vocab = self._vocab([inst])
        (batch,) = batchify([inst], 1, vocab)
        np.testing.assert_array_equal(_token_targets(batch.layouts[0]), [0, 1, 1, 0])

    def test_char_bigram_groups_partition_subtokens(self):
        inst = self._inst("a", ["cat", "dogs"], spans=[(0, 1)])
        corpus = [s for w in inst.document for s in subtokenize(w, "char_bigram")]
        vocab = Vocabulary.build(corpus)
        (batch,) = batchify([inst], 1, vocab, subtoken_mode="char_bigram")
        # cat -> 2 bigrams, dogs -> 3 bigrams
        assert batch.layouts[0].word_groups == [(0, 2), (2, 5)]
        np.testing.assert_array_equal(_token_targets(batch.layouts[0]), [1, 1, 0, 0, 0])

    def test_doc_row_index_addresses_time_major_rows(self):
        insts = [self._inst("a", ["x", "y"]), self._inst("b", ["p", "q", "r"])]
        vocab = self._vocab(insts)
        (batch,) = batchify(insts, 2, vocab)
        flat = batch.ids.T.reshape(-1)
        for b, inst in enumerate(insts):
            rows = batch.doc_row_index[b]
            got = [vocab.tokens[flat[r]] for r in rows]
            assert got == inst.document

    def test_layouts_pack_in_any_order_like_batchify(self):
        insts = [
            self._inst("a", ["x", "y"], spans=[(1, 2)]),
            self._inst("b", ["p", "q", "r", "s"], query=["x"], spans=[(0, 2)]),
            self._inst("c", ["y"] * 3, spans=[(2, 3)], label=1),
        ]
        vocab = self._vocab(insts)
        layouts = lay_out(insts, vocab, max_len=4)
        assert [len(lay) for lay in layouts] == [2, 4, 3]
        order = [2, 0, 1]
        packed = pack([layouts[i] for i in order], 2)
        direct = batchify([insts[i] for i in order], 2, vocab, max_len=4)
        assert len(packed) == len(direct) == 2
        for got, want in zip(packed, direct):
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    np.testing.assert_array_equal(a, b)
                elif f.name == "doc_row_index":
                    for x, y in zip(a, b, strict=True):
                        np.testing.assert_array_equal(x, y)
                else:
                    assert f.name == "layouts"
                    for x, y in zip(a, b, strict=True):
                        assert x.instance is y.instance and x.doc_start == y.doc_start
                        assert (x.word_groups, _gold_spans(x)) == (y.word_groups, _gold_spans(y))
                        np.testing.assert_array_equal(x.ids, y.ids)
                        np.testing.assert_array_equal(_token_targets(x), _token_targets(y))

    def test_batches_hold_the_given_layouts_in_order(self):
        insts = [self._inst(u, ["x"] * n) for u, n in (("a", 3), ("b", 1), ("c", 2))]
        layouts = lay_out(insts, self._vocab(insts))
        order = [layouts[1], layouts[2], layouts[0]]
        batches = pack(order, 2)
        held = [lay for b in batches for lay in b.layouts]
        assert len(held) == 3 and all(x is y for x, y in zip(held, order))
        assert [len(b.layouts) for b in batches] == [b.size for b in batches] == [2, 1]

    def test_layout_holds_only_what_the_network_reads(self):
        names = [f.name for f in dataclasses.fields(Layout)]
        assert names == ["instance", "ids", "doc_start", "word_groups"]

    def test_truncation_stops_subtokenizing_at_the_first_word_past_the_budget(self, monkeypatch):
        inst = self._inst("a", [f"w{i % 7}" for i in range(1000)])
        vocab = self._vocab([inst])
        calls = []

        def counting(word, mode="word"):
            calls.append(word)
            return subtokenize(word, mode)

        monkeypatch.setattr(data, "subtokenize", counting)
        (lay,) = lay_out([inst], vocab, max_len=8)
        assert len(lay) == len(lay.word_groups) == 8
        assert len(calls) <= 9

    def test_query_overflow_rejected(self):
        inst = self._inst("a", ["d"], query=["q"] * 8)
        vocab = self._vocab([inst])
        with pytest.raises(DataError, match="budget"):
            batchify([inst], 1, vocab, max_len=6)


class TestDatasetDirectory:
    def test_write_then_load(self, tmp_path):
        splits, label_map = generate_synthetic(SyntheticSpec(seed=9), 20)
        write_dataset(tmp_path / "ds", splits, label_map)
        ds = load_dataset(tmp_path / "ds")
        assert set(ds.splits) == {"train", "val", "test"}
        assert ds.num_classes == 2
        assert len(ds.splits["train"]) == 20
        assert ds.vocab.wildcard == "."
