"""Property tests of span normalization, the word/sub-token span maps, the
rationale an instance is built with, and the JSONL round trip
(``hypothesis``, derandomized so every run checks the same examples). The
mask/span round trips are in ``test_metrics.py``."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etp.data import Instance, load_jsonl, save_jsonl
from etp.metrics import mask_to_spans, normalize_spans, spans_to_mask
from etp.models import subtoken_spans_to_words, word_spans_to_subtokens

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def spans_within(draw, length, max_spans=4):
    """Up to ``max_spans`` nonempty half-open spans inside [0, length),
    possibly overlapping or adjacent."""
    spans = []
    for _ in range(draw(st.integers(0, max_spans))):
        s = draw(st.integers(0, length - 1))
        spans.append((s, draw(st.integers(s + 1, length))))
    return spans


@st.composite
def sized_spans(draw):
    length = draw(st.integers(1, 20))
    return length, draw(spans_within(length))


@st.composite
def word_partitions(draw):
    """Contiguous sub-token groups, one per word, and spans over the words."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=10))
    ends = np.cumsum(sizes).tolist()
    groups = list(zip([0] + ends[:-1], ends))
    return groups, draw(spans_within(len(groups)))


@PROPERTY
@given(sized_spans())
def test_normalize_spans_is_idempotent_and_disjoint(case):
    length, spans = case
    once = normalize_spans(spans)
    assert normalize_spans(once) == once
    for s, e in once:
        assert 0 <= s < e <= length
    # sorted, and separated by at least one uncovered position
    for (_, e1), (s2, _) in zip(once, once[1:]):
        assert e1 < s2
    np.testing.assert_array_equal(spans_to_mask(once, length), spans_to_mask(spans, length))


@PROPERTY
@given(word_partitions())
def test_word_to_subtoken_spans_round_trip(case):
    groups, spans = case
    assert subtoken_spans_to_words(word_spans_to_subtokens(spans, groups), groups) == (
        normalize_spans(spans)
    )


@st.composite
def documents_with_spans(draw):
    doc = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=20))
    return doc, draw(spans_within(len(doc)))


@PROPERTY
@given(documents_with_spans())
def test_instance_mask_is_binary_and_agrees_with_its_spans(case):
    doc, spans = case
    inst = Instance.from_spans("doc", doc, None, 0, 0, spans)
    assert inst.rationale_mask.shape == (len(doc),)
    assert np.isin(inst.rationale_mask, (0, 1)).all()
    assert mask_to_spans(inst.rationale_mask) == inst.rationale_spans


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    out = []
    for i in range(n):
        doc = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6))
        query = draw(st.one_of(st.none(), st.lists(st.text(min_size=1, max_size=4), max_size=3)))
        raw = draw(st.one_of(st.integers(0, 3), st.sampled_from(["pos", "neg", "0", "x y"])))
        spans = draw(spans_within(len(doc), max_spans=2))
        out.append(Instance.from_spans(f"doc-{i}", doc, query, 0, raw, spans))
    return out


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(instances())
def test_save_then_load_jsonl_round_trips(insts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.jsonl"
        save_jsonl(path, insts)
        loaded, label_map = load_jsonl(path)
    assert len(loaded) == len(insts)
    for got, want in zip(loaded, insts):
        assert got.uid == want.uid
        assert got.document == want.document
        assert got.query == want.query
        assert got.label_raw == want.label_raw
        assert got.label == label_map[str(want.label_raw)]
        assert got.rationale_spans == want.rationale_spans
        np.testing.assert_array_equal(got.rationale_mask, want.rationale_mask)
